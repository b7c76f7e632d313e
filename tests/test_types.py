import copy
import gc
import pickle
import sys
import threading
import weakref
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambek import types
from lambek.grammar import parse_grammar_file, validate
from lambek.types import (
    UNIT,
    Atom,
    LambekType,
    Over,
    Prod,
    Sequent,
    TypeSyntaxError,
    Under,
    UnitType,
    iter_atoms,
    parse_sequent,
    parse_type,
    render_sequent,
    render_type,
    type_size,
    type_universe,
)

# strategies need the grammar at collection time, before fixtures run
_text = (resources.files("lambek") / "grammars" / "bool.g").read_text(encoding="utf-8")
GRAMMAR, _ = validate(parse_grammar_file(_text))


def mirror_type(t: LambekType) -> LambekType:
    """Swap Under with Over and reverse products; an involution."""
    if isinstance(t, Under):
        return Over(mirror_type(t.result), mirror_type(t.arg))
    if isinstance(t, Over):
        return Under(mirror_type(t.arg), mirror_type(t.result))
    if isinstance(t, Prod):
        return Prod(mirror_type(t.right), mirror_type(t.left))
    return t


def atoms_strategy(g=GRAMMAR):
    syms = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    return st.sampled_from([Atom(s) for s in syms])


def types_strategy(g=GRAMMAR):
    return st.recursive(
        atoms_strategy(g) | st.just(UNIT),
        lambda sub: st.one_of(
            st.builds(Under, sub, sub),
            st.builds(Over, sub, sub),
            st.builds(Prod, sub, sub),
        ),
        max_leaves=8,
    )


def test_parse_shapes():
    t = parse_type("(T/V)\\E", GRAMMAR)
    assert t == Under(Over(Atom(GRAMMAR.symbol("T")), Atom(GRAMMAR.symbol("V"))),
                      Atom(GRAMMAR.symbol("E")))
    assert parse_type("E/(V\\T)", GRAMMAR) == mirror_type(t)
    assert parse_type("1", GRAMMAR) == UNIT
    assert parse_type('"1"', GRAMMAR) == Atom(GRAMMAR.symbol("1"))
    assert parse_type("V*V", GRAMMAR) == Prod(Atom(GRAMMAR.symbol("V")), Atom(GRAMMAR.symbol("V")))


def test_product_binds_tighter_than_implication():
    V, E, T = (Atom(GRAMMAR.symbol(n)) for n in "VET")
    assert parse_type("T/V*E", GRAMMAR) == Over(T, Prod(V, E))
    assert parse_type("V*E\\T", GRAMMAR) == Under(Prod(V, E), T)
    assert parse_type("V*E*T", GRAMMAR) == Prod(Prod(V, E), T)


def test_implications_not_associative():
    with pytest.raises(TypeSyntaxError, match="parenthesize"):
        parse_type("T\\V\\E", GRAMMAR)
    with pytest.raises(TypeSyntaxError, match="parenthesize"):
        parse_type("T/V/E", GRAMMAR)


def test_parse_errors():
    for bad, msg in [
        ("", "unexpected end"),
        ("(T", "missing"),
        ("T V", "trailing"),
        ("XOR", "unknown atom"),
        ("T \\", "unexpected end"),
    ]:
        with pytest.raises(TypeSyntaxError, match=msg):
            parse_type(bad, GRAMMAR)


def test_parse_sequent_word_tokens():
    s = parse_sequent("b , OR , 1 , = , 1 |- V", GRAMMAR)
    assert [t.symbol.name for t in s.antecedent] == ["b", "OR", "1", "=", "1"]
    # the bare 1 in an antecedent is the word token, never the unit
    assert all(isinstance(t, Atom) for t in s.antecedent)
    assert s.succedent == Atom(GRAMMAR.symbol("V"))


def test_parse_sequent_unit_succedent():
    s = parse_sequent("|- 1", GRAMMAR)
    assert s.antecedent == ()
    assert isinstance(s.succedent, UnitType)


def test_parse_sequent_mixed_types():
    s = parse_sequent("T/V , 1 , V |- T", GRAMMAR)
    assert isinstance(s.antecedent[0], Over)
    # the token rule wins even between type items; parenthesize for the unit
    assert isinstance(s.antecedent[1], Atom)
    assert isinstance(s.antecedent[2], Atom)
    s2 = parse_sequent("T/V , (1) , V |- T", GRAMMAR)
    assert isinstance(s2.antecedent[1], UnitType)


def test_parse_sequent_reads_each_item_text_once():
    """Repeated items are one object, the succedent's text included; a bare 1
    is the terminal in the antecedent and still the unit in the succedent."""
    s = parse_sequent("(E/E)/(E/E) , E/E , (E/E)/(E/E) , E/E |- E/E", GRAMMAR)
    f, x = s.antecedent[:2]
    assert s.antecedent[2] is f and s.antecedent[3] is x and s.succedent is x
    s = parse_sequent("1 , 1 |- 1", GRAMMAR)
    assert s.antecedent[0] is s.antecedent[1] == Atom(GRAMMAR.symbol("1")) and s.succedent is UNIT


def test_parse_sequent_errors():
    with pytest.raises(TypeSyntaxError, match="exactly one"):
        parse_sequent("T |- V |- E", GRAMMAR)
    with pytest.raises(TypeSyntaxError, match="empty antecedent"):
        parse_sequent("T , , V |- E", GRAMMAR)


def test_render_frozen():
    t = parse_type("(T/V)\\E", GRAMMAR)
    assert render_type(t) == "(T/V)\\E"
    assert render_type(parse_type("T/(V*E)", GRAMMAR)) == "T/V*E"
    assert render_type(parse_type("(V*E)*T", GRAMMAR)) == "V*E*T"
    assert render_type(parse_type("V*(E*T)", GRAMMAR)) == "V*(E*T)"
    assert render_type(Atom(GRAMMAR.symbol("1"))) == '"1"'
    assert render_sequent(parse_sequent("|- 1", GRAMMAR)) == "|- 1"
    assert (
        render_sequent(parse_sequent("b , OR , 1 , = , 1 |- (T/V)\\E", GRAMMAR))
        == 'b , OR , "1" , = , "1" |- (T/V)\\E'
    )


@given(types_strategy())
def test_parse_inverts_render(t):
    assert parse_type(render_type(t), GRAMMAR) == t


@given(types_strategy())
def test_mirror_involution(t):
    assert mirror_type(mirror_type(t)) == t
    assert type_size(mirror_type(t)) == type_size(t)


@given(types_strategy())
def test_mirror_reverses_atom_order(t):
    assert list(iter_atoms(mirror_type(t))) == list(reversed(list(iter_atoms(t))))


@given(types_strategy(), types_strategy())
def test_equal_types_hash_alike(t1, t2):
    if t1 == t2:
        assert hash(t1) == hash(t2)
    assert hash(Sequent((t1,), t2)) == hash(Sequent((t1,), t2))


def type_texts():
    """Type texts with every operand in parentheses, some doubled, so that
    distinct texts often name one type."""
    return st.recursive(
        st.sampled_from(["E", "T", "V", "1", '"1"']),
        lambda sub: st.builds(
            lambda x, op, y, extra: f"{'(' * extra}({x}){op}({y}){')' * extra}",
            sub, st.sampled_from(["\\", "/", "*"]), sub, st.integers(0, 1),
        ),
        max_leaves=4,
    )


@given(type_texts(), type_texts())
def test_types_are_equal_exactly_when_they_render_alike(x, y):
    """Types are hash-consed: equal types are one object, which its own text reads back."""
    a, b = parse_type(x, GRAMMAR), parse_type(y, GRAMMAR)
    assert (a == b) is (a is b) is (render_type(a) == render_type(b))
    assert parse_type(render_type(a), GRAMMAR) is a


def test_a_type_built_or_copied_is_the_parsed_one():
    t = parse_type("(T/V)\\E*1", GRAMMAR)
    T, V, E = (GRAMMAR.symbol(n) for n in "TVE")
    assert Under(Over(Atom(T), Atom(V)), Prod(Atom(E), UNIT)) is t
    assert Under(result=Prod(right=UnitType(), left=Atom(symbol=E)), arg=Over(arg=Atom(V), result=Atom(T))) is t
    assert copy.copy(t) is t and copy.deepcopy(t) is t and pickle.loads(pickle.dumps(t)) is t


def test_the_intern_table_keeps_no_dropped_type():
    before = set(types._TYPES)
    t = parse_type("(C*C*V*E)/(T\\(V*C*V*E))", GRAMMAR)
    dropped = weakref.ref(t)
    assert (Over, t.result, t.arg) in set(types._TYPES) - before
    del t
    gc.collect()
    assert dropped() is None and set(types._TYPES) <= before


def test_threads_that_build_one_type_build_one_object():
    """Four threads build E/(E/(… E …)) one level deeper each round, so each
    round's top level is new to all four at once; under a short switch
    interval a lost update would leave two equal types alive."""
    e, rounds = Atom(GRAMMAR.symbol("E")), 300
    start = threading.Barrier(4, timeout=10)
    built = [[] for _ in range(4)]

    def build(out):
        for _ in range(rounds):
            start.wait()
            out.append(Over(e, out[-1] if out else e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == rounds for out in built)
    assert all(x is y for out in built[1:] for x, y in zip(built[0], out))


def test_type_size():
    assert type_size(UNIT) == 1
    assert type_size(parse_type("(T/V)\\E", GRAMMAR)) == 5


def test_iter_atoms_order():
    t = parse_type("(T/V)\\E", GRAMMAR)
    assert [s.name for s in iter_atoms(t)] == ["T", "V", "E"]


def test_type_universe_depth0():
    atoms = [GRAMMAR.symbol(n) for n in ("T", "V", "E")]
    u = type_universe(GRAMMAR, atoms, 0)
    assert [render_type(t) for t in u] == ["1", "E", "T", "V"]


def test_type_universe_names_a_bad_depth():
    atoms = [GRAMMAR.symbol("T")]
    with pytest.raises(ValueError, match=r"^depth must be an integer, got 1\.5$"):
        type_universe(GRAMMAR, atoms, 1.5)
    with pytest.raises(ValueError, match=r"^depth must be nonnegative, got -1$"):
        type_universe(GRAMMAR, atoms, -1)


def test_type_universe_depth1():
    atoms = [GRAMMAR.symbol(n) for n in ("T", "V", "E")]
    u = type_universe(GRAMMAR, atoms, 1)
    assert len(u) == 31  # unit + 3 atoms + 3*3*3 one-connective types
    assert len(set(u)) == len(u)
    assert parse_type("T\\T", GRAMMAR) in u
    assert parse_type("(T/V)\\E", GRAMMAR) not in u
    keys = [(type_size(t), render_type(t)) for t in u]
    assert keys == sorted(keys)


def test_type_universe_depth2_contains_attack_type():
    atoms = [GRAMMAR.symbol(n) for n in ("T", "V", "E")]
    u = type_universe(GRAMMAR, atoms, 2)
    assert len(u) == 2704
    assert parse_type("(T/V)\\E", GRAMMAR) in u


def test_type_universe_rejects_foreign_atoms():
    other = parse_grammar_file("start S\nS ::= x ;\n")
    with pytest.raises(Exception, match="not declared"):
        type_universe(GRAMMAR, [other.symbol("x")], 1)


# terminals spelled a,b (a comma inside a name) and 1 (the unit's spelling)
COMMA_GRAMMAR, _ = validate(parse_grammar_file('start S\nS ::= "a,b" S | "1" | c ;\n'))


def test_sequent_text_names_the_unit_and_a_comma_terminal():
    s = parse_sequent('"a,b" , (1) , c , 1 |- S', COMMA_GRAMMAR)
    a_b, one = COMMA_GRAMMAR.symbol("a,b"), COMMA_GRAMMAR.symbol("1")
    assert s.antecedent == (Atom(a_b), UNIT, Atom(COMMA_GRAMMAR.symbol("c")), Atom(one))
    assert render_sequent(s) == '"a,b" , (1) , c , "1" |- S'
    # the bare 1 of bool.g's antecedents is its terminal, so the unit prints as (1)
    assert render_sequent(parse_sequent("(1) , b |- V", GRAMMAR)) == "(1) , b |- V"


@pytest.mark.parametrize("g", [GRAMMAR, COMMA_GRAMMAR], ids=["bool", "comma"])
@given(data=st.data())
def test_parse_sequent_inverts_render_sequent(g, data):
    s = data.draw(st.builds(Sequent, st.lists(types_strategy(g), max_size=4).map(tuple), types_strategy(g)))
    assert parse_sequent(render_sequent(s), g) == s
