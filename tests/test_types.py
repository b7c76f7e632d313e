from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambek.grammar import parse_grammar_file, validate
from lambek.types import (
    UNIT,
    Atom,
    Over,
    Prod,
    Sequent,
    TypeSyntaxError,
    Under,
    UnitType,
    iter_atoms,
    mirror_type,
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


def atoms_strategy():
    syms = sorted(GRAMMAR.terminals | GRAMMAR.nonterminals, key=lambda s: s.name)
    return st.sampled_from([Atom(s) for s in syms])


def types_strategy():
    return st.recursive(
        atoms_strategy() | st.just(UNIT),
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
