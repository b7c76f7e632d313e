import gc
import weakref
from itertools import product

import pytest
from hypothesis import given, settings

from lambek.analyzer import InjectionContext, classify_input
from lambek.earley import check_unambiguous
from lambek.grammar import (
    EMPTY_WORD,
    Grammar,
    GrammarError,
    Production,
    Symbol,
    _word_layers,
    ambiguous_words,
    enumerate_words,
    enumerated_member,
    iter_words_sorted,
    length_lex_key,
    memo,
    nonterminal,
    nullable_ids,
    parse_grammar_file,
    production_ids,
    render_word,
    terminal,
    validate,
    word_from_text,
)
from lambek.prover import Prover
from lambek.semantics import soundness_check
from lambek.types import parse_sequent
from test_prover import cyclic_grammars


def names(symbols):
    return sorted(s.name for s in symbols)


def words_text(ws):
    return sorted(render_word(w) for w in ws)


def test_bool_grammar_shape(bool_g):
    assert names(bool_g.nonterminals) == ["C", "D", "E", "F", "T", "V"]
    assert names(bool_g.terminals) == ["1", "=", "AND", "OR", "a", "b"]
    assert len(bool_g.productions) == 10
    assert bool_g.start.name == "E"


def test_a_rebuilt_production_finds_the_grammars_own(bool_g):
    """Productions hash once, on their symbols; a copy built from fresh
    symbols equals the grammar's own, hashes alike and finds its id."""
    ids = memo(bool_g, production_ids)
    for pid, p in enumerate(bool_g.productions):
        q = Production(Symbol(p.lhs.kind, p.lhs.name), tuple(Symbol(s.kind, s.name) for s in p.rhs))
        assert q is not p and q == p and hash(q) == hash(p)
        assert ids[q] == pid


def test_symbol_lookup(bool_g):
    assert bool_g.symbol("E").name == "E"
    assert bool_g.symbol("OR").is_terminal
    assert not bool_g.symbol("E").is_terminal
    assert bool_g.declares("AND")
    assert not bool_g.declares("XOR")
    with pytest.raises(GrammarError, match="unknown symbol"):
        bool_g.symbol("XOR")


def test_parse_rejects_missing_start():
    with pytest.raises(GrammarError, match="start"):
        parse_grammar_file("S ::= x ;\n")


def test_parse_rejects_duplicate_start():
    with pytest.raises(GrammarError, match="duplicate start"):
        parse_grammar_file("start S\nstart S\nS ::= x ;\n")


def test_parse_rejects_unterminated_rule():
    with pytest.raises(GrammarError, match="';'"):
        parse_grammar_file("start S\nS ::= x\n")


def test_parse_rejects_duplicate_production():
    """The tree walk keeps every production's trees, so it relies on this check."""
    with pytest.raises(GrammarError, match="duplicate production"):
        parse_grammar_file("start S\nS ::= x | x ;\n")
    S, x = nonterminal("S"), terminal("x")
    with pytest.raises(GrammarError, match="duplicate production S ::= x"):
        Grammar(frozenset({x}), frozenset({S}), (Production(S, (x,)), Production(S, (S,)), Production(S, (x,))), S)


def test_parse_rejects_undefined_start():
    with pytest.raises(GrammarError, match="no productions"):
        parse_grammar_file("start T\nS ::= x ;\n")


def test_quoted_terminals():
    g = parse_grammar_file('start S\nS ::= "if" S | y ;\n')
    assert names(g.terminals) == ["if", "y"]
    with pytest.raises(GrammarError, match="quoted terminal"):
        parse_grammar_file('start S\nS ::= "S" ;\n')


def test_comments_and_blank_lines():
    g = parse_grammar_file("# leading\n\nstart S  # trailing\nS ::= x ;  # rule\n")
    assert names(g.terminals) == ["x"]


def test_validate_keeps_bool_intact(bool_g):
    g2, notes = validate(bool_g)
    assert g2 == bool_g
    assert notes == []


def test_validate_prunes_unreachable_but_keeps_tokens(eng_g):
    # eng.g declares a pronoun rule that is unreachable from Sent; the
    # fixture is already validated, so the rule is gone but its tokens stay
    assert "Pron" not in {s.name for s in eng_g.nonterminals}
    assert eng_g.declares("he") and eng_g.declares("him")
    assert len(eng_g.productions) == 4


def test_validate_prunes_unproductive():
    g = parse_grammar_file("start S\nS ::= x | A ;\nA ::= A y ;\n")
    g2, notes = validate(g)
    assert "A" not in {s.name for s in g2.nonterminals}
    assert any("unproductive" in n for n in notes)
    assert [p for p in g2.productions] == [g.productions[0]]


def test_nullable_set(bool_g):
    wit = memo(bool_g, nullable_ids)
    assert names(wit) == ["D", "F"]
    assert all(bool_g.productions[pid].rhs == () for pid in wit.values())


def test_nullable_indirect():
    g = parse_grammar_file("start S\nS ::= A x ;\nA ::= B B ;\nB ::= ;\n")
    assert names(memo(g, nullable_ids)) == ["A", "B"]
    assert g.productions[memo(g, nullable_ids)[g.symbol("A")]].rhs != ()


def test_enumerate_words_frozen(bool_g):
    assert words_text(enumerate_words(bool_g, bool_g.symbol("V"), 1)) == ["1", "a", "b"]
    t3 = enumerate_words(bool_g, bool_g.symbol("T"), 3)
    assert len(t3) == 9
    assert all(len(w) == 3 and w[1].name == "=" for w in t3)
    # E with both tails empty is exactly T at this length
    assert enumerate_words(bool_g, bool_g.symbol("E"), 3) == t3


def test_enumerate_words_nullable_and_terminal(bool_g):
    assert enumerate_words(bool_g, bool_g.symbol("F"), 2) == frozenset({()})
    assert enumerate_words(bool_g, bool_g.symbol("OR"), 3) == frozenset(
        {(bool_g.symbol("OR"),)}
    )


def test_enumerate_words_monotone(bool_g):
    e3 = enumerate_words(bool_g, bool_g.symbol("E"), 3)
    e7 = enumerate_words(bool_g, bool_g.symbol("E"), 7)
    assert e3 <= e7
    assert len(e7) == 9 + 81 * 2  # T, T AND T, T OR T


def test_enumerate_words_rejects_undeclared_symbols(bool_g):
    """A terminal the grammar does not declare derives no word of it, as an
    undeclared nonterminal does not; the table reader cannot tell."""
    enumerate_words(bool_g, bool_g.start, 2)
    for z in (terminal("zzz"), nonterminal("Z")):
        with pytest.raises(GrammarError, match=f"'{z.name}' is not declared"):
            enumerate_words(bool_g, z, 2)
        assert enumerated_member(bool_g, z, (terminal("zzz"),)) is None
    with pytest.raises(ValueError, match="max_len must be nonnegative, got -1"):
        enumerate_words(bool_g, bool_g.start, -1)


@pytest.mark.parametrize("read", [enumerate_words, ambiguous_words, check_unambiguous])
def test_a_bound_that_is_not_an_integer_is_rejected(bool_g, read):
    with pytest.raises(ValueError, match=r"^max_len must be an integer, got 1\.5$"):
        read(bool_g, bool_g.start, 1.5)


def _reference_words(g, max_len):
    """The reference: every symbol's words up to max_len, by a fixpoint that
    multiplies out every production's whole word sets on each pass."""
    words = {t: ({(t,)} if max_len >= 1 else set()) for t in g.terminals}
    for n in g.nonterminals:
        words[n] = set()
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            partials = {EMPTY_WORD}
            for s in p.rhs:
                partials = {pre + w for pre in partials for w in words[s] if len(pre) + len(w) <= max_len}
            before = len(words[p.lhs])
            words[p.lhs] |= partials
            changed |= len(words[p.lhs]) != before
    return words


@settings(max_examples=100)
@given(cyclic_grammars())
def test_word_table_grown_by_steps_equals_the_reference(g):
    """Grown at once or a few lengths at a time, through nullable and unit
    cycles, the table gives the reference's words at every bound; its reader
    answers None past the grown length and grows nothing."""
    symbols = sorted(g.terminals | g.nonterminals, key=lambda s: (s.kind.value, s.name))
    sigma = sorted(g.terminals, key=lambda s: s.name)
    reference = {n: _reference_words(g, n) for n in range(6)}
    for steps in ((5,), (2, 5), (0, 1, 3, 4, 5)):
        fresh = Grammar(g.terminals, g.nonterminals, g.productions, g.start)
        for bound in steps:
            for x in symbols:
                assert enumerate_words(fresh, x, bound) == reference[bound][x], (steps, bound, x)
            for x in symbols:
                for n in range(bound + 2):
                    for w in product(sigma, repeat=n):
                        known = enumerated_member(fresh, x, w)
                        assert known == (None if n > bound else w in reference[bound][x]), (steps, x, w)
            assert len(memo(fresh, _word_layers)) == bound + 1


def test_enumerated_words_are_terminal_strings(bool_g):
    for nt in bool_g.nonterminals:
        for w in enumerate_words(bool_g, nt, 4):
            assert len(w) <= 4
            assert all(s in bool_g.terminals for s in w)


def test_word_from_text(bool_g):
    w = word_from_text(bool_g, "b OR 1 = 1")
    assert [s.name for s in w] == ["b", "OR", "1", "=", "1"]
    assert word_from_text(bool_g, "  ") == ()
    with pytest.raises(GrammarError, match="foo"):
        word_from_text(bool_g, "a = foo")


def test_render_word_inverts_tokenization(bool_g):
    assert render_word(word_from_text(bool_g, "a = b")) == "a = b"
    assert render_word(()) == "ε"


def test_length_lex_order(bool_g):
    ws = {
        word_from_text(bool_g, t)
        for t in ["b", "1", "a = b", "a = a", "1 = 1", "OR"]
    }
    ordered = [render_word(w) for w in iter_words_sorted(ws)]
    assert ordered == ["1", "OR", "b", "1 = 1", "a = a", "a = b"]
    assert length_lex_key(()) < length_lex_key(word_from_text(bool_g, "1"))


def test_derived_tables_are_freed_with_the_grammar(load_bundled):
    """Every per-grammar table lives on the grammar, so none outlives it."""
    g = load_bundled("bool.g")
    s = parse_sequent("b , OR , 1 , = , 1 |- (T/V)\\E", g)
    soundness_check(g, s)
    assert Prover(g).prove(s).proved
    ctx = InjectionContext(word_from_text(g, "a ="), (), g.symbol("E"), g.symbol("V"))
    classify_input(g, ctx, word_from_text(g, "b OR 1 = 1"))
    enumerate_words(g, g.start, 4)
    check_unambiguous(g, g.start, 4)
    ref = weakref.ref(g)
    del g, s, ctx
    gc.collect()
    assert ref() is None
