import gc
import weakref

import pytest

from lambek.analyzer import InjectionContext, classify_input
from lambek.earley import check_unambiguous
from lambek.grammar import (
    GrammarError,
    enumerate_words,
    iter_words_sorted,
    length_lex_key,
    memo,
    nullable_ids,
    nullable_set,
    parse_grammar_file,
    render_word,
    validate,
    word_from_text,
)
from lambek.prover import Prover
from lambek.semantics import soundness_check
from lambek.types import parse_sequent


def names(symbols):
    return sorted(s.name for s in symbols)


def words_text(ws):
    return sorted(render_word(w) for w in ws)


def test_bool_grammar_shape(bool_g):
    assert names(bool_g.nonterminals) == ["C", "D", "E", "F", "T", "V"]
    assert names(bool_g.terminals) == ["1", "=", "AND", "OR", "a", "b"]
    assert len(bool_g.productions) == 10
    assert bool_g.start.name == "E"


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
    with pytest.raises(GrammarError, match="duplicate production"):
        parse_grammar_file("start S\nS ::= x | x ;\n")


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
    assert names(nullable_set(bool_g)) == ["D", "F"]
    wit = memo(bool_g, nullable_ids)
    assert all(bool_g.productions[pid].rhs == () for pid in wit.values())


def test_nullable_indirect():
    g = parse_grammar_file("start S\nS ::= A x ;\nA ::= B B ;\nB ::= ;\n")
    assert names(nullable_set(g)) == ["A", "B"]
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
