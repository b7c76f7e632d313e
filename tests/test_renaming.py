"""Answers do not depend on the names of the symbols or on the order of the productions.

A bijective renaming of a grammar's symbols, each keeping its kind, and a
permutation of its productions leave every answer unchanged up to the
renaming: the prover's status, the oracle's verdict kind (a renamed
counterexample is still certified, and a pass checks as many words),
check_unambiguous's kind (a renamed witness is still ambiguous),
classify_input's classification and capture types, and hole_language's
words.  The symbols get fresh names in a drawn order, so the name order that
the grammar's symbol table fixes changes too.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from lambek.analyzer import InjectionContext, hole_language
from lambek.earley import Witness, check_unambiguous
from lambek.grammar import Grammar, Production, Symbol, ambiguous_words, load_grammar, word_from_text
from lambek.prover import Prover, check_proof
from lambek.semantics import Counterexample, SemBound, context_denotation_bounded, member_bounded, soundness_check
from lambek.types import Atom, Over, Prod, Sequent, Under, parse_sequent, render_sequent
from test_analyzer import INPUTS, TEMPLATES, _outcome, cut_sentences
from test_prover import (
    PROVABLE, UNPROVABLE, _within_two_seconds, cyclic_grammars, ignore_swallowed_alarms, l_rule_sequents,
    mixed_sequents, split_sequents,
)

BOUND = SemBound(4)


@st.composite
def renamings(draw, g):
    """g over fresh symbol names in a drawn order and its productions in a
    drawn order, with the renaming of its symbols."""
    symbols = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    order = draw(st.permutations(range(len(symbols))))
    rn = {s: Symbol(s.kind, f"r{k:02d}") for s, k in zip(symbols, order)}
    productions = draw(st.permutations(g.productions))
    renamed = Grammar(
        frozenset(rn[t] for t in g.terminals),
        frozenset(rn[x] for x in g.nonterminals),
        tuple(Production(rn[p.lhs], tuple(rn[s] for s in p.rhs)) for p in productions),
        rn[g.start],
    )
    return renamed, rn


def renamed_type(t, rn):
    """t with every atom renamed by rn."""
    if isinstance(t, Atom):
        return Atom(rn[t.symbol])
    if isinstance(t, Under):
        return Under(renamed_type(t.arg, rn), renamed_type(t.result, rn))
    if isinstance(t, Over):
        return Over(renamed_type(t.result, rn), renamed_type(t.arg, rn))
    if isinstance(t, Prod):
        return Prod(renamed_type(t.left, rn), renamed_type(t.right, rn))
    return t


def renamed_word(w, rn):
    return tuple(rn[x] for x in w)


def renamed_context(ctx, rn):
    return InjectionContext(renamed_word(ctx.prefix, rn), renamed_word(ctx.suffix, rn), rn[ctx.goal], rn[ctx.expected])


def _assert_sequents_renamed(g, h, rn, sequents):
    """Each sequent over g and its renaming over h get the same status from
    the prover and the same verdict kind from the oracle."""
    for s in sequents:
        s2 = Sequent(tuple(renamed_type(t, rn) for t in s.antecedent), renamed_type(s.succedent, rn))
        there = Prover(h).prove(s2)
        assert Prover(g).prove(s).status is there.status, render_sequent(s)
        assert not there.proved or check_proof(h, there.proof).ok, render_sequent(s)
        verdict, verdict2 = soundness_check(g, s, BOUND), soundness_check(h, s2, BOUND)
        assert type(verdict) is type(verdict2), render_sequent(s)
        if isinstance(verdict, Counterexample):
            w = renamed_word(verdict.word, rn)
            assert w in context_denotation_bounded(h, s2.antecedent, BOUND, len(w)), render_sequent(s)
            assert not member_bounded(h, w, s2.succedent, BOUND), render_sequent(s)
        else:
            assert verdict == verdict2, render_sequent(s)


def _assert_languages_renamed(g, h, rn, max_len):
    """Each nonterminal of g and its renaming over h are both unambiguous up
    to max_len, or both have a witness that the other derives twice too."""
    for x in g.nonterminals:
        here, there = check_unambiguous(g, x, max_len), check_unambiguous(h, rn[x], max_len)
        assert type(here) is type(there), x
        if isinstance(here, Witness):
            assert renamed_word(here.word, rn) in ambiguous_words(h, rn[x], max_len), x


def _assert_templates_renamed(g, h, rn, ctx, inputs, n):
    """At ctx over g and at its renaming over h, each input classifies alike
    up to the renaming, and the hole admits the renamed words up to n."""
    ctx2 = renamed_context(ctx, rn)
    for w in inputs:
        here, there = _outcome(g, ctx, w), _outcome(h, ctx2, renamed_word(w, rn))
        if isinstance(here, type):
            assert there is here, (ctx, w)
        else:
            assert there == (here[0], {(side, renamed_type(t, rn)) for side, t in here[1]}), (ctx, w)
    assert hole_language(h, ctx2, n) == {renamed_word(w, rn) for w in hole_language(g, ctx, n)}, ctx


def _assert_renamed(g, h, rn, sequents, ctx, inputs, n):
    _assert_sequents_renamed(g, h, rn, sequents)
    _assert_languages_renamed(g, h, rn, 4)
    _assert_templates_renamed(g, h, rn, ctx, inputs, n)


@ignore_swallowed_alarms
@settings(max_examples=150)
@given(cyclic_grammars(), st.data())
def test_answers_survive_renaming_on_random_grammars(g, data):
    h, rn = data.draw(renamings(g))
    sequents = data.draw(st.lists(st.one_of(split_sequents(g), mixed_sequents(g), l_rule_sequents(g)), max_size=3))
    words = st.lists(st.sampled_from(sorted(g.terminals, key=lambda s: s.name)), max_size=3).map(tuple)
    hole = data.draw(st.sampled_from(sorted(g.nonterminals, key=lambda s: s.name)))
    ctx = InjectionContext(data.draw(words), data.draw(words), g.start, hole)
    inputs = data.draw(st.lists(words, min_size=1, max_size=2))
    _within_two_seconds(_assert_renamed, g, h, rn, sequents, ctx, inputs, data.draw(st.integers(0, 3)))


@ignore_swallowed_alarms
@settings(max_examples=150)
@given(cut_sentences(), st.data())
def test_classifications_survive_renaming_on_cut_sentences(cut, data):
    """Templates that parse, so that benign and ill-formed inputs come up."""
    g, ctx, w = cut
    h, rn = data.draw(renamings(g))
    _within_two_seconds(_assert_templates_renamed, g, h, rn, ctx, [w], 2)


BOOL_G = load_grammar("bool")[0]
# the prover's fixed judgments and two more that the oracle refutes
BOOL_SEQUENTS = [parse_sequent(text, BOOL_G) for text in (*PROVABLE, *UNPROVABLE, "OR |- (T\\T)/T", "a , = |- E")]


@settings(max_examples=20)
@given(renamings(BOOL_G))
def test_answers_survive_renaming_on_bool(renaming):
    h, rn = renaming
    _assert_sequents_renamed(BOOL_G, h, rn, BOOL_SEQUENTS)
    _assert_languages_renamed(BOOL_G, h, rn, 5)
    for prefix, suffix, goal, expected in TEMPLATES.values():
        ctx = InjectionContext(
            word_from_text(BOOL_G, prefix), word_from_text(BOOL_G, suffix), BOOL_G.symbol(goal), BOOL_G.symbol(expected)
        )
        _assert_templates_renamed(BOOL_G, h, rn, ctx, [word_from_text(BOOL_G, text) for text in INPUTS], 2)
