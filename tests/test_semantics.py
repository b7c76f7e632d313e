import json
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambek
from lambek import earley, semantics
from lambek.earley import recognize
from lambek.grammar import _word_layers, enumerate_words, enumerated_member, memo, nonterminal, terminal, word_from_text
from lambek.prover import SearchStatus, parse_axiom
from lambek.semantics import (
    Counterexample,
    OraclePass,
    SemBound,
    context_denotation_bounded,
    denotation_bounded,
    member_bounded,
    prove_with_prescreen,
    soundness_check,
)
from lambek.types import UNIT, Atom, Over, Prod, Sequent, Under, parse_sequent, parse_type, type_universe
from test_inverse_method import small_grammars
from test_prover import BOOL_G, cyclic_grammars, mirror_sequent, reversed_grammar


def w(bool_g, text):
    return word_from_text(bool_g, text)


def test_member_atoms_are_exact(bool_g):
    V = parse_type("V", bool_g)
    assert member_bounded(bool_g, w(bool_g, "b"), V, SemBound(1))
    assert not member_bounded(bool_g, w(bool_g, "b OR 1 = 1"), V, SemBound(5))
    # atom membership ignores the bound entirely
    E = parse_type("E", bool_g)
    long = w(bool_g, "a = b OR 1 = 1 AND a = a")
    assert member_bounded(bool_g, long, E, SemBound(0))


def test_member_unit(bool_g):
    assert member_bounded(bool_g, (), UNIT, SemBound(2))
    assert not member_bounded(bool_g, w(bool_g, "b"), UNIT, SemBound(2))


def test_member_terminal_atom(bool_g):
    a = parse_type('"a"', bool_g)
    assert member_bounded(bool_g, w(bool_g, "a"), a, SemBound(2))
    assert not member_bounded(bool_g, w(bool_g, "a a"), a, SemBound(2))
    assert not member_bounded(bool_g, (), a, SemBound(2))


def test_member_agrees_with_recognizer(bool_g):
    b = SemBound(3)
    sigma = sorted(bool_g.terminals, key=lambda s: s.name)
    for a in ("V", "T", "E", "F"):
        t = parse_type(a, bool_g)
        sym = bool_g.symbol(a)
        for n in range(3):
            for word in product(sigma, repeat=n):
                assert member_bounded(bool_g, word, t, b) == recognize(bool_g, sym, word)


@settings(max_examples=100)
@given(cyclic_grammars())
def test_member_reads_word_tables_exactly(g):
    """Atom membership is recognition, with no table, a partial one and a covering one."""
    sigma = sorted(g.terminals, key=lambda s: s.name)
    words = [word for n in range(5) for word in product(sigma, repeat=n)]
    # atom membership ignores the bound, so each phase's own bound keeps the memo from answering
    for phase, bound in enumerate((None, 2, 4)):
        if bound is not None:
            enumerate_words(g, g.start, bound)
        for x in sorted(g.nonterminals, key=lambda s: s.name):
            for word in words:
                assert member_bounded(g, word, Atom(x), SemBound(phase)) == recognize(g, x, word), (bound, x, word)


def test_word_table_reader_answers_none_when_it_cannot_tell(load_bundled):
    g = load_bundled("bool.g")
    word = w(g, "1 = 1")
    assert enumerated_member(g, g.symbol("T"), word) is None
    enumerate_words(g, g.symbol("T"), 2)
    assert enumerated_member(g, g.symbol("T"), word) is None
    assert enumerated_member(g, nonterminal("Z"), ()) is None
    enumerate_words(g, g.symbol("T"), 3)
    assert enumerated_member(g, g.symbol("T"), word)
    assert not enumerated_member(g, g.symbol("V"), word)
    # an undeclared atom gets recognition's answer
    assert not member_bounded(g, (), Atom(nonterminal("Z")), SemBound(2))


def test_tautology_is_not_a_tail_conjunct(bool_g):
    """OR 1 = 1 extends only well-placed tests, so it fails the T\\T probe."""
    tt = parse_type("T\\T", bool_g)
    assert not member_bounded(bool_g, w(bool_g, "OR 1 = 1"), tt, SemBound(6))
    assert member_bounded(bool_g, (), tt, SemBound(6))


def test_attack_word_inhabits_capture_type(bool_g):
    cap = parse_type("(T/V)\\E", bool_g)
    assert member_bounded(bool_g, w(bool_g, "b OR 1 = 1"), cap, SemBound(5))
    assert not member_bounded(bool_g, w(bool_g, "b OR 1 ="), cap, SemBound(5))


def test_denotation_of_atom_equals_enumeration(bool_g):
    T = parse_type("T", bool_g)
    d = denotation_bounded(bool_g, T, SemBound(5), 3)
    assert d == frozenset(enumerate_words(bool_g, bool_g.symbol("T"), 3))
    assert len(d) == 9


def test_denotation_unit_and_products(bool_g):
    V = parse_type("V", bool_g)
    assert denotation_bounded(bool_g, UNIT, SemBound(2), 4) == {()}
    vv = denotation_bounded(bool_g, parse_type("V*V", bool_g), SemBound(2), 2)
    singles = denotation_bounded(bool_g, V, SemBound(2), 2)
    assert vv == {u + v for u in singles for v in singles}
    for t in (Prod(UNIT, V), Prod(V, UNIT)):
        assert denotation_bounded(bool_g, t, SemBound(2), 3) == singles


def test_denotation_of_left_extension_type(bool_g):
    d = denotation_bounded(bool_g, parse_type("T\\T", bool_g), SemBound(5), 5)
    assert () in d
    assert w(bool_g, "OR 1 = 1") not in d
    assert w(bool_g, "AND 1 = 1") not in d


def test_an_implication_over_an_empty_domain_holds_of_every_word(load_bundled):
    """T derives no word of at most 2 tokens, so under SemBound(2) E/T
    quantifies over nothing and every word of at most one token is in it."""
    g = load_bundled("bool")
    assert not enumerate_words(g, g.symbol("T"), 2)
    every = {()} | {(x,) for x in g.terminals}
    assert len(every) == 7
    assert denotation_bounded(g, parse_type("E/T", g), SemBound(2), 1) == every


def test_implication_denotations_match_brute_force(bool_g):
    """The prefix/suffix candidate refinement must not drop members."""
    b = SemBound(3)
    sigma = sorted(bool_g.terminals, key=lambda s: s.name)
    universe = [word for n in range(4) for word in product(sigma, repeat=n)]
    for text in ("T\\T", "T/V", "V\\T", "(T/V)\\E", "E/(V\\T)", "1/V", "V\\1"):
        t = parse_type(text, bool_g)
        brute = frozenset(u for u in universe if member_bounded(bool_g, u, t, b))
        assert denotation_bounded(bool_g, t, b, 3) == brute, text


@settings(max_examples=100)
@given(cyclic_grammars())
def test_implication_candidates_keep_every_member(g):
    """The candidates of an implication over an atom or the unit, read off
    the result's words through the domain's first test word, drop no member."""
    b = SemBound(3)
    sigma = sorted(g.terminals, key=lambda s: s.name)
    universe = [word for n in range(4) for word in product(sigma, repeat=n)]
    atoms = [Atom(x) for x in sorted(g.terminals | g.nonterminals, key=lambda s: s.name)] + [UNIT]
    for arg in atoms:
        for result in atoms:
            for t in (Under(arg, result), Over(result, arg)):
                brute = frozenset(u for u in universe if member_bounded(g, u, t, b))
                assert denotation_bounded(g, t, b, 3) == brute, t


@st.composite
def implication_types(draw, g, depth=3):
    """A random implication over g's symbols and the unit, its result and
    argument nested up to depth: the result is often an implication or a
    product itself."""
    atoms = [Atom(x) for x in sorted(g.terminals | g.nonterminals, key=lambda s: s.name)] + [UNIT]

    def build(d):
        if d == 0 or draw(st.booleans()):
            return draw(st.sampled_from(atoms))
        make = draw(st.sampled_from([Under, Over, Prod]))
        return make(build(d - 1), build(d - 1))

    make = draw(st.sampled_from([Under, Over]))
    return make(build(depth - 1), build(depth - 1))


@settings(max_examples=150)
@given(st.data())
def test_residuated_candidates_keep_every_member(data):
    """Whatever the result type, the candidates cut from the result's own
    bounded denotation hold every member that brute force over every word
    finds, at each output length."""
    g = data.draw(cyclic_grammars())
    t = data.draw(implication_types(g))
    b = SemBound(3)
    for out_len in range(5):
        brute = frozenset(u for u in memo(g, semantics._all_words, out_len) if member_bounded(g, u, t, b))
        assert brute <= set(semantics._implication_candidates(g, t, out_len, b.max_len)), (t, out_len)
        assert denotation_bounded(g, t, b, out_len) == brute, (t, out_len)


def test_membership_antitone_in_bound(bool_g):
    """Raising the bound only adds test words, so membership can only shrink."""
    sigma = sorted(bool_g.terminals, key=lambda s: s.name)
    words = [word for n in range(3) for word in product(sigma, repeat=n)]
    for text in ("T\\T", "T/V", "V\\T", "E/(V\\T)"):
        t = parse_type(text, bool_g)
        for u in words:
            if member_bounded(bool_g, u, t, SemBound(6)):
                assert member_bounded(bool_g, u, t, SemBound(3)), (text, u)


def test_bound_validation():
    with pytest.raises(ValueError, match="max_len must be nonnegative, got -1"):
        SemBound(-1)
    with pytest.raises(ValueError, match=r"^max_len must be an integer, got 2\.5$"):
        SemBound(2.5)


def test_negative_out_len_is_rejected(bool_g):
    """A negative length cap is an error, not the empty word's singleton."""
    b = SemBound(3)
    with pytest.raises(ValueError, match="out_len"):
        denotation_bounded(bool_g, UNIT, b, -1)
    with pytest.raises(ValueError, match="out_len"):
        context_denotation_bounded(bool_g, (), b, -1)
    for text in ("|- F", "a , = , b |- T"):
        with pytest.raises(ValueError, match="out_len"):
            soundness_check(bool_g, parse_sequent(text, bool_g), b, -1)
    assert soundness_check(bool_g, parse_sequent("|- F", bool_g), b, 0) == OraclePass(1)


@pytest.mark.parametrize(
    "entry",
    [
        lambda g, b, n: denotation_bounded(g, UNIT, b, n),
        lambda g, b, n: context_denotation_bounded(g, (UNIT,), b, n),
        lambda g, b, n: soundness_check(g, parse_sequent("a , = , b |- T", g), b, n),
    ],
    ids=["denotation_bounded", "context_denotation_bounded", "soundness_check"],
)
def test_an_out_len_that_is_not_an_integer_is_named(bool_g, entry):
    """The antecedent cap is checked as itself, not as the quantifier bound."""
    for bad in (2.5, "3"):
        with pytest.raises(ValueError, match=rf"^out_len must be an integer, got {re.escape(repr(bad))}$"):
            entry(bool_g, SemBound(3), bad)


def test_context_denotation(bool_g):
    b = SemBound(5)
    ctx = [parse_type('"a"', bool_g), parse_type('"="', bool_g), parse_type("V", bool_g)]
    assert context_denotation_bounded(bool_g, ctx, b, 5) == {
        w(bool_g, "a = 1"),
        w(bool_g, "a = a"),
        w(bool_g, "a = b"),
    }
    assert context_denotation_bounded(bool_g, [], b, 5) == {()}
    assert context_denotation_bounded(bool_g, [UNIT, parse_type("V", bool_g)], b, 5) == (
        denotation_bounded(bool_g, parse_type("V", bool_g), b, 5)
    )
    # the length cap prunes concatenations, not just the pieces
    assert context_denotation_bounded(bool_g, ctx, b, 2) == frozenset()


def test_soundness_counterexample_is_length_lex_first(bool_g):
    verdict = soundness_check(bool_g, parse_sequent("V |- T", bool_g))
    assert verdict == Counterexample(w(bool_g, "1"))


def test_soundness_pass_counts_domain(bool_g):
    s = parse_sequent("b , OR , 1 , = , 1 |- (T/V)\\E", bool_g)
    assert soundness_check(bool_g, s, SemBound(5)) == OraclePass(1)
    assert soundness_check(bool_g, parse_sequent("|- 1", bool_g)) == OraclePass(1)


def test_soundness_refutes_attack_as_plain_value(bool_g):
    s = parse_sequent("b , OR , 1 , = , 1 |- V", bool_g)
    verdict = soundness_check(bool_g, s, SemBound(5))
    assert verdict == Counterexample(w(bool_g, "b OR 1 = 1"))


def test_soundness_of_proved_judgments_at_higher_bound(bool_g):
    for text, out in [
        ("a , = |- T/V", 2),
        ("a , = , b |- T", 3),
        ("a , = , b , OR , 1 , = , 1 |- E", 7),
        ("1 , = , 1 , OR , b |- E/(V\\T)", 5),
    ]:
        s = parse_sequent(text, bool_g)
        assert isinstance(soundness_check(bool_g, s, SemBound(6), out), OraclePass), text


@st.composite
def oracle_sequents(draw, g):
    """At most 3 antecedent types over a succedent: in half the draws atoms
    only, else atoms with implications and products of two atoms."""
    atoms = st.sampled_from([Atom(x) for x in sorted(g.terminals | g.nonterminals, key=lambda x: x.name)])
    item = atoms
    if draw(st.booleans()):
        item = st.one_of(atoms, st.builds(Under, atoms, atoms), st.builds(Over, atoms, atoms), st.builds(Prod, atoms, atoms))
    return Sequent(tuple(draw(st.lists(item, max_size=3))), draw(item))


def _certified(g, s, word):
    """An atomic s's counterexample, checked by recognize alone: word splits
    into a word of each antecedent atom, and the succedent does not derive it."""
    ante = [t.symbol for t in s.antecedent]
    ends = {0}
    for x in ante:
        ends = {j for i in ends for j in range(i, len(word) + 1) if recognize(g, x, word[i:j])}
    return len(word) in ends and not recognize(g, s.succedent.symbol, word)


def _assert_oracle_mirrored(g, s, b):
    """s over g and its mirror over g's rules reversed get the same verdict
    kind, and a pass over as many words; on atoms, each counterexample and
    the other's reversed are certified by recognize."""
    rg, ms = reversed_grammar(g), mirror_sequent(s)
    here, there = soundness_check(g, s, b), soundness_check(rg, ms, b)
    assert type(there) is type(here), s
    if isinstance(here, OraclePass):
        assert there == here, s
    elif all(isinstance(t, Atom) for t in (*s.antecedent, s.succedent)):
        assert _certified(g, s, here.word) and _certified(g, s, there.word[::-1]), s
        assert _certified(rg, ms, there.word) and _certified(rg, ms, here.word[::-1]), s


@settings(max_examples=100)
@given(st.data())
def test_oracle_verdicts_mirror(data):
    g = data.draw(st.one_of(st.just(BOOL_G), small_grammars(), cyclic_grammars()))
    _assert_oracle_mirrored(g, data.draw(oracle_sequents(g)), SemBound(4))


def test_soundness_verdicts_do_not_depend_on_the_word_tables(load_bundled, monkeypatch):
    with_tables = load_bundled("bool.g")
    atoms = [with_tables.symbol(n) for n in ("T", "V", "E")]
    universe = type_universe(with_tables, atoms, 1)
    expected = [soundness_check(with_tables, Sequent((a,), b), SemBound(5)) for a in universe for b in universe]
    monkeypatch.setattr(semantics, "enumerated_member", lambda g, x, word: None)
    g = load_bundled("bool.g")
    assert [soundness_check(g, Sequent((a,), b), SemBound(5)) for a in universe for b in universe] == expected
    assert any(isinstance(v, Counterexample) for v in expected)


def _grown_length(g):
    """The longest word length the grammar's word table covers, -1 before any."""
    return len(memo(g, _word_layers)) - 1


def test_oracle_reads_the_tables_it_enumerated(load_bundled, spy):
    g = load_bundled("bool.g")
    calls = spy(semantics, "recognize")
    assert soundness_check(g, parse_sequent("E/T |- E", g), SemBound(5)) == Counterexample(())
    assert calls == []
    assert _grown_length(g) == 8


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("E/T |- E", Counterexample(())),
        ("V |- E\\E", Counterexample((terminal("1"),))),
        ("T |- C/D", OraclePass(9)),
        ("b |- E/V", Counterexample((terminal("b"),))),
        ("a , = |- T/V", OraclePass(1)),
    ],
)
def test_atoms_the_word_table_covers_take_no_memo(load_bundled, spy, text, verdict):
    """An atom membership of a word no longer than the word table is read off
    the table; only longer words are charted, and memoized when asked alone."""
    g = load_bundled("bool.g")
    looked_up = spy(semantics, "enumerated_member")
    assert soundness_check(g, parse_sequent(text, g), SemBound(8)) == verdict
    assert looked_up
    atom_keys = [k[1] for k in g._memo if k[0] is semantics._member and isinstance(k[2], Atom)]
    assert all(len(word) > _grown_length(g) for word in atom_keys)


@pytest.mark.parametrize("bound", [8, 9])
@pytest.mark.parametrize(
    "text, verdict, reverse", [("T |- C/D", OraclePass(9), False), ("F |- T\\E", OraclePass(172), True)]
)
def test_an_atomic_result_charts_each_antecedent_word_once(load_bundled, spy, bound, text, verdict, reverse):
    """ψ/φ and φ\\ψ with an atom ψ test each antecedent word w against every
    test word v past the word table off one chart of w, continued by v and
    popped back; φ\\ψ reads g's rules reversed.  No recognize runs, so the
    checks build at most one chart per antecedent word, not one per pair
    (w, v): 729 and 1 458 pairs at bound 8."""
    g = load_bundled("bool.g")
    charts, closed = spy(earley.Chart, "__init__"), spy(earley, "_chart")
    assert soundness_check(g, parse_sequent(text, g), SemBound(bound)) == verdict
    assert 0 < len(charts) <= verdict.checked
    assert {args[3] for args in charts} == {reverse}
    assert all(args[2] == () for args in closed)


@pytest.mark.parametrize("text", ["V |- E\\E", "T |- C/D"])
def test_oracle_lookups_build_no_table(load_bundled, text):
    """A lookup only reads: the check grows the table no longer than its denotations need."""
    g = load_bundled("bool.g")
    soundness_check(g, parse_sequent(text, g), SemBound(8))
    assert _grown_length(g) == 8


def test_member_builds_no_table(load_bundled, spy):
    g = load_bundled("bool.g")
    calls = spy(semantics, "recognize")
    assert member_bounded(g, w(g, "1 = a"), parse_type("E", g), SemBound(5))
    assert not member_bounded(g, w(g, "1 = a OR"), parse_type("T", g), SemBound(5))
    assert _grown_length(g) == -1
    assert len(calls) == 2


def test_prescreen_refutes_before_search(bool_g):
    r = prove_with_prescreen(bool_g, parse_sequent("V |- T", bool_g))
    assert r.status is SearchStatus.REFUTED_BY_ORACLE
    assert r.counterexample == w(bool_g, "1")
    assert r.proof is None
    assert not r.proved


def test_prescreen_passes_through_to_search(bool_g):
    r = prove_with_prescreen(bool_g, parse_sequent("b |- V", bool_g))
    assert r.status is SearchStatus.PROVED and r.proof is not None


def test_uncertain_counterexamples_stay_silent(bool_g):
    """A derivable sequent must never be refuted by truncation noise.

    Every short expression happens to be a bare test, so at small bounds the
    truncated ⟦E\\T⟧ wrongly admits ε, which would fake a failure of this
    perfectly sound sequent.  The certification layer keeps it quiet.
    """
    s = parse_sequent("(E\\E)*(E\\T) |- T\\T", bool_g)
    assert prove_with_prescreen(bool_g, s, b=SemBound(6)).status is SearchStatus.PROVED
    assert soundness_check(bool_g, s, SemBound(6)) == OraclePass(0)


def test_certified_sequents_are_still_refutable(bool_g):
    # finite argument languages keep these types exactly testable
    s = parse_sequent("OR , 1 , = , 1 |- T\\T", bool_g)
    assert isinstance(soundness_check(bool_g, s, SemBound(6)), Counterexample)
    s2 = parse_sequent("OR |- (T\\T)/T", bool_g)
    assert isinstance(soundness_check(bool_g, s2, SemBound(5)), Counterexample)


def test_prescreen_skipped_under_axioms(eng_g):
    s = parse_sequent("him , knows , Alice |- Sent", eng_g)
    plain = prove_with_prescreen(eng_g, s, SemBound(4))
    assert plain.status is SearchStatus.REFUTED_BY_ORACLE
    ax = (parse_axiom("him |- (Sent/Noun)\\Sent", eng_g),)
    with_ax = prove_with_prescreen(eng_g, s, SemBound(4), ax)
    # axioms are not part of the word semantics, so no oracle verdict here
    assert with_ax.status is SearchStatus.NOT_FOUND_WITHIN_BOUNDS


def test_prescreen_validates_each_sequent_once(bool_g, monkeypatch, spy):
    """The oracle runs unvalidated, and a refutation or the search checks the
    sequent, once; an undeclared atom anywhere still raises ValueError."""
    checked = spy(lambek.prover, "require_declared")
    monkeypatch.setattr(semantics, "require_declared", lambek.prover.require_declared)
    for text in ("a , = , b |- T", "a , = |- T", "E/T , T |- E"):
        checked.clear()
        prove_with_prescreen(bool_g, parse_sequent(text, bool_g))
        assert len(checked) == 1, text
    T, E = Atom(bool_g.symbol("T")), Atom(bool_g.symbol("E"))
    for z in (Atom(nonterminal("Z")), Atom(terminal("z"))):
        for s in (
            Sequent((z,), T),
            Sequent((T, z), E),
            Sequent((Over(E, z),), E),
            Sequent((Under(z, E),), E),
            Sequent((Prod(T, z),), E),
            Sequent((T,), Over(E, z)),
            Sequent((T,), Under(z, E)),
        ):
            with pytest.raises(ValueError, match=f"'{z.symbol.name}' is not declared"):
                prove_with_prescreen(bool_g, s)


# soundness_check queries whose implications fail on some test words
_SEED_QUERIES = ("1 , = |- E\\E", "1 , = |- T/E", "1 , = |- V/E", "OR , 1 , = , 1 |- T\\T", "b |- E/V")
_MEMBER_KEYS = """
import json, sys
from lambek import earley, semantics
from lambek.grammar import load_grammar
from lambek.types import parse_sequent, render_type
g = load_grammar("bool")[0]
for text in sys.argv[1:]:
    semantics.soundness_check(g, parse_sequent(text, g), semantics.SemBound(5))
keys = [[[s.name for s in k[1]], render_type(k[2]), k[3]] for k in g._memo if k[0] is semantics._member]
print(json.dumps(sorted(keys)))
"""


def test_oracle_work_does_not_depend_on_the_hash_seed():
    """The same queries compute the same memberships under any string-hash seed."""
    src = str(Path(lambek.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    keys = [
        json.loads(subprocess.run(
            [sys.executable, "-c", _MEMBER_KEYS, *_SEED_QUERIES],
            capture_output=True, text=True, env={**env, "PYTHONHASHSEED": seed}, check=True,
        ).stdout)
        for seed in ("0", "1")
    ]
    assert keys[0]
    assert keys[0] == keys[1]
