from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambek import analyzer
from lambek.analyzer import (
    AmbiguityError,
    CaptureTyping,
    Classification,
    ConservativeExtension,
    InjectionContext,
    InjectionReport,
    Reshaped,
    Unparseable,
    capture_typings,
    classify_input,
    context_tree,
    hole_language,
    infer_typings,
    reshaping_check,
)
from lambek import earley
from lambek.earley import Ambiguous, Chart, Reject, parse_tree, recognize, render_tree_text
from lambek.grammar import (
    Grammar, Production, enumerate_words, iter_words_sorted, memo, nonterminal, nullable_ids, parse_grammar_file,
    render_word, require_word, terminal, word_from_text,
)
from lambek import prover
from lambek.prover import Prover, Side, check_proof, proof_to_json
from lambek.semantics import OraclePass, SemBound, member_bounded, prove_with_prescreen, soundness_check
from lambek.types import Atom, Over, Sequent, Under, parse_sequent, parse_type, render_sequent, render_type, type_universe
from test_earley import _Deadline, chart_state
from test_prover import (
    _within_two_seconds, assert_capture_shape, cyclic_grammars, ignore_swallowed_alarms, reversed_grammar,
)
from test_types import mirror_type


@pytest.fixture(scope="module")
def tmpl(bool_g):
    """a = _  read as an expression whose hole supplies a value"""
    return InjectionContext(
        prefix=word_from_text(bool_g, "a ="),
        suffix=(),
        goal=bool_g.symbol("E"),
        expected=bool_g.symbol("V"),
    )


@pytest.fixture(scope="module")
def mirrored(bool_g):
    """_ = a  with the hole on the other side of the test"""
    return InjectionContext(
        prefix=(),
        suffix=word_from_text(bool_g, "= a"),
        goal=bool_g.symbol("E"),
        expected=bool_g.symbol("V"),
    )


def test_hole_language_small(bool_g, tmpl):
    assert hole_language(bool_g, tmpl, 1) == {
        word_from_text(bool_g, "1"),
        word_from_text(bool_g, "a"),
        word_from_text(bool_g, "b"),
    }


def test_hole_language_admits_the_attack(bool_g, tmpl, mirrored):
    lang = hole_language(bool_g, tmpl, 5)
    assert word_from_text(bool_g, "b") in lang
    assert word_from_text(bool_g, "b OR 1 = 1") in lang
    assert word_from_text(bool_g, "1 = 1 OR b") not in lang
    assert len(lang) == 57
    swapped = hole_language(bool_g, mirrored, 5)
    assert word_from_text(bool_g, "1 = 1 OR b") in swapped
    assert word_from_text(bool_g, "b OR 1 = 1") not in swapped


def test_hole_language_matches_brute_force(bool_g, tmpl):
    sigma = sorted(bool_g.terminals, key=lambda s: s.name)
    brute = {
        w
        for n in range(4)
        for w in product(sigma, repeat=n)
        if recognize(bool_g, tmpl.goal, tmpl.prefix + w + tmpl.suffix)
    }
    assert hole_language(bool_g, tmpl, 3) == brute


def test_context_tree(bool_g, tmpl):
    tree = context_tree(bool_g, tmpl)
    assert tree.word == tmpl.prefix + (tmpl.expected,)
    lines = render_tree_text(tree).splitlines()
    assert lines[0] == "E"
    # the hole is a leaf labelled with the expected symbol
    assert lines[3:8] == ["      V", "        a", "      =", "      V", "    D"]


def test_context_tree_rejects_broken_template(bool_g):
    bad = InjectionContext(
        word_from_text(bool_g, "= ="), (), bool_g.symbol("E"), bool_g.symbol("V")
    )
    with pytest.raises(ValueError, match="does not parse"):
        context_tree(bool_g, bad)


def test_broken_template_is_an_error_for_inputs_that_do_not_fill_it(bool_g):
    """Only a benign input skips the template's parse, and no input is benign in a broken template."""
    bad = InjectionContext(word_from_text(bool_g, "= ="), (), bool_g.symbol("E"), bool_g.symbol("V"))
    for text in ("b", "b OR 1 = 1", "= b"):
        with pytest.raises(ValueError, match="does not parse"):
            classify_input(bool_g, bad, word_from_text(bool_g, text))
    # the input is checked before the template is parsed
    with pytest.raises(ValueError, match="not a terminal"):
        classify_input(bool_g, bad, (bool_g.symbol("V"),))


def test_benign_verdict_reads_one_parse(load_bundled, spy):
    """At a template not seen before, a benign input builds the spliced
    string's chart and nothing else: no template parse and no proof search.
    That one chart, from the goal, reads the prefix and then the input, and
    only its column 0 is closed from scratch."""
    g = load_bundled("bool")
    ctx = InjectionContext(word_from_text(g, "a = b OR"), (), g.symbol("E"), g.symbol("C"))
    provers, charts = spy(Prover, "__init__"), spy(earley.Chart, "__init__")
    pushes, closed = spy(earley.Chart, "push"), spy(earley, "_chart")
    w = word_from_text(g, "1 = 1 AND a = b")
    rep = classify_input(g, ctx, w)
    assert rep.classification is Classification.BENIGN
    assert check_proof(g, rep.benign_proof).ok
    assert [args[2] for args in charts] == [(ctx.goal,)]
    assert [(chart, symbols) for chart, symbols in pushes] == [(charts[0][0], ctx.prefix), (charts[0][0], w)]
    assert [args[1:3] for args in closed] == [((ctx.goal,), ())]
    assert provers == []
    assert (analyzer._hole_parse, ctx) not in g._memo


def test_words_hold_only_terminals(bool_g, tmpl):
    V = bool_g.symbol("V")
    with pytest.raises(ValueError, match="not a terminal"):
        reshaping_check(bool_g, tmpl, (V,))
    with pytest.raises(ValueError, match="not a terminal"):
        classify_input(bool_g, tmpl, (V,))
    with pytest.raises(ValueError, match="not a terminal"):
        member_bounded(bool_g, (V,), Atom(V), SemBound(2))
    template = InjectionContext((V,), (), bool_g.symbol("T"), V)
    with pytest.raises(ValueError, match="not a terminal"):
        context_tree(bool_g, template)
    with pytest.raises(ValueError, match="not a terminal"):
        hole_language(bool_g, template, 1)


def test_reshaping_three_verdicts(bool_g, tmpl):
    assert isinstance(
        reshaping_check(bool_g, tmpl, word_from_text(bool_g, "b")), ConservativeExtension
    )
    assert isinstance(
        reshaping_check(bool_g, tmpl, word_from_text(bool_g, "b OR 1 = 1")), Reshaped
    )
    assert isinstance(
        reshaping_check(bool_g, tmpl, word_from_text(bool_g, "b OR")), Unparseable
    )


def test_reshaping_hole_keeps_its_label():
    g = parse_grammar_file("start S\nS ::= A x | B x ;\nA ::= y ;\nB ::= y y ;\n")
    ctx = InjectionContext((), word_from_text(g, "x"), g.symbol("S"), g.symbol("A"))
    assert isinstance(reshaping_check(g, ctx, word_from_text(g, "y")), ConservativeExtension)
    # same shape around the hole, but a B stands where the template holds an A
    assert isinstance(reshaping_check(g, ctx, word_from_text(g, "y y")), Reshaped)


def test_infer_typings_benign_word(bool_g):
    atoms = [bool_g.symbol(n) for n in ("T", "V", "E")]
    out = infer_typings(bool_g, word_from_text(bool_g, "b"), atoms, 0)
    assert [render_type(t) for t, _ in out] == ["V"]
    for t, proof in out:
        assert check_proof(bool_g, proof).ok


def test_infer_typings_attack_word(bool_g):
    """At depth 2 the attack word types only as a capture or a product."""
    atoms = [bool_g.symbol(n) for n in ("T", "V", "E")]
    out = infer_typings(bool_g, word_from_text(bool_g, "b OR 1 = 1"), atoms, 2)
    assert [render_type(t) for t, _ in out] == ["(T/V)\\E", "V*(T\\E)"]


def test_capture_directions_follow_the_context(bool_g, tmpl, mirrored):
    attack = word_from_text(bool_g, "b OR 1 = 1")
    left = capture_typings(bool_g, tmpl, attack)
    assert [(c.direction, render_type(c.type)) for c in left] == [
        (Side.LEFT, "(C/V)\\E"),
        (Side.LEFT, "(T/V)\\E"),
    ]
    swapped = capture_typings(bool_g, mirrored, word_from_text(bool_g, "1 = 1 OR b"))
    assert [(c.direction, render_type(c.type)) for c in swapped] == [
        (Side.RIGHT, "E/(V\\C)"),
        (Side.RIGHT, "E/(V\\T)"),
    ]


def test_capture_types_mirror_across_contexts(bool_g, tmpl, mirrored):
    attack = word_from_text(bool_g, "b OR 1 = 1")
    left = capture_typings(bool_g, tmpl, attack)
    swapped = capture_typings(bool_g, mirrored, tuple(reversed(attack)))
    assert [mirror_type(c.type) for c in left] == [c.type for c in swapped]


def test_capture_proofs_check_and_pass_the_oracle(bool_g, tmpl):
    attack = word_from_text(bool_g, "b OR 1 = 1")
    for c in capture_typings(bool_g, tmpl, attack):
        assert check_proof(bool_g, c.proof).ok
        s = c.proof.conclusion
        assert isinstance(soundness_check(bool_g, s, SemBound(5)), OraclePass)


def test_classify_benign(bool_g, tmpl):
    rep = classify_input(bool_g, tmpl, word_from_text(bool_g, "b"))
    assert rep.classification is Classification.BENIGN
    assert rep.benign_proof is not None and check_proof(bool_g, rep.benign_proof).ok
    assert rep.captures == ()
    assert rep.combined_parses
    assert isinstance(rep.reshaping, ConservativeExtension)
    assert rep.input in hole_language(bool_g, tmpl, 5)


def test_classify_capturing(bool_g, tmpl):
    rep = classify_input(bool_g, tmpl, word_from_text(bool_g, "b OR 1 = 1"))
    assert rep.classification is Classification.CAPTURING
    assert rep.benign_proof is None
    assert [render_type(c.type) for c in rep.captures] == ["(C/V)\\E", "(T/V)\\E"]
    assert isinstance(rep.reshaping, Reshaped)


def test_classify_order_sensitivity(bool_g, mirrored):
    bad = classify_input(bool_g, mirrored, word_from_text(bool_g, "b OR 1 = 1"))
    assert bad.classification is Classification.ILL_FORMED
    assert not bad.combined_parses
    assert isinstance(bad.reshaping, Unparseable)
    good = classify_input(bool_g, mirrored, word_from_text(bool_g, "1 = 1 OR b"))
    assert good.classification is Classification.CAPTURING
    assert [render_type(c.type) for c in good.captures] == ["E/(V\\C)", "E/(V\\T)"]


def test_classify_unknown():
    g = parse_grammar_file("start S\nS ::= x A x | x x ;\nA ::= y ;\n")
    ctx = InjectionContext(
        word_from_text(g, "x"), word_from_text(g, "x"), g.symbol("S"), g.symbol("A")
    )
    rep = classify_input(g, ctx, ())
    # the empty input parses in place yet proves neither A nor any capture
    assert rep.classification is Classification.UNKNOWN
    assert rep.combined_parses and rep.captures == ()
    assert classify_input(g, ctx, word_from_text(g, "y")).classification is (
        Classification.BENIGN
    )


def test_classify_validates_its_inputs(bool_g, tmpl):
    with pytest.raises(ValueError, match="not a nonterminal"):
        classify_input(
            bool_g,
            InjectionContext((), (), bool_g.symbol("a"), bool_g.symbol("V")),
            (),
        )
    with pytest.raises(ValueError, match="not a terminal"):
        classify_input(bool_g, tmpl, (bool_g.symbol("E"),))


@pytest.mark.parametrize("entry", ["context_tree", "capture_typings", "hole_language"])
def test_entry_points_check_their_template_alike(bool_g, entry):
    """Goal and hole must be nonterminals, prefix and suffix words, at every entry point."""
    call = {
        "context_tree": lambda ctx: context_tree(bool_g, ctx),
        "capture_typings": lambda ctx: capture_typings(bool_g, ctx, word_from_text(bool_g, "b OR 1 = 1")),
        "hole_language": lambda ctx: hole_language(bool_g, ctx, 1),
    }[entry]
    a, b, E, V = (bool_g.symbol(n) for n in ("a", "b", "E", "V"))
    eq = bool_g.symbol("=")
    with pytest.raises(ValueError, match="not a nonterminal"):
        call(InjectionContext((a, eq), (), E, b))  # a terminal hole
    with pytest.raises(ValueError, match="not a nonterminal"):
        call(InjectionContext((a, eq), (), a, V))  # a terminal goal
    with pytest.raises(ValueError, match="not a terminal"):
        call(InjectionContext((V, eq), (), E, V))
    with pytest.raises(ValueError, match="not a terminal"):
        call(InjectionContext((), (eq, E), E, V))


def test_hole_language_rejects_a_negative_length(bool_g, tmpl):
    with pytest.raises(ValueError, match="nonnegative"):
        hole_language(bool_g, tmpl, -1)
    assert hole_language(bool_g, tmpl, 0) == frozenset()


def test_hole_language_names_a_bound_that_is_not_an_integer(bool_g, tmpl):
    with pytest.raises(ValueError, match=r"^out_len must be an integer, got 2\.5$"):
        hole_language(bool_g, tmpl, 2.5)


def test_ambiguous_combined_string_is_an_error(ambiguous_g):
    g = ambiguous_g
    x = word_from_text(g, "x")
    ctx = InjectionContext(x, (), g.symbol("S"), g.symbol("S"))
    with pytest.raises(AmbiguityError):
        classify_input(g, ctx, word_from_text(g, "x x"))


def test_ambiguous_template_is_an_error(ambiguous_g):
    g = ambiguous_g
    x = word_from_text(g, "x")
    with pytest.raises(AmbiguityError):
        classify_input(g, InjectionContext(x, x, g.symbol("S"), g.symbol("S")), x)


def test_empty_input_in_an_ambiguous_template_is_an_error():
    """The empty spliced string parses once, with a V over the empty input on
    either side; each is the hole of its own template parse."""
    g = parse_grammar_file("start S\nS ::= V V ;\nV ::= | a ;\n")
    ctx = InjectionContext((), (), g.symbol("S"), g.symbol("V"))
    assert isinstance(parse_tree(g, ctx.goal, ()), earley.Unique)
    with pytest.raises(AmbiguityError, match="template"):
        classify_input(g, ctx, ())


def test_report_json(bool_g, tmpl):
    rep = classify_input(bool_g, tmpl, word_from_text(bool_g, "b OR 1 = 1"))
    obj = rep.to_json(bool_g)
    assert obj["classification"] == "Capturing"
    assert obj["input"] == ["b", "OR", "1", "=", "1"]
    assert obj["context"] == {
        "prefix": "a =",
        "suffix": "ε",
        "goal": "E",
        "expected": "V",
    }
    assert [c["type"] for c in obj["captures"]] == ["(C/V)\\E", "(T/V)\\E"]
    assert all(c["direction"] == "Left" for c in obj["captures"])
    assert obj["combined_parses"] is True
    assert obj["reshaping"]["verdict"] == "Reshaped"
    assert {"context_tree", "combined_tree"} <= obj["reshaping"].keys()
    assert "bounds" not in obj
    assert "benign_proof" not in obj

    benign = classify_input(bool_g, tmpl, word_from_text(bool_g, "b")).to_json(bool_g)
    assert "benign_proof" in benign
    assert benign["reshaping"]["verdict"] == "ConservativeExtension"


def test_capture_typings_repeat_exactly(bool_g, tmpl):
    attack = word_from_text(bool_g, "b OR 1 = 1")
    assert capture_typings(bool_g, tmpl, attack) == capture_typings(bool_g, tmpl, attack)


def _capture_pair_loop(g, ctx, w):
    """The reference: ask one prover every (ψ, π) pair over the nonterminals."""
    pr = Prover(g)
    ante = tuple(Atom(s) for s in w)
    hole = Atom(ctx.expected)
    candidates = [Atom(s) for s in sorted(g.nonterminals, key=lambda s: s.name)]
    found = []
    for psi in candidates:
        for pi in candidates:
            if ctx.prefix:
                t = Under(Over(psi, hole), pi)
                r = pr.prove(Sequent(ante, t))
                if r.proved:
                    found.append(CaptureTyping(Side.LEFT, t, r.proof))
            if ctx.suffix:
                t = Over(pi, Under(hole, psi))
                r = pr.prove(Sequent(ante, t))
                if r.proved:
                    found.append(CaptureTyping(Side.RIGHT, t, r.proof))
    return tuple(found)


def _assert_captures_match_the_pair_loop(g, ctx, w):
    found = capture_typings(g, ctx, w)
    assert found == _capture_pair_loop(g, ctx, w), (ctx, w)
    assert all(check_proof(g, c.proof).ok for c in found)


def _counted_capture_search(spy, cases):
    """capture_typings on each (g, ctx, w) of cases, counted: per case the
    captures, the flat sequents folded and the number of Earley charts
    built.  Every other Earley run closes a column 0 for the grammar to
    keep.  The search builds no Prover and folds no sequent twice: a
    sequent asked again is answered from the grammar's memo."""
    provers, asked, charts = spy(Prover, "__init__"), spy(prover, "_flat_proof"), spy(earley.Chart, "__init__")
    closed = spy(earley, "_chart")
    out = []
    for g, ctx, w in cases:
        asked.clear()
        charts.clear()
        found = capture_typings(g, ctx, w)
        sequents = [s for _, s in asked]
        assert len(sequents) == len(set(sequents)), [render_sequent(s) for s in sequents]
        out.append((found, sequents, len(charts)))
    assert provers == [] and all(args[2] == () for args in closed)
    return out


def test_capture_proofs_are_composed_from_flat_premises(bool_g, tmpl, mirrored, spy):
    """The search folds only flat sequents, atoms over an atom; capture builds the rest."""
    cases = [(tmpl, word_from_text(bool_g, "b OR 1 = 1")), (mirrored, word_from_text(bool_g, "1 = 1 OR b"))]
    counted = _counted_capture_search(spy, [(bool_g, ctx, w) for ctx, w in cases])
    for (ctx, w), (found, asked, _) in zip(cases, counted):
        assert len(found) == 2
        for c in found:
            assert_capture_shape(c.proof)
            assert c.proof.conclusion == Sequent(tuple(map(Atom, w)), c.type)
        assert asked
        assert all(isinstance(t, Atom) for s in asked for t in (*s.antecedent, s.succedent)), asked


def test_capture_typings_decides_no_sequent_twice(bool_g, tmpl, mirrored, spy):
    """The hole's share of a split is folded once, where a capture first uses it."""
    o = InjectionContext(word_from_text(bool_g, "a = 1 OR"), (), bool_g.symbol("E"), bool_g.symbol("C"))
    cases = [
        (tmpl, word_from_text(bool_g, "b OR 1 = 1")),
        (mirrored, word_from_text(bool_g, "1 = 1 OR b")),
        (o, word_from_text(bool_g, "1 = 1 AND 1 = 1 OR 1 = 1")),
    ]
    for found, asked, _ in _counted_capture_search(spy, [(bool_g, ctx, w) for ctx, w in cases]):
        assert found and asked


# the benchmark's templates: a value hole at either end, a value hole inside
# a longer expression, and a conjunction hole
TEMPLATES = {
    "A": ("a =", "", "E", "V"),
    "B": ("", "= a", "E", "V"),
    "M": ("1 = b AND a =", "OR b = 1", "E", "V"),
    "O": ("a = 1 OR", "", "E", "C"),
}
# benign, attack and token-soup inputs; each is tried in every template
INPUTS = (
    "", "b", "1 = a", "1 = a AND b = b",
    "b OR 1 = 1", "1 = 1 OR b", "b AND 1 = 1", "1 = 1 AND b", "b = 1 OR a = a",
    "b OR 1 = 1 OR a = b", "1 = 1 AND a = a AND b",
    # more than one split for a C hole, so captures past the first split are checked
    "1 = 1 AND 1 = 1 OR 1 = 1", "1 = 1 OR 1 = 1 AND b",
    "b b", "= b", "b = = a", "b AND", "AND OR b", "b = a =", "= 1 = b OR",
)


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_captures_match_the_pair_loop_on_the_templates(bool_g, name):
    prefix, suffix, goal, expected = TEMPLATES[name]
    ctx = InjectionContext(
        word_from_text(bool_g, prefix), word_from_text(bool_g, suffix), bool_g.symbol(goal), bool_g.symbol(expected)
    )
    for text in INPUTS:
        _assert_captures_match_the_pair_loop(bool_g, ctx, word_from_text(bool_g, text))


def _by_name(symbols):
    return sorted(symbols, key=lambda s: s.name)


@ignore_swallowed_alarms
@settings(max_examples=150)
@given(cyclic_grammars(), st.data())
def test_captures_match_the_pair_loop_on_random_grammars(g, data):
    """Every grammar has a nullable symbol, a unit cycle and a right recursion."""
    words = st.lists(st.sampled_from(_by_name(g.terminals)), max_size=3).map(tuple)
    holes = st.one_of(st.sampled_from(_by_name(memo(g, nullable_ids))), st.sampled_from(_by_name(g.nonterminals)))
    hole = data.draw(holes)
    ctx = InjectionContext(data.draw(words), data.draw(words), g.start, hole)
    w = data.draw(st.one_of(st.just(()), words))
    _within_two_seconds(_assert_captures_match_the_pair_loop, g, ctx, w)


def test_attack_ladder_search_does_not_grow_with_the_input(bool_g, tmpl, mirrored, load_bundled, spy):
    """The captures of  b (OR 1 = 1)^k  at  a = _, and of  (1 = 1 OR)^k b  at
    _ = a, read their splits off two charts from every nonterminal, one in
    each reading, and fold two flat sequents each, whose parses build the
    other two charts: the search folds as many sequents and builds 4 charts
    at every k.  Each rung is counted on a fresh grammar, which has decided
    no flat sequent yet."""
    ks = (1, 8, 16, 32, 64)
    ladders = {
        tmpl: lambda k: "b" + " OR 1 = 1" * k,
        mirrored: lambda k: "1 = 1 OR " * k + "b",
    }
    cases = [(ctx, word_from_text(bool_g, text(k))) for ctx, text in ladders.items() for k in ks]
    for ctx, w in cases:
        assert classify_input(bool_g, ctx, w).classification is Classification.CAPTURING
    out = _counted_capture_search(spy, [(load_bundled("bool.g"), ctx, w) for ctx, w in cases])
    for rungs in (out[: len(ks)], out[len(ks) :]):
        assert {(len(asked), charts) for _, asked, charts in rungs} == {(len(rungs[0][1]), 4)}
        captures = [[render_type(c.type) for c in found] for found, _, _ in rungs]
        assert captures == [captures[0]] * len(ks) and len(captures[0]) == 2


def test_many_split_search_does_not_grow_with_the_splits(bool_g, load_bundled, spy):
    """A C hole splits  (1 = 1 AND)^k 1 = 1 OR 1 = 1  after every  1 = 1; the
    search reads all k + 1 splits off the forward chart from every
    nonterminal and folds only the shares that a capture uses, so it folds
    as many sequents and builds 6 charts at every k, the two from every
    nonterminal and one per flat parse, each counted on a fresh grammar."""
    ctx = InjectionContext(word_from_text(bool_g, "a = 1 OR"), (), bool_g.symbol("E"), bool_g.symbol("C"))
    ks = (1, 8, 16, 32, 64)
    words = [word_from_text(bool_g, "1 = 1 AND " * k + "1 = 1 OR 1 = 1") for k in ks]
    for k, w in zip(ks, words):
        chart = Chart(bool_g, (ctx.expected,))
        chart.push(w)
        assert len(chart.ends(ctx.expected)) == k + 1
    out = _counted_capture_search(spy, [(load_bundled("bool.g"), ctx, w) for w in words])
    assert {(len(asked), charts) for _, asked, charts in out} == {(len(out[0][1]), 6)}
    captures = [[(c.direction, render_type(c.type)) for c in found] for found, _, _ in out]
    assert captures == [[(Side.LEFT, "(C/C)\\E"), (Side.LEFT, "(T/C)\\E")]] * len(ks)


@pytest.mark.parametrize(
    "prefix, suffix, text",
    [("1 = b AND a =", "OR b = 1", "b OR 1 = 1"), ("a =", "", "b OR 1 = 1"), ("", "= a", "1 = 1 OR b")],
)
def test_the_capture_search_builds_one_chart_per_reading(load_bundled, spy, prefix, suffix, text):
    """capture_typings charts through analyzer.Chart (a flat proof parses
    through earley's own name): one chart over the input and one over it
    reversed, both from every nonterminal, whichever sides the template
    has, and none from the hole alone."""
    g = load_bundled("bool")
    ctx = InjectionContext(word_from_text(g, prefix), word_from_text(g, suffix), g.symbol("E"), g.symbol("V"))
    charts = spy(analyzer, "Chart")
    assert capture_typings(g, ctx, word_from_text(g, text))
    nts = g.symbol_table().nonterminals
    assert len(charts) == 2 and {args[1:3] for args in charts} == {(nts, False), (nts, True)}


def test_the_capture_search_shares_its_flat_decisions_with_provers(load_bundled, spy):
    """Once classify_input has folded a capture's flat rest, a Prover of that
    sequent on the same grammar builds no chart; on a fresh grammar it does."""
    g = load_bundled("bool.g")
    asked = spy(analyzer, "flat_proof")
    ctx = InjectionContext(word_from_text(g, "a ="), (), g.symbol("E"), g.symbol("V"))
    assert classify_input(g, ctx, word_from_text(g, "b OR 1 = 1")).classification is Classification.CAPTURING
    rests = [s for _, s in asked if len(s.antecedent) > 1]
    assert rests
    charts = spy(earley.Chart, "__init__")
    for s in rests:
        assert Prover(load_bundled("bool.g")).prove(s).proved and charts, render_sequent(s)
        charts.clear()
        assert Prover(g).prove(s).proved and charts == [], render_sequent(s)


# the cuts of  a = b AND a = b OR a = b  whose fragments the benchmark's judge round proves
FRAGMENT_CUTS = ((0, 2), (1, 3), (0, 3), (2, 7), (3, 11), (0, 7))


def _batch(g):
    """One call per answer on g: the classifications of the templates'
    inputs, and prescreened proofs of fragments and of a quarter of the
    depth-1 type pairs over T, V and E."""
    calls = []
    for name in sorted(TEMPLATES):
        prefix, suffix, goal, expected = TEMPLATES[name]
        ctx = InjectionContext(
            word_from_text(g, prefix), word_from_text(g, suffix), g.symbol(goal), g.symbol(expected)
        )
        for text in INPUTS:
            w = word_from_text(g, text)
            calls.append(lambda ctx=ctx, w=w: classify_input(g, ctx, w).to_json(g))
    types = type_universe(g, [g.symbol(x) for x in ("T", "V", "E")], 1)
    word = word_from_text(g, "a = b AND a = b OR a = b")
    sequents = [
        Sequent(tuple(map(Atom, word[i:j])), t)
        for i, j in FRAGMENT_CUTS
        for t in types + [Atom(g.symbol(x)) for x in ("C", "D", "F")]
    ]
    sequents += [Sequent((l,), r) for i, l in enumerate(types) for j, r in enumerate(types) if (i + 2 * j) % 4 == 0]
    for s in sequents:
        calls.append(lambda s=s: _prescreened_json(g, s))
    return calls


def _prescreened_json(g, s):
    r = prove_with_prescreen(g, s)
    proof = None if r.proof is None else proof_to_json(r.proof)
    word = None if r.counterexample is None else render_word(r.counterexample)
    return {"status": r.status.value, "proof": proof, "counterexample": word}


def test_answers_do_not_depend_on_memo_state(load_bundled):
    """Two fresh grammars answer one batch in opposite orders, so each call
    meets different tables on its grammar; every answer is the same."""
    g, h = load_bundled("bool.g"), load_bundled("bool.g")
    forward = [call() for call in _batch(g)]
    backward = [call() for call in reversed(_batch(h))][::-1]
    for i, (a, b) in enumerate(zip(forward, backward, strict=True)):
        assert a == b, i


def _classify_reference(g, ctx, w):
    """classify_input as three parses: the template's, a prover's for w ⊢ V,
    and the spliced string's, walked node for node against the template's
    tree, whose hole leaf stands for any node of its label."""
    ctx_tree = context_tree(g, ctx)
    require_word(g, w)
    benign = Prover(g).prove(Sequent(tuple(map(Atom, w)), Atom(ctx.expected)))
    captures = () if benign.proved else capture_typings(g, ctx, w)
    out = parse_tree(g, ctx.goal, ctx.prefix + w + ctx.suffix)
    if isinstance(out, Reject):
        reshaping = Unparseable()
    elif isinstance(out, Ambiguous):
        raise AmbiguityError("the spliced string parses ambiguously")
    else:
        reshaping = ConservativeExtension(out.tree)
        stack = [(ctx_tree, out.tree)]
        while stack:
            t, c = stack.pop()
            hole = t.production is None and t.root == ctx.expected
            if t.label() != c.label() or (len(t.children) != len(c.children) and not hole):
                reshaping = Reshaped(ctx_tree, out.tree)
                break
            stack.extend(zip(t.children, c.children))
    if benign.proved:
        cls = Classification.BENIGN
    elif captures:
        cls = Classification.CAPTURING
    elif isinstance(reshaping, Unparseable):
        cls = Classification.ILL_FORMED
    else:
        cls = Classification.UNKNOWN
    return InjectionReport(cls, ctx, w, benign.proof, captures, reshaping)


def _assert_classify_matches_the_reference(g, ctx, w):
    try:
        ref = _classify_reference(g, ctx, w)
    except ValueError as e:
        with pytest.raises(type(e)) as raised:
            classify_input(g, ctx, w)
        assert type(raised.value) is type(e), (ctx, w)
        return
    rep = classify_input(g, ctx, w)
    assert (rep.classification is Classification.BENIGN) == isinstance(rep.reshaping, ConservativeExtension)
    assert rep.classification is ref.classification, (ctx, w)
    assert rep.benign_proof == ref.benign_proof
    if rep.benign_proof is not None:
        assert proof_to_json(rep.benign_proof) == proof_to_json(ref.benign_proof)
        assert check_proof(g, rep.benign_proof).ok
    assert type(rep.reshaping) is type(ref.reshaping), (ctx, w)
    assert rep.reshaping == ref.reshaping
    assert rep.to_json(g) == ref.to_json(g)


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_classify_matches_the_reference_on_the_templates(bool_g, name):
    prefix, suffix, goal, expected = TEMPLATES[name]
    ctx = InjectionContext(
        word_from_text(bool_g, prefix), word_from_text(bool_g, suffix), bool_g.symbol(goal), bool_g.symbol(expected)
    )
    for text in INPUTS:
        _assert_classify_matches_the_reference(bool_g, ctx, word_from_text(bool_g, text))


@ignore_swallowed_alarms
@settings(max_examples=150)
@given(cyclic_grammars(), st.data())
def test_classify_matches_the_reference_on_random_grammars(g, data):
    """Benign read off the spliced parse agrees with the prover and the
    template walk, and raises where they raise."""
    words = st.lists(st.sampled_from(_by_name(g.terminals)), max_size=3).map(tuple)
    holes = st.one_of(st.sampled_from(_by_name(memo(g, nullable_ids))), st.sampled_from(_by_name(g.nonterminals)))
    hole = data.draw(holes)
    ctx = InjectionContext(data.draw(words), data.draw(words), g.start, hole)
    w = data.draw(st.one_of(st.just(()), words))
    _within_two_seconds(_assert_classify_matches_the_reference, g, ctx, w)


@st.composite
def cut_sentences(draw):
    """A random grammar, with no cycle forced in, and a template cut from a
    parse of one of its words at a node: the node's symbol is the hole, and
    the input is either the node's yield or any short word."""
    nts = ["S", "A", "B", "C"]
    terms = ["x", "y", "z"]
    rhs = st.lists(st.sampled_from(nts + terms), max_size=3).map(tuple)
    rules = set(draw(st.lists(st.tuples(st.sampled_from(nts), rhs), min_size=2, max_size=7))) | {("S", ("x",))}
    sym = {n: nonterminal(n) for n in nts} | {t: terminal(t) for t in terms}
    prods = tuple(Production(sym[lhs], tuple(sym[s] for s in body)) for lhs, body in sorted(rules))
    g = Grammar(frozenset(sym[t] for t in terms), frozenset(sym[n] for n in nts), prods, sym["S"])
    u = draw(st.sampled_from(list(iter_words_sorted(enumerate_words(g, g.start, 5)))))
    out = parse_tree(g, g.start, u)
    nodes, stack = [], [(out.first if isinstance(out, Ambiguous) else out.tree, 0)]
    while stack:
        node, i = stack.pop()
        if node.production is not None:
            nodes.append((i, i + len(node.word), node.root))
        for c in node.children:
            stack.append((c, i))
            i += len(c.word)
    i, j, hole = draw(st.sampled_from(nodes))
    words = st.lists(st.sampled_from([sym[t] for t in terms]), max_size=3).map(tuple)
    w = u[i:j] if draw(st.booleans()) else draw(words)
    return g, InjectionContext(u[:i], u[j:], g.start, hole), w


@ignore_swallowed_alarms
@settings(max_examples=150)
@given(cut_sentences())
def test_classify_matches_the_reference_on_cut_sentences(cut):
    _within_two_seconds(_assert_classify_matches_the_reference, *cut)


def test_a_second_input_closes_no_prefix_column_and_no_column_0(load_bundled, spy):
    """The grammar keeps the closed chart of each template's prefix and the
    closed column 0 of each start set.  So once an input of each kind has
    been classified, another one at the same template closes no column of
    the prefix chart up to the prefix's end, and no column 0 of any chart."""
    g = load_bundled("bool")
    ctx = InjectionContext(word_from_text(g, "1 = b AND a ="), word_from_text(g, "OR b = 1"), g.symbol("E"), g.symbol("V"))
    runs = spy(earley, "_run")
    kinds = (("b", "1"), ("b OR 1 = 1", "a OR b = b"), ("b b", "= ="))
    for first, second in kinds:
        classify_input(g, ctx, word_from_text(g, first))
        runs.clear()
        rep = classify_input(g, ctx, word_from_text(g, second))
        prefix = g._memo[(Chart, (ctx.goal,), False, ctx.prefix)]
        # _run(tables, columns, waits, leo, col, wait, i, w) closes column i and the ones after it
        assert runs and all(args[6] > 0 for args in runs), second
        continued = [args[6] for args in runs if args[1] is prefix.columns]
        assert continued and min(continued) == len(ctx.prefix) + 1, second
        assert rep == classify_input(load_bundled("bool"), ctx, word_from_text(g, second))


def test_each_column_0_is_closed_once_per_grammar_and_reading(load_bundled, spy):
    """Templates, inputs, parses and oracle checks in both readings: each
    start set's column 0 is closed once, and only recognize closes others."""
    g = load_bundled("bool")
    closed = spy(earley, "_column0")
    for name in sorted(TEMPLATES):
        prefix, suffix, goal, expected = TEMPLATES[name]
        ctx = InjectionContext(word_from_text(g, prefix), word_from_text(g, suffix), g.symbol(goal), g.symbol(expected))
        for text in INPUTS[:12]:
            classify_input(g, ctx, word_from_text(g, text))
    for text in ("T |- C/D", "V |- T\\C", "a , = , b |- T"):
        prove_with_prescreen(g, parse_sequent(text, g), SemBound(6))
    keys = [args[1:] for args in closed]
    assert {reverse for _, reverse in keys} == {False, True}
    assert len(keys) == len(set(keys)), keys


def test_a_deadline_inside_a_parse_leaves_the_template_chart_as_it_was(load_bundled, monkeypatch):
    """A BaseException raised, as the benchmark's deadline is, while a
    spliced string is charted or walked leaves the template's prefix chart
    as it was, and later reports equal a fresh grammar's."""
    g = load_bundled("bool")
    ctx = InjectionContext(word_from_text(g, "1 = b AND a ="), word_from_text(g, "OR b = 1"), g.symbol("E"), g.symbol("V"))
    classify_input(g, ctx, word_from_text(g, "b"))
    chart = g._memo[(Chart, (ctx.goal,), False, ctx.prefix)]
    before = chart_state(chart)
    inputs = [word_from_text(g, text) for text in ("a AND 1 = 1 AND b = b", "b OR 1 = 1 AND a = a", "b")]
    for name in ("_run", "_leo_top", "_span_ends", "_trees"):
        for k in (1, 2, 5):
            real, calls = getattr(earley, name), []

            def deadline(*args, real=real, calls=calls, k=k):
                calls.append(None)
                if len(calls) == k:
                    raise _Deadline
                return real(*args)

            monkeypatch.setattr(earley, name, deadline)
            for w in inputs:
                try:
                    classify_input(g, ctx, w)
                except _Deadline:
                    pass
            monkeypatch.undo()
            assert chart_state(chart) == before, (name, k)
    for w in inputs:
        assert classify_input(g, ctx, w).to_json(g) == classify_input(load_bundled("bool"), ctx, w).to_json(g)


def test_reports_are_the_same_on_a_cold_and_a_warm_grammar(load_bundled):
    """Each template and input classified on a grammar of its own, and on one
    grammar that has classified them all already and is asked again in
    reversed order, gives the same report."""
    cases = [(name, text) for name in sorted(TEMPLATES) for text in INPUTS]

    def report(g, name, text):
        prefix, suffix, goal, expected = TEMPLATES[name]
        ctx = InjectionContext(word_from_text(g, prefix), word_from_text(g, suffix), g.symbol(goal), g.symbol(expected))
        return classify_input(g, ctx, word_from_text(g, text)).to_json(g)

    cold = [report(load_bundled("bool"), *case) for case in cases]
    warm_g = load_bundled("bool")
    assert [report(warm_g, *case) for case in cases] == cold
    assert [report(warm_g, *case) for case in reversed(cases)] == cold[::-1]


def _outcome(g, ctx, w):
    """classify_input's classification and its captures as (side, type), or the class of the error it raises."""
    try:
        rep = classify_input(g, ctx, w)
    except ValueError as e:
        return type(e)
    return rep.classification, {(c.direction, c.type) for c in rep.captures}


def _assert_mirrored(g, ctx, w):
    """At (prefix, suffix) over g and at (reversed suffix, reversed prefix)
    over g's rules reversed, w and reversed w classify alike, with sides
    swapped and capture types mirrored."""
    mirror = InjectionContext(ctx.suffix[::-1], ctx.prefix[::-1], ctx.goal, ctx.expected)
    here, there = _outcome(g, ctx, w), _outcome(reversed_grammar(g), mirror, w[::-1])
    if isinstance(here, type):
        assert there is here, (ctx, w)
        return
    swap = {Side.LEFT: Side.RIGHT, Side.RIGHT: Side.LEFT}
    assert there == (here[0], {(swap[side], mirror_type(t)) for side, t in here[1]}), (ctx, w)


def _assert_classified_and_mirrored(g, ctx, w):
    """A cut template parses, so w classifies or raises AmbiguityError, and its mirror agrees."""
    here = _outcome(g, ctx, w)
    assert here is AmbiguityError or not isinstance(here, type), (ctx, w, here)
    _assert_mirrored(g, ctx, w)


@ignore_swallowed_alarms
@settings(max_examples=150)
@given(cut_sentences())
def test_classifications_mirror_on_random_grammars(cut):
    _within_two_seconds(_assert_classified_and_mirrored, *cut)


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_classifications_mirror_on_the_templates(bool_g, name):
    prefix, suffix, goal, expected = TEMPLATES[name]
    ctx = InjectionContext(
        word_from_text(bool_g, prefix), word_from_text(bool_g, suffix), bool_g.symbol(goal), bool_g.symbol(expected)
    )
    for text in INPUTS:
        _assert_mirrored(bool_g, ctx, word_from_text(bool_g, text))


def _assert_hole_languages_mirrored(g, ctx, n):
    """hole_language at (prefix, suffix) over g is the reversal of
    hole_language at (reversed suffix, reversed prefix) over g's rules reversed."""
    mirror = InjectionContext(ctx.suffix[::-1], ctx.prefix[::-1], ctx.goal, ctx.expected)
    here = hole_language(g, ctx, n)
    assert hole_language(reversed_grammar(g), mirror, n) == {w[::-1] for w in here}, (ctx, n)


@ignore_swallowed_alarms
@settings(max_examples=100)
@given(cyclic_grammars(), st.data())
def test_hole_languages_mirror_on_random_grammars(g, data):
    words = st.lists(st.sampled_from(_by_name(g.terminals)), max_size=3).map(tuple)
    nonterminals = st.sampled_from(_by_name(g.nonterminals))
    ctx = InjectionContext(data.draw(words), data.draw(words), data.draw(nonterminals), data.draw(nonterminals))
    _within_two_seconds(_assert_hole_languages_mirrored, g, ctx, data.draw(st.integers(0, 3)))


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_hole_languages_mirror_on_the_templates(bool_g, name):
    prefix, suffix, goal, expected = TEMPLATES[name]
    ctx = InjectionContext(
        word_from_text(bool_g, prefix), word_from_text(bool_g, suffix), bool_g.symbol(goal), bool_g.symbol(expected)
    )
    _assert_hole_languages_mirrored(bool_g, ctx, 3)
