from itertools import product

import pytest

from lambek.analyzer import (
    AmbiguityError,
    Classification,
    ConservativeExtension,
    InjectionContext,
    Reshaped,
    Unparseable,
    capture_typings,
    classify_input,
    context_tree,
    hole_language,
    infer_typings,
    reshaping_check,
)
from lambek.earley import recognize, render_tree_text
from lambek.grammar import parse_grammar_file, word_from_text
from lambek.prover import Prover, Side, check_proof
from lambek.semantics import OraclePass, SemBound, member_bounded, soundness_check
from lambek.types import Atom, Sequent, mirror_type, parse_type, render_type


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


def test_shared_prover_reuses_its_memo(bool_g, tmpl):
    attack = word_from_text(bool_g, "b OR 1 = 1")
    shared = Prover(bool_g)
    a = capture_typings(bool_g, tmpl, attack, prover=shared)
    b = capture_typings(bool_g, tmpl, attack, prover=shared)
    assert [(c.direction, c.type) for c in a] == [(c.direction, c.type) for c in b]


def test_attack_ladder_search_does_not_grow_with_the_input(bool_g, tmpl, monkeypatch):
    """The capture goals of  b (OR 1 = 1)^k  read their splits off one chart per run,
    so the search expands the same nodes at every k."""
    calls = []
    search = Prover._search

    def counted(self, *args):
        calls.append(1)
        return search(self, *args)

    monkeypatch.setattr(Prover, "_search", counted)
    counts, captures = [], []
    for k in (8, 16, 32, 64):
        calls.clear()
        r = classify_input(bool_g, tmpl, word_from_text(bool_g, "b" + " OR 1 = 1" * k))
        assert r.classification is Classification.CAPTURING
        counts.append(len(calls))
        captures.append([render_type(c.type) for c in r.captures])
    assert len(set(counts)) == 1, counts
    assert captures == [captures[0]] * 4 and len(captures[0]) == 2
