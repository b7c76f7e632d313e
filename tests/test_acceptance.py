"""End-to-end gate: one test per headline behavior of the tool.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per item.  Later items sweep every sequent the earlier ones proved, so the
file is meant to run top to bottom (each test still sets up enough state to
be meaningful on its own).
"""
import io
import json
from itertools import product

import pytest

from lambek.analyzer import InjectionContext, hole_language
from lambek.cli import run
from lambek.earley import Pass, Witness, check_unambiguous, recognize
from lambek.grammar import enumerate_words, parse_grammar_file, validate, word_from_text
from lambek.prover import (
    Prover,
    RuleName,
    Side,
    check_proof,
    dni,
    elim_over,
    elim_under,
    parse_axiom,
)
from lambek.semantics import (
    Counterexample,
    OraclePass,
    SemBound,
    context_denotation_bounded,
    denotation_bounded,
    member_bounded,
    soundness_check,
)
from lambek.types import (
    Atom,
    Over,
    Prod,
    Sequent,
    Under,
    parse_sequent,
    parse_type,
    render_sequent,
    type_universe,
)

# every sequent some criterion proves, swept by the soundness criterion;
# axiom-relative proofs stay out because the oracle models the grammar only
_PROVED: list[tuple[object, Sequent]] = []


def _register(g, s):
    _PROVED.append((g, s))


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


# judgments of the bundled bool.g; there OR joins two tests into an expression
BOOL_JUDGMENTS = [
    "a , = |- T/V",
    "a , = , b |- T",
    "b , OR , 1 , = , 1 |- (T/V)\\E",
    "a , = , b , OR , 1 , = , 1 |- E",
    "1 , = , 1 , OR , b |- E/(V\\T)",
    "|- 1",
    "OR |- (T\\E)/T",
    "OR , 1 , = , 1 |- T\\E",
]

# OR as a binary operator on tests: derivable where OR sits inside tests,
# as in OR_ON_TESTS_GRAMMAR, and refuted on bool.g, which layers OR above T
OR_ON_TESTS_JUDGMENTS = [
    "OR |- (T\\T)/T",
    "OR , 1 , = , 1 |- T\\T",
]

OR_ON_TESTS_GRAMMAR = "start T\nT ::= T OR T | V = V ;\nV ::= 1 | a | b ;\n"


@pytest.fixture(scope="module")
def or_on_tests_g():
    g, _ = validate(parse_grammar_file(OR_ON_TESTS_GRAMMAR))
    return g


def _one_line(out, err):
    return " ".join((out.strip() or err.strip()).split())


def _certified_refutation(g, s, code, out, bound) -> bool:
    """exit 1 with RefutedByOracle, naming an antecedent word outside the succedent"""
    if code != 1:
        return False
    report = json.loads(out)
    if report["status"] != "RefutedByOracle" or report["counterexample"] is None:
        return False
    word = word_from_text(g, report["counterexample"])
    return word in context_denotation_bounded(
        g, s.antecedent, bound, len(word)
    ) and not member_bounded(g, word, s.succedent, bound)


def test_criterion_01_core_judgments(bool_g, or_on_tests_g, tmp_path):
    or_on_tests_file = tmp_path / "or_on_tests.g"
    or_on_tests_file.write_text(OR_ON_TESTS_GRAMMAR, encoding="utf-8")
    failures = []
    for name, g, spec, judgments in (
        ("bool.g", bool_g, "bool", BOOL_JUDGMENTS),
        ("OR-on-tests grammar", or_on_tests_g, str(or_on_tests_file), OR_ON_TESTS_JUDGMENTS),
    ):
        for text in judgments:
            code, out, err = _cli("check", text, "--grammar", spec)
            if code == 0:
                _register(g, parse_sequent(text, g))
            else:
                failures.append(f"{name}: {text} -> exit {code}: {_one_line(out, err)}")

    bound = SemBound(5)
    for text in OR_ON_TESTS_JUDGMENTS:
        code, out, err = _cli(
            "check", text, "--grammar", "bool", "--json", "--max-len", str(bound.max_len)
        )
        if not _certified_refutation(bool_g, parse_sequent(text, bool_g), code, out, bound):
            failures.append(
                f"bool.g: {text} -> exit {code}, want a certified RefutedByOracle: "
                f"{_one_line(out, err)}"
            )
    if failures:
        pytest.fail("\n".join(failures), pytrace=False)


def test_criterion_02_attack_is_not_a_value(bool_g):
    s = parse_sequent("b , OR , 1 , = , 1 |- V", bool_g)
    assert not Prover(bool_g).prove(s).proved
    code, out, _ = _cli(
        "oracle", "b , OR , 1 , = , 1 |- V", "--grammar", "bool", "--max-len", "5"
    )
    assert code == 1 and "Counterexample" in out
    word = word_from_text(bool_g, "b OR 1 = 1")
    assert not member_bounded(bool_g, word, parse_type("V", bool_g), SemBound(5))


def _tree_has_or_above_t(node) -> bool:
    """an E-node whose OR-production child dominates a T-node"""

    def subtree_has(n, sym):
        return n["sym"] == sym or any(subtree_has(c, sym) for c in n["children"])

    if node["sym"] == "E":
        for child in node["children"]:
            if subtree_has(child, "OR") and subtree_has(child, "T"):
                return True
    return any(_tree_has_or_above_t(c) for c in node["children"])


def test_criterion_03_tautology_attack_capture(bool_g):
    base = ["analyze", "--grammar", "bool", "--prefix", "a =",
            "--goal", "E", "--expect", "V", "--json"]
    code, out, _ = _cli(*base, "--input", "b")
    benign = json.loads(out)
    assert code == 0 and benign["classification"] == "Benign"
    _register(bool_g, parse_sequent("b |- V", bool_g))

    code, out, _ = _cli(*base, "--input", "b OR 1 = 1")
    report = json.loads(out)
    assert code == 1 and report["classification"] == "Capturing"
    types = [c["type"] for c in report["captures"]]
    assert "(T/V)\\E" in types
    assert report["reshaping"]["verdict"] == "Reshaped"
    assert _tree_has_or_above_t(report["reshaping"]["combined_tree"])
    for text in types:
        _register(bool_g, parse_sequent(f"b , OR , 1 , = , 1 |- {text}", bool_g))


def test_criterion_04_order_sensitivity(bool_g):
    base = ["analyze", "--grammar", "bool", "--suffix", "= a",
            "--goal", "E", "--expect", "V", "--json"]
    code, out, _ = _cli(*base, "--input", "b OR 1 = 1")
    assert code == 1 and json.loads(out)["classification"] == "IllFormed"

    code, out, _ = _cli(*base, "--input", "1 = 1 OR b")
    report = json.loads(out)
    assert code == 1 and report["classification"] == "Capturing"
    types = [c["type"] for c in report["captures"]]
    assert "E/(V\\T)" in types
    for text in types:
        _register(bool_g, parse_sequent(f"1 , = , 1 , OR , b |- {text}", bool_g))


def test_criterion_05_pronoun_axioms(eng_g):
    axioms = (
        parse_axiom("he |- Sent/(Noun\\Sent)", eng_g),
        parse_axiom("him |- (Sent/Noun)\\Sent", eng_g),
    )
    p = Prover(eng_g, axioms)
    for text in (
        "Alice , knows , Bob |- Sent",
        "he , knows , Alice |- Sent",
        "Alice , knows , him |- Sent",
    ):
        r = p.prove(parse_sequent(text, eng_g))
        assert r.proved, text
        assert check_proof(eng_g, r.proof, axioms).ok

        def uses_axiom(t):
            return t.rule is RuleName.AXIOM or any(uses_axiom(q) for q in t.premises)

        if not uses_axiom(r.proof):
            _register(eng_g, r.proof.conclusion)

    bad = parse_sequent("him , knows , Alice |- Sent", eng_g)
    assert not p.prove(bad).proved
    assert isinstance(soundness_check(eng_g, bad, SemBound(4)), Counterexample)


def test_criterion_06_tactics_on_a_proved_corpus(bool_g):
    corpus = []
    for name, n in [("V", 1), ("T", 3), ("C", 3), ("E", 3), ("D", 4), ("F", 4)]:
        sym = bool_g.symbol(name)
        for w in enumerate_words(bool_g, sym, n):
            corpus.append(Sequent(tuple(Atom(s) for s in w), Atom(sym)))
    assert len(corpus) >= 50

    pr = Prover(bool_g)
    T, E = Atom(bool_g.symbol("T")), Atom(bool_g.symbol("E"))
    for s in corpus:
        r = pr.prove(s)
        assert r.proved, render_sequent(s)
        _register(bool_g, s)
        a = s.succedent

        for raised in (dni(r.proof, T, Side.LEFT), dni(r.proof, E, Side.RIGHT)):
            assert check_proof(bool_g, raised).ok
            assert pr.prove(raised.conclusion).proved, render_sequent(raised.conclusion)
            _register(bool_g, raised.conclusion)

        ident_over = pr.prove(Sequent((), Over(a, a))).proof
        ident_under = pr.prove(Sequent((), Under(a, a))).proof
        via_over = elim_over(ident_over, r.proof)
        via_under = elim_under(r.proof, ident_under)
        for t in (via_over, via_under):
            assert t.conclusion == s
            assert check_proof(bool_g, t).ok


def test_criterion_07_residuation(bool_g):
    atoms = [bool_g.symbol(n) for n in ("T", "V", "E")]
    uni = type_universe(bool_g, atoms, 1)
    n = len(uni)
    assert n == 31
    pr = Prover(bool_g)
    checked = 0
    for k in range(0, n**3, 59):
        phi, psi, pi = uni[k // (n * n)], uni[(k // n) % n], uni[k % n]
        forms = (
            Sequent((Prod(phi, psi),), pi),
            Sequent((psi,), Under(phi, pi)),
            Sequent((phi,), Over(pi, psi)),
        )
        verdicts = [pr.prove(s).proved for s in forms]
        assert verdicts[0] == verdicts[1] == verdicts[2], tuple(map(render_sequent, forms))
        checked += 1
        for s, ok in zip(forms, verdicts):
            if ok:
                _register(bool_g, s)
    assert checked >= 500


def test_criterion_08_soundness_sweep(bool_g, or_on_tests_g):
    # meaningful standalone
    for g, judgments in ((bool_g, BOOL_JUDGMENTS), (or_on_tests_g, OR_ON_TESTS_JUDGMENTS)):
        for text in judgments:
            _register(g, parse_sequent(text, g))
    seen = set()
    swept = 0
    for g, s in _PROVED:
        if (id(g), s) in seen:
            continue
        seen.add((id(g), s))
        out_len = max(6, len(s.antecedent))
        verdict = soundness_check(g, s, SemBound(6), out_len)
        assert isinstance(verdict, OraclePass), render_sequent(s)
        swept += 1
    assert swept >= 6


def test_criterion_09_bounded_semantics_exact(bool_g):
    T = parse_type("T", bool_g)
    words = denotation_bounded(bool_g, T, SemBound(5), 3)
    assert words == frozenset(enumerate_words(bool_g, bool_g.symbol("T"), 3))
    assert len(words) == 9

    ctx = InjectionContext(
        prefix=word_from_text(bool_g, "a ="),
        suffix=(),
        goal=bool_g.symbol("E"),
        expected=bool_g.symbol("V"),
    )
    sigma = sorted(bool_g.terminals, key=lambda s: s.name)
    brute = frozenset(
        w
        for n in range(6)
        for w in product(sigma, repeat=n)
        if recognize(bool_g, ctx.goal, ctx.prefix + w + ctx.suffix)
    )
    assert hole_language(bool_g, ctx, 5) == brute


def test_criterion_10_unambiguity(bool_g, eng_g, ambiguous_g):
    assert check_unambiguous(bool_g, bool_g.symbol("E"), 8) == Pass(8)
    assert check_unambiguous(eng_g, eng_g.symbol("Sent"), 5) == Pass(5)
    outcome = check_unambiguous(ambiguous_g, ambiguous_g.symbol("S"), 5)
    assert isinstance(outcome, Witness)
    assert len(outcome.word) == 3
