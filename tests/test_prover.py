import dataclasses
import random

import pytest

from lambek.grammar import nonterminal, parse_grammar_file
from lambek.prover import (
    ContractDetail,
    CutDetail,
    GramDetail,
    Prover,
    RuleName,
    SearchConfig,
    SearchStatus,
    Side,
    TacticError,
    check_proof,
    dni,
    elim_over,
    elim_under,
    expand_contract,
    parse_axiom,
    proof_from_json,
    proof_to_json,
    render_proof,
)
from lambek.prover import ProofTree
from lambek.semantics import prove_with_prescreen, soundness_check
from lambek.types import Atom, Sequent, parse_sequent, render_sequent

PROVABLE = [
    "a , = |- T/V",
    "a , = , b |- T",
    "b , OR , 1 , = , 1 |- (T/V)\\E",
    "a , = , b , OR , 1 , = , 1 |- E",
    "1 , = , 1 , OR , b |- E/(V\\T)",
    "|- 1",
    "b |- V",
    "V , = , V |- T",
    "T |- E",
]

UNPROVABLE = [
    "OR |- (T\\T)/T",
    "OR , 1 , = , 1 |- T\\T",
    "b , OR , 1 , = , 1 |- V",
    "V |- T",
    "E |- T",
]


@pytest.fixture(scope="module")
def prover(bool_g):
    return Prover(bool_g, SearchConfig())


@pytest.mark.parametrize("text", PROVABLE)
def test_provable_judgments(bool_g, prover, text):
    r = prover.prove(parse_sequent(text, bool_g))
    assert r.status is SearchStatus.PROVED
    assert r.proof.conclusion == parse_sequent(text, bool_g)
    assert check_proof(bool_g, r.proof).ok


@pytest.mark.parametrize("text", UNPROVABLE)
def test_unprovable_judgments(bool_g, prover, text):
    r = prover.prove(parse_sequent(text, bool_g))
    assert r.status is SearchStatus.NOT_FOUND_WITHIN_BOUNDS
    assert r.proof is None


def test_search_is_deterministic(bool_g):
    s = parse_sequent("a , = , b , OR , 1 , = , 1 |- E", bool_g)
    first = Prover(bool_g).prove(s)
    second = Prover(bool_g).prove(s)
    assert render_proof(first.proof) == render_proof(second.proof)


def test_render_proof_text(bool_g, prover):
    r = prover.prove(parse_sequent("a , = , b |- T", bool_g))
    lines = render_proof(r.proof).splitlines()
    assert lines[0] == "a , = , b |- T   [CONTRACT]"
    # premises indent two spaces per level and carry their rule tag
    assert all("   [" in ln for ln in lines)
    assert any(ln.startswith("  ") for ln in lines[1:])


def test_proof_json_round_trip(bool_g, prover):
    r = prover.prove(parse_sequent("b , OR , 1 , = , 1 |- (T/V)\\E", bool_g))
    obj = proof_to_json(r.proof)
    assert proof_from_json(obj, bool_g) == r.proof


def test_flagship_proof_skips_nullable_tail(bool_g, prover):
    """The E-derivation folds F ::= OR C F with its trailing F skipped."""
    r = prover.prove(parse_sequent("a , = , b , OR , 1 , = , 1 |- E", bool_g))

    def contracts(t):
        if t.rule is RuleName.CONTRACT:
            yield t.detail
        for p in t.premises:
            yield from contracts(p)

    details = list(contracts(r.proof))
    assert details
    assert any(d.skipped for d in details)
    for d in details:
        prod = bool_g.productions[d.production]
        assert len(d.skipped) < len(prod.rhs)  # every fold here consumes tokens


def test_expand_contract(bool_g, prover):
    r = prover.prove(parse_sequent("a , = , b |- T", bool_g))

    def expand_all(t):
        t = dataclasses.replace(t, premises=tuple(expand_all(p) for p in t.premises))
        return expand_contract(bool_g, t) if t.rule is RuleName.CONTRACT else t

    def rules(t):
        yield t.rule
        for p in t.premises:
            yield from rules(p)

    assert RuleName.CONTRACT in rules(r.proof)
    plain = expand_all(r.proof)
    assert RuleName.CONTRACT not in rules(plain)
    assert plain.conclusion == r.proof.conclusion
    assert check_proof(bool_g, plain).ok
    with pytest.raises(ValueError, match="CONTRACT"):
        expand_contract(bool_g, _find(r.proof, RuleName.GRAM))


def test_insert_budget_gates_empty_folds():
    g = parse_grammar_file("start S\nS ::= A x ;\nA ::= B B ;\nB ::= ;\n")
    empty_a = parse_sequent("|- A", g)
    assert not Prover(g, SearchConfig(insert_budget=0)).prove(empty_a).proved
    r = Prover(g, SearchConfig(insert_budget=1)).prove(empty_a)
    assert r.proved and check_proof(g, r.proof).ok
    # the budget is charged per branch, so two empty folds still fit in 1
    assert Prover(g, SearchConfig(insert_budget=1)).prove(parse_sequent("|- A*A", g)).proved
    # folds that consume at least one token are free
    assert Prover(g, SearchConfig(insert_budget=0)).prove(parse_sequent("x |- S", g)).proved


def test_prove_rejects_undeclared_atoms(bool_g):
    other = parse_grammar_file("start Z\nZ ::= y ;\n")
    s = Sequent((Atom(other.symbol("y")),), Atom(bool_g.symbol("T")))
    with pytest.raises(ValueError, match="not declared"):
        Prover(bool_g).prove(s)


def test_prescreen_rejects_undeclared_atoms(bool_g):
    """The oracle must not refute a sequent the search refuses to read."""
    s = Sequent((Atom(bool_g.symbol("T")),), Atom(nonterminal("Z")))
    for entry in (Prover(bool_g).prove, lambda s: prove_with_prescreen(bool_g, s)):
        with pytest.raises(ValueError, match="'Z' is not declared"):
            entry(s)


# --- proof checker rejections -------------------------------------------


def _find(t, rule):
    if t.rule is rule:
        return t
    for p in t.premises:
        if (hit := _find(p, rule)) is not None:
            return hit
    return None


def _replace_node(t, target, new):
    if t is target:
        return new
    return dataclasses.replace(
        t, premises=tuple(_replace_node(p, target, new) for p in t.premises)
    )


def test_check_rejects_wrong_conclusion(bool_g, prover):
    r = prover.prove(parse_sequent("b |- V", bool_g))
    bad = dataclasses.replace(
        r.proof, conclusion=parse_sequent("b |- T", bool_g)
    )
    res = check_proof(bool_g, bad)
    assert not res.ok and res.path == ()


def test_check_rejects_wrong_production_index(bool_g, prover):
    r = prover.prove(parse_sequent("b |- V", bool_g))
    gram = _find(r.proof, RuleName.GRAM)
    other = (gram.detail.production + 1) % len(bool_g.productions)
    bad = _replace_node(r.proof, gram, dataclasses.replace(gram, detail=GramDetail(other)))
    res = check_proof(bool_g, bad)
    assert not res.ok and "production" in res.reason


def test_check_rejects_dropped_premise(bool_g, prover):
    r = prover.prove(parse_sequent("a , = , b |- T", bool_g))
    node = _find(r.proof, RuleName.CONTRACT)
    bad = _replace_node(r.proof, node, dataclasses.replace(node, premises=()))
    res = check_proof(bool_g, bad)
    assert not res.ok and "premises" in res.reason


def test_check_rejects_non_nullable_skip(bool_g):
    six = next(
        i for i, p in enumerate(bool_g.productions)
        if p.lhs.name == "T" and len(p.rhs) == 3
    )
    v, t = Atom(bool_g.symbol("V")), Atom(bool_g.symbol("T"))
    # pretend T ::= V = V matched with the "=" skipped
    bad = ProofTree(
        Sequent((v, v), t),
        RuleName.CONTRACT,
        (ProofTree(Sequent((t,), t), RuleName.AX, ()),),
        ContractDetail(six, 0, (1,)),
    )
    res = check_proof(bool_g, bad)
    assert not res.ok and "nullable" in res.reason


def test_check_rejects_cut_segment_mismatch(bool_g, prover):
    left = prover.prove(parse_sequent("a , = |- T/V", bool_g)).proof
    right = prover.prove(parse_sequent("b |- V", bool_g)).proof
    good = elim_over(left, right)
    assert check_proof(bool_g, good).ok
    bad = dataclasses.replace(good, detail=CutDetail(1, 2))
    res = check_proof(bool_g, bad)
    assert not res.ok and "CUT" in res.reason


def test_check_reports_failure_path(bool_g, prover):
    r = prover.prove(parse_sequent("a , = , b |- T", bool_g))
    node = _find(r.proof, RuleName.GRAM)
    bad_leaf = dataclasses.replace(node, rule=RuleName.AX, detail=None)
    res = check_proof(bool_g, _replace_node(r.proof, node, bad_leaf))
    assert not res.ok
    assert res.path  # deep failure, not the root
    assert "AX" in res.reason


# --- derived-rule tactics -------------------------------------------------


def test_elim_over(bool_g, prover):
    left = prover.prove(parse_sequent("a , = |- T/V", bool_g)).proof
    right = prover.prove(parse_sequent("b |- V", bool_g)).proof
    t = elim_over(left, right)
    assert render_sequent(t.conclusion) == "a , = , b |- T"
    assert check_proof(bool_g, t).ok


def test_elim_under(bool_g, prover):
    left = prover.prove(parse_sequent("a , = |- T/V", bool_g)).proof
    right = prover.prove(parse_sequent("b , OR , 1 , = , 1 |- (T/V)\\E", bool_g)).proof
    t = elim_under(left, right)
    assert render_sequent(t.conclusion) == 'a , = , b , OR , "1" , = , "1" |- E'
    assert check_proof(bool_g, t).ok


def test_elim_argument_mismatch(bool_g, prover):
    tv = prover.prove(parse_sequent("a , = |- T/V", bool_g)).proof
    not_v = prover.prove(parse_sequent("a , = , b |- T", bool_g)).proof
    with pytest.raises(TacticError, match="does not match"):
        elim_over(tv, not_v)
    with pytest.raises(TacticError, match="must conclude"):
        elim_under(not_v, not_v)
    with pytest.raises(TacticError, match="must conclude"):
        elim_over(not_v, tv)


@pytest.mark.parametrize(
    "side,expect",
    [(Side.LEFT, "b |- (T/V)\\T"), (Side.RIGHT, "b |- T/(V\\T)")],
)
def test_dni(bool_g, prover, side, expect):
    base = prover.prove(parse_sequent("b |- V", bool_g)).proof
    t = dni(base, Atom(bool_g.symbol("T")), side)
    assert render_sequent(t.conclusion) == expect
    assert check_proof(bool_g, t).ok
    # the raised typing is also findable by search from scratch
    assert Prover(bool_g).prove(t.conclusion).proved


# --- typing axioms --------------------------------------------------------


def test_parse_axiom(eng_g):
    ax = parse_axiom("he |- Sent/(Noun\\Sent)", eng_g)
    assert ax.token.name == "he" and ax.token.is_terminal
    with pytest.raises(ValueError, match="single token"):
        parse_axiom("he , knows |- Sent", eng_g)
    with pytest.raises(ValueError, match="terminal"):
        parse_axiom("Noun |- Sent/(Noun\\Sent)", eng_g)


def test_axioms_extend_the_lexicon(eng_g):
    axioms = (
        parse_axiom("he |- Sent/(Noun\\Sent)", eng_g),
        parse_axiom("him |- (Sent/Noun)\\Sent", eng_g),
    )
    p = Prover(eng_g, SearchConfig(), axioms)
    proved = [
        "Alice , knows , Bob |- Sent",
        "he , knows , Alice |- Sent",
        "Alice , knows , him |- Sent",
    ]
    for text in proved:
        r = p.prove(parse_sequent(text, eng_g))
        assert r.proved, text
        assert check_proof(eng_g, r.proof, axioms).ok
    r = p.prove(parse_sequent("him , knows , Alice |- Sent", eng_g))
    assert r.status is SearchStatus.NOT_FOUND_WITHIN_BOUNDS


def test_axiom_leaf_requires_the_axiom_list(eng_g):
    axioms = (parse_axiom("he |- Sent/(Noun\\Sent)", eng_g),)
    r = Prover(eng_g, axioms=axioms).prove(parse_sequent("he , knows , Alice |- Sent", eng_g))

    def rules(t):
        yield t.rule
        for q in t.premises:
            yield from rules(q)

    assert RuleName.AXIOM in rules(r.proof)
    assert check_proof(eng_g, r.proof, axioms).ok
    res = check_proof(eng_g, r.proof)  # same tree, axiom list withheld
    assert not res.ok and "axiom" in res.reason.lower()


def test_answers_do_not_depend_on_shared_tables(load_bundled):
    """Provers share the grammar's derived tables; a warm grammar answers as a fresh one."""
    corpus = PROVABLE + UNPROVABLE

    def answer(g, text):
        s = parse_sequent(text, g)
        r = Prover(g).prove(s)
        return (proof_to_json(r.proof) if r.proved else None, soundness_check(g, s))

    fresh = {text: answer(load_bundled("bool.g"), text) for text in corpus}
    warm_g = load_bundled("bool.g")
    shuffled = corpus[:]
    random.Random(20).shuffle(shuffled)
    for text in shuffled + shuffled[::-1]:
        assert answer(warm_g, text) == fresh[text], text
