import json
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambek.prover
from lambek import earley
from lambek.earley import parse_tree, recognize
from lambek.grammar import (
    Grammar,
    Production,
    enumerate_words,
    length_lex_key,
    load_grammar,
    nonterminal,
    parse_grammar_file,
    terminal,
)
from lambek.prover import (
    Prover,
    RuleName,
    SearchStatus,
    Side,
    TacticError,
    TypingAxiom,
    capture,
    check_proof,
    dni,
    elim_over,
    elim_under,
    parse_axiom,
    proof_from_json,
    proof_to_json,
    render_proof,
)
from lambek.prover import _DETAIL_FIELDS, CheckResult, ProofTree, _replayed, _run_ends, fold_chain
from lambek.semantics import prove_with_prescreen, soundness_check
from lambek.types import UNIT, Atom, Over, Prod, Sequent, Under, iter_atoms, parse_sequent, parse_type, render_sequent, type_size
from test_types import mirror_type


@st.composite
def cyclic_grammars(draw):
    nts = ["S", "A", "B"]
    rhs = st.lists(st.sampled_from(nts + ["R", "x", "y"]), max_size=3).map(tuple)
    rules = set(draw(st.lists(st.tuples(st.sampled_from(nts), rhs), max_size=6)))
    # at least one ε-rule and one unit cycle
    x, y, e = draw(st.sampled_from(nts)), draw(st.sampled_from(nts)), draw(st.sampled_from(nts))
    rules |= {(x, (y,)), (y, (x,)), (e, ())}
    # and a right recursion R, whose completions take Leo's transitive items
    rules |= {("S", ("R",)), ("R", ("x", "R")), ("R", draw(st.sampled_from([("y",), ()])))}
    sym = {n: nonterminal(n) for n in nts + ["R"]} | {t: terminal(t) for t in ("x", "y")}
    prods = tuple(Production(sym[lhs], tuple(sym[s] for s in body)) for lhs, body in sorted(rules))
    return Grammar(frozenset({sym["x"], sym["y"]}), frozenset(sym[n] for n in nts + ["R"]), prods, sym["S"])


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
    return Prover(bool_g)


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


@pytest.mark.parametrize("units", [41, 300])
def test_proof_deeper_than_the_old_depth_bound(bool_g, prover, units):
    """One EPS_L step per unit: the search once gave up at depth 40."""
    s = parse_sequent(" , ".join(["(1)"] * units) + " , b |- V", bool_g)
    r = prover.prove(s)
    assert r.proved and r.proof.conclusion == s
    assert check_proof(bool_g, r.proof).ok


def test_search_is_deterministic(bool_g):
    s = parse_sequent("a , = , b , OR , 1 , = , 1 |- E", bool_g)
    first = Prover(bool_g).prove(s)
    second = Prover(bool_g).prove(s)
    assert render_proof(first.proof) == render_proof(second.proof)


def test_render_proof_text(bool_g, prover):
    r = prover.prove(parse_sequent("a , = , b |- T", bool_g))
    lines = render_proof(r.proof).splitlines()
    assert lines[0] == "a , = , b |- T   [CUT]"
    # premises indent two spaces per level and carry their rule tag
    assert all("   [" in ln for ln in lines)
    assert any(ln.startswith("  ") for ln in lines[1:])


def test_render_proof_renders_each_distinct_type_once(load_bundled, spy):
    """A flat proof repeats its antecedent's types on every line; the text
    renders each distinct type once and equals the line-by-line rendering."""
    g = load_bundled("bool.g")
    s = parse_sequent(" , AND , ".join(['"1" , = , a'] * 10) + " |- E", g)
    p = Prover(g).prove(s).proof
    sequents = [q for _, _, q, _ in _replayed(p)]
    distinct = {t for q in sequents for t in (*q.antecedent, q.succedent)}
    rendered = spy(lambek.prover, "render_type")
    text = render_proof(p)
    assert len(rendered) == len(distinct) < sum(len(q.antecedent) + 1 for q in sequents)
    assert text == "\n".join("  " * len(path) + f"{render_sequent(q)}   [{node.rule.value}]" for node, path, q, _ in _replayed(p))


def test_proof_json_round_trip(bool_g, prover):
    r = prover.prove(parse_sequent("b , OR , 1 , = , 1 |- (T/V)\\E", bool_g))
    obj = proof_to_json(r.proof)
    assert proof_from_json(obj, bool_g) == r.proof


def test_flagship_proof_skips_nullable_tail(bool_g, prover):
    """The E-derivation folds F ::= OR C F with its trailing F skipped: the
    fold cuts a proof of  |- F  into the production's GRAM axiom."""
    r = prover.prove(parse_sequent("a , = , b , OR , 1 , = , 1 |- E", bool_g))
    assert check_proof(bool_g, r.proof).ok
    f = Atom(bool_g.symbol("F"))
    replayed = {path: s for _, path, s, _ in _replayed(r.proof)}
    assert any(
        t.rule is RuleName.CUT and t.detail[2] == f and replayed[path + (0,)] == Sequent((), f)
        for t, path in _preorder(r.proof)
    )


def test_empty_folds():
    g = parse_grammar_file(PINNED_GRAMMARS["empty_folds"])
    r = Prover(g).prove(parse_sequent("|- A", g))
    assert r.proved and check_proof(g, r.proof).ok
    assert Prover(g).prove(parse_sequent("|- A*A", g)).proved
    assert Prover(g).prove(parse_sequent("x |- S", g)).proved


def _nodes(t):
    """(conclusion, rule, detail) of every node in preorder, without recursion."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node.conclusion, node.rule, node.detail
        stack.extend(reversed(node.premises))


def test_long_flat_proof(bool_g):
    """A flat proof is as deep as its antecedent is long; no proof walker recurses."""
    s = parse_sequent(" , AND , ".join(['"1" , = , "1"'] * 150) + " |- E", bool_g)
    assert len(s.antecedent) == 599
    r = Prover(bool_g).prove(s)
    assert r.proved and r.proof.conclusion == s
    assert check_proof(bool_g, r.proof).ok
    nodes = list(_nodes(r.proof))
    assert list(_nodes(proof_from_json(proof_to_json(r.proof), bool_g))) == nodes
    assert len(render_proof(r.proof).splitlines()) == len(nodes)


def _flat_chain(g, tokens):
    """The flat sequent  1 = a AND ... AND 1 = a ⊢ E  of the given length."""
    assert tokens % 4 == 3
    return parse_sequent(" , AND , ".join(['"1" , = , a'] * ((tokens + 1) // 4)) + " |- E", g)


def test_fold_chain_builds_no_sequent(bool_g, spy):
    """The chain's cuts carry their formulas, so only the root's conclusion,
    which the caller passes, is a sequent."""
    s = _flat_chain(bool_g, 799)
    outcome = parse_tree(bool_g, s.succedent.symbol, tuple(t.symbol for t in s.antecedent))
    built = spy(Sequent, "__init__")
    proof = fold_chain(bool_g, s, outcome.tree)
    assert built == []
    assert proof.conclusion is s and check_proof(bool_g, proof).ok


def test_check_hashes_no_atom_of_a_replayed_premise(bool_g, spy):
    """A sequent is hashed on first use, and the checker looks no replayed
    premise up: checking the 399-token chain hashed 101 308 atoms when every
    sequent hashed its antecedent as it was built."""
    s = _flat_chain(bool_g, 399)
    proof = Prover(bool_g).prove(s).proof
    hashed = spy(Atom, "__hash__")
    assert check_proof(bool_g, proof).ok
    assert len(hashed) <= len(s.antecedent)


def test_proof_json_grows_linearly(bool_g):
    """Only the root's conclusion is written, so a flat proof's JSON is linear in its length."""
    size = {}
    for tokens in (99, 199):
        proof = Prover(bool_g).prove(_flat_chain(bool_g, tokens)).proof
        size[tokens] = len(json.dumps(proof_to_json(proof), separators=(",", ":"), ensure_ascii=False))
    assert size[199] <= 2.3 * size[99], size


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


def _with(t, **changes):
    """The ProofTree t with the given fields changed."""
    fields = {"rule": t.rule, "premises": t.premises, "detail": t.detail, "conclusion": t.conclusion}
    return ProofTree(**{**fields, **changes})


def _replace_node(t, target, new):
    if t is target:
        return new
    return _with(t, premises=tuple(_replace_node(p, target, new) for p in t.premises))


def test_check_rejects_wrong_conclusion(bool_g, prover):
    r = prover.prove(parse_sequent("b |- V", bool_g))
    bad = _with(r.proof, conclusion=parse_sequent("b |- T", bool_g))
    res = check_proof(bool_g, bad)
    assert not res.ok and res.path == ()


def test_check_rejects_wrong_production_index(bool_g, prover):
    r = prover.prove(parse_sequent("b |- V", bool_g))
    gram = _find(r.proof, RuleName.GRAM)
    other = (gram.detail[0] + 1) % len(bool_g.productions)
    bad = _replace_node(r.proof, gram, _with(gram, detail=(other,)))
    res = check_proof(bool_g, bad)
    assert not res.ok and "production" in res.reason


def test_check_rejects_dropped_premise(bool_g, prover):
    r = prover.prove(parse_sequent("a , = , b |- T", bool_g))
    node = _find(r.proof, RuleName.CUT)
    bad = _replace_node(r.proof, node, _with(node, premises=()))
    res = check_proof(bool_g, bad)
    assert not res.ok and "premises" in res.reason


def test_check_rejects_non_nullable_skip(bool_g):
    six = next(
        i for i, p in enumerate(bool_g.productions)
        if p.lhs.name == "T" and len(p.rhs) == 3
    )
    t = Atom(bool_g.symbol("T"))
    # pretend T, which is not nullable, is skipped: an empty segment cut
    # against a GRAM leaf that claims |- T by T ::= V = V
    premises = (ProofTree(RuleName.GRAM, (), (six,)), ProofTree(RuleName.AX))
    bad = ProofTree(RuleName.CUT, premises, (0, 0, t), Sequent((), t))
    assert [s for _, _, s, _ in _replayed(bad)] == [Sequent((), t), Sequent((), t), Sequent((t,), t)]
    res = check_proof(bool_g, bad)
    assert not res.ok and res.path == (0,) and "GRAM" in res.reason and "production" in res.reason


def test_check_rejects_cut_segment_mismatch(bool_g, prover):
    left = prover.prove(parse_sequent("a , = |- T/V", bool_g)).proof
    right = prover.prove(parse_sequent("b |- V", bool_g)).proof
    good = elim_over(left, right)
    assert check_proof(bool_g, good).ok
    bad = _with(good, detail=(1, 2, good.detail[2]))
    res = check_proof(bool_g, bad)
    # the segment replays into the premises' proofs, and a leaf below no longer fits
    assert not res.ok and res.path[:1] == (0,) and "GRAM" in res.reason


def test_check_reports_failure_path(bool_g, prover):
    r = prover.prove(parse_sequent("a , = , b |- T", bool_g))
    node = _find(r.proof, RuleName.GRAM)
    bad_leaf = _with(node, rule=RuleName.AX, detail=None)
    res = check_proof(bool_g, _replace_node(r.proof, node, bad_leaf))
    assert not res.ok
    assert res.path  # deep failure, not the root
    assert "AX" in res.reason


def _preorder(t):
    stack = [(t, ())]
    while stack:
        node, path = stack.pop()
        yield node, path
        stack.extend((node.premises[k], path + (k,)) for k in reversed(range(len(node.premises))))


def _replace_at(t, path, new):
    if not path:
        return new
    k = path[0]
    sub = _replace_at(t.premises[k], path[1:], new)
    return _with(t, premises=t.premises[:k] + (sub,) + t.premises[k + 1 :])


def _proof_holding(g, prover, rule):
    """A proof from the search or a tactic that uses rule."""
    def proof(text):
        return prover.prove(parse_sequent(text, g)).proof

    if rule is RuleName.UNDER_L:
        return elim_under(proof("a , = |- T/V"), proof("b , OR , 1 , = , 1 |- (T/V)\\E"))
    if rule is RuleName.OVER_L:
        return elim_over(proof("a , = |- T/V"), proof("b |- V"))
    text = {
        RuleName.GRAM: "b |- V",
        RuleName.EPS_L: "(1) , b |- V",
        RuleName.PROD_L: "(a*=) , b |- T",
        RuleName.UNDER_R: "b , OR , 1 , = , 1 |- (T/V)\\E",
        RuleName.OVER_R: "a , = |- T/V",
        RuleName.PROD_R: "b , b |- V*V",
        RuleName.CUT: "a , = , b |- T",
    }[rule]
    return proof(text)


def _shifted(node, g):
    """node with one detail field changed, in each way: an integer by one
    either way, a cut formula to another atom; an R-rule, which has no
    detail, becomes its mirror."""
    mirror = {RuleName.UNDER_R: RuleName.OVER_R, RuleName.OVER_R: RuleName.UNDER_R}
    if node.rule in mirror:
        yield _with(node, rule=mirror[node.rule])
        return
    for k, v in enumerate(node.detail):
        if isinstance(v, int):
            others = (v - 1, v + 1)
        else:
            others = (Atom(g.symbol("T" if v != Atom(g.symbol("T")) else "V")),)
        for w in others:
            yield _with(node, detail=node.detail[:k] + (w,) + node.detail[k + 1 :])


@pytest.mark.parametrize(
    "rule",
    [
        RuleName.EPS_L,
        RuleName.PROD_L,
        RuleName.UNDER_R,
        RuleName.OVER_R,
        RuleName.PROD_R,
        RuleName.UNDER_L,
        RuleName.OVER_L,
        RuleName.CUT,
    ],
)
def test_check_replays_every_premise(bool_g, prover, rule):
    """Premises are replayed from their parent, so a node whose detail no
    longer fits its premises' proofs is caught at it or below it."""
    proof = _proof_holding(bool_g, prover, rule)
    assert check_proof(bool_g, proof).ok
    node, path = next((n, p) for n, p in _preorder(proof) if n.rule is rule)
    shifted = list(_shifted(node, bool_g))
    assert shifted
    for bad in shifted:
        res = check_proof(bool_g, _replace_at(proof, path, bad))
        assert not res.ok and res.path[: len(path)] == path, (bad.rule, bad.detail, res)


def test_check_rejects_a_changed_cut_formula_at_the_leaf_below(bool_g, prover):
    """The cut formula is the cut's alone: the GRAM leaf that proves it no longer cites its sequent."""
    proof = prover.prove(parse_sequent("a , = , b |- T", bool_g)).proof
    assert proof.rule is RuleName.CUT and proof.detail[2] == Atom(bool_g.symbol("V"))
    bad = _with(proof, detail=proof.detail[:2] + (Atom(bool_g.symbol("T")),))
    res = check_proof(bool_g, bad)
    assert not res.ok and res.path == (0,) and res.reason == "GRAM conclusion does not match the cited production"


def test_check_rejects_a_conclusion_below_the_root(bool_g, prover):
    """A proof stores its root's conclusion only."""
    proof = prover.prove(parse_sequent("a , = , b |- T", bool_g)).proof
    stored = {path: s for _, path, s, _ in _replayed(proof)}
    for path in ((0,), (1,), (1, 1)):
        node = next(n for n, p in _preorder(proof) if p == path)
        bad = _replace_at(proof, path, _with(node, conclusion=stored[path]))
        res = check_proof(bool_g, bad)
        assert not res.ok and res.path == path and "root" in res.reason
    res = check_proof(bool_g, _with(proof, conclusion=None))
    assert not res.ok and res.path == () and "conclusion" in res.reason


def test_check_rejects_a_premise_that_is_not_a_proof(bool_g):
    """A hand-built tree whose premise is not a ProofTree is a rejection at
    that premise, not a crash, and render_proof refuses it."""
    s = parse_sequent("b |- V", bool_g)
    bad = ProofTree(RuleName.CUT, ("x", "y"), (0, 1, Atom(bool_g.symbol("V"))), s)
    assert check_proof(bool_g, bad) == CheckResult(False, (0,), "the node is a str, not a ProofTree")
    with pytest.raises(ValueError, match=r"\(0,\).*not a ProofTree"):
        render_proof(bad)


def test_check_rejects_a_root_that_is_not_a_proof(bool_g):
    assert check_proof(bool_g, "x") == CheckResult(False, (), "the node is a str, not a ProofTree")
    with pytest.raises(ValueError, match="not a ProofTree"):
        render_proof("x")


def test_proof_from_json_rejects_a_conclusion_below_the_root(bool_g, prover):
    obj = proof_to_json(prover.prove(parse_sequent("a , = , b |- T", bool_g)).proof)
    assert [set(p) for p in obj["premises"]] == [{"rule", "detail", "premises"}] * 2
    obj["premises"][1]["premises"][0]["conclusion"] = {"antecedent": ["b"], "succedent": "V"}
    with pytest.raises(ValueError, match="conclusion"):
        proof_from_json(obj, bool_g)


def test_check_rejects_a_detail_of_the_wrong_class(bool_g, prover):
    proof = prover.prove(parse_sequent("b |- V", bool_g)).proof
    assert proof.rule is RuleName.GRAM
    for detail in ((), proof.detail + (0,), [proof.detail[0]]):
        res = check_proof(bool_g, _with(proof, detail=detail))
        assert not res.ok and res.path == () and res.reason == "GRAM needs a detail of 1 fields (production)"


@pytest.mark.parametrize(
    "detail",
    # the detail of each rule that takes one, then an empty one
    [tuple(Atom(terminal("a")) if f == "formula" else 0 for f in fields) for fields in _DETAIL_FIELDS.values()] + [()],
)
def test_check_rejects_a_detail_on_ax(bool_g, prover, detail):
    proof = _proof_holding(bool_g, prover, RuleName.OVER_L)  # its main premise is an AX leaf
    node, path = next((n, p) for n, p in _preorder(proof) if n.rule is RuleName.AX)
    res = check_proof(bool_g, _replace_at(proof, path, _with(node, detail=detail)))
    assert not res.ok and res.path == path and res.reason == "AX takes no detail"


@pytest.mark.parametrize(
    "rule",
    [
        RuleName.GRAM,
        RuleName.AXIOM,
        RuleName.EPS_L,
        RuleName.PROD_L,
        RuleName.PROD_R,
        RuleName.UNDER_L,
        RuleName.OVER_L,
        RuleName.CUT,
    ],
)
def test_check_rejects_a_detail_that_is_not_integers(bool_g, prover, rule):
    """A detail field that is not an integer, or a formula that is not a
    type, is a rejection at its node, not a crash."""
    if rule is RuleName.AXIOM:
        g, axioms = ENG_G, ENG_AXIOMS
        proof = Prover(g, axioms).prove(parse_sequent("he , knows , Alice |- Sent", g)).proof
    else:
        g, axioms = bool_g, ()
        proof = _proof_holding(g, prover, rule)
    assert check_proof(g, proof, axioms).ok
    node, path = next((n, p) for n, p in _preorder(proof) if n.rule is rule)
    names = _DETAIL_FIELDS[rule]
    assert len(node.detail) == len(names)
    for k, name in enumerate(names):
        kind = "a type" if name == "formula" else "an integer"
        values = ("V", 0, None, Sequent((), UNIT)) if name == "formula" else ("0", 1.0, True, None, Atom(terminal("a")))
        for value in values:
            bad = _with(node, detail=node.detail[:k] + (value,) + node.detail[k + 1 :])
            res = check_proof(g, _replace_at(proof, path, bad), axioms)
            assert not res.ok and res.path == path, (name, value, res)
            assert res.reason == f"{rule.value} needs {kind} as {name!r}"


def test_checker_reads_no_derived_table(load_bundled):
    """Replaying a proof reads the grammar's productions alone, never a table derived from them."""
    g = load_bundled("bool.g")
    # the proof skips the nullable F (see test_flagship_proof_skips_nullable_tail)
    s = parse_sequent("a , = , b , OR , 1 , = , 1 |- E", g)
    obj = proof_to_json(Prover(load_bundled("bool.g")).prove(s).proof)
    proof = proof_from_json(obj, g)
    before = dict(g._memo)
    assert check_proof(g, proof).ok
    assert g._memo == before


@pytest.mark.parametrize("kept", [0, 1])
def test_check_rejects_a_cut_without_two_premises(bool_g, prover, kept):
    """A cut has exactly two premises: the segment's proof and the proof it is cut into."""
    proof = _proof_holding(bool_g, prover, RuleName.CUT)
    assert proof.rule is RuleName.CUT
    res = check_proof(bool_g, _with(proof, premises=proof.premises[:kept]))
    assert not res.ok and res.path == () and "CUT" in res.reason and "premises" in res.reason


@pytest.mark.parametrize(
    "detail",
    [{}, {"production": "0"}, {"production": 7.0}, {"production": True}],
    ids=["empty", "string", "float", "bool"],
)
def test_proof_from_json_rejects_a_malformed_detail(bool_g, prover, detail):
    obj = proof_to_json(prover.prove(parse_sequent("b |- V", bool_g)).proof)
    assert obj["rule"] == "GRAM"
    obj["detail"] = detail
    with pytest.raises(ValueError, match="GRAM.*'production'"):
        proof_from_json(obj, bool_g)


@pytest.mark.parametrize(
    "detail",
    [{"start": 0, "stop": 1}, {"start": 0, "stop": 1, "formula": 2}, {"start": 0, "stop": 1, "formula": "V \\"}],
    ids=["missing", "number", "unparsable"],
)
def test_proof_from_json_rejects_a_malformed_cut_formula(bool_g, prover, detail):
    obj = proof_to_json(prover.prove(parse_sequent("a , = , b |- T", bool_g)).proof)
    assert obj["rule"] == "CUT" and obj["detail"] == {"start": 0, "stop": 1, "formula": "V"}
    obj["detail"] = detail
    with pytest.raises(ValueError):
        proof_from_json(obj, bool_g)


@pytest.mark.parametrize(
    "damage, field",
    [
        (lambda obj: obj.pop("premises"), "premises"),
        (lambda obj: obj.update(detail=[0]), "detail"),
        (lambda obj: obj["conclusion"].update(antecedent="b"), "antecedent"),
    ],
    ids=["no_premises", "list_detail", "string_antecedent"],
)
def test_proof_from_json_rejects_a_malformed_node(bool_g, prover, damage, field):
    """A node of the wrong shape is a ValueError, not a crash or a misreading:
    a string antecedent was once read one character per type."""
    obj = proof_to_json(prover.prove(parse_sequent("b |- V", bool_g)).proof)
    damage(obj)
    with pytest.raises(ValueError, match=field):
        proof_from_json(obj, bool_g)


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


def assert_capture_shape(t):
    """An UNDER_R or OVER_R root over one two-premise L-step."""
    step_rule = {RuleName.UNDER_R: RuleName.OVER_L, RuleName.OVER_R: RuleName.UNDER_L}[t.rule]
    (step,) = t.premises
    assert step.rule is step_rule and len(step.premises) == 2


@pytest.mark.parametrize(
    "side,cont,expect",
    [
        (Side.LEFT, "T , OR , 1 , = , 1 |- E", "b , OR , 1 , = , 1 |- (T/V)\\E"),
        (Side.RIGHT, "1 , = , 1 , OR , T |- E", "1 , = , 1 , OR , b |- E/(V\\T)"),
    ],
)
def test_capture(bool_g, prover, side, cont, expect):
    """Φ ⊢ φ and a continuation compose to the capture; the search finds the same proof."""
    base = prover.prove(parse_sequent("b |- V", bool_g)).proof
    k = prover.prove(parse_sequent(cont, bool_g)).proof
    t = capture(base, k, side)
    assert t.conclusion == parse_sequent(expect, bool_g)
    assert check_proof(bool_g, t).ok
    assert_capture_shape(t)
    assert t.premises[0].premises == tuple(_with(p, conclusion=None) for p in (base, k))
    assert Prover(bool_g).prove(t.conclusion).proof == t


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_capture_needs_a_continuation_with_an_antecedent(bool_g, prover, side):
    base = prover.prove(parse_sequent("b |- V", bool_g)).proof
    empty = prover.prove(parse_sequent("|- F", bool_g)).proof
    with pytest.raises(TacticError, match="empty"):
        capture(base, empty, side)


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_dni_is_capture_with_the_identity_continuation(bool_g, prover, side):
    for text in ("b |- V", "a , = , b |- T", "|- F"):
        base = prover.prove(parse_sequent(text, bool_g)).proof
        for name in ("T", "E"):
            psi = Atom(bool_g.symbol(name))
            t = dni(base, psi, side)
            assert t == capture(base, prover.prove(Sequent((psi,), psi)).proof, side)
            assert_capture_shape(t)


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
    p = Prover(eng_g, axioms)
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


@pytest.mark.parametrize(
    "texts, token",
    [
        (["he |- he*he"], "he"),
        (["he |- Sent/he"], "he"),
        (["he |- him\\Sent", "him |- Noun"], "him"),
    ],
)
def test_axiom_type_may_not_name_an_axiom_token(eng_g, texts, token):
    """Such an axiom would let lexicon cuts run forever."""
    axioms = tuple(parse_axiom(text, eng_g) for text in texts)
    with pytest.raises(ValueError, match=f"names the axiom token '{token}'"):
        Prover(eng_g, axioms)


def test_a_bad_axiom_raises_on_every_prover(eng_g):
    """The axioms are checked where their count weights are computed, once per
    axiom set; a computation that raises is not kept, so neither is the check."""
    he, sent = eng_g.symbol("he"), Atom(eng_g.symbol("Sent"))
    for axiom, message in (
        (TypingAxiom(terminal("zz"), sent), "axiom token 'zz' is not a declared terminal"),
        (TypingAxiom(eng_g.symbol("Sent"), sent), "axiom token 'Sent' is not a declared terminal"),
        (parse_axiom("he |- he*he", eng_g), "names the axiom token 'he'"),
        (TypingAxiom(he, Over(sent, Atom(nonterminal("Z")))), "atom 'Z' is not declared"),
    ):
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                Prover(eng_g, (axiom,))


def test_axiom_type_may_name_a_token_without_an_axiom(eng_g):
    axioms = (parse_axiom("he |- him\\Sent", eng_g),)
    r = Prover(eng_g, axioms).prove(parse_sequent("him , he |- Sent", eng_g))
    assert r.proved and check_proof(eng_g, r.proof, axioms).ok
    Prover(eng_g, ENG_AXIOMS)  # the pronoun axioms name no token


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


def test_a_flat_sequent_is_parsed_once_per_grammar(load_bundled, spy):
    """The grammar keeps each flat decision, so a second cold Prover builds
    no chart and answers with an equal proof."""
    g = load_bundled("bool.g")
    charts = spy(earley.Chart, "__init__")
    # OVER_R leaves the flat  a , = , V |- T; the second's OVER_L reads its
    # argument's splits off a chart over  a , = , b  and parses  a , = , b |- T
    for text in ("a , = |- T/V", "C/T , a , = , b |- C"):
        s = parse_sequent(text, g)
        first = Prover(g).prove(s)
        assert first.proved and charts, text
        charts.clear()
        again = Prover(g).prove(s)
        assert charts == [], text
        assert again.proof == first.proof and proof_to_json(again.proof) == proof_to_json(first.proof)


# --- pinned verdicts ------------------------------------------------------

PINNED_GRAMMARS = {
    "bool": None,  # the bundled grammar
    "unit_cycle": "start S\nS ::= A x | S S | B ;\nA ::= B B | S ;\nB ::= y | ;\n",
    "empty_folds": "start S\nS ::= A x ;\nA ::= B B ;\nB ::= ;\n",
}

# "<status> <sequent>" per line, as answered by the depth-first fold search
# that Earley-built fold chains replaced (max_depth 40, two insertions per
# branch): P = Proved, N = NotFoundWithinBounds.
PINNED = {
    "bool": r"""
P "1" , = , "1" , AND , "1" , = , "1" |- C
P "1" , = , "1" , AND , "1" , = , b |- E
P "1" , = , "1" , AND , a , = , a |- C
P "1" , = , "1" , OR , "1" , = , a |- E
N "1" , = , "1" , OR , b , = , "1" |- C
P "1" , = , a , AND , a , = , a |- E
N "1" , = , a , AND , a , = |- V\E
P "1" , = , a , AND , b , = , "1" |- C
P "1" , = , a , AND , b , = , "1" |- E
P "1" , = , a , OR , "1" , = , a |- E
P "1" , = , a , OR , "1" , = , b |- E
N "1" , = , a , OR , "1" , = , b |- V
P "1" , = , a , OR , a , = , a |- E
N "1" , = , a , OR , b , = , "1" |- F
P "1" , = , b , AND , "1" , = , a |- E
N "1" , = , b , AND , "1" , = , a |- T
N "1" , = , b , AND , "1" , = , a |- V
P "1" , = , b , AND , a , = , b |- C
P "1" , = , b , OR , "1" , = , "1" |- E
P "1" , = , b , OR , "1" , = , b |- E
P "1" , = , b , OR , a , = , "1" |- E
N "1" , = , b , OR , a , = , "1" |- F
N "1" , = , b , OR , a , = , b |- V
P "1" , = , b |- E
P "1" , = , b |- T
N "1" , = |- C*V
N "1" |- D
N "1" |- T\C
P "1" |- V
N (C*T) , OR , b |- C
N (C/E) , OR , F , AND |- V*E
N (C/T) , "1" , T |- C\C
N (C/T) |- E/V
N (C\E) |- V\V
N (C\T) , C |- C\C
N (C\T) |- E\T
N (C\T) |- T
N (C\T) |- V*E
N (E*T) , "1" |- C*V
N (T*E) |- C*C
P (T*T) |- C*E
N (T*T) |- V/V
N (T/E) , AND , b , OR |- E/C
N (T/V) |- V*V
N (T\E) |- E
N (V*T) , C |- E*E
N (V/V) |- V\C
P (V\C) |- V\C
N = , F |- V*V
N AND , "1" , "1" , a |- T
N AND , AND |- F
N AND , F , = , V |- D
P AND , a , = , a |- D
N AND |- E\V
N C , AND , E |- T*C
N C , C , C , OR |- F
N C , F , (T*T) |- V\E
P C , b |- E*V
N D , C , AND |- V/T
N D , C , V |- T\V
N D , V |- F
N D , a , E , (E*C) |- E*C
N D , a , F |- F
P D |- D
N E , "1" , "1" , (E/C) |- C*T
N F , F |- C*V
P F |- F
P OR , a , = , "1" |- F
N OR , b , = , "1" |- T
P OR , b , = , b |- F
N OR |- C
N T , C , OR , E |- D
N T , F , V , = |- C
N T , OR , a , "1" |- F
N T , b , a |- C
P T |- C
N T |- C\T
N V , "1" , (T/V) |- T/C
N V , (T\V) , = |- E*V
P V , = , a |- C
N V , F |- V*E
N V , b , C , C |- D
N V |- C*C
N V |- E\E
P V |- V
N V |- V\T
P a , = , "1" , AND , "1" , = , a |- E
P a , = , "1" , OR , a , = , "1" |- E
N a , = , "1" , OR , a , = , a |- D
P a , = , "1" , OR , b , = , a |- E
N a , = , C |- T
P a , = , a , AND , "1" , = , "1" |- E
N a , = , a , AND , "1" , = , a |- D
P a , = , a , AND , "1" , = , a |- E
P a , = , a , AND , b , = , "1" |- C
P a , = , a , AND , b , = , "1" |- E
P a , = , a , AND , b , = , b |- E
N a , = , a , AND , b , = , b |- V
N a , = , a |- D
P a , = , a |- E
P a , = , a |- T
P a , = , b , AND , "1" , = , b |- C
P a , = , b , AND , "1" , = , b |- E
P a , = , b , AND , a , = , "1" |- C
P a , = , b , AND , a , = , "1" |- E
N a , T , "1" |- C
N a , a , "1" |- V\V
N a |- C*T
N a |- C\T
N a |- D
P a |- V
P b , = , "1" , AND , "1" , = , a |- E
P b , = , "1" , AND , "1" , = , b |- C
N b , = , "1" , AND , "1" , = , b |- V
P b , = , "1" , OR , "1" , = , b |- E
P b , = , "1" , OR , b , = , "1" |- E
P b , = , a , AND , "1" , = , b |- C
P b , = , a , AND , a , = , "1" |- C
P b , = , a , AND , a , = , b |- E
P b , = , a , OR , "1" , = , a |- E
P b , = , b , AND , b , = , a |- E
N b , = , b , AND , b , = , a |- T
P b , = , b , AND , b , = , b |- E
P b , = , b , OR , a , = , a |- E
P b , = , b , OR , a , = , b |- E
N b , = , b , OR , a , = , b |- T
P b |- V
P |- C/C
P |- D
P |- E/E
P |- F
P |- V\V
""",
    "unit_cycle": r"""
P (A/A) , x |- S/B
N (A\A) , y |- S
P (A\B) |- A*S
N (B) , A |- B\A
P (B) |- A*B
P (B*B) |- B*A
P (B/S) , y |- B/B
P (B\A) |- A*A
N (B\A) |- B/B
P (B\B) |- A
P (B\S) |- A*A
N (S/B) , y |- B\B
N (S\A) , y , A |- A/A
N (S\A) |- S
N (S\B) , S , S , y |- A/A
N A , (A*S) , S |- A*S
N A , (S/A) , A |- B/A
N A , A , S |- S
N A , A , x |- B/S
N A , A , y |- A
N A , B , x |- B
N A , B |- A\S
N A , S , S |- B
N A , S , x |- S
N A , S |- B
N A , x , A |- B
P A , x , B |- A
P A , x , x |- A
P A , x , y , (B\S) |- A*S
P A , x |- S/S
N A , y |- B\A
N A |- A\A
N A |- S
N B , A , A |- B
P B , A , x |- A
N B , A |- S/S
N B , B , B |- B
P B , B , S |- S
P B , B , x |- S
P B , B , y |- S
P B , B |- A
P B , B |- S
N B , S , A |- A
N B , S , B |- B
P B , S , y |- A
P B , S |- S
P B , x , (S) |- S
P B , x , S |- S
N B , x , x , (S*A) |- S
P B , x , x |- S
N B , x , y |- B
P B , x |- A
P B , x |- A/S
N B , x |- A\B
P B , x |- S
P B , y , x |- A
P B , y , y |- A
P B , y |- A/B
P B , y |- S*A
P B |- A
P B |- B\S
P B |- S/S
N S , (A/A) , x , y |- S\B
P S , (B*S) , B |- A/B
P S , (S/A) , y |- B*S
N S , A , x |- B
N S , A |- B
N S , B , A |- S
P S , B , B |- S
P S , B , x |- A
P S , B , y |- S
P S , B |- A
P S , S , (B\S) |- A/B
P S , S , A |- A*A
P S , S , B |- A
P S , S |- S
N S , x , A |- A
P S , x , B |- A
P S , x , y |- S
P S , x |- S
N S , y , A |- B
P S , y , B |- S
P S , y , B |- S/S
P S , y , S |- A
N S , y , x |- B
P S , y |- A
N S |- A\S
P S |- B\A
P S |- B\S
P S |- S
N S |- S/A
P S |- S/B
P S |- S\A
N x , (A*A) , A |- S/S
N x , (B\A) |- S/B
N x , (B\B) , A |- S\A
P x , (S/A) , y |- B*S
N x , (S/B) , y |- A\B
N x , A , B |- B
N x , A , S |- A\B
N x , A , S |- S
P x , A , x |- A
P x , B , B |- A
N x , B , S |- B
P x , B , x |- A
N x , B , y , (A/A) |- B/S
P x , B |- S
P x , S , S |- S
P x , S , y |- A
P x , S |- A
N x , x , A |- B
P x , x , S , (B\B) |- A/B
N x , x , x |- B
P x , x , y |- A
P x , x |- A
P x , y , B |- A\A
P x , y , B |- S
P x , y , x |- A
P x , y , y |- A
P x , y |- S
P x , y |- S/S
P x |- A*S
P x |- A/S
N x |- B
P x |- S\S
N y , (A*B) |- S
N y , (A*S) |- B\S
P y , (A\B) |- S/S
N y , A , A , (A/A) |- S\S
P y , A , x |- S
N y , A , y |- S
P y , B , B |- A
P y , B , S |- S
N y , B , x |- B
P y , B , y |- B*A
N y , B |- B
P y , S , B |- A
P y , S , S |- A
P y , S , x |- S
P y , S |- A
N y , x , B |- B
N y , x , S |- B
P y , x , x |- A
N y , x , x |- A\S
P y , x , y |- S
P y , x |- A
P y , y , (B*S) |- A/B
P y , y , B |- S
P y , y , B |- S/B
N y , y |- B
P y |- S
P y |- S*S
P |- 1
P |- A
P |- A*A
P |- B*S
P |- B\S
P |- S
P |- S*A
P |- S*B
P |- S/B
""",
    "empty_folds": r"""
N (A) , S |- S/A
P (A\S) |- B\S
N (B/S) , B , S |- S\S
P (B\A) |- A*B
P (S) |- S*A
P (S/A) , B |- S
P (S/B) |- S*A
N A , (A*A) |- B*A
N A , A , x |- A
N A , A |- B
N A , B |- A
N A , S , x |- A
P A , S |- A*S
N A , x , S |- B\S
P A , x |- S
N B , B , x |- A
P B , B |- A
N B , S , x |- A
N B , x , B |- B
P B , x |- S
P B |- A
P B |- B*B
N B |- B/S
N S , (A*S) |- A/A
N S , (B\S) , B |- B\B
N S , A , B |- S
P S , B , x |- S*S
N S , x |- B
N S |- A\B
P S |- S
P x , (S\A) , x |- S*B
N x , S , A |- A
N x , x , A |- S
P x |- B\S
P x |- S
N x |- S/B
P |- A
P |- A*B
P |- A\A
""",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_verdicts(bool_g, name):
    """No Proved verdict is lost; a new one comes with a checked proof."""
    g = bool_g if name == "bool" else parse_grammar_file(PINNED_GRAMMARS[name])
    pr = Prover(g)
    for line in PINNED[name].strip().splitlines():
        status, text = line.split(" ", 1)
        s = parse_sequent(text, g)
        r = pr.prove(s)
        assert r.proved or status == "N", text
        if r.proved:
            assert r.proof.conclusion == s and check_proof(g, r.proof).ok, text


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_proofs_store_one_conclusion_and_round_trip(bool_g, name):
    g = bool_g if name == "bool" else parse_grammar_file(PINNED_GRAMMARS[name])
    pr = Prover(g)
    for line in PINNED[name].strip().splitlines():
        s = parse_sequent(line.split(" ", 1)[1], g)
        proof = pr.prove(s).proof
        if proof is not None:
            assert [p for n, p in _preorder(proof) if n.conclusion is not None] == [()], line
            assert proof_from_json(proof_to_json(proof), g) == proof, line


# --- L-rules over every split ----------------------------------------------


@st.composite
def mixed_sequents(draw, g):
    """A sequent with runs of atoms beside functors: mostly a nonterminal atom as the argument."""
    atoms = [Atom(s) for s in sorted(g.terminals | g.nonterminals, key=lambda s: s.name)]
    nts = [Atom(s) for s in sorted(g.nonterminals, key=lambda s: s.name)]
    atom, nt = st.sampled_from(atoms), st.sampled_from(nts)
    functor = st.one_of(
        st.builds(Under, nt, atom),
        st.builds(Over, atom, nt),
        st.builds(Under, atom, atom),
        st.builds(Over, atom, st.builds(Over, atom, nt)),
    )
    ante = draw(st.lists(st.one_of(atom, atom, functor), max_size=6))
    succ = draw(st.one_of(atom, st.builds(Under, nt, nt), st.builds(Over, nt, nt), st.builds(Prod, nt, nt)))
    return Sequent(tuple(ante), succ)


@st.composite
def l_rule_sequents(draw, g, depth=2):
    """A sequent built backward through L-rules, mostly provable: in a word of the
    succedent, a segment that some Y derives becomes  u , X\\Y  or  Y/X , u,  where u
    is built the same way for X; then one item may be swapped for any atom."""
    nts = sorted(g.nonterminals, key=lambda s: s.name)
    atoms = [Atom(s) for s in sorted(g.terminals | g.nonterminals, key=lambda s: s.name)]

    def build(x, depth):
        words = sorted(enumerate_words(g, x, 3), key=length_lex_key)
        if not words:
            return None
        z = [Atom(s) for s in draw(st.sampled_from(words))]
        n = len(z)
        spans = [
            (a, b, y)
            for a in range(n + 1)
            for b in range(a, n + 1)
            for y in nts
            if recognize(g, y, tuple(t.symbol for t in z[a:b]))
        ]
        if depth == 0 or not spans or draw(st.integers(0, 3)) == 0:
            return z
        a, b, y = draw(st.sampled_from(spans))
        x2 = draw(st.sampled_from(nts))
        u = build(x2, depth - 1)
        if u is None:
            return z
        if draw(st.booleans()):
            return z[:a] + u + [Under(Atom(x2), Atom(y))] + z[b:]
        return z[:a] + [Over(Atom(y), Atom(x2))] + u + z[b:]

    goal = draw(st.sampled_from(nts))
    ante = build(goal, depth) or []
    if ante and draw(st.integers(0, 3)) == 0:
        ante[draw(st.integers(0, len(ante) - 1))] = draw(st.sampled_from(atoms))
    return Sequent(tuple(ante), Atom(goal))


def sequent_lists(g):
    return st.lists(st.one_of(mixed_sequents(g), l_rule_sequents(g)), min_size=1, max_size=4)


def _assert_order_independent(g, sequents, order, axioms=()):
    """A shared prover, asked in the given order, answers as fresh ones do,
    and every proof checks."""

    def answer(r):
        return r.status, proof_to_json(r.proof) if r.proved else None

    fresh = []
    for s in sequents:
        r = Prover(g, axioms=axioms).prove(s)
        assert not r.proved or check_proof(g, r.proof, axioms).ok, render_sequent(s)
        fresh.append(answer(r))
    shared = Prover(g, axioms=axioms)
    for k in order:
        assert answer(shared.prove(sequents[k])) == fresh[k], render_sequent(sequents[k])


class _TooSlow(Exception):
    pass


@contextmanager
def _time_limit(seconds):
    """Raise _TooSlow in the block once it has run for seconds.

    The alarm repeats every 0.1 s, because one that lands in a finalizer (a
    generator closed by the collector) is swallowed; cleanup retries until no
    alarm interrupts it.
    """

    def alarm(signum, frame):
        raise _TooSlow()

    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds, 0.1)
    try:
        yield
    finally:
        while True:
            try:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
                break
            except _TooSlow:
                continue


# an alarm that lands in a garbage-collector callback is reported as unraisable
ignore_swallowed_alarms = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


NESTED_NULLABLE_CYCLES = "start S\nA ::= | B S | R R B | S B A ;\nB ::= | S ;\nR ::= | x R ;\nS ::= A A B | B | R | S ;\n"


@ignore_swallowed_alarms
def test_flat_proof_on_nested_nullable_cycles():
    """S derives S A B.  A walk that re-enumerates a child's trees for every
    tree of its left siblings tries every pumped ε-subtree of the first
    children before it finds the last child dead; two trees per span do not."""
    g = parse_grammar_file(NESTED_NULLABLE_CYCLES)
    s = parse_sequent("S , A , B |- B", g)
    with _time_limit(2):
        r = Prover(g).prove(s)
    assert r.proved and check_proof(g, r.proof).ok


def _within_two_seconds(check, *args):
    """Run check; fail the example when it takes more than 2 s."""
    try:
        with _time_limit(2):
            check(*args)
    except _TooSlow:
        raise AssertionError(f"{check.__name__} took more than 2 s") from None


@ignore_swallowed_alarms
@settings(max_examples=100)
@given(st.data())
def test_answers_do_not_depend_on_query_order_on_random_grammars(data):
    g = data.draw(cyclic_grammars())
    sequents = data.draw(sequent_lists(g))
    order = data.draw(st.permutations(range(len(sequents))))
    _within_two_seconds(_assert_order_independent, g, sequents, order)


# strategies need the grammars at collection time, before fixtures run
BOOL_G = load_grammar("bool")[0]
ENG_G = load_grammar("eng")[0]
ENG_AXIOMS = (
    parse_axiom("he |- Sent/(Noun\\Sent)", ENG_G),
    parse_axiom("him |- (Sent/Noun)\\Sent", ENG_G),
)


@settings(max_examples=100)
@given(st.data())
def test_answers_do_not_depend_on_query_order_on_bool(data):
    sequents = data.draw(sequent_lists(BOOL_G))
    _assert_order_independent(BOOL_G, sequents, data.draw(st.permutations(range(len(sequents)))))


@settings(max_examples=100)
@given(st.data())
def test_answers_do_not_depend_on_query_order_with_axioms(data):
    sequents = data.draw(sequent_lists(ENG_G))
    _assert_order_independent(ENG_G, sequents, data.draw(st.permutations(range(len(sequents)))), ENG_AXIOMS)


def test_axiom_tokens_end_a_run():
    """The proofs cut a pronoun against its axiom, and then Sent/Sent takes
    an argument premise that holds the pronoun's type among atoms."""
    texts = [
        "he , knows , Bob , Sent\\Sent |- Sent",
        "Sent/Sent , Alice , knows , him |- Sent",
        "Alice , Sent/Sent , he , knows , Bob |- Noun*Sent",
    ]
    sequents = [parse_sequent(t, ENG_G) for t in texts]
    assert all(Prover(ENG_G, axioms=ENG_AXIOMS).prove(s).proved for s in sequents)
    _assert_order_independent(ENG_G, sequents, [2, 1, 0], ENG_AXIOMS)


def test_left_and_right_runs_are_answered_apart(bool_g):
    """The same atoms beside X\\Y and Y/X: T derives a suffix of them but no
    prefix, so only the first is provable, in either order."""
    left = parse_sequent('OR , "1" , = , a , T\\T |- F', bool_g)
    right = parse_sequent('T/T , OR , "1" , = , a |- F', bool_g)
    for order in ([left, right], [right, left]):
        pr = Prover(bool_g)
        assert [pr.prove(s).proved for s in order] == [s is left for s in order]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_corpus_matches_every_split(bool_g, name):
    """The pinned corpus, searched over every split, answers in any order as fresh provers do."""
    g = bool_g if name == "bool" else parse_grammar_file(PINNED_GRAMMARS[name])
    sequents = [parse_sequent(line.split(" ", 1)[1], g) for line in PINNED[name].strip().splitlines()]
    order = list(range(len(sequents)))
    random.Random(9).shuffle(order)
    _assert_order_independent(g, sequents, order)


@st.composite
def split_sequents(draw, g):
    """A word of X beside an edge functor over X, or a word of X then one of
    Y under X*Y, perhaps with one atom swapped: the shapes whose every flat
    premise comes off a chart."""
    atoms = [Atom(s) for s in sorted(g.terminals | g.nonterminals, key=lambda s: s.name)]
    x, y, z = (Atom(draw(st.sampled_from(sorted(g.nonterminals, key=lambda s: s.name)))) for _ in range(3))

    def word(t):
        words = sorted(enumerate_words(g, t.symbol, 4), key=length_lex_key)
        return [Atom(s) for s in draw(st.sampled_from(words))] if words else []

    ante, succ = draw(st.sampled_from([
        lambda: ([Over(z, x)] + word(x), z),
        lambda: (word(x) + [Under(x, z)], z),
        lambda: (word(x) + word(y), Prod(x, y)),
    ]))()
    if ante and draw(st.integers(0, 3)) == 0:
        ante[draw(st.integers(0, len(ante) - 1))] = draw(st.sampled_from(atoms))
    return Sequent(tuple(ante), succ)


class _EverySplit(Prover):
    """The search that makes every split's move, as the rules are stated."""

    def _splits(self, ante, splits, *flat):
        return iter(splits)


def _assert_as_every_split(g, sequents, axioms=()):
    """The search answers each sequent with the proof that trying every split finds."""
    for s in sequents:
        r, every = Prover(g, axioms).prove(s), _EverySplit(g, axioms).prove(s)
        assert r.status is every.status, render_sequent(s)
        assert r.proof is None or proof_to_json(r.proof) == proof_to_json(every.proof), render_sequent(s)


@ignore_swallowed_alarms
@settings(max_examples=100)
@given(st.data())
def test_dropped_splits_are_those_every_split_rejects(data):
    # fresh grammars, whose flat premises come off charts
    g, axioms = data.draw(
        st.one_of(
            st.builds(lambda: (load_grammar("bool")[0], ())),
            st.builds(lambda: (load_grammar("eng")[0], ENG_AXIOMS)),
            cyclic_grammars().map(lambda g: (g, ())),
        )
    )
    sequents = st.one_of(split_sequents(g), mixed_sequents(g), l_rule_sequents(g))
    _within_two_seconds(_assert_as_every_split, g, data.draw(st.lists(sequents, min_size=1, max_size=4)), axioms)


class _Uncounted(Prover):
    """The search without the count check: every sequent balances."""

    def _balanced(self, s):
        return True


@st.composite
def typing_axioms(draw, g):
    """No axiom, or one for x whose type is a nonterminal or an implication over two."""
    nts = st.sampled_from([Atom(s) for s in sorted(g.nonterminals, key=lambda s: s.name)])
    tau = draw(st.one_of(nts, st.builds(Over, nts, nts), st.builds(Under, nts, nts)))
    return draw(st.sampled_from([(), (TypingAxiom(terminal("x"), tau),)]))


def _assert_as_uncounted(g, sequents, axioms):
    """The search answers each sequent with the proof that it finds without the count check."""
    for s in sequents:
        r, plain = Prover(g, axioms).prove(s), _Uncounted(g, axioms).prove(s)
        assert r.status is plain.status, render_sequent(s)
        assert r.proof is None or proof_to_json(r.proof) == proof_to_json(plain.proof), render_sequent(s)


@ignore_swallowed_alarms
@settings(max_examples=100)
@given(st.data())
def test_the_count_check_changes_no_answer(data):
    g, axioms = data.draw(
        st.one_of(
            cyclic_grammars().flatmap(lambda g: typing_axioms(g).map(lambda axioms: (g, axioms))),
            st.just((BOOL_G, ())),
            st.just((ENG_G, ENG_AXIOMS)),
        )
    )
    sequents = st.one_of(split_sequents(g), mixed_sequents(g), l_rule_sequents(g))
    _within_two_seconds(_assert_as_uncounted, g, data.draw(st.lists(sequents, min_size=1, max_size=4)), axioms)


def _null_space(rows, n):
    """A basis of the rational vectors h with r·h = 0 for every row r, by Gauss-Jordan over fractions."""
    rows, pivots = [[Fraction(x) for x in r] for r in rows], []
    for c in range(n):
        p = next((r for r in rows if r[c]), None)
        if p is None:
            continue
        rows.remove(p)
        p = [x / p[c] for x in p]
        rows = [[x - r[c] * y for x, y in zip(r, p)] for r in rows]
        pivots = [(k, [x - q[c] * y for x, y in zip(q, p)]) for k, q in pivots] + [(c, p)]
    free = [f for f in range(n) if f not in {k for k, _ in pivots}]
    basis = []
    for f in free:
        h = [Fraction(0)] * n
        h[f] = Fraction(1)
        for k, q in pivots:
            h[k] = -q[f]
        basis.append(h)
    return basis


def _signed_counts(t, sign=1, out=None):
    """Each symbol's count in t, an implication's argument counted against it."""
    out = {} if out is None else out
    if isinstance(t, Atom):
        out[t.symbol] = out.get(t.symbol, 0) + sign
    elif isinstance(t, (Under, Over)):
        _signed_counts(t.arg, -sign, out)
        _signed_counts(t.result, sign, out)
    elif isinstance(t, Prod):
        _signed_counts(t.left, sign, out)
        _signed_counts(t.right, sign, out)
    return out


def _assert_balanced_as_every_weight(g, sequents, axioms):
    """A sequent balances under the prover's one weight exactly when it
    balances under every weight of an independent basis."""
    symbols = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    ids = {x: k for k, x in enumerate(symbols)}

    def row(ante, succ):
        r = [0] * len(symbols)
        for t, sign in [(succ, 1)] + [(t, -1) for t in ante]:
            for x, c in _signed_counts(t, sign).items():
                r[ids[x]] += c
        return r

    rows = [row(tuple(map(Atom, p.rhs)), Atom(p.lhs)) for p in g.productions]
    basis = _null_space(rows + [row((Atom(ax.token),), ax.type) for ax in axioms], len(symbols))
    pr = Prover(g, axioms)
    for s in sequents:
        r = row(s.antecedent, s.succedent)
        assert pr._balanced(s) == all(sum(h[k] * r[k] for k in range(len(r))) == 0 for h in basis), render_sequent(s)


@settings(max_examples=100)
@given(st.data())
def test_a_sequent_balances_as_it_does_under_every_weight(data):
    g = data.draw(st.one_of(st.just(BOOL_G), cyclic_grammars()))
    axioms = data.draw(typing_axioms(g)) if g is not BOOL_G else ()
    sequents = data.draw(st.lists(st.one_of(mixed_sequents(g), l_rule_sequents(g)), min_size=1, max_size=4))
    _assert_balanced_as_every_weight(g, sequents, axioms)


@pytest.mark.parametrize("text", ["AND , AND |- V", "AND , OR |- V", "OR , AND |- V", "OR , OR |- V"])
def test_a_sequent_that_overlapping_weights_would_balance_is_unbalanced(text):
    """bool.g's weight packs a basis of several weights; packed with shifts
    that overlap, it would take these four for balanced."""
    s = parse_sequent(text, BOOL_G)
    assert not Prover(BOOL_G)._balanced(s)
    _assert_balanced_as_every_weight(BOOL_G, [s], ())


def reversed_grammar(g):
    """g with every right-hand side reversed."""
    return Grammar(g.terminals, g.nonterminals, tuple(Production(p.lhs, p.rhs[::-1]) for p in g.productions), g.start)


def mirror_sequent(s):
    """s read right to left: the antecedent reversed and every type mirrored."""
    return Sequent(tuple(mirror_type(t) for t in reversed(s.antecedent)), mirror_type(s.succedent))


def _assert_proofs_mirrored(g, s):
    """s over g and its mirror over g's rules reversed get the same status,
    and each proof checks: the forward and the reversed charts answer alike."""
    rg = reversed_grammar(g)
    here, there = Prover(g).prove(s), Prover(rg).prove(mirror_sequent(s))
    assert here.status is there.status, render_sequent(s)
    assert not here.proved or check_proof(g, here.proof).ok, render_sequent(s)
    assert not there.proved or check_proof(rg, there.proof).ok, render_sequent(s)


@ignore_swallowed_alarms
@settings(max_examples=150)
@given(st.data())
def test_proofs_mirror(data):
    # a fresh bool.g, so that neither side finds its flat premises decided
    g = data.draw(st.one_of(st.builds(lambda: load_grammar("bool")[0]), cyclic_grammars()))
    s = data.draw(st.one_of(split_sequents(g), mixed_sequents(g), l_rule_sequents(g)))
    _within_two_seconds(_assert_proofs_mirrored, g, s)


@st.composite
def runs(draw, g):
    """A run of atoms in reading order: words of a few symbols, perhaps one swapped."""
    symbols = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    run = []
    for x in draw(st.lists(st.sampled_from(symbols), max_size=3)):
        words = sorted(enumerate_words(g, x, 4), key=length_lex_key)
        run += draw(st.sampled_from(words)) if words else [x]
    if run and draw(st.booleans()):
        run[draw(st.integers(0, len(run) - 1))] = draw(st.sampled_from(symbols))
    return tuple(run)


@settings(max_examples=200)
@given(st.data())
def test_run_ends_are_the_splits_recognize_accepts(data):
    """A forward chart's ends are the k with x ⇒* run[:k] ψ, a reversed
    chart's (over the run reversed) the k with x ⇒* ψ run[-k:]."""
    g = data.draw(st.one_of(st.builds(lambda: load_grammar("bool")[0]), cyclic_grammars()))
    symbols = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    x = data.draw(st.sampled_from(sorted(g.nonterminals, key=lambda s: s.name)))
    psi = data.draw(st.none() | st.sampled_from(symbols))
    run, edge = data.draw(runs(g)), () if psi is None else (psi,)
    ks = range(len(run) + 1)
    assert _run_ends(g, run, x, False, psi) == {k for k in ks if recognize(g, x, run[:k] + edge)}
    assert _run_ends(g, run[::-1], x, True, psi) == {k for k in ks if recognize(g, x, edge + run[len(run) - k :])}


# Each case reads a flat premise of one split rule off a chart, so each
# fails when that premise's chart is read in the wrong direction.
SPLIT_CASES = [
    # PROD_R's two premises; on the mirror, B derives y x…x
    ("start S\nS ::= | B | R ;\nB ::= S ;\nR ::= x R | y ;\n", "x , y , x , x , y |- B*B"),
    # OVER_L's argument, and UNDER_L's on the mirror: only x x y ⊢ S
    ("start S\nS ::= y | x S ;\nY ::= Z x ;\nZ ::= x ;\n", "Z/S , x , x , y , x |- Y"),
    # OVER_L's outer premise at the edge, and UNDER_L's on the mirror: only Z , y ⊢ Y
    ("start S\nS ::= | x S ;\nY ::= Z y ;\nZ ::= x ;\n", "Z/S , x , x , x , y |- Y"),
]


@pytest.mark.parametrize("grammar, text", SPLIT_CASES)
def test_split_charts_read_each_premise_in_its_direction(grammar, text):
    g = parse_grammar_file(grammar)
    s = parse_sequent(text, g)
    _assert_as_every_split(g, [s])
    _assert_as_every_split(reversed_grammar(g), [mirror_sequent(s)])
    _assert_proofs_mirrored(g, s)


@ignore_swallowed_alarms
def test_long_l_rule_searches_finish(load_bundled):
    """An L-rule beside a long chain reads its flat premises off one chart
    per run, so the three shapes answer within seconds."""
    g = load_bundled("bool.g")
    E = parse_type("E", g)
    cases = [
        Sequent((parse_type("E/E", g), *_flat_chain(g, 199).antecedent), E),
        Sequent(tuple(parse_type(x, g) for x in ("T/V", "b", "OR")) + _flat_chain(g, 399).antecedent, E),
        Sequent((*_flat_chain(g, 399).antecedent, parse_type("E\\E", g)), E),
    ]
    for s in cases:
        with _time_limit(2):
            r = Prover(g).prove(s)
        assert r.proved and r.proof.conclusion == s, render_sequent(s)
        assert check_proof(g, r.proof).ok, render_sequent(s)


def _connectives(s):
    """Connectives and units of s: the nodes of its types that are not atoms."""
    return sum(type_size(t) - len(list(iter_atoms(t))) for t in (*s.antecedent, s.succedent))


def _measure(s, tokens):
    """(axiom-token occurrences, connectives + units) of s."""
    occurrences = sum(a in tokens for t in (*s.antecedent, s.succedent) for a in iter_atoms(t))
    return occurrences, _connectives(s)


def _assert_premises_shrink(g, sequents, axioms=()):
    """Each sequent the search recurses on is lexicographically below its caller
    in _measure, except a lexicon cut's premise tok ⊢ τ, which recurses no further."""
    pr = Prover(g, axioms)
    tokens = {ax.token for ax in axioms}
    lexicon = {Sequent((Atom(ax.token),), ax.type) for ax in axioms}
    search, stack = pr._search, []

    def recorded(s):
        if stack:
            caller = stack[-1]
            assert caller not in lexicon, render_sequent(caller)
            assert s in lexicon or _measure(s, tokens) < _measure(caller, tokens), (
                f"{render_sequent(s)} under {render_sequent(caller)}"
            )
        stack.append(s)
        try:
            return search(s)
        finally:
            stack.pop()

    pr._search = recorded
    for s in sequents:
        pr.prove(s)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_search_premises_shrink_on_the_pinned_corpus(bool_g, name):
    g = bool_g if name == "bool" else parse_grammar_file(PINNED_GRAMMARS[name])
    _assert_premises_shrink(g, [parse_sequent(line.split(" ", 1)[1], g) for line in PINNED[name].strip().splitlines()])


@ignore_swallowed_alarms
@settings(max_examples=100)
@given(st.data())
def test_search_premises_shrink(data):
    """The search terminates by construction: no depth bound, no cycle check."""
    g, axioms = data.draw(
        st.one_of(
            st.just((BOOL_G, ())),
            st.just((ENG_G, ENG_AXIOMS)),
            cyclic_grammars().map(lambda g: (g, ())),
        )
    )
    _within_two_seconds(_assert_premises_shrink, g, data.draw(sequent_lists(g)), axioms)
