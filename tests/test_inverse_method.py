"""An independent reference for the prover's negative answers.

check_proof certifies every Proved; an exhausted search is trusted only by
the prover module's argument that folds commute upward past every other
rule.  This reference shares no code with the search: it works forward, as
the inverse method does (Maslov 1964; Degtyarev & Voronkov 2001), from the
axioms AX, GRAM, EPS_R and the typing axioms, applying every rule of the
calculus to what it has derived, with CUT against a production or a typing
axiom as either premise at any position.  It stays within a universe of
types, the subformulas of the goals and the grammar's atoms, and within a
cap on the antecedent's length, so the least fixpoint is finite.  It reads
no Earley chart and no memo on the grammar.

Both directions are checked: whatever the reference derives, the prover
proves with a proof check_proof accepts; and whenever every sequent of the
prover's proof fits the universe and the cap, the reference derives the
goal.
"""
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from lambek.grammar import Grammar, Production, nonterminal, terminal
from lambek.prover import Prover, TypingAxiom, check_proof
from lambek.types import UNIT, Atom, Over, Prod, Sequent, Under, parse_sequent, render_sequent
from test_prover import cyclic_grammars

CAP = 3  # antecedent types per sequent


def universe(g, sequents, axioms=()):
    """The grammar's atoms and every subformula of the sequents and the axioms' types."""
    out = {Atom(s) for s in g.terminals | g.nonterminals}
    stack = [t for s in sequents for t in (*s.antecedent, s.succedent)] + [ax.type for ax in axioms]
    while stack:
        t = stack.pop()
        if t not in out:
            out.add(t)
            if isinstance(t, (Under, Over)):
                stack += [t.arg, t.result]
            elif isinstance(t, Prod):
                stack += [t.left, t.right]
    return out


def saturate(g, universe, cap, axioms=()):
    """Every sequent over the universe's types, with at most cap antecedent
    types, that the calculus derives under g and the typing axioms, as
    (antecedent, succedent) pairs."""
    # types are worked on as their indexes in one list
    types = sorted(universe, key=repr)
    ids = {t: k for k, t in enumerate(types)}
    unit = ids.get(UNIT)
    # the non-logical axioms  xs ⊢ a,  each usable as either premise of a cut
    fixed = [(tuple(ids[Atom(x)] for x in p.rhs), ids[Atom(p.lhs)]) for p in g.productions]
    fixed += [((ids[Atom(ax.token)],), ids[ax.type]) for ax in axioms]
    under, over, prod = {}, {}, {}  # (arg, result) or (left, right) -> the type
    unders_by_arg, unders_by_result = defaultdict(list), defaultdict(list)
    overs_by_arg, overs_by_result = defaultdict(list), defaultdict(list)
    prods_by_left, prods_by_right = defaultdict(list), defaultdict(list)
    for k, t in enumerate(types):
        if isinstance(t, Under):
            arg, result = ids[t.arg], ids[t.result]
            under[arg, result] = k
            unders_by_arg[arg].append((k, result))
            unders_by_result[result].append((k, arg))
        elif isinstance(t, Over):
            arg, result = ids[t.arg], ids[t.result]
            over[arg, result] = k
            overs_by_arg[arg].append((k, result))
            overs_by_result[result].append((k, arg))
        elif isinstance(t, Prod):
            left, right = ids[t.left], ids[t.right]
            prod[left, right] = k
            prods_by_left[left].append((k, right))
            prods_by_right[right].append((k, left))

    derived, todo = set(), []

    def add(ante, succ):
        if len(ante) <= cap and (ante, succ) not in derived:
            derived.add((ante, succ))
            todo.append((ante, succ))

    for k in range(len(types)):
        add((k,), k)
    if unit is not None:
        add((), unit)
    for xs, a in fixed:
        add(xs, a)

    # the processed sequents: by succedent, and by each type their antecedent holds
    by_succ, holding = defaultdict(list), defaultdict(list)
    while todo:
        ante, succ = todo.pop()
        by_succ[succ].append(ante)
        for t in set(ante):
            holding[t].append((ante, succ))
        n = len(ante)
        # right rules
        if n and (ante[0], succ) in under:
            add(ante[1:], under[ante[0], succ])
        if n and (ante[-1], succ) in over:
            add(ante[:-1], over[ante[-1], succ])
        # left rules of one premise
        if unit is not None:
            for p in range(n + 1):
                add(ante[:p] + (unit,) + ante[p:], succ)
        for p in range(n - 1):
            if (ante[p], ante[p + 1]) in prod:
                add(ante[:p] + (prod[ante[p], ante[p + 1]],) + ante[p + 2 :], succ)
        # cuts against a non-logical axiom
        for xs, a in fixed:
            for p in range(n):
                if ante[p] == a:
                    add(ante[:p] + xs + ante[p + 1 :], succ)
            for k, x in enumerate(xs):
                if x == succ:
                    add(xs[:k] + ante + xs[k + 1 :], a)
        # rules of two premises, with this sequent as one premise and every
        # processed sequent, itself included, as the other
        for u, result in unders_by_arg[succ]:  # ante ⊢ φ, Ψ ψ Π ⊢ π  =>  Ψ ante φ\ψ Π ⊢ π
            for other, pi in holding[result]:
                for p in range(len(other)):
                    if other[p] == result:
                        add(other[:p] + ante + (u,) + other[p + 1 :], pi)
        for u, result in overs_by_arg[succ]:  # ante ⊢ φ, Ψ ψ Π ⊢ π  =>  Ψ ψ/φ ante Π ⊢ π
            for other, pi in holding[result]:
                for p in range(len(other)):
                    if other[p] == result:
                        add(other[:p] + (u,) + ante + other[p + 1 :], pi)
        for p in range(n):
            for u, arg in unders_by_result[ante[p]]:
                for phi_ante in by_succ[arg]:
                    add(ante[:p] + phi_ante + (u,) + ante[p + 1 :], succ)
            for u, arg in overs_by_result[ante[p]]:
                for phi_ante in by_succ[arg]:
                    add(ante[:p] + (u,) + phi_ante + ante[p + 1 :], succ)
        for u, right in prods_by_left[succ]:
            for right_ante in by_succ[right]:
                add(ante + right_ante, u)
        for u, left in prods_by_right[succ]:
            for left_ante in by_succ[left]:
                add(left_ante + ante, u)
    return {(tuple(types[k] for k in ante), types[succ]) for ante, succ in derived}


def proof_sequents(proof):
    """Every sequent of the proof, replayed from its root's conclusion by the
    rules as the prover module states them."""
    out, stack = [], [(proof, proof.conclusion)]
    while stack:
        node, s = stack.pop()
        out.append(s)
        ante, succ, d, rule = s.antecedent, s.succedent, node.detail, node.rule.value
        if rule == "EPS_L":
            premises = [Sequent(ante[: d[0]] + ante[d[0] + 1 :], succ)]
        elif rule == "PROD_L":
            i = d[0]
            premises = [Sequent(ante[:i] + (ante[i].left, ante[i].right) + ante[i + 1 :], succ)]
        elif rule == "UNDER_R":
            premises = [Sequent((succ.arg,) + ante, succ.result)]
        elif rule == "OVER_R":
            premises = [Sequent(ante + (succ.arg,), succ.result)]
        elif rule == "PROD_R":
            premises = [Sequent(ante[: d[0]], succ.left), Sequent(ante[d[0] :], succ.right)]
        elif rule == "UNDER_L":
            i, j = d
            rest = ante[:j] + (ante[i].result,) + ante[i + 1 :]
            premises = [Sequent(ante[j:i], ante[i].arg), Sequent(rest, succ)]
        elif rule == "OVER_L":
            i, j = d
            rest = ante[:i] + (ante[i].result,) + ante[j:]
            premises = [Sequent(ante[i + 1 : j], ante[i].arg), Sequent(rest, succ)]
        elif rule == "CUT":
            i, j, chi = d
            premises = [Sequent(ante[i:j], chi), Sequent(ante[:i] + (chi,) + ante[j:], succ)]
        else:
            premises = []
        stack.extend(zip(node.premises, premises))
    return out


@st.composite
def small_grammars(draw):
    """A random grammar over S, A, B and x, y, with no cycle forced in."""
    nts, terms = ["S", "A", "B"], ["x", "y"]
    rhs = st.lists(st.sampled_from(nts + terms), max_size=3).map(tuple)
    rules = set(draw(st.lists(st.tuples(st.sampled_from(nts), rhs), min_size=1, max_size=5)))
    sym = {n: nonterminal(n) for n in nts} | {t: terminal(t) for t in terms}
    prods = tuple(Production(sym[lhs], tuple(sym[s] for s in body)) for lhs, body in sorted(rules))
    return Grammar(frozenset(sym[t] for t in terms), frozenset(sym[n] for n in nts), prods, sym["S"])


@st.composite
def cases(draw, grammars):
    """A grammar, a goal of at most CAP types over it, and at most one typing
    axiom for x.  Each type is an atom or one connective over atoms; the unit
    comes in a quarter of the cases, as it multiplies the sequents derived."""
    g = draw(grammars)
    atoms = st.sampled_from([Atom(s) for s in sorted(g.terminals | g.nonterminals, key=lambda s: s.name)])
    units = [st.just(UNIT)] if draw(st.integers(0, 3)) == 0 else []
    item = st.one_of(
        atoms, atoms, st.builds(Under, atoms, atoms), st.builds(Over, atoms, atoms), st.builds(Prod, atoms, atoms),
        *units,
    )
    goal = Sequent(tuple(draw(st.lists(item, max_size=CAP))), draw(item))
    axioms = ()
    if draw(st.integers(0, 2)) == 0:
        nts = st.sampled_from([Atom(s) for s in sorted(g.nonterminals, key=lambda s: s.name)])
        tau = draw(st.one_of(nts, st.builds(Over, nts, nts), st.builds(Under, nts, nts)))
        axioms = (TypingAxiom(terminal("x"), tau),)
    return g, [goal], axioms


def _check_both_directions(g, gs, axioms):
    types = universe(g, gs, axioms)
    derived = saturate(g, types, CAP, axioms)
    prover = Prover(g, axioms)
    for ante, succ in sorted(derived, key=repr):
        s = Sequent(ante, succ)
        r = prover.prove(s)
        assert r.proved, f"the reference derives {render_sequent(s)}; the search does not"
        assert check_proof(g, r.proof, axioms).ok, render_sequent(s)
    for s in gs:
        r = prover.prove(s)
        if r.proved and all(
            len(q.antecedent) <= CAP and {*q.antecedent, q.succedent} <= types for q in proof_sequents(r.proof)
        ):
            assert (s.antecedent, s.succedent) in derived, (
                f"the search proves {render_sequent(s)} within the cap; the reference does not derive it"
            )


@settings(max_examples=30)
@given(cases(cyclic_grammars()))
def test_the_search_agrees_with_forward_saturation_on_cyclic_grammars(case):
    _check_both_directions(*case)


@settings(max_examples=100)
@given(cases(small_grammars()))
def test_the_search_agrees_with_forward_saturation_on_small_grammars(case):
    _check_both_directions(*case)


@settings(max_examples=100)
@given(st.one_of(cases(small_grammars()), cases(cyclic_grammars())))
def test_no_derived_sequent_is_count_refuted(case):
    """Count invariance: whatever the reference derives balances under the
    prover's weight, so the count check never refutes a derivable sequent."""
    g, gs, axioms = case
    prover = Prover(g, axioms)
    for ante, succ in sorted(saturate(g, universe(g, gs, axioms), CAP, axioms), key=repr):
        assert prover._balanced(Sequent(ante, succ)), render_sequent(Sequent(ante, succ))


def test_saturation_derives_what_the_calculus_gives_and_no_more(bool_g):
    """Fixed answers on bool.g: a flat sequent, a lifted value, an
    incomplete comparison, and three sequents the search refutes."""
    derivable = ["V , = , V |- T", "a |- T/(V\\T)", "a , = |- T/V"]
    underivable = ["V |- T", "E |- T", "OR |- (T\\T)/T"]
    gs = [parse_sequent(text, bool_g) for text in derivable + underivable]
    derived = saturate(bool_g, universe(bool_g, gs), CAP)
    for s in gs:
        assert ((s.antecedent, s.succedent) in derived) == (s in gs[: len(derivable)]), render_sequent(s)
