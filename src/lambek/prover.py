"""Sequent calculus over a grammar: proof search, checking, tactics.

Rules, written forward (Φ, Ψ, Π are contexts, φ, ψ, π types):

    AX        φ ⊢ φ
    GRAM      X1 ... Xn ⊢ A                     for a production A ::= X1 ... Xn
    AXIOM     tok ⊢ τ                           for a supplied typing axiom
    EPS_R     ⊢ 1
    EPS_L     Φ Ψ ⊢ φ          =>  Φ 1 Ψ ⊢ φ
    UNDER_R   φ Φ ⊢ ψ          =>  Φ ⊢ φ\\ψ
    OVER_R    Φ φ ⊢ ψ          =>  Φ ⊢ ψ/φ
    UNDER_L   Φ ⊢ φ  and  Ψ ψ Π ⊢ π  =>  Ψ Φ (φ\\ψ) Π ⊢ π
    OVER_L    Φ ⊢ φ  and  Ψ ψ Π ⊢ π  =>  Ψ (ψ/φ) Φ Π ⊢ π
    PROD_L    Φ φ ψ Ψ ⊢ π      =>  Φ (φ*ψ) Ψ ⊢ π
    PROD_R    Φ ⊢ φ  and  Ψ ⊢ ψ  =>  Φ Ψ ⊢ φ*ψ
    CUT       Φ ⊢ φ  and  Ψ φ Π ⊢ ψ  =>  Ψ Φ Π ⊢ ψ

Search runs backward and goal-directed, with no depth bound and no cycle
check, and memoizes every answer, proof or failure.  Invertible steps
(stripping units, splitting antecedent products, the two right rules) are
applied eagerly; everything else backtracks, a split rule (UNDER_L, OVER_L,
PROD_R) over the splits of its context in order.  The search never tries a
general cut: the calculus is cut-free (Lambek 1958), so CUT appears in
proofs only as a fold against a production or a typing axiom, and in the
composites the tactics build.

The search terminates by construction.  No typing axiom's type may name an
axiom token (Prover rejects one that does), so every premise the search
recurses on is smaller than its conclusion in (axiom-token occurrences,
connectives + units), compared lexicographically: a lexicon cut trades one
token for a type without tokens, and every other rule uses up a connective
or a unit.  The one exception, a lexicon cut's premise  tok ⊢ τ,  is closed
by AXIOM at once.  A failure is therefore always exhaustive.  The search
recurses once per proof step, so a proof deeper than about 450 steps
raises RecursionError instead of answering.

Folds happen only at flat sequents (atoms over an atom): a fold is a cut
between atoms, so it commutes upward past every other rule (as in focused
proof search, Andreoli 1992).  There the Earley parse of the antecedent
decides the sequent and lays out the whole fold chain (flat_proof).  The
grammar keeps each flat decision (see memo), so each is parsed once,
however many provers over the grammar, or the analyzer's capture search,
ask.  A production's fold cuts the production's GRAM axiom in where its
right-hand side stands, with a proof of  ⊢ X  cut in for each nullable X
the parse leaves out.

A sequent is searched only if it balances (Prover._balanced): every derivable
sequent's two sides weigh the same under the grammar's count weights (counts.py),
so most underivable goals and subgoals are refuted by one sum, with no step.

A split rule's flat premises are read off charts: one Earley chart over
the longest run of atoms beside a premise's fixed end decides it at every
split (Chart.ends, or Chart.goals for the outer premise of an edge
functor), and a split whose flat premise fails is dropped unmade.  Kept
splits are searched like any premise, so proofs do not change, and an
L-rule beside n atoms costs a chart or two and one parse, not n (_splits).
"""
from __future__ import annotations

import enum
from typing import Iterator, Sequence

from .counts import weights
from .earley import Ambiguous, Chart, ParseTree, Reject, parse_tree
# not called here, but perfbench/spans.py rebinds lambek.prover.recognize and fails without it
from .earley import recognize  # noqa: F401
from .grammar import Grammar, Symbol, Value, Word, lhs_index, memo, nullable_ids, production_ids, set_field
from .types import (
    Atom,
    LambekType,
    Over,
    Prod,
    Sequent,
    Under,
    UnitType,
    parse_sequent,
    parse_type,
    render_sequent,
    render_type,
)


class RuleName(enum.Enum):
    AX = "AX"
    CUT = "CUT"
    UNDER_L = "UNDER_L"
    UNDER_R = "UNDER_R"
    OVER_L = "OVER_L"
    OVER_R = "OVER_R"
    PROD_L = "PROD_L"
    PROD_R = "PROD_R"
    GRAM = "GRAM"
    EPS_L = "EPS_L"
    EPS_R = "EPS_R"
    AXIOM = "AXIOM"


# the fields of each rule's detail, which is the tuple of them in this
# order; rules not listed take None.  A formula is a type, every other field
# an integer.
_DETAIL_FIELDS: dict[RuleName, tuple[str, ...]] = {
    RuleName.GRAM: ("production",),
    RuleName.AXIOM: ("axiom",),
    RuleName.EPS_L: ("pos",),
    RuleName.PROD_L: ("pos",),
    RuleName.PROD_R: ("split",),
    RuleName.UNDER_L: ("pos", "start"),
    RuleName.OVER_L: ("pos", "stop"),
    RuleName.CUT: ("start", "stop", "formula"),
}


class ProofTree(Value):
    """A rule, its detail and its premises.  Only the root stores its
    conclusion; every other node's follows from its parent's, rule and
    detail, and is replayed where it is needed (see _replay)."""

    __slots__ = ("rule", "premises", "detail", "conclusion")

    def __init__(
        self, rule: RuleName, premises: tuple[ProofTree, ...] = (), detail: tuple | None = None,
        conclusion: Sequent | None = None,
    ) -> None:
        set_field(self, "rule", rule)
        set_field(self, "premises", premises)
        set_field(self, "detail", detail)
        set_field(self, "conclusion", conclusion)


class TypingAxiom(Value):
    """A non-logical axiom  token ⊢ type,  e.g. a pronoun's lexical typing."""

    __slots__ = ("token", "type")

    def __init__(self, token: Symbol, type: LambekType) -> None:
        set_field(self, "token", token)
        set_field(self, "type", type)


def parse_axiom(text: str, g: Grammar) -> TypingAxiom:
    s = parse_sequent(text, g)
    if len(s.antecedent) != 1 or not isinstance(s.antecedent[0], Atom):
        raise ValueError(f"axiom antecedent must be a single token: {text!r}")
    tok = s.antecedent[0].symbol
    if not tok.is_terminal:
        raise ValueError(f"axiom token {tok.name!r} must be a terminal")
    return TypingAxiom(tok, s.succedent)


class SearchStatus(enum.Enum):
    """PROVED carries a proof.  NOT_FOUND_WITHIN_BOUNDS means the search failed
    exhaustively: the sequent is underivable under the grammar and axioms
    (the name predates the unbounded search).  REFUTED_BY_ORACLE carries a
    certified counterexample from prove_with_prescreen."""

    PROVED = "Proved"
    NOT_FOUND_WITHIN_BOUNDS = "NotFoundWithinBounds"
    REFUTED_BY_ORACLE = "RefutedByOracle"


class SearchResult(Value):
    __slots__ = ("status", "proof", "counterexample")

    def __init__(
        self, status: SearchStatus, proof: ProofTree | None = None, counterexample: Word | None = None
    ) -> None:
        set_field(self, "status", status)
        set_field(self, "proof", proof)
        set_field(self, "counterexample", counterexample)

    @property
    def proved(self) -> bool:
        return self.status is SearchStatus.PROVED


class TacticError(ValueError):
    """A tactic was applied to proofs whose types do not fit together."""


def _ax(t: LambekType) -> ProofTree:
    return ProofTree(RuleName.AX, conclusion=Sequent((t,), t))


def _premise(t: ProofTree) -> ProofTree:
    """t as a premise, whose conclusion its parent fixes."""
    return ProofTree(t.rule, t.premises, t.detail)


def _segment_proof(g: Grammar, pid: int, skipped: tuple[int, ...]) -> ProofTree:
    """The fold of production pid, A ::= X1 ... Xn, with the nullable Xk at
    the ascending positions skipped left out: a proof of the rest ⊢ A.

    It is GRAM with a proof of  ⊢ Xk  cut in for each skipped Xk, that proof
    being the fold of Xk's nullable witness with every position skipped.
    Reach it through memo.
    """
    rhs = g.productions[pid].rhs
    proof = ProofTree(RuleName.GRAM, (), (pid,))
    # largest k first: cutting in a later position leaves k where it was
    for k in reversed(skipped):
        wid = memo(g, nullable_ids)[rhs[k]]
        empty = memo(g, _segment_proof, wid, tuple(range(len(g.productions[wid].rhs))))
        proof = ProofTree(RuleName.CUT, (empty, proof), (k, k, Atom(rhs[k])))
    return proof


def _production_atoms(g: Grammar) -> list[tuple[tuple[Atom, ...], Atom]]:
    """Per production id, its right-hand and left-hand sides as atoms; reach it through memo."""
    return [(tuple(map(Atom, p.rhs)), Atom(p.lhs)) for p in g.productions]


def fold_chain(g: Grammar, s: Sequent, tree: ParseTree) -> ProofTree:
    """The proof of flat s that folds tree, a parse of its antecedent's symbols.

    Each node of a production of g folds once, bottom-up and left to right,
    as a cut against its segment proof; children with an empty yield are
    skipped, and nonterminal leaves are the antecedent atoms themselves.
    The root folds last, and its segment proof proves what is left.
    """
    ids = memo(g, production_ids)
    table = memo(g, _production_atoms)
    # (slot, children kept, symbol, segment proof) per node in the reverse of
    # the folding order: the root first, each child after its right siblings
    folds: list[tuple[int, int, Atom, ProofTree]] = []
    # (node, the slot of its first child); a folded child takes one slot, a
    # child with an empty yield none
    stack = [(tree, 0)]
    while stack:
        node, pos = stack.pop()
        pid = ids[node.production]
        rhs, x = table[pid]
        skipped = []
        slot = pos
        for k in range(len(rhs)):
            c = node.children[k]
            if not c.word:
                skipped.append(k)
                continue
            if c.production is not None:
                stack.append((c, slot))
            slot += 1
        folds.append((pos, slot - pos, x, memo(g, _segment_proof, pid, tuple(skipped))))

    # below the root's fold, each cut unfolds its premise's nonterminal at
    # pos back into the segment
    (_, _, _, proof), *cuts = folds
    for pos, width, x, seg in cuts:
        proof = ProofTree(RuleName.CUT, (seg, proof), (pos, pos + width, x))
    return ProofTree(proof.rule, proof.premises, proof.detail, s)


def flat_proof(g: Grammar, s: Sequent) -> ProofTree | None:
    """The grammar's proof of s, atoms over a nonterminal atom, or None when it has none.

    AX when the antecedent is the succedent, else GRAM when it is the
    right-hand side of one of the succedent's productions, else the fold
    chain of the antecedent's first parse.  Folds read backward are
    derivation steps, and skips and insertions are ordinary empty
    derivations, so s folds exactly when the goal derives the antecedent's
    symbols as a sentential form.  Each s is decided once per grammar (see
    memo), for every prover and for the analyzer's capture search.
    """
    return memo(g, _flat_proof, s)


def _flat_proof(g: Grammar, s: Sequent) -> ProofTree | None:
    """flat_proof's answer, computed; reach it through memo."""
    ante, succ = s.antecedent, s.succedent
    if ante == (succ,):
        return ProofTree(RuleName.AX, conclusion=s)
    table = memo(g, _production_atoms)
    for pid in memo(g, lhs_index)[succ.symbol]:
        if ante == table[pid][0]:
            return ProofTree(RuleName.GRAM, (), (pid,), s)
    outcome = parse_tree(g, succ.symbol, tuple(t.symbol for t in ante))
    if isinstance(outcome, Reject):
        return None
    return fold_chain(g, s, outcome.first if isinstance(outcome, Ambiguous) else outcome.tree)


def _run_ends(g: Grammar, run: tuple[Symbol, ...], x: Symbol, reverse: bool, psi: Symbol | None) -> frozenset[int]:
    """The k for which x derives run[:k], followed by psi if given; with
    reverse, over g's rules read in reverse, so for run reversed it is the
    k for which x derives psi, if given, then the last k symbols of the run.
    One chart over the run answers every k (Chart.ends, Chart.goals);
    reach it through memo."""
    chart = Chart(g, (x,), reverse, run)
    if psi is None:
        return frozenset(chart.ends(x))
    return frozenset([k for k in range(len(run) + 1) if chart.goals(k, psi)])


class Prover:
    """Holds the search memo for one grammar and its axioms; it persists across prove calls.

    Tables derived from the grammar alone live on the grammar (see memo), so
    they are shared by every prover over it: among them the decision of each
    flat sequent (flat_proof).  A new prover thus parses only the flat
    sequents that no earlier query on the grammar decided.  So do the count
    weights (counts.weights), which check the axioms and each type once.
    """

    def __init__(self, g: Grammar, axioms: Sequence[TypingAxiom] = ()):
        self.g = g
        self.axioms = tuple(axioms)
        self._axiom_tokens = frozenset(ax.token for ax in self.axioms)
        self._proofs: dict[Sequent, ProofTree | None] = {}
        self._weights = memo(g, weights, self.axioms)

    def prove(self, s: Sequent) -> SearchResult:
        tree = self._search(s)
        if tree is None:
            return SearchResult(SearchStatus.NOT_FOUND_WITHIN_BOUNDS)
        return SearchResult(SearchStatus.PROVED, proof=ProofTree(tree.rule, tree.premises, tree.detail, s))

    def _search(self, s: Sequent) -> ProofTree | None:
        """A proof of s as a premise, without its conclusion, or None."""
        if s not in self._proofs:
            self._proofs[s] = self._step(s) if self._balanced(s) else None
        return self._proofs[s]

    def _balanced(self, s: Sequent) -> bool:
        """Whether s's antecedent weighs what its succedent does, as every derivable sequent's does."""
        w = self._weights
        return sum(map(w.__getitem__, s.antecedent)) == w[s.succedent]

    def _step(self, s: Sequent) -> ProofTree | None:
        ante, succ = s.antecedent, s.succedent

        if ante == (succ,):
            return ProofTree(RuleName.AX)
        if not ante and isinstance(succ, UnitType):
            return ProofTree(RuleName.EPS_R)

        # A flat sequent (atoms over atom or unit) is decided here, the only
        # place that folds: folds commute upward past every other rule, so no
        # proof needs them elsewhere.  Folds cannot reach a unit or terminal
        # succedent; only a typing axiom can still help where they fail.
        if isinstance(succ, (Atom, UnitType)) and all(isinstance(t, Atom) for t in ante):
            if isinstance(succ, Atom) and not succ.symbol.is_terminal:
                tree = flat_proof(self.g, s)
                if tree is not None:
                    return _premise(tree)
            if not any(t.symbol in self._axiom_tokens for t in ante):
                return None
        for aid, ax in enumerate(self.axioms):
            if ante == (Atom(ax.token),) and succ == ax.type:
                return ProofTree(RuleName.AXIOM, (), (aid,))

        # invertible steps, applied eagerly
        for i, t in enumerate(ante):
            if isinstance(t, UnitType):
                sub = self._search(Sequent(ante[:i] + ante[i + 1 :], succ))
                return None if sub is None else ProofTree(RuleName.EPS_L, (sub,), (i,))
        for i, t in enumerate(ante):
            if isinstance(t, Prod):
                sub = self._search(Sequent(ante[:i] + (t.left, t.right) + ante[i + 1 :], succ))
                return None if sub is None else ProofTree(RuleName.PROD_L, (sub,), (i,))
        if isinstance(succ, Under):
            sub = self._search(Sequent((succ.arg,) + ante, succ.result))
            return None if sub is None else ProofTree(RuleName.UNDER_R, (sub,))
        if isinstance(succ, Over):
            sub = self._search(Sequent(ante + (succ.arg,), succ.result))
            return None if sub is None else ProofTree(RuleName.OVER_R, (sub,))

        for rule, detail, premises in self._moves(ante, succ):
            subs: list[ProofTree] = []
            for prem in premises:
                sub = self._search(prem)
                if sub is None:
                    break
                subs.append(sub)
            else:
                return ProofTree(rule, tuple(subs), detail)
        return None

    def _moves(
        self, ante: tuple[LambekType, ...], succ: LambekType
    ) -> Iterator[tuple[RuleName, tuple, tuple[Sequent, ...]]]:
        # lexicon folds: cut a token against its typing axiom
        for i, t in enumerate(ante):
            if isinstance(t, Atom):
                for ax in self.axioms:
                    if t.symbol == ax.token:
                        prem1 = Sequent((t,), ax.type)
                        prem2 = Sequent(ante[:i] + (ax.type,) + ante[i + 1 :], succ)
                        yield (RuleName.CUT, (i, i + 1, ax.type), (prem1, prem2))

        # each split rule's premises that may be flat, as _splits reads them;
        # the outer premise only beside a functor at the antecedent's edge
        n = len(ante)
        for i, t in enumerate(ante):
            if isinstance(t, Under):
                outer = (succ, 0, False, t.result) if i == n - 1 else None
                for j in self._splits(ante, range(i + 1), (t.arg, i, True, None), outer):
                    prem1 = Sequent(ante[j:i], t.arg)
                    prem2 = Sequent(ante[:j] + (t.result,) + ante[i + 1 :], succ)
                    yield (RuleName.UNDER_L, (i, j), (prem1, prem2))
            elif isinstance(t, Over):
                outer = (succ, n, True, t.result) if i == 0 else None
                for j in self._splits(ante, range(i + 1, n + 1), (t.arg, i + 1, False, None), outer):
                    prem1 = Sequent(ante[i + 1 : j], t.arg)
                    prem2 = Sequent(ante[:i] + (t.result,) + ante[j:], succ)
                    yield (RuleName.OVER_L, (i, j), (prem1, prem2))

        if isinstance(succ, Prod):
            for k in self._splits(ante, range(n + 1), (succ.left, 0, False, None), (succ.right, n, True, None)):
                yield (RuleName.PROD_R, (k,), (Sequent(ante[:k], succ.left), Sequent(ante[k:], succ.right)))

    def _plain(self, t: LambekType) -> bool:
        return isinstance(t, Atom) and t.symbol not in self._axiom_tokens

    def _splits(self, ante: tuple[LambekType, ...], splits: range, *flat: tuple | None) -> Iterator[int]:
        """The splits in order, but those after the first at which a flat premise fails are dropped.

        A premise (x, e, right, psi) of flat is the antecedent between
        position e and the split, then psi at the split end if given, over
        x.  Where it is flat, x derives it exactly when the distance from e
        to the split is among the ends of one chart over the longest run of
        atoms from e (see _run_ends).  The ends are read only once the first
        split has failed, and only where three or more splits would read them:
        on fewer, a chart costs more than the parses it replaces.
        """
        yield splits[0]
        rest = splits[1:]
        for x, e, right, psi in filter(None, flat) if len(rest) > 2 else ():
            if not isinstance(x, Atom) or x.symbol.is_terminal or (psi is not None and not self._plain(psi)):
                continue
            run = []
            for p in range(e - 1, -1, -1) if right else range(e, len(ante)):
                if not self._plain(ante[p]):
                    break
                run.append(ante[p].symbol)
            # no three splits lie within a run of one atom
            inside = [s for s in rest if abs(s - e) <= len(run)] if len(run) > 1 else ()
            if len(inside) < 3:
                continue
            ends = memo(self.g, _run_ends, tuple(run), x.symbol, right, psi and psi.symbol)
            rest = [s for s in rest if abs(s - e) > len(run) or abs(s - e) in ends]
        yield from rest


class CheckResult(Value):
    __slots__ = ("ok", "path", "reason")

    def __init__(self, ok: bool, path: tuple[int, ...] | None = None, reason: str | None = None) -> None:
        set_field(self, "ok", ok)
        set_field(self, "path", path)
        set_field(self, "reason", reason)


def _reject(path: tuple[int, ...], reason: str) -> CheckResult:
    return CheckResult(False, path, reason)


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _detail_error(rule: RuleName, d: object) -> str | None:
    """Why d is not a detail of rule's fields, or None."""
    names = _DETAIL_FIELDS.get(rule)
    if names is None:
        return None if d is None else "takes no detail"
    if not (isinstance(d, tuple) and len(d) == len(names)):
        return f"needs a detail of {len(names)} fields ({', '.join(names)})"
    for name, v in zip(names, d):
        if name == "formula" and not isinstance(v, LambekType):
            return "needs a type as 'formula'"
        if name != "formula" and not _is_int(v):
            return f"needs an integer as {name!r}"
    return None


def _premises(
    rule: RuleName, d: tuple, ante: tuple[LambekType, ...], succ: LambekType
) -> tuple[Sequent, ...] | str:
    """The premises that rule and its well-formed detail d fix under ante ⊢ succ, or why they do not fit.

    Leaves fix none; whether a GRAM or AXIOM leaf cites an axiom of its
    sequent is for _cites to say.
    """
    if rule is RuleName.AX:
        return () if ante == (succ,) else "conclusion must be phi |- phi"
    if rule is RuleName.EPS_R:
        return () if not ante and isinstance(succ, UnitType) else "conclusion must be |- 1"
    if rule in (RuleName.GRAM, RuleName.AXIOM):
        return ()
    if rule is RuleName.EPS_L:
        (i,) = d
        if not (0 <= i < len(ante) and isinstance(ante[i], UnitType)):
            return "position must hold the unit type"
        return (Sequent(ante[:i] + ante[i + 1 :], succ),)
    if rule is RuleName.PROD_L:
        (i,) = d
        if not (0 <= i < len(ante) and isinstance(ante[i], Prod)):
            return "position must hold a product"
        return (Sequent(ante[:i] + (ante[i].left, ante[i].right) + ante[i + 1 :], succ),)
    if rule is RuleName.UNDER_R:
        if not isinstance(succ, Under):
            return "succedent must be an Under type"
        return (Sequent((succ.arg,) + ante, succ.result),)
    if rule is RuleName.OVER_R:
        if not isinstance(succ, Over):
            return "succedent must be an Over type"
        return (Sequent(ante + (succ.arg,), succ.result),)
    if rule is RuleName.PROD_R:
        (k,) = d
        if not (isinstance(succ, Prod) and 0 <= k <= len(ante)):
            return "needs a product succedent and a split of the antecedent"
        return (Sequent(ante[:k], succ.left), Sequent(ante[k:], succ.right))
    if rule is RuleName.UNDER_L:
        i, j = d
        if not (0 <= j <= i < len(ante) and isinstance(ante[i], Under)):
            return "position must hold an Under type, at or after the start"
        return (Sequent(ante[j:i], ante[i].arg), Sequent(ante[:j] + (ante[i].result,) + ante[i + 1 :], succ))
    if rule is RuleName.OVER_L:
        i, j = d
        if not (0 <= i < j <= len(ante) and isinstance(ante[i], Over)):
            return "position must hold an Over type, before the stop"
        return (Sequent(ante[i + 1 : j], ante[i].arg), Sequent(ante[:i] + (ante[i].result,) + ante[j:], succ))
    # CUT, the one rule left, and the one whose premises its conclusion does
    # not fix: its detail carries the cut formula
    i, j, chi = d
    if not 0 <= i <= j <= len(ante):
        return "needs a valid segment"
    return (Sequent(ante[i:j], chi), Sequent(ante[:i] + (chi,) + ante[j:], succ))


def _replay(node: ProofTree, s: Sequent | None) -> tuple[Sequent, ...] | str:
    """The conclusions of node's premises, replayed from its own conclusion s, or why they cannot be."""
    if not isinstance(node, ProofTree):
        return f"the node is a {type(node).__name__}, not a ProofTree"
    rule = node.rule
    if not isinstance(s, Sequent):
        return "the root stores no conclusion"
    if not isinstance(rule, RuleName):
        return f"unknown rule {rule!r}"
    want = _detail_error(rule, node.detail) or _premises(rule, node.detail, s.antecedent, s.succedent)
    if isinstance(want, str):
        return f"{rule.value} {want}"
    if len(node.premises) != len(want):
        return f"{rule.value} expects {len(want)} premises, got {len(node.premises)}"
    return want


def _replayed(t: ProofTree) -> Iterator[tuple[ProofTree, tuple[int, ...], Sequent | None, str | None]]:
    """Each node of t in preorder, with its path, its conclusion replayed top-down
    from the root's, and why its premises cannot be replayed, or None.

    The premises of a node that does not replay are not visited.  A stack,
    because flat proofs are as deep as their antecedents are long.
    """
    root = t.conclusion if isinstance(t, ProofTree) else None
    stack: list[tuple[ProofTree, tuple[int, ...], Sequent | None]] = [(t, (), root)]
    while stack:
        node, path, s = stack.pop()
        want = _replay(node, s)
        if isinstance(want, str):
            yield node, path, s, want
        else:
            yield node, path, s, None
            stack.extend((node.premises[k], path + (k,), want[k]) for k in range(len(want) - 1, -1, -1))


def _cites(g: Grammar, axioms: tuple[TypingAxiom, ...], node: ProofTree, s: Sequent) -> str | None:
    """Why node, a GRAM or AXIOM leaf under s, does not cite s, or None; None for any other rule."""
    ante, succ = s.antecedent, s.succedent
    if node.rule is RuleName.GRAM:
        (pid,) = node.detail
        if not 0 <= pid < len(g.productions):
            return "needs a valid production index"
        p = g.productions[pid]
        if ante != tuple(map(Atom, p.rhs)) or succ != Atom(p.lhs):
            return "conclusion does not match the cited production"
    if node.rule is RuleName.AXIOM:
        (aid,) = node.detail
        if not 0 <= aid < len(axioms):
            return "needs a valid axiom index"
        ax = axioms[aid]
        if ante != (Atom(ax.token),) or succ != ax.type:
            return "conclusion does not match the cited axiom"
    return None


def check_proof(g: Grammar, t: ProofTree, axioms: Sequence[TypingAxiom] = ()) -> CheckResult:
    """Replay every node from the root's conclusion, the one a proof stores.

    Each node's rule and detail must fit the sequent its parent's replay
    gives it, and each GRAM or AXIOM leaf must cite a production or typing
    axiom that is exactly that sequent.  Returns the first failure in
    preorder, with its path and reason.
    """
    axioms = tuple(axioms)
    for node, path, s, why in _replayed(t):
        if path and isinstance(node, ProofTree) and node.conclusion is not None:
            return _reject(path, "only the root stores a conclusion")
        if why is not None:
            return _reject(path, why)
        why = _cites(g, axioms, node, s)
        if why is not None:
            return _reject(path, f"{node.rule.value} {why}")
    return CheckResult(True)


class Side(enum.Enum):
    LEFT = "Left"
    RIGHT = "Right"


def _l_step(t: ProofTree, k: ProofTree, side: Side) -> tuple[ProofTree, tuple[LambekType, ...]]:
    """Feed t's conclusion Φ ⊢ φ to the edge ψ of the continuation k: the
    L-step and its antecedent, under k's succedent.

    Left:  from ψ Π ⊢ π build (ψ/φ) Φ Π ⊢ π by OVER_L.
    Right: from Π ψ ⊢ π build Π Φ (φ\\ψ) ⊢ π by UNDER_L.
    """
    ctx, phi = t.conclusion.antecedent, t.conclusion.succedent
    rest = k.conclusion.antecedent
    if not rest:
        raise TacticError("the continuation's antecedent is empty, so it has no type to consume")
    premises = (_premise(t), _premise(k))
    if side is Side.LEFT:
        return ProofTree(RuleName.OVER_L, premises, (0, 1 + len(ctx))), (Over(rest[0], phi),) + ctx + rest[1:]
    ante = rest[:-1] + ctx + (Under(phi, rest[-1]),)
    return ProofTree(RuleName.UNDER_L, premises, (len(ante) - 1, len(rest) - 1)), ante


def _cut_functor(f: ProofTree, step: ProofTree, ante: tuple[LambekType, ...], i: int) -> ProofTree:
    """Cut f, a proof of Ψ ⊢ fun, into the L-step of antecedent ante under
    fun's result, whose functor at position i must be fun."""
    fun = f.conclusion.succedent
    if ante[i] != fun:
        raise TacticError(f"argument type {render_type(ante[i].arg)} does not match {render_type(fun)}")
    ctx = f.conclusion.antecedent
    conclusion = Sequent(ante[:i] + ctx + ante[i + 1 :], fun.result)
    return ProofTree(RuleName.CUT, (_premise(f), step), (i, i + len(ctx), fun), conclusion)


def elim_under(left: ProofTree, right: ProofTree) -> ProofTree:
    """From Φ ⊢ φ and Ψ ⊢ φ\\ψ build Φ Ψ ⊢ ψ."""
    fun = right.conclusion.succedent
    if not isinstance(fun, Under):
        raise TacticError(f"right proof must conclude an Under type, got {render_type(fun)}")
    return _cut_functor(right, *_l_step(left, _ax(fun.result), Side.RIGHT), len(left.conclusion.antecedent))


def elim_over(left: ProofTree, right: ProofTree) -> ProofTree:
    """From Φ ⊢ ψ/φ and Ψ ⊢ φ build Φ Ψ ⊢ ψ."""
    fun = left.conclusion.succedent
    if not isinstance(fun, Over):
        raise TacticError(f"left proof must conclude an Over type, got {render_type(fun)}")
    return _cut_functor(left, *_l_step(right, _ax(fun.result), Side.LEFT), 0)


def capture(t: ProofTree, k: ProofTree, side: Side) -> ProofTree:
    """Double negation with the continuation k: one L-step under an R-rule.

    Left:  from Φ ⊢ φ and ψ Π ⊢ π build Φ Π ⊢ (ψ/φ)\\π  (the value fits
    where a rightward ψ-producer expects a φ).  Right: from Φ ⊢ φ and
    Π ψ ⊢ π build Π Φ ⊢ π/(φ\\ψ).
    """
    step, ante = _l_step(t, k, side)
    pi = k.conclusion.succedent
    if side is Side.LEFT:
        return ProofTree(RuleName.UNDER_R, (step,), conclusion=Sequent(ante[1:], Under(ante[0], pi)))
    return ProofTree(RuleName.OVER_R, (step,), conclusion=Sequent(ante[:-1], Over(pi, ante[-1])))


def dni(t: ProofTree, psi: LambekType, side: Side) -> ProofTree:
    """Double-negation introduction: capture with the identity continuation ψ ⊢ ψ.

    Left:  from Φ ⊢ φ build Φ ⊢ (ψ/φ)\\ψ.  Right: from Φ ⊢ φ build Φ ⊢ ψ/(φ\\ψ).
    """
    return capture(t, _ax(psi), side)


def _detail_to_json(rule: RuleName, d: tuple | None) -> dict | None:
    if d is None:
        return None
    return {name: render_type(v) if name == "formula" else v for name, v in zip(_DETAIL_FIELDS[rule], d)}


def _detail_from_json(rule: RuleName, obj: object, g: Grammar) -> tuple | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ValueError(f"rule {rule.value} needs an object or null as its detail")
    values = {name: obj.get(name) for name in _DETAIL_FIELDS.get(rule, ())}
    d = tuple(parse_type(v, g) if name == "formula" and isinstance(v, str) else v for name, v in values.items())
    why = _detail_error(rule, d)
    if why is not None:
        raise ValueError(f"rule {rule.value} {why}")
    return d


def proof_to_json(t: ProofTree) -> dict:
    """Nested objects of rule, detail and premises; only the root's carries its conclusion."""
    ante, succ = t.conclusion.antecedent, t.conclusion.succedent
    root = {"conclusion": {"antecedent": [render_type(x) for x in ante], "succedent": render_type(succ)}}
    stack = [(t, root)]
    while stack:
        node, obj = stack.pop()
        obj.update(rule=node.rule.value, detail=_detail_to_json(node.rule, node.detail), premises=[])
        for p in node.premises:
            obj["premises"].append({})
            stack.append((p, obj["premises"][-1]))
    return root


def _field(obj: object, key: str, kind: type, what: str):
    """obj[key], which must be of kind; ValueError unless obj is an object that holds one."""
    if not isinstance(obj, dict) or not isinstance(obj.get(key), kind):
        raise ValueError(f"a proof node needs {what} as {key!r}")
    return obj[key]


def proof_from_json(obj: dict, g: Grammar) -> ProofTree:
    """The proof that proof_to_json wrote; ValueError on JSON of any other shape."""
    c = _field(obj, "conclusion", dict, "an object")
    ante = _field(c, "antecedent", list, "a list")
    if not all(isinstance(x, str) for x in ante):
        raise ValueError("a proof node needs a list of strings as 'antecedent'")
    succ = parse_type(_field(c, "succedent", str, "a string"), g)
    conclusion = Sequent(tuple(parse_type(x, g) for x in ante), succ)
    # postorder: a node is built once its premises sit on top of `built`
    built: list[ProofTree] = []
    stack = [(obj, False)]
    while stack:
        o, premises_built = stack.pop()
        prems = _field(o, "premises", list, "a list")
        if not premises_built:
            if o is not obj and "conclusion" in o:
                raise ValueError("only the root proof node may hold a 'conclusion'")
            stack.append((o, True))
            stack.extend((p, False) for p in reversed(prems))
            continue
        rule = RuleName(_field(o, "rule", str, "a string"))
        first = len(built) - len(prems)
        premises = tuple(built[first:])
        del built[first:]
        detail = _detail_from_json(rule, o.get("detail"), g)
        built.append(ProofTree(rule, premises, detail, conclusion if o is obj else None))
    return built[0]


def render_proof(t: ProofTree) -> str:
    """The proof as indented text, one sequent per line, premises below.

    Each conclusion below the root's is replayed; ValueError where the
    proof does not replay.  Each distinct type is rendered once: a flat
    proof repeats its antecedent's types on every line.
    """
    text: dict[LambekType, str] = {}

    def render(x: LambekType) -> str:
        out = text.get(x)
        if out is None:
            out = text[x] = render_type(x)
        return out

    lines: list[str] = []
    for node, path, s, why in _replayed(t):
        if why is not None:
            raise ValueError(f"the proof does not replay at {path}: {why}")
        lines.append("  " * len(path) + f"{render_sequent(s, render)}   [{node.rule.value}]")
    return "\n".join(lines)
