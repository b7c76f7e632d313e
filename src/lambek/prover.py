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
applied eagerly; everything else backtracks.  The search never tries a
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
decides the sequent and lays out the whole fold chain (flat_proof).  A production's fold
cuts the production's GRAM axiom in where its right-hand side stands, with
a proof of  ⊢ X  cut in for each nullable X the parse leaves out.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .earley import Ambiguous, ParseTree, Reject, Splits, parse_tree
# not called here, but perfbench/spans.py rebinds lambek.prover.recognize and fails without it
from .earley import recognize  # noqa: F401
from .grammar import Grammar, Symbol, Word, lhs_index, memo, nullable_ids, production_ids
from .types import (
    Atom,
    LambekType,
    Over,
    Prod,
    Sequent,
    Under,
    UnitType,
    iter_atoms,
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


@dataclass(frozen=True)
class ProofTree:
    """A rule, its detail and its premises.  Only the root stores its
    conclusion; every other node's follows from its parent's, rule and
    detail, and is replayed where it is needed (see _replay)."""

    rule: RuleName
    premises: tuple["ProofTree", ...] = ()
    detail: tuple | None = None
    conclusion: Sequent | None = None


@dataclass(frozen=True)
class TypingAxiom:
    """A non-logical axiom  token ⊢ type,  e.g. a pronoun's lexical typing."""

    token: Symbol
    type: LambekType


def parse_axiom(text: str, g: Grammar) -> TypingAxiom:
    from .types import parse_sequent

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


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    proof: ProofTree | None = None
    counterexample: Word | None = None

    @property
    def proved(self) -> bool:
        return self.status is SearchStatus.PROVED


class TacticError(ValueError):
    """A tactic was applied to proofs whose types do not fit together."""


def _atoms(rhs: Sequence[Symbol]) -> tuple[LambekType, ...]:
    return tuple(Atom(s) for s in rhs)


def _rhs_atoms(g: Grammar) -> list[tuple[LambekType, ...]]:
    """Each production's right-hand side as atoms, by id; reach it through memo."""
    return [_atoms(p.rhs) for p in g.productions]


def _ax(t: LambekType) -> ProofTree:
    return ProofTree(RuleName.AX, conclusion=Sequent((t,), t))


def _premise(t: ProofTree) -> ProofTree:
    """t as a premise, whose conclusion its parent fixes."""
    return replace(t, conclusion=None)


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


def fold_chain(g: Grammar, s: Sequent, tree: ParseTree) -> ProofTree:
    """The proof of flat s that folds tree, a parse of its antecedent's symbols.

    Each node of a production of g folds once, bottom-up and left to right,
    as a cut against its segment proof; children with an empty yield are
    skipped, and nonterminal leaves are the antecedent atoms themselves.
    The root folds last, and its segment proof proves what is left.
    """
    ids = memo(g, production_ids)
    folds: list[tuple[int, int, Symbol, ProofTree]] = []  # (slot, children kept, symbol, segment proof)
    # (node, the slot of its first child, children folded); a folded child
    # takes one slot, a child with an empty yield none
    stack = [(tree, 0, False)]
    while stack:
        node, pos, children_done = stack.pop()
        if children_done:
            skipped = tuple(k for k in range(len(node.production.rhs)) if not node.children[k].word)
            seg = memo(g, _segment_proof, ids[node.production], skipped)
            folds.append((pos, len(node.production.rhs) - len(skipped), node.production.lhs, seg))
            continue
        stack.append((node, pos, True))
        kept = [c for c in node.children if c.word]
        stack.extend((c, pos + k, False) for k, c in reversed(list(enumerate(kept))) if c.production in ids)

    # below the root's fold, each cut unfolds its premise's nonterminal at
    # pos back into the segment
    *cuts, (_, _, _, proof) = folds
    for pos, width, x, seg in reversed(cuts):
        proof = ProofTree(RuleName.CUT, (seg, proof), (pos, pos + width, Atom(x)))
    return replace(proof, conclusion=s)


def flat_proof(g: Grammar, s: Sequent) -> ProofTree | None:
    """The grammar's proof of s, atoms over a nonterminal atom, or None when it has none.

    AX when the antecedent is the succedent, else GRAM when it is the
    right-hand side of one of the succedent's productions, else the fold
    chain of the antecedent's first parse.  Folds read backward are
    derivation steps, and skips and insertions are ordinary empty
    derivations, so s folds exactly when the goal derives the antecedent's
    symbols as a sentential form.
    """
    ante, succ = s.antecedent, s.succedent
    if ante == (succ,):
        return ProofTree(RuleName.AX, conclusion=s)
    rhs = memo(g, _rhs_atoms)
    for pid in memo(g, lhs_index)[succ.symbol]:
        if ante == rhs[pid]:
            return ProofTree(RuleName.GRAM, (), (pid,), s)
    outcome = parse_tree(g, succ.symbol, tuple(t.symbol for t in ante))
    if isinstance(outcome, Reject):
        return None
    return fold_chain(g, s, outcome.first if isinstance(outcome, Ambiguous) else outcome.tree)


def require_declared(g: Grammar, s: Sequent) -> None:
    """Raise ValueError unless every atom of s is a symbol of g."""
    for t in (*s.antecedent, s.succedent):
        for sym in iter_atoms(t):
            if sym not in g.terminals and sym not in g.nonterminals:
                raise ValueError(f"atom {sym.name!r} is not declared in the grammar")


class Prover:
    """Holds search state for one grammar; memo tables persist across prove calls.

    Tables derived from the grammar alone live on the grammar (see memo), so
    they are shared by every prover over it.
    """

    def __init__(self, g: Grammar, axioms: Sequence[TypingAxiom] = ()):
        self.g = g
        self.axioms = tuple(axioms)
        self._axiom_tokens = frozenset(ax.token for ax in self.axioms)
        for ax in self.axioms:
            if ax.token not in g.terminals:
                raise ValueError(f"axiom token {ax.token.name!r} is not a declared terminal")
            named = next((a for a in iter_atoms(ax.type) if a in self._axiom_tokens), None)
            if named is not None:
                # a lexicon cut must trade its token for a type free of tokens,
                # or the search need not terminate
                raise ValueError(f"axiom type {render_type(ax.type)!r} names the axiom token {named.name!r}")
        self._proofs: dict[Sequent, ProofTree | None] = {}
        self._splits: dict[tuple[Symbol, tuple[LambekType, ...], bool], list[int]] = {}

    def prove(self, s: Sequent) -> SearchResult:
        require_declared(self.g, s)
        tree = self._search(s)
        if tree is None:
            return SearchResult(SearchStatus.NOT_FOUND_WITHIN_BOUNDS)
        return SearchResult(SearchStatus.PROVED, proof=replace(tree, conclusion=s))

    def _search(self, s: Sequent) -> ProofTree | None:
        """A proof of s as a premise, without its conclusion, or None."""
        if s not in self._proofs:
            self._proofs[s] = self._step(s)
        return self._proofs[s]

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

    # A split of an L-rule whose argument premise lies inside a run of plain
    # atoms (atoms that are not axiom tokens) gives a flat premise that
    # Earley alone decides, so when the argument is a nonterminal atom the
    # splits are read off one chart over the run; a split that reaches past
    # the run, or an argument of any other type, is tried as is.

    def _plain(self, t: LambekType) -> bool:
        return isinstance(t, Atom) and t.symbol not in self._axiom_tokens

    def _starts(self, ante: tuple[LambekType, ...], i: int, arg: LambekType) -> Iterable[int]:
        """The ascending starts j worth trying for UNDER_L at i: ante[j:i] ⊢ arg."""
        if not (isinstance(arg, Atom) and not arg.symbol.is_terminal):
            return range(i + 1)
        lo = i
        while lo and self._plain(ante[lo - 1]):
            lo -= 1
        js = self._run_splits(arg.symbol, ante[lo:i], True)
        return chain(range(lo), (lo + j for j in js))

    def _stops(self, ante: tuple[LambekType, ...], i: int, arg: LambekType) -> Iterable[int]:
        """The ascending stops j worth trying for OVER_L at i: ante[i + 1:j] ⊢ arg."""
        if not (isinstance(arg, Atom) and not arg.symbol.is_terminal):
            return range(i + 1, len(ante) + 1)
        hi = i + 1
        while hi < len(ante) and self._plain(ante[hi]):
            hi += 1
        ks = self._run_splits(arg.symbol, ante[i + 1 : hi], False)
        return chain((i + 1 + k for k in ks), range(hi + 1, len(ante) + 1))

    def _run_splits(self, x: Symbol, run: tuple[LambekType, ...], suffix: bool) -> list[int]:
        """The ascending k for which x derives run[k:] when suffix, else run[:k].

        One chart per (x, run, side) serves every goal of the prover.
        """
        key = (x, run, suffix)
        ks = self._splits.get(key)
        if ks is None:
            form = tuple(t.symbol for t in run)
            ks = self._splits[key] = Splits(self.g, form, (x,), suffix).ends(x)
        return ks

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

        for i, t in enumerate(ante):
            if isinstance(t, Under):
                for j in self._starts(ante, i, t.arg):
                    prem1 = Sequent(ante[j:i], t.arg)
                    prem2 = Sequent(ante[:j] + (t.result,) + ante[i + 1 :], succ)
                    yield (RuleName.UNDER_L, (i, j), (prem1, prem2))
            elif isinstance(t, Over):
                for j in self._stops(ante, i, t.arg):
                    prem1 = Sequent(ante[i + 1 : j], t.arg)
                    prem2 = Sequent(ante[:i] + (t.result,) + ante[j:], succ)
                    yield (RuleName.OVER_L, (i, j), (prem1, prem2))

        if isinstance(succ, Prod):
            for k in range(len(ante) + 1):
                yield (RuleName.PROD_R, (k,), (Sequent(ante[:k], succ.left), Sequent(ante[k:], succ.right)))


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    path: tuple[int, ...] | None = None
    reason: str | None = None


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
    stack: list[tuple[ProofTree, tuple[int, ...], Sequent | None]] = [(t, (), t.conclusion)]
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
        if ante != _atoms(p.rhs) or succ != Atom(p.lhs):
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
        if path and node.conclusion is not None:
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
        built.append(ProofTree(rule, premises, _detail_from_json(rule, o.get("detail"), g)))
    return replace(built[0], conclusion=conclusion)


def render_proof(t: ProofTree) -> str:
    """The proof as indented text, one sequent per line, premises below.

    Each conclusion below the root's is replayed; ValueError where the
    proof does not replay.
    """
    lines: list[str] = []
    for node, path, s, why in _replayed(t):
        if why is not None:
            raise ValueError(f"the proof does not replay at {path}: {why}")
        lines.append("  " * len(path) + f"{render_sequent(s)}   [{node.rule.value}]")
    return "\n".join(lines)
