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
    CONTRACT  admissible composite: cut against a production, matching the
              right-hand side with nullable symbols optionally skipped; an
              empty match inserts the nonterminal

Search runs backward and goal-directed, with no depth bound and no cycle
check, and memoizes every answer, proof or failure.  Invertible steps
(stripping units, splitting antecedent products, the two right rules) are
applied eagerly; everything else backtracks.  The search never tries a
general cut: the calculus is cut-free (Lambek 1958), so CUT appears in
proofs only as the lexicon fold against a typing axiom and in the
composites the tactics and expand_contract build.

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
decides the sequent and lays out the whole fold chain.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .earley import Ambiguous, ParseTree, Reject, parse_tree, prefix_ends
# not called here, but perfbench/spans.py rebinds lambek.prover.recognize and fails without it
from .earley import recognize  # noqa: F401
from .grammar import Grammar, Symbol, Word, lhs_index, memo, mirror, nullable_ids, production_ids
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
    CONTRACT = "CONTRACT"
    AXIOM = "AXIOM"


@dataclass(frozen=True)
class GramDetail:
    production: int


@dataclass(frozen=True)
class AxiomDetail:
    axiom: int


@dataclass(frozen=True)
class PosDetail:
    pos: int


@dataclass(frozen=True)
class SplitDetail:
    split: int


@dataclass(frozen=True)
class UnderLDetail:
    pos: int
    start: int


@dataclass(frozen=True)
class OverLDetail:
    pos: int
    stop: int


@dataclass(frozen=True)
class CutDetail:
    start: int
    stop: int


@dataclass(frozen=True)
class ContractDetail:
    production: int
    pos: int
    skipped: tuple[int, ...]


Detail = (
    GramDetail
    | AxiomDetail
    | PosDetail
    | SplitDetail
    | UnderLDetail
    | OverLDetail
    | CutDetail
    | ContractDetail
    | None
)

# the detail class each rule carries; rules not listed take none
_DETAIL_CLASS: dict[RuleName, type] = {
    RuleName.GRAM: GramDetail,
    RuleName.AXIOM: AxiomDetail,
    RuleName.EPS_L: PosDetail,
    RuleName.PROD_L: PosDetail,
    RuleName.PROD_R: SplitDetail,
    RuleName.UNDER_L: UnderLDetail,
    RuleName.OVER_L: OverLDetail,
    RuleName.CUT: CutDetail,
    RuleName.CONTRACT: ContractDetail,
}


@dataclass(frozen=True)
class ProofTree:
    conclusion: Sequent
    rule: RuleName
    premises: tuple["ProofTree", ...]
    detail: Detail = None


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
    return ProofTree(Sequent((t,), t), RuleName.AX, ())


def _fold_chain(g: Grammar, s: Sequent, tree: ParseTree) -> ProofTree:
    """The proof of flat s that folds tree, a parse of its antecedent's symbols.

    Each node of a production of g folds once, bottom-up and left to right;
    children with an empty yield are skipped, and nonterminal leaves are the
    antecedent atoms themselves.  An empty antecedent is one insertion
    of the goal.
    """
    ids = memo(g, production_ids)
    folds: list[ContractDetail] = []
    # (node, the slot of its first child, children folded); a folded child
    # takes one slot, a child with an empty yield none
    stack = [(tree, 0, False)]
    while stack:
        node, pos, children_done = stack.pop()
        if children_done:
            skipped = tuple(k for k in range(len(node.production.rhs)) if not node.children[k].word)
            folds.append(ContractDetail(ids[node.production], pos, skipped))
            continue
        stack.append((node, pos, True))
        kept = [c for c in node.children if c.word]
        stack.extend((c, pos + k, False) for k, c in reversed(list(enumerate(kept))) if c.production in ids)

    sequents = [s]
    ante = list(s.antecedent)
    for d in folds:
        p = g.productions[d.production]
        ante[d.pos : d.pos + len(p.rhs) - len(d.skipped)] = [Atom(p.lhs)]
        sequents.append(Sequent(tuple(ante), s.succedent))
    if folds[-1].skipped:
        proof = _ax(s.succedent)
    else:
        proof = ProofTree(sequents[-2], RuleName.GRAM, (), GramDetail(folds.pop().production))
    for k in range(len(folds) - 1, -1, -1):
        proof = ProofTree(sequents[k], RuleName.CONTRACT, (proof,), folds[k])
    return proof


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
        self._ends: dict[tuple[Symbol, tuple[LambekType, ...], bool], list[int]] = {}

    def _flat_proof(self, s: Sequent) -> ProofTree | None:
        """A fold chain proving flat s, or None when folds cannot prove it.

        Folds read backward are derivation steps, and skips and insertions
        are ordinary empty derivations, so s folds exactly when the goal
        derives the antecedent's symbols as a sentential form.
        """
        goal = s.succedent.symbol
        form = tuple(t.symbol for t in s.antecedent)
        outcome = parse_tree(self.g, goal, form)
        if isinstance(outcome, Reject):
            return None
        return _fold_chain(self.g, s, outcome.first if isinstance(outcome, Ambiguous) else outcome.tree)

    def prove(self, s: Sequent) -> SearchResult:
        require_declared(self.g, s)
        tree = self._search(s)
        if tree is None:
            return SearchResult(SearchStatus.NOT_FOUND_WITHIN_BOUNDS)
        return SearchResult(SearchStatus.PROVED, proof=tree)

    def _search(self, s: Sequent) -> ProofTree | None:
        if s not in self._proofs:
            self._proofs[s] = self._step(s)
        return self._proofs[s]

    def _step(self, s: Sequent) -> ProofTree | None:
        ante, succ = s.antecedent, s.succedent

        if ante == (succ,):
            return ProofTree(s, RuleName.AX, ())
        if not ante and isinstance(succ, UnitType):
            return ProofTree(s, RuleName.EPS_R, ())
        if isinstance(succ, Atom) and not succ.symbol.is_terminal:
            rhs = memo(self.g, _rhs_atoms)
            for pid in memo(self.g, lhs_index)[succ.symbol]:
                if ante == rhs[pid]:
                    return ProofTree(s, RuleName.GRAM, (), GramDetail(pid))
        for aid, ax in enumerate(self.axioms):
            if ante == (Atom(ax.token),) and succ == ax.type:
                return ProofTree(s, RuleName.AXIOM, (), AxiomDetail(aid))

        # A flat sequent (atoms over atom or unit) is decided here, the only
        # place that folds: folds commute upward past every other rule, so no
        # proof needs them elsewhere.  Folds cannot reach a unit or terminal
        # succedent; only a lexicon cut can still help where they fail.
        if isinstance(succ, (Atom, UnitType)) and all(isinstance(t, Atom) for t in ante):
            if isinstance(succ, Atom) and not succ.symbol.is_terminal:
                tree = self._flat_proof(s)
                if tree is not None:
                    return tree
            if not any(t.symbol in self._axiom_tokens for t in ante):
                return None

        # invertible steps, applied eagerly
        for i, t in enumerate(ante):
            if isinstance(t, UnitType):
                sub = self._search(Sequent(ante[:i] + ante[i + 1 :], succ))
                return None if sub is None else ProofTree(s, RuleName.EPS_L, (sub,), PosDetail(i))
        for i, t in enumerate(ante):
            if isinstance(t, Prod):
                sub = self._search(Sequent(ante[:i] + (t.left, t.right) + ante[i + 1 :], succ))
                return None if sub is None else ProofTree(s, RuleName.PROD_L, (sub,), PosDetail(i))
        if isinstance(succ, Under):
            sub = self._search(Sequent((succ.arg,) + ante, succ.result))
            return None if sub is None else ProofTree(s, RuleName.UNDER_R, (sub,))
        if isinstance(succ, Over):
            sub = self._search(Sequent(ante + (succ.arg,), succ.result))
            return None if sub is None else ProofTree(s, RuleName.OVER_R, (sub,))

        for rule, detail, premises in self._moves(ante, succ):
            subs: list[ProofTree] = []
            for prem in premises:
                sub = self._search(prem)
                if sub is None:
                    break
                subs.append(sub)
            else:
                return ProofTree(s, rule, tuple(subs), detail)
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
        ks = self._run_ends(arg.symbol, ante[lo:i], True)
        return chain(range(lo), (i - k for k in reversed(ks)))

    def _stops(self, ante: tuple[LambekType, ...], i: int, arg: LambekType) -> Iterable[int]:
        """The ascending stops j worth trying for OVER_L at i: ante[i + 1:j] ⊢ arg."""
        if not (isinstance(arg, Atom) and not arg.symbol.is_terminal):
            return range(i + 1, len(ante) + 1)
        hi = i + 1
        while hi < len(ante) and self._plain(ante[hi]):
            hi += 1
        ks = self._run_ends(arg.symbol, ante[i + 1 : hi], False)
        return chain((i + 1 + k for k in ks), range(hi + 1, len(ante) + 1))

    def _run_ends(self, x: Symbol, run: tuple[LambekType, ...], left: bool) -> list[int]:
        """The ascending k for which x derives the first k atoms of run, or its last k when left.

        The last k come from the mirror grammar over the reversed run.  One
        chart per (x, run, side) serves every goal of the prover.
        """
        key = (x, run, left)
        ks = self._ends.get(key)
        if ks is None:
            if left:
                ks = prefix_ends(memo(self.g, mirror), x, tuple(t.symbol for t in reversed(run)))
            else:
                ks = prefix_ends(self.g, x, tuple(t.symbol for t in run))
            self._ends[key] = ks
        return ks

    def _moves(
        self, ante: tuple[LambekType, ...], succ: LambekType
    ) -> Iterator[tuple[RuleName, Detail, tuple[Sequent, ...]]]:
        # lexicon folds: cut a token against its typing axiom
        for i, t in enumerate(ante):
            if isinstance(t, Atom):
                for ax in self.axioms:
                    if t.symbol == ax.token:
                        prem1 = Sequent((t,), ax.type)
                        prem2 = Sequent(ante[:i] + (ax.type,) + ante[i + 1 :], succ)
                        yield (RuleName.CUT, CutDetail(i, i + 1), (prem1, prem2))

        for i, t in enumerate(ante):
            if isinstance(t, Under):
                for j in self._starts(ante, i, t.arg):
                    prem1 = Sequent(ante[j:i], t.arg)
                    prem2 = Sequent(ante[:j] + (t.result,) + ante[i + 1 :], succ)
                    yield (RuleName.UNDER_L, UnderLDetail(i, j), (prem1, prem2))
            elif isinstance(t, Over):
                for j in self._stops(ante, i, t.arg):
                    prem1 = Sequent(ante[i + 1 : j], t.arg)
                    prem2 = Sequent(ante[:i] + (t.result,) + ante[j:], succ)
                    yield (RuleName.OVER_L, OverLDetail(i, j), (prem1, prem2))

        if isinstance(succ, Prod):
            for k in range(len(ante) + 1):
                yield (
                    RuleName.PROD_R,
                    SplitDetail(k),
                    (Sequent(ante[:k], succ.left), Sequent(ante[k:], succ.right)),
                )


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    path: tuple[int, ...] | None = None
    reason: str | None = None


def _reject(path: tuple[int, ...], reason: str) -> CheckResult:
    return CheckResult(False, path, reason)


def _replay(g: Grammar, axioms: tuple[TypingAxiom, ...], node: ProofTree) -> tuple[Sequent, ...] | str:
    """The premises that node's conclusion, rule and detail fix, or why they do not fit.

    The caller has checked that the detail is of the rule's class.  Only CUT
    reads a premise: its cut formula is the first premise's succedent.
    """
    ante, succ = node.conclusion.antecedent, node.conclusion.succedent
    rule, d = node.rule, node.detail
    if rule is RuleName.AX:
        return () if ante == (succ,) else "conclusion must be phi |- phi"
    if rule is RuleName.EPS_R:
        return () if not ante and isinstance(succ, UnitType) else "conclusion must be |- 1"
    if rule is RuleName.GRAM:
        if not 0 <= d.production < len(g.productions):
            return "needs a valid production index"
        p = g.productions[d.production]
        if ante != _atoms(p.rhs) or succ != Atom(p.lhs):
            return "conclusion does not match the cited production"
        return ()
    if rule is RuleName.AXIOM:
        if not 0 <= d.axiom < len(axioms):
            return "needs a valid axiom index"
        ax = axioms[d.axiom]
        if ante != (Atom(ax.token),) or succ != ax.type:
            return "conclusion does not match the cited axiom"
        return ()
    if rule is RuleName.EPS_L:
        i = d.pos
        if not (0 <= i < len(ante) and isinstance(ante[i], UnitType)):
            return "position must hold the unit type"
        return (Sequent(ante[:i] + ante[i + 1 :], succ),)
    if rule is RuleName.PROD_L:
        i = d.pos
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
        k = d.split
        if not (isinstance(succ, Prod) and 0 <= k <= len(ante)):
            return "needs a product succedent and a split of the antecedent"
        return (Sequent(ante[:k], succ.left), Sequent(ante[k:], succ.right))
    if rule is RuleName.UNDER_L:
        i, j = d.pos, d.start
        if not (0 <= j <= i < len(ante) and isinstance(ante[i], Under)):
            return "position must hold an Under type, at or after the start"
        return (Sequent(ante[j:i], ante[i].arg), Sequent(ante[:j] + (ante[i].result,) + ante[i + 1 :], succ))
    if rule is RuleName.OVER_L:
        i, j = d.pos, d.stop
        if not (0 <= i < j <= len(ante) and isinstance(ante[i], Over)):
            return "position must hold an Over type, before the stop"
        return (Sequent(ante[i + 1 : j], ante[i].arg), Sequent(ante[:i] + (ante[i].result,) + ante[j:], succ))
    if rule is RuleName.CUT:
        if len(node.premises) != 2:
            return f"expects 2 premises, got {len(node.premises)}"
        i, j = d.start, d.stop
        if not 0 <= i <= j <= len(ante):
            return "needs a valid segment"
        chi = node.premises[0].conclusion.succedent
        return (Sequent(ante[i:j], chi), Sequent(ante[:i] + (chi,) + ante[j:], succ))
    # CONTRACT, the one rule left
    if not 0 <= d.production < len(g.productions):
        return "needs a valid production index"
    p = g.productions[d.production]
    if not set(d.skipped) <= set(range(len(p.rhs))) or len(set(d.skipped)) != len(d.skipped):
        return "skip positions must be distinct positions of the production"
    if any(p.rhs[k] not in memo(g, nullable_ids) for k in d.skipped):
        return "may only skip nullable symbols"
    matched = _atoms([sym for k, sym in enumerate(p.rhs) if k not in d.skipped])
    q, m = d.pos, len(matched)
    if not (0 <= q <= len(ante) - m and ante[q : q + m] == matched):
        return "segment does not match the production"
    return (Sequent(ante[:q] + (Atom(p.lhs),) + ante[q + m :], succ),)


def check_proof(g: Grammar, t: ProofTree, axioms: Sequence[TypingAxiom] = ()) -> CheckResult:
    """Replay every node: its premises must conclude what its rule and detail fix.

    Returns the first failure in preorder, with its path and reason.
    """
    axioms = tuple(axioms)
    # premises left to right; a stack, because flat proofs are as deep as
    # their antecedents are long
    stack: list[tuple[ProofTree, tuple[int, ...]]] = [(t, ())]
    while stack:
        node, path = stack.pop()
        if not isinstance(node.rule, RuleName):
            return _reject(path, f"unknown rule {node.rule!r}")
        name, prems = node.rule.value, node.premises
        cls = _DETAIL_CLASS.get(node.rule)
        if cls is None and node.detail is not None:
            return _reject(path, f"{name} takes no detail")
        if cls is not None and not isinstance(node.detail, cls):
            return _reject(path, f"{name} needs a {cls.__name__}")
        want = _replay(g, axioms, node)
        if isinstance(want, str):
            return _reject(path, f"{name} {want}")
        if len(prems) != len(want):
            return _reject(path, f"{name} expects {len(want)} premises, got {len(prems)}")
        for k, (prem, w) in enumerate(zip(prems, want)):
            if prem.conclusion != w:
                return _reject(path, f"{name} premise {k} does not conclude its replayed sequent")
        stack.extend((prems[k], path + (k,)) for k in range(len(prems) - 1, -1, -1))
    return CheckResult(True)


def _empty_word_proof(g: Grammar, a: Symbol, cache: dict[Symbol, ProofTree]) -> ProofTree:
    """A pure GRAM/CUT proof of  ⊢ A  for nullable A."""
    if a in cache:
        return cache[a]
    pid = memo(g, nullable_ids)[a]
    p = g.productions[pid]
    tree = ProofTree(Sequent(_atoms(p.rhs), Atom(a)), RuleName.GRAM, (), GramDetail(pid))
    ante = list(p.rhs)
    for i in range(len(ante) - 1, -1, -1):
        sub = _empty_word_proof(g, ante[i], cache)
        rest = ante[:i] + ante[i + 1 :]
        tree = ProofTree(
            Sequent(_atoms(rest), Atom(a)), RuleName.CUT, (sub, tree), CutDetail(i, i)
        )
        ante = rest
    cache[a] = tree
    return tree


def expand_contract(g: Grammar, node: ProofTree) -> ProofTree:
    """Rewrite a CONTRACT node into the CUT/GRAM composite it abbreviates."""
    if node.rule is not RuleName.CONTRACT:
        raise ValueError("not a CONTRACT node")
    d = node.detail
    p = g.productions[d.production]
    matched = [sym for k, sym in enumerate(p.rhs) if k not in d.skipped]
    cache: dict[Symbol, ProofTree] = {}
    seg_proof = ProofTree(
        Sequent(_atoms(p.rhs), Atom(p.lhs)), RuleName.GRAM, (), GramDetail(d.production)
    )
    ante = list(p.rhs)
    for k in sorted(d.skipped, reverse=True):
        sub = _empty_word_proof(g, p.rhs[k], cache)
        ante.pop(k)
        seg_proof = ProofTree(
            Sequent(_atoms(ante), Atom(p.lhs)), RuleName.CUT, (sub, seg_proof), CutDetail(k, k)
        )
    return ProofTree(
        node.conclusion,
        RuleName.CUT,
        (seg_proof, node.premises[0]),
        CutDetail(d.pos, d.pos + len(matched)),
    )


class Side(enum.Enum):
    LEFT = "Left"
    RIGHT = "Right"


def elim_under(left: ProofTree, right: ProofTree) -> ProofTree:
    """From Φ ⊢ φ and Ψ ⊢ φ\\ψ build Φ Ψ ⊢ ψ."""
    fun = right.conclusion.succedent
    if not isinstance(fun, Under):
        raise TacticError(f"right proof must conclude an Under type, got {render_type(fun)}")
    if left.conclusion.succedent != fun.arg:
        raise TacticError(
            f"argument type {render_type(left.conclusion.succedent)} does not match {render_type(fun)}"
        )
    phi_ctx = left.conclusion.antecedent
    psi_ctx = right.conclusion.antecedent
    step = ProofTree(
        Sequent(phi_ctx + (fun,), fun.result),
        RuleName.UNDER_L,
        (left, _ax(fun.result)),
        UnderLDetail(pos=len(phi_ctx), start=0),
    )
    return ProofTree(
        Sequent(phi_ctx + psi_ctx, fun.result),
        RuleName.CUT,
        (right, step),
        CutDetail(len(phi_ctx), len(phi_ctx) + len(psi_ctx)),
    )


def elim_over(left: ProofTree, right: ProofTree) -> ProofTree:
    """From Φ ⊢ ψ/φ and Ψ ⊢ φ build Φ Ψ ⊢ ψ."""
    fun = left.conclusion.succedent
    if not isinstance(fun, Over):
        raise TacticError(f"left proof must conclude an Over type, got {render_type(fun)}")
    if right.conclusion.succedent != fun.arg:
        raise TacticError(
            f"argument type {render_type(right.conclusion.succedent)} does not match {render_type(fun)}"
        )
    phi_ctx = left.conclusion.antecedent
    psi_ctx = right.conclusion.antecedent
    step = ProofTree(
        Sequent((fun,) + psi_ctx, fun.result),
        RuleName.OVER_L,
        (right, _ax(fun.result)),
        OverLDetail(pos=0, stop=1 + len(psi_ctx)),
    )
    return ProofTree(
        Sequent(phi_ctx + psi_ctx, fun.result),
        RuleName.CUT,
        (left, step),
        CutDetail(0, len(phi_ctx)),
    )


def dni(t: ProofTree, psi: LambekType, side: Side) -> ProofTree:
    """Double-negation introduction.

    Left:  from Φ ⊢ φ build Φ ⊢ (ψ/φ)\\ψ  (the value fits where a rightward
    ψ-producer expects a φ).  Right: from Φ ⊢ φ build Φ ⊢ ψ/(φ\\ψ).
    """
    phi = t.conclusion.succedent
    ctx = t.conclusion.antecedent
    if side is Side.LEFT:
        step = ProofTree(
            Sequent((Over(psi, phi),) + ctx, psi),
            RuleName.OVER_L,
            (t, _ax(psi)),
            OverLDetail(pos=0, stop=1 + len(ctx)),
        )
        return ProofTree(Sequent(ctx, Under(Over(psi, phi), psi)), RuleName.UNDER_R, (step,))
    step = ProofTree(
        Sequent(ctx + (Under(phi, psi),), psi),
        RuleName.UNDER_L,
        (t, _ax(psi)),
        UnderLDetail(pos=len(ctx), start=0),
    )
    return ProofTree(Sequent(ctx, Over(psi, Under(phi, psi))), RuleName.OVER_R, (step,))


def _detail_to_json(detail: Detail) -> dict | None:
    if detail is None:
        return None
    out = {f.name: getattr(detail, f.name) for f in fields(detail)}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _detail_from_json(rule: RuleName, obj: dict | None) -> Detail:
    if obj is None:
        return None
    cls = _DETAIL_CLASS.get(rule)
    if cls is None:
        raise ValueError(f"rule {rule.value} takes no detail")
    args = []
    for f in fields(cls):
        v = obj.get(f.name)
        if f.name == "skipped":
            if not (isinstance(v, list) and all(map(_is_int, v))):
                raise ValueError(f"rule {rule.value} needs a list of integers as {f.name!r}")
            v = tuple(v)
        elif not _is_int(v):
            raise ValueError(f"rule {rule.value} needs an integer as {f.name!r}")
        args.append(v)
    return cls(*args)


def _node_to_json(t: ProofTree) -> dict:
    return {
        "conclusion": {
            "antecedent": [render_type(x) for x in t.conclusion.antecedent],
            "succedent": render_type(t.conclusion.succedent),
        },
        "rule": t.rule.value,
        "detail": _detail_to_json(t.detail),
        "premises": [],
    }


def proof_to_json(t: ProofTree) -> dict:
    root = _node_to_json(t)
    stack = [(t, root)]
    while stack:
        node, obj = stack.pop()
        for p in node.premises:
            obj["premises"].append(_node_to_json(p))
            stack.append((p, obj["premises"][-1]))
    return root


def proof_from_json(obj: dict, g: Grammar) -> ProofTree:
    # postorder: a node is built once its premises sit on top of `built`
    built: list[ProofTree] = []
    stack = [(obj, False)]
    while stack:
        o, premises_built = stack.pop()
        if not premises_built:
            stack.append((o, True))
            stack.extend((p, False) for p in reversed(o["premises"]))
            continue
        rule = RuleName(o["rule"])
        conclusion = Sequent(
            tuple(parse_type(x, g) for x in o["conclusion"]["antecedent"]),
            parse_type(o["conclusion"]["succedent"], g),
        )
        first = len(built) - len(o["premises"])
        premises = tuple(built[first:])
        del built[first:]
        built.append(ProofTree(conclusion, rule, premises, _detail_from_json(rule, o.get("detail"))))
    return built[0]


def render_proof(t: ProofTree) -> str:
    """The proof as indented text, one sequent per line, premises below."""
    lines: list[str] = []
    stack = [(t, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append("  " * depth + f"{render_sequent(node.conclusion)}   [{node.rule.value}]")
        stack.extend((p, depth + 1) for p in reversed(node.premises))
    return "\n".join(lines)
