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
              empty match inserts the nonterminal and is charged against the
              insertion budget

Search runs backward, goal-directed, depth-bounded, with memoization of both
successes and exhaustive failures.  Invertible steps (stripping units,
splitting antecedent products, the two right rules) are applied eagerly;
everything else backtracks.  The search never tries a general cut: the
calculus is cut-free (Lambek 1958), so CUT appears in proofs only as the
lexicon fold against a typing axiom and in the composites the tactics and
expand_contract build.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from itertools import combinations
from typing import Iterator, Sequence

from .earley import recognize
from .grammar import Grammar, Production, Symbol, Word, lhs_index, memo, nullable_ids, terminal
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


@dataclass(frozen=True)
class SearchConfig:
    max_depth: int = 40
    insert_budget: int = 2


class SearchStatus(enum.Enum):
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


def _ax(t: LambekType) -> ProofTree:
    return ProofTree(Sequent((t,), t), RuleName.AX, ())


def _fold_templates(g: Grammar) -> list[tuple[int, tuple[int, ...], tuple[Symbol, ...], Atom]]:
    """(production id, skipped positions, matched symbols, lhs atom) per fold.

    Exact right-hand sides come before skipped ones; empty matches are
    insertions, not folds.
    """
    nullable = memo(g, nullable_ids)
    out = []
    for pid, prod in enumerate(g.productions):
        nullable_pos = [k for k, sym in enumerate(prod.rhs) if sym in nullable]
        for size in range(len(nullable_pos) + 1):
            for pattern in combinations(nullable_pos, size):
                matched = tuple(sym for k, sym in enumerate(prod.rhs) if k not in pattern)
                if matched:
                    out.append((pid, pattern, matched, Atom(prod.lhs)))
    return out


def _insertions(g: Grammar) -> list[tuple[Atom, int, tuple[int, ...]]]:
    """(atom, witness production id, all its positions) per nullable, by name."""
    return [
        (Atom(a), pid, tuple(range(len(g.productions[pid].rhs))))
        for a, pid in sorted(memo(g, nullable_ids).items(), key=lambda item: item[0].name)
    ]


def _lifted(g: Grammar) -> tuple[Grammar, dict[Symbol, Symbol]]:
    """g plus, for each nonterminal X, a fresh token 'X with X ::= 'X."""
    taken = {s.name for s in g.terminals | g.nonterminals}
    lift: dict[Symbol, Symbol] = {}
    extra: list[Production] = []
    for x in sorted(g.nonterminals, key=lambda s: s.name):
        name = f"'{x.name}"
        while name in taken:
            name += "'"
        taken.add(name)
        lift[x] = terminal(name)
        extra.append(Production(x, (lift[x],)))
    g2 = Grammar(g.terminals | frozenset(lift.values()), g.nonterminals, g.productions + tuple(extra), g.start)
    return g2, lift


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

    def __init__(self, g: Grammar, cfg: SearchConfig = SearchConfig(), axioms: Sequence[TypingAxiom] = ()):
        self.g = g
        self.cfg = cfg
        self.axioms = tuple(axioms)
        for ax in self.axioms:
            if ax.token not in g.terminals:
                raise ValueError(f"axiom token {ax.token.name!r} is not a declared terminal")
        self._ok: dict[Sequent, tuple[int, ProofTree]] = {}
        self._fail: dict[Sequent, int] = {}
        self._axiom_tokens = frozenset(ax.token for ax in self.axioms)
        self._foldable_cache: dict[tuple[tuple[Symbol, ...], Symbol], bool] = {}

    def _fold_reachable(self, symbols: tuple[Symbol, ...], goal: Symbol) -> bool:
        """Whether the grammar derives this sentential form from goal.

        Folds read backward are derivation steps, and skips and insertions
        are ordinary empty derivations, so an all-atom sequent is derivable
        (at an unlimited insertion budget) exactly when the goal derives the
        antecedent as a sentential form.  That is recognition in a lifted
        grammar where each nonterminal also matches a private token standing
        for itself.
        """
        key = (symbols, goal)
        cached = self._foldable_cache.get(key)
        if cached is None:
            g2, lift = memo(self.g, _lifted)
            word = tuple(lift.get(x, x) for x in symbols)
            cached = recognize(g2, goal, word)
            self._foldable_cache[key] = cached
        return cached

    def prove(self, s: Sequent) -> SearchResult:
        require_declared(self.g, s)
        tree, _ = self._search(s, self.cfg.max_depth, self.cfg.insert_budget, set())
        if tree is None:
            return SearchResult(SearchStatus.NOT_FOUND_WITHIN_BOUNDS)
        return SearchResult(SearchStatus.PROVED, proof=tree)

    def _insertions_used(self, t: ProofTree) -> int:
        own = 0
        if t.rule is RuleName.CONTRACT:
            d = t.detail
            if len(self.g.productions[d.production].rhs) == len(d.skipped):
                own = 1
        return own + max((self._insertions_used(p) for p in t.premises), default=0)

    def _search(
        self,
        s: Sequent,
        depth_left: int,
        budget: int,
        path: set[tuple[Sequent, int]],
    ) -> tuple[ProofTree | None, bool]:
        hit = self._ok.get(s)
        if hit is not None and hit[0] <= budget:
            return hit[1], True
        known_fail = self._fail.get(s)
        if known_fail is not None and known_fail >= budget:
            return None, True
        key = (s, budget)
        if key in path:
            # cycles never occur in a minimal proof, so pruning stays exhaustive
            return None, True
        if depth_left <= 0:
            return None, False
        path.add(key)
        try:
            tree, exhaustive = self._step(s, depth_left, budget, path)
        finally:
            path.discard(key)
        if tree is not None:
            used = self._insertions_used(tree)
            prev = self._ok.get(s)
            if prev is None or used < prev[0]:
                self._ok[s] = (used, tree)
            return tree, True
        if exhaustive and budget > self._fail.get(s, -1):
            self._fail[s] = budget
        return None, exhaustive

    def _step(
        self,
        s: Sequent,
        depth_left: int,
        budget: int,
        path: set[tuple[Sequent, int]],
    ) -> tuple[ProofTree | None, bool]:
        ante, succ = s.antecedent, s.succedent

        if ante == (succ,):
            return ProofTree(s, RuleName.AX, ()), True
        if not ante and isinstance(succ, UnitType):
            return ProofTree(s, RuleName.EPS_R, ()), True
        if isinstance(succ, Atom) and not succ.symbol.is_terminal:
            for pid in memo(self.g, lhs_index)[succ.symbol]:
                if ante == _atoms(self.g.productions[pid].rhs):
                    return ProofTree(s, RuleName.GRAM, (), GramDetail(pid)), True
        for aid, ax in enumerate(self.axioms):
            if ante == (Atom(ax.token),) and succ == ax.type:
                return ProofTree(s, RuleName.AXIOM, (), AxiomDetail(aid)), True

        # A flat sequent (atoms over atom or unit) can only close or fold, so
        # derivability is decidable outright; settle it here instead of
        # searching.  Skipped when a typing axiom could still fire.
        if isinstance(succ, (Atom, UnitType)) and all(isinstance(t, Atom) for t in ante):
            if not any(t.symbol in self._axiom_tokens for t in ante):
                if isinstance(succ, UnitType) or succ.symbol.is_terminal:
                    # closers above were the only chance; folds cannot erase
                    # atoms or mint terminal ones
                    return None, True
                if not self._fold_reachable(tuple(t.symbol for t in ante), succ.symbol):
                    return None, True

        # invertible steps, applied eagerly
        for i, t in enumerate(ante):
            if isinstance(t, UnitType):
                prem = Sequent(ante[:i] + ante[i + 1 :], succ)
                sub, ex = self._search(prem, depth_left - 1, budget, path)
                if sub is None:
                    return None, ex
                return ProofTree(s, RuleName.EPS_L, (sub,), PosDetail(i)), True
        for i, t in enumerate(ante):
            if isinstance(t, Prod):
                prem = Sequent(ante[:i] + (t.left, t.right) + ante[i + 1 :], succ)
                sub, ex = self._search(prem, depth_left - 1, budget, path)
                if sub is None:
                    return None, ex
                return ProofTree(s, RuleName.PROD_L, (sub,), PosDetail(i)), True
        if isinstance(succ, Under):
            prem = Sequent((succ.arg,) + ante, succ.result)
            sub, ex = self._search(prem, depth_left - 1, budget, path)
            if sub is None:
                return None, ex
            return ProofTree(s, RuleName.UNDER_R, (sub,)), True
        if isinstance(succ, Over):
            prem = Sequent(ante + (succ.arg,), succ.result)
            sub, ex = self._search(prem, depth_left - 1, budget, path)
            if sub is None:
                return None, ex
            return ProofTree(s, RuleName.OVER_R, (sub,)), True

        exhaustive = True
        for rule, detail, premises, cost in self._moves(ante, succ, budget):
            subs: list[ProofTree] = []
            ok = True
            for prem in premises:
                sub, ex = self._search(prem, depth_left - 1, budget - cost, path)
                if sub is None:
                    ok = False
                    exhaustive = exhaustive and ex
                    break
                subs.append(sub)
            if ok:
                return ProofTree(s, rule, tuple(subs), detail), True
        return None, exhaustive

    def _moves(
        self, ante: tuple[LambekType, ...], succ: LambekType, budget: int
    ) -> Iterator[tuple[RuleName, Detail, tuple[Sequent, ...], int]]:
        names: list[Symbol | None] = [
            t.symbol if isinstance(t, Atom) else None for t in ante
        ]

        # production folds, exact right-hand sides before skipped ones
        n = len(ante)
        for pid, pattern, matched, lhs_atom in memo(self.g, _fold_templates):
            m = len(matched)
            for q in range(n - m + 1):
                if all(names[q + t] == matched[t] for t in range(m)):
                    prem = Sequent(ante[:q] + (lhs_atom,) + ante[q + m :], succ)
                    yield (RuleName.CONTRACT, ContractDetail(pid, q, pattern), (prem,), 0)

        # lexicon folds: cut a token against its typing axiom
        for i, t in enumerate(ante):
            if isinstance(t, Atom):
                for ax in self.axioms:
                    if t.symbol == ax.token:
                        prem1 = Sequent((t,), ax.type)
                        prem2 = Sequent(ante[:i] + (ax.type,) + ante[i + 1 :], succ)
                        yield (RuleName.CUT, CutDetail(i, i + 1), (prem1, prem2), 0)

        for i, t in enumerate(ante):
            if isinstance(t, Under):
                for j in range(i + 1):
                    prem1 = Sequent(ante[j:i], t.arg)
                    prem2 = Sequent(ante[:j] + (t.result,) + ante[i + 1 :], succ)
                    yield (RuleName.UNDER_L, UnderLDetail(i, j), (prem1, prem2), 0)
            elif isinstance(t, Over):
                for j in range(i + 1, len(ante) + 1):
                    prem1 = Sequent(ante[i + 1 : j], t.arg)
                    prem2 = Sequent(ante[:i] + (t.result,) + ante[j:], succ)
                    yield (RuleName.OVER_L, OverLDetail(i, j), (prem1, prem2), 0)

        if isinstance(succ, Prod):
            for k in range(len(ante) + 1):
                yield (
                    RuleName.PROD_R,
                    SplitDetail(k),
                    (Sequent(ante[:k], succ.left), Sequent(ante[k:], succ.right)),
                    0,
                )

        # Insertions commute upward past any rule that does not consume the
        # inserted atom, and an insertion a fold consumes is the same fold
        # with the atom skipped, so offering them at flat sequents only
        # loses no proofs and no budget.
        if budget > 0 and isinstance(succ, Atom) and all(n is not None for n in names):
            for q in range(len(ante) + 1):
                for atom, pid, skipped in memo(self.g, _insertions):
                    prem = Sequent(ante[:q] + (atom,) + ante[q:], succ)
                    yield (RuleName.CONTRACT, ContractDetail(pid, q, skipped), (prem,), 1)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    path: tuple[int, ...] | None = None
    reason: str | None = None


def _reject(path: tuple[int, ...], reason: str) -> CheckResult:
    return CheckResult(False, path, reason)


def check_proof(g: Grammar, t: ProofTree, axioms: Sequence[TypingAxiom] = ()) -> CheckResult:
    """Structural validation of every node against its rule schema."""
    nullable = memo(g, nullable_ids)
    axioms = tuple(axioms)

    def walk(node: ProofTree, path: tuple[int, ...]) -> CheckResult:
        ante, succ = node.conclusion.antecedent, node.conclusion.succedent
        rule, detail, prems = node.rule, node.detail, node.premises

        def arity(n: int) -> CheckResult | None:
            if len(prems) != n:
                return _reject(path, f"{rule.value} expects {n} premises, got {len(prems)}")
            return None

        if rule is RuleName.AX:
            if err := arity(0):
                return err
            if ante != (succ,):
                return _reject(path, "AX conclusion must be phi |- phi")
        elif rule is RuleName.EPS_R:
            if err := arity(0):
                return err
            if ante or not isinstance(succ, UnitType):
                return _reject(path, "EPS_R conclusion must be |- 1")
        elif rule is RuleName.GRAM:
            if err := arity(0):
                return err
            if not isinstance(detail, GramDetail) or not 0 <= detail.production < len(g.productions):
                return _reject(path, "GRAM needs a valid production index")
            p = g.productions[detail.production]
            if succ != Atom(p.lhs) or ante != _atoms(p.rhs):
                return _reject(path, "GRAM conclusion does not match the cited production")
        elif rule is RuleName.AXIOM:
            if err := arity(0):
                return err
            if not isinstance(detail, AxiomDetail) or not 0 <= detail.axiom < len(axioms):
                return _reject(path, "AXIOM needs a valid axiom index")
            ax = axioms[detail.axiom]
            if ante != (Atom(ax.token),) or succ != ax.type:
                return _reject(path, "AXIOM conclusion does not match the cited axiom")
        elif rule is RuleName.EPS_L:
            if err := arity(1):
                return err
            if not isinstance(detail, PosDetail) or not 0 <= detail.pos < len(ante):
                return _reject(path, "EPS_L needs a valid position")
            if not isinstance(ante[detail.pos], UnitType):
                return _reject(path, "EPS_L position must hold the unit type")
            want = Sequent(ante[: detail.pos] + ante[detail.pos + 1 :], succ)
            if prems[0].conclusion != want:
                return _reject(path, "EPS_L premise mismatch")
        elif rule is RuleName.PROD_L:
            if err := arity(1):
                return err
            if not isinstance(detail, PosDetail) or not 0 <= detail.pos < len(ante):
                return _reject(path, "PROD_L needs a valid position")
            item = ante[detail.pos]
            if not isinstance(item, Prod):
                return _reject(path, "PROD_L position must hold a product")
            want = Sequent(
                ante[: detail.pos] + (item.left, item.right) + ante[detail.pos + 1 :], succ
            )
            if prems[0].conclusion != want:
                return _reject(path, "PROD_L premise mismatch")
        elif rule is RuleName.UNDER_R:
            if err := arity(1):
                return err
            if not isinstance(succ, Under):
                return _reject(path, "UNDER_R succedent must be an Under type")
            if prems[0].conclusion != Sequent((succ.arg,) + ante, succ.result):
                return _reject(path, "UNDER_R premise mismatch")
        elif rule is RuleName.OVER_R:
            if err := arity(1):
                return err
            if not isinstance(succ, Over):
                return _reject(path, "OVER_R succedent must be an Over type")
            if prems[0].conclusion != Sequent(ante + (succ.arg,), succ.result):
                return _reject(path, "OVER_R premise mismatch")
        elif rule is RuleName.PROD_R:
            if err := arity(2):
                return err
            if not isinstance(succ, Prod):
                return _reject(path, "PROD_R succedent must be a product")
            if not isinstance(detail, SplitDetail) or not 0 <= detail.split <= len(ante):
                return _reject(path, "PROD_R needs a valid split")
            k = detail.split
            if prems[0].conclusion != Sequent(ante[:k], succ.left):
                return _reject(path, "PROD_R left premise mismatch")
            if prems[1].conclusion != Sequent(ante[k:], succ.right):
                return _reject(path, "PROD_R right premise mismatch")
        elif rule is RuleName.UNDER_L:
            if err := arity(2):
                return err
            if not isinstance(detail, UnderLDetail):
                return _reject(path, "UNDER_L needs (pos, start)")
            i, j = detail.pos, detail.start
            if not (0 <= j <= i < len(ante)) or not isinstance(ante[i], Under):
                return _reject(path, "UNDER_L position must hold an Under type")
            item = ante[i]
            if prems[0].conclusion != Sequent(ante[j:i], item.arg):
                return _reject(path, "UNDER_L argument premise mismatch")
            want = Sequent(ante[:j] + (item.result,) + ante[i + 1 :], succ)
            if prems[1].conclusion != want:
                return _reject(path, "UNDER_L main premise mismatch")
        elif rule is RuleName.OVER_L:
            if err := arity(2):
                return err
            if not isinstance(detail, OverLDetail):
                return _reject(path, "OVER_L needs (pos, stop)")
            i, j = detail.pos, detail.stop
            if not (0 <= i < len(ante)) or not (i + 1 <= j <= len(ante)) or not isinstance(ante[i], Over):
                return _reject(path, "OVER_L position must hold an Over type")
            item = ante[i]
            if prems[0].conclusion != Sequent(ante[i + 1 : j], item.arg):
                return _reject(path, "OVER_L argument premise mismatch")
            want = Sequent(ante[:i] + (item.result,) + ante[j:], succ)
            if prems[1].conclusion != want:
                return _reject(path, "OVER_L main premise mismatch")
        elif rule is RuleName.CUT:
            if err := arity(2):
                return err
            if not isinstance(detail, CutDetail) or not (
                0 <= detail.start <= detail.stop <= len(ante)
            ):
                return _reject(path, "CUT needs a valid segment")
            chi = prems[0].conclusion.succedent
            if prems[0].conclusion.antecedent != ante[detail.start : detail.stop]:
                return _reject(path, "CUT left premise antecedent mismatch")
            want = Sequent(ante[: detail.start] + (chi,) + ante[detail.stop :], succ)
            if prems[1].conclusion != want:
                return _reject(path, "CUT right premise mismatch")
        elif rule is RuleName.CONTRACT:
            if err := arity(1):
                return err
            if not isinstance(detail, ContractDetail) or not 0 <= detail.production < len(
                g.productions
            ):
                return _reject(path, "CONTRACT needs a valid production index")
            p = g.productions[detail.production]
            if any(not 0 <= k < len(p.rhs) for k in detail.skipped):
                return _reject(path, "CONTRACT skip positions out of range")
            if len(set(detail.skipped)) != len(detail.skipped):
                return _reject(path, "CONTRACT skip positions must be distinct")
            if any(p.rhs[k] not in nullable for k in detail.skipped):
                return _reject(path, "CONTRACT may only skip nullable symbols")
            matched = [sym for k, sym in enumerate(p.rhs) if k not in detail.skipped]
            q, m = detail.pos, len(matched)
            if not 0 <= q <= len(ante) - m:
                return _reject(path, "CONTRACT position out of range")
            if ante[q : q + m] != _atoms(matched):
                return _reject(path, "CONTRACT segment does not match the production")
            want = Sequent(ante[:q] + (Atom(p.lhs),) + ante[q + m :], succ)
            if prems[0].conclusion != want:
                return _reject(path, "CONTRACT premise mismatch")
        else:
            return _reject(path, f"unknown rule {rule!r}")

        for idx, prem in enumerate(prems):
            res = walk(prem, path + (idx,))
            if not res.ok:
                return res
        return CheckResult(True)

    return walk(t, ())


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


def _detail_to_json(detail: Detail) -> dict | None:
    if detail is None:
        return None
    out = {f.name: getattr(detail, f.name) for f in fields(detail)}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


def _detail_from_json(rule: RuleName, obj: dict | None) -> Detail:
    if obj is None:
        return None
    cls = _DETAIL_CLASS.get(rule)
    if cls is None:
        raise ValueError(f"rule {rule.value} takes no detail")
    args = (obj[f.name] for f in fields(cls))
    return cls(*(tuple(v) if isinstance(v, list) else v for v in args))


def proof_to_json(t: ProofTree) -> dict:
    return {
        "conclusion": {
            "antecedent": [render_type(x) for x in t.conclusion.antecedent],
            "succedent": render_type(t.conclusion.succedent),
        },
        "rule": t.rule.value,
        "detail": _detail_to_json(t.detail),
        "premises": [proof_to_json(p) for p in t.premises],
    }


def proof_from_json(obj: dict, g: Grammar) -> ProofTree:
    rule = RuleName(obj["rule"])
    conclusion = Sequent(
        tuple(parse_type(x, g) for x in obj["conclusion"]["antecedent"]),
        parse_type(obj["conclusion"]["succedent"], g),
    )
    return ProofTree(
        conclusion,
        rule,
        tuple(proof_from_json(p, g) for p in obj["premises"]),
        _detail_from_json(rule, obj.get("detail")),
    )


def render_proof(t: ProofTree) -> str:
    """The proof as indented text, one sequent per line, premises below."""
    lines: list[str] = []

    def walk(node: ProofTree, depth: int) -> None:
        lines.append("  " * depth + f"{render_sequent(node.conclusion)}   [{node.rule.value}]")
        for p in node.premises:
            walk(p, depth + 1)

    walk(t, 0)
    return "\n".join(lines)
