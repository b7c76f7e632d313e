"""Language-valued semantics for types, bounded so it stays decidable.

A type denotes a set of words over the grammar's terminals:

    ⟦A⟧    = the words the symbol A derives
    ⟦1⟧    = {ε}
    ⟦φ*ψ⟧  = {uv : u ∈ ⟦φ⟧, v ∈ ⟦ψ⟧}
    ⟦φ\\ψ⟧  = {w : vw ∈ ⟦ψ⟧ for every v ∈ ⟦φ⟧}
    ⟦ψ/φ⟧  = {w : wv ∈ ⟦ψ⟧ for every v ∈ ⟦φ⟧}

and a context denotes the concatenation of its members' sets (the empty
context denotes {ε}).  The implication cases quantify over infinitely many
words, so the oracle truncates every universal quantifier and every
enumerated denotation at max_len tokens.  Membership of a concrete word in
an atom is always decided exactly, whatever its length: read off the
grammar's word table (grammar.enumerate_words), which keeps each symbol's
words by exact length, when the table has grown to the word's length, and
by Earley recognition otherwise.  Every enumeration here grows that one
table, so a larger bound extends the words the smaller ones built.

The truncation makes membership of an implication an over-approximation: an
accepted word has only survived the tests up to the bound.  A rejection is
exact as long as the failing test word is itself a true member of the
argument type, which the truncation guarantees only on part of the type
language.  soundness_check therefore certifies a sequent before reporting a
counterexample, so its refutations are always real; everything it cannot
certify passes vacuously.
"""
from __future__ import annotations

from itertools import product
from typing import Sequence

from .counts import weights
from .earley import Chart, recognize
from .grammar import Grammar, Symbol, Value, Word, enumerate_words, enumerated_member, iter_words_sorted, memo
from .grammar import require_bound, require_word, set_field
from .prover import Prover, SearchResult, SearchStatus, TypingAxiom
from .types import Atom, LambekType, Over, Prod, Sequent, TypeContext, Under, UnitType


class SemBound(Value):
    """Cap on the test words fed to the universal quantifiers."""

    __slots__ = ("max_len",)

    def __init__(self, max_len: int = 5) -> None:
        require_bound(max_len, "max_len")
        set_field(self, "max_len", max_len)


class OraclePass(Value):
    __slots__ = ("checked",)

    def __init__(self, checked: int) -> None:
        set_field(self, "checked", checked)


class Counterexample(Value):
    __slots__ = ("word",)

    def __init__(self, word: Word) -> None:
        set_field(self, "word", word)


OracleVerdict = OraclePass | Counterexample


def member_bounded(g: Grammar, w: Word, t: LambekType, b: SemBound) -> bool:
    """Is w in ⟦t⟧, quantifiers truncated per the bound?"""
    require_word(g, w)
    return _holds(g, w, t, b.max_len)


def _holds(g: Grammar, w: Word, t: LambekType, max_len: int) -> bool:
    """w ∈ ⟦t⟧ under the bound.  An atom is answered off the word table
    where it has grown to len(w), with no memo; the rest goes through _member."""
    if isinstance(t, Atom):
        if t.symbol.is_terminal:
            return w == (t.symbol,)
        known = enumerated_member(g, t.symbol, w)
        if known is not None:
            return known
    return memo(g, _member, w, t, max_len)


def _member(g: Grammar, w: Word, t: LambekType, max_len: int) -> bool:
    if isinstance(t, Atom):
        return recognize(g, t.symbol, w)  # the word table does not cover w (see _holds)
    if isinstance(t, UnitType):
        return w == ()
    if isinstance(t, Prod):
        return any(
            _holds(g, w[:k], t.left, max_len)
            and _holds(g, w[k:], t.right, max_len)
            for k in range(len(w) + 1)
        )
    if isinstance(t, (Under, Over)):
        dom = memo(g, _domain, t.arg, max_len)
        before = isinstance(t, Under)
        if isinstance(t.result, Atom) and not t.result.symbol.is_terminal:
            return _continues(g, w, t.result.symbol, dom, before)
        if before:
            return all(_holds(g, v + w, t.result, max_len) for v in dom)
        return all(_holds(g, w + v, t.result, max_len) for v in dom)
    raise TypeError(f"unknown type {t!r}")


def _continues(g: Grammar, w: Word, a: Symbol, dom: tuple[Word, ...], before: bool) -> bool:
    """Does a derive w·v, or v·w when before, for every v of dom?

    A word is read off the word table where it has grown to its length, as
    _holds reads it.  The rest are read off one chart of w from a, continued
    by each v and popped back; when v comes before w, the chart reads g's
    rules in reverse over reversed words.
    """
    chart = None
    for v in dom:
        known = enumerated_member(g, a, v + w if before else w + v)
        if known is None:
            if chart is None:
                chart = Chart(g, (a,), before, w[::-1] if before else w)
                mark = chart.mark()
            chart.push(v[::-1] if before else v)
            known = chart.accepts(a)
            chart.pop(mark)
        if not known:
            return False
    return True


def _domain(g: Grammar, arg: LambekType, max_len: int) -> tuple[Word, ...]:
    """An implication's quantifier domain, shortest first.

    A fixed order makes the first failing test word, and so the memberships
    computed before it, independent of the string-hash seed.
    """
    return tuple(iter_words_sorted(memo(g, _denotation, arg, max_len, max_len)))


def denotation_bounded(
    g: Grammar, t: LambekType, b: SemBound, out_len: int
) -> frozenset[Word]:
    """All words of length at most out_len in ⟦t⟧ under the bound."""
    require_bound(out_len, "out_len")
    return memo(g, _denotation, t, out_len, b.max_len)


def _denotation(g: Grammar, t: LambekType, out_len: int, max_len: int) -> frozenset[Word]:
    if isinstance(t, Atom):
        return enumerate_words(g, t.symbol, out_len)
    if isinstance(t, UnitType):
        return frozenset({()})
    if isinstance(t, Prod):
        left = memo(g, _denotation, t.left, out_len, max_len)
        right = memo(g, _denotation, t.right, out_len, max_len)
        return frozenset(
            u + v for u in left for v in right if len(u) + len(v) <= out_len
        )
    candidates = _implication_candidates(g, t, out_len, max_len)
    return frozenset(w for w in candidates if _holds(g, w, t, max_len))


def _implication_candidates(g: Grammar, t: Under | Over, out_len: int, max_len: int):
    """A superset of the implication's bounded denotation, kept small.

    With a nonempty quantifier domain, any member w extends by the domain's
    first test word v to a member of the result type: ψ/φ is the residual
    of ⟦ψ⟧ by ⟦φ⟧ (Lambek 1958).  So it suffices to try the words of the
    result's bounded denotation that end (Over) or start (Under) with v, v
    cut off.  An empty domain makes every word a member.
    """
    dom = memo(g, _domain, t.arg, max_len)
    if not dom:
        return memo(g, _all_words, out_len)
    v = dom[0]
    words = _denotation(g, t.result, out_len + len(v), max_len)
    if isinstance(t, Over):
        return frozenset(u[: len(u) - len(v)] for u in words if u[len(u) - len(v) :] == v)
    return frozenset(u[len(v) :] for u in words if u[: len(v)] == v)


def _all_words(g: Grammar, out_len: int) -> tuple[Word, ...]:
    sigma = g.symbol_table().terminals
    return tuple(w for n in range(out_len + 1) for w in product(sigma, repeat=n))


def _length_sup(g: Grammar, cap: int) -> dict[Symbol, int]:
    """Longest word each nonterminal derives, saturated at cap + 1."""
    big = cap + 1
    sup = {x: 0 for x in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            n = 0
            for s in p.rhs:
                n += 1 if s.is_terminal else sup[s]
                if n >= big:
                    n = big
                    break
            if n > sup[p.lhs]:
                sup[p.lhs] = n
                changed = True
    return sup


def _sup(g: Grammar, t: LambekType, cap: int) -> int:
    if isinstance(t, Atom):
        # an undeclared nonterminal derives nothing (see prove_with_prescreen)
        return 1 if t.symbol.is_terminal else memo(g, _length_sup, cap).get(t.symbol, 0)
    if isinstance(t, UnitType):
        return 0
    if isinstance(t, Prod):
        return min(_sup(g, t.left, cap) + _sup(g, t.right, cap), cap + 1)
    return cap + 1  # implications may hold words of any length


def _members_real(g: Grammar, t: LambekType, max_len: int) -> bool:
    """Does bounded acceptance imply true membership for t?

    Holds when every universal quantifier inside t ranges over a type whose
    language is exhausted at the bound, so surviving the truncated tests is
    surviving them all.
    """
    if isinstance(t, (Atom, UnitType)):
        return True
    if isinstance(t, Prod):
        return _members_real(g, t.left, max_len) and _members_real(g, t.right, max_len)
    return _sup(g, t.arg, max_len) <= max_len and _members_real(g, t.result, max_len)


def _refutes_real(g: Grammar, t: LambekType, max_len: int) -> bool:
    """Does bounded rejection imply true non-membership for t?

    The failing test word must really inhabit the argument type, but the
    argument's language need not be exhausted: one true witness is enough.
    """
    if isinstance(t, (Atom, UnitType)):
        return True
    if isinstance(t, Prod):
        return _refutes_real(g, t.left, max_len) and _refutes_real(g, t.right, max_len)
    return _members_real(g, t.arg, max_len) and _refutes_real(g, t.result, max_len)


def context_denotation_bounded(
    g: Grammar, ctx: Sequence[LambekType], b: SemBound, out_len: int
) -> frozenset[Word]:
    """Concatenations of member words, total length capped at out_len."""
    require_bound(out_len, "out_len")
    acc: set[Word] = {()}
    for t in ctx:
        d = memo(g, _denotation, t, out_len, b.max_len)
        acc = {u + v for u in acc for v in d if len(u) + len(v) <= out_len}
    return frozenset(acc)


def soundness_check(
    g: Grammar, s: Sequent, b: SemBound = SemBound(), out_len: int | None = None
) -> OracleVerdict:
    """Test antecedent words against the succedent; first failure wins.

    out_len caps the length of the antecedent words tried (defaults to the
    quantifier bound).  Words are visited shortest first, ties broken
    lexicographically, so the reported counterexample is deterministic.

    A counterexample is reported only when it is certain: the antecedent
    words must be true members of their types and the succedent's rejection
    must be exact.  A derivable sequent is sound for the full semantics, so
    without that certification an apparent failure may just be truncation
    noise.  Sequents outside the certifiable fragment pass vacuously with
    checked = 0.
    """
    if out_len is None:
        out_len = b.max_len
    require_bound(out_len, "out_len")
    if not (
        all(_members_real(g, t, b.max_len) for t in s.antecedent)
        and _refutes_real(g, s.succedent, b.max_len)
    ):
        return OraclePass(0)
    words = memo(g, _antecedent_words, s.antecedent, out_len, b.max_len)
    for w in words:
        if not _holds(g, w, s.succedent, b.max_len):
            return Counterexample(w)
    return OraclePass(len(words))


def _antecedent_words(g: Grammar, antecedent: TypeContext, out_len: int, max_len: int) -> tuple[Word, ...]:
    """The antecedent's bounded denotation in soundness_check's visiting order."""
    return tuple(iter_words_sorted(context_denotation_bounded(g, antecedent, SemBound(max_len), out_len)))


def prove_with_prescreen(
    g: Grammar, s: Sequent, b: SemBound = SemBound(), axioms: Sequence[TypingAxiom] = ()
) -> SearchResult:
    """Run the oracle before searching; a counterexample skips the search.

    The answer is PROVED with a proof, REFUTED_BY_ORACLE with a certified
    counterexample, or NOT_FOUND_WITHIN_BOUNDS when the search failed
    exhaustively.

    Typing axioms are not reflected in the language semantics, so the
    prescreen is skipped whenever axioms are supplied.  A sequent naming an
    atom the grammar does not declare raises ValueError, as the search does.
    The oracle reads such an atom as deriving nothing or raises, so a
    refutation is returned only for a sequent that passes the search's check,
    the grammar's count weights (counts.weights), which walk each type once.
    """
    if not axioms:
        verdict = soundness_check(g, s, b)
        if isinstance(verdict, Counterexample):
            sum(map(memo(g, weights, ()).__getitem__, (*s.antecedent, s.succedent)))  # the search's check
            return SearchResult(SearchStatus.REFUTED_BY_ORACLE, counterexample=verdict.word)
    return Prover(g, axioms).prove(s)
