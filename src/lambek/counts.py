"""Count weights: integer weights of a grammar's symbols that every derivable sequent balances.

The calculus is sound in any abelian group, reading ψ/φ and φ\\ψ as ψ·φ⁻¹ and φ*ψ as
φ·ψ (count invariance: van Benthem 1991; Pentus 1993 gives the free-group form)."""
from __future__ import annotations

import math
from typing import Iterator

from .grammar import Grammar, Symbol
from .types import Atom, LambekType, Over, Prod, Under, iter_atoms, render_type


def _signed_atoms(t: LambekType, sign: int) -> Iterator[tuple[Symbol, int]]:
    """Each atom of t with its sign, an implication's argument counted against it; off a stack, as types nest deep."""
    stack = [(t, sign)]
    while stack:
        t, sign = stack.pop()
        if isinstance(t, Atom):
            yield t.symbol, sign
        elif isinstance(t, (Under, Over)):
            stack += [(t.arg, -sign), (t.result, sign)]
        elif isinstance(t, Prod):
            stack += [(t.left, sign), (t.right, sign)]


class Weights(dict):
    """Types' count weights: each declared atom's from weights, any other type's summed from its atoms' when
    first asked; ValueError for a type that holds an undeclared atom."""

    def __missing__(self, t: LambekType) -> int:
        if isinstance(t, Atom):
            raise ValueError(f"atom {t.symbol.name!r} is not declared in the grammar")
        w = self[t] = sum(sign * self[Atom(x)] for x, sign in _signed_atoms(t, 1))
        return w


def _cancel(r: list[int], p: list[int], c: int) -> list[int]:
    """Row r with column c cancelled against pivot row p, divided by its gcd."""
    v = [p[c] * a - r[c] * b for a, b in zip(r, p)]
    d = math.gcd(*v) or 1
    return [a // d for a in v]


def weights(g: Grammar, axioms: tuple) -> Weights:
    """Each declared atom's weight h, with h(A) = Σ h(Xi) per production A ::= X1 ... Xn and h(tok) = h(τ) per
    axiom tok ⊢ τ (checked first), all 0 if only h = 0 does; reach it through memo.  Fraction-free Gauss-Jordan
    elimination gives an integer basis b of such h; Σ 2^(64j)·bj separates sums differing under each bj by < 2^63."""
    ids = g.symbol_table().ids
    tokens = {a.token for a in axioms}
    for a in axioms:
        if a.token not in g.terminals:
            raise ValueError(f"axiom token {a.token.name!r} is not a declared terminal")
        for x in iter_atoms(a.type):
            if x in tokens:  # a lexicon cut must trade its token for a type free of tokens, or the search may not end
                raise ValueError(f"axiom type {render_type(a.type)!r} names the axiom token {x.name!r}")
            if x not in ids:
                raise ValueError(f"atom {x.name!r} is not declared in the grammar")
    rows = []
    sides = [(map(Atom, p.rhs), Atom(p.lhs)) for p in g.productions] + [([Atom(a.token)], a.type) for a in axioms]
    for ante, succ in sides:
        rows.append([0] * len(ids))
        for t, sign in [(succ, 1), *((t, -1) for t in ante)]:
            for x, c in _signed_atoms(t, sign):
                rows[-1][ids[x]] += c
    pivots: list[tuple[int, list[int]]] = []
    for c in range(len(ids)):
        p = next((r for r in rows if r[c]), None)
        if p is not None:
            rows = [_cancel(r, p, c) for r in rows if r is not p]
            pivots = [(k, _cancel(q, p, c)) for k, q in pivots] + [(c, p)]
    weight, shift = [0] * len(ids), 0
    for f in sorted(set(range(len(ids))) - {k for k, _ in pivots}):
        scale = math.lcm(*(q[k] for k, q in pivots if q[f]))
        b = {k: -q[f] * scale // q[k] for k, q in pivots} | {f: scale}
        d = math.gcd(*b.values())
        weight = [w + (b.get(k, 0) // d << shift) for k, w in enumerate(weight)]
        shift += 64
    return Weights({Atom(x): weight[k] for x, k in ids.items()})
