"""Earley recognition, parse-tree extraction, bounded ambiguity checks.

The input is a sentential form: a nonterminal X in it stands for itself, so
an item waiting on X scans it like a token (Earley 1970), and parse trees
hold X as a leaf.  Recognition handles ε-productions and unit cycles without
grammar preprocessing.  Tree extraction walks the completed-span table
top-down; derivations that pass through the same (symbol, span) pair more
than twice on one path are not enumerated, which only suppresses pumped
unit-cycle variants of trees that are already reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

from .grammar import (
    Grammar,
    Production,
    Symbol,
    SymbolKind,
    Word,
    enumerate_words,
    iter_words_sorted,
    lhs_index,
    memo,
    production_ids,
)

EPS_LABEL = "·eps"


@dataclass(frozen=True)
class ParseTree:
    """A derivation tree node.

    ``root`` is None exactly for the distinguished ε-leaf that is the single
    child of an ε-production node.  ``word`` caches the yield.
    """

    root: Symbol | None
    production: Production | None
    children: tuple["ParseTree", ...]
    word: Word

    @property
    def is_eps_leaf(self) -> bool:
        return self.root is None

    def label(self) -> str:
        return EPS_LABEL if self.root is None else self.root.name


EPS_LEAF = ParseTree(None, None, (), ())


def token_leaf(sym: Symbol) -> ParseTree:
    return ParseTree(sym, None, (), (sym,))


def internal_node(production: Production, children: tuple[ParseTree, ...]) -> ParseTree:
    w: Word = ()
    for c in children:
        w += c.word
    return ParseTree(production.lhs, production, children, w)


@dataclass(frozen=True)
class Unique:
    tree: ParseTree


@dataclass(frozen=True)
class Ambiguous:
    first: ParseTree
    second: ParseTree


@dataclass(frozen=True)
class Reject:
    pass


ParseOutcome = Unique | Ambiguous | Reject


def _chart(g: Grammar, a: Symbol, w: Word) -> list[list[tuple[int, int, int]]]:
    """Earley chart of sentential form w: per position, items (prod_index, dot, origin)."""
    by_lhs = memo(g, lhs_index)
    n = len(w)
    # tested once, in C: a word of terminals pays nothing per column below
    sentential = SymbolKind.NONTERMINAL in map(attrgetter("kind"), w)
    columns: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    in_col: list[set[tuple[int, int, int]]] = [set() for _ in range(n + 1)]

    def add(col: int, item: tuple[int, int, int]) -> None:
        if item not in in_col[col]:
            in_col[col].add(item)
            columns[col].append(item)

    for pid in by_lhs.get(a, ()):
        add(0, (pid, 0, 0))

    for i in range(n + 1):
        completed_empty: set[Symbol] = set()
        idx = 0
        col = columns[i]
        while idx < len(col):
            pid, dot, origin = col[idx]
            idx += 1
            prod = g.productions[pid]
            if dot == len(prod.rhs):
                if origin == i:
                    completed_empty.add(prod.lhs)
                # advance every item waiting on prod.lhs at the origin column
                for pid2, dot2, origin2 in list(columns[origin]):
                    rhs2 = g.productions[pid2].rhs
                    if dot2 < len(rhs2) and rhs2[dot2] == prod.lhs:
                        add(i, (pid2, dot2 + 1, origin2))
                continue
            sym = prod.rhs[dot]
            if sym.is_terminal:
                if i < n and w[i] == sym:
                    add(i + 1, (pid, dot + 1, origin))
            else:
                for pid2 in by_lhs.get(sym, ()):
                    add(i, (pid2, 0, i))
                # an ε-completion of sym may already have been processed
                if sym in completed_empty:
                    add(i, (pid, dot + 1, origin))
        # a nonterminal of the input is scanned once its column is closed
        if sentential and i < n and w[i].kind is SymbolKind.NONTERMINAL:
            for pid, dot, origin in col:
                rhs = g.productions[pid].rhs
                if dot < len(rhs) and rhs[dot] == w[i]:
                    add(i + 1, (pid, dot + 1, origin))
    return columns


def recognize(g: Grammar, a: Symbol, w: Word) -> bool:
    """Exact recognition: does a derive the sentential form w?"""
    if a.is_terminal:
        return w == (a,)
    columns = _chart(g, a, w)
    n = len(w)
    return any(
        dot == len(g.productions[pid].rhs) and origin == 0 and g.productions[pid].lhs == a
        for pid, dot, origin in columns[n]
    ) or (n == 1 and w[0] == a)  # a derivation in zero steps


def _completed_spans(g: Grammar, w: Word, columns: list[list[tuple[int, int, int]]]) -> set[tuple[Symbol, int, int]]:
    # a nonterminal of the input spans itself
    spans = {(s, k, k + 1) for k, s in enumerate(w) if s.kind is SymbolKind.NONTERMINAL}
    for j, col in enumerate(columns):
        for pid, dot, origin in col:
            prod = g.productions[pid]
            if dot == len(prod.rhs):
                spans.add((prod.lhs, origin, j))
    return spans


def _trees(
    g: Grammar,
    w: Word,
    spans: set[tuple[Symbol, int, int]],
    sym: Symbol,
    i: int,
    j: int,
    path: tuple[tuple[Symbol, int, int], ...],
) -> Iterator[ParseTree]:
    key = (sym, i, j)
    if path.count(key) >= 2:
        return
    path = path + (key,)
    by_lhs = memo(g, lhs_index)

    def assignments(rhs: tuple[Symbol, ...], pos: int) -> Iterator[list[tuple[Symbol, int, int]]]:
        if not rhs:
            if pos == j:
                yield []
            return
        head, rest = rhs[0], rhs[1:]
        if head.is_terminal:
            if pos < j and w[pos] == head:
                for tail in assignments(rest, pos + 1):
                    yield [(head, pos, pos + 1)] + tail
            return
        lo = pos
        hi = j - sum(1 for s in rest if s.is_terminal)
        for mid in range(lo, hi + 1):
            if (head, pos, mid) in spans:
                for tail in assignments(rest, mid):
                    yield [(head, pos, mid)] + tail

    for pid in by_lhs.get(sym, ()):
        prod = g.productions[pid]
        if not prod.rhs:
            if i == j:
                yield ParseTree(sym, prod, (EPS_LEAF,), ())
            continue
        for assignment in assignments(prod.rhs, i):
            def expand(k: int, acc: tuple[ParseTree, ...]) -> Iterator[ParseTree]:
                if k == len(assignment):
                    yield internal_node(prod, acc)
                    return
                s, p, q = assignment[k]
                if s.is_terminal:
                    yield from expand(k + 1, acc + (token_leaf(s),))
                    return
                for sub in _trees(g, w, spans, s, p, q, path):
                    yield from expand(k + 1, acc + (sub,))

            yield from expand(0, ())
    if j == i + 1 and w[i].kind is SymbolKind.NONTERMINAL and w[i] == sym:
        yield token_leaf(sym)


def parse_tree(g: Grammar, a: Symbol, w: Word) -> ParseOutcome:
    """Parse sentential form w from a, detecting ambiguity up to two witnesses.

    A nonterminal of w is a leaf; its span's other trees come first.
    """
    if a.is_terminal:
        return Unique(token_leaf(a)) if w == (a,) else Reject()
    columns = _chart(g, a, w)
    spans = _completed_spans(g, w, columns)
    if (a, 0, len(w)) not in spans:
        return Reject()
    found: list[ParseTree] = []
    for t in _trees(g, w, spans, a, 0, len(w), ()):
        if t not in found:
            found.append(t)
        if len(found) == 2:
            return Ambiguous(found[0], found[1])
    if len(found) == 1:
        return Unique(found[0])
    return Reject()


@dataclass(frozen=True)
class Pass:
    max_len: int


@dataclass(frozen=True)
class Witness:
    word: Word
    first: ParseTree
    second: ParseTree


def check_unambiguous(g: Grammar, a: Symbol, max_len: int) -> Pass | Witness:
    """Every word of a up to max_len has exactly one tree, or a witness."""
    for w in iter_words_sorted(enumerate_words(g, a, max_len)):
        outcome = parse_tree(g, a, w)
        if isinstance(outcome, Ambiguous):
            return Witness(w, outcome.first, outcome.second)
    return Pass(max_len)


def render_tree_text(t: ParseTree) -> str:
    lines: list[str] = []

    def walk(node: ParseTree, depth: int) -> None:
        lines.append("  " * depth + node.label())
        for c in node.children:
            walk(c, depth + 1)

    walk(t, 0)
    return "\n".join(lines)


def tree_to_json(t: ParseTree, g: Grammar) -> dict:
    index = memo(g, production_ids)

    def conv(node: ParseTree) -> dict:
        return {
            "sym": node.label(),
            "prod_index": None if node.production is None else index[node.production],
            "children": [conv(c) for c in node.children],
        }

    return conv(t)
