"""Earley recognition, parse-tree extraction, bounded ambiguity checks.

Recognition handles ε-productions and unit cycles without grammar
preprocessing.  Tree extraction walks the completed-span table top-down;
derivations that pass through the same (symbol, span) pair more than twice on
one path are not enumerated, which only suppresses pumped unit-cycle variants
of trees that are already reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .grammar import (
    Grammar,
    Production,
    Symbol,
    Word,
    enumerate_words,
    iter_words_sorted,
    lhs_index,
    memo,
    production_ids,
    terminal,
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
    """Earley chart: per input position, items (prod_index, dot, origin)."""
    by_lhs = memo(g, lhs_index)
    n = len(w)
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
    return columns


def recognize(g: Grammar, a: Symbol, w: Word) -> bool:
    """Exact recognition: does nonterminal a derive w?"""
    if a.is_terminal:
        return w == (a,)
    columns = _chart(g, a, w)
    n = len(w)
    return any(
        dot == len(g.productions[pid].rhs) and origin == 0 and g.productions[pid].lhs == a
        for pid, dot, origin in columns[n]
    )


def _completed_spans(g: Grammar, columns: list[list[tuple[int, int, int]]]) -> set[tuple[Symbol, int, int]]:
    spans: set[tuple[Symbol, int, int]] = set()
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


def parse_tree(g: Grammar, a: Symbol, w: Word) -> ParseOutcome:
    """Parse w from nonterminal a, detecting ambiguity up to two witnesses."""
    if a.is_terminal:
        return Unique(token_leaf(a)) if w == (a,) else Reject()
    columns = _chart(g, a, w)
    spans = _completed_spans(g, columns)
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


@dataclass(frozen=True)
class HoleMark:
    hole_type: Symbol
    token: Symbol


def extend_with_hole(g: Grammar, hole_type: Symbol) -> tuple[Grammar, HoleMark]:
    """Add a fresh terminal produced only by hole_type.

    The fresh token is the lexically smallest of __HOLE, __HOLE1, __HOLE2, ...
    that does not collide with a declared symbol.  The new production is
    appended, so production indices of g are preserved.
    """
    if hole_type not in g.nonterminals:
        raise ValueError(f"hole type {hole_type.name!r} is not a nonterminal of the grammar")
    taken = {s.name for s in g.terminals | g.nonterminals}
    name = "__HOLE"
    k = 0
    while name in taken:
        k += 1
        name = f"__HOLE{k}"
    tok = terminal(name)
    g2 = Grammar(
        terminals=g.terminals | {tok},
        nonterminals=g.nonterminals,
        productions=g.productions + (Production(hole_type, (tok,)),),
        start=g.start,
    )
    return g2, HoleMark(hole_type, tok)


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
            # None for leaves and for nodes built from productions outside
            # this grammar (hole extensions)
            "prod_index": index.get(node.production) if node.production is not None else None,
            "children": [conv(c) for c in node.children],
        }

    return conv(t)


def shape_equal(t1: ParseTree, t2: ParseTree) -> bool:
    """Structural equality on labels, ignoring cached yields."""
    if t1.label() != t2.label() or len(t1.children) != len(t2.children):
        return False
    return all(shape_equal(a, b) for a, b in zip(t1.children, t2.children))
