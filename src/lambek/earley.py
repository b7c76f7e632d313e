"""Earley recognition, parse-tree extraction, bounded ambiguity checks.

The input is a sentential form: a nonterminal X in it stands for itself, so
an item waiting on X scans it like a token (Earley 1970), and parse trees
hold X as a leaf.  Recognition handles ε-productions and unit cycles without
grammar preprocessing.  Each column indexes its items by the symbol they wait
on, and Leo's transitive items (Leo 1991) complete a deterministic right
recursion in one step, so recognition is linear on such grammars.  Tree
extraction walks an index of the completed spans, (symbol, start) -> ends,
top-down; derivations that pass through the same (symbol, span) pair more
than twice on one path are not enumerated, which only suppresses pumped
unit-cycle variants of trees that are already reported.
"""
from __future__ import annotations

from dataclasses import dataclass
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


def _dotted_rules(
    g: Grammar,
) -> tuple[list[Symbol | None], list[Symbol | None], dict[Symbol, tuple[int, ...]], int]:
    """Per-grammar tables over dotted rules; reach them through memo.

    Production p with the dot before position d is rule ``first[p] + d``.
    ``nxt[r]`` is the symbol after the dot (None once complete) and
    ``lhs[r]`` the production's left-hand side; ``predict[X]`` holds the
    rules of X's productions at dot 0, in grammar order.  The last two rules
    are the augmented start S' → •a and S' → a•: their lhs is None, and the
    chart seeds S' → •a as a waiter on the goal a, so one rule serves every
    goal.
    """
    nxt: list[Symbol | None] = []
    lhs: list[Symbol | None] = []
    first: list[int] = []
    for p in g.productions:
        first.append(len(nxt))
        nxt.extend(p.rhs)
        nxt.append(None)
        lhs.extend([p.lhs] * (len(p.rhs) + 1))
    goal = len(nxt)
    nxt += [None, None]
    lhs += [None, None]
    predict = {x: tuple(first[p] for p in ids) for x, ids in memo(g, lhs_index).items()}
    return nxt, lhs, predict, goal


# an Earley item: (dotted rule, origin column)
Item = tuple[int, int]
# the columns of items; per column, the items waiting on each symbol; and
# the memo of _leo_top, None until a completion looks for a Leo path
_Chart = tuple[
    list[list[Item]],
    list[dict[Symbol, list[Item]]],
    dict[tuple[Symbol, int], Item | None] | None,
]


def _leo_top(
    leo: dict[tuple[Symbol, int], Item | None],
    waits: list[dict[Symbol, list[Item]]],
    nxt: list[Symbol | None],
    lhs: list[Symbol | None],
    x: Symbol,
    o: int,
) -> Item | None:
    """The top of the deterministic reduction path from (x, o), memoized; None on a cycle.

    A node (X, o) is on the path while column o holds exactly one item
    waiting on X and X is that item's last symbol; completing X with origin o
    then completes the waiting item, whose own (lhs, origin) node comes next.
    The top is the item that the last node's completion completes (Leo 1991).
    """
    path = []
    top = None
    node = (x, o)
    while True:
        if node in leo:
            top = leo[node]
            break
        ws = waits[node[1]].get(node[0])
        if ws is None or len(ws) != 1:
            break
        r, o2 = ws[0]
        if nxt[r + 1] is not None:
            break
        leo[node] = None  # a revisit is a cycle
        path.append(node)
        top = (r + 1, o2)
        node = (lhs[r], o2)
    for node in path:
        leo[node] = top
    return top


def _chart(g: Grammar, a: Symbol, w: Word) -> _Chart:
    """Earley chart of sentential form w from a.

    Items waiting on a symbol are indexed by it, so a completion reads only
    its waiters and a scan reads only the items waiting on the next input
    symbol, terminal or nonterminal alike.  A completion with origin o < i
    whose path is deterministic adds the path's top item at once, which
    keeps right recursion linear.  ε-completions (origin i) are remembered
    per column, so a waiter that arrives after them still advances (Aycock &
    Horspool 2002).
    """
    nxt, lhs, predict, goal = memo(g, _dotted_rules)
    n = len(w)
    col: list[Item] = [(r, 0) for r in predict.get(a, ())]
    wait: dict[Symbol, list[Item]] = {a: [(goal, 0)]}
    columns, waits = [col], [wait]
    leo: dict[tuple[Symbol, int], Item | None] | None = None
    for i in range(n + 1):
        seen = set(col)
        done: set[Symbol] | None = None  # symbols completed empty at i
        for item in col:  # the column grows while it is read
            r, o = item
            x = nxt[r]
            if x is None:
                x = lhs[r]
                if o == i:
                    if done is None:
                        done = {x}
                    else:
                        done.add(x)
                    ws = wait.get(x)
                else:
                    ws = waits[o].get(x)
                    # one waiter, which x completes: a deterministic path starts
                    if ws is not None and len(ws) == 1 and nxt[ws[0][0] + 1] is None:
                        if leo is None:
                            leo = {}
                        top = _leo_top(leo, waits, nxt, lhs, x, o)
                        if top is not None:
                            if top not in seen:
                                seen.add(top)
                                col.append(top)
                            continue
                if ws:
                    for r2, o2 in ws:
                        adv = (r2 + 1, o2)
                        if adv not in seen:
                            seen.add(adv)
                            col.append(adv)
                continue
            ws = wait.get(x)
            if ws is None:
                wait[x] = [item]
                col.extend([(p, i) for p in predict.get(x, ())])
            else:
                ws.append(item)
            if done is not None and x in done:
                adv = (r + 1, o)
                if adv not in seen:
                    seen.add(adv)
                    col.append(adv)
        if i < n:
            ws = wait.get(w[i])
            col = [(r + 1, o) for r, o in ws] if ws else []
            wait = {}
            columns.append(col)
            waits.append(wait)
    return columns, waits, leo


def recognize(g: Grammar, a: Symbol, w: Word) -> bool:
    """Exact recognition: does a derive the sentential form w?"""
    return _accepts(g, _chart(g, a, w))


def prefix_ends(g: Grammar, a: Symbol, w: Word) -> list[int]:
    """The ascending k for which a derives the sentential form w[:k].

    Read off one chart over w: column k holds the completed augmented start
    S' → a• exactly then, and no Leo path skips it.
    """
    done = (memo(g, _dotted_rules)[3] + 1, 0)
    return [k for k, col in enumerate(_chart(g, a, w)[0]) if done in col]


def _accepts(g: Grammar, chart: _Chart) -> bool:
    """Does the last column hold the completed augmented start S' → a•?"""
    return (memo(g, _dotted_rules)[3] + 1, 0) in chart[0][-1]


def _span_ends(g: Grammar, w: Word, chart: _Chart) -> dict[tuple[Symbol, int], list[int]]:
    """(symbol, start) -> the ascending ends of its completed spans.

    Read off the columns in order, with each Leo path expanded for the spans
    it skipped.  A nonterminal of the input spans itself.
    """
    nxt, lhs, _, _ = memo(g, _dotted_rules)
    columns, waits, leo = chart
    ends: dict[tuple[Symbol, int], list[int]] = {}
    for j, col in enumerate(columns):
        if j and w[j - 1].kind is SymbolKind.NONTERMINAL:
            ends.setdefault((w[j - 1], j - 1), []).append(j)
        for r, o in col:
            if nxt[r] is not None or lhs[r] is None:
                continue
            key = (lhs[r], o)
            e = ends.get(key)
            if e is None:
                ends[key] = [j]
            elif e[-1] != j:
                e.append(j)
            top = leo.get(key) if leo and o < j else None
            while top is not None:
                # the path from key completes its waiter's (lhs, origin) at j
                r2, o2 = waits[key[1]][key[0]][0]
                key = (lhs[r2], o2)
                if key[0] is None:
                    break
                e = ends.get(key)
                if e is None:
                    ends[key] = [j]
                elif e[-1] != j:
                    e.append(j)
                else:
                    break  # the rest of this path is expanded already
                if (r2 + 1, o2) == top:
                    break
    return ends


def _trees(
    g: Grammar,
    w: Word,
    ends: dict[tuple[Symbol, int], list[int]],
    sym: Symbol,
    i: int,
    j: int,
    path: tuple[tuple[Symbol, int, int], ...],
) -> Iterator[ParseTree]:
    key = (sym, i, j)
    if path.count(key) >= 2:
        return
    # a child spans part of its parent's span, so a key can recur on a path
    # only among the ancestors that share its span
    path = path + (key,) if path and path[-1][1] == i and path[-1][2] == j else (key,)
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
        hi = j - sum(1 for s in rest if s.is_terminal)
        for mid in ends.get((head, pos), ()):
            if mid > hi:
                break
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
                for sub in _trees(g, w, ends, s, p, q, path):
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
    chart = _chart(g, a, w)
    if not _accepts(g, chart):
        return Reject()
    ends = _span_ends(g, w, chart)
    found: list[ParseTree] = []
    for t in _trees(g, w, ends, a, 0, len(w), ()):
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
