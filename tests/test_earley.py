import sys
from itertools import product
from math import log2

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lambek import earley, grammar
from lambek.earley import (
    EPS_LEAF,
    Ambiguous,
    Chart,
    ParseTree,
    Pass,
    Reject,
    Unique,
    Witness,
    check_unambiguous,
    parse_tree,
    recognize,
    render_tree_text,
    token_leaf,
    tree_to_json,
    _chart,
    _rhs_shapes,
    _span_ends,
    _trees,
    _walk,
)
from lambek.grammar import (
    Grammar,
    Production,
    SymbolKind,
    ambiguous_words,
    enumerate_words,
    iter_words_sorted,
    lhs_index,
    memo,
    nonterminal,
    parse_grammar_file,
    production_ids,
    render_word,
    terminal,
    word_from_text,
)
from lambek.prover import fold_chain
from lambek.types import Atom, Sequent
from test_prover import NESTED_NULLABLE_CYCLES, PINNED_GRAMMARS, _time_limit, _TooSlow, cyclic_grammars, ignore_swallowed_alarms


def w(g, text):
    return word_from_text(g, text)


def pushed(g, starts, form, reverse=False):
    """A chart of form from starts, or with reverse of reversed form."""
    chart = Chart(g, starts, reverse)
    chart.push(form[::-1] if reverse else form)
    return chart


def suffix_ends(g, starts, form, a):
    """The ascending j for which a derives form[j:], read off one reversed chart."""
    return [len(form) - k for k in reversed(pushed(g, starts, form, True).ends(a))]


def internal_node(production, children):
    """The node of production over children, its yield theirs concatenated."""
    word = ()
    for c in children:
        word += c.word
    return ParseTree(production.lhs, production, children, word)


def test_recognize_bool(bool_g):
    E, T, F = bool_g.symbol("E"), bool_g.symbol("T"), bool_g.symbol("F")
    assert recognize(bool_g, T, w(bool_g, "a = b"))
    assert recognize(bool_g, E, w(bool_g, "a = b"))
    assert recognize(bool_g, E, w(bool_g, "a = b OR 1 = 1"))
    assert not recognize(bool_g, T, w(bool_g, "a = b OR 1 = 1"))
    assert not recognize(bool_g, E, ())
    assert recognize(bool_g, F, ())
    assert recognize(bool_g, F, w(bool_g, "OR a = b"))
    assert not recognize(bool_g, E, w(bool_g, "a ="))


def test_recognize_eng(eng_g):
    Sent = eng_g.symbol("Sent")
    assert recognize(eng_g, Sent, w(eng_g, "Alice knows Bob"))
    assert not recognize(eng_g, Sent, w(eng_g, "him knows Alice"))


def test_recognize_agrees_with_enumeration(bool_g):
    """Exact cross-check on every string of up to three tokens."""
    E = bool_g.symbol("E")
    language = enumerate_words(bool_g, E, 3)
    sigma = sorted(bool_g.terminals, key=lambda s: s.name)
    for n in range(4):
        for cand in product(sigma, repeat=n):
            assert recognize(bool_g, E, cand) == (cand in language)


def test_parse_tree_unique(bool_g):
    out = parse_tree(bool_g, bool_g.symbol("E"), w(bool_g, "a = b"))
    assert isinstance(out, Unique)
    t = out.tree
    assert t.root == bool_g.symbol("E")
    assert t.production == bool_g.productions[0]
    assert t.word == w(bool_g, "a = b")
    assert [c.label() for c in t.children] == ["C", "F"]


def test_parse_tree_reject(bool_g):
    assert isinstance(parse_tree(bool_g, bool_g.symbol("E"), w(bool_g, "a =")), Reject)


def test_parse_tree_ambiguous(ambiguous_g):
    S = ambiguous_g.symbol("S")
    assert isinstance(parse_tree(ambiguous_g, S, w(ambiguous_g, "x x")), Unique)
    out = parse_tree(ambiguous_g, S, w(ambiguous_g, "x x x"))
    assert isinstance(out, Ambiguous)
    assert out.first != out.second
    assert out.first.word == out.second.word == w(ambiguous_g, "x x x")


def test_check_unambiguous_pass(bool_g, eng_g):
    assert check_unambiguous(bool_g, bool_g.symbol("E"), 6) == Pass(6)
    assert check_unambiguous(eng_g, eng_g.symbol("Sent"), 4) == Pass(4)


def test_check_unambiguous_witness(ambiguous_g):
    out = check_unambiguous(ambiguous_g, ambiguous_g.symbol("S"), 5)
    assert isinstance(out, Witness)
    assert len(out.word) == 3
    assert out.first != out.second


def _reference_check_unambiguous(g, a, max_len):
    """The reference: parse every word of a up to max_len, shortest first,
    until one parses ambiguously."""
    for word in iter_words_sorted(enumerate_words(g, a, max_len)):
        outcome = parse_tree(g, a, word)
        if isinstance(outcome, Ambiguous):
            return Witness(word, outcome.first, outcome.second)
    return Pass(max_len)


def _assert_ambiguity_matches_the_reference(g, bound=6):
    """At every bound up to bound and for every nonterminal, check_unambiguous
    answers as the reference, off a table grown in steps; and the table's
    ambiguous words are exactly the words that parse ambiguously.  Returns
    the reference's answers."""
    fresh = Grammar(g.terminals, g.nonterminals, g.productions, g.start)
    answers = []
    for a in sorted(g.nonterminals, key=lambda s: s.name):
        want = _reference_check_unambiguous(g, a, bound)
        answers.append(want)
        for b in range(bound + 1):
            expected = want if isinstance(want, Witness) and len(want.word) <= b else Pass(b)
            assert check_unambiguous(fresh, a, b) == expected, (a, b)
    for a in sorted(g.nonterminals, key=lambda s: s.name):
        twice = {word for word in enumerate_words(g, a, 5) if isinstance(parse_tree(g, a, word), Ambiguous)}
        assert ambiguous_words(fresh, a, 5) == twice, a
    return answers


@st.composite
def ambiguous_grammars(draw):
    """Random grammars with no cycle forced in, most of them ambiguous: S
    derives A B and B A, and the rules drawn may give both a common word."""
    nts = ["S", "A", "B"]
    rhs = st.lists(st.sampled_from(nts + ["x", "y"]), max_size=3).map(tuple)
    rules = set(draw(st.lists(st.tuples(st.sampled_from(nts), rhs), min_size=1, max_size=6)))
    rules |= {("S", ("A", "B")), ("S", ("B", "A")), ("A", ("x",)), ("B", draw(st.sampled_from([("x",), ("y",), ()])))}
    sym = {n: nonterminal(n) for n in nts} | {t: terminal(t) for t in ("x", "y")}
    prods = tuple(Production(sym[lhs], tuple(sym[s] for s in body)) for lhs, body in sorted(rules))
    return Grammar(frozenset({sym["x"], sym["y"]}), frozenset(sym[n] for n in nts), prods, sym["S"])


@settings(max_examples=150)
@given(st.one_of(cyclic_grammars(), ambiguous_grammars()))
def test_check_unambiguous_matches_the_reference_on_random_grammars(g):
    for answer in _assert_ambiguity_matches_the_reference(g):
        event(type(answer).__name__)


@pytest.mark.parametrize(
    "text",
    [
        NESTED_NULLABLE_CYCLES,
        "start S\nS ::= S S | x ;\n",
        "start S\nS ::= A | x ;\nA ::= S ;\n",
        "start S\nS ::= x N ;\nN ::= N | ;\n",
        "start S\nS ::= A A ;\nA ::= x | x x | ;\n",
    ],
)
def test_check_unambiguous_matches_the_reference_on_cycles(text):
    _assert_ambiguity_matches_the_reference(parse_grammar_file(text))


@pytest.mark.parametrize("name", ["bool.g", "eng.g"])
def test_check_unambiguous_matches_the_reference_on_the_bundled_grammars(name, load_bundled):
    _assert_ambiguity_matches_the_reference(load_bundled(name))


def test_check_unambiguous_parses_only_its_witness(load_bundled, ambiguous_g, spy):
    calls = spy(earley, "parse_tree")
    g = load_bundled("bool.g")
    assert check_unambiguous(g, g.symbol("E"), 11) == Pass(11)
    assert calls == []
    out = check_unambiguous(ambiguous_g, ambiguous_g.symbol("S"), 6)
    assert isinstance(out, Witness) and render_word(out.word) == "x x x"
    assert len(calls) == 1


def test_sentential_forms(bool_g):
    E, T, V = bool_g.symbol("E"), bool_g.symbol("T"), bool_g.symbol("V")
    # a nonterminal of the input stands for itself
    assert recognize(bool_g, E, w(bool_g, "a =") + (V,))
    assert recognize(bool_g, E, (T,))
    assert recognize(bool_g, V, (V,))  # a derivation in zero steps
    assert not recognize(bool_g, T, (E,))
    assert not recognize(bool_g, T, (V, V))
    out = parse_tree(bool_g, T, w(bool_g, "a =") + (V,))
    assert isinstance(out, Unique)
    assert out.tree.word == w(bool_g, "a =") + (V,)
    assert out.tree.children[2] == token_leaf(V)
    assert parse_tree(bool_g, V, (V,)) == Unique(token_leaf(V))
    assert isinstance(parse_tree(bool_g, T, (E,)), Reject)


def _lifted(g):
    """The reference: g plus, for each nonterminal X, a fresh token 'X and a rule X ::= 'X."""
    lift = {x: terminal(f"'{x.name}") for x in sorted(g.nonterminals, key=lambda s: s.name)}
    extra = tuple(Production(x, (tok,)) for x, tok in lift.items())
    return Grammar(g.terminals | frozenset(lift.values()), g.nonterminals, g.productions + extra, g.start), lift


def _lowered(t, g):
    """A parse tree of the lifted grammar with each lift node X ::= 'X read as the leaf X."""
    if t.production is None:
        return t
    if t.production not in g.productions:
        return token_leaf(t.root)
    return internal_node(t.production, tuple(_lowered(c, g) for c in t.children))


@settings(max_examples=300)
@given(
    cyclic_grammars(),
    st.sampled_from(["S", "A", "B"]),
    st.lists(st.sampled_from(["S", "A", "B", "x", "y"]), max_size=4),
)
def test_sentential_forms_match_the_lifted_grammar(g, goal, names):
    a = g.symbol(goal)
    form = tuple(g.symbol(n) for n in names)
    g2, lift = _lifted(g)
    assert recognize(g, a, form) == recognize(g2, a, tuple(lift.get(s, s) for s in form))
    if all(s.is_terminal for s in form):
        assert recognize(g, a, form) == (form in enumerate_words(g, a, len(form)))


def _textbook_chart(g, a, w):
    """The reference: an Earley chart that scans each origin column in full on completion."""
    by_lhs = memo(g, lhs_index)
    n = len(w)
    columns = [[] for _ in range(n + 1)]
    in_col = [set() for _ in range(n + 1)]

    def add(col, item):
        if item not in in_col[col]:
            in_col[col].add(item)
            columns[col].append(item)

    for pid in by_lhs.get(a, ()):
        add(0, (pid, 0, 0))
    for i in range(n + 1):
        completed_empty = set()
        idx = 0
        col = columns[i]
        while idx < len(col):
            pid, dot, origin = col[idx]
            idx += 1
            prod = g.productions[pid]
            if dot == len(prod.rhs):
                if origin == i:
                    completed_empty.add(prod.lhs)
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
                if sym in completed_empty:
                    add(i, (pid, dot + 1, origin))
        if i < n and w[i].kind is SymbolKind.NONTERMINAL:
            for pid, dot, origin in col:
                rhs = g.productions[pid].rhs
                if dot < len(rhs) and rhs[dot] == w[i]:
                    add(i + 1, (pid, dot + 1, origin))
    return columns


def _textbook_spans(g, w, columns):
    """Every completed (symbol, start, end) of the reference chart; an input nonterminal spans itself."""
    spans = {(s, k, k + 1) for k, s in enumerate(w) if s.kind is SymbolKind.NONTERMINAL}
    for j, col in enumerate(columns):
        for pid, dot, origin in col:
            prod = g.productions[pid]
            if dot == len(prod.rhs):
                spans.add((prod.lhs, origin, j))
    return spans


def _symbol_ends(g, form, chart):
    """The span index of form's chart keyed by (symbol, start), as the
    reference walk reads it.

    The id past the declared symbols is an undeclared nonterminal of the form
    spanning itself."""
    syms = [*g.symbol_table().ids]
    return {(syms[x] if x < len(syms) else form[o], o): es for (x, o), es in _span_ends(g, chart).items()}


def _assert_textbook_spans(g, a, form):
    ends = _symbol_ends(g, form, pushed(g, (a,), form))
    assert all(e == sorted(set(e)) for e in ends.values())
    spans = {(x, o, e) for (x, o), es in ends.items() for e in es}
    ref = _textbook_spans(g, form, _textbook_chart(g, a, form))
    assert spans == ref, (a, form)
    assert recognize(g, a, form) == ((a, 0, len(form)) in ref)


_SYMBOLS = ["S", "A", "B", "R", "x", "y"]


@settings(max_examples=400)
@given(
    cyclic_grammars(),
    st.sampled_from(["S", "A", "B", "R"]),
    st.one_of(
        st.lists(st.sampled_from(_SYMBOLS), max_size=6),
        # a run of x, so that R's right recursion builds Leo paths
        st.builds(lambda k, tail: ["x"] * k + tail, st.integers(1, 4), st.lists(st.sampled_from(_SYMBOLS), max_size=2)),
    ),
)
def test_chart_matches_the_textbook_chart(g, goal, names):
    a = g.symbol(goal)
    form = tuple(g.symbol(n) for n in names)
    _assert_textbook_spans(g, a, form)
    if all(s.is_terminal for s in form):
        assert recognize(g, a, form) == (form in enumerate_words(g, a, len(form)))


@pytest.mark.parametrize(
    "text", ["start S\nS ::= x S | A ;\nA ::= S y | ;\n", "start S\nS ::= x S | y ;\n"], ids=["with_A", "plain"]
)
def test_right_recursion_matches_the_textbook_chart(text):
    g = parse_grammar_file(text)
    symbols = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    for a in sorted(g.nonterminals, key=lambda s: s.name):
        for n in range(6):
            for form in product(symbols, repeat=n):
                _assert_textbook_spans(g, a, form)


def test_long_chains_match_the_textbook_chart(bool_g):
    E = bool_g.symbol("E")
    for text in ("1 = a AND 1 = a AND 1 = a", "1 = a AND b = b OR a = 1 AND 1 = 1 AND a = a", "1 = a AND 1 = a AND"):
        chain = w(bool_g, text)
        for k in range(len(chain) + 1):
            _assert_textbook_spans(bool_g, E, chain[:k])


def test_chart_grows_linearly_on_right_recursion(bool_g):
    """`D ::= AND T D` completes through one transitive item per column."""
    E = bool_g.symbol("E")
    lengths, items = [], []
    for tests in (25, 50, 100, 200, 400, 800, 1200):  # 99 … 4799 tokens
        chain = w(bool_g, " AND ".join(["1 = a"] * tests))
        lengths.append(len(chain))
        columns, _, _ = _chart(bool_g, (E,), chain)
        items.append(sum(len(col) for col in columns))
    for k in range(1, len(items)):
        assert items[k] / items[k - 1] <= 2.1 ** log2(lengths[k] / lengths[k - 1]), (lengths, items)
    assert recognize(bool_g, E, chain)
    eq = len(chain) // 2 - (len(chain) // 2) % 4 + 1  # an `=`
    broken = chain[:eq] + (bool_g.symbol("AND"),) + chain[eq + 1 :]
    assert chain[eq] == bool_g.symbol("=")
    assert not recognize(bool_g, E, broken)


def _assert_prefix_ends(g, a, form):
    """Chart.ends reads recognition of every prefix off one chart, and of
    every suffix off one reversed chart, from the start a alone or from a
    and every nonterminal."""
    n = len(form)
    every = (a, *sorted(g.nonterminals, key=lambda s: s.name))
    prefixes = [k for k in range(n + 1) if recognize(g, a, form[:k])]
    suffixes = [j for j in range(n + 1) if recognize(g, a, form[j:])]
    for starts in ((a,), every):
        assert pushed(g, starts, form).ends(a) == prefixes, (a, form, starts)
        assert suffix_ends(g, starts, form, a) == suffixes, (a, form, starts)


@settings(max_examples=300)
@given(
    cyclic_grammars(),
    st.sampled_from(["S", "A", "B", "R"]),
    st.one_of(
        st.lists(st.sampled_from(_SYMBOLS), max_size=6),
        st.builds(lambda k, tail: ["x"] * k + tail, st.integers(1, 5), st.lists(st.sampled_from(_SYMBOLS), max_size=2)),
    ),
)
def test_prefix_ends_match_recognize(g, goal, names):
    _assert_prefix_ends(g, g.symbol(goal), tuple(g.symbol(n) for n in names))


@pytest.mark.parametrize(
    "text", ["start S\nS ::= x S | A ;\nA ::= S y | ;\n", "start S\nS ::= x S | y ;\n"], ids=["with_A", "plain"]
)
def test_prefix_ends_on_right_recursion(text):
    g = parse_grammar_file(text)
    symbols = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    for a in sorted(g.nonterminals, key=lambda s: s.name):
        for n in range(6):
            for form in product(symbols, repeat=n):
                _assert_prefix_ends(g, a, form)


def test_prefix_ends_on_long_chains(bool_g):
    """The chains complete through Leo's transitive items, the augmented start included."""
    for text in ("1 = a AND 1 = a AND 1 = a", "1 = a AND b = b OR a = 1 AND 1 = 1 AND a = a", "1 = a AND 1 = a AND"):
        chain = w(bool_g, text)
        _, _, leo = _chart(bool_g, (bool_g.symbol("E"),), chain)
        assert any(top is not None for top in leo.values())
        for sym in ("E", "C", "D", "F", "T"):
            for k in range(len(chain)):
                _assert_prefix_ends(bool_g, bool_g.symbol(sym), chain[k:])
    E = bool_g.symbol("E")
    chain = w(bool_g, " AND ".join(["1 = a"] * 200))
    assert pushed(bool_g, (E,), chain).ends(E) == list(range(3, len(chain) + 1, 4))
    assert suffix_ends(bool_g, (E,), chain, E) == list(range(0, len(chain) - 2, 4))


def test_ends_read_spans_that_a_leo_path_completes():
    """In the mirror grammar, S ::= x A completes over reversed  B x  only
    through the Leo path from A: column 2 holds the completed augmented
    start but no completed S, so the empty suffix split is read off the
    expanded path, not off the column's items."""
    g = parse_grammar_file(PINNED_GRAMMARS["empty_folds"])
    S, B, x = g.symbol("S"), g.symbol("B"), g.symbol("x")
    every = tuple(sorted(g.nonterminals, key=lambda s: s.name))
    for starts in ((S,), every):
        assert suffix_ends(g, starts, (B, x), S) == [0, 1]


@pytest.mark.parametrize("name", ["unit_cycle", "empty_folds"])
def test_sentential_form_trees_match_the_lifted_grammar(name):
    g = parse_grammar_file(PINNED_GRAMMARS[name])
    g2, lift = _lifted(g)
    symbols = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    for a in sorted(g.nonterminals, key=lambda s: s.name):
        for n in range(4):
            for form in product(symbols, repeat=n):
                got = parse_tree(g, a, form)
                ref = parse_tree(g2, a, tuple(lift.get(s, s) for s in form))
                assert type(got) is type(ref), (a, form)
                if isinstance(ref, Unique):
                    assert got.tree == _lowered(ref.tree, g), (a, form)
                elif isinstance(ref, Ambiguous):
                    assert (got.first, got.second) == (_lowered(ref.first, g), _lowered(ref.second, g)), (a, form)


def _reference_trees(g, w, ends, sym, i, j, path):
    """The reference: every tree of sym over w[i:j] in derivation order, by a
    walk that re-derives a child's trees for every tree of its left siblings."""
    key = (sym, i, j)
    if path.count(key) >= 2:
        return
    path = path + (key,) if path and path[-1][1] == i and path[-1][2] == j else (key,)
    by_lhs = memo(g, lhs_index)

    def assignments(rhs, pos):
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

            def expand(k, acc):
                if k == len(assignment):
                    yield internal_node(prod, acc)
                    return
                s, p, q = assignment[k]
                if s.is_terminal:
                    yield from expand(k + 1, acc + (token_leaf(s),))
                    return
                for sub in _reference_trees(g, w, ends, s, p, q, path):
                    yield from expand(k + 1, acc + (sub,))

            yield from expand(0, ())
    if j == i + 1 and w[i].kind is SymbolKind.NONTERMINAL and w[i] == sym:
        yield token_leaf(sym)


def _reference_parse(g, a, form):
    """parse_tree's answer from the first two distinct trees of the reference walk."""
    chart = pushed(g, (a,), form)
    if not chart.accepts(a):
        return Reject()
    found = []
    for t in _reference_trees(g, form, _symbol_ends(g, form, chart), a, 0, len(form), ()):
        if t not in found:
            found.append(t)
        if len(found) == 2:
            return Ambiguous(found[0], found[1])
    return Unique(found[0]) if found else Reject()


def _assert_derives(g, a, form, t):
    """t is a derivation tree of the sentential form from a."""
    assert t.root == a and t.word == form
    if t.production is None:
        assert form == (a,) and not t.children
        return
    assert t.production in g.productions and t.production.lhs == a
    if not t.production.rhs:
        assert t.children == (EPS_LEAF,) and form == ()
        return
    assert tuple(c.root for c in t.children) == t.production.rhs
    k = 0
    for c in t.children:
        _assert_derives(g, c.root, form[k : k + len(c.word)], c)
        k += len(c.word)


def _assert_trees_match_the_reference(g, a, form):
    """parse_tree gives the reference's outcome and first two trees; where the
    reference runs past its time limit, its trees are checked alone.
    Returns whether the reference answered."""
    got = parse_tree(g, a, form)
    trees = [got.tree] if isinstance(got, Unique) else [got.first, got.second] if isinstance(got, Ambiguous) else []
    for t in trees:
        _assert_derives(g, a, form, t)
    assert len(set(trees)) == len(trees)
    assert isinstance(got, Reject) == (not recognize(g, a, form))
    try:
        with _time_limit(0.5):
            ref = _reference_parse(g, a, form)
    except _TooSlow:
        return False
    assert got == ref, (a, form)
    return True


@ignore_swallowed_alarms
@settings(max_examples=300)
@given(
    cyclic_grammars(),
    st.sampled_from(["S", "A", "B", "R"]),
    st.one_of(
        st.lists(st.sampled_from(_SYMBOLS), max_size=5),
        st.builds(lambda k, tail: ["x"] * k + tail, st.integers(1, 4), st.lists(st.sampled_from(_SYMBOLS), max_size=2)),
    ),
)
def test_trees_match_the_reference_walk_on_random_grammars(g, goal, names):
    if not _assert_trees_match_the_reference(g, g.symbol(goal), tuple(g.symbol(n) for n in names)):
        event("the reference walk ran past its time limit")


@ignore_swallowed_alarms
@pytest.mark.parametrize("name", sorted(PINNED_GRAMMARS))
def test_trees_match_the_reference_walk_on_every_short_form(name, bool_g):
    g = bool_g if name == "bool" else parse_grammar_file(PINNED_GRAMMARS[name])
    symbols = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    for a in sorted(g.nonterminals, key=lambda s: s.name):
        for n in range(4):
            for form in product(symbols, repeat=n):
                assert _assert_trees_match_the_reference(g, a, form), (a, form)


def test_symbol_ids_are_built_once_per_grammar(load_bundled, spy):
    """parse_tree's walk and Chart.goals read the grammar's one id table,
    and fold_chain builds no other."""
    g = load_bundled("bool")
    built = spy(grammar, "SymbolTable")
    E, V = g.symbol("E"), g.symbol("V")
    form = w(g, "1 = a AND b = b")
    tree = parse_tree(g, E, form).tree
    assert built == [(g,)]
    every = tuple(sorted(g.nonterminals, key=lambda s: s.name))
    assert pushed(g, every, form).goals(2, V) == {g.symbol(n) for n in "CET"}
    fold_chain(g, Sequent(tuple(map(Atom, form)), Atom(E)), tree)
    assert built == [(g,)]


def test_suffix_splits_build_no_grammar(load_bundled, spy):
    """A suffix chart reads g's own rules in reverse; no mirrored grammar is built."""
    g = load_bundled("bool")
    built = spy(Grammar, "__init__")
    E, V = g.symbol("E"), g.symbol("V")
    chain = w(g, "1 = a AND b = b OR a = 1")
    every = tuple(sorted(g.nonterminals, key=lambda s: s.name))
    chart = pushed(g, every, chain, reverse=True)
    assert chart.ends(E) == [len(chain) - j for j in (8, 4, 0)] and E in chart.goals(2, V)
    assert built == []


def test_dotted_rules_are_built_once_per_orientation(load_bundled, spy):
    """The tree walk's span index and the forward chart share one table, and
    the suffix chart has the other."""
    g = load_bundled("bool")
    built = spy(earley, "_dotted_rules")
    E, V = g.symbol("E"), g.symbol("V")
    form = w(g, "1 = a AND b = b")
    every = tuple(sorted(g.nonterminals, key=lambda s: s.name))
    assert isinstance(parse_tree(g, E, form), Unique)
    cet = {g.symbol(n) for n in "CET"}
    assert pushed(g, every, form).goals(2, V) == cet  # 1 = V
    assert pushed(g, every, form, reverse=True).goals(2, V) == cet  # V = b
    assert [args[1:] for args in built] == [(False,), (True,)]


def test_the_tree_walk_expands_each_span_and_path_once(spy):
    """Under unit and nullable cycles a span is reached again under the same
    same-range ancestors; the walk's table answers it then.  Expanding a
    span calls _fits at position 0 at most once per production."""
    g = parse_grammar_file(NESTED_NULLABLE_CYCLES)
    calls = spy(earley, "_fits")
    S, x = g.symbol("S"), g.symbol("x")
    for a, form in ((S, (x, x)), (g.symbol("A"), (g.symbol("A"),)), (S, ())):
        calls.clear()
        parse_tree(g, a, form)
        # _fits(shapes, walk, rhs, flags, after, k, pos, j, path)
        expanded = [(args[8], args[2]) for args in calls if args[5] == 0]
        assert expanded and len(expanded) == len(set(expanded)), (a, form)


def test_only_the_tree_walk_builds_the_span_index(bool_g, spy):
    """recognize and Chart read each start's completed augmented item; only
    parse_tree's walk reads the span index."""
    built = spy(earley, "_span_ends")
    C, E, T, V = (bool_g.symbol(n) for n in "CETV")
    every = tuple(sorted(bool_g.nonterminals, key=lambda s: s.name))
    chain = w(bool_g, "1 = a AND b = b OR a = 1 AND 1 = 1")
    assert recognize(bool_g, E, chain)
    for reverse in (False, True):
        assert pushed(bool_g, (E,), chain, reverse).ends(E)
        assert pushed(bool_g, every, chain, reverse).ends(V)
        assert pushed(bool_g, every, chain, reverse).goals(2, V) == {C, E, T}
    assert built == []
    assert isinstance(parse_tree(bool_g, E, chain), Unique)
    assert len(built) == 1


def test_undeclared_symbols_derive_only_themselves(bool_g):
    """A symbol the grammar does not declare gets the id that no production
    uses: forms that hold one parse, recognize and split as they did when
    the index was keyed by symbols, and nothing raises KeyError."""
    E, T, V = (bool_g.symbol(n) for n in "ETV")
    zz, Q = terminal("zz"), nonterminal("Q")
    every = tuple(sorted(bool_g.nonterminals, key=lambda s: s.name))
    form = w(bool_g, "a =") + (zz,)
    assert parse_tree(bool_g, E, form) == Reject() and not recognize(bool_g, E, form)
    assert pushed(bool_g, (V,), form).ends(V) == [1]
    assert pushed(bool_g, every, form).goals(2, V) == {bool_g.symbol(n) for n in "CET"}
    assert pushed(bool_g, (*every, Q), form).goals(0, Q) == {Q}
    assert parse_tree(bool_g, Q, (Q,)) == Unique(token_leaf(Q))
    assert pushed(bool_g, (Q,), (Q,)).ends(Q) == [1]
    assert suffix_ends(bool_g, (Q,), (Q,), Q) == [0]
    # two undeclared symbols share the id that no production uses, but not their spans
    R = nonterminal("R")
    assert pushed(bool_g, (Q,), (R,)).ends(Q) == []
    assert pushed(bool_g, (zz,), (zz,)).ends(zz) == [1] and recognize(bool_g, zz, (zz,))
    assert isinstance(parse_tree(bool_g, T, w(bool_g, "a =") + (Q,)), Reject)
    symbols = [*w(bool_g, "a = AND"), V, zz, Q]
    for a in (E, T, V, Q):
        for n in range(4):
            for form in product(symbols, repeat=n):
                _assert_textbook_spans(bool_g, a, form)
                assert _assert_trees_match_the_reference(bool_g, a, form), (a, form)
                _assert_prefix_ends(bool_g, a, form)


def test_tree_table_grows_linearly_on_right_recursion(bool_g):
    """The walk keeps the trees of a bounded number of spans per token of
    `1 = a AND …`, though the span index holds quadratically many."""
    E = bool_g.symbol("E")
    lengths, entries = [], []
    for tests in (25, 50, 100, 200):  # 99 … 799 tokens
        chain = w(bool_g, " AND ".join(["1 = a"] * tests))
        walk = _walk(bool_g, pushed(bool_g, (E,), chain))
        found = _trees(memo(bool_g, _rhs_shapes), walk, bool_g.symbol_table().ids[E], 0, len(chain), ())
        assert len(found) == 1 and found[0].word == chain
        lengths.append(len(chain))
        entries.append(len(walk[-1]))
    for k in range(1, len(entries)):
        assert entries[k] / entries[k - 1] <= 2.1 ** log2(lengths[k] / lengths[k - 1]), (lengths, entries)


def test_render_tree_text(bool_g):
    out = parse_tree(bool_g, bool_g.symbol("T"), w(bool_g, "a = b"))
    lines = render_tree_text(out.tree).splitlines()
    assert lines[0] == "T"
    assert lines[1:] == ["  V", "    a", "  =", "  V", "    b"]


def test_tree_to_json(bool_g):
    out = parse_tree(bool_g, bool_g.symbol("T"), w(bool_g, "a = b"))
    obj = tree_to_json(out.tree, bool_g)
    assert obj["sym"] == "T"
    assert bool_g.productions[obj["prod_index"]].lhs.name == "T"
    leaf = obj["children"][1]
    assert leaf == {"sym": "=", "prod_index": None, "children": []}


def test_tree_to_json_nonterminal_leaf(bool_g):
    V = bool_g.symbol("V")
    out = parse_tree(bool_g, bool_g.symbol("T"), w(bool_g, "a =") + (V,))
    obj = tree_to_json(out.tree, bool_g)
    assert obj["children"][0]["prod_index"] is not None
    assert obj["children"][2] == {"sym": "V", "prod_index": None, "children": []}


def _render_recursively(t):
    lines = []

    def walk(node, depth):
        lines.append("  " * depth + node.label())
        for c in node.children:
            walk(c, depth + 1)

    walk(t, 0)
    return "\n".join(lines)


def _to_json_recursively(t, g):
    index = memo(g, production_ids)
    return {
        "sym": t.label(),
        "prod_index": None if t.production is None else index[t.production],
        "children": [_to_json_recursively(c, g) for c in t.children],
    }


def test_tree_encoders_answer_on_a_deep_tree():
    """A left recursion's tree is as deep as its input is long: both encoders
    answer on 3 000 levels under the default recursion limit, as the
    recursive definitions do under a raised one."""
    g = parse_grammar_file("start S\nS ::= S a | a ;\n")
    S, a = g.symbol("S"), g.symbol("a")
    tree = internal_node(Production(S, (a,)), (token_leaf(a),))
    for _ in range(2999):
        tree = internal_node(Production(S, (S, a)), (tree, token_leaf(a)))
    text, obj = render_tree_text(tree), tree_to_json(tree, g)
    limit = sys.getrecursionlimit()
    assert limit < 3000
    sys.setrecursionlimit(20_000)
    try:
        assert text == _render_recursively(tree)
        assert obj == _to_json_recursively(tree, g)
    finally:
        sys.setrecursionlimit(limit)


def test_internal_node_concatenates_yields(bool_g):
    p = bool_g.productions[memo(bool_g, lhs_index)[bool_g.symbol("V")][1]]
    node = internal_node(p, (token_leaf(p.rhs[0]),))
    assert node.word == (p.rhs[0],)
    assert node.label() == "V"


def _assert_continued_columns(g, form):
    """At every split and for every nonterminal ψ, the continued columns name
    exactly the nonterminals that recognize w[:j] ψ and ψ w[k:]."""
    nts = tuple(sorted(g.nonterminals, key=lambda s: s.name))
    after, before = pushed(g, nts, form), pushed(g, nts, form, reverse=True)
    n = len(form)
    for j in range(n + 1):
        for psi in nts:
            assert after.goals(j, psi) == {x for x in nts if recognize(g, x, form[:j] + (psi,))}, (form, j, psi)
            assert before.goals(n - j, psi) == {x for x in nts if recognize(g, x, (psi,) + form[j:])}, (form, j, psi)


@settings(max_examples=200)
@given(
    cyclic_grammars(),
    st.one_of(
        st.lists(st.sampled_from(_SYMBOLS), max_size=6),
        st.builds(lambda k, tail: ["x"] * k + tail, st.integers(1, 5), st.lists(st.sampled_from(_SYMBOLS), max_size=2)),
    ),
)
def test_continued_columns_match_recognize(g, names):
    _assert_continued_columns(g, tuple(g.symbol(n) for n in names))


@pytest.mark.parametrize(
    "text",
    [NESTED_NULLABLE_CYCLES, "start S\nS ::= x S | A ;\nA ::= S y | ;\n"],
    ids=["nested_nullable_cycles", "right_recursion"],
)
def test_continued_columns_match_recognize_on_every_short_form(text):
    g = parse_grammar_file(text)
    symbols = sorted(g.terminals | g.nonterminals, key=lambda s: s.name)
    for n in range(4):
        for form in product(symbols, repeat=n):
            _assert_continued_columns(g, form)


def test_continued_columns_on_long_chains(bool_g):
    """Leo paths skip the completions of D and C; the continued columns read them back."""
    chain = w(bool_g, "1 = a AND b = b OR a = 1 AND 1 = 1 AND a = a")
    for k in range(len(chain) + 1):
        _assert_continued_columns(bool_g, chain[k:])


def test_continued_columns_leave_the_chart_as_it_was(bool_g):
    """Reading every split twice, in either order, gives the same answers."""
    chain = w(bool_g, "1 = a AND b = b OR a = 1")
    nts = tuple(sorted(bool_g.nonterminals, key=lambda s: s.name))
    for reverse in (False, True):
        read = pushed(bool_g, nts, chain, reverse).goals
        splits = [(j, psi) for j in range(len(chain) + 1) for psi in nts]
        first = [read(j, psi) for j, psi in splits]
        assert [read(j, psi) for j, psi in reversed(splits)] == first[::-1]


@pytest.mark.parametrize("name", ["bool", "unit_cycle"])
def test_terminal_starts_derive_only_themselves(name, bool_g):
    """A terminal start goes through the chart and the walk like any other
    start: it derives exactly the form of itself, an undeclared one too."""
    g = bool_g if name == "bool" else parse_grammar_file(PINNED_GRAMMARS[name])
    zz, Q = terminal("zz"), nonterminal("Q")
    symbols = [*sorted(g.terminals | g.nonterminals, key=lambda s: s.name), zz, Q]
    for a in [*sorted(g.terminals, key=lambda s: s.name), zz]:
        for n in range(4):
            for form in product(symbols, repeat=n):
                assert parse_tree(g, a, form) == (Unique(token_leaf(a)) if form == (a,) else Reject()), (a, form)


def chart_state(chart):
    """A copy of everything a chart holds: its input, columns, waiters and Leo entries."""
    return (
        tuple(chart.word),
        [list(col) for col in chart.columns],
        [{x: list(ws) for x, ws in wait.items()} for wait in chart.waits],
        dict(chart.leo),
    )


def _assert_answers_as_a_fresh_chart(g, starts, reverse, chart):
    """accepts, ends and goals, and the columns themselves, as a chart that
    read the same symbols in one push."""
    fresh = Chart(g, starts, reverse)
    fresh.push(tuple(chart.word))
    assert chart.columns == fresh.columns, chart.word
    for a in starts:
        assert chart.accepts(a) == fresh.accepts(a) and chart.ends(a) == fresh.ends(a), (a, chart.word)
    for j in range(len(chart.word) + 1):
        for psi in starts:
            assert chart.goals(j, psi) == fresh.goals(j, psi), (j, psi, chart.word)


@settings(max_examples=150)
@given(
    cyclic_grammars(),
    st.booleans(),
    st.sampled_from([("S",), ("S", "A", "B", "R")]),
    st.lists(
        st.one_of(
            st.lists(st.sampled_from(_SYMBOLS), max_size=3).map(tuple),
            st.integers(1, 4).map(lambda k: ("x",) * k),
            st.integers(0, 5),
        ),
        max_size=7,
    ),
)
def test_pushes_and_pops_answer_as_a_fresh_chart(g, reverse, names, steps):
    """Any sequence of pushes and of pops back to an earlier mark, forward and
    reversed; a step that is a number pops to that mark, counted modulo the
    marks still valid.  A pop also restores the Leo entries of its mark."""
    starts = tuple(g.symbol(n) for n in names)
    chart = Chart(g, starts, reverse)
    marks = [(chart.mark(), {})]
    for step in steps:
        if isinstance(step, tuple):
            chart.push(tuple(g.symbol(n) for n in step))
            marks.append((chart.mark(), dict(chart.leo)))
        else:
            k = step % len(marks)
            chart.pop(marks[k][0])
            assert chart.leo == marks[k][1]
            del marks[k + 1 :]
        _assert_answers_as_a_fresh_chart(g, starts, reverse, chart)


class _Deadline(BaseException):
    """Raised as the benchmark's deadline is: not an Exception."""


class _RaisingLeo(dict):
    """A Leo memo that raises _Deadline right after its k-th write."""

    def __init__(self, entries, k):
        super().__init__(entries)
        self.k = k

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.k -= 1
        if self.k == 0:
            raise _Deadline


def test_a_push_that_raises_is_undone_by_its_pop(bool_g):
    """A push that raises between any two writes of the Leo memo, a path's
    cycle marker included, leaves the chart as it was once popped back to
    its mark: the same input, columns, waiters and Leo entries."""
    E = bool_g.symbol("E")
    chain = w(bool_g, "1 = a AND b = b AND a = 1 AND 1 = 1 OR a = a AND b = 1")
    for reverse in (False, True):
        read = chain[::-1] if reverse else chain
        chart = Chart(bool_g, (E,), reverse)
        chart.push(read[:4])
        before = chart_state(chart)
        rest = read[4:]
        chart.leo = counted = _RaisingLeo(chart.leo, -1)
        mark = chart.mark()
        chart.push(rest)
        writes = -1 - counted.k
        assert chart.accepts(E) and writes > 2
        chart.pop(mark)
        assert chart_state(chart) == before
        for k in range(1, writes + 1):
            chart.leo = _RaisingLeo(chart.leo, k)
            mark = chart.mark()
            with pytest.raises(_Deadline):
                try:
                    chart.push(rest)
                finally:
                    chart.pop(mark)
            assert chart_state(chart) == before, k
        chart.leo = dict(chart.leo)
        chart.push(rest)
        assert chart.accepts(E)


def test_parse_tree_continues_a_prefix_chart_and_pops_it_back(bool_g):
    """A chart from the start that holds a prefix of the form parses it as a
    fresh parse does and is left as it was; one that holds anything else is
    an error."""
    E = bool_g.symbol("E")
    form = w(bool_g, "1 = a AND b = b OR a = 1")
    for k in (0, 3, len(form)):
        chart = pushed(bool_g, (E,), form[:k])
        before = chart_state(chart)
        assert parse_tree(bool_g, E, form, chart) == parse_tree(bool_g, E, form)
        assert parse_tree(bool_g, E, form[:k] + w(bool_g, "="), chart) == Reject()
        assert chart_state(chart) == before
    with pytest.raises(ValueError, match="not a prefix"):
        parse_tree(bool_g, E, w(bool_g, "1 = b"), pushed(bool_g, (E,), w(bool_g, "1 = a")))
