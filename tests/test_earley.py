from itertools import product
from math import log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambek.earley import (
    Ambiguous,
    Pass,
    Reject,
    Unique,
    Witness,
    check_unambiguous,
    internal_node,
    parse_tree,
    prefix_ends,
    recognize,
    render_tree_text,
    token_leaf,
    tree_to_json,
    _chart,
    _span_ends,
)
from lambek.grammar import (
    Grammar,
    Production,
    SymbolKind,
    enumerate_words,
    lhs_index,
    memo,
    mirror,
    parse_grammar_file,
    terminal,
    word_from_text,
)
from test_prover import PINNED_GRAMMARS, cyclic_grammars


def w(g, text):
    return word_from_text(g, text)


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


def _assert_textbook_spans(g, a, form):
    ends = _span_ends(g, form, _chart(g, a, form))
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
        columns, _, _ = _chart(bool_g, E, chain)
        items.append(sum(len(col) for col in columns))
    for k in range(1, len(items)):
        assert items[k] / items[k - 1] <= 2.1 ** log2(lengths[k] / lengths[k - 1]), (lengths, items)
    assert recognize(bool_g, E, chain)
    eq = len(chain) // 2 - (len(chain) // 2) % 4 + 1  # an `=`
    broken = chain[:eq] + (bool_g.symbol("AND"),) + chain[eq + 1 :]
    assert chain[eq] == bool_g.symbol("=")
    assert not recognize(bool_g, E, broken)


def _assert_prefix_ends(g, a, form):
    """prefix_ends reads prefix recognition off one chart; over the mirror grammar, suffix recognition."""
    n = len(form)
    assert prefix_ends(g, a, form) == [k for k in range(n + 1) if recognize(g, a, form[:k])], (a, form)
    suffixes = [k for k in range(n + 1) if recognize(g, a, form[n - k :])]
    assert prefix_ends(memo(g, mirror), a, form[::-1]) == suffixes, (a, form)


@settings(max_examples=300)
@given(
    cyclic_grammars(),
    st.sampled_from(["S", "A", "B", "R", "x"]),
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
        _, _, leo = _chart(bool_g, bool_g.symbol("E"), chain)
        assert any(top is not None for top in leo.values())
        for sym in ("E", "C", "D", "F", "T"):
            for k in range(len(chain)):
                _assert_prefix_ends(bool_g, bool_g.symbol(sym), chain[k:])
    E = bool_g.symbol("E")
    chain = w(bool_g, " AND ".join(["1 = a"] * 200))
    assert prefix_ends(bool_g, E, chain) == list(range(3, len(chain) + 1, 4))
    assert prefix_ends(memo(bool_g, mirror), E, chain[::-1]) == list(range(3, len(chain) + 1, 4))


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


def test_internal_node_concatenates_yields(bool_g):
    p = bool_g.productions[memo(bool_g, lhs_index)[bool_g.symbol("V")][1]]
    node = internal_node(p, (token_leaf(p.rhs[0]),))
    assert node.word == (p.rhs[0],)
    assert node.label() == "V"
