from itertools import product

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
    recognize,
    render_tree_text,
    token_leaf,
    tree_to_json,
)
from lambek.grammar import (
    Grammar,
    Production,
    enumerate_words,
    nonterminal,
    parse_grammar_file,
    terminal,
    word_from_text,
)
from test_prover import PINNED_GRAMMARS


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


@st.composite
def cyclic_grammars(draw):
    nts = ["S", "A", "B"]
    rhs = st.lists(st.sampled_from(nts + ["x", "y"]), max_size=3).map(tuple)
    rules = set(draw(st.lists(st.tuples(st.sampled_from(nts), rhs), max_size=6)))
    # at least one ε-rule and one unit cycle
    x, y, e = draw(st.sampled_from(nts)), draw(st.sampled_from(nts)), draw(st.sampled_from(nts))
    rules |= {(x, (y,)), (y, (x,)), (e, ())}
    sym = {n: nonterminal(n) for n in nts} | {t: terminal(t) for t in ("x", "y")}
    prods = tuple(Production(sym[lhs], tuple(sym[s] for s in body)) for lhs, body in sorted(rules))
    return Grammar(frozenset({sym["x"], sym["y"]}), frozenset(sym[n] for n in nts), prods, sym["S"])


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
    p = bool_g.productions_for(bool_g.symbol("V"))[1]
    node = internal_node(p, (token_leaf(p.rhs[0]),))
    assert node.word == (p.rhs[0],)
    assert node.label() == "V"
