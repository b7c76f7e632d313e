"""Hostile inputs, one named case per known cliff.

A case passes when its entry point returns a verdict, or raises ValueError
with a message (a CLI command: exits 1 or 2 with that message), within
LIMIT_S seconds, under the default recursion limit.  A RecursionError, a
KeyError or a traceback fails it, and so does a CLI error that names a
recursion error.  A case that fails today is a strict xfail whose reason
names the ROADMAP item that would mend it, so the change that mends it
turns it into a plain test.
"""
import io
import json
import sys
from contextlib import contextmanager

import pytest

from lambek.analyzer import AmbiguityError, Classification, InjectionContext, classify_input
from lambek.cli import run
from lambek.earley import parse_tree, recognize, render_tree_text, tree_to_json
from lambek.grammar import parse_grammar_file, word_from_text
from lambek.prover import Prover, RuleName, SearchStatus, _flat_proof, check_proof, proof_to_json, render_proof
from lambek.semantics import prove_with_prescreen
from lambek.types import Atom, Over, Sequent, iter_atoms, parse_sequent, parse_type, render_type, type_size
from test_prover import _preorder, _time_limit, ignore_swallowed_alarms

LIMIT_S = 5

pytestmark = ignore_swallowed_alarms


@contextmanager
def _case(limit_s=LIMIT_S):
    """Run a case under the default recursion limit and within limit_s seconds.

    A RecursionError is raised again from here, so that the report shows
    one frame, not the thousand that pytest would take seconds to render.
    """
    assert sys.getrecursionlimit() == 1000
    try:
        with _time_limit(limit_s):
            yield
    except RecursionError as e:
        raise RecursionError(str(e)) from None


def _chain(g, tests):
    """`1 = a AND …` with tests tests: 4 tests - 1 tokens."""
    return word_from_text(g, " AND ".join(["1 = a"] * tests))


def _cli(*argv):
    """Run a command; a CLI error that names a recursion error fails as one."""
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    if "recursion" in err.getvalue():
        raise RecursionError(err.getvalue())
    assert code in (0, 1) or (code == 2 and err.getvalue().startswith("error:")), (code, err.getvalue())
    return code, out.getvalue()


def _units(n):
    return "(1) , " * n + "b |- V"


def _proof_chain(tests):
    """The sequent of `"1" = a AND …` over E, with 4 tests - 1 tokens."""
    return " , AND , ".join(['"1" , = , a'] * tests) + " |- E"


def _ladder(functors, tests):
    """`E/E , … , "1" , = , a , AND , … ⊢ E`: functors E/E before a chain of 4 tests - 1 tokens."""
    return "E/E , " * functors + _proof_chain(tests)


def _a_equals_hole(g):
    """The template `a = _`, an E whose hole is a V."""
    return InjectionContext(word_from_text(g, "a ="), (), g.symbol("E"), g.symbol("V"))


def _attack(rungs):
    """`b (OR 1 = 1)^rungs`, which captures the `a =` before it."""
    return "b" + " OR 1 = 1" * rungs


def _nested_text(depth):
    """`E/(E/(… E …))`, depth levels deep."""
    return "E/(" * depth + "E" + ")" * depth


def _nested_type(g, depth):
    """The type that _nested_text(depth) names, built without the parser."""
    t = Atom(g.symbol("E"))
    for _ in range(depth):
        t = Over(Atom(g.symbol("E")), t)
    return t


@pytest.mark.xfail(strict=True, raises=RecursionError, reason="item 10: the tree walk recurses per span")
def test_parse_tree_of_a_1319_token_chain(bool_g):
    with _case():
        chain = _chain(bool_g, 330)
        assert len(chain) == 1319
        assert parse_tree(bool_g, bool_g.symbol("E"), chain).tree.word == chain


def test_recognize_of_a_10000_token_chain(bool_g):
    with _case():
        chain = _chain(bool_g, 2500) + word_from_text(bool_g, "AND")
        assert len(chain) == 10_000
        assert not recognize(bool_g, bool_g.symbol("E"), chain)
        assert recognize(bool_g, bool_g.symbol("E"), chain[:-1])


@pytest.mark.xfail(strict=True, raises=RecursionError, reason="item 2: the proof search recurses per step")
def test_prove_of_600_units(bool_g):
    with _case():
        assert Prover(bool_g).prove(parse_sequent(_units(600), bool_g)).proved


@pytest.mark.xfail(strict=True, raises=RecursionError, reason="item 2: the proof search recurses per step")
def test_check_cli_of_600_units():
    with _case():
        assert _cli("check", _units(600), "--grammar", "bool")[0] == 0


@pytest.mark.xfail(
    strict=True, raises=RecursionError, reason="items 2 and 3: a flat proof's JSON nests as deep as it is long"
)
def test_json_of_the_proof_of_a_799_token_chain(bool_g):
    with _case():
        proof = Prover(bool_g).prove(parse_sequent(_proof_chain(200), bool_g)).proof
        assert json.loads(json.dumps(proof_to_json(proof)))["rule"] == proof.rule.value


@pytest.fixture(scope="module")
def proof_of_a_1199_token_chain(bool_g):
    return Prover(bool_g).prove(parse_sequent(_proof_chain(300), bool_g)).proof


@pytest.fixture(scope="module")
def tree_of_a_1199_token_chain(bool_g):
    return parse_tree(bool_g, bool_g.symbol("E"), _chain(bool_g, 300)).tree


def test_prove_with_prescreen_of_a_1199_token_chain(bool_g):
    s = parse_sequent(_proof_chain(300), bool_g)
    assert len(s.antecedent) == 1199
    with _case():
        r = prove_with_prescreen(bool_g, s)
    assert r.status is SearchStatus.PROVED and r.proof.conclusion == s


def test_check_proof_of_a_1199_token_chain(bool_g, proof_of_a_1199_token_chain):
    with _case():
        assert check_proof(bool_g, proof_of_a_1199_token_chain).ok


def test_render_proof_of_a_1199_token_chain(proof_of_a_1199_token_chain):
    """The text is 7.4 MB: each line repeats what is left of the antecedent (item 3)."""
    with _case():
        lines = render_proof(proof_of_a_1199_token_chain).splitlines()
    assert len(lines) == len(list(_preorder(proof_of_a_1199_token_chain)))
    assert lines[0].startswith('"1" , = , a , AND') and lines[0].endswith("|- E   [CUT]")


def test_proof_to_json_of_a_1199_token_chain(proof_of_a_1199_token_chain):
    """The object nests as deep as the proof; only encoding it recurses (item 2)."""
    with _case():
        obj = proof_to_json(proof_of_a_1199_token_chain)
    assert len(obj["conclusion"]["antecedent"]) == 1199 and obj["rule"] == "CUT"


def test_tree_to_json_of_a_1199_token_chain(bool_g, tree_of_a_1199_token_chain):
    with _case():
        obj = tree_to_json(tree_of_a_1199_token_chain, bool_g)
    assert obj["sym"] == "E" and obj["children"]


def test_render_tree_text_of_a_1199_token_chain(tree_of_a_1199_token_chain):
    with _case():
        lines = render_tree_text(tree_of_a_1199_token_chain).splitlines()
    assert lines[0] == "E" and sum(line.strip() in ("1", "=", "a", "AND") for line in lines) == 1199


def test_prove_json_cli_of_a_799_token_chain():
    with _case():
        code, out = _cli("prove", _proof_chain(200), "--grammar", "bool", "--json")
        assert code == 0 and out.startswith('{"status": "Proved"')


@pytest.mark.parametrize("functors, tests", [(1, 200), (2, 100)])
def test_prove_of_an_l_rule_ladder(bool_g, functors, tests):
    with _case():
        s = parse_sequent(_ladder(functors, tests), bool_g)
        assert Prover(bool_g).prove(s).proof.conclusion == s


@pytest.mark.parametrize("functors, tests", [(1, 200), (2, 100)])
def test_check_cli_of_an_l_rule_ladder(functors, tests):
    with _case():
        assert _cli("check", _ladder(functors, tests), "--grammar", "bool") == (0, "Proved\n")


def test_an_l_rule_ladder_keeps_few_flat_decisions(load_bundled):
    """The grammar keeps at most one flat decision per fold of the proof, and
    a longer run adds no memo entry: the splits come off charts, not parses."""
    sizes = []
    for tests in (50, 200):
        g = load_bundled("bool")
        with _case():
            proof = Prover(g).prove(parse_sequent(_ladder(1, tests), g)).proof
        folds = sum(node.rule is RuleName.CUT for node, _ in _preorder(proof))
        assert sum(key[0] is _flat_proof for key in g._memo) <= folds
        sizes.append(len(g._memo))
    assert sizes[0] == sizes[1]


def test_a_warm_grammar_adds_no_flat_decision(load_bundled):
    """A second Prover over a grammar that decided a product's and a
    ladder's split premises reads the same chart ends, not a parse per split."""
    g = load_bundled("bool")
    texts = ['a , = , "1" , AND , ' + _proof_chain(50).replace("|- E", "|- V*E"), _ladder(1, 50)]
    decided = []
    for _ in range(2):
        with _case():
            for text in texts:
                Prover(g).prove(parse_sequent(text, g))
        decided.append(sum(key[0] is _flat_proof for key in g._memo))
    assert decided[0] == decided[1]


def _mixed_ladder(n):
    """`(E/E , E , E\\E) ×n ⊢ E`: underivable, and unbalanced by n - 1 E's."""
    return " , ".join(["E/E , E , E\\E"] * n) + " |- E"


def _order_2_ladder(n):
    """`(E/E)/(E/E) ×n , E/E , E ⊢ E`: provable, though most argument splits do not balance."""
    return "(E/E)/(E/E) , " * n + "E/E , E |- E"


def test_prove_of_the_64_rung_mixed_direction_ladder(load_bundled):
    """The count check refutes the root, so the memo holds it alone."""
    g = load_bundled("bool")
    with _case(1):
        pr = Prover(g)
        assert pr.prove(parse_sequent(_mixed_ladder(64), g)).status is SearchStatus.NOT_FOUND_WITHIN_BOUNDS
    assert len(pr._proofs) == 1


def _assert_the_order_2_ladder_proves(g, n):
    """Each rung's balanced argument split is the only one searched: at most 4n + 3 memo entries."""
    s = parse_sequent(_order_2_ladder(n), g)
    with _case(1):
        pr = Prover(g)
        r = pr.prove(s)
    assert r.proved and check_proof(g, r.proof).ok
    assert len(pr._proofs) <= 4 * n + 3


def test_prove_of_the_32_rung_order_2_ladder(load_bundled):
    _assert_the_order_2_ladder_proves(load_bundled("bool"), 32)


def test_prove_of_the_128_rung_order_2_ladder(load_bundled):
    """Its n functors are one object, read once, so the memo's lookups compare them by identity."""
    _assert_the_order_2_ladder_proves(load_bundled("bool"), 128)


@pytest.mark.xfail(strict=True, raises=RecursionError, reason="item 10: the tree walk recurses per span")
def test_classify_input_of_the_330_rung_ladder(bool_g):
    with _case():
        attack = word_from_text(bool_g, "b" + " OR 1 = 1" * 330)
        assert classify_input(bool_g, _a_equals_hole(bool_g), attack).classification


def test_classify_input_of_a_2000_token_soup(bool_g):
    with _case():
        soup = word_from_text(bool_g, " ".join(["1 AND"] * 1000))
        assert len(soup) == 2000
        assert classify_input(bool_g, _a_equals_hole(bool_g), soup).classification


@pytest.mark.parametrize("depth", [400, 10_000])
def test_parse_type_of_a_deeply_nested_type(bool_g, depth):
    with _case():
        assert isinstance(parse_type(_nested_text(depth), bool_g), Over)


@pytest.mark.parametrize("depth", [400, 10_000])
def test_check_cli_of_a_deeply_nested_type(depth):
    with _case():
        assert _cli("check", "E |- " + _nested_text(depth), "--grammar", "bool") == (1, "NotFoundWithinBounds\n")


def test_render_size_and_atoms_of_a_type_10000_levels_deep(bool_g):
    t = _nested_type(bool_g, 10_000)
    with _case():
        text = render_type(t)
        assert text == "E/(" * 9_999 + "E/E" + ")" * 9_999
        assert render_type(parse_type(text, bool_g)) == text
        assert type_size(t) == 20_001
        assert list(iter_atoms(t)) == [bool_g.symbol("E")] * 10_001


@pytest.mark.parametrize("depth", [400, 10_000])
def test_two_equal_types_nested_deep_compare_equal(bool_g, depth):
    """Equal types are one object, however deep, so they compare by identity, with no walk."""
    t = _nested_type(bool_g, depth)
    with _case():
        assert parse_type(render_type(t), bool_g) is t
        assert t == _nested_type(bool_g, depth) and t != _nested_type(bool_g, depth - 1)
        assert _nested_type(bool_g, depth) is t
        assert t != Over(_nested_type(bool_g, depth - 1), Atom(bool_g.symbol("T")))


@pytest.mark.parametrize("depth", [400, 10_000])
def test_check_cli_of_a_deep_type_against_itself_in_parentheses(depth):
    """The two sides are read as two items, into one object, so the axiom matches them by identity."""
    x = _nested_text(depth)
    with _case():
        assert _cli("check", f"{x} |- ({x})", "--grammar", "bool") == (0, "Proved\n")


def test_oracle_cli_of_a_type_10000_levels_deep():
    with _case():
        assert _cli("oracle", "E |- " + _nested_text(10_000), "--grammar", "bool") == (0, "Pass: 0 words checked\n")


def test_oracle_json_cli_of_a_type_10000_levels_deep():
    with _case():
        code, out = _cli("oracle", "E |- " + _nested_text(10_000), "--grammar", "bool", "--json")
        assert code == 0 and json.loads(out)["checked"] == 0


@pytest.mark.xfail(strict=True, raises=RecursionError, reason="item 2: the oracle's walks recurse per nesting level")
def test_oracle_json_cli_of_an_under_type_10000_levels_deep():
    """`E\\(E\\(… E …))`: the oracle walks each implication's result, where `E/(…)` stops at its first argument."""
    with _case():
        code, out = _cli("oracle", "E |- " + "E\\(" * 10_000 + "E" + ")" * 10_000, "--grammar", "bool", "--json")
        assert code == 0 and json.loads(out)["status"] == "Pass"


def test_prove_json_cli_of_a_type_10000_levels_deep_against_itself():
    """The two sides are one object, read once, so the axiom matches them without comparing their nodes."""
    x = _nested_text(10_000)
    with _case():
        code, out = _cli("prove", f"{x} |- {x}", "--grammar", "bool", "--json")
        assert code == 0 and out.startswith('{"status": "Proved"')


def test_check_cli_of_two_types_10000_levels_deep():
    x = _nested_text(10_000)
    with _case():
        assert _cli("check", f"{x} , {x} |- E", "--grammar", "bool") == (1, "NotFoundWithinBounds\n")


def test_prove_of_a_type_400_levels_deep(bool_g):
    with _case():
        s = Sequent((Atom(bool_g.symbol("E")),), _nested_type(bool_g, 400))
        assert Prover(bool_g).prove(s).status is SearchStatus.NOT_FOUND_WITHIN_BOUNDS


def test_prove_of_a_type_10000_levels_deep(bool_g):
    with _case():
        s = Sequent((Atom(bool_g.symbol("E")),), _nested_type(bool_g, 10_000))
        assert Prover(bool_g).prove(s).status is SearchStatus.NOT_FOUND_WITHIN_BOUNDS


def test_classify_input_of_the_256_rung_ladder(bool_g):
    with _case():
        attack = word_from_text(bool_g, _attack(256))
        assert classify_input(bool_g, _a_equals_hole(bool_g), attack).classification is Classification.CAPTURING


def test_classify_input_of_the_256_split_ladder(bool_g):
    """A C hole at `a = 1 OR _` splits the input after every `1 = 1`."""
    ctx = InjectionContext(word_from_text(bool_g, "a = 1 OR"), (), bool_g.symbol("E"), bool_g.symbol("C"))
    with _case():
        w = word_from_text(bool_g, "1 = 1 AND " * 256 + "1 = 1 OR 1 = 1")
        assert classify_input(bool_g, ctx, w).classification is Classification.CAPTURING


def test_analyze_json_cli_of_the_256_rung_ladder():
    with _case():
        argv = ["analyze", "--grammar", "bool", "--prefix", "a =", "--goal", "E", "--expect", "V"]
        code, out = _cli(*argv, "--input", _attack(256), "--json")
        # the proofs nest as deep as the input is long, past what json.loads decodes (item 3)
        assert code == 1 and out.startswith('{"classification": "Capturing"')


@pytest.mark.parametrize(
    "rules, prefix, text", [("E ::= E + E | a ;", "a +", "a + a"), ("S ::= S S | x ;", "x", "x x")]
)
def test_classify_input_on_an_ambiguous_grammar(rules, prefix, text):
    """The spliced string parses two ways: an AmbiguityError, a ValueError with a message."""
    g = parse_grammar_file(f"start {rules[0]}\n{rules}\n")
    ctx = InjectionContext(word_from_text(g, prefix), (), g.start, g.start)
    with _case(), pytest.raises(AmbiguityError, match="parses ambiguously"):
        classify_input(g, ctx, word_from_text(g, text))
