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
from lambek.earley import parse_tree, recognize
from lambek.grammar import parse_grammar_file, word_from_text
from lambek.prover import Prover, RuleName, SearchStatus, _flat_proof, check_proof, proof_to_json
from lambek.types import Atom, Over, Sequent, parse_sequent, parse_type
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


def test_prove_of_the_32_rung_order_2_ladder(load_bundled):
    """Each rung's balanced argument split is the only one searched: at most 4n + 3 memo entries."""
    g = load_bundled("bool")
    s = parse_sequent(_order_2_ladder(32), g)
    with _case(1):
        pr = Prover(g)
        r = pr.prove(s)
    assert r.proved and check_proof(g, r.proof).ok
    assert len(pr._proofs) <= 4 * 32 + 3


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


@pytest.mark.xfail(strict=True, raises=RecursionError, reason="item 2: parse_type recurses per nesting level")
@pytest.mark.parametrize("depth", [400, 10_000])
def test_parse_type_of_a_deeply_nested_type(bool_g, depth):
    with _case():
        assert isinstance(parse_type(_nested_text(depth), bool_g), Over)


@pytest.mark.xfail(strict=True, raises=RecursionError, reason="item 2: parse_type recurses per nesting level")
@pytest.mark.parametrize("depth", [400, 10_000])
def test_check_cli_of_a_deeply_nested_type(depth):
    with _case():
        _cli("check", "E |- " + _nested_text(depth), "--grammar", "bool")


def test_prove_of_a_type_400_levels_deep(bool_g):
    with _case():
        s = Sequent((Atom(bool_g.symbol("E")),), _nested_type(bool_g, 400))
        assert Prover(bool_g).prove(s).status is SearchStatus.NOT_FOUND_WITHIN_BOUNDS


@pytest.mark.xfail(strict=True, raises=RecursionError, reason="item 2: iter_atoms recurses per nesting level")
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
