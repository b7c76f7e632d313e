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

from lambek.analyzer import InjectionContext, classify_input
from lambek.cli import run
from lambek.earley import parse_tree, recognize
from lambek.grammar import word_from_text
from lambek.prover import Prover, RuleName, _flat_proof, proof_to_json
from lambek.types import parse_sequent
from test_prover import _preorder, _time_limit, ignore_swallowed_alarms

LIMIT_S = 5

pytestmark = ignore_swallowed_alarms


@contextmanager
def _case():
    """Run a case under the default recursion limit and within LIMIT_S seconds.

    A RecursionError is raised again from here, so that the report shows
    one frame, not the thousand that pytest would take seconds to render.
    """
    assert sys.getrecursionlimit() == 1000
    try:
        with _time_limit(LIMIT_S):
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
