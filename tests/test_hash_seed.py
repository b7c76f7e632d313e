"""Answers do not depend on the string-hash seed or on memory layout, end to end.

Symbols hash their names, and every template hashes its symbols, so the
seed reorders every set and dict keyed by them.  Types are hash-consed and
hash by identity, which follows their addresses, so the order in which a
process allocates reorders every set and dict keyed by types.  The same
questions, asked in two processes run under two seeds, one of which first
builds unrelated types and asks its questions in reverse order, must print
the same answers.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import lambek

SEQUENTS = [
    "a , = , b |- T",
    "b , OR , 1 , = , 1 |- (T/V)\\E",
    "1 , = , 1 , OR , b |- E/(V\\T)",
    "(1) , b |- V",
    "b , OR , 1 , = , 1 |- V",
    "V |- T",
    "T |- C/D",
    "E/T |- E",
]

_ANSWERS = r"""
import json, sys
from lambek.analyzer import InjectionContext, classify_input
from lambek.earley import check_unambiguous
from lambek.grammar import load_grammar, word_from_text
from lambek.prover import Prover, proof_to_json
from lambek.semantics import SemBound, soundness_check
from lambek.types import parse_sequent, type_universe

g = load_grammar("bool")[0]
reverse = sys.argv[1] == "reverse"
if reverse:  # move every address: hold some unrelated types, drop others
    held = type_universe(g, sorted(g.nonterminals, key=lambda s: s.name), 1)[::2]
order = (lambda xs: xs[::-1]) if reverse else list


def answers(f, questions):
    # f of each question, asked in this run's order, listed in the questions' order
    return order([f(q) for q in order(questions)])


def reports(template):
    prefix, suffix, goal, expected = template
    ctx = InjectionContext(word_from_text(g, prefix), word_from_text(g, suffix), g.symbol(goal), g.symbol(expected))
    texts = ("b", "b OR 1 = 1", "1 = 1 AND b", "b = a =")
    return answers(lambda text: classify_input(g, ctx, word_from_text(g, text)).to_json(g), texts)


templates = [("a =", "", "E", "V"), ("", "= a", "E", "V"), ("1 = b AND a =", "OR b = 1", "E", "V"), ("a = 1 OR", "", "E", "C")]
sequents = answers(lambda text: parse_sequent(text, g), sys.argv[2:])
results = answers(lambda s: Prover(g).prove(s), sequents)
print(json.dumps({
    "reports": answers(reports, templates),
    "proofs": [[r.status.value, r.proof and proof_to_json(r.proof)] for r in results],
    "verdicts": answers(lambda s: repr(soundness_check(g, s, SemBound(6))), sequents),
    "unambiguous": repr(check_unambiguous(g, g.symbol("E"), 7)),
}))
"""


def test_answers_do_not_depend_on_the_hash_seed():
    src = str(Path(lambek.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    answers = [
        json.loads(subprocess.run(
            [sys.executable, "-c", _ANSWERS, order, *SEQUENTS],
            capture_output=True, text=True, env={**env, "PYTHONHASHSEED": seed}, check=True,
        ).stdout)
        for seed, order in (("0", "forward"), ("1", "reverse"))
    ]
    assert [status for status, _ in answers[0]["proofs"]].count("Proved") >= 4
    assert answers[0] == answers[1]
