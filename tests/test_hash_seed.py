"""Answers do not depend on the string-hash seed, end to end.

Symbols hash their names, and every type, sequent and template hashes its
symbols, so the seed reorders every set and dict the procedures build.  The
same questions, asked in processes run under two seeds, must print the same
answers.
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
from lambek.types import parse_sequent

g = load_grammar("bool")[0]
templates = [("a =", "", "E", "V"), ("", "= a", "E", "V"), ("1 = b AND a =", "OR b = 1", "E", "V"), ("a = 1 OR", "", "E", "C")]
reports = []
for prefix, suffix, goal, expected in templates:
    ctx = InjectionContext(word_from_text(g, prefix), word_from_text(g, suffix), g.symbol(goal), g.symbol(expected))
    for text in ("b", "b OR 1 = 1", "1 = 1 AND b", "b = a ="):
        reports.append(classify_input(g, ctx, word_from_text(g, text)).to_json(g))
sequents = [parse_sequent(text, g) for text in sys.argv[1:]]
results = [Prover(g).prove(s) for s in sequents]
print(json.dumps({
    "reports": reports,
    "proofs": [[r.status.value, r.proof and proof_to_json(r.proof)] for r in results],
    "verdicts": [repr(soundness_check(g, s, SemBound(6))) for s in sequents],
    "unambiguous": repr(check_unambiguous(g, g.symbol("E"), 7)),
}))
"""


def test_answers_do_not_depend_on_the_hash_seed():
    src = str(Path(lambek.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    answers = [
        json.loads(subprocess.run(
            [sys.executable, "-c", _ANSWERS, *SEQUENTS],
            capture_output=True, text=True, env={**env, "PYTHONHASHSEED": seed}, check=True,
        ).stdout)
        for seed in ("0", "1")
    ]
    assert [status for status, _ in answers[0]["proofs"]].count("Proved") >= 4
    assert answers[0] == answers[1]
