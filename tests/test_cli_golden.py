"""Every command's exact output: exit code, stdout and stderr, byte for byte.

The expected outputs live in cli_golden.json beside this file.  After a
deliberate change to what the CLI prints, rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.  "{square}" in an invocation stands for a grammar
file whose every word of three or more tokens is ambiguous.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from lambek.cli import run

GOLDEN = Path(__file__).with_name("cli_golden.json")
SQUARE = "start S\nS ::= S S | x ;\n"
CAPTURE = ("--prefix", "a =", "--input", "b OR 1 = 1", "--goal", "E", "--expect", "V")
BENIGN = ("--prefix", "a =", "--input", "b", "--goal", "E", "--expect", "V")
ILL_FORMED = ("--suffix", "= a", "--input", "b OR 1 = 1", "--goal", "E", "--expect", "V")

INVOCATIONS = [
    # check: proved, refuted by the oracle, not found under axioms
    ("check", "a , = , b |- T", "--grammar", "bool", "--tree"),
    ("check", "V |- T", "--grammar", "bool"),
    ("check", "him , knows , Alice |- Sent", "--grammar", "eng", "--axiom", "him |- (Sent/Noun)\\Sent"),
    ("check", "a , = |- T/V", "--grammar", "bool", "--json", "--tree"),
    ("check", "a , = |- T/V", "--grammar", "bool", "--json"),
    ("check", "|- T", "--grammar", "bool", "--json"),
    ("check", "him , knows , Alice |- Sent", "--grammar", "eng", "--json", "--axiom", "him |- (Sent/Noun)\\Sent"),
    # prove
    ("prove", "b , OR , 1 , = , 1 |- (T/V)\\E", "--grammar", "bool"),
    ("prove", "V |- T", "--grammar", "bool"),
    ("prove", "b |- V", "--grammar", "bool", "--json"),
    ("prove", "V |- T", "--grammar", "bool", "--json"),
    # infer
    ("infer", "b", "--grammar", "bool", "--atoms", "T,V,E"),
    ("infer", "OR", "--grammar", "bool", "--atoms", "T,V,E", "--depth", "0"),
    ("infer", "b", "--grammar", "bool", "--depth", "0", "--json"),
    ("infer", "OR", "--grammar", "bool", "--depth", "0", "--json"),
    # enum: a symbol with words, and one with none within the bound
    ("enum", "E", "--grammar", "bool", "--max-len", "3"),
    ("enum", "E", "--grammar", "bool", "--max-len", "1"),
    ("enum", "T", "--grammar", "bool", "--max-len", "3", "--json"),
    ("enum", "E", "--grammar", "bool", "--max-len", "1", "--json"),
    ("enum", "Noun", "--grammar", "eng", "--max-len", "1"),
    # oracle
    ("oracle", "b , OR , 1 , = , 1 |- (T/V)\\E", "--grammar", "bool"),
    ("oracle", "V |- T", "--grammar", "bool"),
    ("oracle", "a , = , b , OR , 1 , = , 1 |- E", "--grammar", "bool", "--json", "--out-len", "7"),
    ("oracle", "|- T", "--grammar", "bool", "--json"),
    # ambig
    ("ambig", "--grammar", "bool", "--max-len", "6"),
    ("ambig", "--grammar", "{square}", "--max-len", "5"),
    ("ambig", "--grammar", "eng", "--symbol", "Sent", "--max-len", "5", "--json"),
    ("ambig", "--grammar", "{square}", "--max-len", "5", "--json"),
    # analyze: benign, capturing, ill-formed
    ("analyze", "--grammar", "bool", *BENIGN),
    ("analyze", "--grammar", "bool", *CAPTURE),
    ("analyze", "--grammar", "bool", *ILL_FORMED),
    ("analyze", "--grammar", "bool", *BENIGN, "--json"),
    ("analyze", "--grammar", "bool", *CAPTURE, "--json"),
    ("analyze", "--grammar", "bool", *ILL_FORMED, "--json"),
    # usage errors, which argparse reports
    ("check", "a , = , b |- T"),
    ("enum", "E", "--grammar", "bool", "--max-len", "x"),
    ("analyze", "--grammar", "bool", *BENIGN, "--max-len", "5"),
    # input errors
    ("check", "a , = , b |- T", "--grammar", "nosuch"),
    ("check", "a = b |- T", "--grammar", "bool"),
    ("check", "x |- T", "--grammar", "bool", "--json"),
    ("enum", "Z", "--grammar", "bool"),
    ("infer", "b", "--grammar", "bool", "--atoms", "V,Z"),
    ("analyze", "--grammar", "bool", "--goal", "E", "--expect", "V", "--input", "nope"),
    ("enum", "E", "--grammar", "bool", "--max-len", "-1"),
    ("ambig", "--grammar", "bool", "--max-len", "-1", "--json"),
    ("oracle", "|- F", "--grammar", "bool", "--out-len", "-1"),
    ("analyze", "--grammar", "bool", "--prefix", "=", "--input", "b", "--goal", "E", "--expect", "V"),
    ("check", "he |- Sent", "--grammar", "eng", "--axiom", "he |- he*he"),
]


def _key(argv):
    return json.dumps(argv, ensure_ascii=False)


def _answer(argv, square):
    """run's exit code, stdout and stderr, argparse's messages included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(square) if a == "{square}" else a for a in argv], sys.stdout, sys.stderr)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def square(tmp_path_factory):
    path = tmp_path_factory.mktemp("grammars") / "square.g"
    path.write_text(SQUARE, encoding="utf-8")
    return path


def test_the_table_covers_every_command_in_both_modes_and_every_answer(golden):
    assert [json.loads(k) for k in golden] == [list(a) for a in INVOCATIONS]
    commands = {"check", "prove", "infer", "enum", "oracle", "ambig", "analyze"}
    for command in commands:
        codes = {
            ("--json" in argv, golden[_key(list(argv))]["code"]) for argv in INVOCATIONS if argv[0] == command
        }
        # enum has no negative answer; its empty list stands in for one
        assert {(False, 0), (True, 0)} <= codes, command
        assert command == "enum" or {(False, 1), (True, 1)} <= codes, command
    assert sum(v["code"] == 2 for v in golden.values()) >= 10


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_output_is_pinned(argv, golden, square, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
    assert _answer(argv, square) == golden[_key(list(argv))]


if __name__ == "__main__":
    # rewrite cli_golden.json from the CLI as it stands
    import os
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        square_path = Path(tmp) / "square.g"
        square_path.write_text(SQUARE, encoding="utf-8")
        table = {_key(list(argv)): _answer(argv, square_path) for argv in INVOCATIONS}
    GOLDEN.write_text(json.dumps(table, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")
