import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lambek
from lambek.cli import run
from lambek.grammar import load_grammar
from lambek.prover import Prover, proof_to_json
from lambek.types import parse_sequent


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def test_check_proved():
    code, out, _ = cli("check", "a , = , b |- T", "--grammar", "bool")
    assert code == 0
    assert out.splitlines()[0] == "Proved"


def test_check_tree_output_is_deterministic():
    first = cli("check", "a , = , b |- T", "--grammar", "bool", "--tree")
    second = cli("check", "a , = , b |- T", "--grammar", "bool", "--tree")
    assert first == second
    code, out, _ = first
    assert code == 0
    assert "a , = , b |- T   [CUT]" in out


def test_check_refuted_by_oracle():
    code, out, _ = cli("check", "V |- T", "--grammar", "bool")
    assert code == 1
    assert out.strip() == "RefutedByOracle: 1"


def test_check_empty_word_counterexample():
    code, out, _ = cli("check", "|- T", "--grammar", "bool")
    assert code == 1 and out.strip() == "RefutedByOracle: ε"
    code, out, _ = cli("check", "|- T", "--grammar", "bool", "--json")
    assert code == 1
    assert json.loads(out) == {"status": "RefutedByOracle", "counterexample": "ε", "proof": None}


def test_check_json():
    code, out, _ = cli("check", "a , = |- T/V", "--grammar", "bool", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"status": "Proved", "counterexample": None, "proof": None}
    code, out, _ = cli(
        "check", "a , = |- T/V", "--grammar", "bool", "--json", "--tree"
    )
    assert json.loads(out)["proof"]["rule"] == "OVER_R"


def test_check_axioms_skip_the_oracle():
    code, out, _ = cli(
        "check",
        "him , knows , Alice |- Sent",
        "--grammar",
        "eng",
        "--axiom",
        "him |- (Sent/Noun)\\Sent",
    )
    assert code == 1
    assert out.strip() == "NotFoundWithinBounds"


def test_check_axiom_proves_pronoun_use():
    code, out, _ = cli(
        "check",
        "he , knows , Alice |- Sent",
        "--grammar",
        "eng",
        "--axiom",
        "he |- Sent/(Noun\\Sent)",
    )
    assert code == 0 and out.splitlines()[0] == "Proved"


def test_prove_prints_the_tree():
    code, out, _ = cli("prove", "b |- V", "--grammar", "bool")
    assert code == 0
    assert out.splitlines()[0] == "b |- V   [GRAM]"
    code, out, _ = cli("prove", "V |- T", "--grammar", "bool")
    assert code == 1 and out.strip() == "NotFoundWithinBounds"


def test_infer():
    code, out, _ = cli("infer", "b", "--grammar", "bool", "--atoms", "V", "--depth", "0")
    assert code == 0 and out.split() == ["V"]
    code, out, _ = cli("infer", "OR", "--grammar", "bool", "--atoms", "T,V,E", "--depth", "0")
    assert code == 1 and out == ""


def test_infer_json_defaults_to_all_nonterminals():
    code, out, _ = cli("infer", "b", "--grammar", "bool", "--depth", "0", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["word"] == "b" and obj["types"] == ["V"]


def test_enum():
    code, out, _ = cli("enum", "V", "--grammar", "bool", "--max-len", "1")
    assert code == 0 and out.split("\n")[:3] == ["1", "a", "b"]
    code, out, _ = cli("enum", "T", "--grammar", "bool", "--max-len", "3", "--json")
    obj = json.loads(out)
    assert len(obj["words"]) == 9
    assert obj["words"][0] == "1 = 1"


def test_oracle_counterexample():
    code, out, _ = cli("oracle", "V |- T", "--grammar", "bool", "--max-len", "5")
    assert code == 1 and out.strip() == "Counterexample: 1"


def test_oracle_pass():
    code, out, _ = cli(
        "oracle", "b , OR , 1 , = , 1 |- (T/V)\\E", "--grammar", "bool", "--max-len", "5"
    )
    assert code == 0 and out.strip() == "Pass: 1 words checked"


def test_oracle_out_len_caps_the_antecedent_words():
    seq = "a , = , b , OR , 1 , = , 1 |- E"
    code, out, _ = cli("oracle", seq, "--grammar", "bool", "--json")
    assert code == 0 and json.loads(out)["checked"] == 0  # 7 tokens > default cap
    code, out, _ = cli("oracle", seq, "--grammar", "bool", "--json", "--out-len", "7")
    assert code == 0 and json.loads(out)["checked"] == 1


def test_ambig_pass_and_witness(tmp_path):
    code, out, _ = cli("ambig", "--grammar", "bool", "--max-len", "6")
    assert code == 0 and "Pass" in out
    path = tmp_path / "square.g"
    path.write_text("start S\nS ::= S S | x ;\n", encoding="utf-8")
    code, out, _ = cli("ambig", "--grammar", str(path), "--max-len", "5", "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "Ambiguous" and obj["word"] == "x x x"
    assert obj["first"] != obj["second"]


def test_ambig_symbol_flag():
    code, out, _ = cli("ambig", "--grammar", "eng", "--symbol", "Sent", "--max-len", "5")
    assert code == 0


def test_analyze_benign():
    code, out, _ = cli(
        "analyze", "--grammar", "bool", "--prefix", "a =", "--input", "b",
        "--goal", "E", "--expect", "V",
    )
    assert code == 0
    assert out.splitlines()[0] == "Benign"


def test_analyze_capturing():
    code, out, _ = cli(
        "analyze", "--grammar", "bool", "--prefix", "a =", "--input", "b OR 1 = 1",
        "--goal", "E", "--expect", "V",
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "Capturing"
    assert "  capture Left: (T/V)\\E" in lines
    assert "  reshaping: Reshaped" in lines


def test_analyze_ill_formed():
    code, out, _ = cli(
        "analyze", "--grammar", "bool", "--suffix", "= a", "--input", "b OR 1 = 1",
        "--goal", "E", "--expect", "V",
    )
    assert code == 1 and out.splitlines()[0] == "IllFormed"


def test_analyze_json():
    code, out, _ = cli(
        "analyze", "--grammar", "bool", "--prefix", "a =", "--input", "b OR 1 = 1",
        "--goal", "E", "--expect", "V", "--json",
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["classification"] == "Capturing"
    assert obj["reshaping"]["verdict"] == "Reshaped"


def test_grammar_from_disk(tmp_path):
    path = tmp_path / "tiny.g"
    path.write_text("start S\nS ::= x ;\n", encoding="utf-8")
    code, out, _ = cli("check", "x |- S", "--grammar", str(path))
    assert code == 0 and out.splitlines()[0] == "Proved"


def test_grammar_file_with_a_byte_order_mark_loads(tmp_path):
    path = tmp_path / "bom.g"
    path.write_bytes(b"\xef\xbb\xbfstart S\nS ::= a ;\n")
    g, notes = load_grammar(str(path))
    assert g.start.name == "S" and notes == []
    assert cli("enum", "S", "--grammar", str(path), "--max-len", "2") == (0, "a\n", "")


def test_validate_notes_go_to_stderr():
    code, out, err = cli("enum", "Noun", "--grammar", "eng", "--max-len", "1")
    assert code == 0
    assert "note:" in err and "Pron" in err
    assert "note:" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "a , = , b |- T", "--grammar", "nosuch"),
        ("check", "a = b |- T", "--grammar", "bool"),  # missing commas
        ("check", "a , = , b |- T", "--grammar", "bool", "--max-len", "x"),
        ("oracle", "V |- T |- E", "--grammar", "bool"),
        ("enum", "Z", "--grammar", "bool"),
        ("analyze", "--grammar", "bool", "--goal", "E", "--expect", "V",
         "--input", "nope"),
        ("nosuchcommand",),
        # analyze runs no oracle, and the search has no general-cut mode
        ("analyze", "--grammar", "bool", "--prefix", "a =", "--input", "b",
         "--goal", "E", "--expect", "V", "--max-len", "5"),
        ("check", "a , = , b |- T", "--grammar", "bool", "--general-cut"),
        ("prove", "a , = , b |- T", "--grammar", "bool", "--cut-depth", "2"),
        # the search takes no depth bound, and folds no insertion budget
        ("check", "b |- V", "--grammar", "bool", "--max-depth", "40"),
        ("infer", "b", "--grammar", "bool", "--depth", "-1"),
        ("check", "b |- V", "--grammar", "bool", "--insert-budget", "2"),
        # typing axioms belong to check and prove only
        ("infer", "b", "--grammar", "bool", "--atoms", "V", "--axiom", "b |- T"),
        ("analyze", "--grammar", "bool", "--prefix", "a =", "--input", "b",
         "--goal", "E", "--expect", "V", "--axiom", "b |- T"),
        # an axiom whose type names an axiom token would never stop cutting
        ("check", "he |- Sent", "--grammar", "eng", "--axiom", "he |- he*he"),
        # a negative cap on the antecedent words, whether or not the sequent is certifiable
        ("oracle", "|- F", "--grammar", "bool", "--out-len", "-1"),
        ("oracle", "a , = , b |- T", "--grammar", "bool", "--out-len", "-1"),
    ],
)
def test_errors_exit_2(argv):
    code, _, _ = cli(*argv)
    assert code == 2


@pytest.mark.parametrize("command", [("enum", "E"), ("ambig",)])
def test_negative_max_len_is_one_message(command):
    code, _, err = cli(*command, "--grammar", "bool", "--max-len", "-1")
    assert code == 2
    assert "max_len must be nonnegative, got -1" in err


def test_prove_json_grows_linearly():
    """A proof nests as deep as it is long, so indented output would be quadratic."""
    size = {}
    for tests in (25, 50):
        sequent = " , AND , ".join(['"1" , = , a'] * tests) + " |- E"
        code, out, _ = cli("prove", sequent, "--grammar", "bool", "--json")
        assert code == 0 and json.loads(out)["status"] == "Proved"
        size[4 * tests - 1] = len(out)
    assert size[199] <= 2.3 * size[99], size


def test_json_of_a_deep_proof_is_written_without_recursion(bool_g):
    """A flat proof nests as deep as its 599-token chain is long; --json
    writes what json.dumps writes with room to recurse."""
    sequent = " , AND , ".join(['"1" , = , a'] * 150) + " |- E"
    proof = proof_to_json(Prover(bool_g).prove(parse_sequent(sequent, bool_g)).proof)
    expected = {
        ("prove", "--json"): {"status": "Proved", "proof": proof},
        ("check", "--json", "--tree"): {"status": "Proved", "counterexample": None, "proof": proof},
    }
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        expected = {argv: json.dumps(obj, ensure_ascii=False) + "\n" for argv, obj in expected.items()}
    finally:
        sys.setrecursionlimit(limit)
    for (command, *flags), text in expected.items():
        code, out, err = cli(command, sequent, "--grammar", "bool", *flags)
        assert (code, err) == (0, "") and out == text, command


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "a , = , b |- T", "--grammar", "bool", "--tree"),
        ("check", "V |- T", "--grammar", "bool"),
        ("prove", "b , OR , 1 , = , 1 |- (T/V)\\E", "--grammar", "bool"),
        ("infer", "b OR 1 = 1", "--grammar", "bool", "--atoms", "T,V,E"),
        ("enum", "E", "--grammar", "bool", "--max-len", "3"),
        ("oracle", "V |- T", "--grammar", "bool"),
        ("ambig", "--grammar", "eng", "--max-len", "4"),
        ("analyze", "--grammar", "bool", "--prefix", "a =", "--input", "b OR 1 = 1", "--goal", "E", "--expect", "V"),
    ],
)
def test_json_output_is_what_json_dumps_writes(argv):
    code, out, _ = cli(*argv, "--json")
    assert code in (0, 1)
    assert out == json.dumps(json.loads(out), ensure_ascii=False) + "\n"


def test_too_deep_input_is_an_error_not_a_negative():
    """Exit 1 is a sound negative; an input too deep to search is an error.
    600 units before a word take the proof search, which recurses once per
    proof step, past the default recursion limit."""
    code, out, err = cli("check", "(1) , " * 600 + "b |- V", "--grammar", "bool")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "maximum recursion depth exceeded" in err


def test_input_errors_are_reported():
    code, _, err = cli("check", "a = b |- T", "--grammar", "bool")
    assert code == 2
    assert err.startswith("error:")


def test_help_exits_0():
    code, _, _ = cli("--help")
    assert code == 0


def test_module_entry_point():
    # the child imports the package under test, wherever pytest found it
    src = str(Path(lambek.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "lambek.cli", "check", "b |- V", "--grammar", "bool"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "Proved"
