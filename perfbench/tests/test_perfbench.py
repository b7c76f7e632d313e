"""Self-tests of the benchmark: verification, failure accounting and output names.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import execute  # noqa: E402
import lambek  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DEADLINE = float(BENCH["command"][BENCH["command"].index("--deadline") + 1])


@pytest.fixture(scope="module")
def ops_env():
    grammars = execute.load_grammars(lambek, ("bool", "eng"))
    fns = {attr: getattr(getattr(lambek, mod), attr) for mod, attr, _ in execute.spans.DIRECT}
    return execute.Ops(lambek, grammars, fns), reference.Checker(lambek, grammars)


def first(workload, family, seed=3):
    return next(op for op in workloads.build(workload, seed) if op["family"] == family)


def execute_op(factory, op, deadline=DEADLINE):
    call, summarize = factory.prepare(op)
    status, _, out, _ = execute.run_op(call, deadline)
    return status, (summarize(out) if status == "ok" else None)


def test_verdicts_of_each_family_verify(ops_env):
    factory, checker = ops_env
    for workload, family in [("screen", "benign"), ("screen", "taut1"), ("screen", "soup"),
                             ("judge", "fragment"), ("judge", "oracle"), ("judge", "eng"),
                             ("language", "enum"), ("language", "sentence"), ("language", "mutated")]:
        op = first(workload, family)
        status, result = execute_op(factory, op)
        assert status == "ok"
        assert checker.verify(op, result) == ("ok", ""), (family, result)


def test_labels_agree_with_the_reference():
    """Where reference.member decides a word's membership, no label contradicts it."""
    for op in workloads.build("judge", 3):
        if op["family"] not in ("fragment", "oracle"):
            continue
        items, succ = reference.sequent_parts(op["sequent"])
        member = reference.member("bool", tuple(items), reference.parse_type(succ))
        if op["expect"] in ("Proved", "Pass"):
            assert member is not False, op
        if op["expect"] in ("RefutedByOracle", "Counterexample"):
            assert member is False, op


def test_lost_decision_counts_as_failed(ops_env):
    factory, checker = ops_env
    ops = workloads.build("judge", 3)
    proved = next(op for op in ops if op["family"] == "fragment" and op["expect"] == "Proved")
    assert checker.verify(proved, {"verdict": "NotFoundWithinBounds"})[0] == "miss"
    oracle = next(op for op in ops if op["family"] == "oracle" and op["expect"] == "Pass")
    assert checker.verify(oracle, {"verdict": "Pass", "checked": 0})[0] == "miss"
    refuted = next(op for op in ops if op["family"] == "oracle" and op["expect"] == "Counterexample")
    assert checker.verify(refuted, {"verdict": "Pass", "checked": 1})[0] == "miss"
    # a verified decision where the label reads NotFoundWithinBounds is a gain
    open_op = next(op for op in ops if op["family"] == "fragment" and op["expect"] == "NotFoundWithinBounds"
                   and op["sequent"].endswith("|- T"))
    word = " ".join(reference.sequent_parts(open_op["sequent"])[0])
    assert checker.verify(open_op, {"verdict": "RefutedByOracle", "counterexample": word}) == ("ok", "")


def test_tampered_proof_is_caught(ops_env):
    factory, checker = ops_env
    op = first("screen", "taut1")
    status, result = execute_op(factory, op)
    assert status == "ok" and checker.verify(op, result) == ("ok", "")
    direction, type_text, proof = result["captures"][0]
    # drop the subproof under the root: the root's rule no longer fits its premises
    proof["premises"] = proof["premises"][0]["premises"]
    outcome, why = checker.verify(op, result)
    assert outcome == "wrong" and "check_proof" in why


def test_uncertified_counterexample_is_caught(ops_env):
    factory, checker = ops_env
    op = {**first("judge", "type"), "sequent": "V |- T", "expect": "RefutedByOracle"}
    status, result = execute_op(factory, op)
    assert result["verdict"] == "RefutedByOracle"
    assert checker.verify(op, result)[0] == "ok"
    result["counterexample"] = "a = b"  # in T, so it refutes nothing
    assert checker.verify(op, result)[0] == "wrong"


def test_flipped_family_label_counts_as_failed(ops_env):
    factory, checker = ops_env
    op = first("screen", "soup")
    status, result = execute_op(factory, op)
    assert checker.verify(op, result)[0] == "ok"
    outcome, _ = checker.verify({**op, "expect": "Capturing"}, result)
    assert outcome in run.FAILED


def test_deadline_miss_counts_as_failed(ops_env):
    factory, _ = ops_env
    op = next(op for op in workloads.build("language", 3) if op["kind"] == "hole" and op["n"] == 5)
    status, result = execute_op(factory, op, deadline=0.02)
    assert status == "deadline" and result is None
    # the alarm is off again: a long op afterwards runs to its end
    assert execute_op(factory, first("screen", "benign"))[0] == "ok"


def test_recursion_error_counts_as_failed(ops_env):
    factory, _ = ops_env
    limit = sys.getrecursionlimit()
    op = next(op for op in workloads.build("language", 3) if op["curve"] == "curve.language.parse_len1600_ms")
    assert execute_op(factory, op)[0] == "RecursionError"
    assert sys.getrecursionlimit() == limit


def test_parse_tree_checker_rejects_a_wrong_yield(ops_env):
    factory, checker = ops_env
    op = first("language", "sentence")
    op = {**op, "kind": "parse"}
    status, result = execute_op(factory, op)
    assert checker.verify(op, result) == ("ok", "")
    leaf = next(i for i, node in enumerate(result["tree"]) if node[0] in ("a", "b", "1"))
    result["tree"][leaf][0] = "AND"
    assert checker.verify(op, result)[0] == "wrong"


def test_ops_are_unique_and_seeded():
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, 11)
        keys = [json.dumps({k: v for k, v in op.items() if k not in ("id", "family", "curve")}, sort_keys=True)
                for op in ops]
        assert len(set(keys)) == len(keys)
        assert ops == workloads.build(workload, 11)
        other = workloads.build(workload, 12)
        assert [op["family"] for op in other] == [op["family"] for op in ops]


def test_every_metric_prints(monkeypatch):
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    monkeypatch.setattr(run, "SETUP_LAUNCHES_PER_ROUND", 1)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    for workload in workloads.WORKLOADS:
        result = run.measure(workload, 5, 0.001, 0, DEADLINE, only={0, 1})
        assert result["correct"] and result["attempted"] == 2
        assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
        assert all(m["value"] > 0 for name, m in result["metrics"].items() if name != "failed_ratio")
    traced = run.measure("screen", 5, 0.001, 1, DEADLINE, only={0, 40})
    assert list(traced["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert traced["metrics"]["analyzer.classify_input.calls"]["value"] == 2
