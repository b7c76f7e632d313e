"""Benchmark of the `lambek` package: the `screen`, `judge` and `language` workloads.

    python3 perfbench/run.py --deadline 5 --workload screen --seed 1 --seconds 1 --trace 0

Run from the root of a checkout.  The benchmark is a closed loop with one
client.  A round runs the workload's ops one after the other in a fresh,
single-threaded child process (execute.py), so every round starts with cold
caches.  Rounds repeat, with the same ops, until at least MIN_ROUNDS rounds
and `--seconds` of completed ops, in reference seconds, have run, unless
another round would not fit in the run's BUDGET_S; an op that fails is not
run again.  Counted so, the number of rounds is the same on a slow or a
fast host, and an op's fastest round is a minimum over the same count.
Every time is scaled to a reference host speed (speed.py), and an op's
latency is its fastest round: together they filter out the bursts and the
slow phases that a shared host adds.  Every verdict of every round is then
checked here, in this process, against the references in reference.py.

`setup_s` is the median wall time of fresh interpreters that import
`lambek` and load the workload's grammars, as every CLI call does; the
launches are spread over the first MIN_ROUNDS rounds, and each is scaled
by a probe launch next to it (Setup).  With `--trace 1` the run adds one
traced round of the ops that completed, whose spans give the per-layer
metrics, and reports the length curves.  The last stdout line is the JSON
result; a summary goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import execute
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
SETUP_LAUNCHES_PER_ROUND = 5
BUDGET_S = 170  # a run ends within this; later rounds are dropped to keep it

# metric name -> unit, for --trace 0 and --trace 1
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {trace: {m["name"]: m["unit"] for m in BENCH[key]}
         for trace, key in ((0, "end_to_end"), (1, "per_layer"))}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import lambek.cli
t1 = time.perf_counter()
from importlib import resources
from lambek.grammar import parse_grammar_file, validate
for name in sys.argv[1:]:
    text = (resources.files("lambek") / "grammars" / (name + ".g")).read_text(encoding="utf-8")
    validate(parse_grammar_file(text))
print(t1 - t0, time.perf_counter() - t1)
"""

# the standard modules that lambek imports; the set-up launches' probe
PROBE_CODE = "import argparse, dataclasses, enum, functools, importlib.resources, itertools, json, os, re, typing"
# the probe's median wall time scaled to the reference host speed of speed.py
PROBE_REFERENCE_S = 0.048

FAILED = ("error", "miss", "wrong")


class BenchError(RuntimeError):
    """The benchmark could not measure: no source tree, or a child process died."""


def _run(cmd: list[str], until: float) -> subprocess.CompletedProcess:
    """Run a child to its end; `until` is the run's time.monotonic() deadline."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        left = max(until - time.monotonic(), 1)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child ran past the {BUDGET_S} s budget of the run: {cmd[1:3]}") from None
    if proc.returncode != 0:
        raise BenchError(f"child failed with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


class Setup:
    """Fresh interpreters that import lambek and load the grammars, timed from outside.

    Launch times swing by half on a shared host, and the pure-Python samples
    of speed.py track them poorly: a launch is mostly process start and
    module loading.  So each launch is paired with a probe launched just
    before it, an interpreter that imports only the standard modules lambek
    uses, and is scaled by PROBE_REFERENCE_S / (the probe's wall time).  The
    probe is the benchmark's own code; a change to lambek cannot move it."""

    def __init__(self, workload: str, until: float):
        self.cmd = [sys.executable, "-c", SETUP_CODE, *workloads.GRAMMARS[workload]]
        self.probe = [sys.executable, "-c", PROBE_CODE]
        self.until = until
        self.walls: list[float] = []
        self.imports: list[float] = []
        self.loads: list[float] = []
        # writes the bytecode caches an installed CLI would already have
        self._wall(self.probe)
        self._wall(self.cmd)

    def _wall(self, cmd: list[str]) -> tuple[float, str]:
        start = time.perf_counter()
        proc = _run(cmd, self.until)
        return time.perf_counter() - start, proc.stdout

    def launch(self, times: int) -> None:
        for _ in range(times):
            probe, _ = self._wall(self.probe)
            wall, out = self._wall(self.cmd)
            scale = PROBE_REFERENCE_S / probe
            imp, load = map(float, out.split())
            self.walls.append(wall * scale)
            self.imports.append(imp * scale)
            self.loads.append(load * scale)

    def metrics(self) -> dict:
        return {
            "setup_s": statistics.median(self.walls),
            "cli.import_s": statistics.median(self.imports),
            "grammar.load_s": statistics.median(self.loads),
        }


def run_round(workload: str, seed: int, deadline: float, ids: list[int], until: float, trace: int = 0) -> dict:
    cmd = [
        sys.executable, str(HERE / "execute.py"), "--workload", workload, "--seed", str(seed),
        "--deadline", str(deadline), "--trace", str(trace), "--only", ",".join(map(str, ids)),
    ]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(OUT_DIR / f"spans-{workload}.jsonl")]
    return json.loads(_run(cmd, until).stdout.strip().splitlines()[-1])


class Verifier:
    """Checks results against the references, in this process, after the timed rounds."""

    def __init__(self, workload: str):
        sys.path.insert(0, str(ROOT / "src"))
        import lambek

        import reference

        grammars = execute.load_grammars(lambek, workloads.GRAMMARS[workload])
        self.problems = reference.check_grammars(grammars)
        self.checker = reference.Checker(lambek, grammars)

    def __call__(self, op: dict, res: dict) -> tuple[str, str]:
        if res["status"] != "ok":
            return "error", res["status"]
        if self.problems:
            return "wrong", "references do not match the grammars"
        try:
            return self.checker.verify(op, res["result"])
        except Exception as e:  # a malformed result is a wrong answer
            return "wrong", f"unverifiable result: {type(e).__name__}: {e}"


def scaled(results: list[dict]) -> list[float]:
    """Each op's seconds at reference speed, from the host-speed readings around it."""
    return [res["seconds"] * speed.factor(res["speed"]) for res in results]


def collect(ops: list[dict], rounds: list[dict], verify: Verifier, deadline: float) -> list[dict]:
    """One row per op: the worst outcome over its rounds and its fastest scaled time."""
    rank = {"ok": 0, "miss": 1, "error": 2, "wrong": 3}
    rows = {op["id"]: {"op": op, "outcome": "ok", "why": "", "times": [], "verdict": None} for op in ops}
    for report in rounds:
        for res, seconds in zip(report["results"], scaled(report["results"])):
            row = rows[res["id"]]
            if res["status"] == "deadline":
                seconds = deadline  # the deadline is enforced in reference seconds
            if res["status"] == "ok":
                row["verdict"] = res["result"].get("verdict")
            outcome, why = verify(row["op"], res)
            if rank[outcome] > rank[row["outcome"]]:
                row["outcome"], row["why"] = outcome, why
            row["times"].append(seconds)
    for row in rows.values():
        # a failed op's time is its failing attempt; otherwise its fastest round
        row["seconds"] = row["times"][-1] if row["outcome"] in FAILED else min(row["times"])
    return list(rows.values())


def end_to_end(rows: list[dict], rounds: list[dict], setup: dict, deadline: float) -> dict:
    done = [r["seconds"] for r in rows if r["outcome"] not in FAILED]
    # a failed op counts as missing any latency limit: it reads as the deadline
    lat = [s * 1000 for s in done] + [deadline * 1000] * (len(rows) - len(done))
    return {
        "verdict_p50_ms": statistics.median(lat),
        "verdict_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
        # over the completed ops' own time: failures show in failed_ratio
        "ops_per_s": len(done) / sum(done) if done else 0.0,
        "failed_ratio": (len(rows) - len(done)) / len(rows),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "setup_s": setup["setup_s"],
    }


def per_layer(rows: list[dict], traced: dict, traced_rows: list[dict], setup: dict, deadline: float) -> dict:
    calls, counts = traced["layers"]["calls"], traced["layers"]["counts"]
    scale = speed.factor([s for res in traced["results"] for s in res["speed"]])
    self_s = {name: s * scale for name, s in traced["layers"]["self_s"].items()}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "grammar.load_s": setup["grammar.load_s"],
        "cli.import_s": setup["cli.import_s"],
        "earley.recognize.tokens_per_s": ratio(counts.get("recognize.tokens", 0), self_s.get("earley.recognize", 0)),
        "prover.Prover.prove.proved_ratio": ratio(counts.get("prove.proved", 0), calls.get("prover.Prover.prove", 0)),
        "prover.proof_nodes.mean": ratio(counts.get("prove.nodes", 0), counts.get("prove.proved", 0)),
        "analyzer.capture_goals_per_input": ratio(counts.get("capture.goals", 0), calls.get("analyzer.capture_typings", 0)),
        "analyzer.capture_hit_ratio": ratio(counts.get("capture.hits", 0), counts.get("capture.goals", 0)),
        "analyzer.hole_language.yield_ratio": ratio(counts.get("hole.words", 0), counts.get("hole.recognized", 0)),
    }
    for origin in ("prover", "semantics", "analyzer"):
        out[f"earley.recognize.calls.from_{origin}"] = counts.get(f"recognize.from_{origin}", 0)
    for name in UNITS[1]:
        if name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s") and name not in out:
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
    screened = [r for r in rows if r["op"]["kind"] == "prove" and not r["op"]["axioms"]]
    refuted = [r for r in screened if r["outcome"] == "ok" and r["verdict"] == "RefutedByOracle"]
    out["semantics.prescreen_refuted_ratio"] = ratio(len(refuted), len(screened))
    undecided = ("NotFoundWithinBounds", "Unknown")
    out["undecided_ratio"] = ratio(sum(r["verdict"] in undecided for r in rows), len(rows))
    # overhead over the ops the traced round completed, each at its fastest untraced time
    fastest = {r["op"]["id"]: r["seconds"] for r in rows}
    both = [(r["seconds"], fastest[r["op"]["id"]]) for r in traced_rows if r["outcome"] not in FAILED]
    out["trace.overhead_ratio"] = ratio(sum(t for t, _ in both), sum(u for _, u in both))
    for name in workloads.curve_names():
        out[name] = 0.0
    for r in rows:
        if r["op"]["curve"]:
            out[r["op"]["curve"]] = deadline * 1000 if r["outcome"] in FAILED else r["seconds"] * 1000
    return out


def summarize(workload: str, rows: list[dict], rounds: int, out=sys.stderr) -> None:
    fams = Counter(r["op"]["family"] for r in rows)
    bad = Counter(r["op"]["family"] for r in rows if r["outcome"] in FAILED)
    ms: dict[str, list[float]] = {}
    for r in rows:
        ms.setdefault(r["op"]["family"], []).append(r["seconds"] * 1000)
    print(f"{workload}: {len(rows)} ops, {rounds} rounds, {sum(bad.values())} failed", file=out)
    for fam in fams:
        print(f"  {fam:14} {fams[fam]:4} ops  {bad[fam]:3} failed  median {statistics.median(ms[fam]):9.2f} ms", file=out)
    for r in rows:
        if r["outcome"] in FAILED:
            op = r["op"]
            what = op.get("input") or op.get("sequent") or op.get("word", "")[:40] or op.get("n")
            print(f"  failed #{op['id']} {op['family']} {op['kind']} {what!r}: {r['outcome']} {r['why']}", file=out)


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float, only=None) -> dict:
    if not (ROOT / "src" / "lambek" / "__init__.py").is_file():
        raise BenchError(f"no lambek source tree under {ROOT / 'src'}; run from a checkout")
    until = time.monotonic() + BUDGET_S
    ops = [op for op in workloads.build(workload, seed) if only is None or op["id"] in only]
    setup = Setup(workload, until)
    rounds: list[dict] = []
    alive = [op["id"] for op in ops]
    timed = 0.0
    while alive and (len(rounds) < MIN_ROUNDS or timed < seconds):
        started = time.monotonic()
        if len(rounds) < MIN_ROUNDS:
            setup.launch(SETUP_LAUNCHES_PER_ROUND)
        report = run_round(workload, seed, deadline, alive, until)
        rounds.append(report)
        timed += sum(s for res, s in zip(report["results"], scaled(report["results"])) if res["status"] == "ok")
        alive = [res["id"] for res in report["results"] if res["status"] == "ok"]
        # keep room for one more round, the traced round and the checks
        if until - time.monotonic() < (2 + trace) * (time.monotonic() - started) + 10:
            break
    verify = Verifier(workload)
    rows = collect(ops, rounds, verify, deadline)
    summarize(workload, rows, len(rounds))
    for p in verify.problems:
        print(f"  reference problem: {p}", file=sys.stderr)
    wrong = any(r["outcome"] == "wrong" for r in rows)
    if trace:
        done = [r["op"]["id"] for r in rows if r["outcome"] not in FAILED]
        traced = run_round(workload, seed, deadline, done, until, trace=1)
        traced_rows = collect([op for op in ops if op["id"] in done], [traced], verify, deadline)
        wrong = wrong or any(r["outcome"] == "wrong" for r in traced_rows)
        values = per_layer(rows, traced, traced_rows, setup.metrics(), deadline)
    else:
        values = end_to_end(rows, rounds, setup.metrics(), deadline)
    units = UNITS[trace]
    return {
        "correct": not verify.problems and not wrong,
        "attempted": len(rows),
        "failed": sum(r["outcome"] in FAILED for r in rows),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--deadline", type=float, required=True, help="per-op deadline in seconds")
    args = ap.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, args.deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
