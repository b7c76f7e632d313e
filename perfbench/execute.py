"""One round of a workload in a fresh, single-threaded process.

    python3 perfbench/execute.py --workload screen --seed 1 --deadline 5 --trace 0

Imports `lambek` from the checkout's `src` (the parent sets PYTHONPATH),
loads the workload's grammars, then times each op from the call to its
verdict.  Inputs are built before the clock starts and results are
summarized after it stops; a host-speed reading (speed.py) is taken
before each op and after the last.  A per-op deadline is enforced with
`signal.setitimer`, which starts no thread.  Exceptions and deadline
misses are recorded as failed ops; the recursion limit keeps its default.

The last stdout line is a JSON object with one result per op; the parent
checks the verdicts against the references in another process.
"""
from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from importlib import resources
from pathlib import Path

import spans
import speed
import workloads


TICK_S = 0.05  # CPU seconds between the host-speed samples inside an op


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op that ran past the per-op deadline.

    A BaseException, so that no `except Exception` in the program under
    test can swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def peak_rss_mb() -> float:
    """Peak resident memory of this process.

    On Linux, ru_maxrss survives exec: a child started by a larger parent
    reports the parent's peak.  VmHWM is the peak of this process's own
    address space; ru_maxrss is the fallback where /proc is absent."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_grammars(lambek, names) -> dict:
    out = {}
    for name in names:
        text = (resources.files("lambek") / "grammars" / f"{name}.g").read_text(encoding="utf-8")
        out[name], _ = lambek.validate(lambek.parse_grammar_file(text))
    return out


def words(g, text: str):
    return tuple(g.symbol(tok) for tok in text.split())


def render(word) -> str:
    return " ".join(s.name for s in word)


def flat_tree(tree, g) -> list:
    """Preorder [label, production index or -1, child count] triples."""
    index = {p: i for i, p in enumerate(g.productions)}
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        pid = index.get(node.production, -1) if node.production is not None else -1
        out.append([node.label(), pid, len(node.children)])
        stack.extend(reversed(node.children))
    return out


class Ops:
    """Builds (call, summarize) pairs; `fns` are the entry points to time."""

    def __init__(self, lambek, grammars: dict, fns: dict):
        self.lk = lambek
        self.gs = grammars
        self.fns = fns

    def prepare(self, op: dict):
        return getattr(self, "_" + op["kind"])(op)

    def _classify(self, op):
        lk, g = self.lk, self.gs["bool"]
        ctx = lk.InjectionContext(
            words(g, op["prefix"]), words(g, op["suffix"]),
            g.symbol(op["goal"]), g.symbol(op["expected"]),
        )
        w = words(g, op["input"])
        classify = self.fns["classify_input"]

        def summarize(r):
            return {
                "verdict": r.classification.value,
                "benign_proof": lk.proof_to_json(r.benign_proof) if r.benign_proof else None,
                "captures": [
                    [c.direction.value, lk.render_type(c.type), lk.proof_to_json(c.proof)]
                    for c in r.captures
                ],
                "combined_parses": r.combined_parses,
            }

        return (lambda: classify(g, ctx, w)), summarize

    def _prove(self, op):
        lk, g = self.lk, self.gs[op["grammar"]]
        s = lk.parse_sequent(op["sequent"], g)
        axioms = tuple(lk.parse_axiom(a, g) for a in op["axioms"])
        prove = self.fns["prove_with_prescreen"]

        def summarize(r):
            return {
                "verdict": r.status.value,
                "proof": lk.proof_to_json(r.proof) if r.proof else None,
                "counterexample": render(r.counterexample) if r.counterexample is not None else None,
            }

        return (lambda: prove(g, s, axioms=axioms)), summarize

    def _oracle(self, op):
        lk, g = self.lk, self.gs[op["grammar"]]
        s = lk.parse_sequent(op["sequent"], g)
        check = self.fns["soundness_check"]

        def summarize(r):
            if isinstance(r, lk.Counterexample):
                return {"verdict": "Counterexample", "counterexample": render(r.word)}
            return {"verdict": "Pass", "checked": r.checked}

        return (lambda: check(g, s, lk.SemBound(op["max_len"]))), summarize

    def _hole(self, op):
        lk, g = self.lk, self.gs["bool"]
        ctx = lk.InjectionContext(
            words(g, op["prefix"]), words(g, op["suffix"]),
            g.symbol(op["goal"]), g.symbol(op["expected"]),
        )
        hole = self.fns["hole_language"]
        return (lambda: hole(g, ctx, op["n"])), lambda r: {"words": sorted(render(w) for w in r)}

    def _enum(self, op):
        g = self.gs[op["grammar"]]
        enum = self.fns["enumerate_words"]
        sym = g.symbol(op["symbol"])
        return (lambda: enum(g, sym, op["max_len"])), lambda r: {"words": sorted(render(w) for w in r)}

    def _ambig(self, op):
        lk, g = self.lk, self.gs[op["grammar"]]
        check = self.fns["check_unambiguous"]
        sym = g.symbol(op["symbol"])

        def summarize(r):
            if isinstance(r, lk.earley.Pass):
                return {"verdict": "Pass", "max_len": r.max_len}
            return {"verdict": "Ambiguous", "word": render(r.word)}

        return (lambda: check(g, sym, op["max_len"])), summarize

    def _recognize(self, op):
        g = self.gs[op["grammar"]]
        rec = self.fns["recognize"]
        sym, w = g.symbol(op["symbol"]), words(g, op["word"])
        return (lambda: rec(g, sym, w)), lambda r: {"verdict": bool(r)}

    def _parse(self, op):
        lk, g = self.lk, self.gs[op["grammar"]]
        parse = self.fns["parse_tree"]
        sym, w = g.symbol(op["symbol"]), words(g, op["word"])

        def summarize(r):
            out = {"verdict": type(r).__name__}
            if isinstance(r, lk.Unique):
                out["tree"] = flat_tree(r.tree, g)
            return out

        return (lambda: parse(g, sym, w)), summarize


def run_op(call, deadline: float) -> tuple[str, float, object, list[float]]:
    """(status, seconds, result, readings); status is ok, deadline or an exception name.

    The host's speed drifts within a long op, so a SIGPROF every TICK_S of
    CPU time takes a host-speed sample (speed.py) inside it; the samples
    are returned as `readings`, and the time they take is not counted in
    `seconds`.  Like SIGALRM, SIGPROF starts no thread."""
    readings: list[float] = []
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        start = time.perf_counter()
        readings.append(speed.sample())
        spent += time.perf_counter() - start

    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGPROF, tick)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
    start = time.perf_counter()
    try:
        try:
            out = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.setitimer(signal.ITIMER_PROF, 0)
        status = "ok"
    except DeadlineExceeded:
        status, out = "deadline", None
    except Exception as e:  # any per-op failure is counted, never fatal
        status, out = type(e).__name__, None
    return status, time.perf_counter() - start - spent, out, readings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None, help="file for the traced run's spans")
    ap.add_argument("--only", default="", help="comma-separated op ids to run (default: all)")
    args = ap.parse_args(argv)

    import lambek

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(lambek.__file__).resolve().parent.parent != src:
        print(f"error: imported lambek from {lambek.__file__}, not from {src}", file=sys.stderr)
        return 2

    grammars = load_grammars(lambek, workloads.GRAMMARS[args.workload])
    recorder = spans.Recorder() if args.trace else None
    if recorder:
        fns = spans.install(recorder, lambek)
    else:
        fns = {attr: getattr(getattr(lambek, mod), attr) for mod, attr, _ in spans.DIRECT}
    ops = workloads.build(args.workload, args.seed)
    if args.only:
        keep = {int(i) for i in args.only.split(",")}
        ops = [op for op in ops if op["id"] in keep]
    factory = Ops(lambek, grammars, fns)

    results = []
    readings = [speed.burst()]
    for op in ops:
        call, summarize = factory.prepare(op)
        if recorder:
            recorder.op = op["id"]
        # the deadline is in reference-speed seconds, like every reported time
        status, seconds, out, inside = run_op(call, args.deadline / speed.factor(readings[-5:]))
        readings.append(speed.burst())
        results.append({
            "id": op["id"],
            "status": status,
            "seconds": seconds,
            "speed": [readings[-2], *inside, readings[-1]],  # before, inside and after the op
            "result": summarize(out) if status == "ok" else None,
        })
    report = {
        "results": results,
        "peak_rss_mb": peak_rss_mb(),
    }
    if recorder:
        report["layers"] = spans.aggregate(recorder.spans)
        if args.spans_out:
            recorder.write(args.spans_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
