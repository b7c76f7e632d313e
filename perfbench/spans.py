"""Spans around the calls into each `lambek` module, for the traced run.

`from .earley import recognize` copies the binding into the importing
module, so wrapping `lambek.earley.recognize` alone would miss the prover's
fold-reachability calls.  `install` therefore rebinds the name at every
import site listed in IMPORT_SITES, plus the `Prover` class attributes, and
returns wrappers of the original functions for the benchmark's own calls.

A span is `[name, origin, start, end, parent, op, info]`: `origin` names the
module that made the call, `parent` is the index of the enclosing span (-1
at the top), and `info` is a small summary of the result taken after the
span's end time.  Self time is a span's duration minus the durations of its
children, which nest inside it because the run is single-threaded.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# module -> {attribute: (span name, origin)}
IMPORT_SITES = {
    "prover": {"recognize": ("earley.recognize", "prover")},
    "semantics": {
        "recognize": ("earley.recognize", "semantics"),
        "enumerate_words": ("grammar.enumerate_words", "semantics"),
        "soundness_check": ("semantics.soundness_check", "semantics"),
    },
    "analyzer": {
        "recognize": ("earley.recognize", "analyzer"),
        "parse_tree": ("earley.parse_tree", "analyzer"),
        "capture_typings": ("analyzer.capture_typings", "analyzer"),
        "reshaping_check": ("analyzer.reshaping_check", "analyzer"),
        "hole_language": ("analyzer.hole_language", "analyzer"),
    },
    "earley": {
        "parse_tree": ("earley.parse_tree", "earley"),
        "enumerate_words": ("grammar.enumerate_words", "earley"),
    },
}

# the functions the benchmark calls itself: (module, attribute, span name)
DIRECT = (
    ("analyzer", "classify_input", "analyzer.classify_input"),
    ("analyzer", "hole_language", "analyzer.hole_language"),
    ("semantics", "prove_with_prescreen", "semantics.prove_with_prescreen"),
    ("semantics", "soundness_check", "semantics.soundness_check"),
    ("grammar", "enumerate_words", "grammar.enumerate_words"),
    ("earley", "check_unambiguous", "earley.check_unambiguous"),
    ("earley", "recognize", "earley.recognize"),
    ("earley", "parse_tree", "earley.parse_tree"),
)


def proof_nodes(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.premises)
    return count


def _info(name: str, args: tuple, out):
    if name == "earley.recognize":
        return len(args[2])
    if name == "prover.Prover.prove":
        return proof_nodes(out.proof) if out.proved else 0
    if name in ("analyzer.capture_typings", "analyzer.hole_language"):
        return len(out)
    return None


class Recorder:
    """Holds every span of one traced run in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, fn, name: str, origin: str):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, origin, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                span[2] = time.perf_counter()
                out = fn(*args, **kwargs)
                span[3] = time.perf_counter()
            finally:
                if not span[3]:
                    span[3] = time.perf_counter()
                stack.pop()
            span[6] = _info(name, args, out)
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(recorder: Recorder, lambek) -> dict:
    """Wrap every import site; return traced direct-call functions by name."""
    mods = {name: getattr(lambek, name) for name in ("prover", "semantics", "analyzer", "earley", "grammar")}
    direct = {
        attr: recorder.wrap(getattr(mods[mod], attr), span, "bench") for mod, attr, span in DIRECT
    }
    for mod, sites in IMPORT_SITES.items():
        for attr, (span, origin) in sites.items():
            setattr(mods[mod], attr, recorder.wrap(getattr(mods[mod], attr), span, origin))
    prover_cls = mods["prover"].Prover
    prover_cls.__init__ = recorder.wrap(prover_cls.__init__, "prover.Prover.init", "prover")
    prover_cls.prove = recorder.wrap(prover_cls.prove, "prover.Prover.prove", "prover")
    return direct


def aggregate(spans: list[list]) -> dict:
    """Per-layer counts and self times from a run's spans."""
    child = [0.0] * len(spans)
    for name, origin, start, end, parent, op, info in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    out: dict[str, int] = defaultdict(int)
    for i, (name, origin, start, end, parent, op, info) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "earley.recognize":
            out[f"recognize.from_{origin}"] += 1
            out["recognize.tokens"] += info or 0
            if parent_name == "analyzer.hole_language":
                out["hole.recognized"] += 1
        elif name == "prover.Prover.prove":
            if info:
                out["prove.proved"] += 1
                out["prove.nodes"] += info
            if parent_name == "analyzer.capture_typings":
                out["capture.goals"] += 1
        elif name == "analyzer.capture_typings":
            out["capture.hits"] += info or 0
        elif name == "analyzer.hole_language":
            out["hole.words"] += info or 0
    return {"calls": dict(calls), "self_s": dict(self_s), "counts": dict(out)}
