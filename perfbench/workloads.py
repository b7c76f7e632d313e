"""Seeded, stratified op lists for the `screen`, `judge` and `language` workloads.

An op is a JSON-able dict naming one call into the `lambek` package.  The
family counts, ladder rungs and input shapes below are fixed; the seed only
picks which value token (`1`, `a`, `b`) and, in `eng.g`, which name stands
where.  Every seed therefore measures the same mix, and a claim re-checked
on an unseen seed measures the same work.

A round is the op list one fresh process runs; no op repeats within it.

This module imports nothing from `lambek`, so the parent process can build
the op list without touching the package under test.
"""
from __future__ import annotations

import random

WORKLOADS = ("screen", "judge", "language")
GRAMMARS = {"screen": ("bool",), "judge": ("bool", "eng"), "language": ("bool",)}

VALUES = ("1", "a", "b")
NAMES = ("Alice", "Bob")
ATOMS_TVE = ("E", "T", "V")

# The 31 types of connective depth <= 1 over T, V, E: the unit, the atoms,
# and x\y, y/x, x*y for every pair (lambek.types.type_universe's set).
TYPES_D1 = ("1",) + ATOMS_TVE + tuple(
    t
    for x in ATOMS_TVE
    for y in ATOMS_TVE
    for t in (f"{x}\\{y}", f"{y}/{x}", f"{x}*{y}")
)

# A template is a prefix and a suffix around the hole, with placeholders
# `$` for seeded values, and the goal and expected (hole) symbols.
TEMPLATES = {
    # the value hole at the end: left-capturing attacks
    "A": ("$ =", "", "E", "V"),
    # its mirror: right-capturing attacks
    "B": ("", "= $", "E", "V"),
    # a hole with material on both sides, inside a longer expression
    "M": ("$ = $ AND $ =", "OR $ = $", "E", "V"),
    # a conjunction hole: benign inputs are whole tests, attacks add OR
    "O": ("$ = $ OR", "", "E", "C"),
}

# Ill-formed token soups, as shapes: `$` a value, `&` a connective.  Each
# splices into every template as a string outside L(E) (checked by the
# reference), and none proves a capture type.
SOUPS = ("$ $", "= $", "$ = = $", "$ &", "$ $ = $", "& & $", "= = $", "$ = $ =", "$ & &", "= $ = $ &")

# judge: fragments are cuts of one E word `x = y AND x = y OR x = y`
E_WORD = "$ = $ AND $ = $ OR $ = $"
FRAGMENT_CUTS = ((0, 2), (1, 3), (0, 3), (2, 7), (3, 11), (0, 7))
ORACLE_CUTS = ((0, 1), (4, 8))
FRAGMENT_SUCCEDENTS = TYPES_D1 + ("C", "D", "F")

# Expected verdicts of the fragment, type and oracle families, one letter per
# op: P Proved, R RefutedByOracle, N NotFoundWithinBounds; for the oracle,
# C Counterexample and P Pass with at least one word checked.  They are the
# answers of the commit that introduced the benchmark.  The seed permutes
# values of a symmetric grammar, so they hold for every seed, and a
# self-test checks them against reference.member wherever it decides the
# word's membership.  A decided answer that an N turns into counts as
# correct once the references verify it; a P, R or C lost is a miss.
FRAGMENT_EXPECT = {  # cut -> one letter per FRAGMENT_SUCCEDENTS
    (0, 2): "RRRRRRRRRRRRRRRRRRRRRRRPRRPRRRRRRR",
    (1, 3): "RRRRRRRRRRRRRRRRRRRRRRPRRPRRRRRRRR",
    (0, 3): "RPPRRRRRRRRRRRRRRRRRRRRRRRRRRRRPRR",
    (2, 7): "RRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRR",
    (3, 11): "NNNNNNNNNNNNNPNNNNNNNNNNNNNNNNNNNN",
    (0, 7): "NPNNNNNNNNNNNNNNNNNNNNNNNNNNNNNPNN",
}
# left type -> one letter per right type in TYPES_D1; `.` marks pairs outside
# the sampled quarter, (i + 2j) % 4 == 0 for TYPES_D1[i] |- TYPES_D1[j]
TYPE_EXPECT = {
    "1": "P.R.P.R.N.R.R.P.P.R.R.R.R.R.P.R",
    "T": ".P.R.R.R.R.R.R.R.R.R.R.R.R.R.R.",
    "E\\E": "N.N.P.N.N.N.N.N.N.N.N.N.N.N.N.N",
    "E*E": ".N.N.N.N.N.N.N.N.N.N.N.N.N.N.N.",
    "T/E": "N.N.N.N.P.N.N.P.N.N.N.N.N.N.N.N",
    "E\\V": ".N.N.N.N.N.N.N.N.N.P.N.N.N.N.N.",
    "E*V": "R.R.R.R.R.R.P.R.R.R.R.R.R.R.R.R",
    "E/T": ".R.R.N.R.R.R.R.R.R.R.R.R.R.R.R.",
    "T\\T": "N.R.N.R.N.R.R.N.P.R.R.R.R.R.N.R",
    "T*T": ".N.N.N.N.P.N.N.P.N.N.N.N.N.N.N.",
    "V/T": "N.N.N.N.N.N.N.N.N.N.P.N.N.N.N.N",
    "V\\E": ".R.R.R.R.R.R.R.R.R.R.R.R.N.R.R.",
    "V*E": "R.R.R.R.R.R.R.R.R.R.R.R.P.R.R.R",
    "T/V": ".R.R.R.R.R.R.R.R.R.R.R.P.R.R.R.",
    "V\\V": "N.R.N.R.N.R.R.N.N.R.R.R.R.R.P.R",
    "V*V": ".R.R.R.R.R.R.R.R.R.R.R.R.R.R.R.",
}
ORACLE_EXPECT = {  # cut -> one letter per TYPES_D1
    (0, 1): "CCCPCCCCCCCCCCCCCCCCCCCCCCCCCCC",
    (4, 8): "CCCCCPCCCCCCCCPCCCCCCCCCCCCCCCC",
}
VERDICTS = {"P": "Proved", "R": "RefutedByOracle", "N": "NotFoundWithinBounds"}
ORACLE_VERDICTS = {"C": "Counterexample", "P": "Pass"}

ENG_AXIOMS = ("he |- Sent/(Noun\\Sent)", "him |- (Sent/Noun)\\Sent")
# (sequent shape with `N` a seeded name, expected status)
ENG_JUDGMENTS = (
    ("N , knows , N |- Sent", "Proved"),
    ("he , knows , N |- Sent", "Proved"),
    ("N , knows , him |- Sent", "Proved"),
    ("he , knows , him |- Sent", "Proved"),
    ("he , knows |- Sent/Noun", "Proved"),
    ("knows , him |- Noun\\Sent", "Proved"),
    ("N , knows |- Sent/Noun", "Proved"),
    ("him , knows , N |- Sent", "NotFoundWithinBounds"),
    ("N , knows , he |- Sent", "NotFoundWithinBounds"),
    ("he , knows , he |- Sent", "NotFoundWithinBounds"),
    ("knows , he |- Noun\\Sent", "NotFoundWithinBounds"),
    ("him , knows |- Sent/Noun", "NotFoundWithinBounds"),
)

# Ladder rungs.  Each ladder keeps rungs past the cliffs measured when the
# benchmark was introduced, so the known blowups show as failed ops:
#   attack k=3 takes ~12 s, flat sequents of 39+ tokens > 100 s,
#   hole n=7 ~13 s, and parse_tree raises RecursionError near 1000 tokens.
ATTACK_KS = (1, 2, 3)
FLAT_TESTS = tuple(range(2, 12))  # 4k - 1 tokens: 7, 11, ..., 43
HOLE_NS = (4, 5, 6, 7)
PARSE_TESTS = (25, 50, 100, 200, 400)  # 99, 199, 399, 799, 1599 tokens
PARSE_CURVE = {25: 100, 50: 200, 100: 400, 200: 800, 400: 1600}


class _Draw:
    """Token choices for one (workload, seed); every op drawn is unique.

    Which positions hold equal values is drawn from a stream fixed per
    workload, and the seed only permutes the values (and the names).  Equal
    tokens let the prover's memo share work, so this keeps the work of each
    op the same for every seed."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:shapes")
        perm = random.Random(f"{workload}:{seed}")
        self.values = perm.sample(VALUES, len(VALUES))
        self.names = perm.sample(NAMES, len(NAMES))
        self.seen: set = set()

    def fill(self, shape: str) -> str:
        out = []
        for tok in shape.split():
            if tok == "$":
                out.append(self.values[self.rng.randrange(len(VALUES))])
            elif tok == "&":
                out.append(self.rng.choice(("AND", "OR")))
            elif tok == "N":
                out.append(self.names[self.rng.randrange(len(NAMES))])
            else:
                out.append(tok)
        return " ".join(out)

    def unique(self, make) -> dict:
        """Redraw tokens until the op differs from every earlier one."""
        for _ in range(200):
            op = make()
            key = tuple(sorted((k, str(v)) for k, v in op.items() if k not in ("family", "curve")))
            if key not in self.seen:
                self.seen.add(key)
                return op
        raise RuntimeError(f"cannot draw a fresh op for family {op['family']!r}")


def _chain(draw: _Draw, tests: int, conn: str) -> str:
    return f" {conn} ".join(draw.fill("$ = $") for _ in range(tests))


def _classify(draw: _Draw, family: str, tpl: str, input_shape, expect: str, curve=None) -> dict:
    prefix, suffix, goal, expected = TEMPLATES[tpl]

    def make():
        text = input_shape() if callable(input_shape) else draw.fill(input_shape)
        return {
            "kind": "classify",
            "family": family,
            "prefix": draw.fill(prefix),
            "suffix": draw.fill(suffix),
            "goal": goal,
            "expected": expected,
            "input": text,
            "expect": expect,
            "curve": curve,
        }

    return draw.unique(make)


def _screen_round(draw: _Draw) -> list[dict]:
    ops: list[dict] = []
    # benign: a value for the value holes, 1-6 tests for the conjunction hole
    for tpl in ("A", "B", "M"):
        ops += [_classify(draw, "benign", tpl, "$", "Benign") for _ in range(8)]
    for tests in range(1, 7):
        ops += [
            _classify(draw, "benign", "O", lambda t=tests: _chain(draw, t, "AND"), "Benign")
            for _ in range(2)
        ]
    # attacks with one tail: about 0.06-0.35 s each
    tails = {
        ("taut", "A"): "$ OR $ = $",
        ("taut", "B"): "$ = $ OR $",
        ("taut", "M"): "$ OR $ = $",
        ("conj", "A"): "$ AND $ = $",
        ("conj", "B"): "$ = $ AND $",
        ("conj", "M"): "$ AND $ = $",
        ("disj", "O"): "$ = $ OR $ = $",
    }
    for (kind, tpl), shape in tails.items():
        ops += [_classify(draw, f"{kind}1", tpl, shape, "Capturing") for _ in range(3)]
    # attacks with two tails: about 0.6-1.1 s each; only on the short templates,
    # where they stay well below the deadline
    for kind, conn in (("taut", "OR"), ("conj", "AND")):
        ops.append(_classify(draw, f"{kind}2", "A", f"$ {conn} $ = $ {conn} $ = $", "Capturing"))
        ops.append(_classify(draw, f"{kind}2", "B", f"$ = $ {conn} $ = $ {conn} $", "Capturing"))
    for tpl in ("A", "B", "M", "O"):
        ops += [_classify(draw, "soup", tpl, shape, "IllFormed") for shape in SOUPS]
    # the attack ladder  b (OR 1 = 1)^k  on  a = _
    for k in ATTACK_KS:
        ops.append(
            _classify(
                draw, "ladder", "A", "$" + " OR $ = $" * k, "Capturing",
                curve=f"curve.screen.attack_k{k}_ms",
            )
        )
    return ops


def _prove(draw: _Draw, family: str, make_sequent, **extra) -> dict:
    def make():
        op = {"kind": "prove", "family": family, "grammar": "bool", "sequent": make_sequent(),
              "axioms": [], "expect": None, "curve": None}
        op.update(extra)
        return op

    return draw.unique(make)


def _antecedent(text: str) -> str:
    return " , ".join(text.split())


def _judge_round(draw: _Draw) -> list[dict]:
    ops: list[dict] = []
    word = draw.fill(E_WORD).split()
    for cut in FRAGMENT_CUTS:
        frag = _antecedent(" ".join(word[slice(*cut)]))
        for succ, letter in zip(FRAGMENT_SUCCEDENTS, FRAGMENT_EXPECT[cut]):
            ops.append(_prove(draw, "fragment", lambda f=frag, s=succ: f"{f} |- {s}",
                              expect=VERDICTS[letter]))
    # type-to-type judgments: a fixed quarter of the 31 x 31 pairs
    for left, row in TYPE_EXPECT.items():
        ante = "(1)" if left == "1" else left
        for right, letter in zip(TYPES_D1, row):
            if letter != ".":
                ops.append(_prove(draw, "type", lambda a=ante, r=right: f"{a} |- {r}",
                                  expect=VERDICTS[letter]))
    # bare oracle calls at bound 6, as the `oracle` command makes them
    word = draw.fill(E_WORD).split()
    for cut in ORACLE_CUTS:
        frag = _antecedent(" ".join(word[slice(*cut)]))
        for succ, letter in zip(TYPES_D1, ORACLE_EXPECT[cut]):
            ops.append(draw.unique(lambda f=frag, s=succ, e=ORACLE_VERDICTS[letter]: {
                "kind": "oracle", "family": "oracle", "grammar": "bool",
                "sequent": f"{f} |- {s}", "max_len": 6, "expect": e, "curve": None,
            }))
    # eng.g under the pronoun axioms: no prescreen, one Prover per sequent
    for shape, expect in ENG_JUDGMENTS:
        ops.append(_prove(draw, "eng", lambda s=shape: draw.fill(s), grammar="eng",
                          axioms=list(ENG_AXIOMS), expect=expect))
    # the flat ladder  1 = 1 AND ... |- E
    for tests in FLAT_TESTS:
        ops.append(_prove(
            draw, "flat", lambda t=tests: _antecedent(_chain(draw, t, "AND")) + " |- E",
            expect="Proved", curve=f"curve.judge.flat_len{4 * tests - 1}_ms",
        ))
    return ops


def _hole(draw: _Draw, family: str, tpl: str, n: int, curve=None) -> dict:
    prefix, suffix, goal, expected = TEMPLATES[tpl]
    return draw.unique(lambda: {
        "kind": "hole", "family": family,
        "prefix": draw.fill(prefix), "suffix": draw.fill(suffix),
        "goal": goal, "expected": expected, "n": n, "curve": curve,
    })


def _sentence_op(draw: _Draw, kind: str, family: str, tests: int, conn_shape: str,
                 mutate: bool = False, curve=None) -> dict:
    def make():
        conns = [conn_shape[i % len(conn_shape)] for i in range(tests - 1)]
        toks = draw.fill("$ = $").split()
        for c in conns:
            toks += ["AND" if c == "A" else "OR"] + draw.fill("$ = $").split()
        if mutate:
            # an `=` turned into a connective: no E word has `V conn V` there
            eq = [i for i, t in enumerate(toks) if t == "="]
            toks[eq[len(eq) // 2]] = "AND"
        return {"kind": kind, "family": family, "grammar": "bool", "symbol": "E",
                "word": " ".join(toks), "curve": curve}

    return draw.unique(make)


def _language_round(draw: _Draw) -> list[dict]:
    ops: list[dict] = []
    for tpl in ("B", "M", "O"):
        for n in (3, 4, 5):
            ops.append(_hole(draw, "hole", tpl, n))
    for n in HOLE_NS:
        ops.append(_hole(draw, "hole_ladder", "A", n, curve=f"curve.language.hole_n{n}_ms"))
    # one cold enumeration per length bound, the symbol rotating
    for i, n in enumerate(range(1, 10)):
        sym = ("E", "C", "T", "F", "D", "V")[i % 6]
        ops.append(draw.unique(lambda s=sym, m=n: {
            "kind": "enum", "family": "enum", "grammar": "bool", "symbol": s,
            "max_len": m, "curve": None,
        }))
    for sym in ("E", "C", "F"):
        ops.append(draw.unique(lambda s=sym: {
            "kind": "ambig", "family": "ambig", "grammar": "bool", "symbol": s,
            "max_len": 8, "curve": None,
        }))
    # small sentences and mutated non-sentences, 1-16 tests
    patterns = ("A", "O", "AO", "AAO", "OA", "AOO")
    for i in range(30):
        tests = 1 + (i * 7) % 16
        pat = patterns[i % len(patterns)]
        for kind in ("recognize", "parse"):
            ops.append(_sentence_op(draw, kind, "sentence", tests, pat))
            if i % 2 == 0:
                ops.append(_sentence_op(draw, kind, "mutated", tests + 1, pat, mutate=True))
    # the parse ladder: uniform AND chains, so the tree depth grows with length
    for tests in PARSE_TESTS:
        ops.append(_sentence_op(draw, "recognize", "parse_ladder", tests, "A"))
        ops.append(_sentence_op(draw, "parse", "parse_ladder", tests, "A",
                                curve=f"curve.language.parse_len{PARSE_CURVE[tests]}_ms"))
    return ops


_ROUNDS = {"screen": _screen_round, "judge": _judge_round, "language": _language_round}


def build(workload: str, seed: int) -> list[dict]:
    """The op list of one round; ids are positions in the list."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    ops = _ROUNDS[workload](_Draw(workload, seed))
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def curve_names() -> list[str]:
    return (
        [f"curve.screen.attack_k{k}_ms" for k in ATTACK_KS]
        + [f"curve.judge.flat_len{4 * t - 1}_ms" for t in FLAT_TESTS]
        + [f"curve.language.hole_n{n}_ms" for n in HOLE_NS]
        + [f"curve.language.parse_len{PARSE_CURVE[t]}_ms" for t in PARSE_TESTS]
    )
