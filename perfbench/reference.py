"""Independent references for every verdict the benchmark times.

`bool.g` generates a regular language, so each of its nonterminals is
written here as a regular expression over space-separated tokens, and its
words are generated from the same structure, without `lambek`'s Earley
parser or its grammar enumeration.  `eng.g` ops are judged by their proofs
and hand-written labels.  `check_grammars` pins the productions these
references were written for.

`verify` returns one of:
    ok     the verdict agrees with every reference and with the op's label
    miss   a sound answer that disagrees with the op's label, such as a
           decision lost to NotFoundWithinBounds or an oracle Pass(0)
    wrong  an answer that a reference refutes: an invalid proof, a word
           misjudged, an uncertified counterexample, a wrong word set
with a reason.  Misses and wrong answers count as failed ops; a wrong answer
also makes the run incorrect.  A decided answer where the label reads
NotFoundWithinBounds is a gain, not a miss, once the references verify it.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import product

_V = "(?:1|a|b)"
_T = f"{_V} = {_V}"
_C = f"{_T}(?: AND {_T})*"
PATTERNS = {
    "bool": {
        "V": _V,
        "T": _T,
        "C": _C,
        "D": f"(?:AND {_T}(?: AND {_T})*)?",
        "F": f"(?:OR {_C}(?: OR {_C})*)?",
        "E": f"{_C}(?: OR {_C})*",
    },
}
TERMINALS = {
    "bool": ("1", "=", "AND", "OR", "a", "b"),
    "eng": ("Alice", "Bob", "he", "him", "knows"),
}
# the productions (after validation) that PATTERNS describe
PRODUCTIONS = {
    "bool": {
        "E ::= C F", "F ::= OR C F", "F ::=", "C ::= T D", "D ::= AND T D", "D ::=",
        "T ::= V = V", "V ::= 1", "V ::= a", "V ::= b",
    },
    "eng": {"Sent ::= Noun Verb Noun", "Noun ::= Alice", "Noun ::= Bob", "Verb ::= knows"},
}
_COMPILED = {g: {x: re.compile(p) for x, p in pats.items()} for g, pats in PATTERNS.items()}


def check_grammars(grammars: dict) -> list[str]:
    """Problems that would make these references stale for the loaded grammars."""
    problems = []
    for name, g in grammars.items():
        got = {f"{p.lhs.name} ::= {' '.join(s.name for s in p.rhs)}".rstrip() for p in g.productions}
        if got != PRODUCTIONS[name]:
            problems.append(f"{name}.g productions changed: {sorted(got ^ PRODUCTIONS[name])}")
        terms = {s.name for s in g.terminals}
        if terms != set(TERMINALS[name]):
            problems.append(f"{name}.g terminals changed: {sorted(terms ^ set(TERMINALS[name]))}")
    return problems


def in_lang(grammar: str, symbol: str, toks: tuple) -> bool:
    """Does `symbol` of bool.g derive the token sequence?  Terminals derive themselves."""
    pat = _COMPILED[grammar].get(symbol)
    if pat is None:
        return toks == (symbol,)
    return pat.fullmatch(" ".join(toks)) is not None


@lru_cache(maxsize=None)
def lang_words(grammar: str, symbol: str, max_len: int) -> frozenset:
    """Every word of `symbol` of bool.g up to max_len tokens, from the language's structure."""
    if symbol not in PATTERNS[grammar]:
        return frozenset({(symbol,)}) if max_len >= 1 else frozenset()
    vals = ("1", "a", "b")
    tests = [(x, "=", y) for x in vals for y in vals]
    if symbol == "V":
        return frozenset((v,) for v in vals if max_len >= 1)
    # every other symbol is a chain of tests joined by connectives
    first, conns, lead = {
        "T": (True, (), None),
        "C": (True, ("AND",), None),
        "E": (True, ("AND", "OR"), None),
        "D": (False, ("AND",), "AND"),
        "F": (False, ("AND", "OR"), "OR"),
    }[symbol]
    out = set() if first else {()}
    chains = tests if first else [(lead,) + t for t in tests]
    while chains and len(chains[0]) <= max_len:
        out.update(chains)
        if not conns:
            break
        chains = [c + (k,) + t for c in chains for k in conns for t in tests if len(c) + 4 <= max_len]
    return frozenset(out)


@lru_cache(maxsize=None)
def hole_words(grammar: str, prefix: tuple, suffix: tuple, goal: str, n: int) -> frozenset:
    """Brute force: every word w over the terminals, |w| <= n, with prefix·w·suffix in L(goal)."""
    sigma = TERMINALS[grammar]
    return frozenset(
        w
        for k in range(n + 1)
        for w in product(sigma, repeat=k)
        if in_lang(grammar, goal, prefix + w + suffix)
    )


# --- bounded language semantics for depth-1 types over bool.g ---------------

_BINARY = re.compile(r"^(\w+)([\\/*])(\w+)$")
TEST_LEN = 11  # longest test word tried against an infinite argument language


def parse_type(text: str):
    """'1', an atom, or a depth-1 'x\\y' / 'y/x' / 'x*y' over atoms."""
    text = text.strip()
    if text in ("1", "(1)"):
        return ("unit",)
    m = _BINARY.match(text)
    if m:
        left, op, right = m.groups()
        if op == "\\":
            return ("under", left, right)  # arg, result
        if op == "/":
            return ("over", left, right)  # result, arg
        return ("prod", left, right)
    if re.fullmatch(r"\w+", text):
        return ("atom", text)
    raise ValueError(f"type {text!r} is outside the reference's depth-1 fragment")


def _finite(grammar: str, symbol: str) -> bool:
    return symbol in ("V", "T") or symbol not in PATTERNS[grammar]


def _arg_failure(grammar: str, w: tuple, t) -> tuple | None:
    """A test word of the argument under which w leaves the result type, if any."""
    kind, x, y = t
    arg, result = (x, y) if kind == "under" else (y, x)
    for v in sorted(lang_words(grammar, arg, TEST_LEN), key=lambda v: (len(v), v)):
        joined = v + w if kind == "under" else w + v
        if not in_lang(grammar, result, joined):
            return v
    return None


def member(grammar: str, w: tuple, t) -> bool | None:
    """Is w in the type's language?  None when that needs an unbounded check."""
    kind = t[0]
    if kind == "unit":
        return w == ()
    if kind == "atom":
        return in_lang(grammar, t[1], w)
    if kind == "prod":
        return any(in_lang(grammar, t[1], w[:k]) and in_lang(grammar, t[2], w[k:]) for k in range(len(w) + 1))
    if _arg_failure(grammar, w, t) is not None:
        return False
    arg = t[1] if kind == "under" else t[2]
    return True if _finite(grammar, arg) else None


def sequent_parts(text: str) -> tuple[list[str], str]:
    left, right = text.split("|-")
    return [x.strip() for x in left.split(",") if x.strip()], right.strip()


# --- verification -----------------------------------------------------------


def _split(text: str) -> tuple:
    return tuple(text.split())


class Checker:
    """Verifies one run's results; `lk` is the `lambek` package, for check_proof."""

    def __init__(self, lk, grammars: dict):
        self.lk = lk
        self.gs = grammars

    def verify(self, op: dict, result: dict) -> tuple[str, str]:
        return getattr(self, "_" + op["kind"])(op, result)

    def _proof(self, gname: str, proof_json, sequent, axioms=()) -> str | None:
        """Why the proof fails, or None if check_proof accepts it for this sequent."""
        g = self.gs[gname]
        tree = self.lk.proof_from_json(proof_json, g)
        if tree.conclusion != sequent:
            return "proof concludes a different sequent"
        res = self.lk.check_proof(g, tree, axioms)
        return None if res.ok else f"check_proof rejects the proof at {res.path}: {res.reason}"

    def _classify(self, op, r):
        lk, g = self.lk, self.gs["bool"]
        inp, pre, suf = _split(op["input"]), _split(op["prefix"]), _split(op["suffix"])
        in_expected = in_lang("bool", op["expected"], inp)
        combined = in_lang("bool", op["goal"], pre + inp + suf)
        verdict = r["verdict"]
        if (verdict == "Benign") != in_expected:
            return "wrong", f"{verdict} but input {'in' if in_expected else 'not in'} L({op['expected']})"
        if verdict == "IllFormed" and combined:
            return "wrong", "IllFormed but the spliced string is in L(goal)"
        if r["combined_parses"] != combined:
            return "wrong", "combined_parses disagrees with the reference"
        ante = tuple(lk.Atom(g.symbol(x)) for x in inp)
        hole = lk.Atom(g.symbol(op["expected"]))
        if r["benign_proof"] is not None:
            why = self._proof("bool", r["benign_proof"], lk.Sequent(ante, hole))
            if why:
                return "wrong", f"benign proof: {why}"
        for direction, type_text, proof in r["captures"]:
            t = lk.parse_type(type_text, g)
            if direction == "Left":
                shaped = isinstance(t, lk.Under) and isinstance(t.arg, lk.Over) and t.arg.arg == hole
            else:
                shaped = isinstance(t, lk.Over) and isinstance(t.arg, lk.Under) and t.arg.arg == hole
            if not shaped:
                return "wrong", f"capture {type_text} does not consume a {op['expected']} {direction}"
            why = self._proof("bool", proof, lk.Sequent(ante, t))
            if why:
                return "wrong", f"capture {type_text}: {why}"
        if verdict == "Capturing" and not r["captures"]:
            return "wrong", "Capturing without a capture"
        if verdict != op["expect"]:
            return "miss", f"{verdict}, expected {op['expect']}"
        return "ok", ""

    def _counterexample(self, gname: str, sequent_text: str, word: str) -> str | None:
        """Why the counterexample is not certified, or None if it is."""
        items, succ = sequent_parts(sequent_text)
        w = _split(word)
        g = self.gs[gname]
        if all(g.declares(x) and g.symbol(x).is_terminal for x in items):
            if w != tuple(items):
                return "counterexample is not the antecedent word"
        elif len(items) == 1:
            if member(gname, w, parse_type(items[0])) is not True:
                return f"counterexample {word!r} is not certainly in {items[0]}"
        else:
            return "antecedent outside the reference's fragment"
        if member(gname, w, parse_type(succ)) is not False:
            return f"counterexample {word!r} is not certainly outside {succ}"
        return None

    def _prove(self, op, r):
        lk, gname = self.lk, op["grammar"]
        g = self.gs[gname]
        verdict = r["verdict"]
        if verdict == "Proved":
            axioms = tuple(lk.parse_axiom(a, g) for a in op["axioms"])
            why = self._proof(gname, r["proof"], lk.parse_sequent(op["sequent"], g), axioms)
            if why:
                return "wrong", why
            items, succ = sequent_parts(op["sequent"])
            if not op["axioms"] and all(g.declares(x) and g.symbol(x).is_terminal for x in items):
                # a word: the proved type must hold it in the language semantics
                if member(gname, tuple(items), parse_type(succ)) is False:
                    return "wrong", f"proved, but the word is not in {succ}"
        elif verdict == "RefutedByOracle":
            why = self._counterexample(gname, op["sequent"], r["counterexample"])
            if why:
                return "wrong", why
        # a decision where the label reads NotFoundWithinBounds is a verified gain
        gained = op["expect"] == "NotFoundWithinBounds" != verdict
        if verdict != op["expect"] and not gained:
            return "miss", f"{verdict}, expected {op['expect']}"
        return "ok", ""

    def _oracle(self, op, r):
        if r["verdict"] == "Counterexample":
            why = self._counterexample(op["grammar"], op["sequent"], r["counterexample"])
            if why:
                return "wrong", why
        elif r["checked"] < 1:
            return "miss", "Pass(0): the sequent was not checked"
        if r["verdict"] != op["expect"]:
            return "miss", f"{r['verdict']}, expected {op['expect']}"
        return "ok", ""

    def _words_equal(self, got: list, want: frozenset) -> tuple[str, str]:
        got_set = {_split(w) for w in got}
        if got_set != want:
            extra, missing = sorted(got_set - want)[:3], sorted(want - got_set)[:3]
            return "wrong", f"word set differs: extra {extra}, missing {missing}"
        return "ok", ""

    def _hole(self, op, r):
        want = hole_words("bool", _split(op["prefix"]), _split(op["suffix"]), op["goal"], op["n"])
        return self._words_equal(r["words"], want)

    def _enum(self, op, r):
        return self._words_equal(r["words"], lang_words(op["grammar"], op["symbol"], op["max_len"]))

    def _ambig(self, op, r):
        if r["verdict"] != "Pass" or r["max_len"] != op["max_len"]:
            return "wrong", f"{r['verdict']} on an unambiguous grammar"
        return "ok", ""

    def _recognize(self, op, r):
        want = in_lang(op["grammar"], op["symbol"], _split(op["word"]))
        return ("ok", "") if r["verdict"] == want else ("wrong", f"recognize says {r['verdict']}")

    def _parse(self, op, r):
        w = _split(op["word"])
        want = in_lang(op["grammar"], op["symbol"], w)
        if r["verdict"] != ("Unique" if want else "Reject"):
            return "wrong", f"{r['verdict']}, expected {'Unique' if want else 'Reject'}"
        if want:
            why = self._tree(op["grammar"], op["symbol"], w, r["tree"])
            if why:
                return "wrong", why
        return "ok", ""

    def _tree(self, gname: str, symbol: str, w: tuple, flat: list) -> str | None:
        """Rebuild a preorder tree; check each node against its production and the yield."""
        prods = self.gs[gname].productions
        if not flat or flat[0][0] != symbol:
            return "tree root is not the goal"
        leaves: list[str] = []
        stack = []  # [expected child labels, next child index]
        for label, pid, nchild in flat:
            if stack:
                want, k = stack[-1]
                if k >= len(want) or want[k] != label:
                    return f"node {label} does not match its parent's production"
                stack[-1][1] += 1
            if pid >= 0:
                rhs = [s.name for s in prods[pid].rhs] or ["·eps"]
                if prods[pid].lhs.name != label or len(rhs) != nchild:
                    return f"node {label} does not match production {pid}"
                stack.append([rhs, 0])
            elif nchild:
                return f"leaf {label} has children"
            elif label != "·eps":
                leaves.append(label)
            while stack and stack[-1][1] == len(stack[-1][0]):
                stack.pop()
        if stack or tuple(leaves) != w:
            return "tree yield differs from the word"
        return None
