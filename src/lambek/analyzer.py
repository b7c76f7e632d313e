"""Classify untrusted string fragments spliced into a fixed template.

A template is a prefix and a suffix around a single hole, together with the
symbol the whole string should parse as (goal) and the symbol the hole is
meant to supply (expected).  Given a concrete input for the hole we ask, in
order:

  Benign     the input itself proves  input ⊢ expected
  Capturing  the input instead types as a function over its surroundings,
             i.e. some (ψ/expected)\\π  (grabbing material on its left) or
             π/(expected\\ψ)  (grabbing material on its right) is provable.
             These are the doubly-negated shapes: the input pretends to be
             an expected-value only long enough to swallow an adjacent
             producer or consumer, then yields something bigger.
  IllFormed  the spliced string does not even parse as the goal
  Unknown    the spliced string parses, but no candidate typing is provable

Capturing is the syntactic fingerprint of an injection: "b OR 1 = 1" in the
hole of "a = _" does not carry the expected value type, yet composes with
the prefix to a full expression.

The capture candidates are read off the grammar at the hole's splits of the
input: a left capture  (ψ/expected)\\π  exists where expected derives a
prefix w[:k] of the input and π derives ψ w[k:], and right captures mirror
it on suffixes.  Two Earley charts from every nonterminal, one over the
input and one over it reversed with the rules read reversed, name every
split of both sides and, continued at a split by each ψ, every π.  The
charts decide both premises of a capture, so each capture is composed from
its split without proof search: the two premises are fold chains, the
hole's share only where a capture uses it, and the capture tactic builds
the rest (see capture_typings).

The reshaping check is the parse-tree view of the same phenomenon, and the
analyzer's first step: splice the input and parse once.  When that parse is
unique, the input is benign exactly when one node of it, labelled with the
hole's symbol, spans the input: the template's tree with that node's
subtree plugged into the hole is then the parse (a conservative
extension), and the subtree's fold chain proves  input ⊢ expected.
Otherwise the input stole parts of the template into its own subtree
(reshaped), or the spliced string does not parse at all.  Only then is the
template itself parsed.  Both parses continue the closed chart of the
template's prefix, which the grammar keeps, and pop back after.
"""
from __future__ import annotations

import enum
from itertools import product
from typing import Sequence

from .earley import Ambiguous, Chart, ParseTree, Reject, Unique, parse_tree, recognize, tree_to_json
from .grammar import Grammar, Symbol, Value, Word, memo, render_word, require_bound, require_word, set_field, set_key
from .prover import ProofTree, Prover, Side, capture, flat_proof, fold_chain, proof_to_json
from .types import Atom, LambekType, Sequent, render_type, type_universe


class AmbiguityError(ValueError):
    """The grammar produced two parse trees where one was required."""


class InjectionContext(Value):
    __slots__ = ("prefix", "suffix", "goal", "expected", "_k", "_h")

    def __init__(self, prefix: Word, suffix: Word, goal: Symbol, expected: Symbol) -> None:
        set_field(self, "prefix", prefix)
        set_field(self, "suffix", suffix)
        set_field(self, "goal", goal)
        set_field(self, "expected", expected)
        # the grammar's memo keeps each template's parse under the template
        set_key(self, (prefix, suffix, goal, expected))


class Classification(enum.Enum):
    BENIGN = "Benign"
    CAPTURING = "Capturing"
    ILL_FORMED = "IllFormed"
    UNKNOWN = "Unknown"


class CaptureTyping(Value):
    __slots__ = ("direction", "type", "proof")

    def __init__(self, direction: Side, type: LambekType, proof: ProofTree) -> None:
        set_field(self, "direction", direction)
        set_field(self, "type", type)
        set_field(self, "proof", proof)


class ConservativeExtension(Value):
    __slots__ = ("tree",)

    def __init__(self, tree: ParseTree) -> None:
        set_field(self, "tree", tree)


class Reshaped(Value):
    __slots__ = ("context_tree", "combined_tree")

    def __init__(self, context_tree: ParseTree, combined_tree: ParseTree) -> None:
        set_field(self, "context_tree", context_tree)
        set_field(self, "combined_tree", combined_tree)


class Unparseable(Value):
    __slots__ = ()


ReshapingResult = ConservativeExtension | Reshaped | Unparseable


def _require_context(g: Grammar, ctx: InjectionContext) -> None:
    """Raise ValueError unless goal and hole are nonterminals and prefix and suffix are words."""
    for role, sym in (("goal", ctx.goal), ("hole type", ctx.expected)):
        if sym not in g.nonterminals:
            raise ValueError(f"{role} {sym.name!r} is not a nonterminal of the grammar")
    require_word(g, ctx.prefix + ctx.suffix)


def _hole_parse(g: Grammar, ctx: InjectionContext) -> ParseTree:
    _require_context(g, ctx)
    template = ctx.prefix + (ctx.expected,) + ctx.suffix
    out = parse_tree(g, ctx.goal, template, memo(g, Chart, (ctx.goal,), False, ctx.prefix))
    if isinstance(out, Reject):
        raise ValueError(
            f"template {render_word(ctx.prefix)!r} _ {render_word(ctx.suffix)!r} does not "
            f"parse as {ctx.goal.name} with a {ctx.expected.name} hole"
        )
    if isinstance(out, Ambiguous):
        raise AmbiguityError("the template parses ambiguously around its hole")
    return out.tree


def context_tree(g: Grammar, ctx: InjectionContext) -> ParseTree:
    """The template's unique parse; its hole is a leaf labelled ctx.expected."""
    return memo(g, _hole_parse, ctx)


def _filler(tree: ParseTree, ctx: InjectionContext, n: int) -> ParseTree | None:
    """The node of tree labelled ctx.expected that spans the input, of length n, if it is the only one.

    The walk descends only into children whose span holds the input's.  In
    a unique parse, two such nodes are empty nodes side by side at an empty
    input; each is then the hole of a template parse of its own, so the
    template is ambiguous.
    """
    lo, hi = len(ctx.prefix), len(ctx.prefix) + n
    found: list[ParseTree] = []
    stack = [(tree, 0)]
    while stack:
        node, i = stack.pop()
        if i == lo and len(node.word) == n and node.root == ctx.expected:
            found.append(node)
        for c in node.children:
            j = i + len(c.word)
            if i <= lo and hi <= j:
                stack.append((c, i))
            i = j
    return found[0] if len(found) == 1 else None


def reshaping_check(g: Grammar, ctx: InjectionContext, w: Word) -> ReshapingResult:
    """Does w fill the template's hole in the spliced string's unique parse?

    ConservativeExtension when that parse has exactly one node labelled
    ctx.expected spanning w: the node is the hole, so the parse is the
    template's tree with w's tree plugged in, and the template is not
    parsed at all.  Otherwise the template is parsed, which raises on a
    broken or ambiguous template, and the answer is Unparseable when the
    spliced string does not parse, AmbiguityError when it parses twice, and
    Reshaped when it parses once.
    """
    _require_context(g, ctx)
    require_word(g, w)
    full = ctx.prefix + w + ctx.suffix
    out = parse_tree(g, ctx.goal, full, memo(g, Chart, (ctx.goal,), False, ctx.prefix))
    if isinstance(out, Unique) and _filler(out.tree, ctx, len(w)) is not None:
        return ConservativeExtension(out.tree)
    ctx_tree = memo(g, _hole_parse, ctx)
    if isinstance(out, Reject):
        return Unparseable()
    if isinstance(out, Ambiguous):
        raise AmbiguityError(f"{render_word(full)!r} parses ambiguously")
    return Reshaped(ctx_tree, out.tree)


def hole_language(g: Grammar, ctx: InjectionContext, out_len: int) -> frozenset[Word]:
    """Every word of length at most out_len the hole accepts syntactically."""
    _require_context(g, ctx)
    require_bound(out_len, "out_len")
    sigma = g.symbol_table().terminals
    found: set[Word] = set()
    for n in range(out_len + 1):
        for w in product(sigma, repeat=n):
            if recognize(g, ctx.goal, ctx.prefix + w + ctx.suffix):
                found.add(w)
    return frozenset(found)


def infer_typings(
    g: Grammar,
    w: Word,
    atoms: Sequence[Symbol],
    depth: int,
) -> list[tuple[LambekType, ProofTree]]:
    """All types in the universe over atoms at the given depth that w proves."""
    pr = Prover(g)
    ante = tuple(Atom(s) for s in w)
    out: list[tuple[LambekType, ProofTree]] = []
    for tau in type_universe(g, atoms, depth):
        r = pr.prove(Sequent(ante, tau))
        if r.proved:
            out.append((tau, r.proof))
    return out


class InjectionReport(Value):
    __slots__ = ("classification", "context", "input", "benign_proof", "captures", "reshaping")

    def __init__(
        self, classification: Classification, context: InjectionContext, input: Word,
        benign_proof: ProofTree | None, captures: tuple[CaptureTyping, ...], reshaping: ReshapingResult,
    ) -> None:
        set_field(self, "classification", classification)
        set_field(self, "context", context)
        set_field(self, "input", input)
        set_field(self, "benign_proof", benign_proof)
        set_field(self, "captures", captures)
        set_field(self, "reshaping", reshaping)

    @property
    def combined_parses(self) -> bool:
        """Does the spliced string parse as the goal?"""
        return not isinstance(self.reshaping, Unparseable)

    def to_json(self, g: Grammar) -> dict:
        if isinstance(self.reshaping, ConservativeExtension):
            reshaping = {
                "verdict": "ConservativeExtension",
                "combined_tree": tree_to_json(self.reshaping.tree, g),
            }
        elif isinstance(self.reshaping, Reshaped):
            reshaping = {
                "verdict": "Reshaped",
                "context_tree": tree_to_json(self.reshaping.context_tree, g),
                "combined_tree": tree_to_json(self.reshaping.combined_tree, g),
            }
        else:
            reshaping = {"verdict": "Unparseable"}
        out = {
            "classification": self.classification.value,
            "input": [s.name for s in self.input],
            "context": {
                "prefix": render_word(self.context.prefix),
                "suffix": render_word(self.context.suffix),
                "goal": self.context.goal.name,
                "expected": self.context.expected.name,
            },
            "captures": [
                {
                    "direction": c.direction.value,
                    "type": render_type(c.type),
                    "proof": proof_to_json(c.proof),
                }
                for c in self.captures
            ],
            "combined_parses": self.combined_parses,
            "reshaping": reshaping,
        }
        if self.benign_proof is not None:
            out["benign_proof"] = proof_to_json(self.benign_proof)
        return out


def _first_splits(
    nts: tuple[Symbol, ...], cuts: list[int], chart: Chart, reverse: bool
) -> dict[tuple[Symbol, Symbol], int]:
    """Each (ψ, π) where π derives w[:c] ψ, or with reverse ψ w[c:], at a
    split c of cuts, with its first such split; chart is from every
    nonterminal over w, or with reverse over w reversed."""
    n = len(chart.word)
    first: dict[tuple[Symbol, Symbol], int] = {}
    for c in cuts:
        for psi in nts:
            for pi in chart.goals(n - c if reverse else c, psi):
                first.setdefault((psi, pi), c)
    return first


def capture_typings(g: Grammar, ctx: InjectionContext, w: Word) -> tuple[CaptureTyping, ...]:
    """Doubly-negated typings of w that swallow template material.

    Left captures need material on the left, so they are only searched when
    the prefix is nonempty; right captures likewise require a suffix.  ψ and
    π range over the grammar's nonterminals.  Write V for the hole's symbol.

    The candidates are read off the grammar, exactly.  A left capture
    w ⊢ (ψ/V)\\π  splits w where V derives w[:k] and π derives the
    continuation ψ w[k:].  A right capture  w ⊢ π/(V\\ψ)  splits w where V
    derives w[j:] and π derives w[:j] ψ.  Two charts from every nonterminal
    answer both, one over w and one over w reversed that reads g's rules
    reversed, each from the grammar's closed column 0 of its start set: the
    k are the first's ends(V) and the j the second's, and each left split's
    π comes off the second continued at the split by each ψ (Chart.goals),
    each right split's off the first.  Those charts decide both premises,
    so at the smallest such k or j each is the grammar's fold chain
    (flat_proof, decided once per sequent), the hole's share only at a
    split that a capture uses, and capture composes the two.  Captures come in the grammar's name order of ψ, then of π,
    the order of its symbol table, Left before Right.
    """
    _require_context(g, ctx)
    require_word(g, w)
    nts = g.symbol_table().nonterminals
    hole = ctx.expected
    n = len(w)

    forward, backward = Chart(g, nts, False, w), Chart(g, nts, True, w[::-1])
    ks = forward.ends(hole) if ctx.prefix else []
    js = [n - k for k in reversed(backward.ends(hole))] if ctx.suffix else []
    left = _first_splits(nts, ks, backward, True)
    right = _first_splits(nts, js, forward, False)

    found: list[CaptureTyping] = []
    for psi, pi in sorted(left.keys() | right.keys(), key=lambda pair: (pair[0].name, pair[1].name)):
        for side, first in ((Side.LEFT, left), (Side.RIGHT, right)):
            c = first.get((psi, pi))
            if c is None:
                continue
            share, rest = (w[:c], (psi,) + w[c:]) if side is Side.LEFT else (w[c:], w[:c] + (psi,))
            share_proof = flat_proof(g, Sequent(tuple(map(Atom, share)), Atom(hole)))
            proof = capture(share_proof, flat_proof(g, Sequent(tuple(map(Atom, rest)), Atom(pi))), side)
            found.append(CaptureTyping(side, proof.conclusion.succedent, proof))
    return tuple(found)


def classify_input(
    g: Grammar,
    ctx: InjectionContext,
    w: Word,
) -> InjectionReport:
    """Classify w in the template's hole: Benign, then Capturing, IllFormed, Unknown.

    The spliced string is parsed first (reshaping_check).  w is Benign
    exactly when that parse is a ConservativeExtension, and its proof is the
    fold chain of the node that fills the hole.  Only a w that is not Benign
    has the template parsed and its captures searched; it is Capturing when
    some capture types it, else IllFormed when the spliced string does not
    parse, else Unknown.
    """
    reshaping = reshaping_check(g, ctx, w)
    benign_proof = None
    captures: tuple[CaptureTyping, ...] = ()
    if isinstance(reshaping, ConservativeExtension):
        node = _filler(reshaping.tree, ctx, len(w))
        benign_proof = fold_chain(g, Sequent(tuple(map(Atom, w)), Atom(ctx.expected)), node)
        cls = Classification.BENIGN
    else:
        captures = capture_typings(g, ctx, w)
        if captures:
            cls = Classification.CAPTURING
        elif isinstance(reshaping, Unparseable):
            cls = Classification.ILL_FORMED
        else:
            cls = Classification.UNKNOWN

    return InjectionReport(
        classification=cls,
        context=ctx,
        input=w,
        benign_proof=benign_proof,
        captures=captures,
        reshaping=reshaping,
    )
