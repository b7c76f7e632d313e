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

The reshaping check is the parse-tree view of the same phenomenon: splice
the input, parse, and see whether the result still contains the template's
tree with the hole filled (a conservative extension) or the input stole
parts of the template into its own subtree (reshaped).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .earley import Ambiguous, ParseTree, Reject, parse_tree, recognize, tree_to_json
from .grammar import Grammar, Symbol, Word, memo, render_word, require_word
from .prover import (
    ProofTree,
    Prover,
    Side,
    proof_to_json,
)
from .types import Atom, LambekType, Over, Sequent, Under, render_type, type_universe


class AmbiguityError(ValueError):
    """The grammar produced two parse trees where one was required."""


@dataclass(frozen=True)
class InjectionContext:
    prefix: Word
    suffix: Word
    goal: Symbol
    expected: Symbol


class Classification(enum.Enum):
    BENIGN = "Benign"
    CAPTURING = "Capturing"
    ILL_FORMED = "IllFormed"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class CaptureTyping:
    direction: Side
    type: LambekType
    proof: ProofTree


@dataclass(frozen=True)
class ConservativeExtension:
    tree: ParseTree


@dataclass(frozen=True)
class Reshaped:
    context_tree: ParseTree
    combined_tree: ParseTree


@dataclass(frozen=True)
class Unparseable:
    pass


ReshapingResult = ConservativeExtension | Reshaped | Unparseable


def _hole_parse(g: Grammar, ctx: InjectionContext) -> ParseTree:
    if ctx.expected not in g.nonterminals:
        raise ValueError(f"hole type {ctx.expected.name!r} is not a nonterminal of the grammar")
    require_word(g, ctx.prefix + ctx.suffix)
    out = parse_tree(g, ctx.goal, ctx.prefix + (ctx.expected,) + ctx.suffix)
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


def reshaping_check(g: Grammar, ctx: InjectionContext, w: Word) -> ReshapingResult:
    ctx_tree = memo(g, _hole_parse, ctx)
    require_word(g, w)
    full = ctx.prefix + w + ctx.suffix
    out = parse_tree(g, ctx.goal, full)
    if isinstance(out, Reject):
        return Unparseable()
    if isinstance(out, Ambiguous):
        raise AmbiguityError(f"{render_word(full)!r} parses ambiguously")
    # node for node, the combined tree must be the template's; the hole leaf
    # stands for any node of its label, and the yields force that node to
    # span exactly the input
    stack = [(ctx_tree, out.tree)]
    while stack:
        t, c = stack.pop()
        hole = t.production is None and t.root == ctx.expected
        if t.label() != c.label() or (len(t.children) != len(c.children) and not hole):
            return Reshaped(ctx_tree, out.tree)
        stack.extend(zip(t.children, c.children))
    return ConservativeExtension(out.tree)


def hole_language(g: Grammar, ctx: InjectionContext, out_len: int) -> frozenset[Word]:
    """Every word of length at most out_len the hole accepts syntactically."""
    require_word(g, ctx.prefix + ctx.suffix)
    sigma = sorted(g.terminals, key=lambda s: s.name)
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


@dataclass(frozen=True)
class InjectionReport:
    classification: Classification
    context: InjectionContext
    input: Word
    benign_proof: ProofTree | None
    captures: tuple[CaptureTyping, ...]
    combined_parses: bool
    reshaping: ReshapingResult

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


def capture_typings(
    g: Grammar,
    ctx: InjectionContext,
    w: Word,
    prover: Prover | None = None,
) -> tuple[CaptureTyping, ...]:
    """Doubly-negated typings of w that swallow template material.

    Left captures need material on the left, so they are only searched when
    the prefix is nonempty; right captures likewise require a suffix.  ψ and
    π range over the grammar's nonterminals.
    """
    pr = prover if prover is not None else Prover(g)
    ante = tuple(Atom(s) for s in w)
    hole = Atom(ctx.expected)
    candidates = [Atom(s) for s in sorted(g.nonterminals, key=lambda s: s.name)]
    found: list[CaptureTyping] = []
    for psi in candidates:
        for pi in candidates:
            if ctx.prefix:
                t = Under(Over(psi, hole), pi)
                r = pr.prove(Sequent(ante, t))
                if r.proved:
                    found.append(CaptureTyping(Side.LEFT, t, r.proof))
            if ctx.suffix:
                t = Over(pi, Under(hole, psi))
                r = pr.prove(Sequent(ante, t))
                if r.proved:
                    found.append(CaptureTyping(Side.RIGHT, t, r.proof))
    return tuple(found)


def classify_input(
    g: Grammar,
    ctx: InjectionContext,
    w: Word,
) -> InjectionReport:
    if ctx.goal not in g.nonterminals:
        raise ValueError(f"goal {ctx.goal.name!r} is not a nonterminal")
    memo(g, _hole_parse, ctx)  # reject templates with no well-formed hole
    require_word(g, w)

    prover = Prover(g)
    benign = prover.prove(Sequent(tuple(Atom(s) for s in w), Atom(ctx.expected)))
    captures: tuple[CaptureTyping, ...] = ()
    if not benign.proved:
        captures = capture_typings(g, ctx, w, prover)
    reshaping = reshaping_check(g, ctx, w)
    combined_parses = not isinstance(reshaping, Unparseable)

    if benign.proved:
        cls = Classification.BENIGN
    elif captures:
        cls = Classification.CAPTURING
    elif not combined_parses:
        cls = Classification.ILL_FORMED
    else:
        cls = Classification.UNKNOWN

    return InjectionReport(
        classification=cls,
        context=ctx,
        input=w,
        benign_proof=benign.proof,
        captures=captures,
        combined_parses=combined_parses,
        reshaping=reshaping,
    )
