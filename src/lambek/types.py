"""The Lambek type language over a grammar's symbols.

Concrete syntax:

    atom        a declared grammar symbol, e.g.  T  or  OR
    "tok"       quoted atom (forces the symbol lookup; lets a terminal
                spelled 1 be told apart from the unit literal)
    1           the unit type (type of the empty word)
    x \\ y       left implication: needs an x on its left, yields a y
    y / x       right implication: needs an x on its right, yields a y
    x * y       product (concatenation); binds tightest, left-associative
    ( ... )     grouping; \\ and / are non-associative and nesting them
                requires parentheses

Sequents are written  t1 , t2 , ... |- t  with a possibly empty antecedent.
In a sequent, a bare antecedent item naming a declared terminal is read as
the atom of that terminal, so words can be spelled out token by token.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .grammar import Grammar, GrammarError, Symbol


class TypeSyntaxError(ValueError):
    """Bad type or sequent text; carries a human-readable position."""


# Types and sequents are dict keys throughout proof search; recomputing a
# deep structural hash per probe dominates profiles, so every node caches
# its hash at construction time.


@dataclass(frozen=True)
class Atom:
    symbol: Symbol

    def __post_init__(self) -> None:
        object.__setattr__(self, "_h", hash(("at", self.symbol)))

    def __hash__(self) -> int:
        return self._h


@dataclass(frozen=True)
class UnitType:
    def __repr__(self) -> str:
        return "Unit"

    def __hash__(self) -> int:
        return 0x1E9


UNIT = UnitType()


@dataclass(frozen=True)
class Under:
    """arg \\ result: consumes arg on the left."""

    arg: "LambekType"
    result: "LambekType"

    def __post_init__(self) -> None:
        object.__setattr__(self, "_h", hash(("un", self.arg, self.result)))

    def __hash__(self) -> int:
        return self._h


@dataclass(frozen=True)
class Over:
    """result / arg: consumes arg on the right."""

    result: "LambekType"
    arg: "LambekType"

    def __post_init__(self) -> None:
        object.__setattr__(self, "_h", hash(("ov", self.result, self.arg)))

    def __hash__(self) -> int:
        return self._h


@dataclass(frozen=True)
class Prod:
    left: "LambekType"
    right: "LambekType"

    def __post_init__(self) -> None:
        object.__setattr__(self, "_h", hash(("pr", self.left, self.right)))

    def __hash__(self) -> int:
        return self._h


LambekType = Atom | UnitType | Under | Over | Prod

TypeContext = tuple[LambekType, ...]


@dataclass(frozen=True)
class Sequent:
    antecedent: TypeContext
    succedent: LambekType

    def __post_init__(self) -> None:
        object.__setattr__(self, "_h", hash((self.antecedent, self.succedent)))

    def __hash__(self) -> int:
        return self._h


_PLAIN_NAME = re.compile(r'^[^\s\\/*(),|"]+$')


def _render_atom(name: str) -> str:
    if name == "1" or not _PLAIN_NAME.match(name):
        return f'"{name}"'
    return name


def render_type(t: LambekType) -> str:
    """Canonical rendering; parse_type inverts it."""

    def rec(x: LambekType, min_level: int) -> str:
        if isinstance(x, Atom):
            return _render_atom(x.symbol.name)
        if isinstance(x, UnitType):
            return "1"
        if isinstance(x, Under):
            body = f"{rec(x.arg, 1)}\\{rec(x.result, 1)}"
            lvl = 0
        elif isinstance(x, Over):
            body = f"{rec(x.result, 1)}/{rec(x.arg, 1)}"
            lvl = 0
        else:
            body = f"{rec(x.left, 1)}*{rec(x.right, 2)}"
            lvl = 1
        return f"({body})" if lvl < min_level else body

    return rec(t, 0)


def render_context(ctx: Sequence[LambekType]) -> str:
    return " , ".join(render_type(t) for t in ctx)


def render_sequent(s: Sequent) -> str:
    left = render_context(s.antecedent)
    return f"{left} |- {render_type(s.succedent)}" if left else f"|- {render_type(s.succedent)}"


def type_size(t: LambekType) -> int:
    if isinstance(t, (Atom, UnitType)):
        return 1
    if isinstance(t, Under):
        return 1 + type_size(t.arg) + type_size(t.result)
    if isinstance(t, Over):
        return 1 + type_size(t.result) + type_size(t.arg)
    return 1 + type_size(t.left) + type_size(t.right)


def mirror_type(t: LambekType) -> LambekType:
    """Swap Under with Over and reverse products; an involution."""
    if isinstance(t, Under):
        return Over(mirror_type(t.result), mirror_type(t.arg))
    if isinstance(t, Over):
        return Under(mirror_type(t.arg), mirror_type(t.result))
    if isinstance(t, Prod):
        return Prod(mirror_type(t.right), mirror_type(t.left))
    return t


_TOKEN = re.compile(r'"[^"\s]*"|[\\/*()]|[^\s\\/*(),|"]+')


def _lex(text: str) -> list[str]:
    out: list[str] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise TypeSyntaxError(f"unexpected character {text[pos]!r} at position {pos}")
        out.append(m.group())
        pos = m.end()
    return out


class _TypeParser:
    def __init__(self, tokens: list[str], g: Grammar):
        self.tokens = tokens
        self.g = g
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise TypeSyntaxError("unexpected end of type")
        self.pos += 1
        return tok

    def atom(self, name: str) -> Atom:
        try:
            return Atom(self.g.symbol(name))
        except GrammarError:
            raise TypeSyntaxError(f"unknown atom {name!r}") from None

    def factor(self) -> LambekType:
        tok = self.take()
        if tok == "(":
            inner = self.implication()
            if self.peek() != ")":
                raise TypeSyntaxError("missing ')'")
            self.take()
            return inner
        if tok in {")", "\\", "/", "*"}:
            raise TypeSyntaxError(f"unexpected {tok!r}")
        if tok.startswith('"'):
            return self.atom(tok[1:-1])
        if tok == "1":
            return UNIT
        return self.atom(tok)

    def product(self) -> LambekType:
        t = self.factor()
        while self.peek() == "*":
            self.take()
            t = Prod(t, self.factor())
        return t

    def implication(self) -> LambekType:
        t = self.product()
        op = self.peek()
        if op in {"\\", "/"}:
            self.take()
            rhs = self.product()
            t = Under(t, rhs) if op == "\\" else Over(t, rhs)
            if self.peek() in {"\\", "/"}:
                raise TypeSyntaxError("implications are non-associative; parenthesize")
        return t


def parse_type(text: str, g: Grammar) -> LambekType:
    parser = _TypeParser(_lex(text), g)
    t = parser.implication()
    if parser.peek() is not None:
        raise TypeSyntaxError(f"trailing input at token {parser.pos}: {parser.peek()!r}")
    return t


def parse_sequent(text: str, g: Grammar) -> Sequent:
    if text.count("|-") != 1:
        raise TypeSyntaxError("a sequent needs exactly one '|-'")
    left, right = text.split("|-")
    antecedent: list[LambekType] = []
    if left.strip():
        for item in left.split(","):
            item = item.strip()
            if not item:
                raise TypeSyntaxError("empty antecedent item")
            # word tokens: a bare declared terminal stands for its atom
            if _PLAIN_NAME.match(item) and g.declares(item) and g.symbol(item).is_terminal:
                antecedent.append(Atom(g.symbol(item)))
            else:
                antecedent.append(parse_type(item, g))
    succedent = parse_type(right.strip(), g)
    return Sequent(tuple(antecedent), succedent)


def type_universe(g: Grammar, atoms: Sequence[Symbol], depth: int) -> list[LambekType]:
    """All types over the given atoms with connective nesting <= depth.

    The unit type is a member but is not used as an operand.  The result is
    duplicate-free and ordered by (size, rendered text).
    """
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    for a in atoms:
        if a not in g.terminals and a not in g.nonterminals:
            raise GrammarError(f"atom {a.name!r} is not declared in the grammar")
    layer: list[LambekType] = [Atom(a) for a in sorted(atoms, key=lambda s: s.name)]
    seen: set[LambekType] = set(layer)
    for _ in range(depth):
        combos: list[LambekType] = []
        for x in layer:
            for y in layer:
                for t in (Under(x, y), Over(x, y), Prod(x, y)):
                    if t not in seen:
                        seen.add(t)
                        combos.append(t)
        layer = layer + combos
    universe: list[LambekType] = [UNIT] + layer
    universe.sort(key=lambda t: (type_size(t), render_type(t)))
    return universe


def iter_atoms(t: LambekType) -> Iterator[Symbol]:
    if isinstance(t, Atom):
        yield t.symbol
    elif isinstance(t, Under):
        yield from iter_atoms(t.arg)
        yield from iter_atoms(t.result)
    elif isinstance(t, Over):
        yield from iter_atoms(t.result)
        yield from iter_atoms(t.arg)
    elif isinstance(t, Prod):
        yield from iter_atoms(t.left)
        yield from iter_atoms(t.right)
