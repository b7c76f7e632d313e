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
the atom of that terminal, so words can be spelled out token by token, and
the unit is written (1) there.  Items are cut at the commas outside quotes.
"""
from __future__ import annotations

import re
from typing import Callable, Iterator, Sequence

from .grammar import Grammar, GrammarError, Symbol, Value, require_bound, set_field


class TypeSyntaxError(ValueError):
    """Bad type or sequent text; carries a human-readable position."""


# Types and sequents are dict keys throughout proof search, where a deep hash
# per probe would dominate: every type caches its fields' tuple and its hash at
# construction (see Value), and a sequent caches its hash at its first use.


class Atom(Value):
    __slots__ = ("symbol", "_k", "_h")

    def __init__(self, symbol: Symbol) -> None:
        set_field(self, "symbol", symbol)
        set_field(self, "_k", (symbol,))
        set_field(self, "_h", hash(("at", symbol)))


class UnitType(Value):
    __slots__ = ()

    def __repr__(self) -> str:
        return "Unit"

    def __hash__(self) -> int:
        return 0x1E9


UNIT = UnitType()


class Under(Value):
    """arg \\ result: consumes arg on the left."""

    __slots__ = ("arg", "result", "_k", "_h")

    def __init__(self, arg: LambekType, result: LambekType) -> None:
        set_field(self, "arg", arg)
        set_field(self, "result", result)
        set_field(self, "_k", (arg, result))
        set_field(self, "_h", hash(("un", arg, result)))


class Over(Value):
    """result / arg: consumes arg on the right."""

    __slots__ = ("result", "arg", "_k", "_h")

    def __init__(self, result: LambekType, arg: LambekType) -> None:
        set_field(self, "result", result)
        set_field(self, "arg", arg)
        set_field(self, "_k", (result, arg))
        set_field(self, "_h", hash(("ov", result, arg)))


class Prod(Value):
    __slots__ = ("left", "right", "_k", "_h")

    def __init__(self, left: LambekType, right: LambekType) -> None:
        set_field(self, "left", left)
        set_field(self, "right", right)
        set_field(self, "_k", (left, right))
        set_field(self, "_h", hash(("pr", left, right)))


LambekType = Atom | UnitType | Under | Over | Prod

TypeContext = tuple[LambekType, ...]


class Sequent(Value):
    __slots__ = ("antecedent", "succedent", "_h")

    def __init__(self, antecedent: TypeContext, succedent: LambekType) -> None:
        set_field(self, "antecedent", antecedent)
        set_field(self, "succedent", succedent)

    # hand-written, with no cached key: built on every search step, looked up once
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.antecedent, self.succedent) == (other.antecedent, other.succedent)
        return NotImplemented

    def __hash__(self) -> int:
        # hashed on first use: the checker replays premises that no table looks up
        try:
            return self._h
        except AttributeError:
            h = hash((self.antecedent, self.succedent))
            set_field(self, "_h", h)
            return h


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


def render_context(ctx: Sequence[LambekType], render: Callable[[LambekType], str] = render_type) -> str:
    """The antecedent's text.  A unit is written (1): a bare 1 there names the
    terminal 1 where the grammar declares one."""
    return " , ".join("(1)" if isinstance(t, UnitType) else render(t) for t in ctx)


def render_sequent(s: Sequent, render: Callable[[LambekType], str] = render_type) -> str:
    """The sequent's text, each type rendered by render."""
    left = render_context(s.antecedent, render)
    return f"{left} |- {render(s.succedent)}" if left else f"|- {render(s.succedent)}"


def type_size(t: LambekType) -> int:
    if isinstance(t, (Atom, UnitType)):
        return 1
    if isinstance(t, Under):
        return 1 + type_size(t.arg) + type_size(t.result)
    if isinstance(t, Over):
        return 1 + type_size(t.result) + type_size(t.arg)
    return 1 + type_size(t.left) + type_size(t.right)


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


# antecedent items are cut at the commas outside quoted tokens: "a,b" names one atom
_QUOTE_OR_COMMA = re.compile(r'"[^"\s]*"|,')


def parse_sequent(text: str, g: Grammar) -> Sequent:
    if text.count("|-") != 1:
        raise TypeSyntaxError("a sequent needs exactly one '|-'")
    left, right = text.split("|-")
    antecedent: list[LambekType] = []
    if left.strip():
        cuts = [m.start() for m in _QUOTE_OR_COMMA.finditer(left) if m.group() == ","]
        for start, end in zip([-1, *cuts], [*cuts, len(left)]):
            item = left[start + 1:end].strip()
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
    require_bound(depth, "depth")
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
