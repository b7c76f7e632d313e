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
import threading
import weakref
from typing import Callable, Iterator, Sequence

from .grammar import Grammar, GrammarError, Symbol, Value, require_bound, set_field


class TypeSyntaxError(ValueError):
    """Bad type or sequent text; carries a human-readable position."""


# Types are hash-consed (Ershov 1958; Filliâtre & Conchon 2006): building one
# returns the live type of its class and fields in _TYPES, if any, so equal
# types are one object, compared and hashed by identity in C at any depth; an
# atom's key holds its symbol, which compares by value.  The table's weak
# references keep no type alive.  The lock keeps two threads from building one
# key twice; it is reentrant, as a type freed while it is held runs _forget.
_TYPES: dict[tuple, weakref.KeyedRef] = {}
_LOCK = threading.RLock()


def _forget(ref: weakref.KeyedRef) -> None:
    # a dead type's entry may already name its successor, built while it was being freed
    with _LOCK:
        if _TYPES.get(ref.key) is ref:
            del _TYPES[ref.key]


def _intern(key: tuple) -> LambekType:
    """The live type of key, (class, *fields), built if there is none."""
    ref = _TYPES.get(key)
    t = ref and ref()
    if t is None:
        with _LOCK:
            ref = _TYPES.get(key)  # again: another thread may have built it
            t = ref and ref()
            if t is None:
                t = object.__new__(key[0])
                for name, value in zip(key[0]._fields, key[1:]):
                    set_field(t, name, value)
                _TYPES[key] = weakref.KeyedRef(t, _forget, key)
    return t


# copy and pickle rebuild a type from its fields (see Value), so through _intern
class _Type(Value):
    __slots__ = ("__weakref__",)
    __eq__, __hash__ = object.__eq__, object.__hash__


class Atom(_Type):
    __slots__ = ("symbol",)

    def __new__(cls, symbol: Symbol) -> Atom:
        return _intern((cls, symbol))


class UnitType(_Type):
    __slots__ = ()

    def __new__(cls) -> UnitType:
        return _intern((cls,))

    def __repr__(self) -> str:
        return "Unit"


UNIT = UnitType()


class Under(_Type):
    """arg \\ result: consumes arg on the left."""

    __slots__ = ("arg", "result")

    def __new__(cls, arg: LambekType, result: LambekType) -> Under:
        return _intern((cls, arg, result))


class Over(_Type):
    """result / arg: consumes arg on the right."""

    __slots__ = ("result", "arg")

    def __new__(cls, result: LambekType, arg: LambekType) -> Over:
        return _intern((cls, result, arg))


class Prod(_Type):
    __slots__ = ("left", "right")

    def __new__(cls, left: LambekType, right: LambekType) -> Prod:
        return _intern((cls, left, right))


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
    """Canonical rendering; parse_type inverts it.  Off a stack of the texts
    and the (type, least level left bare) pairs still to write, as types nest deep."""
    out: list[str] = []
    stack: list[str | tuple[LambekType, int]] = [(t, 0)]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        x, min_level = x
        if isinstance(x, Under):
            parts, lvl = [(x.arg, 1), "\\", (x.result, 1)], 0
        elif isinstance(x, Over):
            parts, lvl = [(x.result, 1), "/", (x.arg, 1)], 0
        elif isinstance(x, Prod):
            parts, lvl = [(x.left, 1), "*", (x.right, 2)], 1
        else:
            out.append(_render_atom(x.symbol.name) if isinstance(x, Atom) else "1")
            continue
        stack += [")", *parts[::-1], "("] if lvl < min_level else parts[::-1]
    return "".join(out)


def render_context(ctx: Sequence[LambekType], render: Callable[[LambekType], str] = render_type) -> str:
    """The antecedent's text.  A unit is written (1): a bare 1 there names the
    terminal 1 where the grammar declares one."""
    return " , ".join("(1)" if isinstance(t, UnitType) else render(t) for t in ctx)


def render_sequent(s: Sequent, render: Callable[[LambekType], str] = render_type) -> str:
    """The sequent's text, each type rendered by render."""
    left = render_context(s.antecedent, render)
    return f"{left} |- {render(s.succedent)}" if left else f"|- {render(s.succedent)}"


def type_size(t: LambekType) -> int:
    """The number of t's nodes, atoms and units included."""
    n, stack = 0, [t]
    while stack:
        t = stack.pop()
        n += 1
        if isinstance(t, (Under, Over)):
            stack += (t.arg, t.result)
        elif isinstance(t, Prod):
            stack += (t.left, t.right)
    return n


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


def parse_type(text: str, g: Grammar) -> LambekType:
    """Read a type off its tokens in one loop.  An open parenthesis saves the
    frame (left, op, prod): the implication's left side and operator, once
    read, and the product read since; its closing one restores it, with the
    group read as a factor of prod."""
    tokens = _lex(text)
    frames: list[tuple] = []
    left = op = prod = None
    pos = 0
    while True:
        if pos == len(tokens):
            raise TypeSyntaxError("unexpected end of type")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            frames.append((left, op, prod))
            left = op = prod = None
            continue
        if tok in (")", "\\", "/", "*"):
            raise TypeSyntaxError(f"unexpected {tok!r}")
        name = tok[1:-1] if tok[0] == '"' else tok
        try:
            t = UNIT if tok == "1" else Atom(g.symbol(name))
        except GrammarError:
            raise TypeSyntaxError(f"unknown atom {name!r}") from None
        # t is a factor of prod: end each implication, and close each group, that ends after it
        while True:
            prod = t if prod is None else Prod(prod, t)
            nxt = tokens[pos] if pos < len(tokens) else None
            if nxt == "*":
                break
            if nxt in ("\\", "/"):
                if op is not None:
                    raise TypeSyntaxError("implications are non-associative; parenthesize")
                left, op, prod = prod, nxt, None
                break
            t = prod if op is None else Under(left, prod) if op == "\\" else Over(left, prod)
            if not frames:
                if nxt is not None:
                    raise TypeSyntaxError(f"trailing input at token {pos}: {nxt!r}")
                return t
            if nxt != ")":
                raise TypeSyntaxError("missing ')'")
            pos += 1
            left, op, prod = frames.pop()
        pos += 1


# antecedent items are cut at the commas outside quoted tokens: "a,b" names one atom
_QUOTE_OR_COMMA = re.compile(r'"[^"\s]*"|,')


def parse_sequent(text: str, g: Grammar) -> Sequent:
    """Each distinct item text is read once: words repeat their tokens, and
    a repeated type text is read once, not once per occurrence."""
    if text.count("|-") != 1:
        raise TypeSyntaxError("a sequent needs exactly one '|-'")
    left, right = text.split("|-")
    read: dict[str, LambekType] = {}
    antecedent: list[LambekType] = []
    if left.strip():
        cuts = [m.start() for m in _QUOTE_OR_COMMA.finditer(left) if m.group() == ","]
        for start, end in zip([-1, *cuts], [*cuts, len(left)]):
            item = left[start + 1:end].strip()
            if not item:
                raise TypeSyntaxError("empty antecedent item")
            if item not in read:
                # word tokens: a bare declared terminal stands for its atom
                word = _PLAIN_NAME.match(item) and g.declares(item) and g.symbol(item).is_terminal
                read[item] = Atom(g.symbol(item)) if word else parse_type(item, g)
            antecedent.append(read[item])
    # a bare 1 is the unit in the succedent, though an antecedent item 1 may name a terminal
    right = right.strip()
    succedent = read[right] if right in read and right != "1" else parse_type(right, g)
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
    """t's atoms in written order, an implication's result before or after its
    argument as they are written; off a stack, as types nest deep."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Atom):
            yield t.symbol
        elif isinstance(t, Under):
            stack += (t.result, t.arg)
        elif isinstance(t, Over):
            stack += (t.arg, t.result)
        elif isinstance(t, Prod):
            stack += (t.right, t.left)
