"""Context-free grammars: loading, validation, nullability, bounded enumeration.

Grammar files are token-oriented UTF-8 text:

    start E
    E ::= C F ;
    F ::= OR C F | ;      # '|' separates alternatives, an empty one means epsilon
    V ::= 1 | a | "b" ;   # terminals may be quoted, quotes are stripped

The ``start`` directive must be the first non-comment line and appear exactly
once.  Symbols are whitespace-delimited tokens; a token is a nonterminal iff
it occurs on some left-hand side, every other token is a terminal.  ``#``
starts a comment that runs to the end of the line.

Bounded enumeration reads one word table per grammar, which keeps each
symbol's words by exact length and grows one length at a time: a word of
length n is built from the finished shorter lengths, so a larger bound
extends the table instead of rebuilding it (semi-naive evaluation; Bancilhon
& Ramakrishnan 1986).  The table also counts each word's derivations from
each symbol, saturated at 2, in the counting semiring (Goodman 1999,
"Semiring parsing"), so the words a symbol derives in more than one way
come off it with no parse.

Value is the immutable base of the package's value classes: symbols,
productions, grammars, types, sequents, trees, proofs and results.
"""
from __future__ import annotations

import enum
import os
from importlib import resources
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


class GrammarError(ValueError):
    """Malformed grammar text or a fatal validation problem."""


class SymbolKind(enum.Enum):
    TERMINAL = "terminal"
    NONTERMINAL = "nonterminal"


# how a Value's own __init__ sets its fields, past Value.__setattr__
set_field = object.__setattr__


class Value:
    """An immutable value: its fields are its __slots__, which its own __init__
    sets through set_field.  It equals a value of its class with equal fields,
    hashes the tuple of its fields, read by _key, and reprs as Class(field=value,
    ...); slots named with a leading underscore are caches, outside all three.
    A keyed class, one with slots _k and _h, builds one tuple instead: set_key
    caches it as _k, the tuple that its equality compares and its hash hashes,
    and its hash as _h."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        if "_k" in cls.__slots__:
            cls.__eq__, cls.__hash__ = _own_code(_eq_cached), _own_code(_hash_cached)
        if len(fields) == 1:
            # a tuple still, so that identical fields short-circuit
            get = attrgetter(*fields)
            key = lambda v: (get(v),)
        else:
            key = attrgetter(*fields) if fields else lambda v: ()
        cls._key = staticmethod(key)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__ from the fields, recomputing the caches
        return type(self), self._key(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def set_key(v: Value, key: tuple) -> None:
    """Cache a keyed value's key, the one tuple it compares and hashes, and its hash."""
    set_field(v, "_k", key)
    set_field(v, "_h", hash(key))


def _own_code(f: Callable) -> Callable:
    """f on a copy of its code.  CPython caches an attribute load's slot per
    code object and class, so a method shared by seven classes would miss."""
    return type(f)(f.__code__.replace(), f.__globals__)


def _eq_cached(self: Value, other: object) -> bool:
    if other.__class__ is not self.__class__:
        return NotImplemented
    try:
        return self._k == other._k
    except RecursionError:  # keys some hundreds deep, as a type's may be: compare them off a stack, hashes first
        pairs = [(self, other)]
    while pairs:
        a, b = pairs.pop()
        if a._h != b._h:
            return False
        for x, y in zip(a._k, b._k):
            if x is not y and x.__class__ is y.__class__ and hasattr(x, "_k"):
                pairs.append((x, y))
            elif x != y:
                return False
    return True


def _hash_cached(self: Value) -> int:
    return self._h


class Symbol(Value):
    __slots__ = ("kind", "name", "_k", "_h")

    def __init__(self, kind: SymbolKind, name: str) -> None:
        set_field(self, "kind", kind)
        set_field(self, "name", name)
        # symbols end up hashed millions of times during proof search
        set_key(self, (kind.value, name))

    @property
    def is_terminal(self) -> bool:
        return self.kind is SymbolKind.TERMINAL

    def __repr__(self) -> str:
        tag = "t" if self.is_terminal else "n"
        return f"{tag}:{self.name}"


def terminal(name: str) -> Symbol:
    return Symbol(SymbolKind.TERMINAL, name)


def nonterminal(name: str) -> Symbol:
    return Symbol(SymbolKind.NONTERMINAL, name)


# A word is a sequence of terminal symbols; () is the empty word.
Word = tuple[Symbol, ...]
EMPTY_WORD: Word = ()


class Production(Value):
    __slots__ = ("lhs", "rhs", "_k", "_h")

    def __init__(self, lhs: Symbol, rhs: tuple[Symbol, ...]) -> None:
        if lhs.is_terminal:
            raise GrammarError(f"production left-hand side {lhs.name!r} must be a nonterminal")
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        # parse trees look their productions up during folds
        set_key(self, (lhs, rhs))


class Grammar(Value):
    # _memo holds the derived tables that memo() fills, freed with the grammar
    __slots__ = ("terminals", "nonterminals", "productions", "start", "_memo", "__weakref__")

    def __init__(
        self, terminals: frozenset[Symbol], nonterminals: frozenset[Symbol], productions: tuple[Production, ...],
        start: Symbol,
    ) -> None:
        set_field(self, "terminals", terminals)
        set_field(self, "nonterminals", nonterminals)
        set_field(self, "productions", productions)
        set_field(self, "start", start)
        set_field(self, "_memo", {})
        clash = {s.name for s in terminals} & {s.name for s in nonterminals}
        if clash:
            raise GrammarError(f"terminal and nonterminal name spaces overlap: {sorted(clash)}")
        if start not in nonterminals:
            raise GrammarError(f"start symbol {start.name!r} is not a declared nonterminal")
        declared = terminals | nonterminals
        for p in productions:
            for s in (p.lhs, *p.rhs):
                if s not in declared:
                    raise GrammarError(f"undeclared symbol {s.name!r} in production")
        seen = set()
        for p in productions:
            if p in seen:
                raise GrammarError(
                    f"duplicate production {p.lhs.name} ::= {' '.join(s.name for s in p.rhs)}"
                )
            seen.add(p)

    def symbol(self, name: str) -> Symbol:
        """Look up a declared symbol by name."""
        sym = self.symbol_table().by_name.get(name)
        if sym is None:
            raise GrammarError(f"unknown symbol {name!r}")
        return sym

    def declares(self, name: str) -> bool:
        return name in self.symbol_table().by_name

    def symbol_table(self) -> SymbolTable:
        """The grammar's one symbol table, built at its first use."""
        return memo(self, SymbolTable)


def memo(g: Grammar, fn: Callable[..., T], *args: Any) -> T:
    """fn(g, *args), computed once per grammar and kept until g is freed.

    fn must be a pure function of the grammar and its hashable arguments.
    """
    key = (fn, *args)
    try:
        return g._memo[key]
    except KeyError:
        out = g._memo[key] = fn(g, *args)
        return out


class SymbolTable:
    """A grammar's symbols in its one order: its nonterminals, then its
    terminals, each in name order.  ids holds them in that order, each with
    its index (readers give an undeclared symbol len(ids), which no
    production uses), and by_name each by its name.  The chart's ids, the
    capture search's ψ and π, and the words that the oracle and the hole
    search try all come in this order.  Reach it through Grammar.symbol_table."""

    __slots__ = ("nonterminals", "terminals", "ids", "by_name")

    def __init__(self, g: Grammar) -> None:
        self.nonterminals = tuple(sorted(g.nonterminals, key=attrgetter("name")))
        self.terminals = tuple(sorted(g.terminals, key=attrgetter("name")))
        self.ids = {s: k for k, s in enumerate(self.nonterminals + self.terminals)}
        self.by_name = {s.name: s for s in self.ids}


def lhs_index(g: Grammar) -> dict[Symbol, tuple[int, ...]]:
    """Production ids by left-hand side, in grammar order; reach it through memo."""
    table: dict[Symbol, list[int]] = {n: [] for n in g.nonterminals}
    for i, p in enumerate(g.productions):
        table[p.lhs].append(i)
    return {n: tuple(ids) for n, ids in table.items()}


def production_ids(g: Grammar) -> dict[Production, int]:
    """Each production's index in g.productions; reach it through memo."""
    return {p: i for i, p in enumerate(g.productions)}


def render_word(w: Word) -> str:
    return " ".join(s.name for s in w) if w else "ε"


def word_from_text(g: Grammar, text: str) -> Word:
    """Whitespace-tokenize ``text`` into a word over g's terminals."""
    out = []
    for tok in text.split():
        sym = g.symbol(tok)
        if not sym.is_terminal:
            raise GrammarError(f"token {tok!r} is a nonterminal, not a word token")
        out.append(sym)
    return tuple(out)


def require_word(g: Grammar, w: Word) -> None:
    """Raise ValueError unless w is a word: every symbol a terminal of g."""
    for sym in w:
        if sym not in g.terminals:
            raise ValueError(f"{sym.name!r} is not a terminal of the grammar")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _unquote(token: str, lineno: int) -> tuple[str, bool]:
    """Return (name, was_quoted).  Quoting forces terminal classification."""
    if token.startswith('"') or token.endswith('"'):
        if len(token) < 3 or not (token.startswith('"') and token.endswith('"')):
            raise GrammarError(f"line {lineno}: malformed quoted token {token!r}")
        return token[1:-1], True
    return token, False


def parse_grammar_file(text: str) -> Grammar:
    """Parse grammar text into an (unvalidated) Grammar."""
    start_name: str | None = None
    # raw rules: (lineno, lhs_name, [alternative token lists], quoted name set)
    rules: list[tuple[int, str, list[list[str]]]] = []
    quoted_names: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if start_name is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "start":
                raise GrammarError(f"line {lineno}: expected 'start <Name>' as the first directive")
            start_name = parts[1]
            continue
        if line.split()[0] == "start":
            raise GrammarError(f"line {lineno}: duplicate start directive")
        if "::=" not in line:
            raise GrammarError(f"line {lineno}: expected a rule of the form '<Name> ::= ... ;'")
        lhs_part, rhs_part = line.split("::=", 1)
        if "::=" in rhs_part:
            raise GrammarError(f"line {lineno}: more than one '::=' in rule")
        lhs_tokens = lhs_part.split()
        if len(lhs_tokens) != 1:
            raise GrammarError(f"line {lineno}: rule left-hand side must be a single token")
        lhs_name, lhs_quoted = _unquote(lhs_tokens[0], lineno)
        if lhs_quoted:
            raise GrammarError(f"line {lineno}: left-hand side {lhs_name!r} cannot be quoted")
        rhs_part = rhs_part.strip()
        if not rhs_part.endswith(";"):
            raise GrammarError(f"line {lineno}: rule must end with ';'")
        body = rhs_part[:-1]
        alts: list[list[str]] = []
        for alt in body.split("|"):
            names = []
            for tok in alt.split():
                name, was_quoted = _unquote(tok, lineno)
                if was_quoted:
                    quoted_names.add(name)
                names.append(name)
            alts.append(names)
        rules.append((lineno, lhs_name, alts))

    if start_name is None:
        raise GrammarError("empty grammar: missing start directive")

    lhs_names = {name for _, name, _ in rules}
    conflict = quoted_names & lhs_names
    if conflict:
        raise GrammarError(f"quoted terminal also used as a nonterminal: {sorted(conflict)}")

    all_names: set[str] = set(lhs_names)
    for _, _, alts in rules:
        for alt in alts:
            all_names.update(alt)

    if start_name not in lhs_names:
        raise GrammarError(f"start symbol {start_name!r} has no productions")

    # one Symbol per name, so that tables keyed by symbols match by identity
    syms = {n: nonterminal(n) if n in lhs_names else terminal(n) for n in all_names}
    productions: list[Production] = []
    seen: set[Production] = set()
    for lineno, lhs_name, alts in rules:
        lhs = syms[lhs_name]
        for alt in alts:
            p = Production(lhs, tuple(syms[n] for n in alt))
            if p in seen:
                raise GrammarError(
                    f"line {lineno}: duplicate production {lhs_name} ::= {' '.join(alt) or 'ε'}"
                )
            seen.add(p)
            productions.append(p)

    return Grammar(
        terminals=frozenset(syms[n] for n in all_names - lhs_names),
        nonterminals=frozenset(syms[n] for n in lhs_names),
        productions=tuple(productions),
        start=syms[start_name],
    )


def _witness_ids(g: Grammar, known: Iterable[Symbol]) -> dict[Symbol, int]:
    """Nonterminals that derive a string over ``known``, each with a witness.

    The witness is the id of a production whose right-hand side consists of
    ``known`` symbols and nonterminals added strictly earlier in the
    fixpoint, so recursing through witnesses is well-founded.
    """
    derived = set(known)
    witness: dict[Symbol, int] = {}
    changed = True
    while changed:
        changed = False
        for pid, p in enumerate(g.productions):
            if p.lhs not in derived and all(s in derived for s in p.rhs):
                derived.add(p.lhs)
                witness[p.lhs] = pid
                changed = True
    return witness


def validate(g: Grammar) -> tuple[Grammar, list[str]]:
    """Drop useless nonterminals and their productions.

    A nonterminal is useless when it derives no terminal word or is not
    reachable from the start symbol through productive context.  The language
    of the start symbol is unchanged; declared terminals are kept even when
    they no longer occur, so tokens introduced only to be typed by extra
    axioms stay available.  Raises GrammarError when the start symbol itself
    is useless.
    """
    diagnostics: list[str] = []
    productive = g.terminals | frozenset(_witness_ids(g, g.terminals))
    if g.start not in productive:
        raise GrammarError(f"start symbol {g.start.name!r} derives no terminal word")

    kept = [p for p in g.productions if all(s in productive for s in p.rhs)]
    reachable: set[Symbol] = {g.start}
    changed = True
    while changed:
        changed = False
        for p in kept:
            if p.lhs in reachable:
                for s in p.rhs:
                    if not s.is_terminal and s not in reachable:
                        reachable.add(s)
                        changed = True

    useful = {n for n in g.nonterminals if n in productive and n in reachable}
    for n in sorted(g.nonterminals - useful, key=lambda s: s.name):
        why = "unproductive" if n not in productive else "unreachable"
        diagnostics.append(f"removed useless nonterminal {n.name} ({why})")
    final = []
    for p in g.productions:
        if p.lhs in useful and all(s.is_terminal or s in useful for s in p.rhs):
            final.append(p)
        else:
            rhs = " ".join(s.name for s in p.rhs) or "ε"
            diagnostics.append(f"removed production {p.lhs.name} ::= {rhs}")

    if not diagnostics:
        return g, []
    return (
        Grammar(g.terminals, frozenset(useful), tuple(final), g.start),
        diagnostics,
    )


def load_grammar(spec: str) -> tuple[Grammar, list[str]]:
    """Read, parse and validate a grammar file, or a bundled grammar by stem.

    Returns the validated grammar with validate's notes on what it dropped.
    A file may start with a UTF-8 byte-order mark.
    """
    if os.path.exists(spec):
        with open(spec, encoding="utf-8-sig") as fh:
            text = fh.read()
    else:
        name = spec if spec.endswith(".g") else spec + ".g"
        res = resources.files("lambek") / "grammars" / name
        if not res.is_file():
            raise GrammarError(f"no grammar file or bundled grammar named {spec!r}")
        text = res.read_text(encoding="utf-8")
    return validate(parse_grammar_file(text))


def nullable_ids(g: Grammar) -> dict[Symbol, int]:
    """Witness production ids of the nullable nonterminals; reach it through memo."""
    return _witness_ids(g, ())


# one length of the word table: each symbol's words of that length, and
# those of them that it derives in more than one way; a symbol with no such
# word is left out of each
_Layer = tuple[dict[Symbol, frozenset[Word]], dict[Symbol, frozenset[Word]]]


def _empty_counts(g: Grammar) -> dict[Symbol, int]:
    """Each nullable nonterminal's number of ε-derivations, saturated at 2;
    reach it through memo.

    The least fixpoint, iterated from zero: a nullable cycle keeps adding
    derivations until its symbols saturate.
    """
    counts: dict[Symbol, int] = {}
    while True:
        nxt: dict[Symbol, int] = {}
        for p in g.productions:
            c = 1
            for s in p.rhs:
                c *= counts.get(s, 0)
            if c:
                nxt[p.lhs] = min(2, nxt.get(p.lhs, 0) + c)
        if nxt == counts:
            return counts
        counts = nxt


def _unit_steps(g: Grammar) -> dict[Symbol, tuple[tuple[Symbol, int], ...]]:
    """The same-length steps: x -> (A, m) per production A ::= α x β whose α
    and β derive ε, so every word of x is a word of A, each derivation of x
    giving m of A, where m counts the ε-derivations of α β, saturated at 2;
    reach it through memo."""
    empty = memo(g, _empty_counts)
    steps: dict[Symbol, list[tuple[Symbol, int]]] = {}
    for p in g.productions:
        for i, x in enumerate(p.rhs):
            m = 1
            for j, s in enumerate(p.rhs):
                if j != i:
                    m *= empty.get(s, 0)
            if m:
                steps.setdefault(x, []).append((p.lhs, min(m, 2)))
    return {x: tuple(targets) for x, targets in steps.items()}


def _word_layers(g: Grammar) -> list[_Layer]:
    """Each symbol's words of length n at index n, and those it derives in
    more than one way, for every n the table has grown to; grown by
    _grow_words, reach it through memo."""
    return []


def _grow_words(g: Grammar, max_len: int) -> list[_Layer]:
    """The word table, grown one length at a time until it reaches max_len."""
    layers = memo(g, _word_layers)
    if not layers:
        empty = memo(g, _empty_counts)
        layers.append((
            {x: frozenset({EMPTY_WORD}) for x in empty},
            {x: frozenset({EMPTY_WORD}) for x, c in empty.items() if c > 1},
        ))
    while len(layers) <= max_len:
        layers.append(_next_layer(g, layers))
    return layers


# derivations of a set of words, counted up to two: the words derived at
# least once, and those of them derived at least twice
_Counts = tuple[set[Word], set[Word]]


def _add(table: dict[Any, _Counts], key: Any, new: set[Word], twice: set[Word]) -> None:
    """Add to table[key] one derivation of each word of new, and a second of
    each word of twice, a subset of new; the sets are adopted, not copied,
    when the key is new."""
    have = table.get(key)
    if have is None:
        table[key] = (new, twice)
    else:
        have[1].update(twice, have[0] & new)
        have[0].update(new)


def _next_layer(g: Grammar, layers: list[_Layer]) -> _Layer:
    """The words of length n = len(layers), off the shorter ones.

    A production's derivation of a word of length n either concatenates
    strictly shorter words of its right-hand side, or takes one symbol's
    word of length n with the rest deriving ε.  The first kind reads
    finished layers only; the second is a unit step, closed here by passing
    on only what each (symbol, word) gains: its entry, or its second
    derivation.  That is the least fixpoint of the counts, so a unit cycle
    through a derivable (symbol, word) gives it two derivations.
    """
    n = len(layers)
    counts: dict[Symbol, _Counts] = {t: ({(t,)}, set()) for t in g.terminals} if n == 1 else {}
    for p in g.productions:
        if len(p.rhs) > 1:
            found, twice = _concatenations(layers, p.rhs, n)
            if found:
                _add(counts, p.lhs, found, twice)
    steps = memo(g, _unit_steps)
    # per symbol, the words whose count rose, and those whose count rose by two
    fresh = {x: (set(ws), set(ws2)) for x, (ws, ws2) in counts.items()}
    while fresh:
        x, (new, by_two) = fresh.popitem()
        for a, m in steps.get(x, ()):
            have, have2 = counts.setdefault(a, (set(), set()))
            live = new - have2 if have2 else new
            entered = live - have
            raised = live & have
            entered2 = set(entered) if m > 1 else entered & by_two
            if entered or raised:
                have |= entered
                have2 |= raised
                have2 |= entered2
                _add(fresh, a, entered | raised if raised else entered, entered2)
    return (
        {x: frozenset(ws) for x, (ws, _) in counts.items() if ws},
        {x: frozenset(ws2) for x, (_, ws2) in counts.items() if ws2},
    )


def _concatenations(layers: list[_Layer], rhs: tuple[Symbol, ...], n: int) -> _Counts:
    """The words of length n that split over rhs into parts all shorter than
    n, and those of them with more than one such derivation: over two
    splits, or off a part derived twice."""
    # fits[i]: the lengths that rhs[i:] splits into with each part shorter than n
    fits = [{0}]
    for x in reversed(rhs):
        sizes = [k for k in range(n) if x in layers[k][0]]
        fits.append({k + r for k in sizes for r in fits[-1] if k + r <= n})
    fits.reverse()
    if n not in fits[0]:
        return set(), set()
    prefixes: dict[int, _Counts] = {0: ({EMPTY_WORD}, set())}
    for i, x in enumerate(rhs):
        rest = fits[i + 1]
        grown: dict[int, _Counts] = {}
        for done, (pres, pres2) in prefixes.items():
            for k in range(min(n - done, n - 1) + 1):
                words, twice = layers[k]
                ws = words.get(x)
                if ws and n - done - k in rest:
                    ws2 = twice.get(x)
                    both = set()
                    if pres2 or ws2:
                        # a prefix or a part derived twice derives their concatenation twice
                        both = {pre + w for pre in pres2 for w in ws} | {pre + w for pre in pres for w in ws2 or ()}
                    _add(grown, done + k, {pre + w for pre in pres for w in ws}, both)
        prefixes = grown
    return prefixes.get(n, (set(), set()))


def require_bound(n: int, name: str) -> None:
    """Raise ValueError, naming the parameter, unless the bound n is a nonnegative integer."""
    if not isinstance(n, int):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")


def _table_to(g: Grammar, x: Symbol, max_len: int) -> list[_Layer]:
    """The word table's layers 0 … max_len, grown as needed, once x and the
    bound are checked."""
    require_bound(max_len, "max_len")
    if x not in g.symbol_table().ids:
        raise GrammarError(f"symbol {x.name!r} is not declared in the grammar")
    return _grow_words(g, max_len)[: max_len + 1]


def enumerate_words(g: Grammar, x: Symbol, max_len: int) -> frozenset[Word]:
    """All terminal words of length <= max_len derivable from symbol x."""
    return frozenset().union(*(words.get(x, ()) for words, _ in _table_to(g, x, max_len)))


def ambiguous_words(g: Grammar, x: Symbol, max_len: int) -> frozenset[Word]:
    """The words of length <= max_len that x derives in more than one way,
    read off the word table's derivation counts."""
    return frozenset().union(*(twice.get(x, ()) for _, twice in _table_to(g, x, max_len)))


def enumerated_member(g: Grammar, x: Symbol, w: Word) -> bool | None:
    """Is w in L(x)?  Read off the word table when it has grown to len(w).

    None when the table is shorter than w or g does not declare x; this
    never grows the table.
    """
    layers = memo(g, _word_layers)
    if len(w) >= len(layers):
        return None
    words = layers[len(w)][0].get(x)
    if words is None:
        return False if x in g.symbol_table().ids else None
    return w in words


def length_lex_key(w: Word) -> tuple[int, tuple[str, ...]]:
    return (len(w), tuple(s.name for s in w))


def iter_words_sorted(ws: Iterable[Word]) -> Iterator[Word]:
    return iter(sorted(ws, key=length_lex_key))
