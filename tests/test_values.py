"""The value contract of every public value class.

Values are immutable, compare equal exactly when class and fields are equal,
hash by their fields, take their fields by position or keyword (with the
documented defaults), and repr as `Class(field=value, ...)`.  Types are
hash-consed: equal types are one object, which hashes by identity.
"""
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import lambek

from lambek import (
    UNIT,
    Ambiguous,
    Atom,
    CaptureTyping,
    CheckResult,
    Classification,
    ConservativeExtension,
    Counterexample,
    Grammar,
    InjectionContext,
    InjectionReport,
    OraclePass,
    Over,
    ParseTree,
    Prod,
    Production,
    ProofTree,
    Reject,
    Reshaped,
    RuleName,
    SearchResult,
    SearchStatus,
    SemBound,
    Sequent,
    Side,
    Symbol,
    SymbolKind,
    TypingAxiom,
    Under,
    UnitType,
    Unique,
    Unparseable,
    nonterminal,
    terminal,
)
from lambek.earley import Pass, Witness

A, E, T = terminal("a"), nonterminal("E"), nonterminal("T")
AT_E, AT_T = Atom(E), Atom(T)
RULE = Production(E, (A,))
LEAF = ParseTree(A, None, (), (A,))
TREE = ParseTree(E, RULE, (LEAF,), (A,))
NONTERMINALS = frozenset({E, T})  # repr'd as it iterates, which the string-hash seed fixes
AX = ProofTree(RuleName.AX, conclusion=Sequent((AT_E,), AT_E))
CTX = InjectionContext(prefix=(A,), suffix=(), goal=E, expected=E)

# class, fields in declaration order, the repr the fields give
CASES = [
    (Symbol, {"kind": SymbolKind.TERMINAL, "name": "a"}, "t:a"),
    (Production, {"lhs": E, "rhs": (A,)}, "Production(lhs=n:E, rhs=(t:a,))"),
    (
        Grammar,
        {"terminals": frozenset({A}), "nonterminals": NONTERMINALS, "productions": (RULE,), "start": E},
        f"Grammar(terminals=frozenset({{t:a}}), nonterminals={NONTERMINALS!r}, "
        "productions=(Production(lhs=n:E, rhs=(t:a,)),), start=n:E)",
    ),
    (Atom, {"symbol": A}, "Atom(symbol=t:a)"),
    (UnitType, {}, "Unit"),
    (Under, {"arg": AT_E, "result": AT_T}, "Under(arg=Atom(symbol=n:E), result=Atom(symbol=n:T))"),
    (Over, {"result": AT_E, "arg": AT_T}, "Over(result=Atom(symbol=n:E), arg=Atom(symbol=n:T))"),
    (Prod, {"left": AT_E, "right": UNIT}, "Prod(left=Atom(symbol=n:E), right=Unit)"),
    (Sequent, {"antecedent": (AT_T,), "succedent": AT_E}, "Sequent(antecedent=(Atom(symbol=n:T),), succedent=Atom(symbol=n:E))"),
    (
        ParseTree,
        {"root": A, "production": None, "children": (), "word": (A,)},
        "ParseTree(root=t:a, production=None, children=(), word=(t:a,))",
    ),
    (Unique, {"tree": LEAF}, f"Unique(tree={LEAF!r})"),
    (Ambiguous, {"first": LEAF, "second": TREE}, f"Ambiguous(first={LEAF!r}, second={TREE!r})"),
    (Reject, {}, "Reject()"),
    (Pass, {"max_len": 6}, "Pass(max_len=6)"),
    (Witness, {"word": (A,), "first": LEAF, "second": TREE}, f"Witness(word=(t:a,), first={LEAF!r}, second={TREE!r})"),
    (
        ProofTree,
        {"rule": RuleName.GRAM, "premises": (), "detail": (0,), "conclusion": None},
        "ProofTree(rule=<RuleName.GRAM: 'GRAM'>, premises=(), detail=(0,), conclusion=None)",
    ),
    (TypingAxiom, {"token": A, "type": AT_E}, "TypingAxiom(token=t:a, type=Atom(symbol=n:E))"),
    (
        SearchResult,
        {"status": SearchStatus.REFUTED_BY_ORACLE, "proof": None, "counterexample": (A,)},
        "SearchResult(status=<SearchStatus.REFUTED_BY_ORACLE: 'RefutedByOracle'>, proof=None, counterexample=(t:a,))",
    ),
    (CheckResult, {"ok": False, "path": (0,), "reason": "no"}, "CheckResult(ok=False, path=(0,), reason='no')"),
    (SemBound, {"max_len": 6}, "SemBound(max_len=6)"),
    (OraclePass, {"checked": 1}, "OraclePass(checked=1)"),
    (Counterexample, {"word": (A,)}, "Counterexample(word=(t:a,))"),
    (
        InjectionContext,
        {"prefix": (A,), "suffix": (), "goal": E, "expected": T},
        "InjectionContext(prefix=(t:a,), suffix=(), goal=n:E, expected=n:T)",
    ),
    (
        CaptureTyping,
        {"direction": Side.LEFT, "type": AT_E, "proof": AX},
        f"CaptureTyping(direction=<Side.LEFT: 'Left'>, type=Atom(symbol=n:E), proof={AX!r})",
    ),
    (ConservativeExtension, {"tree": LEAF}, f"ConservativeExtension(tree={LEAF!r})"),
    (Reshaped, {"context_tree": LEAF, "combined_tree": TREE}, f"Reshaped(context_tree={LEAF!r}, combined_tree={TREE!r})"),
    (Unparseable, {}, "Unparseable()"),
    (
        InjectionReport,
        {
            "classification": Classification.BENIGN,
            "context": CTX,
            "input": (A,),
            "benign_proof": AX,
            "captures": (),
            "reshaping": Unparseable(),
        },
        f"InjectionReport(classification=<Classification.BENIGN: 'Benign'>, context={CTX!r}, "
        f"input=(t:a,), benign_proof={AX!r}, captures=(), reshaping=Unparseable())",
    ),
]

# the types, hash-consed: one object per value, which compares and hashes by identity
TYPES = [case for case in CASES if case[0] in (Atom, UnitType, Under, Over, Prod)]

# the classes that cache a hash of their own; every other one hashes the tuple of its fields
OWN_HASH = {
    Symbol: lambda f: hash((f["kind"].value, f["name"])),
    **{cls: lambda f, cls=cls: object.__hash__(cls(**f)) for cls, _, _ in TYPES},
}

IDS = [cls.__name__ for cls, _, _ in CASES]

# the classes that build one tuple, their key, which they compare and hash
KEYED = [case for case in CASES if "_k" in case[0].__slots__]


def test_every_public_value_class_is_covered():
    assert len({cls for cls, _, _ in CASES}) == len(CASES) == 28


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, fields, text):
    x, y = cls(**fields), cls(*fields.values())
    assert x == y and not (x != y)
    assert hash(x) == hash(y) == OWN_HASH.get(cls, lambda f: hash(tuple(f.values())))(fields)


def test_the_keyed_classes():
    assert {cls for cls, _, _ in KEYED} == {Symbol, Production, InjectionContext}


@pytest.mark.parametrize("cls, fields, text", KEYED, ids=[cls.__name__ for cls, _, _ in KEYED])
def test_a_keyed_value_caches_the_hash_of_its_key(cls, fields, text):
    """A keyed value builds one tuple: the key it compares is the tuple it hashes."""
    x = cls(**fields)
    assert type(x._k) is tuple and x._h == hash(x._k) == hash(x)


@pytest.mark.parametrize("cls, fields, text", TYPES, ids=[cls.__name__ for cls, _, _ in TYPES])
def test_a_type_is_one_object_per_value(cls, fields, text):
    """Built by position or keyword, copied or pickled, a type is the object
    already built from equal fields, and compares and hashes by identity in C."""
    x = cls(**fields)
    assert cls(*fields.values()) is x
    assert copy.copy(x) is x and copy.deepcopy(x) is x and pickle.loads(pickle.dumps(x)) is x
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_fields_read_back(cls, fields, text):
    x = cls(**fields)
    assert {name: getattr(x, name) for name in fields} == fields


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_repr_is_dataclass_style(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_values_are_immutable(cls, fields, text):
    x = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert {name: getattr(x, name) for name in fields} == fields


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_values_survive_copy_and_pickle(cls, fields, text):
    x = cls(**fields)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and y == x and hash(y) == hash(x)


_DUMP = "import pickle, sys; from lambek import terminal; sys.stdout.buffer.write(pickle.dumps({terminal('a'): 1}))"
_LOAD = "import pickle, sys; from lambek import terminal; print(pickle.load(sys.stdin.buffer).get(terminal('a')))"


def test_a_pickled_symbol_hashes_by_the_loading_process():
    """A cached hash is not pickled: string hashes differ between processes."""
    env = dict(os.environ, PYTHONPATH=str(Path(lambek.__file__).parents[1]))
    dumped = subprocess.run(
        [sys.executable, "-c", _DUMP], env={**env, "PYTHONHASHSEED": "0"}, capture_output=True, check=True
    ).stdout
    loaded = subprocess.run(
        [sys.executable, "-c", _LOAD], env={**env, "PYTHONHASHSEED": "1"}, input=dumped, capture_output=True, check=True
    ).stdout
    assert loaded.split() == [b"1"]


@pytest.mark.parametrize(
    "x, y",
    [
        (Under(AT_E, AT_T), Over(AT_E, AT_T)),
        (Unique(LEAF), ConservativeExtension(LEAF)),
        (OraclePass(1), Pass(1)),
        (Reject(), Unparseable()),
        (Ambiguous(LEAF, TREE), Reshaped(LEAF, TREE)),
        (Atom(A), A),
    ],
    ids=["Under-Over", "Unique-ConservativeExtension", "OraclePass-Pass", "Reject-Unparseable",
         "Ambiguous-Reshaped", "Atom-Symbol"],
)
def test_the_same_fields_in_another_class_differ(x, y):
    assert x != y and y != x
    assert not (x == y)


def _other(v):
    """A value unlike v that the field's class still accepts."""
    if isinstance(v, str):
        return v + "'"
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    if isinstance(v, SymbolKind):
        return SymbolKind.NONTERMINAL
    if isinstance(v, Symbol):
        return E if v == T else T
    if isinstance(v, frozenset):
        return v | {nonterminal("Z")}
    if isinstance(v, tuple):
        return v[1:] if v else (A,)
    return object()


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_every_field_counts(cls, fields, text):
    x = cls(**fields)
    for name in fields:
        y = cls(**{**fields, name: _other(fields[name])})
        assert x != y and not (x == y), name


def test_defaults():
    assert SemBound() == SemBound(5) and SemBound().max_len == 5
    t = ProofTree(RuleName.AX)
    assert (t.premises, t.detail, t.conclusion) == ((), None, None)
    r = SearchResult(SearchStatus.NOT_FOUND_WITHIN_BOUNDS)
    assert (r.proof, r.counterexample) == (None, None)
    c = CheckResult(True)
    assert (c.path, c.reason) == (None, None)


def test_grammar_equality_ignores_its_derived_tables(bool_g):
    copy = Grammar(bool_g.terminals, bool_g.nonterminals, bool_g.productions, bool_g.start)
    bool_g.symbol("E")  # fills a derived table of bool_g alone
    assert bool_g._memo != copy._memo
    assert copy == bool_g and hash(copy) == hash(bool_g)
    assert "_memo" not in repr(copy)
