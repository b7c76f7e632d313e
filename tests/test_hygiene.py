"""Source hygiene of the library, read with the standard library's ast.

Every name a module of src/lambek imports is used there, and every
module-level function or class is used somewhere in src/lambek or is public
(listed in lambek.__all__).  A name kept on purpose is marked on its import
line with ``# noqa: F401``.  A CLI process starts without loading the
standard library's heavy introspection modules.  Every module parses as
the oldest Python that pyproject.toml promises.  Every name that the
benchmark's traced run rebinds or calls is still there.  Equality and
hashing are written once, on grammar.Value, and a grammar's symbols are
sorted once, in grammar.py.  No function of types.py recurses.
"""
import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import lambek

SRC = Path(__file__).resolve().parent.parent / "src" / "lambek"
SPANS = SRC.parent.parent / "perfbench" / "spans.py"


def _modules():
    """Each module's file name, text and tree."""
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    return {name: (text, ast.parse(text)) for name, text in texts.items()}


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _reads(node):
    """Each name that node reads, names inside string annotations included."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield n.id
    for ann in _annotations(node):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                yield from (m.id for m in ast.walk(ast.parse(n.value, mode="eval")) if isinstance(m, ast.Name))


def _uses(node):
    """Each name that node reads, reaches as an attribute or imports from a module."""
    yield from _reads(node)
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (a.name for a in n.names)


def test_every_module_parses_as_python_3_10():
    """pyproject.toml promises Python 3.10 or later; syntax that only a later
    version accepts fails here, on whichever version runs the tests."""
    for name, (text, _) in _modules().items():
        ast.parse(text, filename=name, feature_version=(3, 10))


def test_every_import_is_used():
    unused = []
    for name, (text, tree) in _modules().items():
        if name == "__init__.py":
            continue  # its imports are the public API
        lines, read = text.splitlines(), set(_reads(tree))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{name}:{alias.lineno} {bound}")
    assert unused == []


def test_every_module_level_definition_is_used_or_public():
    modules = _modules()
    used = Counter(u for _, tree in modules.values() for u in _uses(tree))
    unused = []
    for name, (_, tree) in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in lambek.__all__:
                continue
            # uses inside the definition itself, a recursive call say, do not count
            if used[node.name] - Counter(_uses(node))[node.name] <= 0:
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert unused == []


def test_only_value_writes_equality_and_hashing():
    """A sequent keeps its own pair, built on every search step and looked up
    once, and the unit its constant hash."""
    written = {
        (name, cls.name, f.name)
        for name, (_, tree) in _modules().items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for f in cls.body if isinstance(f, ast.FunctionDef) and f.name in ("__eq__", "__hash__")
    }
    assert written == {
        ("grammar.py", "Value", "__eq__"), ("grammar.py", "Value", "__hash__"),
        ("types.py", "Sequent", "__eq__"), ("types.py", "Sequent", "__hash__"), ("types.py", "UnitType", "__hash__"),
    }


def test_types_py_has_no_recursive_function():
    """Types are read, written and walked by loops, as they may nest any
    depth: no function of types.py calls back into itself, directly or
    through others (a call is matched by the name it calls), and none
    defines a function inside it, the way a closure would recurse."""
    _, tree = _modules()["types.py"]
    defs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    nested = [f"{f.name} defines {n.name}" for f in defs for n in ast.walk(f) if n is not f and n in defs]
    calls = {
        f.name: {getattr(n.func, "id", getattr(n.func, "attr", None)) for n in ast.walk(f) if isinstance(n, ast.Call)}
        for f in defs
    }
    # drop each function that calls none left; those that stay are on a cycle or call into one
    while done := [f for f, called in calls.items() if not called & calls.keys()]:
        for f in done:
            del calls[f]
    assert (nested, sorted(calls)) == ([], [])


def test_only_grammar_sorts_a_grammars_symbols():
    """Each grammar keeps its symbols in name order in one table,
    grammar.SymbolTable; no other module sorts its terminals or nonterminals."""
    sorting = []
    for name, (_, tree) in _modules().items():
        if name == "grammar.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == "sorted":
                operands = node.args
            elif isinstance(f, ast.Attribute) and f.attr == "sort":
                operands = [f.value]
            else:
                continue
            if any(isinstance(n, ast.Attribute) and n.attr in ("terminals", "nonterminals")
                   for arg in operands for n in ast.walk(arg)):
                sorting.append(f"{name}:{node.lineno}")
    assert sorting == []


def test_every_name_the_traced_benchmark_wraps_exists():
    """perfbench/spans.py rebinds each name of IMPORT_SITES in its module and
    wraps each (module, name) of DIRECT; a name that is gone fails only a
    traced run, so the two tables are read here, from the file's text."""
    tables = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("IMPORT_SITES", "DIRECT"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    names = [(mod, attr) for mod, sites in tables["IMPORT_SITES"].items() for attr in sites]
    names += [(mod, attr) for mod, attr, _ in tables["DIRECT"]]
    assert ("semantics", "recognize") in names and ("analyzer", "parse_tree") in names
    missing = [f"{mod}.{attr}" for mod, attr in names if not hasattr(getattr(lambek, mod), attr)]
    assert missing == []


_STARTUP = """
import json, sys
import lambek.cli
from lambek.grammar import load_grammar
load_grammar("bool")
print(json.dumps(sorted({"dataclasses", "inspect"} & set(sys.modules))))
"""


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    """Every CLI call imports lambek.cli and loads a grammar; in a fresh
    interpreter that pulls in neither module (with inspect come ast, dis and
    tokenize)."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _STARTUP], env=env, capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == []
