from importlib import resources

import pytest

from lambek.grammar import parse_grammar_file, validate
from lambek.prover import SearchConfig


def bundled(name):
    text = (resources.files("lambek") / "grammars" / name).read_text(encoding="utf-8")
    g, _ = validate(parse_grammar_file(text))
    return g


@pytest.fixture
def load_bundled():
    """Loads a bundled grammar afresh, with none of its derived tables filled."""
    return bundled


@pytest.fixture(scope="session")
def bool_g():
    return bundled("bool.g")


@pytest.fixture(scope="session")
def eng_g():
    return bundled("eng.g")


@pytest.fixture(scope="session")
def ambiguous_g():
    # the classic square grammar: every word of three or more tokens
    # associates in more than one way
    return parse_grammar_file("start S\nS ::= S S | x ;\n")


@pytest.fixture(scope="session")
def cfg():
    return SearchConfig()
