import pytest
from hypothesis import settings

from lambek.grammar import load_grammar, parse_grammar_file

# property tests run the same examples every time and never fail on timing
settings.register_profile("lambek", deadline=None, derandomize=True)
settings.load_profile("lambek")


@pytest.fixture
def load_bundled():
    """Loads a bundled grammar afresh, with none of its derived tables filled."""
    return lambda name: load_grammar(name)[0]


@pytest.fixture(scope="session")
def bool_g():
    return load_grammar("bool")[0]


@pytest.fixture(scope="session")
def eng_g():
    return load_grammar("eng")[0]


@pytest.fixture(scope="session")
def ambiguous_g():
    # the classic square grammar: every word of three or more tokens
    # associates in more than one way
    return parse_grammar_file("start S\nS ::= S S | x ;\n")


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name) wraps owner.name for the test and returns the list
    that each call appends its positional arguments to."""

    def install(owner, name):
        calls = []
        f = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return f(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install
