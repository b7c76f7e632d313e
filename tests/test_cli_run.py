"""run is the CLI's one writer: it prints each command's answer to the
streams it is given, and renders only the form it prints."""
import contextlib
import io

from lambek import cli
from lambek.cli import run


def test_run_writes_only_to_its_streams(monkeypatch):
    """Usage errors, help and answers go to the streams run is given, or by
    default to sys.stdout and sys.stderr as they are when it runs."""
    monkeypatch.setenv("COLUMNS", "80")
    cases = [
        (["check", "a , = , b |- T"], 2, "err"),
        (["--help"], 0, "out"),
        (["check", "b |- V", "--grammar", "bool"], 0, "out"),
    ]
    for argv, code, written in cases:
        given = {"out": io.StringIO(), "err": io.StringIO()}
        assert run(argv, given["out"], given["err"]) == code
        current = {"out": io.StringIO(), "err": io.StringIO()}
        with contextlib.redirect_stdout(current["out"]), contextlib.redirect_stderr(current["err"]):
            assert run(argv) == code
        assert [name for name, f in given.items() if f.getvalue()] == [written]
        assert [f.getvalue() for f in given.values()] == [f.getvalue() for f in current.values()]


def test_json_renders_no_text_proof(spy):
    """A proof's indented text grows with the square of its length, so only
    text mode renders it."""
    calls = spy(cli, "render_proof")
    for argv in (["prove", "b |- V", "--json"], ["check", "b |- V", "--json", "--tree"]):
        assert run([*argv, "--grammar", "bool"], io.StringIO(), io.StringIO()) == 0
    assert calls == []
    assert run(["prove", "b |- V", "--grammar", "bool"], io.StringIO(), io.StringIO()) == 0
    assert len(calls) == 1
