"""The README's command-line tour, run command by command, its library
example, and its names.

Every `$ lambek ...` line of the README's `text` blocks runs through the CLI,
with lines ending in a backslash joined, and its stdout must be the lines
shown below it; a trailing `...` means the output starts with them.  The
`python` block runs as is, and prints what the `# ...` comments on its
`print` lines show.
"""
import io
import re
import shlex
from pathlib import Path

import pytest

import lambek
from lambek.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> list[tuple[str, list[str]]]:
    """(command, shown output lines) for each command of the tour."""
    text = README.read_text(encoding="utf-8")
    out = []
    for block in re.findall(r"^```text\n(.*?)^```", text, re.M | re.S):
        lines = block.replace("\\\n", "").splitlines()
        starts = [i for i, line in enumerate(lines) if line.startswith("$ ")] + [len(lines)]
        for i, end in zip(starts, starts[1:]):
            shown = lines[i + 1 : end]
            while shown and not shown[-1]:
                shown.pop()
            out.append((lines[i][2:], shown))
    return out


TOUR = _tour()


def test_readme_names_are_exported():
    """Every name the README calls like a function, and every entry point it
    lists, is importable from lambek."""
    text = README.read_text(encoding="utf-8")
    called = set(re.findall(r"`([A-Za-z_]\w*)\(", text))
    (entry,) = re.findall(r"^Other entry points:.*?(?=\n\n)", text, re.M | re.S)
    listed = set(re.findall(r"`([A-Za-z_]\w*)`", entry))
    assert called and len(listed) >= 10
    assert sorted(n for n in called | listed if not hasattr(lambek, n)) == []


def test_the_tour_is_found():
    assert len(TOUR) >= 10
    assert all(cmd.startswith("lambek ") for cmd, _ in TOUR)


@pytest.mark.parametrize("cmd,shown", TOUR, ids=[cmd for cmd, _ in TOUR])
def test_tour_command_prints_what_the_readme_shows(cmd, shown):
    out, err = io.StringIO(), io.StringIO()
    code = run(shlex.split(cmd)[1:], out, err)
    assert code in (0, 1), err.getvalue()
    got = out.getvalue().splitlines()
    if shown and shown[-1] == "...":
        shown = shown[:-1]
        got = got[: len(shown)]
    assert got == shown


def test_library_example_prints_what_its_comments_show(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    shown = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert shown == ["Capturing", "(C/V)\\E"]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown
