"""The README's command-line tour, run command by command.

Every `$ lambek ...` line of the README's `text` blocks runs through the CLI,
with lines ending in a backslash joined, and its stdout must be the lines
shown below it; a trailing `...` means the output starts with them.
"""
import io
import re
import shlex
from pathlib import Path

import pytest

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
