"""The README's examples print what their comments say.

Python blocks run as they stand; each ``print`` line's ``# …`` comment, up
to an explanation after " — ", is the line it must print.  Each ``arclift …``
command in a sh block that has a ``# …`` line under it runs in-process
through ``cli.main``: the comment is its stdout, or ``exit N: Verdict`` for
a command that must exit with N and report that verdict.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from arclift import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


def _expected(comment):
    return comment.split(" — ")[0]


def test_python_examples_print_their_comments():
    checked = 0
    for block in _blocks("python"):
        want = [
            _expected(m.group(1))
            for m in re.finditer(r"^print\(.*\)\s*# (.*)$", block, re.M)
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        assert out.getvalue().splitlines() == want
        checked += len(want)
    assert checked >= 5


def _commands():
    """(argv, comment) for each ``arclift`` command with a comment under it."""
    for block in _blocks("sh"):
        lines = block.replace("\\\n", " ").splitlines()
        for line, below in zip(lines, lines[1:]):
            if line.startswith("arclift ") and below.startswith("# "):
                yield shlex.split(line)[1:], below[2:]


def test_cli_examples_print_their_comments():
    checked = 0
    for argv, comment in _commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        verdict = re.match(r"exit (\d+): (\w+)", comment)
        if verdict:
            assert code == int(verdict.group(1)), argv
            assert out.getvalue().startswith(f"verdict: {verdict.group(2)}\n"), argv
        else:
            assert code == 0, argv
            assert out.getvalue() == _expected(comment) + "\n", argv
        checked += 1
    assert checked >= 4
