"""README's examples run as documented: every `incgrade` line of the
command-line block through `cli.main`, and the library block as code."""

import re
import shlex
from pathlib import Path

import pytest

from incgrade.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading, language):
    """The first fenced block of the language under the heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in code_block("Command line", "sh").splitlines()
            if line.startswith("incgrade ")]

# README documents this probe's unseparated pairs, so it exits 1.
EXIT_ONE = ["transitivity-check", "--poset", "diamond", "--group", "C2"]


def test_command_block_is_found():
    assert len(COMMANDS) == 7
    assert EXIT_ONE in COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_command_line_example(argv, capsys):
    assert main(argv) == (1 if argv == EXIT_ONE else 0)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"command: {argv[0]}\n")


def test_library_example():
    source = code_block("Library", "python")
    namespace = {}
    exec(source, namespace)
    classes = int(re.search(r"# (\d+) classes", source).group(1))
    assert classes == 27
    assert len(namespace["reps"]) == classes
    assert namespace["equal"] is True
    assert namespace["basis"] == ((0, 0), (0, 3), (1, 1), (2, 2), (3, 3))
    assert namespace["value"].support() == ((0, 3),)
