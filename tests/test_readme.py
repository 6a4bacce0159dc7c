"""README's library tour runs as written and every command of its CLI block
parses, so the documented API and flags cannot drift from the code."""

import re
import shlex
from pathlib import Path

import pytest

from qmaxcut.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour():
    """README's one ``python`` block, compiled under README's name."""
    (tour,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return compile(tour, str(README), "exec")


def test_library_tour_runs():
    exec(library_tour(), {})


def cli_commands() -> list[list[str]]:
    """The arguments of each ``qmaxcut`` command in README's ``sh`` blocks,
    continuation lines joined and comments dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("qmaxcut ")]


def test_cli_block_parses():
    commands = cli_commands()
    assert {argv[0] for argv in commands} == {"gen", "solve", "bench"}
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's `qmaxcut {shlex.join(argv)}` does not parse")
