"""The README's code examples run as written, and its command lines parse."""

import re
import shlex
from pathlib import Path

import pytest

from locus import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) > 0


def test_command_line_examples_parse(capsys):
    """Each `locus` line of the Command line block, its `\\` continuations joined, is
    accepted by the parser (parsed only, not run)."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [argv for line in block.replace("\\\n", " ").splitlines() if (argv := shlex.split(line, comments=True))]
    assert len(commands) >= 10 and all(argv[0] == "locus" for argv in commands), commands
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}\n{capsys.readouterr().err}")
