"""Every python block of the README runs to completion, and every command
of its CLI block exits 0."""

import re
import shlex
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line of the opening fence, code) per block
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)), m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
]
# the argv of each `blocklex ...` line of the sh block under "## CLI"
CLI_BLOCK = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", TEXT, re.M | re.S).group(1)
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in CLI_BLOCK.splitlines()
    if line.startswith("blocklex ")
]


def test_readme_blocks_found():
    assert len(BLOCKS) == 1


@pytest.mark.parametrize("fence,code", BLOCKS, ids=[f"line_{fence}" for fence, _ in BLOCKS])
def test_readme_block_runs(fence, code):
    # padded with blank lines, so a traceback names the README's own line
    exec(compile("\n" * fence + code, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_cli_commands_found():
    assert len(COMMANDS) == 11


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_cli_command_exits_0(argv, capsys):
    from blocklex.cli import main

    assert main(argv) == 0, capsys.readouterr().err
