"""Every python block of the README runs to completion."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line of the opening fence, code) per block
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)), m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
]


def test_readme_blocks_found():
    assert len(BLOCKS) == 1


@pytest.mark.parametrize("fence,code", BLOCKS, ids=[f"line_{fence}" for fence, _ in BLOCKS])
def test_readme_block_runs(fence, code):
    # padded with blank lines, so a traceback names the README's own line
    exec(compile("\n" * fence + code, str(README), "exec"), {"__name__": "__readme__"})
