"""The README's Python examples run as written.

Every ```python block of README.md is executed in order, in one namespace
(later blocks reuse names the Quick start defines), so a changed signature
that the README still spells the old way fails here.  Warnings are errors,
as everywhere in the suite.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order():
    blocks = PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
