"""The README's examples say what the code does.

Every ```python block of README.md is executed in order, in one namespace
(later blocks reuse names the Quick start defines), so a changed signature
that the README still spells the old way fails here.  Warnings are errors,
as everywhere in the suite.  The ```json config block is the default config.
"""

import json
import re
from pathlib import Path

from mmwicd.cli import DEFAULT_CONFIG

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
JSON_BLOCK = re.compile(r"^```json\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order():
    blocks = PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_config_block_is_the_default_config():
    (block,) = JSON_BLOCK.findall(README.read_text(encoding="utf-8"))
    documented = json.loads(block)
    assert documented["convergence_bits"] == [1, 2, "...", 12]
    documented["convergence_bits"] = list(range(1, 13))
    assert documented == {key: val for key, val in DEFAULT_CONFIG.items()
                          if key not in ("out", "format")}
