"""Every module of the package reads every name it imports, and the package
exports exactly what it imports.

No linter runs on this tree, so an import left behind when its last use is
deleted would go unnoticed.  Each module under src/mmwicd except __init__.py
(which imports to re-export) is parsed here; an imported name must be read
somewhere in its module, and a `# noqa: F401` comment exempts none.
__init__.py's `__all__` must name exactly the names it imports, plus
`__version__`, so a deleted export leaves no dangling entry.

Every CLI verb is a fresh process, so what importing the package costs is
paid on every run: the records are named tuples, and importing the CLI loads
neither `dataclasses` (whose decorator generates and compiles code per class)
nor `csv`.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mmwicd

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mmwicd"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` and `from a import b` bind the alias.
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = alias.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in read]


def test_package_has_modules():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_a_leftover_import_is_caught():
    source = ("from typing import Iterable\nimport os.path\nimport sys  # noqa: F401\n"
              "from json import (\n    dumps,  # noqa: F401\n    loads,\n)\n\nos.getcwd()\n")
    assert unused_imports(source) == ["line 1: Iterable", "line 5: dumps", "line 6: loads",
                                      "line 3: sys"]


def test_all_names_exactly_the_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(mmwicd.__all__) == sorted([*imported, "__version__"])
    assert [name for name in mmwicd.__all__ if not hasattr(mmwicd, name)] == []


def test_cli_import_loads_no_dataclasses_or_csv():
    # Measured against numpy's own imports, so numpy's version does not matter.
    probe = ("import json, sys; import numpy; before = set(sys.modules); import mmwicd.cli; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    added = json.loads(result.stdout)
    assert "mmwicd.cli" in added
    assert [name for name in ("dataclasses", "csv") if name in added] == []
