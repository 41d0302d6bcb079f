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
nor `csv`.  numpy, about half of a quick verb's time, is imported only inside
the sweepsim functions that enumerate targets: `--version`, tables, sweep and
convergence never load it, under either power mode, and verify and pss do.
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


def numpy_reads(source: str) -> list[str]:
    """Each import of numpy outside every function body, and each mention of linalg."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            modules = ([alias.name for alias in child.names] if isinstance(child, ast.Import)
                       else [child.module or ""] if isinstance(child, ast.ImportFrom) else [])
            if any(module.split(".")[0] == "numpy" for module in modules):
                found.append(f"line {child.lineno}: imports numpy")
            visit(child)

    tree = ast.parse(source)
    visit(tree)
    found += [f"line {node.lineno}: linalg" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "linalg"
              or isinstance(node, ast.Name) and node.id == "linalg"
              or isinstance(node, ast.alias) and "linalg" in node.name.split(".")]
    return found


@pytest.mark.parametrize("module", [*MODULES, PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_numpy_is_imported_only_inside_functions(module):
    assert numpy_reads(module.read_text(encoding="utf-8")) == []


def test_a_module_level_numpy_import_is_caught():
    source = ("import numpy as np\nfrom numpy.linalg import lstsq\n\nclass C:\n"
              "    import numpy\n\ndef f():\n    import numpy as np\n    return np.linalg\n")
    assert numpy_reads(source) == ["line 1: imports numpy", "line 2: imports numpy",
                                   "line 5: imports numpy", "line 9: linalg"]


NUMPY_PROBE = """\
import json, sys
import mmwicd.cli
try:
    code = mmwicd.cli.main(sys.argv[1:])
except SystemExit as exc:  # --version
    code = exc.code
print(json.dumps([code, "numpy" in sys.modules]))
"""


# Each verb under both power modes; only verify and pss enumerate targets.
NUMPY_RUNS = [["--version"], *([verb, "--power-mode", mode]
                               for verb in ("tables", "sweep", "convergence", "verify", "pss")
                               for mode in ("lookup", "parametric"))]


@pytest.mark.parametrize("args", NUMPY_RUNS, ids=" ".join)
def test_only_verify_and_pss_load_numpy(tmp_path, args):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = [] if args == ["--version"] else ["--out", str(tmp_path)]
    result = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *args, *out], env=env,
                            capture_output=True, text=True, check=True)
    assert json.loads(result.stdout.splitlines()[-1]) == [0, args[0] in ("verify", "pss")]


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
