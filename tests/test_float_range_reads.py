"""Float range is read in one place: signaling._real_ok.

Every real input and every count is checked against float range by that one
rule, so a hand-written range test elsewhere is a second rule that can drift
from it (and an int compared with math.isfinite raises instead of refusing).
Each module under src/mmwicd is parsed here, and every read of float_info
(`sys.float_info`, or the name imported from sys) is named by the function or
class that holds it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mmwicd"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def float_info_reads(source: str) -> list[tuple[str, int]]:
    """(dotted scope, line) of each mention of float_info in source."""
    reads = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "float_info"
                    or isinstance(child, ast.Name) and child.id == "float_info"
                    or isinstance(child, ast.alias) and child.name == "float_info"):
                reads.append((scope, child.lineno))
            inner = f"{scope}.{child.name}".lstrip(".") if isinstance(child, SCOPES) else scope
            visit(child, inner)

    visit(ast.parse(source), "")
    return reads


def test_float_info_is_read_only_in_real_ok():
    scopes = {(module.name, scope) for module in sorted(PACKAGE.glob("*.py"))
              for scope, _ in float_info_reads(module.read_text(encoding="utf-8"))}
    assert scopes == {("signaling.py", "_real_ok")}


def test_a_second_range_test_is_caught():
    source = ("import sys\nfrom sys import float_info as fi\n\n"
              "class Geometry:\n    def check(self, n):\n"
              "        return n <= sys.float_info.max\n\n"
              "LIMIT = fi.max\n")
    assert float_info_reads(source) == [("", 2), ("Geometry.check", 6)]
