"""AST counts of the package: functions, parameters, defaults and class fields.

A script, not a test.  Run it from the repository root:

    python3 tests/ast_counts.py [DIR]

It prints the line count of each DIR/*.py (default src/mmwicd) and their
total, then four counts over the same files, as
functions/parameters/defaults/fields:

- functions: FunctionDef and AsyncFunctionDef nodes, nested ones included;
- parameters: each function's positional-only, positional and keyword-only
  parameters, plus its *args and **kwargs;
- defaults: each function's default values, positional and keyword-only;
- fields: AnnAssign statements directly in a class body.

Lambdas are not functions here, and their parameters are not counted.  The
counts were 58/146/22/54 at bfbd8e4 and 58/150/22/60 at 1455452.
"""

import ast
import sys
from pathlib import Path


def counts(directory: Path) -> tuple[int, int, int, int]:
    functions = parameters = defaults = fields = 0
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                functions += 1
                parameters += (len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
                               + (args.vararg is not None) + (args.kwarg is not None))
                defaults += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef):
                fields += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return functions, parameters, defaults, fields


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent / "src/mmwicd"
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted(root.glob("*.py"))}
    for name, n in lines.items():
        print(f"{n:6d} {name}")
    print(f"{sum(lines.values()):6d} total")
    print("functions/parameters/defaults/fields: %d/%d/%d/%d" % counts(root))
