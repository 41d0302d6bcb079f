"""Layer spans for mmwicd, recorded from outside the package.

`Tracer.install()` wraps every public function (and every public method of a
public class) defined in the layer modules, and rebinds each wrapper in every
loaded `mmwicd` namespace that holds the original, e.g. both
`mmwicd.energy.energy` and `mmwicd.cli.energy`, so no call between layers
escapes.  The `cmd_*` verb bodies are left unwrapped: their loops and the CSV
writing count as `cli.main` self time.

Spans stay in memory (name, start, end, parent; one run id per process) and
are written with `save()` when the traced process ends.

Run one traced CLI verb (the mmwicd package must be importable, e.g. through
PYTHONPATH):

    python3 perfbench/tracing.py SPANS.npz RUN_ID VERB --config CFG.json
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("signaling", "architectures", "power", "energy", "sweepsim", "cli")
UNWRAPPED_PREFIX = "cmd_"
GRID_FUNCTION = "sweepsim.discovery_slot_grid"


def layer_functions() -> dict[str, tuple[object, str, object]]:
    """{span name: (owner, attribute, function)} for every traced callable."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"mmwicd.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith(UNWRAPPED_PREFIX):
                found[f"{layer}.{name}"] = (module, name, obj)
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        found[f"{layer}.{name}.{attr}"] = (obj, attr, fn)
    return found


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._grid_calls: list[tuple[tuple, dict]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        name_id = len(self.labels)
        self.labels.append(label)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        grid_calls = None
        if label == GRID_FUNCTION:
            grid_calls = self._grid_calls
            self._grid_signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if grid_calls is not None:
                grid_calls.append((args, kwargs))
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def grid_stats(self) -> tuple[int, int]:
        """(distinct grid keys, targets enumerated) over the discovery_slot_grid calls.

        A key is (arch, scenario, geometry, sweep order, k): calls with equal
        keys build equal grids.
        """
        keys = set()
        targets = 0
        for args, kwargs in self._grid_calls:
            bound = self._grid_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            geom = a["geom"]
            keys.add((repr(a["arch"]), repr(a["scenario"]), repr(geom), a["sweep_order"], a["k"]))
            targets += geom.n_bs_directions * geom.n_ms_directions
        return len(keys), targets

    def install(self) -> None:
        """Wrap the layer functions and rebind them in every mmwicd namespace."""
        wrappers = {}
        for label, (owner, attr, fn) in layer_functions().items():
            wrapper = self._wrap(label, fn)
            wrappers[fn] = wrapper
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mmwicd" and not mod_name.startswith("mmwicd."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def save(self, path: Path, run_id: str) -> None:
        grid_keys, targets = self.grid_stats()
        np.savez(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            run_id=np.array(run_id),
            grid_keys=np.array(grid_keys),
            targets=np.array(targets),
        )


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest and do not overlap, so the direct children's
    durations are exactly the part of the parent's interval they cover.
    """
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


def inside(name: np.ndarray, parent: np.ndarray, ancestor_id: int) -> np.ndarray:
    """Mask of spans that have a span named ancestor_id among their ancestors."""
    mask = np.zeros(len(name), dtype=bool)
    up = parent.copy()
    while True:
        live = up >= 0
        if not live.any():
            return mask
        mask[live] |= name[up[live]] == ancestor_id
        up[live] = parent[up[live]]


def main(argv: list[str]) -> int:
    spans_path, run_id, *cli_argv = argv
    root = Path(__file__).resolve().parents[1]
    import mmwicd.cli

    if not Path(mmwicd.__file__).resolve().is_relative_to(root / "src"):
        print(f"mmwicd imported from {mmwicd.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    try:
        code = mmwicd.cli.main(cli_argv)
    finally:
        tracer.uninstall()
    tracer.save(Path(spans_path), run_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
