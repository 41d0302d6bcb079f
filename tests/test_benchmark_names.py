"""Every per-layer benchmark metric names a function that still exists.

BENCHMARK.json's per-layer metrics such as `energy.energy.calls` or
`energy.EnergyReport.csv_row.busy_s` count calls into `mmwicd.<layer>.<name>`
(or a method of a class there).  Deleting or renaming that function would
silently zero the metric, so each name is resolved here.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SPAN_SUFFIXES = (".calls", ".busy_s", ".self_s")

SPAN_METRICS = [
    metric["name"]
    for metric in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    if metric["name"].endswith(SPAN_SUFFIXES)
]


def test_benchmark_has_span_metrics():
    assert len(SPAN_METRICS) >= 10


@pytest.mark.parametrize("metric", SPAN_METRICS)
def test_metric_names_a_traceable_function(metric):
    layer, *path = metric.rsplit(".", 1)[0].split(".")
    module = importlib.import_module(f"mmwicd.{layer}")
    obj = module
    for attr in path:
        assert hasattr(obj, attr), f"{metric}: mmwicd.{layer} has no {'.'.join(path)}"
        obj = getattr(obj, attr)
    # What perfbench's tracer wraps: a public function defined in that layer.
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__, metric
    assert not any(attr.startswith("_") for attr in path), metric
