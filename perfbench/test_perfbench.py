"""Tests of the benchmark's own code: spans, seeded configs, output check, wrappers."""

from __future__ import annotations

import inspect
import sys

import numpy as np
import pytest

import outputs
import tracing
from workloads import DENSE_POINTS, POOL_HI_HZ, POOL_LO_HZ, WORKLOADS, config_b_sc, make_config


def test_self_time_subtracts_direct_children_only():
    # root(10) -> a(4) -> b(1); root -> c(3)
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 4.0, 1.0, 3.0])
    assert tracing.self_times(parent, duration).tolist() == [3.0, 3.0, 1.0, 3.0]


def test_inside_finds_any_ancestor():
    name = np.array([0, 1, 2, 2, 1])
    parent = np.array([-1, 0, 1, -1, 3])
    assert tracing.inside(name, parent, 0).tolist() == [False, True, True, False, False]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_config(workload):
    assert make_config(workload, 7) == make_config(workload, 7)


def test_dense_points_follow_the_seed():
    points = config_b_sc(make_config("dense-bsc", 3))
    assert len(set(points)) == DENSE_POINTS
    assert points == sorted(points)
    assert POOL_LO_HZ <= points[0] and points[-1] <= POOL_HI_HZ
    assert points != config_b_sc(make_config("dense-bsc", 4))


def _sweep_outputs(tmp_path):
    from mmwicd.cli import main

    out = tmp_path / "out"
    assert main(["sweep", "--out", str(out)]) == 0
    b_sc = config_b_sc(make_config("paper-defaults", 0))
    return out, b_sc, outputs.fingerprint(out, b_sc)


def test_check_rejects_one_perturbed_value(tmp_path):
    out, b_sc, reference = _sweep_outputs(tmp_path)
    assert outputs.check(out, b_sc, reference) == []
    report = out / "sweep-report.csv"
    lines = report.read_text().splitlines(keepends=True)
    lines[10] = lines[10].replace(",6,", ",7,", 1)  # the bits column of one row
    report.write_text("".join(lines))
    problems = outputs.check(out, b_sc, reference)
    assert len(problems) == 1 and "values differ" in problems[0]


def test_check_ignores_added_columns_and_tool_line(tmp_path):
    out, b_sc, reference = _sweep_outputs(tmp_path)
    for path in out.glob("*.csv"):
        lines = path.read_text().splitlines()
        lines[0] = "# tool: mmwicd 9.9.9"
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[header:] = [f"{line},extra" for line in lines[header:]]
        path.write_text("\n".join(lines) + "\n")
    assert outputs.check(out, b_sc, reference) == []


def test_check_reports_missing_file(tmp_path):
    out, b_sc, reference = _sweep_outputs(tmp_path)
    (out / "sweep-nCI-LPADC-6b.csv").unlink()
    assert outputs.check(out, b_sc, reference) == ["missing output file sweep-nCI-LPADC-6b.csv"]


@pytest.fixture
def installed():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_wrappers_replace_every_imported_name(installed):
    mods = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "mmwicd"}
    assert mods["mmwicd.cli"].energy is mods["mmwicd.energy"].energy
    assert mods["mmwicd.energy"].derive_frame is mods["mmwicd.signaling"].derive_frame
    assert mods["mmwicd"].energy is mods["mmwicd.energy"].energy
    originals = {inspect.unwrap(fn) for _, _, fn in tracing.layer_functions().values()}
    for mod_name, module in mods.items():
        for attr, value in vars(module).items():
            assert not (inspect.isfunction(value) and value in originals), f"{mod_name}.{attr} unwrapped"


def test_spans_nest_across_layers(installed, tmp_path):
    from mmwicd.cli import main

    assert main(["sweep", "--out", str(tmp_path)]) == 0
    labels = installed.labels
    name = np.frombuffer(installed.name, dtype=np.int64)
    parent = np.frombuffer(installed.parent, dtype=np.int64)
    frames = name == labels.index("signaling.derive_frame")
    under_energy = tracing.inside(name, parent, labels.index("energy.energy"))
    # Lookup mode: each energy() derives its frame once.
    assert frames.sum() == (under_energy & frames).sum() == (name == labels.index("energy.energy")).sum()
    assert (parent[name == labels.index("cli.main")] == -1).all()


def test_uninstall_restores_originals():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    energy_module = sys.modules["mmwicd.energy"]
    assert not hasattr(energy_module.energy, "__wrapped__")
    assert not hasattr(energy_module.EnergyReport.csv_row, "__wrapped__")
