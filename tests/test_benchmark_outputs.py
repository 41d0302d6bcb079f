"""Every verb's outputs on each benchmark workload match the benchmark's reference.

perfbench/run.py checks each verb's CSV files against perfbench/reference.json
and counts a mismatch as a failed run.  This runs the same check in process,
on each workload's config at seed 0, so a change that moves an output fails
here before the benchmark is run.
"""

import json
import sys
from pathlib import Path

import pytest

from mmwicd.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import outputs  # noqa: E402 - found on the path added above
from workloads import VERBS, WORKLOADS, config_b_sc, make_config  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_match_the_reference(tmp_path, workload):
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    config = make_config(workload, 0)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    for verb in VERBS:
        out = tmp_path / verb
        assert main([verb, "--config", str(config_path), "--out", str(out)]) == 0, verb
        assert outputs.check(out, config_b_sc(config), reference[workload][verb]) == [], verb
