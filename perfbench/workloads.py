"""Workload configs for the mmwicd benchmark.

Every workload runs all five CLI verbs on one generated config file; the
program sees nothing but that file.  The seed picks the dense-bsc b_sc points
and the order in which a round runs its processes.

Which per-layer metric should move which end-to-end metric, and where:

- import.mmwicd_s, cli.resolve_config.busy_s: setup_s everywhere, and every
  verb time on paper-defaults, where start-up is most of each run.
- cli.main.self_s (argparse, loops, CSV writing) with cli.files_written,
  .rows_written and .bytes_written: sweep_s on dense-bsc.
- energy.EnergyReport.csv_row.busy_s, energy.energy.self_s and .calls,
  signaling.derive_frame.calls, .busy_s and .calls_per_energy,
  power.parametric_power.busy_s: sweep_s on dense-bsc; not large-grid.
- power.lookup_power (a linear table scan per call): sweep_s on
  paper-defaults.  power.calibrate.calls (one per ADC class and law used in a
  process) and .busy_s: every verb time.
- energy.convergence_value.busy_s: convergence_s.
  energy.proposed_structure_energy.busy_s and
  sweepsim.worst_case_structure_delay.busy_s: pss_s on large-grid.
- sweepsim.discovery_slot_grid.calls and .busy_s, sweepsim.targets_enumerated
  and .targets_per_s, sweepsim.verify_against_analytic.self_s: verify_s and
  pss_s on large-grid.
- sweepsim.grid_reuse_ratio (distinct grids per process over grid calls):
  verify_s on dense-bsc only.
"""

from __future__ import annotations

import random

VERBS = ("tables", "sweep", "convergence", "verify", "pss")

# dense-bsc draws its b_sc points from a fixed log-spaced pool, so that the
# reference outputs can be recorded once per pool point and cover every seed.
POOL_SIZE = 1024
POOL_LO_HZ = 15e3
POOL_HI_HZ = 10e6
DENSE_POINTS = 150

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("paper-defaults", "dense-bsc", "large-grid")


def b_sc_pool() -> list[float]:
    """POOL_SIZE spacings, geometric from 15 kHz to 10 MHz, rounded to whole Hz."""
    ratio = POOL_HI_HZ / POOL_LO_HZ
    return [float(round(POOL_LO_HZ * ratio ** (i / (POOL_SIZE - 1)))) for i in range(POOL_SIZE)]


def dense_config(b_sc: list[float]) -> dict:
    return {
        "b_sc_hz": sorted(b_sc),
        "power_mode": "parametric",
        "bits": list(range(1, 13)),
    }


def make_config(workload: str, seed: int) -> dict:
    """Scientific config of one workload; the same seed gives the same config."""
    if workload == "paper-defaults":
        return {}
    if workload == "dense-bsc":
        return dense_config(random.Random(seed).sample(b_sc_pool(), DENSE_POINTS))
    if workload == "large-grid":
        return {
            "b_sc_hz": [250e3],
            "geometry": {"n_bs_directions": 512, "n_ms_directions": 256},
            "k": [1, 2, 4, 8, 16],
        }
    raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")


def reference_config(workload: str) -> dict:
    """Config whose outputs the reference is recorded from: the whole pool for dense-bsc."""
    if workload == "dense-bsc":
        return dense_config(b_sc_pool())
    return make_config(workload, 0)


def config_b_sc(config: dict) -> list[float]:
    """The b_sc points a config asks for, with the CLI default when absent."""
    return [float(v) for v in config.get("b_sc_hz", [15e3, 250e3, 500e3, 1e6, 10e6])]
