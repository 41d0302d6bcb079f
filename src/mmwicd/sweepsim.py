"""Discrete-event simulation of the directional beam sweep.

Independent oracle for the analytic delay formulas: the sweep is walked slot
by slot and discovery time is whatever the walk produces, never the closed
form.  Detection is decided at the end of a dwell, so discovery lands on slot
boundaries; context acquisition, when paid, precedes the sweep.  The
widened-sync layout is the same sweep with k BS directions per dwell.

The all-targets enumeration (discovery_slot_grid) is one numpy broadcast that
inverts the walk's slot -> (BS group, beam set) schedule: every pair is visited
exactly once per sweep, so a target's first-alignment slot follows from its own
group and set.  The slot-by-slot walk (simulate) is the reference the grid is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .architectures import (
    Architecture,
    Scenario,
    SweepGeometry,
    _check_count,
    ci_cost,
    total_delay,
)
from .signaling import FrameConfig, derive_frame

SEQUENTIAL_BS_OUTER = "SequentialBsOuter"
SEQUENTIAL_MS_OUTER = "SequentialMsOuter"
SWEEP_ORDERS = (SEQUENTIAL_BS_OUTER, SEQUENTIAL_MS_OUTER)

_ORDER_CODES = {SEQUENTIAL_BS_OUTER: 0, SEQUENTIAL_MS_OUTER: 1}


@dataclass(frozen=True)
class SimResult:
    discovery_time: float  # s
    events_consumed: int  # PSS transmissions observed, aligning one included
    target: tuple[int, int]  # (bs_direction, ms_direction)


class NoDiscoveryError(RuntimeError):
    """A full sweep completed without aligning with the target.

    Happens only when context information pins the beam set away from the
    target's true direction.
    """

    def __init__(self, target: tuple[int, int], slots_walked: int):
        super().__init__(
            f"target {target} not discovered within a full sweep of {slots_walked} slots"
        )
        self.target = target
        self.slots_walked = slots_walked


def _order_code(sweep_order: str) -> int:
    try:
        return _ORDER_CODES[sweep_order]
    except KeyError:
        raise ValueError(
            f"unknown sweep order {sweep_order!r}; expected one of {SWEEP_ORDERS}"
        ) from None


def _check_target(target: tuple[int, int], geom: SweepGeometry) -> tuple[int, int]:
    tb, tm = target
    if not (0 <= tb < geom.n_bs_directions and 0 <= tm < geom.n_ms_directions):
        raise ValueError(f"target {target} outside geometry {geom}")
    return tb, tm


def _pinned_set(
    scenario: Scenario,
    ci_direction: int | None,
    target_ms: int,
    beams: int,
    n_ms: int,
) -> int:
    """Beam-set index locked by context information, or -1 for a free sweep."""
    if scenario.kind == "nCI":
        return -1
    if ci_direction is None:
        ci_direction = target_ms
    if not 0 <= ci_direction < n_ms:
        raise ValueError(f"ci_direction {ci_direction} outside [0, {n_ms})")
    return ci_direction // beams


def simulate(
    arch: Architecture,
    scenario: Scenario,
    geom: SweepGeometry,
    frame: FrameConfig,
    target: tuple[int, int],
    sweep_order: str = SEQUENTIAL_BS_OUTER,
    *,
    k: int = 1,
    ci_direction: int | None = None,
) -> SimResult:
    """Walk the sweep slot by slot until the target aligns.

    Each dwell of t_pss pairs a group of k BS directions (k > 1 is the
    widened-sync layout) with one MS beam set.  SequentialBsOuter advances
    the BS group every slot and the beam set once per full BS cycle;
    SequentialMsOuter is the transpose.  CInD/CID pin the beam set to the one
    containing ci_direction (the target's true MS direction when not given);
    a wrong pin raises NoDiscoveryError after one full sweep.
    """
    tb, tm = _check_target(target, geom)
    order = _order_code(sweep_order)
    _check_count("k", k)
    n_bs, n_ms = geom.n_bs_directions, geom.n_ms_directions
    beams = arch.simultaneous_beams
    n_groups = -(-n_bs // k)
    n_sets = -(-n_ms // beams)
    pinned = _pinned_set(scenario, ci_direction, tm, beams, n_ms)
    eff_sets = 1 if pinned >= 0 else n_sets
    slots_total = n_groups * eff_sets
    t_ci = ci_cost(arch, scenario, geom)[0]

    consumed = 0
    for slot in range(slots_total):
        if order == 0:
            group = slot % n_groups
            set_i = slot // n_groups
        else:
            set_i = slot % eff_sets
            group = slot // eff_sets
        if pinned >= 0:
            set_i = pinned
        beam_set = range(set_i * beams, min(set_i * beams + beams, n_ms))
        for bs_dir in range(group * k, min(group * k + k, n_bs)):
            consumed += 1
            if bs_dir == tb and tm in beam_set:
                return SimResult(
                    discovery_time=t_ci + (slot + 1) * frame.t_pss,
                    events_consumed=consumed,
                    target=(tb, tm),
                )
    raise NoDiscoveryError((tb, tm), slots_total)


def discovery_slot_grid(
    arch: Architecture,
    scenario: Scenario,
    geom: SweepGeometry,
    *,
    sweep_order: str = SEQUENTIAL_BS_OUTER,
    k: int = 1,
) -> np.ndarray:
    """1-based discovery slot for every (bs, ms) target.

    A target is seen in the one slot that pairs its BS group (tb // k) with
    its beam set (tm // beams).  SequentialBsOuter reaches that pair at
    0-based slot set * n_groups + group, SequentialMsOuter at
    group * n_sets + set.  In pinned scenarios each target is pinned to its
    own correct set, so the sweep runs over BS groups only and the slot is the
    group index.  Computed without walking the sweep; simulate is the
    slot-by-slot reference.  Shape (n_bs_directions, n_ms_directions).
    """
    order = _order_code(sweep_order)
    _check_count("k", k)
    n_bs, n_ms = geom.n_bs_directions, geom.n_ms_directions
    beams = arch.simultaneous_beams
    n_groups = -(-n_bs // k)
    group = np.arange(n_bs, dtype=np.int64)[:, None] // k
    if scenario.kind == "nCI":
        n_sets = -(-n_ms // beams)
        set_i = np.arange(n_ms, dtype=np.int64)[None, :] // beams
    else:
        n_sets = 1
        set_i = np.zeros((1, n_ms), dtype=np.int64)
    if order == 0:
        return set_i * n_groups + group + 1
    return group * n_sets + set_i + 1


@dataclass(frozen=True)
class VerificationReport:
    arch: str
    scenario: str
    sweep_order: str
    b_sc: float  # Hz
    n_targets: int
    min_time: float  # s
    mean_time: float  # s
    max_time: float  # s
    analytic_delay: float  # s
    passed: bool
    first_mismatch: tuple[int, int] | None  # worst target when the check fails


def verify_against_analytic(
    arch: Architecture,
    scenario: Scenario,
    geom: SweepGeometry | None = None,
    frame: FrameConfig | None = None,
    *,
    sweep_order: str = SEQUENTIAL_BS_OUTER,
) -> VerificationReport:
    """Enumerate every target and compare the worst walk to the closed form.

    Passes only on exact equality (both sides are integer multiples of the
    transmission period plus the same lead time).
    """
    if geom is None:
        geom = SweepGeometry()
    if frame is None:
        frame = derive_frame(15e3)
    grid = discovery_slot_grid(arch, scenario, geom, sweep_order=sweep_order)
    analytic = total_delay(arch, scenario, geom, frame)
    times = grid * frame.t_pss + ci_cost(arch, scenario, geom)[0]
    max_time = float(times.max())
    passed = max_time == analytic
    return VerificationReport(
        arch=arch.name,
        scenario=scenario.kind,
        sweep_order=sweep_order,
        b_sc=frame.b_sc,
        n_targets=grid.size,
        min_time=float(times.min()),
        mean_time=float(times.mean()),
        max_time=max_time,
        analytic_delay=analytic,
        passed=passed,
        first_mismatch=None if passed else divmod(int(np.argmax(grid)), geom.n_ms_directions),
    )


def worst_case_structure_delay(
    arch: Architecture,
    scenario: Scenario,
    geom: SweepGeometry,
    frame: FrameConfig,
    *,
    sweep_order: str = SEQUENTIAL_BS_OUTER,
    k: int = 1,
) -> float:
    """Max discovery time over all targets with k BS directions per dwell (s)."""
    grid = discovery_slot_grid(arch, scenario, geom, sweep_order=sweep_order, k=k)
    return float(grid.max()) * frame.t_pss + ci_cost(arch, scenario, geom)[0]
