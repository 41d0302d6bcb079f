"""Discrete-event simulation of the directional beam sweep.

Independent oracle for the analytic delay formulas: the sweep is walked slot
by slot and discovery time is whatever the walk produces, never the closed
form.  Detection is decided at the end of a dwell, so discovery lands on slot
boundaries; context acquisition, when paid, precedes the sweep.

The all-targets enumeration (discovery_slot_grid) is one numpy broadcast that
inverts the walk's slot -> (BS group, beam set) schedule: every pair is visited
exactly once per sweep, so a target's first-alignment slot follows from its own
group and set.  The slot-by-slot walk (_walk) is the reference the grid is
tested against.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .architectures import (
    Architecture,
    Scenario,
    SweepGeometry,
    build_architecture,
    total_delay,
    uses_ci_budget,
)
from .signaling import FrameConfig, PssSlotStructure, derive_frame, slot_symbol_offsets

SEQUENTIAL_BS_OUTER = "SequentialBsOuter"
SEQUENTIAL_MS_OUTER = "SequentialMsOuter"
SWEEP_ORDERS = (SEQUENTIAL_BS_OUTER, SEQUENTIAL_MS_OUTER)

_ORDER_CODES = {SEQUENTIAL_BS_OUTER: 0, SEQUENTIAL_MS_OUTER: 1}

PSS_TX = "PssTx"
ALIGNED = "Aligned"


@dataclass(frozen=True)
class SweepEvent:
    time: float  # s
    bs_direction: int
    ms_beam_set: tuple[int, ...]
    kind: str  # PSS_TX or ALIGNED


@dataclass(frozen=True)
class SimResult:
    discovery_time: float  # s
    events_consumed: int  # PSS transmissions observed, aligning one included
    target: tuple[int, int]  # (bs_direction, ms_direction)
    events: tuple[SweepEvent, ...] | None = None


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


def _ci_lead_time(arch: Architecture, scenario: Scenario, geom: SweepGeometry) -> float:
    return scenario.t_ci if uses_ci_budget(arch, scenario, geom) else 0.0


def _walk(
    arch: Architecture,
    scenario: Scenario,
    geom: SweepGeometry,
    target: tuple[int, int],
    sweep_order: str,
    ci_direction: int | None,
    record_events: bool,
    slot_duration: float,
    k: int,
    symbol_offsets: list[float],
    t_ci: float,
) -> SimResult:
    """Slot-granular walk for a single target; shared by both simulate flavors."""
    tb, tm = _check_target(target, geom)
    order = _order_code(sweep_order)
    n_bs, n_ms = geom.n_bs_directions, geom.n_ms_directions
    beams = arch.simultaneous_beams
    n_groups = -(-n_bs // k)
    n_sets = -(-n_ms // beams)
    pinned = _pinned_set(scenario, ci_direction, tm, beams, n_ms)
    eff_sets = 1 if pinned >= 0 else n_sets
    slots_total = n_groups * eff_sets

    events: list[SweepEvent] = []
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
        bs_lo = group * k
        bs_hi = min(bs_lo + k, n_bs)
        ms_lo = set_i * beams
        beam_set = tuple(range(ms_lo, min(ms_lo + beams, n_ms)))
        slot_start = t_ci + slot * slot_duration
        hit = False
        for j, bs_dir in enumerate(range(bs_lo, bs_hi)):
            consumed += 1
            if record_events:
                events.append(
                    SweepEvent(slot_start + symbol_offsets[j], bs_dir, beam_set, PSS_TX)
                )
            if bs_dir == tb and tm in beam_set:
                hit = True
                if not record_events:
                    break
        if hit:
            discovery = t_ci + (slot + 1) * slot_duration
            if record_events:
                events.append(SweepEvent(discovery, tb, beam_set, ALIGNED))
            return SimResult(
                discovery_time=discovery,
                events_consumed=consumed,
                target=(tb, tm),
                events=tuple(events) if record_events else None,
            )
    raise NoDiscoveryError((tb, tm), slots_total)


def simulate(
    arch: Architecture,
    scenario: Scenario,
    geom: SweepGeometry,
    frame: FrameConfig,
    target: tuple[int, int],
    sweep_order: str = SEQUENTIAL_BS_OUTER,
    *,
    ci_direction: int | None = None,
    record_events: bool = False,
) -> SimResult:
    """Walk the plain sweep (one direction per slot) until the target aligns.

    SequentialBsOuter advances the BS direction every slot and the MS beam set
    once per full BS cycle; SequentialMsOuter is the transpose.  CInD/CID pin
    the beam set to the one containing ci_direction (the target's true MS
    direction when not given); a wrong pin raises NoDiscoveryError after one
    full sweep.
    """
    return _walk(
        arch,
        scenario,
        geom,
        target,
        sweep_order,
        ci_direction,
        record_events,
        frame.t_pss,
        1,
        [0.0],
        _ci_lead_time(arch, scenario, geom),
    )


def simulate_pss_structure(
    structure: PssSlotStructure,
    geom: SweepGeometry,
    target: tuple[int, int],
    *,
    arch: Architecture | None = None,
    scenario: Scenario | None = None,
    sweep_order: str = SEQUENTIAL_BS_OUTER,
    ci_direction: int | None = None,
    record_events: bool = False,
) -> SimResult:
    """Walk the widened-sync sweep: k directions per base slot.

    Per-symbol transmission times inside a slot follow the structure's cyclic
    prefix layout; detection is still decided at slot end.  Defaults to a
    single-beam receiver with no context information.
    """
    if arch is None:
        arch = build_architecture("ABF")
    if scenario is None:
        scenario = Scenario(kind="nCI")
    return _walk(
        arch,
        scenario,
        geom,
        target,
        sweep_order,
        ci_direction,
        record_events,
        structure.frame.t_pss,
        structure.pss_per_slot,
        slot_symbol_offsets(structure),
        _ci_lead_time(arch, scenario, geom),
    )


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
    group index.  Computed without walking the sweep; _walk is the
    slot-by-slot reference.  Shape (n_bs_directions, n_ms_directions).
    """
    order = _order_code(sweep_order)
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
    t_ci = _ci_lead_time(arch, scenario, geom)
    analytic = total_delay(arch, scenario, geom, frame)
    undiscovered = np.argwhere(grid == 0)
    times = grid * frame.t_pss + t_ci
    worst_flat = int(np.argmax(grid))
    worst = (worst_flat // geom.n_ms_directions, worst_flat % geom.n_ms_directions)
    max_time = float(times.max())
    passed = max_time == analytic and undiscovered.size == 0
    if undiscovered.size:
        worst = tuple(int(x) for x in undiscovered[0])
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
        first_mismatch=None if passed else worst,
    )


def worst_case_structure_delay(
    structure: PssSlotStructure,
    geom: SweepGeometry,
    *,
    arch: Architecture | None = None,
    scenario: Scenario | None = None,
    sweep_order: str = SEQUENTIAL_BS_OUTER,
) -> float:
    """Max discovery time over all targets under the widened-sync layout (s)."""
    if arch is None:
        arch = build_architecture("ABF")
    if scenario is None:
        scenario = Scenario(kind="nCI")
    grid = discovery_slot_grid(
        arch, scenario, geom, sweep_order=sweep_order, k=structure.pss_per_slot
    )
    if (grid == 0).any():
        raise NoDiscoveryError(
            tuple(int(x) for x in np.argwhere(grid == 0)[0]), int(grid.max())
        )
    return float(grid.max()) * structure.frame.t_pss + _ci_lead_time(arch, scenario, geom)


def dump_trace(events: Iterable[SweepEvent], fh: TextIO) -> None:
    """Event log as CSV (time_s, bs_dir, ms_beams, kind); beams pipe-joined."""
    writer = csv.writer(fh)
    writer.writerow(("time_s", "bs_dir", "ms_beams", "kind"))
    for ev in events:
        writer.writerow((repr(ev.time), ev.bs_direction, "|".join(map(str, ev.ms_beam_set)), ev.kind))
