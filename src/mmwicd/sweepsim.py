"""Discrete-event simulation of the directional beam sweep.

Independent oracle for the analytic delay formulas, in slots, the unit the
sweep is exact in: the sweep is walked slot by slot and the discovery slot is
whatever the walk produces, never the closed form.  Detection is decided at
the end of a dwell, so discovery lands on slot boundaries.  The widened-sync
layout is the same sweep with k BS directions per dwell.

_sides inverts the walk's slot -> (BS group, beam set) schedule: every pair
is visited exactly once per sweep, so a target's first-alignment slot is a
BS term plus an MS term, and each side's term is one arithmetic form,
start + step * (i // width), whose minimum, maximum and first argmax are
read off in Python ints.  discovery_slot_sides evaluates the forms into two
vectors, and the all-targets grid (discovery_slot_grid) is their outer sum.
The slot-by-slot walk (simulate) is the reference all of them are tested
against.

worst_case_structure_delay and verify_columns' verdict read the slowest slot
from the forms, so they build no vector; the verdict compares it with the
closed-form slot count, one integer comparison per call.  Only verify_columns'
mean reads the grid, one pass over it for a whole b_sc column of means, once
per distinct slot vectors, CI lead and t_pss column within one bounded memo;
verify_against_analytic returns the same VerificationColumns at one b_sc.

This is the only module that uses numpy, and it imports it only inside the
functions that build the slot vectors or the grid or take the mean, so that
every verb but verify, pss included, starts without it.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple, Sequence

from .architectures import (
    ARCHITECTURE_NAMES,
    SCENARIO_KINDS,
    Architecture,
    Scenario,
    SweepGeometry,
    _check_counts,
    _integer_ok,
    ci_cost,
    directional_scans,
)
from .signaling import FrameConfig, _b_sc_floats, frame_scaling

SEQUENTIAL_BS_OUTER = "SequentialBsOuter"
SEQUENTIAL_MS_OUTER = "SequentialMsOuter"
SWEEP_ORDERS = (SEQUENTIAL_BS_OUTER, SEQUENTIAL_MS_OUTER)

# Most float64 discovery times verify_columns holds at once: a block is as
# many b_sc rows of the grid as fit, and one row when a grid is bigger.
_BLOCK_VALUES = 2**20

# verify_columns' means, oldest first, read-only, keyed by what the mean reads:
# the slot vectors (their lengths and a digest, so no per-direction data is
# kept), the CI lead and the t_pss column.  One CLI verify run's calls fit.
_MEANS: dict[tuple, object] = {}
_MEANS_MAX = len(ARCHITECTURE_NAMES) * len(SCENARIO_KINDS) * len(SWEEP_ORDERS)


class _Side(NamedTuple):
    """One side of the slot schedule: of its n directions, direction i is found in
    slot term start + step * (i // width).  The smallest term is start, at i = 0."""

    n: int
    start: int
    step: int
    width: int
    max: int  # start + step * (ceil(n / width) - 1), the last group's term
    argmax: int  # the first direction of the last group, 0 when step == 0


def _sides(
    arch: Architecture, scenario: Scenario, geom: SweepGeometry, sweep_order: str, k: int
) -> tuple[_Side, _Side]:
    """(bs, ms): the slot schedule as two arithmetic forms, in Python ints.

    Target (tb, tm) is seen in the one slot that pairs its BS group (tb // k)
    with its beam set (tm // beams): 0-based slot set * n_groups + group under
    SequentialBsOuter, group * n_sets + set under SequentialMsOuter.  Pinned
    scenarios pin each target to its own set, so only the BS groups are swept
    and the MS term is 0.  The only copy of this schedule, with its checks of
    the order and of k; simulate walks it.
    """
    if sweep_order not in SWEEP_ORDERS:
        raise ValueError(f"unknown sweep order {sweep_order!r}; expected one of {SWEEP_ORDERS}")
    _check_counts(k=k)
    n_bs, n_ms = geom.n_bs_directions, geom.n_ms_directions
    # A group or set wider than its side already holds all of it: no slot moves.
    k, beams = min(int(k), n_bs), min(arch.simultaneous_beams, n_ms)
    n_groups, n_sets = -(-n_bs // k), -(-n_ms // beams)
    if scenario.kind == "nCI":
        bs_step, ms_step = (1, n_groups) if sweep_order == SEQUENTIAL_BS_OUTER else (n_sets, 1)
    else:  # the target's own set alone: one set, so only the BS groups move
        bs_step, ms_step = 1, 0
    sides = []
    for n, start, step, width in ((n_bs, 1, bs_step, k), (n_ms, 0, ms_step, beams)):
        groups = -(-n // width)
        sides.append(_Side(n, start, step, width, start + step * (groups - 1),
                           (groups - 1) * width if step else 0))
    return tuple(sides)


def simulate(
    arch: Architecture,
    scenario: Scenario,
    geom: SweepGeometry,
    target: tuple[int, int],
    sweep_order: str = SEQUENTIAL_BS_OUTER,
    *,
    k: int = 1,
) -> int:
    """Walk the sweep slot by slot; return the 1-based slot in which the target aligns.

    Each dwell pairs a group of k BS directions (k > 1 is the widened-sync
    layout) with one MS beam set.  SequentialBsOuter advances the BS group
    every slot and the beam set once per full BS cycle; SequentialMsOuter is
    the transpose.  CInD/CID pin the beam set to the one containing the
    target's MS direction, so only the BS groups are swept.
    """
    tb, tm = target
    if not all(map(_integer_ok, target)):
        raise ValueError(f"target {target} is not a pair of integer directions")
    if not (0 <= tb < geom.n_bs_directions and 0 <= tm < geom.n_ms_directions):
        raise ValueError(f"target {target} outside geometry {geom}")
    _sides(arch, scenario, geom, sweep_order, k)  # the order and k checks; the walk reads no form
    n_bs, n_ms = geom.n_bs_directions, geom.n_ms_directions
    beams = arch.simultaneous_beams
    n_groups = -(-n_bs // k)
    n_sets = -(-n_ms // beams)
    pinned = -1 if scenario.kind == "nCI" else tm // beams
    eff_sets = 1 if pinned >= 0 else n_sets
    slots_total = n_groups * eff_sets

    for slot in range(slots_total):
        if sweep_order == SEQUENTIAL_BS_OUTER:
            group = slot % n_groups
            set_i = slot // n_groups
        else:
            set_i = slot % eff_sets
            group = slot // eff_sets
        if pinned >= 0:
            set_i = pinned
        bs_group = range(group * k, min(group * k + k, n_bs))
        beam_set = range(set_i * beams, min(set_i * beams + beams, n_ms))
        if tb in bs_group and tm in beam_set:
            return slot + 1
    raise AssertionError(f"a full sweep of {slots_total} slots missed target {target}")


def discovery_slot_sides(
    arch: Architecture,
    scenario: Scenario,
    geom: SweepGeometry,
    *,
    sweep_order: str = SEQUENTIAL_BS_OUTER,
    k: int = 1,
) -> tuple:
    """(bs, ms), numpy int64 vectors over the BS and MS directions: target (tb, tm)
    is found in 1-based slot bs[tb] + ms[tm].  Each is its side's form of the
    schedule (_sides), start + step * (i // width), evaluated at every direction.
    """
    import numpy as np

    return tuple(side.start + side.step * (np.arange(side.n, dtype=np.int64) // side.width)
                 for side in _sides(arch, scenario, geom, sweep_order, k))


def discovery_slot_grid(
    arch: Architecture,
    scenario: Scenario,
    geom: SweepGeometry,
    *,
    sweep_order: str = SEQUENTIAL_BS_OUTER,
    k: int = 1,
):
    """1-based discovery slot for every (bs, ms) target, shape
    (n_bs_directions, n_ms_directions): the outer sum of discovery_slot_sides."""
    bs, ms = discovery_slot_sides(arch, scenario, geom, sweep_order=sweep_order, k=k)
    return bs[:, None] + ms


class VerificationColumns(NamedTuple):
    """The oracle's verdict over a b_sc sequence; the timings as numpy float64 arrays."""

    n_targets: int  # the same at every b_sc, as are passed and first_mismatch
    passed: bool
    first_mismatch: tuple[int, int] | None  # worst target when the check fails
    min_time: object  # s
    mean_time: object  # s
    max_time: object  # s
    analytic_delay: object  # s


def verify_columns(
    arch: Architecture,
    scenario: Scenario,
    geom: SweepGeometry,
    b_sc: Sequence[float],
    *,
    sweep_order: str = SEQUENTIAL_BS_OUTER,
) -> VerificationColumns:
    """Pass when the slowest discovery slot equals the closed-form slot count
    (directional_scans), at each b_sc of a one-dimensional column.

    Each timing equals, bit for bit, the reduction of times = grid * t_pss +
    t_ci at that b_sc.  min and max are the schedule forms' (_sides) summed
    minima and maxima, as x * t_pss + t_ci rounds monotonically in x for
    t_pss > 0, and the worst target (the grid's first row-major argmax) is
    their first argmaxes; no vector is read for them.  Only the mean reads the
    slot vectors: its memo key digests them, and it takes one float row of
    discovery_slot_grid per b_sc, in blocks of whole rows (numpy sums each row
    in the pairwise order of the 1-D array), at most _BLOCK_VALUES values or
    one row when a row is bigger.  It is computed once per distinct slot
    vectors, CI lead and t_pss column, and returned read-only; the other
    fields are derived on every call.  A t_pss past what a timing holds gives
    inf, as the numpy arithmetic does, unwarned.
    """
    import numpy as np

    t_pss, _ = frame_scaling(_b_sc_floats(b_sc))
    bs_side, ms_side = _sides(arch, scenario, geom, sweep_order, 1)
    bs, ms = discovery_slot_sides(arch, scenario, geom, sweep_order=sweep_order)
    t_ci = ci_cost(arch, scenario, geom)[0]
    digest = hashlib.blake2b(bs)
    digest.update(ms)
    key = (bs.size, ms.size, digest.digest(), t_ci, t_pss)
    mean_time, t_pss = _MEANS.get(key), np.array(t_pss, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if mean_time is None:
            flat = discovery_slot_grid(arch, scenario, geom, sweep_order=sweep_order).reshape(1, -1)
            mean_time = np.empty_like(t_pss)
            step = max(1, _BLOCK_VALUES // flat.size)
            for start in range(0, len(t_pss), step):
                rows = slice(start, start + step)
                block = flat * t_pss[rows, None]
                block += t_ci
                mean_time[rows] = block.mean(axis=1)
                del block  # freed before the next block is allocated
            mean_time.setflags(write=False)
            if len(_MEANS) >= _MEANS_MAX:
                del _MEANS[next(iter(_MEANS))]
            _MEANS[key] = mean_time
        worst, scans = bs_side.max + ms_side.max, directional_scans(arch, scenario, geom)
        passed = worst == scans
        return VerificationColumns(
            n_targets=bs_side.n * ms_side.n,
            passed=passed,
            first_mismatch=None if passed else (bs_side.argmax, ms_side.argmax),
            min_time=(bs_side.start + ms_side.start) * t_pss + t_ci,
            mean_time=mean_time,
            max_time=worst * t_pss + t_ci,
            analytic_delay=scans * t_pss + t_ci,
        )


def verify_against_analytic(
    arch: Architecture,
    scenario: Scenario,
    geom: SweepGeometry,
    frame: FrameConfig,
    *,
    sweep_order: str = SEQUENTIAL_BS_OUTER,
) -> VerificationColumns:
    """verify_columns at frame.b_sc alone: its timings are arrays of length 1."""
    return verify_columns(arch, scenario, geom, [frame.b_sc], sweep_order=sweep_order)


def worst_case_structure_delay(
    arch: Architecture,
    scenario: Scenario,
    geom: SweepGeometry,
    frame: FrameConfig,
    *,
    k: int = 1,
) -> float:
    """Max discovery time over all targets with k BS directions per dwell (s),
    from the schedule's forms, so no vector is built at any geometry; either
    sweep order ends in the same last slot, so neither is asked for."""
    bs, ms = _sides(arch, scenario, geom, SEQUENTIAL_BS_OUTER, k)
    return float(bs.max + ms.max) * frame.t_pss + ci_cost(arch, scenario, geom)[0]
