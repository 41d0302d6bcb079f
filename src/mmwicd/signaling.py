"""Synchronization-signaling timing and bandwidth quantities.

The sync signals occupy a fixed grid of 6 resource blocks (72 sub-carriers)
regardless of the sub-carrier bandwidth, so scaling the sub-carrier bandwidth
up shrinks the transmission period and widens the total system bandwidth in
direct proportion.  All quantities are SI (Hz, s).

The widened-sync layout (the sync sub-carrier alone widened k-fold, so k BS
directions share one slot) needs no frame type of its own: it is the k
argument of the slot count, the sweep and the energy columns, with receive
power drawn at k * b_sc.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

# Reference anchor: 15 kHz sub-carriers transmit the sync signals every 5 ms.
B_SC_REF = 15e3  # Hz
T_PSS_REF = 5e-3  # s
PSS_TIME_SCALE = T_PSS_REF * B_SC_REF  # s*Hz; t_pss * b_sc is held constant

SUBCARRIERS_PER_RB = 12
RBS_FOR_SYNC = 6
# 6 RBs at 15 kHz spacing occupy 1.08 MHz of a 1.4 MHz channel.  Kept as the
# exact ratio (not the rounded 0.7714) so that b_tot * t_pss is exactly
# 12 * 6 * 75 / utilization = 7000 s*Hz, the constant behind the energy
# convergence behaviour.
SYNC_BW_UTILIZATION = 1.08e6 / 1.4e6

# t_pss * b_tot under the defaults; independent of b_sc.
SYNC_TIME_BANDWIDTH = SUBCARRIERS_PER_RB * RBS_FOR_SYNC * PSS_TIME_SCALE / SYNC_BW_UTILIZATION

_B_SC_REFUSED = ("sub-carrier bandwidth must be a finite number > 0, or a one-dimensional "
                 "sequence of them, got {!r}")


class FrameConfig(NamedTuple):
    """Timing/bandwidth quantities derived from one sub-carrier bandwidth."""

    b_sc: float  # Hz, sub-carrier bandwidth
    t_pss: float  # s, sync transmission period (per-direction dwell)
    b_tot: float  # Hz, total system bandwidth (ADC sampling rate driver)


def _real_ok(value) -> bool:
    """The one real-number rule: a Python int or float (not a bool), or a numpy number or
    0-d array of kind i/u/f and at most 64 bits, finite (a float in its width).  A numpy
    value is read through its own dtype and tolist(), so numpy is never imported here."""
    dtype = getattr(value, "dtype", None)
    if dtype is not None:
        if not (dtype.kind in "iuf" and dtype.itemsize <= 8 and value.ndim == 0):
            return False
        value = value.tolist()  # the Python int or float it holds, widened exactly
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _b_sc_ok(b_sc) -> bool:
    """The one bandwidth rule: _real_ok, and > 0."""
    return _real_ok(b_sc) and b_sc > 0


def _b_sc_floats(b_sc) -> tuple[float, ...]:
    """Sub-carrier bandwidths as a tuple of Python floats (b_sc itself when it is one), from
    a one-dimensional numpy array of a dtype _real_ok takes, or an iterable, read once into
    a list, whose entries all pass _real_ok.  A scalar, a 0-d or 2-d array or a sequence of
    arrays is refused as not one-dimensional; frame_scaling checks finite and > 0."""
    if type(b_sc) is tuple and set(map(type, b_sc)) <= {float}:
        return b_sc
    dtype = getattr(b_sc, "dtype", None)
    if dtype is not None:  # a numpy array, read through its dtype and tolist()
        values = b_sc.tolist() if b_sc.ndim == 1 else None
        numbers = dtype.kind in "iuf" and dtype.itemsize <= 8
    else:
        values = list(b_sc) if hasattr(b_sc, "__iter__") else None
        if values is not None and any(getattr(v, "ndim", 0) for v in values):
            values = None
        numbers = values is None or all(map(_real_ok, values))
    if not numbers:
        raise ValueError(f"sub-carrier bandwidths must be numbers a float holds, got {b_sc!r}")
    if values is None:
        raise ValueError(f"sub-carrier bandwidths must be one-dimensional, got {b_sc!r}")
    return tuple(map(float, values))


def _one_value(b_sc) -> bool:
    """Whether b_sc is one value: anything but an iterable, or a 0-d numpy array."""
    return not hasattr(b_sc, "__iter__") or getattr(b_sc, "ndim", 1) == 0


def _checked_b_sc(b_sc):
    """b_sc as a Python float, or as a tuple of them when it is a sequence (see
    _b_sc_floats), every value passing _b_sc_ok; else ValueError."""
    if _one_value(b_sc):
        if not _b_sc_ok(b_sc):
            raise ValueError(_B_SC_REFUSED.format(b_sc))
        return float(b_sc)
    values = _b_sc_floats(b_sc)
    if not all(0 < v < math.inf for v in values):  # Python floats: NaN fails too
        raise ValueError(_B_SC_REFUSED.format(b_sc))
    return values


def frame_scaling(b_sc):
    """(t_pss, b_tot) for one sub-carrier bandwidth, or a tuple of each over a sequence.

    t_pss scales inversely with b_sc (anchored at 15 kHz <-> 5 ms) and b_tot
    grows linearly: b_tot = SUBCARRIERS_PER_RB * RBS_FOR_SYNC * b_sc / SYNC_BW_UTILIZATION.
    The only copy of both formulas; every value computes as a Python float, a numpy one
    or an int included, and a float past range gives inf.
    """
    b_sc = _checked_b_sc(b_sc)
    values = b_sc if type(b_sc) is tuple else (b_sc,)
    t_pss = tuple(PSS_TIME_SCALE / v for v in values)
    b_tot = tuple(SUBCARRIERS_PER_RB * RBS_FOR_SYNC * v / SYNC_BW_UTILIZATION for v in values)
    return (t_pss, b_tot) if type(b_sc) is tuple else (t_pss[0], b_tot[0])


def derive_frame(b_sc: float) -> FrameConfig:
    """Build the frame quantities for one sub-carrier bandwidth (see frame_scaling); a
    sequence, however short, is refused."""
    if not _one_value(b_sc):
        raise ValueError(f"derive_frame takes one sub-carrier bandwidth, got {b_sc!r}")
    t_pss, b_tot = frame_scaling(b_sc)
    return FrameConfig(b_sc=float(b_sc), t_pss=t_pss, b_tot=b_tot)
