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

import sys
from typing import NamedTuple

import numpy as np

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

_B_SC_REFUSED = ("sub-carrier bandwidth must be a finite number > 0, or a numpy array of them, "
                 "got {!r}")


class FrameConfig(NamedTuple):
    """Timing/bandwidth quantities derived from one sub-carrier bandwidth."""

    b_sc: float  # Hz, sub-carrier bandwidth
    t_pss: float  # s, sync transmission period (per-direction dwell)
    b_tot: float  # Hz, total system bandwidth (ADC sampling rate driver)


def _real_ok(value) -> bool:
    """The one real-number rule: a Python int or float (not a bool), or a numpy number or
    array of kind i/u/f and at most 64 bits, every value finite (a float in its width)."""
    if isinstance(value, (np.ndarray, np.generic)):
        dtype = value.dtype
        return dtype.kind in "iuf" and dtype.itemsize <= 8 and bool(np.isfinite(value).all())
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _b_sc_ok(b_sc) -> bool:
    """The one bandwidth rule: _real_ok, and every value > 0."""
    return _real_ok(b_sc) and bool(np.greater(b_sc, 0).all())


def _b_sc_array(b_sc) -> np.ndarray:
    """Sub-carrier bandwidths as a one-dimensional float64 array (b_sc itself when it is one),
    from a numpy array of a dtype _real_ok takes or an iterable, read once into a list, whose
    entries all pass _real_ok.  A scalar, a 0-d or 2-d array or a sequence of arrays is
    refused as not one-dimensional; frame_scaling checks > 0."""
    values = b_sc if isinstance(b_sc, np.ndarray) or not np.iterable(b_sc) else list(b_sc)
    if isinstance(values, np.ndarray):
        numbers = values.dtype.kind in "iuf" and values.dtype.itemsize <= 8
    else:
        numbers = all(map(_real_ok, values if np.iterable(values) else [values]))
    if not numbers:
        raise ValueError(f"sub-carrier bandwidths must be numbers a float holds, got {b_sc!r}")
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"sub-carrier bandwidths must be one-dimensional, got {b_sc!r}")
    return array


def frame_scaling(b_sc):
    """(t_pss, b_tot) for one sub-carrier bandwidth, or elementwise for a numpy array.

    t_pss scales inversely with b_sc (anchored at 15 kHz <-> 5 ms) and b_tot
    grows linearly: b_tot = SUBCARRIERS_PER_RB * RBS_FOR_SYNC * b_sc / SYNC_BW_UTILIZATION.
    The only copy of both formulas; numpy input computes in float64, a Python int as a float.
    """
    if not _b_sc_ok(b_sc):
        raise ValueError(_B_SC_REFUSED.format(b_sc))
    b_sc = (b_sc.astype(np.float64, copy=False) if isinstance(b_sc, (np.ndarray, np.generic))
            else float(b_sc))
    return PSS_TIME_SCALE / b_sc, SUBCARRIERS_PER_RB * RBS_FOR_SYNC * b_sc / SYNC_BW_UTILIZATION


def derive_frame(b_sc: float) -> FrameConfig:
    """Build the frame quantities for a sub-carrier bandwidth (see frame_scaling)."""
    t_pss, b_tot = frame_scaling(b_sc)
    return FrameConfig(b_sc=float(b_sc), t_pss=float(t_pss), b_tot=float(b_tot))

