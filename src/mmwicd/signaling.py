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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class FrameConfig:
    """Timing/bandwidth quantities derived from one sub-carrier bandwidth."""

    b_sc: float  # Hz, sub-carrier bandwidth
    t_pss: float  # s, sync transmission period (per-direction dwell)
    b_tot: float  # Hz, total system bandwidth (ADC sampling rate driver)


def _check_b_sc(b_sc) -> None:
    if isinstance(b_sc, np.ndarray):
        ok = b_sc.dtype.kind in "iuf" and bool(np.all(np.isfinite(b_sc) & (b_sc > 0)))
    else:
        ok = not isinstance(b_sc, (bool, np.bool_)) and math.isfinite(b_sc) and b_sc > 0
    if not ok:
        raise ValueError(f"sub-carrier bandwidth must be a finite number > 0, got {b_sc!r}")


def frame_scaling(b_sc):
    """(t_pss, b_tot) for one sub-carrier bandwidth, or elementwise for a numpy array.

    t_pss scales inversely with b_sc (anchored at 15 kHz <-> 5 ms) and b_tot
    grows linearly: b_tot = SUBCARRIERS_PER_RB * RBS_FOR_SYNC * b_sc / SYNC_BW_UTILIZATION.
    This is the only copy of both formulas.
    """
    _check_b_sc(b_sc)
    return PSS_TIME_SCALE / b_sc, SUBCARRIERS_PER_RB * RBS_FOR_SYNC * b_sc / SYNC_BW_UTILIZATION


def derive_frame(b_sc: float) -> FrameConfig:
    """Build the frame quantities for a sub-carrier bandwidth (see frame_scaling)."""
    t_pss, b_tot = frame_scaling(b_sc)
    return FrameConfig(b_sc=float(b_sc), t_pss=t_pss, b_tot=b_tot)

