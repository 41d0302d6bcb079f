"""Receiver beamforming architectures, discovery scenarios, and scan counts.

The mobile terminal searches a BS x MS beam grid.  How many directional scans
that takes depends on how many beams the receiver can form simultaneously and
on whether positioning context removes the MS-side half of the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .signaling import FrameConfig

ARCHITECTURE_NAMES = ("ABF", "DBF", "HBF", "PSN")
SCENARIO_KINDS = ("nCI", "CInD", "CID")

DEFAULT_T_CI = 1.5  # s, positioning acquisition delay (assisted-GPS fix budget)
DEFAULT_P_CI = 0.1  # W, receiver draw while acquiring positioning


@dataclass(frozen=True)
class Architecture:
    """One receiver beamforming scheme.

    n_adc counts physical converters; the factor 2 everywhere is the I/Q pair.
    simultaneous_beams is the number of angular directions examined per dwell.
    """

    name: str
    n_ms_antennas: int
    n_rf_chains: int
    n_combiners: int
    n_adc: int
    simultaneous_beams: int

    def __post_init__(self):
        for fname in ("n_ms_antennas", "n_rf_chains", "n_combiners", "n_adc", "simultaneous_beams"):
            if getattr(self, fname) < 1:
                raise ValueError(f"{fname} must be >= 1, got {getattr(self, fname)}")


def build_architecture(
    name: str,
    *,
    n_ms_antennas: int = 16,
    n_rf_chains: int = 4,
    n_combiners: int = 4,
) -> Architecture:
    """Wire up one of the four schemes from its free parameters.

    ABF: single RF chain steering one analog beam at a time.
    DBF: one RF chain per antenna; every direction observed at once.
    HBF: n_rf_chains analog sub-arrays, one beam each.
    PSN: single RF chain behind n_combiners analog combining networks whose
         outputs are compared in the analog domain, so ADC count stays at ABF's.
    """
    if name == "ABF":
        rf, comb, beams, adc = 1, 1, 1, 2
    elif name == "DBF":
        rf, comb, beams, adc = n_ms_antennas, 1, n_ms_antennas, 2 * n_ms_antennas
    elif name == "HBF":
        rf, comb, beams, adc = n_rf_chains, 1, n_rf_chains, 2 * n_rf_chains
    elif name == "PSN":
        rf, comb, beams, adc = 1, n_combiners, n_combiners, 2
    else:
        raise ValueError(f"unknown architecture {name!r}; expected one of {ARCHITECTURE_NAMES}")
    return Architecture(
        name=name,
        n_ms_antennas=n_ms_antennas,
        n_rf_chains=rf,
        n_combiners=comb,
        n_adc=adc,
        simultaneous_beams=beams,
    )


def default_architectures() -> dict[str, Architecture]:
    """The four schemes with the default 16-antenna MS front end."""
    return {name: build_architecture(name) for name in ARCHITECTURE_NAMES}


@dataclass(frozen=True)
class Scenario:
    """Context-information regime for the discovery search.

    nCI: no positioning context; the full BS x MS grid is searched.
    CInD: MS positioning already known; only the BS sweep remains.
    CID: positioning must first be acquired, costing t_ci seconds at p_ci watts.
    """

    kind: str
    t_ci: float = 0.0  # s
    p_ci: float = 0.0  # W


def build_scenario(
    kind: str, *, t_ci: float | None = None, p_ci: float | None = None
) -> Scenario:
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario {kind!r}; expected one of {SCENARIO_KINDS}")
    if kind == "CID":
        t = DEFAULT_T_CI if t_ci is None else float(t_ci)
        p = DEFAULT_P_CI if p_ci is None else float(p_ci)
        if not (math.isfinite(t) and math.isfinite(p)) or t < 0 or p < 0:
            raise ValueError(
                f"CID acquisition delay and power must be finite and >= 0, got t_ci={t}, p_ci={p}"
            )
        return Scenario(kind=kind, t_ci=t, p_ci=p)
    if t_ci not in (None, 0, 0.0) or p_ci not in (None, 0, 0.0):
        raise ValueError(f"{kind} carries no context-acquisition budget")
    return Scenario(kind=kind)


def default_scenarios() -> dict[str, Scenario]:
    return {kind: build_scenario(kind) for kind in SCENARIO_KINDS}


@dataclass(frozen=True)
class SweepGeometry:
    """Angular search grid: one direction per antenna on each side."""

    n_bs_directions: int = 64
    n_ms_directions: int = 16

    def __post_init__(self):
        if self.n_bs_directions < 1 or self.n_ms_directions < 1:
            raise ValueError("direction counts must be >= 1")

    @property
    def search_space(self) -> int:
        return self.n_bs_directions * self.n_ms_directions


def directional_scans(arch: Architecture, scenario: Scenario, geom: SweepGeometry) -> int:
    """Number of dwell periods needed to cover the angular search space.

    Without context the MS must examine all n_bs * n_ms pairs, beams-at-a-time
    (ceiling division for non-divisible beam counts; beams beyond the MS
    direction count cannot help, so they are clamped).  With context the
    MS-side search disappears and only the BS sweep remains.
    """
    if scenario.kind == "nCI":
        beams = min(arch.simultaneous_beams, geom.n_ms_directions)
        return -(-geom.search_space // beams)
    return geom.n_bs_directions


def uses_ci_budget(arch: Architecture, scenario: Scenario, geom: SweepGeometry) -> bool:
    """Whether this configuration actually pays the CID acquisition cost.

    A receiver that already observes every MS direction at once (DBF with a
    full antenna set) gains nothing from positioning context and never spends
    the acquisition delay or power.
    """
    return scenario.kind == "CID" and arch.simultaneous_beams < geom.n_ms_directions


def total_delay(
    arch: Architecture, scenario: Scenario, geom: SweepGeometry, frame: FrameConfig
) -> float:
    """Total discovery delay (s): scan dwells plus any context-acquisition time."""
    t_ci = scenario.t_ci if uses_ci_budget(arch, scenario, geom) else 0.0
    return directional_scans(arch, scenario, geom) * frame.t_pss + t_ci
