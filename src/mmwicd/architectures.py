"""Receiver beamforming architectures, discovery scenarios, and scan counts.

The mobile terminal searches a BS x MS beam grid.  How many directional scans
that takes depends on how many beams the receiver can form simultaneously and
on whether positioning context removes the MS-side half of the search.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .signaling import FrameConfig, _real_ok

ARCHITECTURE_NAMES = ("ABF", "DBF", "HBF", "PSN")
SCENARIO_KINDS = ("nCI", "CInD", "CID")

DEFAULT_T_CI = 1.5  # s, positioning acquisition delay (assisted-GPS fix budget)
DEFAULT_P_CI = 0.1  # W, receiver draw while acquiring positioning


def _integer_ok(value) -> bool:
    """The one integer rule: a Python or numpy integer, as operator.index takes it, not a bool."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


def _count_ok(value) -> bool:
    """The one count rule: _real_ok, and an integer >= 1 (_integer_ok)."""
    return _real_ok(value) and _integer_ok(value) and value >= 1


def _check_counts(**counts) -> None:
    """Raise ValueError naming the first keyword whose value fails _count_ok.

    Also the only check of k, the BS directions sharing one dwell: the slot
    count, the discovery grid and the walk call it, and every other function
    taking k reaches it through one of them.
    """
    for name, value in counts.items():
        if not _count_ok(value):
            raise ValueError(f"{name} must be an integer >= 1 that a float holds, got {value!r}")


class _Checked:
    """Base of a validated record, a named tuple whose __new__ checks its fields.

    _make, and with it _replace, builds through the class, not tuple.__new__,
    so no way to build the record skips the check; copy and pickle call
    __new__ with the fields.  Each __new__ names its first parameter _cls, as
    collections.namedtuple does, so a field may be called cls.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _ArchitectureFields(NamedTuple):
    name: str
    n_adc: int
    simultaneous_beams: int


class Architecture(_Checked, _ArchitectureFields):
    """One receiver beamforming scheme, as the delay and energy models read it.

    simultaneous_beams is the number of MS directions examined per dwell;
    n_adc counts physical converters, two per RF chain (the I/Q pair).
    """

    __slots__ = ()

    def __new__(_cls, name: str, n_adc: int, simultaneous_beams: int):
        _check_counts(n_adc=n_adc, simultaneous_beams=simultaneous_beams)
        # Held as Python ints: numpy ones wrap at 2**63 in the models' products.
        return super().__new__(_cls, name, int(n_adc), int(simultaneous_beams))


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

    All three counts are checked whichever scheme is built.
    """
    _check_counts(n_ms_antennas=n_ms_antennas, n_rf_chains=n_rf_chains, n_combiners=n_combiners)
    wiring = {  # (RF chains, simultaneous beams)
        "ABF": (1, 1),
        "DBF": (n_ms_antennas, n_ms_antennas),
        "HBF": (n_rf_chains, n_rf_chains),
        "PSN": (1, n_combiners),
    }
    if name not in wiring:
        raise ValueError(f"unknown architecture {name!r}; expected one of {ARCHITECTURE_NAMES}")
    rf, beams = wiring[name]
    return Architecture(name=str(name), n_adc=2 * int(rf), simultaneous_beams=beams)


def default_architectures() -> dict[str, Architecture]:
    """The four schemes with the default 16-antenna MS front end."""
    return {name: build_architecture(name) for name in ARCHITECTURE_NAMES}


class _ScenarioFields(NamedTuple):
    kind: str
    t_ci: float  # s
    p_ci: float  # W


class Scenario(_Checked, _ScenarioFields):
    """Context-information regime for the discovery search.

    nCI: no positioning context; the full BS x MS grid is searched.
    CInD: MS positioning already known; only the BS sweep remains.
    CID: positioning is first acquired: t_ci seconds at p_ci watts, held as Python floats.
    """

    __slots__ = ()

    def __new__(_cls, kind: str, t_ci: float = 0.0, p_ci: float = 0.0):
        t, p = t_ci, p_ci
        if not (_real_ok(t) and _real_ok(p)):
            raise ValueError(f"CI budget must be two finite numbers, got t_ci={t!r}, p_ci={p!r}")
        t, p = float(t), float(p)  # Python floats, as Architecture holds ints
        if kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario {kind!r}; expected one of {SCENARIO_KINDS}")
        kind = str(kind)  # a str subclass such as numpy's str_ is held as the str
        if kind != "CID" and (t, p) != (0.0, 0.0):
            raise ValueError(f"{kind} carries no context-acquisition budget")
        if min(t, p) < 0:
            raise ValueError("CID acquisition delay and power must be finite and >= 0, "
                             f"got t_ci={t}, p_ci={p}")
        return super().__new__(_cls, kind, t, p)


def default_scenarios() -> dict[str, Scenario]:
    """The three scenarios, CID with the paper's DEFAULT_T_CI at DEFAULT_P_CI."""
    return {kind: Scenario(kind, DEFAULT_T_CI, DEFAULT_P_CI) if kind == "CID" else Scenario(kind)
            for kind in SCENARIO_KINDS}


class _SweepGeometryFields(NamedTuple):
    n_bs_directions: int
    n_ms_directions: int


class SweepGeometry(_Checked, _SweepGeometryFields):
    """Angular search grid: one direction per antenna on each side."""

    __slots__ = ()

    def __new__(_cls, n_bs_directions: int = 64, n_ms_directions: int = 16):
        _check_counts(n_bs_directions=n_bs_directions, n_ms_directions=n_ms_directions)
        n_bs, n_ms = int(n_bs_directions), int(n_ms_directions)  # as in Architecture
        _check_counts(n_targets=n_bs * n_ms)  # caps scan counts
        return super().__new__(_cls, n_bs, n_ms)


def directional_scans(
    arch: Architecture, scenario: Scenario, geom: SweepGeometry, k: int = 1
) -> int:
    """Number of dwell periods the sweep walks to cover the angular search space.

    Each dwell pairs one group of k BS directions (k > 1 is the widened-sync
    layout) with one MS beam set of simultaneous_beams directions; a partly
    filled last group or set still takes a whole dwell.  Without context the
    walk visits every pair: ceil(n_bs / k) * ceil(n_ms / beams).  With
    context the MS beam set is known and only the ceil(n_bs / k) BS groups
    remain.  This is the only closed-form slot count.
    """
    _check_counts(k=k)
    groups = -(-geom.n_bs_directions // int(k))  # a Python int k: numpy ones wrap at 2**63
    if scenario.kind == "nCI":
        return groups * -(-geom.n_ms_directions // arch.simultaneous_beams)
    return groups


def ci_cost(arch: Architecture, scenario: Scenario, geom: SweepGeometry) -> tuple[float, float]:
    """(t_ci, e_ci): context-acquisition delay (s) and energy (J) paid before the sweep.

    This is the whole CI rule.  Only CID pays, and only a receiver that cannot
    already observe every MS direction at once: DBF with a full antenna set
    gains nothing from positioning context and never spends the acquisition
    delay or power.  Otherwise both are 0.0; the sweep's k never shortens them.
    """
    if scenario.kind == "CID" and arch.simultaneous_beams < geom.n_ms_directions:
        return scenario.t_ci, scenario.p_ci * scenario.t_ci
    return 0.0, 0.0


def total_delay(
    arch: Architecture, scenario: Scenario, geom: SweepGeometry, frame: FrameConfig, k: int = 1
) -> float:
    """Total discovery delay (s): scan dwells plus any context-acquisition time."""
    t_ci, _ = ci_cost(arch, scenario, geom)
    return directional_scans(arch, scenario, geom, k) * frame.t_pss + t_ci
