"""Energy consumption of the discovery search: power times delay, per configuration.

The receive chain is off while positioning is acquired, so a CID search costs
p_rx over the scan time plus the separate acquisition budget p_ci * t_ci.

energy_columns() evaluates a whole b_sc column of one (architecture,
scenario, ADC) combination in one numpy pass; energy() is its one-point case
and returns the same numbers as an EnergyReport.  Both take the sweep
geometry and the power source explicitly: model=None reads the bundled 6-bit
table (lookup_power), a PowerModel evaluates its calibrated fit
(parametric_power).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .architectures import (
    Architecture,
    Scenario,
    SweepGeometry,
    ci_cost,
    directional_scans,
)
from .power import (
    AdcModel,
    PowerModel,
    _check_class,
    lookup_power,
    parametric_power,
    resolution_factor,
)
from .signaling import SYNC_TIME_BANDWIDTH, derive_frame, frame_scaling

# Fixed export schema for energy grids.
CSV_COLUMNS = (
    "arch",
    "scenario",
    "adc_class",
    "bits",
    "b_sc_hz",
    "n_d",
    "t_del_s",
    "p_rx_w",
    "e_ci_j",
    "e_total_j",
)


@dataclass(frozen=True)
class EnergyReport:
    """Delay, power, and energy for one (architecture, scenario, ADC, b_sc) point."""

    arch: str
    scenario: str
    adc_class: str
    bits: int
    b_sc: float  # Hz
    n_d: int  # directional scans
    t_del: float  # s, total delay incl. any context acquisition
    p_rx: float  # W, receive power during the scan
    e_ci: float  # J, context-acquisition energy
    e_total: float  # J

    def csv_row(self) -> list:
        """Field values in CSV_COLUMNS order."""
        return [self.arch, self.scenario, self.adc_class, self.bits, self.b_sc,
                self.n_d, self.t_del, self.p_rx, self.e_ci, self.e_total]


class EnergyColumns(NamedTuple):
    """EnergyReport's numeric columns over a b_sc sequence, as numpy arrays."""

    n_d: np.ndarray  # int64, directional scans (the same at every point)
    t_del: np.ndarray  # s
    p_rx: np.ndarray  # W
    e_ci: np.ndarray  # J
    e_total: np.ndarray  # J


def energy_columns(
    arch: Architecture,
    scenario: Scenario,
    adc: AdcModel,
    b_sc: Sequence[float],
    *,
    k: int = 1,
    geom: SweepGeometry,
    model: PowerModel | None,
) -> EnergyColumns:
    """Delay, power and energy at every b_sc of one configuration, in one pass.

    Receive power comes from the bundled 6-bit table when model is None, else
    from the calibrated model.  Each value equals the scalar evaluation bit for
    bit: scan time directional_scans(..., k) * t_pss, receive power at b_tot,
    e_total = p_rx * scan time + e_ci.  k > 1 is the widened-sync layout of
    proposed_structure_energy: k BS directions share a dwell and power is
    drawn at k * b_sc; directional_scans checks k.  n_d is the plain (k = 1)
    scan count.
    """
    if not {bool, np.bool_}.isdisjoint(map(type, b_sc)):
        raise ValueError(f"sub-carrier bandwidths must be numbers, got {b_sc!r}")
    b_sc = np.asarray(b_sc, dtype=np.float64)
    t_pss, _ = frame_scaling(b_sc)
    n_d = directional_scans(arch, scenario, geom)
    scan_time = directional_scans(arch, scenario, geom, k) * t_pss
    t_ci, e_ci = ci_cost(arch, scenario, geom)
    if model is None:
        p_rx = np.array([lookup_power(arch, adc, b) for b in (k * b_sc).tolist()])
    else:
        p_rx = parametric_power(model, arch, adc, k * b_sc)
    return EnergyColumns(
        n_d=np.full(b_sc.shape, n_d, dtype=np.int64),
        t_del=scan_time + t_ci,
        p_rx=p_rx,
        e_ci=np.full(b_sc.shape, e_ci),
        e_total=p_rx * scan_time + e_ci,
    )


def energy(
    arch: Architecture,
    scenario: Scenario,
    adc: AdcModel,
    b_sc: float,
    *,
    k: int = 1,
    geom: SweepGeometry,
    model: PowerModel | None,
) -> EnergyReport:
    """Full energy report for one configuration point (energy_columns at one b_sc)."""
    columns = energy_columns(arch, scenario, adc, [b_sc], k=k, geom=geom, model=model)
    return EnergyReport(arch.name, scenario.kind, adc.cls, adc.bits, float(b_sc),
                        *(column[0].item() for column in columns))


def convergence_value(
    arch: Architecture,
    scenario: Scenario,
    adc: AdcModel,
    geom: SweepGeometry,
    model: PowerModel,
) -> float:
    """Large-bandwidth limit of the scan energy (J).

    Only the converter term survives: scans * n_adc * c * r(bits) * (b_tot * t_pss),
    using the analytically constant time-bandwidth product, so the value is
    independent of b_sc by construction.
    """
    _check_class(model, adc)
    n_d = directional_scans(arch, scenario, geom)
    return n_d * arch.n_adc * model.c * resolution_factor(adc.bits, model.resolution_law) * SYNC_TIME_BANDWIDTH


def ec_crossover(
    arch_a: Architecture,
    arch_b: Architecture,
    scenario: Scenario,
    adc: AdcModel,
    geom: SweepGeometry,
    model: PowerModel,
) -> float | None:
    """b_sc (Hz) where the two architectures' scan energies are equal.

    Under the parametric model the difference has the form A / b_sc + C with
    A from the base powers and C from the converter terms; the root -A / C is
    returned, or None when the curves do not cross at a positive bandwidth.
    """
    _check_class(model, adc)
    r = resolution_factor(adc.bits, model.resolution_law)
    n_a = directional_scans(arch_a, scenario, geom)
    n_b = directional_scans(arch_b, scenario, geom)
    scale = derive_frame(1.0).t_pss  # t_pss * b_sc, the inverse-proportionality constant
    a_term = scale * (n_a * model.base_power[arch_a.name] - n_b * model.base_power[arch_b.name])
    c_term = SYNC_TIME_BANDWIDTH * model.c * r * (n_a * arch_a.n_adc - n_b * arch_b.n_adc)
    if c_term == 0:
        return None
    root = -a_term / c_term
    return root if root > 0 else None


@dataclass(frozen=True)
class StructureComparison:
    """Wide-band sync slot layout vs. running everything at the widened bandwidth.

    The proposed layout widens only the sync sub-carrier by k, packing k sync
    symbols per dwell, so the sweep finishes in about 1/k of the time while
    data traffic keeps the narrow sub-carrier.  The baseline widens b_sc for
    all signaling instead.  When k divides the BS direction count the scan
    energies coincide and the difference is the bandwidth the receiver must
    sustain outside discovery.  Otherwise the partly filled last BS group
    still takes a whole dwell, and the proposed scan energy is
    ceil(n_bs / k) * k / n_bs times the baseline's.
    """

    proposed: EnergyReport
    baseline: EnergyReport
    energy_ratio: float  # proposed e_total / baseline e_total


def proposed_structure_energy(
    arch: Architecture,
    scenario: Scenario,
    adc: AdcModel,
    base_b_sc: float,
    k: int,
    *,
    geom: SweepGeometry,
    model: PowerModel | None,
) -> StructureComparison:
    """Energy of discovery under the k-fold wide-band sync layout.

    The receiver samples the widened sync signal, so power is evaluated at
    k * base_b_sc; k BS directions share each dwell, so the sweep takes
    directional_scans(..., k) dwells of t_pss.  Context acquisition, when
    paid, is not accelerated by k.
    """
    proposed = energy(arch, scenario, adc, base_b_sc, k=k, geom=geom, model=model)
    baseline = energy(arch, scenario, adc, k * base_b_sc, geom=geom, model=model)
    return StructureComparison(
        proposed=proposed,
        baseline=baseline,
        energy_ratio=proposed.e_total / baseline.e_total,
    )
