"""Energy consumption of the discovery search: power times delay, per configuration.

The receive chain is off while positioning is acquired, so a CID search costs
p_rx over the scan time plus the separate acquisition budget p_ci * t_ci.

energy_columns() evaluates a whole b_sc column of one (architecture,
scenario, ADC) combination in one pass; energy() is its one-point case
and returns the same numbers as an EnergyReport.  Both take the sweep
geometry and the power source explicitly: model=None reads the bundled 6-bit
table (lookup_power), a PowerModel evaluates its calibrated fit
(parametric_power).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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
    _check_model,
    lookup_power,
    parametric_power,
    resolution_factor,
)
from .signaling import SYNC_TIME_BANDWIDTH, _b_sc_floats, derive_frame, frame_scaling

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


class EnergyReport(NamedTuple):
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
        return list(self)


class EnergyColumns(NamedTuple):
    """EnergyReport's numeric columns over a b_sc sequence, as tuples of Python numbers."""

    n_d: tuple[int, ...]  # directional scans (the same at every point)
    t_del: tuple[float, ...]  # s
    p_rx: tuple[float, ...]  # W
    e_ci: tuple[float, ...]  # J
    e_total: tuple[float, ...]  # J


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
    scan count, an exact int.  b_sc is one-dimensional (see _b_sc_floats).
    """
    b_sc = _b_sc_floats(b_sc)
    t_pss, _ = frame_scaling(b_sc)
    n_d = directional_scans(arch, scenario, geom)
    # An int count multiplies as its float; SweepGeometry and the k check keep it in range.
    scans = float(directional_scans(arch, scenario, geom, k))
    scan_time = tuple(scans * t for t in t_pss)
    t_ci, e_ci = ci_cost(arch, scenario, geom)
    wide = b_sc if k == 1 else tuple(float(k) * v for v in b_sc)
    p_rx = (lookup_power(arch, adc, wide) if model is None
            else parametric_power(model, arch, adc, wide))
    return EnergyColumns(
        n_d=(n_d,) * len(b_sc),
        t_del=tuple(t + t_ci for t in scan_time),
        p_rx=p_rx,
        e_ci=(e_ci,) * len(b_sc),
        e_total=tuple(p * t + e_ci for p, t in zip(p_rx, scan_time)),
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
                        *(column[0] for column in columns))


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
    independent of b_sc by construction.  Counts multiply as floats: past float range, inf.
    """
    _check_model(model, adc)
    n_d = float(directional_scans(arch, scenario, geom))
    return n_d * arch.n_adc * model.c * resolution_factor(adc.bits) * SYNC_TIME_BANDWIDTH


def ec_crossover(
    arch_a: Architecture,
    arch_b: Architecture,
    scenario: Scenario,
    adc: AdcModel,
    geom: SweepGeometry,
    model: PowerModel,
) -> float | None:
    """b_sc (Hz) where the two architectures' scan energies are equal.

    Under the parametric model the difference has the form A / b_sc + C with A from
    the base powers and C the difference of the two convergence_value limits; the
    root -A / C is returned, or None when the curves do not cross at a positive bandwidth.
    """
    _check_model(model, adc, arch_a, arch_b)
    c_term = (convergence_value(arch_a, scenario, adc, geom, model)
              - convergence_value(arch_b, scenario, adc, geom, model))
    n_a, n_b = (float(directional_scans(arch, scenario, geom)) for arch in (arch_a, arch_b))
    scale = derive_frame(1.0).t_pss  # t_pss * b_sc, the inverse-proportionality constant
    a_term = scale * (n_a * model.base_power[arch_a.name] - n_b * model.base_power[arch_b.name])
    if c_term == 0:
        return None
    root = -a_term / c_term
    return root if root > 0 else None


class StructureComparison(NamedTuple):
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
