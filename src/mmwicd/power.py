"""Receiver power consumption: bundled table lookup and a calibrated linear model.

Everything except the converters draws bandwidth-independent power, so total
power is affine in the total system bandwidth:

    P(arch, b_tot) = base_power[arch] + n_adc(arch) * c * r(bits) * b_tot

where c is the per-class energy per conversion step and r(bits) maps ADC
resolution to conversion steps (2**bits by default, plain bits behind a flag).
Calibration fits the per-architecture bases and the shared c jointly against
the bundled table by least squares.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .architectures import Architecture, default_architectures
from .signaling import derive_frame, frame_scaling

ADC_CLASSES = ("LPADC", "HPADC")
RESOLUTION_LAWS = ("exponential", "linear")
TABLE_BITS = 6  # the bundled table was measured with 6-bit converters

_REL_TOL = 1e-9


class PowerTableError(LookupError):
    """Requested point is not in the bundled table; use the parametric model."""


class CalibrationError(RuntimeError):
    """The table cannot support a least-squares fit (e.g. a single b_tot)."""


@dataclass(frozen=True)
class AdcModel:
    """Converter class, resolution, and (after calibration) its energy constant."""

    cls: str
    bits: int = TABLE_BITS
    c: float | None = None  # J per conversion step per Hz of sampling

    def __post_init__(self):
        if self.cls not in ADC_CLASSES:
            raise ValueError(f"unknown ADC class {self.cls!r}; expected one of {ADC_CLASSES}")
        if not isinstance(self.bits, (int, np.integer)) or isinstance(self.bits, bool) or self.bits < 1:
            raise ValueError(f"bits must be an integer >= 1, got {self.bits!r}")
        if self.c is not None and (
            isinstance(self.c, bool) or not math.isfinite(self.c) or self.c <= 0
        ):
            raise ValueError(
                f"energy-per-conversion constant must be a finite number > 0, got {self.c!r}"
            )


@dataclass(frozen=True)
class PowerSample:
    architecture: str
    adc_class: str
    b_sc: float  # Hz
    power: float  # W


def resolution_factor(bits: int, law: str = "exponential") -> float:
    """Conversion-step count for a resolution, under the selected law."""
    if law == "exponential":
        return 2.0 ** bits
    if law == "linear":
        return float(bits)
    raise ValueError(f"unknown resolution law {law!r}; expected one of {RESOLUTION_LAWS}")


def load_power_table(path=None) -> list[PowerSample]:
    """Load (architecture, adc_class, b_sc_hz, power_w) rows; '#' lines are comments."""
    if path is None:
        ref = importlib.resources.files("mmwicd").joinpath("data/power_tables.csv")
        with ref.open("r", encoding="utf-8") as fh:
            return _parse_table(fh)
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_table(fh)


def _parse_table(fh) -> list[PowerSample]:
    rows = (line for line in fh if not line.lstrip().startswith("#"))
    samples = []
    for rec in csv.DictReader(rows):
        samples.append(
            PowerSample(
                architecture=rec["architecture"],
                adc_class=rec["adc_class"],
                b_sc=float(rec["b_sc_hz"]),
                power=float(rec["power_w"]),
            )
        )
    if not samples:
        raise PowerTableError("power table is empty")
    return samples


_DEFAULT_TABLE: list[PowerSample] | None = None


def default_power_table() -> list[PowerSample]:
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = load_power_table()
    return _DEFAULT_TABLE


def lookup_power(
    arch: Architecture,
    adc: AdcModel,
    b_sc: float,
) -> float:
    """Exact bundled-table entry for (architecture, ADC class, b_sc); 6-bit only."""
    if adc.bits != TABLE_BITS:
        raise PowerTableError(
            f"table holds {TABLE_BITS}-bit measurements, not {adc.bits}-bit; "
            "use the parametric model"
        )
    for sample in default_power_table():
        if (
            sample.architecture == arch.name
            and sample.adc_class == adc.cls
            and abs(sample.b_sc - b_sc) <= _REL_TOL * max(abs(sample.b_sc), abs(b_sc))
        ):
            return sample.power
    raise PowerTableError(
        f"no table entry for ({arch.name}, {adc.cls}, b_sc={b_sc!r} Hz); "
        "use the parametric model"
    )


@dataclass(frozen=True)
class PowerModel:
    """Calibrated affine power model for one ADC class.

    base_power holds the bandwidth-independent watts per architecture; c is the
    shared energy-per-conversion constant recovered from the fit.  adc_slope()
    reconstructs the per-architecture W/Hz term at any resolution.
    """

    adc_class: str
    c: float
    resolution_law: str
    bits_ref: int
    base_power: dict[str, float]
    n_adc: dict[str, int]
    max_rel_residual: float
    residuals: dict[tuple[str, float], float] = field(default_factory=dict)

    def adc_slope(self, arch_name: str, bits: int | None = None) -> float:
        """ADC power per Hz of total bandwidth for one architecture."""
        bits = self.bits_ref if bits is None else bits
        return self.n_adc[arch_name] * self.c * resolution_factor(bits, self.resolution_law)

    def evaluate(self, arch: Architecture, bits: int, b_tot: float, c: float | None = None) -> float:
        c = self.c if c is None else c
        slope = arch.n_adc * c * resolution_factor(bits, self.resolution_law)
        return self.base_power[arch.name] + slope * b_tot


def calibrate(
    table: Iterable[PowerSample],
    adc_class: str,
    *,
    resolution_law: str = "exponential",
) -> PowerModel:
    """Fit per-architecture base powers and the shared conversion constant.

    Least squares over all rows of the selected ADC class, with b_tot derived
    from each row's b_sc.  Needs at least two distinct b_tot values overall;
    a table quoting a single bandwidth is singular and rejected.
    """
    if adc_class not in ADC_CLASSES:
        raise ValueError(f"unknown ADC class {adc_class!r}; expected one of {ADC_CLASSES}")
    resolution_factor(TABLE_BITS, resolution_law)  # validate the law early
    architectures = default_architectures()

    rows = [s for s in table if s.adc_class == adc_class]
    if not rows:
        raise CalibrationError(f"no table rows for ADC class {adc_class}")
    arch_names = sorted({s.architecture for s in rows})
    unknown = [a for a in arch_names if a not in architectures]
    if unknown:
        raise CalibrationError(f"table references unknown architectures: {unknown}")
    counts = {a: sum(1 for s in rows if s.architecture == a) for a in arch_names}
    thin = [a for a, n in counts.items() if n < 2]
    if thin:
        raise CalibrationError(f"need >= 2 rows per architecture, too few for: {thin}")

    r6 = resolution_factor(TABLE_BITS, resolution_law)
    index = {a: i for i, a in enumerate(arch_names)}
    m = len(arch_names)
    design = np.zeros((len(rows), m + 1))
    observed = np.empty(len(rows))
    for r, sample in enumerate(rows):
        design[r, index[sample.architecture]] = 1.0
        design[r, m] = architectures[sample.architecture].n_adc * r6 * derive_frame(sample.b_sc).b_tot
        observed[r] = sample.power

    rank = np.linalg.matrix_rank(design)
    if rank < m + 1:
        raise CalibrationError(
            "singular calibration: table does not span multiple total bandwidths"
        )
    solution, *_ = np.linalg.lstsq(design, observed, rcond=None)
    predicted = design @ solution
    rel = (predicted - observed) / observed
    residuals = {(s.architecture, s.b_sc): float(e) for s, e in zip(rows, rel)}

    return PowerModel(
        adc_class=adc_class,
        c=float(solution[m]),
        resolution_law=resolution_law,
        bits_ref=TABLE_BITS,
        base_power={a: float(solution[index[a]]) for a in arch_names},
        n_adc={a: architectures[a].n_adc for a in arch_names},
        max_rel_residual=float(np.abs(rel).max()),
        residuals=residuals,
    )


def parametric_power(model: PowerModel, arch: Architecture, adc: AdcModel, b_sc):
    """Model power (W) at any b_sc and resolution for a calibrated class.

    b_sc may be a numpy array, giving the power at each point.
    """
    if model.adc_class != adc.cls:
        raise ValueError(f"model calibrated for {model.adc_class}, got {adc.cls}")
    if arch.name not in model.base_power:
        raise CalibrationError(f"model was not calibrated for architecture {arch.name}")
    return model.evaluate(arch, adc.bits, frame_scaling(b_sc)[1], c=adc.c)


_MODEL_CACHE: dict[tuple[str, str], PowerModel] = {}


def default_power_model(adc_class: str, resolution_law: str = "exponential") -> PowerModel:
    """Calibration of the bundled table, cached per (class, law)."""
    key = (adc_class, resolution_law)
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = calibrate(
            default_power_table(), adc_class, resolution_law=resolution_law
        )
    return _MODEL_CACHE[key]


def calibration_report(model: PowerModel) -> dict:
    """JSON-ready summary: per-architecture base/slope, residuals, recovered c."""
    return {
        "adc_class": model.adc_class,
        "resolution_law": model.resolution_law,
        "bits_ref": model.bits_ref,
        "c_j_per_step_hz": model.c,
        "max_rel_residual": model.max_rel_residual,
        "architectures": {
            name: {
                "base_power_w": model.base_power[name],
                "n_adc": model.n_adc[name],
                "adc_slope_w_per_hz": model.adc_slope(name),
            }
            for name in sorted(model.base_power)
        },
        "residuals": [
            {"architecture": a, "b_sc_hz": b, "rel_residual": e}
            for (a, b), e in sorted(model.residuals.items())
        ],
    }
