"""Receiver power consumption: bundled table lookup and a calibrated linear model.

Everything except the converters draws bandwidth-independent power, so total
power is affine in the total system bandwidth:

    P(arch, b_tot) = base_power[arch] + n_adc(arch) * c * r(bits) * b_tot

where c is the per-class energy per conversion step and r(bits) maps ADC
resolution to conversion steps: 2**bits under the default "exponential" law,
plain bits under "linear" (the resolution_law config key).  Calibration fits
the per-architecture bases and the shared c jointly against the bundled table
by least squares.
"""

from __future__ import annotations

import csv
import functools
import importlib.resources
from dataclasses import dataclass

import numpy as np

from .architectures import Architecture, _check_counts, default_architectures
from .signaling import derive_frame, frame_scaling

ADC_CLASSES = ("LPADC", "HPADC")
RESOLUTION_LAWS = ("exponential", "linear")
TABLE_BITS = 6  # the bundled table was measured with 6-bit converters

_REL_TOL = 1e-9


class PowerTableError(LookupError):
    """Requested point is not in the bundled table; use the parametric model."""


@dataclass(frozen=True)
class AdcModel:
    """Converter class and resolution; the class's energy constant is PowerModel.c."""

    cls: str
    bits: int = TABLE_BITS

    def __post_init__(self):
        if self.cls not in ADC_CLASSES:
            raise ValueError(f"unknown ADC class {self.cls!r}; expected one of {ADC_CLASSES}")
        _check_counts(bits=self.bits)


@dataclass(frozen=True)
class PowerSample:
    architecture: str
    adc_class: str
    b_sc: float  # Hz
    power: float  # W


def resolution_factor(bits: int, law: str = "exponential") -> float:
    """Conversion-step count for a resolution, under the selected law."""
    if law == "exponential":
        return 2.0 ** int(bits)  # a numpy integer would overflow to inf
    if law == "linear":
        return float(bits)
    raise ValueError(f"unknown resolution law {law!r}; expected one of {RESOLUTION_LAWS}")


@functools.cache
def default_power_table() -> list[PowerSample]:
    """The bundled (architecture, adc_class, b_sc_hz, power_w) rows, read once;
    '#' lines are comments."""
    ref = importlib.resources.files("mmwicd").joinpath("data/power_tables.csv")
    with ref.open("r", encoding="utf-8") as fh:
        rows = (line for line in fh if not line.lstrip().startswith("#"))
        return [
            PowerSample(
                architecture=rec["architecture"],
                adc_class=rec["adc_class"],
                b_sc=float(rec["b_sc_hz"]),
                power=float(rec["power_w"]),
            )
            for rec in csv.DictReader(rows)
        ]


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
    shared energy-per-conversion constant recovered from the fit, in J per
    conversion step per Hz of sampling.
    """

    adc_class: str
    c: float
    resolution_law: str
    base_power: dict[str, float]


def calibrate(adc_class: str, *, resolution_law: str = "exponential") -> PowerModel:
    """Fit per-architecture base powers and the shared conversion constant.

    Least squares over the bundled table's rows of the selected ADC class, with
    b_tot derived from each row's b_sc.
    """
    AdcModel(adc_class)  # refuses an unknown class
    r6 = resolution_factor(TABLE_BITS, resolution_law)
    architectures = default_architectures()

    rows = [s for s in default_power_table() if s.adc_class == adc_class]
    arch_names = sorted({s.architecture for s in rows})
    index = {a: i for i, a in enumerate(arch_names)}
    m = len(arch_names)
    design = np.zeros((len(rows), m + 1))
    observed = np.empty(len(rows))
    for r, sample in enumerate(rows):
        design[r, index[sample.architecture]] = 1.0
        design[r, m] = architectures[sample.architecture].n_adc * r6 * derive_frame(sample.b_sc).b_tot
        observed[r] = sample.power

    solution, *_ = np.linalg.lstsq(design, observed, rcond=None)
    return PowerModel(
        adc_class=adc_class,
        c=float(solution[m]),
        resolution_law=resolution_law,
        base_power={a: float(solution[index[a]]) for a in arch_names},
    )


def _check_class(model: PowerModel, adc: AdcModel) -> None:
    """Refuse a model calibrated for another ADC class than the converter's."""
    if model.adc_class != adc.cls:
        raise ValueError(f"model calibrated for {model.adc_class}, got {adc.cls}")


def parametric_power(model: PowerModel, arch: Architecture, adc: AdcModel, b_sc):
    """Model power (W) at any b_sc and resolution for a calibrated class.

    b_sc may be a numpy array, giving the power at each point.
    """
    _check_class(model, adc)
    if arch.name not in model.base_power:
        raise ValueError(f"model was not calibrated for architecture {arch.name}")
    slope = arch.n_adc * model.c * resolution_factor(adc.bits, model.resolution_law)
    return model.base_power[arch.name] + slope * frame_scaling(b_sc)[1]


@functools.cache
def default_power_model(adc_class: str, resolution_law: str = "exponential") -> PowerModel:
    """Calibration of the bundled table, computed once per (class, law)."""
    return calibrate(adc_class, resolution_law=resolution_law)
