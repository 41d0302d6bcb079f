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
from .signaling import frame_scaling

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


def lookup_power(arch: Architecture, adc: AdcModel, b_sc):
    """Exact bundled-table entry for (architecture, ADC class, b_sc); 6-bit only.

    b_sc may be a numpy array, giving the entry at each point; a point the
    table does not hold raises, naming the first such point.
    """
    if adc.bits != TABLE_BITS:
        raise PowerTableError(
            f"table holds {TABLE_BITS}-bit measurements, not {adc.bits}-bit; "
            "use the parametric model"
        )
    rows = [s for s in default_power_table()
            if s.architecture == arch.name and s.adc_class == adc.cls]
    spacings = np.array([s.b_sc for s in rows])
    points = np.asarray(b_sc, dtype=np.float64)[..., None]
    match = np.abs(spacings - points) <= _REL_TOL * np.maximum(np.abs(spacings), np.abs(points))
    missing = points[~match.any(axis=-1)]
    if missing.size:
        raise PowerTableError(
            f"no table entry for ({arch.name}, {adc.cls}, b_sc={float(missing[0, 0])!r} Hz); "
            "use the parametric model"
        )
    power = np.array([s.power for s in rows])[match.argmax(axis=-1)]
    return power if isinstance(b_sc, np.ndarray) else float(power)


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
    architectures = default_architectures()
    names, b_sc, observed = zip(*[(s.architecture, s.b_sc, s.power)
                                  for s in default_power_table() if s.adc_class == adc_class])
    arch_names, arch_index = np.unique(names, return_inverse=True)
    # One indicator column per architecture (its base power), then the converter term.
    n_adc = np.array([architectures[name].n_adc for name in arch_names])[arch_index]
    slope = n_adc * resolution_factor(TABLE_BITS, resolution_law) * frame_scaling(np.array(b_sc))[1]
    design = np.column_stack([np.eye(len(arch_names))[arch_index], slope])

    solution, *_ = np.linalg.lstsq(design, np.array(observed), rcond=None)
    return PowerModel(
        adc_class=adc_class,
        c=float(solution[-1]),
        resolution_law=resolution_law,
        base_power=dict(zip(arch_names.tolist(), solution[:-1].tolist())),
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
