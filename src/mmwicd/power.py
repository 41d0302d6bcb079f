"""Receiver power consumption: bundled table lookup and a calibrated affine model.

Everything except the converters draws bandwidth-independent power, so total
power is affine in the total system bandwidth:

    P(arch, b_tot) = base_power[arch] + n_adc(arch) * c * r(bits) * b_tot

where c is the per-class energy per conversion step (a Walden-style figure
of merit) and r(bits) = 2**bits is the number of conversion steps at that ADC
resolution.  Calibration fits the per-architecture bases and the shared c
jointly against the bundled table by least squares.

default_power_table() reads the bundled table once, on first use, as the
file's four columns keyed by their titles, in file order: architecture and
adc_class (str), b_sc_hz and power_w (float64, Hz and W), all read-only.
Lookup, fit and printed tables each select their rows with a mask.
"""

from __future__ import annotations

import functools
import importlib.resources
import types
from typing import NamedTuple

import numpy as np

from .architectures import Architecture, _check_counts, _Checked, default_architectures
from .signaling import _B_SC_REFUSED, _b_sc_ok, frame_scaling

ADC_CLASSES = ("LPADC", "HPADC")
TABLE_BITS = 6  # the bundled table was measured with 6-bit converters


class PowerTableError(LookupError):
    """The table did not measure this receiver, resolution or b_sc; use the parametric model."""


class _AdcModelFields(NamedTuple):
    cls: str
    bits: int


class AdcModel(_Checked, _AdcModelFields):
    """Converter class and resolution; the class's energy constant is PowerModel.c."""

    __slots__ = ()

    def __new__(_cls, cls: str, bits: int = TABLE_BITS):
        if cls not in ADC_CLASSES:
            raise ValueError(f"unknown ADC class {cls!r}; expected one of {ADC_CLASSES}")
        _check_counts(bits=bits)
        return super().__new__(_cls, cls, int(bits))


def resolution_factor(bits: int) -> float:
    """Conversion-step count for a resolution: 2**bits, OverflowError past float range."""
    return 2.0 ** int(bits)  # a numpy integer would overflow to inf


@functools.cache
def default_power_table() -> types.MappingProxyType[str, np.ndarray]:
    """The bundled table's columns (see the module docstring); '#' lines are comments.

    The file is plain comma-separated text: a header naming the columns, then
    one row per line, with no quoted cell; a blank line is skipped.
    """
    ref = importlib.resources.files("mmwicd").joinpath("data/power_tables.csv")
    header, *rows = (line.split(",") for line in ref.read_text(encoding="utf-8").splitlines()
                     if line.strip() and not line.lstrip().startswith("#"))
    table = dict(zip(header, map(np.array, zip(*rows))))
    for title in ("b_sc_hz", "power_w"):
        table[title] = table[title].astype(np.float64)
    for column in table.values():  # every caller shares the cached columns
        column.flags.writeable = False
    return types.MappingProxyType(table)


def lookup_power(arch: Architecture, adc: AdcModel, b_sc):
    """Exact bundled-table entry for (architecture, ADC class, b_sc); 6-bit only.

    b_sc may be a numpy array, giving the entry at each point.  What
    parametric_power refuses raises its ValueError; PowerTableError refuses
    another resolution, a receiver that differs from default_architectures()[name],
    and a point that equals no table spacing (every point, for a pair it lacks), naming the first.
    """
    if not _b_sc_ok(b_sc):
        raise ValueError(_B_SC_REFUSED.format(b_sc))
    if adc.bits != TABLE_BITS:
        raise PowerTableError(
            f"table holds {TABLE_BITS}-bit measurements, not {adc.bits}-bit; "
            "use the parametric model"
        )
    measured = default_architectures().get(arch.name, arch)
    if arch != measured:
        raise PowerTableError(
            f"the lookup table measured {arch.name} with {measured.n_adc} converters and "
            f"{measured.simultaneous_beams} simultaneous beams, not {arch.n_adc} and "
            f"{arch.simultaneous_beams}; use the parametric model"
        )
    table = default_power_table()
    points = np.asarray(b_sc, dtype=np.float64)[..., None]
    match = ((table["architecture"] == arch.name) & (table["adc_class"] == adc.cls)
             & (table["b_sc_hz"] == points))
    missing = points[~match.any(axis=-1)]
    if missing.size:
        raise PowerTableError(
            f"no table entry for ({arch.name}, {adc.cls}, b_sc={float(missing[0, 0])!r} Hz); "
            "use the parametric model"
        )
    power = table["power_w"][match.argmax(axis=-1)]
    return power if isinstance(b_sc, np.ndarray) else float(power)


class PowerModel(NamedTuple):
    """Calibrated affine power model for one ADC class.

    base_power holds the bandwidth-independent watts per architecture, read-only
    since default_power_model shares one model per class; c is the
    shared energy-per-conversion constant recovered from the fit, in J per
    conversion step per Hz of sampling.  A converter at b bits sampling b_tot
    draws c * 2**b * b_tot.
    """

    adc_class: str
    c: float
    base_power: types.MappingProxyType[str, float]


def calibrate(adc_class: str) -> PowerModel:
    """Fit per-architecture base powers and the shared conversion constant.

    Least squares over the bundled table's rows of the selected ADC class, in
    file order, with b_tot derived from each row's b_sc.
    """
    AdcModel(adc_class)  # refuses an unknown class
    architectures = default_architectures()
    table = default_power_table()
    rows = table["adc_class"] == adc_class
    arch_names, arch_index = np.unique(table["architecture"][rows], return_inverse=True)
    # One indicator column per architecture (its base power), then the converter term.
    n_adc = np.array([architectures[name].n_adc for name in arch_names])[arch_index]
    slope = n_adc * resolution_factor(TABLE_BITS) * frame_scaling(table["b_sc_hz"][rows])[1]
    design = np.column_stack([np.eye(len(arch_names))[arch_index], slope])

    solution, *_ = np.linalg.lstsq(design, table["power_w"][rows], rcond=None)
    return PowerModel(
        adc_class=adc_class,
        c=float(solution[-1]),
        base_power=types.MappingProxyType(dict(zip(arch_names.tolist(), solution[:-1].tolist()))),
    )


def _check_model(model: PowerModel, adc: AdcModel, *archs: Architecture) -> None:
    """Refuse a model calibrated for another ADC class, or not for one of archs."""
    if model.adc_class != adc.cls:
        raise ValueError(f"model calibrated for {model.adc_class}, got {adc.cls}")
    for arch in archs:
        if arch.name not in model.base_power:
            raise ValueError(f"model was not calibrated for architecture {arch.name}")


def parametric_power(model: PowerModel, arch: Architecture, adc: AdcModel, b_sc):
    """Model power (W) at any b_sc and resolution for a calibrated class.

    b_sc may be a numpy array, giving the power at each point.
    """
    _check_model(model, adc, arch)
    slope = arch.n_adc * model.c * resolution_factor(adc.bits)
    return model.base_power[arch.name] + slope * frame_scaling(b_sc)[1]


@functools.cache
def default_power_model(adc_class: str) -> PowerModel:
    """Calibration of the bundled table, computed once per class."""
    return calibrate(adc_class)
