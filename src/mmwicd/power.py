"""Receiver power consumption: bundled table lookup and a calibrated affine model.

Everything except the converters draws bandwidth-independent power, so total
power is affine in the total system bandwidth:

    P(arch, b_tot) = base_power[arch] + n_adc(arch) * c * r(bits) * b_tot

where c is the per-class energy per conversion step (a Walden-style figure
of merit) and r(bits) = 2**bits is the number of conversion steps at that ADC
resolution.  The per-architecture bases and the shared c are a joint least-squares
fit to the bundled table, pinned here as the constants numpy's lstsq gave
(see calibrate), so no output reads a numerical library.

default_power_table() reads the bundled table once, on first use, as the
file's four columns keyed by their titles, in file order: architecture and
adc_class (str), b_sc_hz and power_w (float, Hz and W), each a tuple.
Lookup and printed tables each select their rows by class.  Both power sources
take one sub-carrier bandwidth, giving a float, or a sequence, giving a tuple.
"""

from __future__ import annotations

import functools
import importlib.resources
import types
from typing import NamedTuple

from .architectures import Architecture, _check_counts, _Checked, default_architectures
from .signaling import _checked_b_sc, frame_scaling

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
        return super().__new__(_cls, str(cls), int(bits))  # a str_ is held as the str


def resolution_factor(bits: int) -> float:
    """Conversion-step count for a resolution: 2**bits, OverflowError past float range."""
    return 2.0 ** int(bits)  # a numpy integer would overflow to inf


@functools.cache
def default_power_table() -> types.MappingProxyType[str, tuple]:
    """The bundled table's columns (see the module docstring); '#' lines are comments.

    The file is plain comma-separated text: a header naming the columns, then
    one row per line, with no quoted cell; a blank line is skipped.
    """
    ref = importlib.resources.files("mmwicd").joinpath("data/power_tables.csv")
    header, *rows = (line.split(",") for line in ref.read_text(encoding="utf-8").splitlines()
                     if line.strip() and not line.lstrip().startswith("#"))
    table = dict(zip(header, zip(*rows)))
    for title in ("b_sc_hz", "power_w"):
        table[title] = tuple(map(float, table[title]))
    return types.MappingProxyType(table)


def lookup_power(arch: Architecture, adc: AdcModel, b_sc):
    """Exact bundled-table entry for (architecture, ADC class, b_sc); 6-bit only.

    b_sc may be a sequence, giving a tuple of the entries at its points.  What
    parametric_power refuses raises its ValueError; PowerTableError refuses
    another resolution, a receiver that differs from default_architectures()[name],
    and a point that equals no table spacing (every point, for a pair it lacks), naming the first.
    """
    b_sc = _checked_b_sc(b_sc)
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
    entries = {}  # spacing -> power of this pair's rows, the first row of a spacing
    for name, cls, spacing, power in zip(table["architecture"], table["adc_class"],
                                         table["b_sc_hz"], table["power_w"]):
        if name == arch.name and cls == adc.cls:
            entries.setdefault(spacing, power)
    points = b_sc if type(b_sc) is tuple else (b_sc,)
    missing = [point for point in points if point not in entries]
    if missing:
        raise PowerTableError(
            f"no table entry for ({arch.name}, {adc.cls}, b_sc={missing[0]!r} Hz); "
            "use the parametric model"
        )
    power = tuple(map(entries.__getitem__, points))
    return power if type(b_sc) is tuple else power[0]


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


# calibrate's constants: per ADC class, c and the base power of each architecture, in
# name order.  They are the least-squares solution over the bundled table's rows of the
# class that numpy 2.4.6's lstsq gives, with one indicator column per architecture and a
# converter column n_adc * 2**TABLE_BITS * b_tot; tests/test_power.py refits them.
_FIT = {
    "LPADC": ("0x1.15e0000000000p-41", {
        "ABF": "0x1.fe528cdd5dfecp-1", "DBF": "0x1.46a5d368b0462p+0",
        "HBF": "0x1.36975cf107292p+1", "PSN": "0x1.266a72e2251e3p+1"}),
    "HPADC": ("0x1.b722000000000p-37", {
        "ABF": "0x1.fe7380004f71ep-1", "DBF": "0x1.4d83a1cded62cp+0",
        "HBF": "0x1.358ec78472820p+1", "PSN": "0x1.3e0c7335e6267p+1"}),
}


def calibrate(adc_class: str) -> PowerModel:
    """Per-architecture base powers and the shared conversion constant of one ADC class.

    The pinned least-squares fit of the bundled table (see _FIT), a new model each call.
    """
    adc_class = AdcModel(adc_class).cls  # refuses an unknown class
    c, base_power = _FIT[adc_class]
    return PowerModel(
        adc_class=adc_class,
        c=float.fromhex(c),
        base_power=types.MappingProxyType({name: float.fromhex(watts)
                                           for name, watts in base_power.items()}),
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

    b_sc may be a sequence, giving a tuple of the power at each point.
    """
    _check_model(model, adc, arch)
    slope = arch.n_adc * model.c * resolution_factor(adc.bits)
    base, b_tot = model.base_power[arch.name], frame_scaling(b_sc)[1]
    power = tuple(base + slope * value for value in (b_tot if type(b_tot) is tuple else (b_tot,)))
    return power if type(b_tot) is tuple else power[0]


@functools.cache
def default_power_model(adc_class: str) -> PowerModel:
    """Calibration of the bundled table, computed once per class."""
    return calibrate(adc_class)
