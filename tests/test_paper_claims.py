"""The abstract's ranking claims, over every ADC resolution from 1 to 12 bits.

PAPER.md's abstract claims that ABF is cheapest when the MS position is known
(CInD), that DBF is cheaper than ABF and HBF in the other scenarios, that PSN
is cheapest in some of them, and that this ranking holds whatever the number of
ADC bits.  Acceptance criterion 5 checks the ranking at 6 bits (nCI also at
10).  Here the calibrated model is evaluated at the default 64x16 geometry on
criterion 5's 25-point b_sc grid (15 kHz to 1 GHz), for bits 1-12 and both
ADC classes, and each claim's domain is pinned: where it holds and where it
fails.  A model change that moves any boundary fails a test here.

The one departure: under CID with HPADC converters, ABF is cheaper than DBF at
15 kHz from 9 bits and at every spacing from 10 bits.  DBF pays no CI budget
(its 16 beams see all 16 MS directions), but its 30 converters more than ABF's
cost 64 * 30 * c * 2**bits * 7000 J over the 64-slot sweep at any spacing:
with HPADC's c of 1.248e-11 J, 0.086 J at 9 bits and 0.17 J at 10, against
ABF's 0.15 J budget.  At 15 kHz DBF's higher base power over the 0.32 s sweep
adds 0.098 J, which tips 9 bits too.
"""

import numpy as np
import pytest

from mmwicd import (
    ADC_CLASSES,
    ARCHITECTURE_NAMES,
    SCENARIO_KINDS,
    AdcModel,
    SweepGeometry,
    convergence_value,
    default_architectures,
    default_power_model,
    default_scenarios,
    ec_crossover,
    energy_columns,
)

GEOM = SweepGeometry()
ARCHS = default_architectures()
SCENS = default_scenarios()
GRID = np.logspace(np.log10(15e3), 9.0, 25)
BITS = range(1, 13)


@pytest.fixture(scope="module")
def e_total():
    """{(cls, kind, name): e_total array of shape (bits, b_sc)} under the calibrated model."""
    curves = {}
    for cls in ADC_CLASSES:
        model = default_power_model(cls)
        for kind in SCENARIO_KINDS:
            for name in ARCHITECTURE_NAMES:
                curves[cls, kind, name] = np.array([
                    energy_columns(ARCHS[name], SCENS[kind], AdcModel(cls, bits), GRID,
                                   geom=GEOM, model=model).e_total
                    for bits in BITS])
    return curves


def cheapest(e_total, cls, kind):
    """Name of the cheapest architecture at each (bits, b_sc) point."""
    stacked = np.array([e_total[cls, kind, name] for name in ARCHITECTURE_NAMES])
    return np.array(ARCHITECTURE_NAMES)[stacked.argmin(axis=0)]


@pytest.mark.parametrize("cls", ADC_CLASSES)
def test_nci_orders_dbf_below_hbf_below_abf_everywhere(e_total, cls):
    dbf, hbf, abf = (e_total[cls, "nCI", name] for name in ("DBF", "HBF", "ABF"))
    assert ((dbf < hbf) & (hbf < abf)).all()


@pytest.mark.parametrize("cls", ADC_CLASSES)
def test_cind_cheapest_is_abf_everywhere(e_total, cls):
    assert (cheapest(e_total, cls, "CInD") == "ABF").all()


@pytest.mark.parametrize("cls", ADC_CLASSES)
def test_cid_cheapest_is_dbf_except_hpadc_from_nine_bits(e_total, cls):
    expected = np.full((len(BITS), len(GRID)), "DBF")
    if cls == "HPADC":
        expected[9 - 1, 0] = "ABF"  # 24 of 25 at 9 bits: ABF wins at 15 kHz
        expected[10 - 1:] = "ABF"  # 0 of 25 at 10, 11 and 12 bits
    assert cheapest(e_total, cls, "CID").tolist() == expected.tolist()


@pytest.mark.parametrize("cls", ADC_CLASSES)
def test_cid_departure_is_the_converter_term_against_the_ci_budget(cls):
    # DBF's large-bandwidth excess over ABF is 64 sweeps of 30 more converters:
    # 64 * 30 * c * 2**bits * 7000 J; for HPADC it passes the 0.15 J CI budget at 10 bits
    model, cid = default_power_model(cls), SCENS["CID"]
    budget = cid.p_ci * cid.t_ci
    for bits in BITS:
        adc = AdcModel(cls, bits)
        excess = (convergence_value(ARCHS["DBF"], cid, adc, GEOM, model)
                  - convergence_value(ARCHS["ABF"], cid, adc, GEOM, model))
        assert excess == pytest.approx(64 * 30 * model.c * 2**bits * 7000, rel=1e-12)
        assert (excess > budget) == (cls == "HPADC" and bits >= 10), bits


# How many of the 25 grid points PSN is cheapest at under nCI, at bits 1-12.
PSN_CHEAPEST_NCI = {
    "HPADC": [5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21],
    "LPADC": [0, 0, 1, 2, 4, 5, 7, 8, 10, 11, 13, 14],
}


@pytest.mark.parametrize("cls", ADC_CLASSES)
def test_psn_cheapest_under_nci_exactly_above_the_dbf_psn_crossover(e_total, cls):
    model = default_power_model(cls)
    psn = cheapest(e_total, cls, "nCI") == "PSN"
    for bits, row in zip(BITS, psn):
        crossover = ec_crossover(ARCHS["DBF"], ARCHS["PSN"], SCENS["nCI"], AdcModel(cls, bits),
                                 GEOM, model)
        assert row.tolist() == (GRID > crossover).tolist(), bits
    assert psn.sum(axis=1).tolist() == PSN_CHEAPEST_NCI[cls]
