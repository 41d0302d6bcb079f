import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwicd import (
    ADC_CLASSES,
    ARCHITECTURE_NAMES,
    SCENARIO_KINDS,
    AdcModel,
    PowerModel,
    PowerTableError,
    SweepGeometry,
    convergence_value,
    default_power_model,
    derive_frame,
    directional_scans,
    ec_crossover,
    energy,
    energy_columns,
    proposed_structure_energy,
)
from mmwicd.signaling import SYNC_TIME_BANDWIDTH

from conftest import TABULATED_B_SC, rel_err, scalar_energy


class TestEnergySpotValues:
    def test_abf_no_context(self, archs, scens, geom):
        report = energy(archs["ABF"], scens["nCI"], AdcModel("HPADC"), 15e3, geom=geom, model=None)
        # 1.0 W over 1024 scans of 5 ms
        assert rel_err(report.e_total, 5.12) < 1e-9
        assert report.n_d == 1024
        assert report.e_ci == 0.0

    def test_dbf_no_context(self, archs, scens, geom):
        report = energy(archs["DBF"], scens["nCI"], AdcModel("HPADC"), 15e3, geom=geom, model=None)
        assert rel_err(report.e_total, 1.31 * 64 * (75 / 15e3)) < 1e-9
        assert rel_err(report.e_total, 0.4192) < 1e-9

    def test_abf_with_acquisition(self, archs, scens, geom):
        report = energy(archs["ABF"], scens["CID"], AdcModel("HPADC"), 15e3, geom=geom, model=None)
        # 1.0 W x 0.32 s of scanning plus 0.1 W x 1.5 s of positioning
        assert rel_err(report.e_total, 0.47) < 1e-9
        assert report.e_ci == pytest.approx(0.15, rel=1e-12)
        assert report.t_del == pytest.approx(1.82, rel=1e-12)

    def test_dbf_pays_no_acquisition(self, archs, scens, geom):
        report = energy(archs["DBF"], scens["CID"], AdcModel("HPADC"), 15e3, geom=geom, model=None)
        assert report.e_ci == 0.0
        assert report.t_del == pytest.approx(0.32, rel=1e-12)

    def test_scan_energy_excludes_acquisition_time(self, archs, scens, geom):
        # receive power is not drawn while positioning is acquired
        report = energy(archs["HBF"], scens["CID"], AdcModel("LPADC"), 15e3, geom=geom, model=None)
        scan_time = report.t_del - 1.5
        assert report.e_total == pytest.approx(report.p_rx * scan_time + report.e_ci, rel=1e-12)

    def test_lookup_missing_point_raises(self, archs, scens, geom):
        with pytest.raises(PowerTableError):
            energy(archs["ABF"], scens["nCI"], AdcModel("HPADC"), 123e3, geom=geom, model=None)


def _columns_as_points(columns):
    assert all(type(column) is tuple for column in columns)
    return list(zip(*columns))


class TestEnergyColumns:
    @settings(max_examples=100, deadline=None)
    @given(
        b_sc=st.lists(st.floats(1e3, 1e9), min_size=1, max_size=20),
        name=st.sampled_from(ARCHITECTURE_NAMES),
        kind=st.sampled_from(SCENARIO_KINDS),
        cls=st.sampled_from(ADC_CLASSES),
        bits=st.integers(1, 12),
        n_bs=st.integers(1, 100),
        n_ms=st.integers(1, 40),
    )
    def test_parametric_equals_scalar_arithmetic(self, archs, scens, b_sc, name, kind, cls, bits,
                                                 n_bs, n_ms):
        # Non-power-of-two scan counts, so that a reordered product rounds differently.
        arch, scenario, adc = archs[name], scens[kind], AdcModel(cls, bits=bits)
        geom = SweepGeometry(n_bs, n_ms)
        columns = energy_columns(arch, scenario, adc, b_sc, geom=geom,
                                 model=default_power_model(cls))
        assert _columns_as_points(columns) == [
            scalar_energy(arch, scenario, adc, b, "parametric", geom) for b in b_sc
        ]

    @pytest.mark.parametrize("cls", ADC_CLASSES)
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    @pytest.mark.parametrize("name", ARCHITECTURE_NAMES)
    def test_lookup_equals_scalar_arithmetic(self, archs, scens, geom, name, kind, cls):
        arch, scenario, adc = archs[name], scens[kind], AdcModel(cls)
        columns = energy_columns(arch, scenario, adc, TABULATED_B_SC, geom=geom, model=None)
        assert _columns_as_points(columns) == [
            scalar_energy(arch, scenario, adc, b, "lookup", geom) for b in TABULATED_B_SC
        ]

    def test_energy_is_the_one_point_case(self, archs, scens, geom):
        adc, model = AdcModel("LPADC", bits=9), default_power_model("LPADC")
        columns = energy_columns(archs["HBF"], scens["CID"], adc, [33e3, 2e6], geom=geom,
                                 model=model)
        for i, b_sc in enumerate((33e3, 2e6)):
            report = energy(archs["HBF"], scens["CID"], adc, b_sc, geom=geom, model=model)
            assert report.csv_row()[5:] == [column[i] for column in columns]
            assert type(report.n_d) is int and type(report.e_total) is float

    @pytest.mark.parametrize("model", [None, "parametric"])
    def test_scan_count_past_int64_is_exact(self, archs, scens, model):
        # 2**40 x 2**40 targets: 2**80 scans, held exactly, with a finite delay
        geom, adc = SweepGeometry(2**40, 2**40), AdcModel("HPADC")
        model = model and default_power_model("HPADC")
        columns = energy_columns(archs["ABF"], scens["nCI"], adc, [15e3, 250e3], geom=geom,
                                 model=model)
        assert columns.n_d == (2**80, 2**80)
        assert all(map(math.isfinite, columns.t_del))
        report = energy(archs["ABF"], scens["nCI"], adc, 15e3, geom=geom, model=model)
        assert report.n_d == 2**80 and type(report.n_d) is int
        assert math.isfinite(report.t_del) and report.t_del == columns.t_del[0]

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_widened_sync_equals_scalar_arithmetic(self, archs, scens, kind, k):
        adc = AdcModel("HPADC", bits=7)
        geom = SweepGeometry(60, 12)  # scan counts that are not powers of two
        for name in ARCHITECTURE_NAMES:
            arch, scenario = archs[name], scens[kind]
            for base in (250e3, 33e3, 7e5):
                proposed = proposed_structure_energy(arch, scenario, adc, base, k, geom=geom,
                                                     model=default_power_model("HPADC")).proposed
                assert tuple(proposed.csv_row()[5:]) == scalar_energy(
                    arch, scenario, adc, base, "parametric", geom, k=k
                )

    @pytest.mark.parametrize(
        "bad", [[math.nan], [15e3, math.inf], [True], [15e3, np.bool_(True)], [10**400],
                np.array([True]), np.array([10**400], dtype=object), np.array([np.nan]),
                15e3, np.array(15e3), np.array([[15e3, 250e3]]), [[15e3, 250e3]],
                [np.array([15e3, 250e3])]],
        ids=["nan", "inf", "bool", "numpy-bool", "int-past-float-range",
             "bool-array", "object-array", "nan-array",
             "scalar", "0-d-array", "2-d-array", "list-of-lists", "list-of-arrays"],
    )
    def test_rejects_bad_bandwidth(self, archs, scens, geom, bad):
        with pytest.raises(ValueError):
            energy_columns(archs["ABF"], scens["nCI"], AdcModel("HPADC"), bad, geom=geom,
                           model=default_power_model("HPADC"))


class TestConvergence:
    @pytest.mark.parametrize("cls", ADC_CLASSES)
    @pytest.mark.parametrize("bits", range(1, 13))
    def test_single_beam_architectures_share_limit(self, archs, scens, geom, cls, bits):
        values = {
            name: convergence_value(archs[name], scens["nCI"], AdcModel(cls, bits=bits), geom,
                                    default_power_model(cls))
            for name in ARCHITECTURE_NAMES
        }
        assert rel_err(values["DBF"], values["ABF"]) < 1e-9
        assert rel_err(values["HBF"], values["ABF"]) < 1e-9
        assert rel_err(values["PSN"], values["ABF"] / 4) < 1e-9

    def test_limit_magnitude(self, archs, scens, geom):
        # frozen from an independent evaluation of scans x converters x c x 2^6 x 7000
        value = convergence_value(archs["ABF"], scens["nCI"], AdcModel("HPADC"), geom,
                                  default_power_model("HPADC"))
        assert rel_err(value, 1.145128e-2) < 5e-2

    def test_closed_form(self, archs, geom, scens):
        model = default_power_model("HPADC")
        adc = AdcModel("HPADC", bits=9)
        for name in ARCHITECTURE_NAMES:
            arch = archs[name]
            expected = (directional_scans(arch, scens["nCI"], geom)
                        * arch.n_adc * model.c * 2.0**9 * SYNC_TIME_BANDWIDTH)
            assert convergence_value(arch, scens["nCI"], adc, geom, model) == pytest.approx(
                expected, rel=1e-12)

    def test_parametric_energy_approaches_limit(self, archs, scens, geom):
        # high-power class: the converter term dominates from ~10 GHz up
        for name in ARCHITECTURE_NAMES:
            limit = convergence_value(archs[name], scens["nCI"], AdcModel("HPADC"), geom,
                                      default_power_model("HPADC"))
            report = energy(archs[name], scens["nCI"], AdcModel("HPADC"), 10e9, geom=geom,
                            model=default_power_model("HPADC"))
            assert rel_err(report.e_total, limit) < 0.01

    def test_low_power_class_converges_further_out(self, archs, scens, geom):
        # smaller converter constant: base power stays visible until ~1 THz
        for name in ARCHITECTURE_NAMES:
            limit = convergence_value(archs[name], scens["nCI"], AdcModel("LPADC"), geom,
                                      default_power_model("LPADC"))
            report = energy(archs[name], scens["nCI"], AdcModel("LPADC"), 1e12, geom=geom,
                            model=default_power_model("LPADC"))
            assert rel_err(report.e_total, limit) < 0.01

    def test_class_mismatch_raises(self, archs, scens, geom):
        with pytest.raises(ValueError):
            convergence_value(archs["ABF"], scens["nCI"], AdcModel("LPADC"), geom,
                              default_power_model("HPADC"))


class TestCrossover:
    def test_dbf_psn_crossover_positions(self, archs, scens, geom):
        model = default_power_model("HPADC")
        b6 = ec_crossover(archs["DBF"], archs["PSN"], scens["nCI"], AdcModel("HPADC", bits=6),
                          geom, model)
        b10 = ec_crossover(archs["DBF"], archs["PSN"], scens["nCI"], AdcModel("HPADC", bits=10),
                           geom, model)
        # frozen from an independent root solve of the energy difference
        assert rel_err(b6, 4.8267e6) < 1e-3
        assert rel_err(b10, 0.30167e6) < 1e-3
        assert b10 < b6

    @pytest.mark.parametrize("cls", ADC_CLASSES)
    @pytest.mark.parametrize("bits", [6, 10])
    def test_energies_equal_at_crossover(self, archs, scens, geom, cls, bits):
        adc = AdcModel(cls, bits=bits)
        model = default_power_model(cls)
        b_star = ec_crossover(archs["DBF"], archs["PSN"], scens["nCI"], adc, geom, model)
        e_dbf = energy(archs["DBF"], scens["nCI"], adc, b_star, geom=geom, model=model)
        e_psn = energy(archs["PSN"], scens["nCI"], adc, b_star, geom=geom, model=model)
        assert rel_err(e_dbf.e_total, e_psn.e_total) < 1e-9

    def test_class_mismatch_raises(self, archs, scens, geom):
        # An HPADC fit would give the HPADC crossover (4.83 MHz), not the LPADC one.
        with pytest.raises(ValueError):
            ec_crossover(archs["DBF"], archs["PSN"], scens["nCI"], AdcModel("LPADC"), geom,
                         default_power_model("HPADC"))

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_uncalibrated_architecture_raises_as_parametric_power_does(self, archs, scens, geom,
                                                                       side):
        model = default_power_model("HPADC")
        without_psn = PowerModel(model.adc_class, model.c,
                                 {name: w for name, w in model.base_power.items() if name != "PSN"})
        pair = (archs["PSN"], archs["DBF"]) if side == "a" else (archs["DBF"], archs["PSN"])
        with pytest.raises(ValueError, match="model was not calibrated for architecture PSN"):
            ec_crossover(*pair, scens["nCI"], AdcModel("HPADC"), geom, without_psn)

    def test_same_architecture_has_no_crossover(self, archs, scens, geom):
        assert ec_crossover(archs["DBF"], archs["DBF"], scens["nCI"], AdcModel("HPADC"), geom,
                            default_power_model("HPADC")) is None


class TestProposedStructure:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 16])
    def test_energy_matches_widened_baseline(self, archs, scens, geom, k):
        comparison = proposed_structure_energy(
            archs["ABF"], scens["nCI"], AdcModel("HPADC"), 250e3, k,
            geom=geom, model=default_power_model("HPADC"),
        )
        if 64 % k == 0:
            assert rel_err(comparison.proposed.e_total, comparison.baseline.e_total) < 1e-9
        else:
            # the last of ceil(64 / k) BS groups is partly filled but takes a whole dwell
            ratio = comparison.proposed.e_total / comparison.baseline.e_total
            assert ratio == pytest.approx(math.ceil(64 / k) * k / 64, abs=1e-9)
        assert comparison.proposed.b_sc == 250e3
        assert comparison.baseline.b_sc == k * 250e3

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_delay_shrinks_by_k(self, archs, scens, geom, k):
        args = (archs["ABF"], scens["nCI"], AdcModel("HPADC"), 250e3)
        kwargs = dict(geom=geom, model=default_power_model("HPADC"))
        base = proposed_structure_energy(*args, 1, **kwargs)
        comparison = proposed_structure_energy(*args, k, **kwargs)
        assert comparison.proposed.t_del == pytest.approx(base.proposed.t_del / k, rel=1e-12)

    def test_acquisition_time_not_accelerated(self, archs, scens, geom):
        comparison = proposed_structure_energy(
            archs["ABF"], scens["CID"], AdcModel("HPADC"), 250e3, 8,
            geom=geom, model=default_power_model("HPADC"),
        )
        scan = 64 * derive_frame(250e3).t_pss / 8
        assert comparison.proposed.t_del == pytest.approx(scan + 1.5, rel=1e-12)
        assert comparison.proposed.e_ci == pytest.approx(0.15, rel=1e-12)

    def test_energy_strictly_decreasing_in_k(self, archs, scens, geom):
        for name in ARCHITECTURE_NAMES:
            totals = [
                proposed_structure_energy(
                    archs[name], scens["nCI"], AdcModel("HPADC"), 250e3, k,
                    geom=geom, model=default_power_model("HPADC"),
                ).proposed.e_total
                for k in (1, 2, 4, 8, 16)
            ]
            assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_power_sampled_at_widened_bandwidth(self, archs, scens, geom):
        comparison = proposed_structure_energy(
            archs["DBF"], scens["nCI"], AdcModel("LPADC"), 250e3, 4, geom=geom, model=None
        )
        # 4 x 250 kHz lands on the 1 MHz table entry
        assert comparison.proposed.p_rx == 1.37

    @pytest.mark.parametrize("bad", [0, -2, 1.5, True])
    def test_rejects_bad_k(self, archs, scens, geom, bad):
        with pytest.raises(ValueError):
            proposed_structure_energy(archs["ABF"], scens["nCI"], AdcModel("HPADC"), 250e3, bad,
                                      geom=geom, model=default_power_model("HPADC"))
