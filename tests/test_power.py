import numpy as np
import pytest

from mmwicd import (
    ADC_CLASSES,
    ARCHITECTURE_NAMES,
    AdcModel,
    CalibrationError,
    PowerSample,
    PowerTableError,
    build_architecture,
    calibrate,
    default_power_model,
    default_power_table,
    derive_frame,
    lookup_power,
    parametric_power,
    resolution_factor,
)

from conftest import TABULATED_B_SC, rel_err


class TestPowerTable:
    def test_shape(self):
        table = default_power_table()
        assert len(table) == 40
        for cls in ADC_CLASSES:
            for name in ARCHITECTURE_NAMES:
                rows = [s for s in table if s.adc_class == cls and s.architecture == name]
                assert sorted(s.b_sc for s in rows) == sorted(TABULATED_B_SC)

    def test_spot_measurements(self):
        table = {(s.architecture, s.adc_class, s.b_sc): s.power for s in default_power_table()}
        assert table[("DBF", "HPADC", 15e3)] == 1.31
        assert table[("DBF", "HPADC", 10e6)] == 25.1616
        assert table[("ABF", "LPADC", 15e3)] == 0.996
        assert table[("PSN", "HPADC", 10e6)] == 3.978


class TestLookup:
    def test_all_forty_entries_exact(self, archs):
        for sample in default_power_table():
            adc = AdcModel(sample.adc_class)
            assert lookup_power(archs[sample.architecture], adc, sample.b_sc) == sample.power

    def test_missing_bandwidth_raises(self, archs):
        with pytest.raises(PowerTableError):
            lookup_power(archs["ABF"], AdcModel("HPADC"), 123e3)

    def test_non_table_resolution_raises(self, archs):
        with pytest.raises(PowerTableError):
            lookup_power(archs["ABF"], AdcModel("HPADC", bits=8), 15e3)


class TestResolutionFactor:
    def test_laws(self):
        assert resolution_factor(6) == 64.0
        assert resolution_factor(10) == 1024.0
        assert resolution_factor(6, "linear") == 6.0
        with pytest.raises(ValueError):
            resolution_factor(6, "cubic")


def converter_slope(model, arch):
    """Converter power per Hz of total bandwidth at the table's 6 bits (W/Hz),
    read off PowerModel.evaluate at 1 THz, where the converter term dominates."""
    return (model.evaluate(arch, 6, 1e12) - model.base_power[arch.name]) / 1e12


class TestCalibration:
    @pytest.mark.parametrize("cls", ADC_CLASSES)
    def test_parametric_reproduces_table(self, cls, archs):
        model = default_power_model(cls)
        for sample in default_power_table():
            if sample.adc_class != cls:
                continue
            modeled = parametric_power(model, archs[sample.architecture], AdcModel(cls), sample.b_sc)
            assert rel_err(modeled, sample.power) <= 0.05

    def test_recovered_constants(self):
        # frozen from an independent least-squares run over the bundled table
        hp = default_power_model("HPADC")
        lp = default_power_model("LPADC")
        assert hp.c == pytest.approx(1.248091e-11, rel=1e-5)
        assert lp.c == pytest.approx(4.936052e-13, rel=1e-5)
        assert hp.base_power["DBF"] == pytest.approx(1.302799, rel=1e-5)
        assert lp.base_power["ABF"] == pytest.approx(0.996723, rel=1e-5)

    def test_slope_against_two_point_estimate(self, archs):
        # independent slope estimate from the DBF end points of the table
        table = {(s.architecture, s.b_sc): s.power for s in default_power_table()
                 if s.adc_class == "HPADC"}
        d_power = table[("DBF", 10e6)] - table[("DBF", 15e3)]
        d_b_tot = derive_frame(10e6).b_tot - derive_frame(15e3).b_tot
        model = default_power_model("HPADC")
        assert rel_err(converter_slope(model, archs["DBF"]), d_power / d_b_tot) <= 0.05

    def test_slope_ratios_track_converter_counts(self, archs):
        # shared energy constant makes slopes exactly proportional to n_adc
        for cls in ADC_CLASSES:
            model = default_power_model(cls)
            abf = converter_slope(model, archs["ABF"])
            assert converter_slope(model, archs["DBF"]) == pytest.approx(16 * abf, rel=1e-12)
            assert converter_slope(model, archs["HBF"]) == pytest.approx(4 * abf, rel=1e-12)
            assert converter_slope(model, archs["PSN"]) == pytest.approx(abf, rel=1e-12)

    def test_resolution_extrapolation(self, archs):
        model = default_power_model("HPADC")
        p6 = parametric_power(model, archs["ABF"], AdcModel("HPADC", bits=6), 15e3)
        p10 = parametric_power(model, archs["ABF"], AdcModel("HPADC", bits=10), 15e3)
        # the converter term scales by 2**4 between 6 and 10 bits
        slope_part6 = p6 - model.base_power["ABF"]
        slope_part10 = p10 - model.base_power["ABF"]
        assert slope_part10 == pytest.approx(16 * slope_part6, rel=1e-9)

    def test_array_bandwidths_match_scalar_calls(self, archs):
        model = default_power_model("LPADC")
        adc = AdcModel("LPADC", bits=3)
        b_sc = [15e3, 41e3, 2.5e6, 7e8]
        powers = parametric_power(model, archs["PSN"], adc, np.array(b_sc))
        assert powers.tolist() == [parametric_power(model, archs["PSN"], adc, b) for b in b_sc]

    def test_class_mismatch_raises(self, archs):
        model = default_power_model("HPADC")
        with pytest.raises(ValueError):
            parametric_power(model, archs["ABF"], AdcModel("LPADC"), 15e3)

    def test_single_bandwidth_table_rejected(self):
        rows = [PowerSample(name, "HPADC", 15e3, 1.0) for name in ARCHITECTURE_NAMES]
        with pytest.raises(CalibrationError):
            calibrate(rows, "HPADC")


class TestAdcModelValidation:
    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError):
            AdcModel("MPADC")

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            AdcModel("HPADC", bits=0)

    @pytest.mark.parametrize("bad", [True, 6.5], ids=["bool", "fraction"])
    def test_rejects_non_integer_bits(self, bad):
        with pytest.raises(ValueError):
            AdcModel("HPADC", bits=bad)
