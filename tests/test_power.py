import re

import numpy as np
import pytest

from mmwicd import (
    ADC_CLASSES,
    ARCHITECTURE_NAMES,
    AdcModel,
    Architecture,
    PowerTableError,
    Scenario,
    SweepGeometry,
    build_architecture,
    calibrate,
    default_power_model,
    default_power_table,
    derive_frame,
    energy_columns,
    frame_scaling,
    lookup_power,
    parametric_power,
    resolution_factor,
)

from conftest import TABULATED_B_SC, rel_err, table_rows


class TestPowerTable:
    def test_shape(self):
        table = default_power_table()
        assert list(table) == ["architecture", "adc_class", "b_sc_hz", "power_w"]
        assert {len(column) for column in table.values()} == {40}
        assert [set(map(type, column)) for column in table.values()] == [{str}, {str}, {float},
                                                                          {float}]
        for cls in ADC_CLASSES:
            for name in ARCHITECTURE_NAMES:
                spacings = [b_sc for row_name, row_cls, b_sc, _ in table_rows()
                            if (row_name, row_cls) == (name, cls)]
                assert sorted(spacings) == sorted(TABULATED_B_SC)

    def test_columns_are_read_only(self):
        table = default_power_table()
        with pytest.raises(TypeError):
            table["power_w"][0] = 0.0
        with pytest.raises(TypeError):
            table["power_w"] = (0.0,) * 40
        assert all(type(column) is tuple for column in table.values())

    def test_rows_in_file_order(self):
        # calibrate's least-squares rows and the printed tables follow the file
        rows = table_rows()
        assert rows[:2] == [("DBF", "HPADC", 15e3, 1.31), ("DBF", "HPADC", 250e3, 1.87)]
        assert rows[-1] == ("PSN", "LPADC", 10e6, 2.36)

    def test_spot_measurements(self):
        table = {(name, cls, b_sc): power for name, cls, b_sc, power in table_rows()}
        assert table[("DBF", "HPADC", 15e3)] == 1.31
        assert table[("DBF", "HPADC", 10e6)] == 25.1616
        assert table[("ABF", "LPADC", 15e3)] == 0.996
        assert table[("PSN", "HPADC", 10e6)] == 3.978


class TestLookup:
    def test_all_forty_entries_exact(self, archs):
        rows = table_rows()
        assert len(rows) == 40
        for name, cls, b_sc, power in rows:
            assert lookup_power(archs[name], AdcModel(cls), b_sc) == power

    def test_missing_bandwidth_raises(self, archs):
        with pytest.raises(PowerTableError):
            lookup_power(archs["ABF"], AdcModel("HPADC"), 123e3)

    def test_architecture_not_in_table_raises(self):
        match = r"no table entry for \(XYZ, HPADC, b_sc=15000.0 Hz\)"
        with pytest.raises(PowerTableError, match=match):
            lookup_power(Architecture("XYZ", 2, 1), AdcModel("HPADC"), 15e3)

    @pytest.mark.parametrize("arch, counts", [
        (build_architecture("DBF", n_ms_antennas=8), "32 converters and 16 simultaneous beams, "
                                                     "not 16 and 8"),
        (build_architecture("HBF", n_rf_chains=2), "8 converters and 4 simultaneous beams, "
                                                   "not 4 and 2"),
        (build_architecture("PSN", n_combiners=8), "2 converters and 4 simultaneous beams, "
                                                   "not 2 and 8"),
    ], ids=["8-antenna-DBF", "2-chain-HBF", "8-combiner-PSN"])
    def test_receiver_the_table_did_not_measure_raises(self, arch, counts):
        # the table's power holds only for the 16-antenna, 4-chain, 4-combiner front ends
        match = f"the lookup table measured {arch.name} with {counts}; use the parametric model"
        with pytest.raises(PowerTableError, match=match):
            lookup_power(arch, AdcModel("HPADC"), 250e3)
        with pytest.raises(PowerTableError, match=match):
            energy_columns(arch, Scenario("nCI"), AdcModel("LPADC"), TABULATED_B_SC,
                           geom=SweepGeometry(), model=None)

    def test_separately_built_default_receiver_is_accepted(self, archs):
        adc = AdcModel("HPADC")
        assert lookup_power(Architecture("ABF", 2, 1), adc, 250e3) == lookup_power(
            archs["ABF"], adc, 250e3)

    def test_non_table_resolution_raises(self, archs):
        with pytest.raises(PowerTableError):
            lookup_power(archs["ABF"], AdcModel("HPADC", bits=8), 15e3)

    def test_array_bandwidths_match_scalar_lookups(self, archs):
        adc = AdcModel("LPADC")
        b_sc = np.array(TABULATED_B_SC[::-1])
        powers = lookup_power(archs["HBF"], adc, b_sc)
        assert powers == tuple(lookup_power(archs["HBF"], adc, b) for b in b_sc.tolist())
        # the first spacing off the table in input order, not the smallest
        with pytest.raises(PowerTableError, match=r"b_sc=123000\.0 Hz"):
            lookup_power(archs["HBF"], adc, np.array([15e3, 123e3, 250e3, 7e3]))
        with pytest.raises(PowerTableError, match="8-bit"):
            lookup_power(archs["HBF"], AdcModel("LPADC", bits=8), b_sc)

    @pytest.mark.parametrize("b_sc", [float(np.nextafter(250e3, np.inf)), 250e3 * (1 + 1e-12)],
                             ids=["one-ulp-above", "1e-12-above"])
    def test_spacing_next_to_a_table_spacing_raises(self, archs, b_sc):
        # an entry answers only the spacing it was measured at, not a neighbouring float
        match = rf"no table entry for \(PSN, LPADC, b_sc={re.escape(repr(b_sc))} Hz\)"
        for value in (b_sc, np.array([15e3, b_sc])):
            with pytest.raises(PowerTableError, match=match):
                lookup_power(archs["PSN"], AdcModel("LPADC"), value)

    def test_match_reads_architecture_class_and_spacing_together(self, archs, monkeypatch):
        # 77 kHz is listed for (ABF, HPADC) only; the bundled table lists the same
        # five spacings for every pair, so only a table like this one tells a match
        # on all three columns from one that ignores the architecture or the class
        table = {"architecture": np.array(["ABF", "ABF", "DBF", "ABF"]),
                 "adc_class": np.array(["HPADC", "HPADC", "HPADC", "LPADC"]),
                 "b_sc_hz": np.array([15e3, 77e3, 15e3, 15e3]),
                 "power_w": np.array([1.0, 1.5, 2.0, 0.5])}
        monkeypatch.setattr("mmwicd.power.default_power_table", lambda: table)
        assert lookup_power(archs["ABF"], AdcModel("HPADC"), 77e3) == 1.5
        powers = lookup_power(archs["ABF"], AdcModel("HPADC"), np.array([77e3, 15e3]))
        assert powers == (1.5, 1.0)
        assert lookup_power(archs["DBF"], AdcModel("HPADC"), 15e3) == 2.0
        assert lookup_power(archs["ABF"], AdcModel("LPADC"), 15e3) == 0.5
        for name, cls in (("DBF", "HPADC"), ("ABF", "LPADC")):
            match = rf"no table entry for \({name}, {cls}, b_sc=77000\.0 Hz\)"
            with pytest.raises(PowerTableError, match=match):
                lookup_power(archs[name], AdcModel(cls), 77e3)

    @pytest.mark.parametrize("call", [
        lambda archs, adc: lookup_power(archs["DBF"], adc, np.inf),
        lambda archs, adc: lookup_power(archs["DBF"], adc, -np.inf),
        lambda archs, adc: lookup_power(archs["DBF"], adc, np.array([15e3, np.inf])),
        lambda archs, adc: energy_columns(archs["ABF"], Scenario("nCI"), adc, [1e300],
                                          k=10**10, geom=SweepGeometry(), model=None),
    ], ids=["inf", "-inf", "array-with-inf", "energy-columns-k-overflow"])
    def test_infinite_bandwidth_matches_no_entry(self, archs, call):
        # refused as parametric_power refuses it, not as a spacing the table lacks
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite number > 0"):
            call(archs, AdcModel("HPADC"))

    def test_a_sequence_gives_a_tuple_and_a_bad_one_names_what_is_taken(self, archs):
        adc, model = AdcModel("HPADC"), default_power_model("HPADC")
        for power in (lambda b_sc: lookup_power(archs["DBF"], adc, b_sc),
                      lambda b_sc: parametric_power(model, archs["DBF"], adc, b_sc)):
            assert power([15e3]) == power((15e3,)) == power(np.array([15e3])) == (power(15e3),)
            assert power([]) == ()
            with pytest.raises(ValueError, match=re.escape(
                    "must be a finite number > 0, or a one-dimensional sequence of them, "
                    "got [15000.0, 0.0]")):
                power([15e3, 0.0])


class TestResolutionFactor:
    def test_laws(self):
        assert resolution_factor(6) == 64.0
        assert resolution_factor(10) == 1024.0

    def test_numpy_integer_bits_overflow_like_python_ints(self):
        with pytest.raises(OverflowError):
            resolution_factor(np.int64(1100))

    def test_numpy_integer_bits_give_the_same_power(self, archs):
        model = default_power_model("HPADC")
        numpy_bits = parametric_power(model, archs["DBF"], AdcModel("HPADC", bits=np.int64(8)), 15e3)
        python_bits = parametric_power(model, archs["DBF"], AdcModel("HPADC", bits=8), 15e3)
        assert numpy_bits == python_bits


def converter_slope(model, arch):
    """Converter power per Hz of total bandwidth at the table's 6 bits (W/Hz),
    read off parametric_power at b_tot = 1 THz, where the converter term dominates."""
    b_sc = 1e12 / frame_scaling(1.0)[1]
    power = parametric_power(model, arch, AdcModel(model.adc_class), b_sc)
    return (power - model.base_power[arch.name]) / frame_scaling(b_sc)[1]


class TestCalibration:
    @pytest.mark.parametrize("cls", ADC_CLASSES)
    def test_parametric_reproduces_table(self, cls, archs):
        model = default_power_model(cls)
        for name, row_cls, b_sc, power in table_rows():
            if row_cls != cls:
                continue
            modeled = parametric_power(model, archs[name], AdcModel(cls), b_sc)
            assert rel_err(modeled, power) <= 0.05

    def test_recovered_constants(self):
        # frozen from an independent least-squares run over the bundled table
        hp = default_power_model("HPADC")
        lp = default_power_model("LPADC")
        # abs=0: pytest's default abs=1e-12 would let either c through at 0
        assert hp.c == pytest.approx(1.248091e-11, rel=1e-5, abs=0)
        assert lp.c == pytest.approx(4.936052e-13, rel=1e-5, abs=0)
        assert hp.base_power["DBF"] == pytest.approx(1.302799, rel=1e-5, abs=0)
        assert lp.base_power["ABF"] == pytest.approx(0.996723, rel=1e-5, abs=0)

    @pytest.mark.parametrize("cls", ADC_CLASSES)
    def test_pinned_fit_is_the_least_squares_refit(self, cls, archs):
        # calibrate's constants, bit for bit, against lstsq over one indicator column per
        # architecture (names sorted) and the converter column, rows in file order
        rows = [row for row in table_rows() if row[1] == cls]
        names = sorted({name for name, *_ in rows})
        indicators = np.eye(len(names))[[names.index(name) for name, *_ in rows]]
        n_adc = np.array([archs[name].n_adc for name, *_ in rows])
        b_tot = np.array(frame_scaling([b_sc for _, _, b_sc, _ in rows])[1])
        design = np.column_stack([indicators, n_adc * resolution_factor(6) * b_tot])
        solution, *_ = np.linalg.lstsq(design, np.array([power for *_, power in rows]),
                                       rcond=None)
        model = calibrate(cls)
        assert (model.adc_class, list(model.base_power)) == (cls, names)
        assert [v.hex() for v in (model.c, *model.base_power.values())] == \
            [float(v).hex() for v in (solution[-1], *solution[:-1])]

    def test_calibrate_holds_python_values(self):
        model = calibrate(np.str_("LPADC"))
        assert [type(v) for v in (model.adc_class, model.c, *model.base_power.values())] == \
            [str, float, float, float, float, float]
        assert calibrate("LPADC") == model and calibrate("LPADC") is not model

    def test_slope_against_two_point_estimate(self, archs):
        # independent slope estimate from the DBF end points of the table
        table = {(name, b_sc): power for name, cls, b_sc, power in table_rows()
                 if cls == "HPADC"}
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
        assert powers == tuple(parametric_power(model, archs["PSN"], adc, b) for b in b_sc)

    def test_class_mismatch_raises(self, archs):
        model = default_power_model("HPADC")
        with pytest.raises(ValueError):
            parametric_power(model, archs["ABF"], AdcModel("LPADC"), 15e3)

    def test_shared_base_powers_are_read_only(self):
        # default_power_model hands every caller in a process the same model.
        model = default_power_model("HPADC")
        with pytest.raises(TypeError):
            model.base_power["ABF"] = 0.0
        assert model.base_power["ABF"] == calibrate("HPADC").base_power["ABF"] != 0.0

    def test_uncalibrated_architecture_raises(self):
        with pytest.raises(ValueError, match="not calibrated for architecture X"):
            parametric_power(default_power_model("HPADC"), Architecture("X", 2, 1),
                             AdcModel("HPADC"), 15e3)


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
