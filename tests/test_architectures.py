import numpy as np
import pytest

from mmwicd import (
    ARCHITECTURE_NAMES,
    SCENARIO_KINDS,
    AdcModel,
    Scenario,
    SweepGeometry,
    build_architecture,
    ci_cost,
    convergence_value,
    default_power_model,
    default_scenarios,
    derive_frame,
    directional_scans,
    discovery_slot_grid,
    energy_columns,
    simulate,
    total_delay,
    worst_case_structure_delay,
)

from conftest import TABULATED_B_SC

# Scan counts for the default 64 x 16 geometry.
EXPECTED_SCANS_NCI = {"ABF": 1024, "DBF": 64, "HBF": 256, "PSN": 256}


class TestArchitectureRegistry:
    def test_hardware_wiring(self, archs):
        # (RF chains, simultaneous beams) at 16 antennas, 4 RF chains and 4 combiners
        wiring = {"ABF": (1, 1), "DBF": (16, 16), "HBF": (4, 4), "PSN": (1, 4)}
        for name, (rf, beams) in wiring.items():
            assert (archs[name].n_adc, archs[name].simultaneous_beams) == (2 * rf, beams)

    def test_adc_counts_are_iq_pairs(self, archs):
        # one I/Q converter pair per RF chain
        assert {name: a.n_adc for name, a in archs.items()} == {
            "ABF": 2, "DBF": 32, "HBF": 8, "PSN": 2,
        }

    def test_custom_parameters(self):
        arch = build_architecture("HBF", n_rf_chains=8)
        assert arch.simultaneous_beams == 8
        assert arch.n_adc == 16
        dbf = build_architecture("DBF", n_ms_antennas=32)
        assert dbf.simultaneous_beams == 32
        assert dbf.n_adc == 64

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError) as refused:
            build_architecture("XYZ")
        assert str(refused.value) == ("unknown architecture 'XYZ'; expected one of "
                                      "('ABF', 'DBF', 'HBF', 'PSN')")

    def test_bad_count_is_named_before_a_bad_name(self):
        with pytest.raises(ValueError, match="^n_rf_chains must be an integer >= 1"):
            build_architecture("XYZ", n_rf_chains=0)

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError):
            build_architecture("HBF", n_rf_chains=0)

    @pytest.mark.parametrize("params", [{"n_rf_chains": 2.5}, {"n_combiners": True},
                                        {"n_ms_antennas": 0}])
    def test_counts_checked_whatever_the_scheme(self, params):
        # ABF uses none of the three parameters; they are still checked
        with pytest.raises(ValueError):
            build_architecture("ABF", **params)


class TestScenarios:
    def test_cid_defaults(self):
        scenario = default_scenarios()["CID"]
        assert scenario.t_ci == 1.5
        assert scenario.p_ci == 0.1

    def test_cid_overrides(self):
        scenario = Scenario("CID", t_ci=2.0, p_ci=0.2)
        assert (scenario.t_ci, scenario.p_ci) == (2.0, 0.2)

    @pytest.mark.parametrize("kind", ["nCI", "CInD"])
    def test_instant_scenarios_reject_budget(self, kind):
        assert Scenario(kind).t_ci == 0.0
        with pytest.raises(ValueError):
            Scenario(kind, t_ci=1.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Scenario("XCI")

    @pytest.mark.parametrize("budget", [{"t_ci": float("nan")}, {"p_ci": float("inf")}])
    def test_cid_rejects_non_finite_budget(self, budget):
        with pytest.raises(ValueError, match="finite"):
            Scenario("CID", **budget)


class TestScenarioRecord:
    @pytest.mark.parametrize("fields", [("bogus",), ("nCI", 1.5, 0.1), ("CID", -1.0, 0.1),
                                        ("CID", 10**400, 0.1)],
                             ids=["unknown-kind", "budget-without-CID", "negative-budget",
                                  "budget-past-float-range"])
    def test_direct_construction_is_checked(self, fields):
        with pytest.raises(ValueError):
            Scenario(*fields)


class TestDirectionalScans:
    def test_no_context_counts(self, archs, scens, geom):
        for name, expected in EXPECTED_SCANS_NCI.items():
            assert directional_scans(archs[name], scens["nCI"], geom) == expected

    @pytest.mark.parametrize("kind", ["CInD", "CID"])
    def test_context_reduces_to_bs_sweep(self, archs, scens, geom, kind):
        for name in ARCHITECTURE_NAMES:
            assert directional_scans(archs[name], scens[kind], geom) == 64

    def test_scan_count_scales_with_geometry(self, archs, scens):
        geom = SweepGeometry(n_bs_directions=32, n_ms_directions=8)
        assert directional_scans(archs["ABF"], scens["nCI"], geom) == 256
        assert directional_scans(archs["HBF"], scens["nCI"], geom) == 64
        assert directional_scans(archs["HBF"], scens["CInD"], geom) == 32

    def test_ceil_when_beams_do_not_divide(self, archs, scens):
        geom = SweepGeometry(n_bs_directions=10, n_ms_directions=10)
        # the BS holds one direction per dwell: 10 directions x ceil(10 / 4) beam sets
        assert directional_scans(archs["HBF"], scens["nCI"], geom) == 30

    def test_numpy_counts_do_not_wrap(self, archs, scens):
        # 2**62 * 4 scans is past int64; the count is exact whatever integer type holds it
        geom = SweepGeometry(np.int64(2**62), np.int64(4))
        assert directional_scans(archs["ABF"], scens["nCI"], geom) == 2**64
        wide = SweepGeometry(2**70, 4)
        assert directional_scans(archs["ABF"], scens["nCI"], wide, np.int64(2)) == 2**71

    def test_numpy_counts_are_held_as_python_ints(self, scens):
        # 2 * 2**62 converters and 2**41 scans * 2**41 converters are past int64
        dbf = build_architecture("DBF", n_ms_antennas=np.int64(2**62))
        assert dbf.n_adc == 2**63 and type(dbf.n_adc) is int
        geom = SweepGeometry(np.int64(2**40), np.int64(2**41))
        assert (type(geom.n_bs_directions), type(geom.n_ms_directions)) == (int, int)
        model, adc = default_power_model("HPADC"), AdcModel("HPADC")
        wide = convergence_value(build_architecture("HBF", n_rf_chains=np.int64(2**40)),
                                 scens["nCI"], adc, geom, model)
        assert wide == convergence_value(build_architecture("HBF", n_rf_chains=2**40),
                                         scens["nCI"], adc, SweepGeometry(2**40, 2**41), model)
        assert wide == pytest.approx(2.70e19, rel=1e-2)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SweepGeometry(n_bs_directions=0)

    def test_target_count_past_float_range_is_refused(self):
        # each side is a count, but no float holds the 10**400 scans the product allows
        with pytest.raises(ValueError, match="n_targets"):
            SweepGeometry(10**200, 10**200)


class TestKValidation:
    # Every function that takes k, the BS directions per dwell, rejects the same values.
    TAKES_K = {
        "directional_scans": lambda a, s, g, k: directional_scans(a, s, g, k),
        "total_delay": lambda a, s, g, k: total_delay(a, s, g, derive_frame(15e3), k),
        "discovery_slot_grid": lambda a, s, g, k: discovery_slot_grid(a, s, g, k=k),
        "simulate": lambda a, s, g, k: simulate(a, s, g, (0, 0), k=k),
        "worst_case_structure_delay":
            lambda a, s, g, k: worst_case_structure_delay(a, s, g, derive_frame(15e3), k=k),
        "energy_columns":
            lambda a, s, g, k: energy_columns(a, s, AdcModel("HPADC"), [15e3], k=k, geom=g,
                                              model=None),
    }

    @pytest.mark.parametrize("bad", [0, -1, True, 2.0, 2.5])
    @pytest.mark.parametrize("fn", TAKES_K)
    def test_rejects_bad_k(self, archs, scens, geom, fn, bad):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            self.TAKES_K[fn](archs["ABF"], scens["nCI"], geom, bad)

    # energy_columns is left out: at k = 2 it asks the table for 30 kHz, which it lacks
    @pytest.mark.parametrize("fn", [fn for fn in TAKES_K if fn != "energy_columns"])
    def test_numpy_integer_k_is_a_count(self, archs, scens, geom, fn):
        # the count rule AdcModel's bits follow: a numpy integer counts like a Python int
        call = self.TAKES_K[fn]
        np.testing.assert_equal(call(archs["ABF"], scens["nCI"], geom, np.int64(2)),
                                call(archs["ABF"], scens["nCI"], geom, 2))


class TestCiBudget:
    def test_only_cid_with_partial_coverage_pays(self, archs, scens, geom):
        cid = scens["CID"]
        for name in ARCHITECTURE_NAMES:
            assert ci_cost(archs[name], scens["nCI"], geom) == (0.0, 0.0)
            assert ci_cost(archs[name], scens["CInD"], geom) == (0.0, 0.0)
        # DBF sees all MS directions at once, so positioning adds nothing
        assert ci_cost(archs["DBF"], cid, geom) == (0.0, 0.0)
        for name in ("ABF", "HBF", "PSN"):
            assert ci_cost(archs[name], cid, geom) == (cid.t_ci, cid.p_ci * cid.t_ci)


class TestTotalDelay:
    def test_delays_at_reference_bandwidth(self, archs, scens, geom, frame15):
        expected = {
            ("ABF", "nCI"): 5.12, ("DBF", "nCI"): 0.32,
            ("HBF", "nCI"): 1.28, ("PSN", "nCI"): 1.28,
            ("ABF", "CInD"): 0.32, ("DBF", "CInD"): 0.32,
            ("HBF", "CInD"): 0.32, ("PSN", "CInD"): 0.32,
            ("ABF", "CID"): 1.82, ("DBF", "CID"): 0.32,
            ("HBF", "CID"): 1.82, ("PSN", "CID"): 1.82,
        }
        for (name, kind), delay in expected.items():
            assert total_delay(archs[name], scens[kind], geom, frame15) == pytest.approx(
                delay, rel=1e-12
            )

    @pytest.mark.parametrize("b_sc", TABULATED_B_SC)
    def test_delay_is_scans_times_period(self, archs, scens, geom, b_sc):
        frame = derive_frame(b_sc)
        for name in ARCHITECTURE_NAMES:
            for kind in SCENARIO_KINDS:
                arch, scenario = archs[name], scens[kind]
                scans = directional_scans(arch, scenario, geom)
                pays = scenario.kind == "CID" and arch.simultaneous_beams < geom.n_ms_directions
                t_ci = scenario.t_ci if pays else 0.0
                assert total_delay(arch, scenario, geom, frame) == scans * frame.t_pss + t_ci
