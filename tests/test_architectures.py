import pytest

from mmwicd import (
    ARCHITECTURE_NAMES,
    SCENARIO_KINDS,
    AdcModel,
    SweepGeometry,
    build_architecture,
    build_scenario,
    derive_frame,
    directional_scans,
    discovery_slot_grid,
    energy_columns,
    simulate,
    total_delay,
    uses_ci_budget,
    worst_case_structure_delay,
)

from conftest import TABULATED_B_SC

# Scan counts for the default 64 x 16 geometry.
EXPECTED_SCANS_NCI = {"ABF": 1024, "DBF": 64, "HBF": 256, "PSN": 256}


class TestArchitectureRegistry:
    def test_hardware_wiring(self, archs):
        assert archs["ABF"].n_rf_chains == 1 and archs["ABF"].simultaneous_beams == 1
        assert archs["DBF"].n_rf_chains == 16 and archs["DBF"].simultaneous_beams == 16
        assert archs["HBF"].n_rf_chains == 4 and archs["HBF"].simultaneous_beams == 4
        assert archs["PSN"].n_rf_chains == 1 and archs["PSN"].simultaneous_beams == 4

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
        with pytest.raises(ValueError):
            build_architecture("XYZ")

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
        scenario = build_scenario("CID")
        assert scenario.t_ci == 1.5
        assert scenario.p_ci == 0.1

    def test_cid_overrides(self):
        scenario = build_scenario("CID", t_ci=2.0, p_ci=0.2)
        assert (scenario.t_ci, scenario.p_ci) == (2.0, 0.2)

    @pytest.mark.parametrize("kind", ["nCI", "CInD"])
    def test_instant_scenarios_reject_budget(self, kind):
        assert build_scenario(kind).t_ci == 0.0
        with pytest.raises(ValueError):
            build_scenario(kind, t_ci=1.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("XCI")

    @pytest.mark.parametrize("budget", [{"t_ci": float("nan")}, {"p_ci": float("inf")}])
    def test_cid_rejects_non_finite_budget(self, budget):
        with pytest.raises(ValueError, match="finite"):
            build_scenario("CID", **budget)


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

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SweepGeometry(n_bs_directions=0)


class TestKValidation:
    # Every function that takes k, the BS directions per dwell, rejects the same values.
    TAKES_K = {
        "directional_scans": lambda a, s, g, k: directional_scans(a, s, g, k),
        "total_delay": lambda a, s, g, k: total_delay(a, s, g, derive_frame(15e3), k),
        "discovery_slot_grid": lambda a, s, g, k: discovery_slot_grid(a, s, g, k=k),
        "simulate": lambda a, s, g, k: simulate(a, s, g, derive_frame(15e3), (0, 0), k=k),
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


class TestCiBudget:
    def test_only_cid_with_partial_coverage_pays(self, archs, scens, geom):
        for name in ARCHITECTURE_NAMES:
            assert not uses_ci_budget(archs[name], scens["nCI"], geom)
            assert not uses_ci_budget(archs[name], scens["CInD"], geom)
        # DBF sees all MS directions at once, so positioning adds nothing
        assert not uses_ci_budget(archs["DBF"], scens["CID"], geom)
        for name in ("ABF", "HBF", "PSN"):
            assert uses_ci_budget(archs[name], scens["CID"], geom)


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
                t_ci = scenario.t_ci if uses_ci_budget(arch, scenario, geom) else 0.0
                assert total_delay(arch, scenario, geom, frame) == scans * frame.t_pss + t_ci
