import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwicd import (
    ARCHITECTURE_NAMES,
    SCENARIO_KINDS,
    SEQUENTIAL_BS_OUTER,
    SEQUENTIAL_MS_OUTER,
    SWEEP_ORDERS,
    NoDiscoveryError,
    SweepGeometry,
    build_architecture,
    build_pss_structure,
    build_scenario,
    derive_frame,
    discovery_slot_grid,
    dump_trace,
    simulate,
    simulate_pss_structure,
    total_delay,
    verify_against_analytic,
    worst_case_structure_delay,
)
from mmwicd.sweepsim import ALIGNED, PSS_TX, _ci_lead_time, _walk

from conftest import TABULATED_B_SC


class TestExhaustiveOracle:
    @pytest.mark.parametrize("order", SWEEP_ORDERS)
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    @pytest.mark.parametrize("name", ARCHITECTURE_NAMES)
    def test_max_equals_analytic_everywhere(self, archs, scens, geom, name, kind, order):
        for b_sc in TABULATED_B_SC:
            report = verify_against_analytic(
                archs[name], scens[kind], geom, derive_frame(b_sc), sweep_order=order
            )
            assert report.passed, report
            assert report.max_time == report.analytic_delay
            assert report.first_mismatch is None
            assert report.n_targets == 1024

    def test_mean_below_max(self, archs, scens, geom, frame15):
        report = verify_against_analytic(archs["ABF"], scens["nCI"], geom, frame15)
        assert report.min_time < report.mean_time < report.max_time

    def test_mean_equals_max_only_for_one_slot_sweep(self, archs, scens):
        geom = SweepGeometry(n_bs_directions=1, n_ms_directions=16)
        report = verify_against_analytic(archs["DBF"], scens["nCI"], geom, derive_frame(15e3))
        assert report.passed
        assert report.mean_time == report.max_time

    def test_max_is_order_invariant_but_distribution_not(self, archs, scens, geom):
        a = discovery_slot_grid(archs["HBF"], scens["nCI"], geom,
                                sweep_order=SEQUENTIAL_BS_OUTER)
        b = discovery_slot_grid(archs["HBF"], scens["nCI"], geom,
                                sweep_order=SEQUENTIAL_MS_OUTER)
        assert a.max() == b.max() == 256
        assert not np.array_equal(a, b)

    def test_every_slot_hosts_some_first_discovery(self, archs, scens, geom):
        grid = discovery_slot_grid(archs["ABF"], scens["nCI"], geom)
        assert sorted(grid.ravel().tolist()) == list(range(1, 1025))


class TestSingleTargetSim:
    def test_worst_target_no_context(self, archs, scens, geom, frame15):
        result = simulate(archs["ABF"], scens["nCI"], geom, frame15, (63, 15))
        assert result.discovery_time == 5.12
        assert result.events_consumed == 1024

    def test_first_slot_alignment(self, archs, scens, geom, frame15):
        for name in ARCHITECTURE_NAMES:
            for order in SWEEP_ORDERS:
                result = simulate(archs[name], scens["nCI"], geom, frame15, (0, 0), order)
                assert result.discovery_time >= frame15.t_pss
                assert result.discovery_time == frame15.t_pss  # slot 1 covers (0, 0)

    @pytest.mark.parametrize("b_sc", TABULATED_B_SC)
    def test_dbf_needs_only_bs_sweep(self, archs, scens, geom, b_sc):
        frame = derive_frame(b_sc)
        result = simulate(archs["DBF"], scens["nCI"], geom, frame, (63, 7))
        assert result.discovery_time == 64 * frame.t_pss

    def test_matches_grid_target_by_target(self, archs, scens, geom, frame15):
        grid = discovery_slot_grid(archs["HBF"], scens["nCI"], geom,
                                   sweep_order=SEQUENTIAL_MS_OUTER)
        for tb in range(0, 64, 13):
            for tm in range(0, 16, 5):
                result = simulate(archs["HBF"], scens["nCI"], geom, frame15,
                                  (tb, tm), SEQUENTIAL_MS_OUTER)
                assert result.discovery_time == grid[tb, tm] * frame15.t_pss

    def test_pinned_set_skips_ms_sweep(self, archs, scens, geom, frame15):
        # beam set 2 holds directions 8..11; BS direction 5 arrives in slot 6
        result = simulate(archs["HBF"], scens["CInD"], geom, frame15, (5, 9))
        assert result.discovery_time == 6 * frame15.t_pss
        assert result.events_consumed == 6

    def test_wrong_context_never_discovers(self, archs, scens, geom, frame15):
        with pytest.raises(NoDiscoveryError) as err:
            simulate(archs["HBF"], scens["CInD"], geom, frame15, (5, 9), ci_direction=0)
        assert err.value.target == (5, 9)
        assert err.value.slots_walked == 64

    def test_acquisition_lead_time(self, archs, scens, geom, frame15):
        result = simulate(archs["ABF"], scens["CID"], geom, frame15, (63, 15))
        assert result.discovery_time == total_delay(archs["ABF"], scens["CID"], geom, frame15)
        # DBF sees every direction at once, so no positioning budget is spent
        result = simulate(archs["DBF"], scens["CID"], geom, frame15, (63, 15))
        assert result.discovery_time == 0.32

    def test_out_of_range_target_rejected(self, archs, scens, geom, frame15):
        with pytest.raises(ValueError):
            simulate(archs["ABF"], scens["nCI"], geom, frame15, (64, 0))
        with pytest.raises(ValueError):
            simulate(archs["ABF"], scens["nCI"], geom, frame15, (0, -1))

    def test_unknown_order_rejected(self, archs, scens, geom, frame15):
        with pytest.raises(ValueError):
            simulate(archs["ABF"], scens["nCI"], geom, frame15, (0, 0), "Spiral")

    def test_bad_ci_direction_rejected(self, archs, scens, geom, frame15):
        with pytest.raises(ValueError):
            simulate(archs["ABF"], scens["CID"], geom, frame15, (0, 0), ci_direction=16)


class TestEventLog:
    def test_log_shape_and_kinds(self, archs, scens, geom, frame15):
        result = simulate(archs["HBF"], scens["nCI"], geom, frame15, (2, 9),
                          record_events=True)
        events = result.events
        assert len(events) == result.events_consumed + 1
        assert all(ev.kind == PSS_TX for ev in events[:-1])
        assert events[-1].kind == ALIGNED
        assert all(len(ev.ms_beam_set) == 4 for ev in events)
        times = [ev.time for ev in events]
        assert times == sorted(times)

    def test_ci_shifts_event_times(self, archs, scens, geom, frame15):
        result = simulate(archs["ABF"], scens["CID"], geom, frame15, (0, 0),
                          record_events=True)
        assert result.events[0].time == 1.5

    def test_determinism(self, archs, scens, geom, frame15):
        runs = [
            simulate(archs["PSN"], scens["nCI"], geom, frame15, (17, 6),
                     SEQUENTIAL_MS_OUTER, record_events=True)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_trace_dump(self, archs, scens, geom, frame15, tmp_path):
        result = simulate(archs["HBF"], scens["nCI"], geom, frame15, (1, 2),
                          record_events=True)
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="") as fh:
            dump_trace(result.events, fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,bs_dir,ms_beams,kind"
        assert len(lines) == len(result.events) + 1
        assert lines[1].endswith(PSS_TX)
        assert "0|1|2|3" in lines[1]


class TestPssStructureSim:
    def test_k1_degenerates_to_plain_sim(self, archs, scens, geom):
        structure = build_pss_structure(derive_frame(250e3), 1)
        frame = derive_frame(250e3)
        for target in [(0, 0), (17, 3), (63, 15)]:
            a = simulate_pss_structure(structure, geom, target,
                                       arch=archs["ABF"], scenario=scens["nCI"])
            b = simulate(archs["ABF"], scens["nCI"], geom, frame, target)
            assert a == b

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_worst_case_scales_inversely(self, archs, scens, geom, k):
        frame = derive_frame(250e3)
        structure = build_pss_structure(frame, k)
        for name in ARCHITECTURE_NAMES:
            worst = worst_case_structure_delay(structure, geom, arch=archs[name],
                                               scenario=scens["nCI"])
            assert worst == total_delay(archs[name], scens["nCI"], geom, frame) / k

    def test_k8_single_target(self, geom):
        structure = build_pss_structure(derive_frame(250e3), 8)
        result = simulate_pss_structure(structure, geom, (63, 15))
        # (1/8) of the 1024-slot single-beam worst case
        assert result.discovery_time == 1024 * derive_frame(250e3).t_pss / 8
        assert result.events_consumed == 1024

    def test_bs_cycle_in_eight_slots(self, archs, scens, geom):
        # 16 simultaneous beams leave only the BS sweep: 64 directions, 8 per slot
        structure = build_pss_structure(derive_frame(250e3), 8)
        result = simulate_pss_structure(structure, geom, (63, 0),
                                        arch=archs["DBF"], scenario=scens["nCI"])
        assert result.discovery_time == 8 * structure.frame.t_pss

    def test_symbol_times_follow_slot_layout(self, archs, scens, geom):
        structure = build_pss_structure(derive_frame(250e3), 4)
        result = simulate_pss_structure(structure, geom, (3, 0), record_events=True)
        pss_events = [ev for ev in result.events if ev.kind == PSS_TX]
        assert [ev.bs_direction for ev in pss_events] == [0, 1, 2, 3]
        assert pss_events[0].time == structure.cp
        spacing = structure.cp + structure.t_sc_pss
        deltas = [b.time - a.time for a, b in zip(pss_events, pss_events[1:])]
        assert deltas == pytest.approx([spacing] * 3, rel=1e-12)
        # detection is still decided at slot end
        assert result.events[-1].time == structure.frame.t_pss

    def test_pinned_structure_sweep(self, archs, scens, geom):
        structure = build_pss_structure(derive_frame(250e3), 8)
        result = simulate_pss_structure(structure, geom, (63, 9),
                                        arch=archs["HBF"], scenario=scens["CInD"])
        assert result.discovery_time == 8 * structure.frame.t_pss


def _beams_arch(beams):
    """HBF receiver forming `beams` simultaneous beams."""
    return build_architecture("HBF", n_rf_chains=beams)


def _assert_grid_matches_walk(arch, scenario, geom, order, k):
    """Every target's grid slot, in seconds, equals the slot-by-slot walk."""
    t_pss = derive_frame(15e3).t_pss
    t_ci = _ci_lead_time(arch, scenario, geom)
    grid = discovery_slot_grid(arch, scenario, geom, sweep_order=order, k=k)
    assert grid.shape == (geom.n_bs_directions, geom.n_ms_directions)
    assert grid.dtype == np.int64
    for tb in range(geom.n_bs_directions):
        for tm in range(geom.n_ms_directions):
            walked = _walk(arch, scenario, geom, (tb, tm), order, None, False,
                           t_pss, k, [0.0] * k, t_ci)
            assert grid[tb, tm] * t_pss + t_ci == walked.discovery_time, (tb, tm)


class TestDiscoveryGrid:
    # (n_bs, n_ms, beams, k, order, scenario)
    CASES = [
        (64, 16, 1, 1, 0, "nCI"),
        (64, 16, 1, 1, 1, "nCI"),
        (64, 16, 4, 1, 0, "nCI"),
        (64, 16, 4, 1, 1, "CInD"),
        (64, 16, 16, 1, 0, "nCI"),
        (64, 16, 1, 8, 0, "nCI"),
        (64, 16, 4, 8, 1, "nCI"),
        (60, 14, 4, 7, 0, "nCI"),  # nothing divides evenly
        (60, 14, 4, 7, 1, "CInD"),
        (7, 3, 2, 3, 0, "nCI"),
    ]

    @pytest.mark.parametrize("params", CASES)
    def test_grid_marks_first_alignment(self, params):
        # brute-force re-derivation of each target's first aligned slot
        n_bs, n_ms, beams, k, order, kind = params
        grid = discovery_slot_grid(
            _beams_arch(beams), build_scenario(kind),
            SweepGeometry(n_bs_directions=n_bs, n_ms_directions=n_ms),
            sweep_order=SWEEP_ORDERS[order], k=k,
        )
        n_groups = -(-n_bs // k)
        eff_sets = 1 if kind != "nCI" else -(-n_ms // beams)
        total = n_groups * eff_sets
        for tb in range(n_bs):
            for tm in range(n_ms):
                pinned = -1 if kind == "nCI" else tm // beams  # the target's own set
                expected = 0
                for slot in range(total):
                    if order == 0:
                        group, set_i = slot % n_groups, slot // n_groups
                    else:
                        set_i, group = slot % eff_sets, slot // eff_sets
                    if pinned >= 0:
                        set_i = pinned
                    if group * k <= tb < min(group * k + k, n_bs) and \
                            set_i * beams <= tm < min(set_i * beams + beams, n_ms):
                        expected = slot + 1
                        break
                assert grid[tb, tm] == expected

    @pytest.mark.parametrize("n_bs,n_ms,beams,k", sorted({c[:4] for c in CASES}))
    def test_grid_equals_walk(self, n_bs, n_ms, beams, k):
        geom = SweepGeometry(n_bs_directions=n_bs, n_ms_directions=n_ms)
        for kind in SCENARIO_KINDS:
            for order in SWEEP_ORDERS:
                _assert_grid_matches_walk(_beams_arch(beams), build_scenario(kind),
                                          geom, order, k)

    @settings(max_examples=60, deadline=None)
    @given(
        n_bs=st.integers(1, 12),
        n_ms=st.integers(1, 10),
        name=st.sampled_from(ARCHITECTURE_NAMES),
        n_ms_antennas=st.integers(1, 12),
        n_rf_chains=st.integers(1, 12),
        n_combiners=st.integers(1, 12),
        k=st.integers(1, 9),
        order=st.sampled_from(SWEEP_ORDERS),
        kind=st.sampled_from(SCENARIO_KINDS),
    )
    def test_grid_equals_walk_property(self, n_bs, n_ms, name, n_ms_antennas,
                                       n_rf_chains, n_combiners, k, order, kind):
        arch = build_architecture(name, n_ms_antennas=n_ms_antennas,
                                  n_rf_chains=n_rf_chains, n_combiners=n_combiners)
        geom = SweepGeometry(n_bs_directions=n_bs, n_ms_directions=n_ms)
        _assert_grid_matches_walk(arch, build_scenario(kind), geom, order, k)


class TestScaledGeometry:
    @pytest.mark.parametrize("order", SWEEP_ORDERS)
    def test_oracle_holds_off_default_geometry(self, archs, scens, order):
        # beams divide the MS directions, so the closed form stays exact
        geom = SweepGeometry(n_bs_directions=32, n_ms_directions=8)
        frame = derive_frame(500e3)
        for name in ARCHITECTURE_NAMES:
            for kind in SCENARIO_KINDS:
                report = verify_against_analytic(archs[name], scens[kind], geom, frame,
                                                 sweep_order=order)
                assert report.passed, report
