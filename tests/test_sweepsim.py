import tracemalloc

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
    Scenario,
    SweepGeometry,
    VerificationColumns,
    build_architecture,
    ci_cost,
    default_scenarios,
    derive_frame,
    directional_scans,
    discovery_slot_grid,
    discovery_slot_sides,
    simulate,
    total_delay,
    verify_against_analytic,
    verify_columns,
    worst_case_structure_delay,
)
from mmwicd import cli, sweepsim
from mmwicd.architectures import DEFAULT_P_CI
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
    def test_worst_target_no_context(self, archs, scens, geom):
        assert simulate(archs["ABF"], scens["nCI"], geom, (63, 15)) == 1024

    def test_first_slot_alignment(self, archs, scens, geom):
        for name in ARCHITECTURE_NAMES:
            for order in SWEEP_ORDERS:
                slot = simulate(archs[name], scens["nCI"], geom, (0, 0), order)
                assert type(slot) is int
                assert slot == 1  # slot 1 covers (0, 0)

    @pytest.mark.parametrize("b_sc", TABULATED_B_SC)
    def test_dbf_needs_only_bs_sweep(self, archs, scens, geom, b_sc):
        # the slot is the same at every b_sc; t_pss turns it into that b_sc's delay
        assert simulate(archs["DBF"], scens["nCI"], geom, (63, 7)) == 64
        frame = derive_frame(b_sc)
        assert total_delay(archs["DBF"], scens["nCI"], geom, frame) == 64 * frame.t_pss

    def test_matches_grid_target_by_target(self, archs, scens, geom):
        grid = discovery_slot_grid(archs["HBF"], scens["nCI"], geom,
                                   sweep_order=SEQUENTIAL_MS_OUTER)
        for tb in range(0, 64, 13):
            for tm in range(0, 16, 5):
                slot = simulate(archs["HBF"], scens["nCI"], geom, (tb, tm), SEQUENTIAL_MS_OUTER)
                assert slot == grid[tb, tm]

    def test_pinned_set_skips_ms_sweep(self, archs, scens, geom):
        # beam set 2 holds directions 8..11; BS direction 5 arrives in slot 6
        assert simulate(archs["HBF"], scens["CInD"], geom, (5, 9)) == 6

    def test_acquisition_lead_time(self, archs, scens, geom):
        # the lead time is no slot: CID sweeps the BS side only, whether or not it is paid
        assert simulate(archs["ABF"], scens["CID"], geom, (63, 15)) == 64
        assert simulate(archs["DBF"], scens["CID"], geom, (63, 15)) == 64

    def test_out_of_range_target_rejected(self, archs, scens, geom):
        with pytest.raises(ValueError):
            simulate(archs["ABF"], scens["nCI"], geom, (64, 0))
        with pytest.raises(ValueError):
            simulate(archs["ABF"], scens["nCI"], geom, (0, -1))
        # a coordinate that is not an integer names no direction: refused, not walked
        with pytest.raises(ValueError, match="not a pair of integer directions"):
            simulate(archs["ABF"], scens["nCI"], geom, (3.5, 2))
        with pytest.raises(ValueError, match="not a pair of integer directions"):
            simulate(archs["ABF"], scens["nCI"], geom, (True, 0))

    def test_unknown_order_rejected(self, archs, scens, geom):
        with pytest.raises(ValueError):
            simulate(archs["ABF"], scens["nCI"], geom, (0, 0), "Spiral")

    def test_order_given_as_list_rejected(self, archs, scens, geom):
        # a list is not one of the order names, even one that holds a name
        order = ["SequentialBsOuter"]
        with pytest.raises(ValueError, match="unknown sweep order"):
            simulate(archs["ABF"], scens["nCI"], geom, (0, 0), order)
        with pytest.raises(ValueError, match="unknown sweep order"):
            discovery_slot_grid(archs["ABF"], scens["nCI"], geom, sweep_order=order)

    def test_determinism(self, archs, scens, geom):
        runs = [simulate(archs["PSN"], scens["nCI"], geom, (17, 6), SEQUENTIAL_MS_OUTER, k=3)
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestPssStructureSim:
    def test_k1_degenerates_to_plain_sim(self, archs, scens, geom):
        grid = discovery_slot_grid(archs["ABF"], scens["nCI"], geom)
        for target in [(0, 0), (17, 3), (63, 15)]:
            a = simulate(archs["ABF"], scens["nCI"], geom, target, k=1)
            assert a == simulate(archs["ABF"], scens["nCI"], geom, target)
            assert a == grid[target]

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_worst_case_scales_inversely(self, archs, scens, geom, k):
        frame = derive_frame(250e3)
        for name in ARCHITECTURE_NAMES:
            worst = worst_case_structure_delay(archs[name], scens["nCI"], geom, frame, k=k)
            assert worst == total_delay(archs[name], scens["nCI"], geom, frame) / k

    def test_k8_single_target(self, archs, scens, geom):
        # (1/8) of the 1024-slot single-beam worst case
        assert simulate(archs["ABF"], scens["nCI"], geom, (63, 15), k=8) == 1024 // 8

    def test_bs_cycle_in_eight_slots(self, archs, scens, geom):
        # 16 simultaneous beams leave only the BS sweep: 64 directions, 8 per slot
        assert simulate(archs["DBF"], scens["nCI"], geom, (63, 0), k=8) == 8

    def test_pinned_structure_sweep(self, archs, scens, geom):
        assert simulate(archs["HBF"], scens["CInD"], geom, (63, 9), k=8) == 8

    def test_worst_case_reads_two_vectors_not_the_grid(self, archs, scens):
        # 2**24 targets, whose int64 grid would take 128 MiB; two 4096-slot vectors take 64 KiB
        geom = SweepGeometry(n_bs_directions=4096, n_ms_directions=4096)
        frame = derive_frame(250e3)
        tracemalloc.start()
        try:
            worst = worst_case_structure_delay(archs["ABF"], scens["nCI"], geom, frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert worst == total_delay(archs["ABF"], scens["nCI"], geom, frame)


def _beams_arch(beams):
    """HBF receiver forming `beams` simultaneous beams."""
    return build_architecture("HBF", n_rf_chains=beams)


def _assert_grid_matches_walk(arch, scenario, geom, order, k):
    """Every target's grid slot equals the slot-by-slot walk's."""
    grid = discovery_slot_grid(arch, scenario, geom, sweep_order=order, k=k)
    assert grid.shape == (geom.n_bs_directions, geom.n_ms_directions)
    assert grid.dtype == np.int64
    for tb in range(geom.n_bs_directions):
        for tm in range(geom.n_ms_directions):
            assert grid[tb, tm] == simulate(arch, scenario, geom, (tb, tm), order, k=k), (tb, tm)


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
            _beams_arch(beams), default_scenarios()[kind],
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
                _assert_grid_matches_walk(_beams_arch(beams), default_scenarios()[kind],
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
        scenario = default_scenarios()[kind]
        geom = SweepGeometry(n_bs_directions=n_bs, n_ms_directions=n_ms)
        _assert_grid_matches_walk(arch, scenario, geom, order, k)
        # The closed forms equal the walk's worst case exactly, whatever divides.
        grid = discovery_slot_grid(arch, scenario, geom, sweep_order=order, k=k)
        assert grid.max() == directional_scans(arch, scenario, geom, k)
        frame = derive_frame(15e3)
        assert worst_case_structure_delay(
            arch, scenario, geom, frame, k=k
        ) == total_delay(arch, scenario, geom, frame, k)

    @settings(max_examples=60, deadline=None)
    @given(
        n_bs=st.integers(1, 12),
        n_ms=st.integers(1, 10),
        name=st.sampled_from(ARCHITECTURE_NAMES),
        n_ms_antennas=st.integers(1, 12),
        n_rf_chains=st.integers(1, 12),
        n_combiners=st.integers(1, 12),
        order=st.sampled_from(SWEEP_ORDERS),
        kind=st.sampled_from(SCENARIO_KINDS),
    )
    def test_verdict_fields_equal_grid_reductions(self, n_bs, n_ms, name, n_ms_antennas,
                                                  n_rf_chains, n_combiners, order, kind):
        # verify_columns reads the two slot vectors; the walk-checked grid is the reference
        arch = build_architecture(name, n_ms_antennas=n_ms_antennas,
                                  n_rf_chains=n_rf_chains, n_combiners=n_combiners)
        scenario = default_scenarios()[kind]
        geom = SweepGeometry(n_bs_directions=n_bs, n_ms_directions=n_ms)
        grid = discovery_slot_grid(arch, scenario, geom, sweep_order=order)
        bs, ms = discovery_slot_sides(arch, scenario, geom, sweep_order=order)
        assert (bs.shape, ms.shape, bs.dtype, ms.dtype) == ((n_bs,), (n_ms,), np.int64, np.int64)
        b_sc = [15e3, 1e6]
        t_pss = [derive_frame(b).t_pss for b in b_sc]
        t_ci = ci_cost(arch, scenario, geom)[0]
        columns = verify_columns(arch, scenario, geom, b_sc, sweep_order=order)
        assert columns.min_time.tolist() == [grid.min() * t + t_ci for t in t_pss]
        assert columns.max_time.tolist() == [grid.max() * t + t_ci for t in t_pss]
        real = sweepsim.directional_scans
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweepsim, "directional_scans", lambda *args: real(*args) + 1)
            columns = verify_columns(arch, scenario, geom, b_sc, sweep_order=order)
        assert columns.passed is False
        assert columns.first_mismatch == divmod(int(np.argmax(grid)), n_ms)

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    @pytest.mark.parametrize("order", SWEEP_ORDERS)
    def test_counts_past_int64_are_the_whole_side(self, order, kind):
        # a BS group or MS beam set wider than its side sees every direction of it
        geom = SweepGeometry(n_bs_directions=60, n_ms_directions=14)

        def grid(beams, k):
            return discovery_slot_grid(_beams_arch(beams), default_scenarios()[kind], geom,
                                       sweep_order=order, k=k)

        assert np.array_equal(grid(4, 2**70), grid(4, 60))
        assert np.array_equal(grid(2**70, 3), grid(14, 3))


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


class TestVerifyColumns:
    @pytest.mark.parametrize("block_values", [None, 16], ids=["default-block", "16-value-block"])
    @settings(max_examples=80, deadline=None)
    @given(
        n_bs=st.integers(1, 40),  # up to 400 targets: past numpy's 128-value pairwise block
        n_ms=st.integers(1, 10),
        beams=st.integers(1, 12),
        kind=st.sampled_from(SCENARIO_KINDS),
        t_ci=st.floats(0.0, 10.0),
        order=st.sampled_from(SWEEP_ORDERS),
        b_sc=st.lists(st.floats(1e3, 1e9), min_size=1, max_size=40),
    )
    def test_rows_equal_per_b_sc_arithmetic(self, block_values, n_bs, n_ms, beams, kind,
                                            t_ci, order, b_sc):
        # 16 values split a column mid-way: several b_sc rows per block when the
        # grid is small, one row per block when it holds more than 8 targets
        arch = _beams_arch(beams)
        scenario = Scenario("CID", t_ci, DEFAULT_P_CI) if kind == "CID" else Scenario(kind)
        geom = SweepGeometry(n_bs_directions=n_bs, n_ms_directions=n_ms)
        with pytest.MonkeyPatch.context() as mp:
            if block_values is not None:
                mp.setattr(sweepsim, "_BLOCK_VALUES", block_values)
            sweepsim._MEANS.clear()  # a remembered mean would skip the blocks
            columns = verify_columns(arch, scenario, geom, b_sc, sweep_order=order)
        grid = discovery_slot_grid(arch, scenario, geom, sweep_order=order)
        t_ci_paid = ci_cost(arch, scenario, geom)[0]
        assert columns.n_targets == n_bs * n_ms
        assert columns.passed is True and columns.first_mismatch is None
        for i, b in enumerate(b_sc):
            frame = derive_frame(b)
            times = grid * frame.t_pss + t_ci_paid
            row = (columns.min_time[i], columns.mean_time[i], columns.max_time[i],
                   columns.analytic_delay[i])
            assert row == (times.min(), times.mean(), times.max(),
                           total_delay(arch, scenario, geom, frame)), (i, b)
            report = verify_against_analytic(arch, scenario, geom, frame, sweep_order=order)
            assert (report.min_time, report.mean_time, report.max_time,
                    report.analytic_delay, report.n_targets) == (*row, n_bs * n_ms)
            # the one-point call returns verify_columns' own record at that b_sc
            assert isinstance(report, VerificationColumns)
            single = verify_columns(arch, scenario, geom, [b], sweep_order=order)
            for field, got, want in zip(VerificationColumns._fields, report, single):
                if isinstance(want, np.ndarray):
                    assert np.array_equal(got, want), field
                else:
                    assert got == want, field

    def test_mismatch_names_the_worst_target(self, archs, scens, geom, monkeypatch):
        # a closed form one slot too long fails, at the target seen last
        real = sweepsim.directional_scans
        monkeypatch.setattr(sweepsim, "directional_scans", lambda *args: real(*args) + 1)
        columns = verify_columns(archs["ABF"], scens["nCI"], geom, [15e3, 1e6])
        assert (columns.passed, columns.first_mismatch) == (False, (63, 15))
        report = verify_against_analytic(archs["ABF"], scens["nCI"], geom, derive_frame(15e3))
        assert (report.passed, report.first_mismatch) == (False, (63, 15))
        # In seconds a one-slot gap vanishes when rounded into a large lead time
        # (t_ci = 1e20 at any b_sc, the default 1.5 s at b_sc = 1e300); in slots
        # it does not.  CID sees every MS direction of BS direction 63 in the last
        # slot, and argmax names the first of them.
        for scenario, b_sc in [(Scenario("CID", 1e20, DEFAULT_P_CI), [15e3, 1e6]),
                               (scens["CID"], [15e3, 1e300])]:
            columns = verify_columns(archs["ABF"], scenario, geom, b_sc)
            assert (columns.passed, columns.first_mismatch) == (False, (63, 0)), b_sc
            assert columns.max_time[-1] == columns.analytic_delay[-1]  # equal in seconds

    def test_boolean_b_sc_rejected(self, archs, scens, geom):
        with pytest.raises(ValueError, match="must be numbers"):
            verify_columns(archs["ABF"], scens["nCI"], geom, [15e3, True])

    @pytest.mark.parametrize(
        "bad, message",
        [(15e3, "one-dimensional"), (np.array(15e3), "one-dimensional"),
         (np.array([[15e3, 250e3]]), "one-dimensional"), ([[15e3, 250e3]], "must be numbers"),
         ([np.array([15e3, 250e3])], "one-dimensional")],
        ids=["scalar", "0-d-array", "2-d-array", "list-of-lists", "list-of-arrays"],
    )
    def test_b_sc_not_a_column_rejected(self, archs, scens, geom, bad, message):
        with pytest.raises(ValueError, match=message):
            verify_columns(archs["ABF"], scens["nCI"], geom, bad)

    def test_peak_memory_is_grid_plus_one_block(self, archs, scens):
        # 2**20 targets: the int64 grid and a one-row float64 block, 8 MiB each
        geom = SweepGeometry(n_bs_directions=1024, n_ms_directions=1024)
        b_sc = [15e3, 250e3, 10e6]
        sweepsim._MEANS.clear()  # a remembered mean would allocate neither
        tracemalloc.start()
        try:
            columns = verify_columns(archs["ABF"], scens["nCI"], geom, b_sc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grid_bytes = block_bytes = 8 * 2**20
        # slack for numpy's 64 KiB int -> float cast buffer and small objects
        assert peak <= grid_bytes + block_bytes + 2**18
        grid = discovery_slot_grid(archs["ABF"], scens["nCI"], geom)
        assert columns.mean_time.tolist() == [(grid * derive_frame(b).t_pss).mean() for b in b_sc]


@st.composite
def verify_inputs(draw, like=None):
    """verify_columns' arguments as a dict; each one that `like` holds is kept
    half the time, so that two draws often agree on all but one input."""
    fields = {
        "n_bs": st.integers(1, 40),
        "n_ms": st.integers(1, 10),
        "beams": st.integers(1, 12),
        "kind": st.sampled_from(SCENARIO_KINDS),
        "t_ci": st.floats(0.0, 10.0),
        "order": st.sampled_from(SWEEP_ORDERS),
        "b_sc": st.lists(st.floats(1e3, 1e9), min_size=1, max_size=5),
    }
    return {name: like[name] if like is not None and draw(st.booleans()) else draw(strategy)
            for name, strategy in fields.items()}


def _verify(inputs):
    kind, t_ci = inputs["kind"], inputs["t_ci"]
    scenario = Scenario("CID", t_ci, DEFAULT_P_CI) if kind == "CID" else Scenario(kind)
    geom = SweepGeometry(n_bs_directions=inputs["n_bs"], n_ms_directions=inputs["n_ms"])
    return verify_columns(_beams_arch(inputs["beams"]), scenario, geom, inputs["b_sc"],
                          sweep_order=inputs["order"])


def _spy_grid(monkeypatch):
    """The argument tuples of every discovery_slot_grid call from here on."""
    real, calls = sweepsim.discovery_slot_grid, []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sweepsim, "discovery_slot_grid", spy)
    return calls


class TestVerifyMemo:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_warm_memo_gives_the_cold_columns(self, data):
        first = data.draw(verify_inputs())
        second = data.draw(verify_inputs(like=first))
        sweepsim._MEANS.clear()
        _verify(first)
        warm = _verify(second)
        sweepsim._MEANS.clear()
        cold = _verify(second)
        for field, got, want in zip(VerificationColumns._fields, warm, cold):
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes(), field
            else:
                assert got == want, field

    # (config, distinct means): CInD and CID pin the beam set, so every receiver
    # and order shares one slot grid, with or without the CI lead; HBF and PSN
    # both form 4 beams; at 64x16 DBF's 16 beams see every MS direction at once.
    @pytest.mark.parametrize("raw,grids", [
        ({}, 6),
        ({"b_sc_hz": [250e3], "geometry": {"n_bs_directions": 512, "n_ms_directions": 256},
          "k": [1, 2, 4, 8, 16]}, 8),
    ], ids=["defaults", "large-grid"])
    def test_verify_enumerates_each_distinct_grid_once(self, raw, grids, monkeypatch):
        sweepsim._MEANS.clear()
        calls = _spy_grid(monkeypatch)
        _, status, _ = cli.cmd_verify(cli.resolve_config(raw))
        assert status == 0
        assert len(calls) == grids
        assert len(sweepsim._MEANS) == grids

    def test_memo_keeps_one_verify_run(self, archs, scens, geom, monkeypatch):
        sweepsim._MEANS.clear()
        for b in range(sweepsim._MEANS_MAX + 1):
            verify_columns(archs["ABF"], scens["nCI"], geom, [15e3 + b])
        assert len(sweepsim._MEANS) == sweepsim._MEANS_MAX == 24
        # the oldest mean went first, so its call enumerates the grid again
        calls = _spy_grid(monkeypatch)
        verify_columns(archs["ABF"], scens["nCI"], geom, [15e3 + sweepsim._MEANS_MAX])
        verify_columns(archs["ABF"], scens["nCI"], geom, [15e3])
        assert len(calls) == 1

    def test_key_tells_where_the_vectors_split(self, archs, scens, geom, monkeypatch):
        # the same three slots, split 2 + 1 and 1 + 2: other grids, other means
        sides = {}
        monkeypatch.setattr(sweepsim, "discovery_slot_sides", lambda *args, **kwargs: sides["now"])
        sweepsim._MEANS.clear()
        means = []
        for bs, ms in [([1, 2], [0]), ([1], [2, 0])]:
            sides["now"] = np.array(bs), np.array(ms)
            means.append(verify_columns(archs["ABF"], scens["nCI"], geom, [15e3]).mean_time)
        t_pss = derive_frame(15e3).t_pss
        assert [m.tolist() for m in means] == [[np.mean([t_pss, 2 * t_pss])],
                                               [np.mean([3 * t_pss, t_pss])]]

    def test_returned_mean_is_read_only(self, archs, scens, geom):
        columns = verify_columns(archs["HBF"], scens["nCI"], geom, [15e3, 1e6])
        before = columns.mean_time.tolist()
        with pytest.raises(ValueError, match="read-only"):
            columns.mean_time[0] = 0.0
        again = verify_columns(archs["HBF"], scens["nCI"], geom, [15e3, 1e6])
        assert again.mean_time.tolist() == before
