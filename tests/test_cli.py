import contextlib
import csv
import functools
import inspect
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmwicd import (AdcModel, SweepGeometry, architectures, build_architecture, cli,
                    default_scenarios, power, signaling, sweepsim)
from mmwicd.cli import DEFAULT_CONFIG, config_fingerprint, main

from conftest import TABULATED_B_SC, read_csv, scalar_energy
from record_golden import GOLDEN_CONFIGS, GOLDEN_DIR, output_digests

ARCH_ORDER = ("ABF", "DBF", "HBF", "PSN")


def run(args, tmp_path, extra=()):
    return main([*args, "--out", str(tmp_path / "out"), *extra])


def run_with_config(verb, tmp_path, raw):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    return run([verb], tmp_path, ("--config", str(config)))


def with_architecture_params(**counts):
    return {"architecture_params": {**DEFAULT_CONFIG["architecture_params"], **counts}}


# Configs whose ints pass float range only in a product or a converter count; each
# once stopped some verb with exit 1, "int too large to convert to float".
INT_PAST_FLOAT_RANGE = {
    "int-k-product": {"pss_base_b_sc_hz": 250000, "k": [1, 10**304]},
    "int-base-product": {"pss_base_b_sc_hz": 10**308, "k": [1, 2]},
    "dbf-converters": with_architecture_params(n_ms_antennas=10**308),
    "dbf-converters-parametric": {**with_architecture_params(n_ms_antennas=10**308),
                                  "power_mode": "parametric"},
}
# 2 * 5e307 converters fit a float; only convergence's product with the scan count does not.
HBF_CONVERTERS_NEAR_FLOAT_MAX = with_architecture_params(n_rf_chains=5 * 10**307)


class TestTables:
    def test_table_i_matches_golden_bytes(self, tmp_path):
        assert run(["tables"], tmp_path) == 0
        produced = (tmp_path / "out" / "tables-i.csv").read_bytes()
        assert produced == (GOLDEN_DIR / "table_i_golden.csv").read_bytes()

    def test_scan_count_table(self, tmp_path):
        run(["tables"], tmp_path)
        rows = {(r["architecture"], r["scenario"]): r
                for r in read_csv(tmp_path / "out" / "tables-ii.csv")}
        assert rows[("ABF", "nCI")]["n_scans"] == "1024"
        assert rows[("DBF", "nCI")]["n_scans"] == "64"
        assert rows[("HBF", "CID")]["t_ci_s"] == "1.5"
        assert rows[("DBF", "CID")]["t_ci_s"] == "0.0"

    def test_lookup_power_tables(self, tmp_path):
        run(["tables"], tmp_path)
        hp = read_csv(tmp_path / "out" / "tables-iii.csv")
        lp = read_csv(tmp_path / "out" / "tables-iv.csv")
        assert len(hp) == len(lp) == 20
        row = next(r for r in hp if r["architecture"] == "DBF" and r["b_sc_hz"] == "10000000.0")
        assert row["power_w"] == "25.1616"

    def test_parametric_tables_carry_residuals(self, tmp_path):
        assert run(["tables"], tmp_path, ("--power-mode", "parametric")) == 0
        for name in ("tables-iii.csv", "tables-iv.csv"):
            rows = read_csv(tmp_path / "out" / name)
            assert all(abs(float(r["rel_residual"])) <= 0.05 for r in rows)

    def test_header_comment(self, tmp_path):
        run(["tables"], tmp_path)
        lines = (tmp_path / "out" / "tables-i.csv").read_text().splitlines()
        assert lines[0] == "# tool: mmwicd 0.1.0"
        assert lines[1] == f"# config: sha256:{config_fingerprint(DEFAULT_CONFIG)}"

    def test_reruns_are_byte_identical(self, tmp_path):
        run(["tables"], tmp_path)
        first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        run(["tables"], tmp_path)
        second = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert first == second


class TestSweep:
    def test_default_grid_files(self, tmp_path):
        assert run(["sweep"], tmp_path) == 0
        out = tmp_path / "out"
        for kind in ("nCI", "CInD", "CID"):
            for cls in ("HPADC", "LPADC"):
                assert (out / f"sweep-{kind}-{cls}-6b.csv").exists()
        assert (out / "sweep-report.csv").exists()

    def test_reference_energy_row_present(self, tmp_path):
        run(["sweep"], tmp_path)
        rows = read_csv(tmp_path / "out" / "sweep-nCI-HPADC-6b.csv")
        row = next(r for r in rows if r["b_sc_hz"] == "15000.0")
        assert row["ABF"] == "5.12"

    def test_context_scenario_orderings(self, tmp_path):
        run(["sweep"], tmp_path)
        for r in read_csv(tmp_path / "out" / "sweep-CInD-LPADC-6b.csv"):
            values = {name: float(r[name]) for name in ARCH_ORDER}
            assert min(values, key=values.get) == "ABF"
        for r in read_csv(tmp_path / "out" / "sweep-CID-HPADC-6b.csv"):
            values = {name: float(r[name]) for name in ARCH_ORDER}
            assert min(values, key=values.get) == "DBF"

    def test_report_uses_frozen_schema(self, tmp_path):
        run(["sweep"], tmp_path)
        text = (tmp_path / "out" / "sweep-report.csv").read_text().splitlines()
        assert text[2] == "arch,scenario,adc_class,bits,b_sc_hz,n_d,t_del_s,p_rx_w,e_ci_j,e_total_j"

    def test_bits_flag_spawns_files(self, tmp_path):
        code = run(["sweep"], tmp_path,
                   ("--power-mode", "parametric", "--bits", "4", "--bits", "8"))
        assert code == 0
        assert (tmp_path / "out" / "sweep-nCI-HPADC-4b.csv").exists()
        assert (tmp_path / "out" / "sweep-nCI-HPADC-8b.csv").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_equal_scalar_arithmetic(self, tmp_path, archs, scens, fmt):
        b_sc = [15e3, 41e3, 2.5e6, 3e9]
        bits = [2, 6, 11]
        geom = SweepGeometry(60, 12)  # scan counts that are not powers of two
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "b_sc_hz": b_sc, "bits": bits, "power_mode": "parametric",
            "geometry": {"n_bs_directions": 60, "n_ms_directions": 12},
        }))
        assert run(["sweep"], tmp_path, ("--config", str(config), "--format", fmt)) == 0
        out = tmp_path / "out"

        def rows(name):
            if fmt == "json":
                return [list(r.values()) for r in json.loads((out / f"{name}.json").read_text())["rows"]]
            return [list(r.values()) for r in read_csv(out / f"{name}.csv")]

        def cells(row):  # csv holds str() of each value, which round-trips floats exactly
            return row if fmt == "json" else [str(v) for v in row]

        expected = []
        for kind in DEFAULT_CONFIG["scenarios"]:
            for cls in DEFAULT_CONFIG["adc_classes"]:
                for n_bits in bits:
                    adc = AdcModel(cls, bits=n_bits)
                    points = [[b, *(scalar_energy(archs[name], scens[kind], adc, b, "parametric", geom)
                                    for name in ARCH_ORDER)] for b in b_sc]
                    assert rows(f"sweep-{kind}-{cls}-{n_bits}b") == [
                        cells([b, *(values[-1] for values in per_arch)]) for b, *per_arch in points
                    ]
                    expected += [cells([name, kind, cls, n_bits, b, *values])
                                 for b, *per_arch in points
                                 for name, values in zip(ARCH_ORDER, per_arch)]
        assert rows("sweep-report") == expected

    def test_lookup_mode_outside_table_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"b_sc_hz": [123e3]}))
        code = run(["sweep"], tmp_path, ("--config", str(config)))
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: no table entry for (ABF, HPADC, b_sc=123000.0 Hz); "
            "use the parametric model\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw, message", [
        ({"b_sc_hz": [15e3, 300e3]}, "no table entry for (ABF, HPADC, b_sc=300000.0 Hz)"),
        # 4e-10 off 250 kHz: the table answers only at a spacing it equals
        ({"b_sc_hz": [15e3, 250000.0001]}, "no table entry for (ABF, HPADC, b_sc=250000.0001 Hz)"),
        (with_architecture_params(n_ms_antennas=8),
         "the lookup table measured DBF with 32 converters and 16 simultaneous beams, "
         "not 16 and 8"),
    ], ids=["untabulated-b_sc", "near-tabulated-b_sc", "8-antenna-DBF"])
    @pytest.mark.parametrize("verb", sorted(cli.COMMANDS))
    def test_lookup_sweep_refuses_what_the_table_did_not_measure(self, tmp_path, capsys,
                                                                 verb, raw, message):
        # sweep alone reads table power for the configured receivers; lookup_power
        # refuses before any file is written, and the other verbs run as they did
        code = run_with_config(verb, tmp_path, raw)
        out, err = capsys.readouterr()
        if verb != "sweep":
            assert (code, err) == (0, "")
            return
        assert (code, out) == (2, "")
        assert err == f"config error: {message}; use the parametric model\n"
        assert not (tmp_path / "out").exists()


class TestConvergence:
    def test_quarter_ratio_curve(self, tmp_path):
        assert run(["convergence"], tmp_path) == 0
        for cls in ("HPADC", "LPADC"):
            rows = read_csv(tmp_path / "out" / f"convergence-{cls}.csv")
            assert [r["bits"] for r in rows] == [str(b) for b in range(1, 13)]
            for r in rows:
                common = float(r["ABF"])
                assert float(r["DBF"]) == pytest.approx(common, rel=1e-9)
                assert float(r["HBF"]) == pytest.approx(common, rel=1e-9)
                assert float(r["PSN"]) == pytest.approx(common / 4, rel=1e-9)


class TestPowerModelCache:
    """default_power_model calibrates once per class a verb uses."""

    @pytest.fixture
    def calibrations(self, monkeypatch):
        calls = []
        original = power.calibrate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        power.default_power_model.cache_clear()
        monkeypatch.setattr(power, "calibrate", counting)
        yield calls
        power.default_power_model.cache_clear()

    @pytest.mark.parametrize("args, expected", [
        (["sweep", "--power-mode", "parametric"], 2),
        (["tables", "--power-mode", "parametric"], 2),
        (["convergence"], 2),
        (["pss"], 1),
        (["verify"], 0),
    ], ids=["sweep", "tables", "convergence", "pss", "verify"])
    def test_calibrations_per_verb(self, calibrations, tmp_path, args, expected):
        assert run(args, tmp_path) == 0
        assert len(calibrations) == expected


class TestInputsReadOnce:
    """Each verb reads the power table and the b_sc grid as columns, once."""

    @staticmethod
    def counting(monkeypatch, name):
        calls, original = [], getattr(cli, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
        return calls

    def test_parametric_tables_call_the_model_once_per_entry(self, monkeypatch, tmp_path):
        cfg = cli.resolve_config({"power_mode": "parametric", "out": str(tmp_path)})
        modeled, built, adcs = (self.counting(monkeypatch, name) for name in
                                ("parametric_power", "build_architecture", "AdcModel"))
        cli.cmd_tables(cfg)
        assert sorted((model.adc_class, arch.name) for model, arch, _, _ in modeled) == sorted(
            (cls, name) for cls in ("HPADC", "LPADC") for name in ("ABF", "DBF", "HBF", "PSN"))
        assert all(len(b_sc) == len(TABULATED_B_SC) for *_, b_sc in modeled)
        assert (built, len(adcs)) == ([], 2)

    def test_sweep_and_verify_pass_the_config_grid_as_it_is(self, monkeypatch, tmp_path):
        cfg = cli.resolve_config({"power_mode": "parametric", "bits": [3, 6], "out": str(tmp_path)})
        assert type(cfg.b_sc) is tuple and set(map(type, cfg.b_sc)) == {float}
        assert signaling._b_sc_floats(cfg.b_sc) is cfg.b_sc
        frames, powers, verify_calls = (self.counting(monkeypatch, name) for name in
                                        ("frame_scaling", "_parametric_column", "verify_columns"))
        cli.cmd_sweep(cfg)
        # one frame per verb, and one power column per (class, bits, architecture) on its b_tot
        assert frames == [(cfg.b_sc,)] and frames[0][0] is cfg.b_sc
        assert sorted((model.adc_class, adc.bits, arch.name) for model, arch, adc, _ in powers) == [
            (cls, bits, name) for cls in ("HPADC", "LPADC") for bits in (3, 6) for name in ARCH_ORDER]
        assert len({id(b_tot) for *_, b_tot in powers}) == 1
        cli.cmd_verify(cfg)
        assert len(verify_calls) == 4 * 3 * 2
        assert all(args[3] is cfg.b_sc for args in verify_calls)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dense_sweep_spells_each_distinct_nonzero_float_once(self, monkeypatch, tmp_path, fmt):
        raw = GOLDEN_CONFIGS["dense-bsc-0"]
        tables = cli.cmd_sweep(cli.resolve_config(raw))[0]
        distinct = {value for _, columns in tables for column in columns.values()
                    for value in column if type(value) is float and value}
        spelled = []
        monkeypatch.setattr(cli, "repr", lambda value: spelled.append(value) or repr(value),
                            raising=False)
        assert run_with_config("sweep", tmp_path, {**raw, "format": fmt}) == 0
        nonzero = [value for value in spelled if value]
        assert len(nonzero) == len(distinct) and set(nonzero) == distinct


class TestVerify:
    def test_all_combinations_pass(self, tmp_path, capsys):
        assert run(["verify"], tmp_path) == 0
        assert "12/12 combinations pass" in capsys.readouterr().out
        rows = read_csv(tmp_path / "out" / "verify.csv")
        # 4 architectures x 3 scenarios x 2 orders x 5 grid points
        assert len(rows) == 120
        assert all(r["passed"] == "True" for r in rows)
        assert all(r["max_s"] == r["analytic_s"] for r in rows)

    def test_mismatch_exits_three(self, tmp_path, capsys, monkeypatch):
        real = cli.verify_columns

        def broken(arch, scenario, geom, b_sc, *, sweep_order):
            columns = real(arch, scenario, geom, b_sc, sweep_order=sweep_order)
            if arch.name == "HBF" and scenario.kind == "nCI":
                return columns._replace(passed=False, first_mismatch=(1, 2))
            return columns

        monkeypatch.setattr(cli, "verify_columns", broken)
        assert run(["verify"], tmp_path) == 3
        assert "11/12 combinations pass" in capsys.readouterr().out
        rows = read_csv(tmp_path / "out" / "verify.csv")
        failed = [r for r in rows if r["passed"] == "False"]
        assert len(failed) == 2 * 5
        assert {(r["architecture"], r["scenario"], r["first_mismatch"]) for r in failed} == {
            ("HBF", "nCI", "1|2")}
        assert all(r["first_mismatch"] == "" for r in rows if r["passed"] == "True")

    @pytest.mark.parametrize("one_slot_long, code, summary",
                             [(False, 0, "12/12"), (True, 3, "0/12")],
                             ids=["closed-form", "closed-form-one-slot-long"])
    def test_verdict_survives_a_huge_lead_time(self, tmp_path, capsys, monkeypatch,
                                               one_slot_long, code, summary):
        # 1e20 s of CI lead absorbs a one-slot gap in seconds, not in slots
        if one_slot_long:
            real = sweepsim.directional_scans
            monkeypatch.setattr(sweepsim, "directional_scans", lambda *args: real(*args) + 1)
        assert run_with_config("verify", tmp_path, {
            "scenario_params": {"t_ci_s": 1e20, "p_ci_w": 0.1}}) == code
        assert f"{summary} combinations pass" in capsys.readouterr().out

    def test_beams_that_do_not_divide_pass(self, tmp_path, capsys):
        # 3 and 5 beams divide neither 14 MS nor 60 BS directions
        assert run_with_config("verify", tmp_path, {
            "architecture_params": {"n_ms_antennas": 16, "n_rf_chains": 3, "n_combiners": 5},
            "geometry": {"n_bs_directions": 60, "n_ms_directions": 14},
        }) == 0
        assert "12/12 combinations pass" in capsys.readouterr().out


class TestPss:
    def test_delay_and_energy_vs_k(self, tmp_path):
        assert run(["pss"], tmp_path) == 0
        rows = read_csv(tmp_path / "out" / "pss.csv")
        assert len(rows) == 4 * 5
        by_arch = {}
        for r in rows:
            assert r["sim_worst_delay_s"] == r["analytic_delay_s"]
            assert float(r["energy_ratio"]) == pytest.approx(1.0, rel=1e-9)
            by_arch.setdefault(r["architecture"], []).append(float(r["e_proposed_j"]))
        for name, totals in by_arch.items():
            assert all(a > b for a, b in zip(totals, totals[1:])), name

    @pytest.mark.parametrize("raw", [{"k": [3, 5, 7]}, {"scenarios": ["CID"]}],
                             ids=["k-3-5-7", "CID"])
    def test_analytic_delay_equals_simulated(self, tmp_path, raw):
        # k that does not divide the 64 BS directions; a CI lead time that k must not shorten
        assert run_with_config("pss", tmp_path, raw) == 0
        rows = read_csv(tmp_path / "out" / "pss.csv")
        assert len(rows) == 4 * len(raw.get("k", DEFAULT_CONFIG["k"]))
        assert all(r["sim_worst_delay_s"] == r["analytic_delay_s"] for r in rows)

    @pytest.mark.parametrize("one_slot_long, scenarios, code, summary",
                             [(False, None, 0, "20/20"), (True, None, 3, "0/20"),
                              (True, ["CID"], 3, "0/20")],
                             ids=["closed-form", "closed-form-one-slot-long",
                                  "CID-closed-form-one-slot-long"])
    def test_verdict_survives_a_huge_lead_time(self, tmp_path, capsys, monkeypatch,
                                               one_slot_long, scenarios, code, summary):
        # The golden config evaluates nCI.  Under CID, 1e20 s of lead absorbs a
        # one-slot gap in the seconds columns, not in the slot verdict.
        raw = dict(GOLDEN_CONFIGS["cid-lead-1e20"])
        if scenarios is not None:
            raw["scenarios"] = scenarios
        if one_slot_long:
            real = architectures.directional_scans
            for module in (architectures, cli):
                monkeypatch.setattr(module, "directional_scans", lambda *args: real(*args) + 1)
        assert run_with_config("pss", tmp_path, raw) == code
        assert capsys.readouterr().out.splitlines()[-1] == f"{summary} rows pass"
        if scenarios is not None:
            rows = read_csv(tmp_path / "out" / "pss.csv")
            # DBF's 16 beams see every MS direction, so it pays no lead
            assert {r["architecture"] for r in rows
                    if r["sim_worst_delay_s"] == r["analytic_delay_s"]} == {"ABF", "HBF", "PSN"}

    def test_rows_name_what_was_evaluated(self, tmp_path):
        # pss evaluates nCI (when listed), the first ADC class and the first bits
        assert run_with_config("pss", tmp_path, {
            "scenarios": ["CID", "nCI"], "adc_classes": ["LPADC", "HPADC"],
        }) == 0
        rows = read_csv(tmp_path / "out" / "pss.csv")
        assert len(rows) == 4 * 5
        assert {(r["scenario"], r["adc_class"], r["bits"]) for r in rows} == {("nCI", "LPADC", "6")}
        assert list(rows[0])[-4:] == ["scenario", "adc_class", "bits", "power_mode"]
        assert {r["power_mode"] for r in rows} == {"parametric"}


class TestConfigHandling:
    def test_help_lists_every_verb_with_its_text(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listing = " ".join(capsys.readouterr().out.split())  # whatever argparse wraps
        for verb, (_, text) in cli.COMMANDS.items():
            assert text and f" {verb} {text} " in f"{listing} ", verb

    def test_empty_grid_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"b_sc_hz": []}))
        assert run(["tables"], tmp_path, ("--config", str(config))) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"subcarrier": [15e3]}))
        assert run(["tables"], tmp_path, ("--config", str(config))) == 2

    @pytest.mark.parametrize("verb", sorted(cli.COMMANDS))
    def test_resolution_law_is_an_unknown_key(self, tmp_path, capsys, verb):
        # the converter power grows with 2**bits, and verify walks both sweep orders;
        # there is no other law or order to choose
        for key, value in (("resolution_law", "exponential"),
                           ("sweep_orders", list(sweepsim.SWEEP_ORDERS))):
            assert run_with_config(verb, tmp_path, {key: value}) == 2
            assert capsys.readouterr().err == f"config error: unknown config keys: ['{key}']\n"
            assert not (tmp_path / "out").exists()

    def test_malformed_json_is_config_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert run(["tables"], tmp_path, ("--config", str(config))) == 2

    def test_missing_file_is_config_error(self, tmp_path):
        assert run(["tables"], tmp_path, ("--config", str(tmp_path / "nope.json"))) == 2

    def test_unknown_architecture_is_config_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"architectures": ["ABF", "QBF"]}))
        assert run(["tables"], tmp_path, ("--config", str(config))) == 2

    def test_unknown_power_mode_is_config_error(self, tmp_path, capsys):
        assert run_with_config("sweep", tmp_path, {"power_mode": "psychic"}) == 2
        assert "power_mode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,key", [
        ('{"b_sc_hz": [Infinity]}', "b_sc_hz"),
        ('{"scenario_params": {"t_ci_s": NaN, "p_ci_w": 0.1}}', "t_ci_s"),
        ('{"pss_base_b_sc_hz": Infinity}', "pss_base_b_sc_hz"),
        ('{"geometry": {"n_bs_directions": 1e999, "n_ms_directions": 16}}',
         "n_bs_directions"),
    ])
    def test_non_finite_literal_is_config_error(self, tmp_path, capsys, text, key):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert run(["verify"], tmp_path, ("--config", str(config))) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    @pytest.mark.parametrize("raw,key", [
        ({"b_sc_hz": [True]}, "b_sc_hz"),
        ({"pss_base_b_sc_hz": True}, "pss_base_b_sc_hz"),
    ])
    def test_boolean_number_is_config_error(self, tmp_path, capsys, raw, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert run(["verify"], tmp_path, ("--config", str(config))) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("raw,key", [
        ({"b_sc_hz": [float("inf")]}, "b_sc_hz"),
        ({"pss_base_b_sc_hz": float("inf")}, "pss_base_b_sc_hz"),
        ({"scenario_params": {"t_ci_s": float("nan"), "p_ci_w": 0.1}}, "scenario_params"),
    ])
    def test_non_finite_value_rejected_by_resolve_config(self, raw, key):
        with pytest.raises(cli.ConfigError, match=key):
            cli.resolve_config(raw)

    @pytest.mark.parametrize("raw,key", [
        ({"geometry": {"n_bs_directions": 2.5, "n_ms_directions": 16}}, "geometry"),
        ({"geometry": {"n_bs_directions": 64, "n_ms_directions": True}}, "geometry"),
        ({"architecture_params": {"n_ms_antennas": 16, "n_rf_chains": 2.5, "n_combiners": 4}},
         "architecture_params"),
        ({"architecture_params": {"n_ms_antennas": 16, "n_rf_chains": 4, "n_combiners": True}},
         "architecture_params"),
        ({"architectures": ["ABF"],
          "architecture_params": {"n_ms_antennas": 16, "n_rf_chains": 2.5, "n_combiners": True}},
         "architecture_params"),
    ], ids=["fractional-direction", "boolean-direction", "fractional-chains",
            "boolean-combiners", "unused-by-listed-schemes"])
    def test_non_integer_count_is_config_error(self, tmp_path, capsys, raw, key):
        assert run_with_config("sweep", tmp_path, raw) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_bs,n_ms", [(10**6, 10**6), (4097, 4096), (2**24 + 1, 1)])
    def test_geometry_over_target_cap_is_config_error(self, n_bs, n_ms):
        with pytest.raises(cli.ConfigError, match="geometry"):
            cli.resolve_config({"geometry": {"n_bs_directions": n_bs, "n_ms_directions": n_ms}})

    def test_geometry_at_target_cap_is_accepted(self):
        cfg = cli.resolve_config({"geometry": {"n_bs_directions": 4096, "n_ms_directions": 4096}})
        assert cfg.geom.n_bs_directions * cfg.geom.n_ms_directions == cli.MAX_TARGETS == 2**24

    @pytest.mark.parametrize("verb", ["verify", "pss"])
    def test_oversized_geometry_exits_two(self, tmp_path, capsys, verb):
        # Rejected before any array is allocated: numpy would ask for 7.28 TiB
        raw = {"geometry": {"n_bs_directions": 10**6, "n_ms_directions": 10**6}}
        assert run_with_config(verb, tmp_path, raw) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "geometry" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["bits", "convergence_bits"])
    def test_overflowing_bits_are_config_error(self, tmp_path, capsys, key):
        # 2.0 ** 1024 overflows a float; the verb would stop with exit 1 mid-way
        assert run_with_config("sweep", tmp_path, {key: [6, 2000], "power_mode": "parametric"}) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} entry 2000") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        assert getattr(cli.resolve_config({key: [1023], "power_mode": "parametric"}),
                       key) == (1023,)

    @pytest.mark.parametrize("verb", sorted(cli.COMMANDS))
    def test_lookup_takes_only_the_table_bits(self, tmp_path, capsys, verb):
        # the table holds 6-bit measurements, so every verb refuses other bits under lookup
        assert run([verb], tmp_path, ("--bits", "3")) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: bits must be [6] under lookup")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        assert run([verb], tmp_path, ("--bits", "3", "--power-mode", "parametric")) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("raw,message", [
        ({"pss_base_b_sc_hz": 1e308}, "pss_base_b_sc_hz * max(k) must be finite"),
        # a count past float range is refused as the count, by the one count rule
        ({"k": [10**400]}, "k entries must be integers >= 1 that a float holds"),
    ], ids=["base", "k-past-float-range"])
    def test_overflowing_pss_bandwidth_is_config_error(self, tmp_path, capsys, raw, message):
        assert run_with_config("pss", tmp_path, raw) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", sorted(cli.COMMANDS))
    @pytest.mark.parametrize("case", sorted(INT_PAST_FLOAT_RANGE))
    def test_int_past_float_range_is_config_error(self, tmp_path, capsys, verb, case):
        # an int product or converter count past float range is refused up front, never exit 1
        assert run_with_config(verb, tmp_path, INT_PAST_FLOAT_RANGE[case]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: ") and err.count("\n") == 1
        assert "pss_base_b_sc_hz * max(k)" in err or "bad architecture_params: n_adc" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", sorted(cli.COMMANDS))
    def test_converter_count_near_float_range(self, tmp_path, capsys, verb):
        # HBF's 10**308 converters fit a float, but 64 scans of them do not: convergence
        # refuses its inf limit by file and column, and the verbs that never form it run;
        # sweep's lookup power holds only the default HBF, so it runs parametric
        raw = HBF_CONVERTERS_NEAR_FLOAT_MAX
        if verb == "sweep":
            raw = {**raw, "power_mode": "parametric"}
        code = run_with_config(verb, tmp_path, raw)
        out, err = capsys.readouterr()
        if verb != "convergence":
            assert (code, err) == (0, "")
            return
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("config error: refusing to write convergence-")
        assert "column HBF holds inf" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k, fmt", [
        pytest.param(k, fmt, id=name if fmt == "csv" else f"{name}-json")
        for fmt in ("csv", "json")
        for name, k in (("1e5", 100000), ("int64-max", 2**63 - 1), ("int64-max+1", 2**63),
                        ("1e19", 10**19), ("1e300", 10**300))])
    def test_any_k_runs(self, tmp_path, capsys, k, fmt):
        # a BS group wider than the BS side is the whole side, past int64 too;
        # the writer spells each k exactly in both formats
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": [1, k]}))
        assert run(["pss"], tmp_path, ("--config", str(config), "--format", fmt)) == 0
        assert capsys.readouterr().err == ""
        report = tmp_path / "out" / f"pss.{fmt}"
        if fmt == "csv":
            assert [row["k"] for row in read_csv(report)][:2] == ["1", str(k)]
        else:
            assert [row["k"] for row in json.loads(report.read_text())["rows"]][:2] == [1, k]
            assert f'"k": {k},' in report.read_text()

    @pytest.mark.parametrize("verb", ["verify", "pss"])
    @pytest.mark.parametrize("param", sorted(DEFAULT_CONFIG["architecture_params"]))
    def test_architecture_params_past_int64_run(self, tmp_path, capsys, param, verb):
        raw = {"architecture_params": {**DEFAULT_CONFIG["architecture_params"], param: 2**70}}
        assert run_with_config(verb, tmp_path, raw) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if verb == "verify":
            assert out.splitlines()[-1] == "12/12 combinations pass"

    @pytest.mark.parametrize("key,values", [
        ("b_sc_hz", [15e3, 250e3, 15000]),
        ("bits", [6, 6]),
        ("convergence_bits", [1, 2, 1]),
        ("k", [1, 4, 4]),
        ("architectures", ["ABF", "ABF"]),
        ("scenarios", ["nCI", "CID", "nCI"]),
        ("adc_classes", ["LPADC", "LPADC"]),
    ])
    def test_repeated_list_entry_is_config_error(self, tmp_path, capsys, key, values):
        # a repeat would write a file twice, or lose a column under a repeated name
        assert run_with_config("sweep", tmp_path, {key: values}) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"config error: {key} entries must be distinct")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_integer_literal_past_digit_limit_is_config_error(self, tmp_path, capsys):
        # json reads a 5,000-digit literal as an int, which Python refuses past 4,300 digits
        config = tmp_path / "config.json"
        config.write_text('{"k": [' + "9" * 5000 + "]}")
        assert run(["tables"], tmp_path, ("--config", str(config))) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and "4300" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_literal_is_one_line_naming_its_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"b_sc_hz": [15e3, Infinity]}')
        assert run(["tables"], tmp_path, ("--config", str(config))) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and "b_sc_hz" in err

    @pytest.mark.parametrize("raw,key", [
        ({"geometry": {"n_bs_directions": 64, "n_ms_directions": 16, "n_rings": 2}}, "geometry"),
        ({"architecture_params": {"n_ms_antennas": 16, "n_rf_chains": 4, "n_combiners": 4,
                                  "n_phase_shifters": 64}}, "architecture_params"),
        ({"scenario_params": {"t_ci_s": "1.5", "p_ci_w": 0.1}}, "t_ci_s"),
        ({"scenario_params": {"t_ci_s": 1.5, "p_ci_w": True}}, "p_ci_w"),
        ({"scenarios": ["nCI"], "scenario_params": {"t_ci_s": -5, "p_ci_w": 0.1}},
         "scenario_params"),
        ({"out": 5}, "out"),
        ({"b_sc_hz": [10**400]}, "b_sc_hz"),
        ({"scenario_params": {"t_ci_s": 10**400, "p_ci_w": 0.1}}, "t_ci_s"),
        ({"bits": [3]}, "bits"),
        ({"b_sc_hz": [[15e3]]}, "b_sc_hz"),
    ], ids=["extra-geometry-key", "extra-architecture-key", "string-budget", "boolean-budget",
            "negative-budget-without-CID", "numeric-out", "b_sc-past-float-range",
            "budget-past-float-range", "bits-off-the-table-under-lookup", "nested-b_sc-list"])
    def test_value_the_model_cannot_take_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                         raw, key):
        # No --out flag, so "out" comes from the config; outputs would land in tmp_path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps(raw))
        assert main(["sweep", "--config", "config.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and key in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_config_overrides_grid(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"b_sc_hz": [15e3]}))
        run(["tables"], tmp_path, ("--config", str(config)))
        assert len(read_csv(tmp_path / "out" / "tables-i.csv")) == 1

    def test_fingerprint_ignores_presentation_keys(self):
        base = config_fingerprint(DEFAULT_CONFIG)
        assert config_fingerprint({**DEFAULT_CONFIG, "out": "elsewhere"}) == base
        assert config_fingerprint({**DEFAULT_CONFIG, "format": "json"}) == base
        assert config_fingerprint({**DEFAULT_CONFIG, "bits": [8]}) != base

    def test_default_config_repeats_the_model_defaults(self):
        # DEFAULT_CONFIG reads each paper default from the model layer
        arch_params = inspect.signature(build_architecture).parameters.values()
        cid = default_scenarios()["CID"]
        assert DEFAULT_CONFIG["geometry"] == SweepGeometry()._asdict()
        assert DEFAULT_CONFIG["architecture_params"] == {
            p.name: p.default for p in arch_params if p.kind is p.KEYWORD_ONLY}
        assert DEFAULT_CONFIG["scenario_params"] == {"t_ci_s": cid.t_ci, "p_ci_w": cid.p_ci}
        for cls in power.ADC_CLASSES:
            assert DEFAULT_CONFIG["bits"] == [AdcModel(cls).bits]

    def test_integer_budget_is_read_as_a_float(self, tmp_path, capsys):
        # json reads 2 and -1 as ints; the CI budget is written and refused as a float
        budget = {"scenario_params": {"t_ci_s": 2, "p_ci_w": 0}}
        assert run_with_config("tables", tmp_path, budget) == 0
        rows = {(r["architecture"], r["scenario"]): r["t_ci_s"]
                for r in read_csv(tmp_path / "out" / "tables-ii.csv")}
        assert {name: rows[name, "CID"] for name in ARCH_ORDER} == {
            "ABF": "2.0", "DBF": "0.0", "HBF": "2.0", "PSN": "2.0"}
        budget = {"scenario_params": {"t_ci_s": -1, "p_ci_w": 0.1}}
        assert run_with_config("sweep", tmp_path, budget) == 2
        assert "t_ci=-1.0," in capsys.readouterr().err


class TestJsonFormat:
    def test_sweep_json_payload(self, tmp_path):
        assert run(["sweep"], tmp_path, ("--format", "json")) == 0
        payload = json.loads((tmp_path / "out" / "sweep-nCI-HPADC-6b.json").read_text())
        assert payload["tool"] == "mmwicd 0.1.0"
        assert payload["config_sha256"] == config_fingerprint(DEFAULT_CONFIG)
        first = payload["rows"][0]
        assert first["b_sc_hz"] == 15e3
        assert first["ABF"] == 5.12


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """(digests, directory) of every verb's outputs on a golden config in one
    format, each written once for the tests that read them."""
    @functools.cache
    def run_once(name, fmt):
        tmp = tmp_path_factory.mktemp(name)
        return output_digests(tmp, GOLDEN_CONFIGS[name], fmt), tmp / fmt
    return run_once


class TestGoldenOutputs:
    """Byte-level outputs, spelling of floats and line terminators included,
    as recorded in tests/data/golden_sha256.json from the csv.writer-based
    writer; perfbench's digests parse values and cannot see either."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_outputs_match_recorded_bytes(self, golden_run, name, fmt):
        golden = json.loads((GOLDEN_DIR / "golden_sha256.json").read_text())
        assert golden_run(name, fmt)[0] == golden[name][fmt]

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_formats_carry_the_same_values(self, golden_run, name):
        # str of each JSON value is its CSV cell (True, not true), title by title.
        csv_dir, json_dir = (golden_run(name, fmt)[1] for fmt in ("csv", "json"))
        csv_files, json_files = sorted(csv_dir.glob("*/*.csv")), sorted(json_dir.glob("*/*.json"))
        assert [p.relative_to(csv_dir).with_suffix("") for p in csv_files] == \
               [p.relative_to(json_dir).with_suffix("") for p in json_files]
        for csv_path, json_path in zip(csv_files, json_files):
            with open(csv_path, encoding="utf-8", newline="") as fh:
                header, *cells = csv.reader(line for line in fh if not line.startswith("#"))
            rows = json.loads(json_path.read_text())["rows"]
            assert all(list(row) == header for row in rows), csv_path.name
            assert [list(map(str, row.values())) for row in rows] == cells, csv_path.name


class TestNonFiniteOutput:
    # Finite inputs whose CI energy (and verify's mean delay) overflow to inf
    OVERFLOWING_CI = {"scenario_params": {"t_ci_s": 1e308, "p_ci_w": 10}}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("verb,name,column", [
        ("sweep", "sweep-CID-HPADC-6b", "ABF"),
        ("verify", "verify", "mean_s"),
    ])
    def test_refused_with_exit_two(self, tmp_path, capsys, verb, name, column, fmt):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.OVERFLOWING_CI))
        assert run([verb], tmp_path, ("--config", str(config), "--format", fmt)) == 2
        out, err = capsys.readouterr()
        # the one config error line, no numpy overflow warning ahead of it
        assert err.startswith(f"config error: refusing to write {name}.{fmt}: column {column} "
                              "holds inf")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "combinations pass" not in out and "wrote" not in out
        # nothing at all is written, not even the files checked before the refused one
        assert list((tmp_path / "out").glob("*")) == []


# Floats at the edges of repr: signed zeros, subnormals, and both sides of the
# switches to exponent notation at 1e16 and 1e-4.
REPR_SWITCHES = (1e16, 1e-4, -1e16, -1e-4)
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               *REPR_SWITCHES,
               *(math.nextafter(x, to) for x in REPR_SWITCHES for to in (0.0, math.inf))]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
SHARED_FLOATS = (1.5, 0.0, 5e-324)
plain_text = st.text(alphabet="abcXYZ019_|.+- ", max_size=4)
cell_ints = st.one_of(st.integers(), st.integers(2**63, 2**200),
                       st.integers(-2**200, -2**63 - 1))


def one_type_column(draw, n_rows, floats):
    """A list or tuple of n_rows cells of one type: floats from the given
    strategy, ints (some past int64), bools or plain_text."""
    cells = draw(st.sampled_from([floats, cell_ints, st.booleans(), plain_text]))
    column = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
    return tuple(column) if draw(st.booleans()) else column


@st.composite
def tables(draw):
    """{title: column} under distinct titles, each column a list or tuple of
    one type: floats that repeat a few values of a pool drawn from `floats`
    (EDGE_FLOATS half the time), ints (some past int64), bools or short strings."""
    n_rows = draw(st.integers(0, 10))
    table = {}
    for title in draw(st.lists(plain_text, min_size=2, max_size=5, unique=True)):
        pool = draw(st.lists(floats, min_size=1, max_size=4))
        table[title] = one_type_column(draw, n_rows, st.sampled_from(pool))
    return table


@st.composite
def table_sets(draw):
    """2-4 (name, {title: column}) tables under distinct titles, each column a
    list or tuple of one type, whose floats come from one shared pool or from
    EDGE_FLOATS, so that the tables share floats of either sign of zero."""
    pool = draw(st.lists(floats, min_size=1, max_size=6))
    pooled = st.one_of(st.sampled_from(pool), st.sampled_from(EDGE_FLOATS))
    result = []
    for i in range(draw(st.integers(2, 4))):
        n_rows = draw(st.integers(0, 8))
        titles = draw(st.lists(plain_text, min_size=2, max_size=4, unique=True))
        result.append((f"table{i}", {title: one_type_column(draw, n_rows, pooled)
                                     for title in titles}))
    return result


# Columns no verb makes, each refused as a program error (exit 1).
NOT_COLUMNS = {
    "float64-array": lambda: np.array([0.5, 1.5]),
    "generator": lambda: (v for v in (0.5, 1.5)),
    "int-and-float": lambda: [1, 1.0],
    "bool-and-int": lambda: [True, 1],
    "str-and-int": lambda: ["x", 2],
}


class TestColumnWriter:
    """_emit writes what csv.writer, and json.dump with indent=2, wrote for the
    same rows: one writer, checked against both references."""

    @pytest.fixture(scope="class")
    def configs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("emit")
        return {fmt: cli.resolve_config({"out": str(out), "format": fmt}) for fmt in ("csv", "json")}

    @staticmethod
    def expected(cfg, table):
        rows = list(zip(*table.values()))
        buf = io.StringIO(newline="")
        if cfg.fmt == "csv":
            buf.write(f"# tool: mmwicd 0.1.0\n# config: sha256:{cfg.fingerprint}\n")
            writer = csv.writer(buf)
            writer.writerow(table)
            writer.writerows(rows)
        else:
            json.dump({"tool": "mmwicd 0.1.0", "config_sha256": cfg.fingerprint,
                       "rows": [dict(zip(table, row)) for row in rows]}, buf, indent=2)
            buf.write("\n")
        return buf.getvalue().encode()

    @staticmethod
    def refused(cfg, table_list):
        """Whether the tables hold a non-finite float; if so, check that _emit refuses the
        first one, in table and column order, by name."""
        bad = [(f"{name}.{cfg.fmt}", title, value) for name, table in table_list
               for title, column in table.items() for value in column
               if type(value) is float and not math.isfinite(value)]
        if bad:
            with pytest.raises(cli.ConfigError) as refusal:
                cli._emit(cfg, table_list)
            assert str(refusal.value).startswith(
                "refusing to write {}: column {} holds {}; ".format(*bad[0]))
        return bool(bad)

    @example(table={"a": [1.5, 0.0, -0.0, 1.5], "b": (7, 7, 2**70, -1),
                    "c": [True, False, True, True], "d": ["x", "", "x", "y"]})
    @example(table={"a": [], "b": ()})
    # cells that compare equal, and hash alike, across columns, types and signs
    @example(table={"a": [1, 1, 0, 0], "b": [True, True, False, False],
                    "c": (1.0, -0.0, 0.0, 1.0)})
    @example(table={"a": [1.5, -0.0, 1e16], "b": [1e-5, 5e-324, 0.1]})
    # equal cells of three types in one _emit keep their own spelling
    @example(table={"a": [1, 2], "b": [1.0, 2.0], "c": [True, False]})
    # zeros of either sign after a column that held 0.0
    @example(table={"a": [0.0, 1.5, 0.0, 2.5], "b": [0.5, -0.0, 0.0, 0.5]})
    # refused, naming the column's first non-finite float
    @example(table={"a": [1, 2, 3, 4], "b": [0.5, 1.5, math.inf, math.nan]})
    @given(table=tables())
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_csv_writer_and_json_dump(self, configs, table):
        for cfg in configs.values():
            if self.refused(cfg, [("table", table)]):
                continue
            cli._emit(cfg, [("table", table)])
            path = cfg.out_dir / f"table.{cfg.fmt}"
            assert path.read_bytes() == self.expected(cfg, table)

    @example(table_list=[("table0", {"a": [0.0, -0.0], "b": (-0.0, 1.5)}),
                         ("table1", {"c": (1.5, 0.0), "d": [True, False]})])
    # one tuple object in several columns and tables
    @example(table_list=[("table0", {"a": SHARED_FLOATS, "b": SHARED_FLOATS}),
                         ("table1", {"c": [-0.0, 2.5, 1.5], "d": SHARED_FLOATS})])
    @example(table_list=[("table0", {"a": [1, 2], "b": [1.0, 2.0]}),
                         ("table1", {"c": [True, False], "d": (2.0, 1.0)})])
    @example(table_list=[("table0", {"a": [0.0, 1.5], "b": [0.0, 0.0]}),
                         ("table1", {"c": [0.5, -0.0, 0.0, 0.5], "d": ["x", "y", "z", "w"]})])
    # the pool already holds the finite cells of the refused column
    @example(table_list=[("table0", {"a": [0.5, 1.5], "b": [1.5, 0.5]}),
                         ("table1", {"c": [1, 2, 3, 4], "d": [0.5, 1.5, math.inf, math.nan]})])
    @given(table_list=table_sets())
    @settings(max_examples=300, deadline=None)
    def test_tables_sharing_floats_match_csv_writer(self, configs, table_list):
        for cfg in configs.values():
            if self.refused(cfg, table_list):
                continue
            cli._emit(cfg, table_list)
            for name, table in table_list:
                path = cfg.out_dir / f"{name}.{cfg.fmt}"
                assert path.read_bytes() == self.expected(cfg, table), path.name

    @pytest.mark.parametrize("cell", [",", '"', "\r", "\n", "a,b", 'say "x"'])
    def test_cell_needing_quotes_raises(self, configs, cell):
        for column in (["x", cell], ("x", cell)):
            with pytest.raises(ValueError, match="quoted.csv: column b holds a cell that needs "
                                                 "CSV quoting"):
                cli._emit(configs["csv"], [("quoted", {"a": [1.0, 2.0], "b": column})])
        with pytest.raises(ValueError, match="quot"):
            cli._emit(configs["csv"], [("quoted", {"a": [1.0], cell: ["x"]})])
        assert not (configs["csv"].out_dir / "quoted.csv").exists()

    # json.dumps escapes these (CSV refuses the first and the newline); % and
    # braces would be format syntax in a row template.
    @pytest.mark.parametrize("text", ['"', "\\", "\n", "\t", "\x00", "é", "\u2028", "%s", "{0}"])
    def test_json_escapes_text_as_json_dump_does(self, configs, text):
        for table in ({"a": [1.0, 2.0], "b": ["x", text]},
                      {"a": [1.0, 2.0], text: [3, 3]},
                      {"a": [1.0, 2.0], "b": (text, text)}):
            cli._emit(configs["json"], [("escaped", table)])
            path = configs["json"].out_dir / "escaped.json"
            assert path.read_bytes() == self.expected(configs["json"], table)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_raises(self, configs, fmt, bad):
        for column in ([0.5, bad], (0.5, bad)):
            with pytest.raises(cli.ConfigError,
                               match=f"refusing to write refused.{fmt}: column b holds"):
                cli._emit(configs[fmt], [("refused", {"a": [1, 2], "b": column})])
        assert not (configs[fmt].out_dir / f"refused.{fmt}").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column", NOT_COLUMNS.values(), ids=NOT_COLUMNS)
    def test_column_of_another_shape_exits_one_writing_nothing(self, tmp_path, capsys,
                                                               monkeypatch, fmt, column):
        def verb(cfg):
            return [("first", {"a": [1.0], "b": [2.0]}),
                    ("other", {"a": [1.0, 2.0], "b": column()})], 0, None

        message = f"other.{fmt}: column b is not a list or tuple of one type"
        with pytest.raises(ValueError, match=message) as refused:
            cli._emit(cli.resolve_config({"out": str(tmp_path / "out"), "format": fmt}),
                      verb(None)[0])
        assert not isinstance(refused.value, cli.ConfigError)
        monkeypatch.setitem(cli.COMMANDS, "tables", (verb, "a column of another shape"))
        assert run(["tables"], tmp_path, ("--format", fmt)) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and err.endswith("\n") and "wrote" not in out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_refused_table_leaves_every_table_unwritten(self, tmp_path, fmt):
        cfg = cli.resolve_config({"out": str(tmp_path / "out"), "format": fmt})
        with pytest.raises(cli.ConfigError, match=f"refusing to write second.{fmt}: column b"):
            cli._emit(cfg, [("first", {"a": [1.0], "b": [2.0]}),
                            ("second", {"a": [1.0], "b": [math.inf]})])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unequal_columns_exit_one_writing_nothing(self, tmp_path, capsys, monkeypatch, fmt):
        def uneven(cfg):
            return [("first", {"a": [1.0], "b": [2.0]}),
                    ("uneven", {"a": [1.0, 2.0], "b": [3.0]})], 0, None

        monkeypatch.setitem(cli.COMMANDS, "tables", (uneven, "columns of unequal lengths"))
        assert run(["tables"], tmp_path, ("--format", fmt)) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: uneven.{fmt}: columns of unequal lengths [2, 1]")
        assert err.count("\n") == 1 and err.endswith("\n") and "wrote" not in out
        assert not (tmp_path / "out").exists()


# The paper's range, where a config runs clean, and the whole range the config
# checks take, where most configs are refused or drive an output past float range.
paper_floats = st.floats(1e3, 1e7)
positive_floats = st.one_of(paper_floats, st.floats(min_value=0.0, max_value=sys.float_info.max,
                                                    exclude_min=True))
budget_floats = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, sys.float_info.max))
big_ints = st.one_of(st.integers(1, 10**308), st.integers(10**306, 10**308))


@st.composite
def cli_runs(draw):
    """(format, config): a small geometry, with values in the paper's range in
    about two draws of three, so that most draws run their verb to the end.

    The other draws are wide: list entries may repeat, bits and convergence_bits
    entries reach 1100 (2**1024 passes float range), spacings, budgets and
    pss_base_b_sc_hz any positive float (pss_base_b_sc_hz also an int up to
    10**308), and each architecture count any int up to 10**308, half of those at
    or above 10**306, where their products with k, scan counts and 2 (the I/Q
    pair) can pass float range.  Under lookup, b_sc_hz comes from the table's
    spacings, half the time with a spacing it did not measure added (the float
    next to a tabulated one, or any other), which sweep refuses (exit 2) as it
    refuses a receiver the table did not measure (any but the default receivers,
    drawn only in a wide draw); bits is [6], and in a wide draw any other bits
    half the time, which is refused.  In every draw pss_base_b_sc_hz is a Python
    int part of the time.
    """
    wide = draw(st.sampled_from([False, False, True]))

    def counts(hi, wide_hi):
        if not wide:
            return st.lists(st.integers(1, hi), min_size=1, max_size=3, unique=True)
        return st.lists(st.one_of(st.integers(1, 12), st.integers(1, wide_hi)),
                        min_size=1, max_size=3)

    arch_counts = st.one_of(st.integers(1, 16), big_ints) if wide else st.integers(1, 16)
    spacings = positive_floats if wide else paper_floats
    bits = counts(12, 1100)
    lookup = draw(st.sampled_from(["lookup", "parametric"])) == "lookup"
    raw = {
        "power_mode": "lookup" if lookup else "parametric",
        "geometry": {"n_bs_directions": draw(st.integers(1, 40)),
                     "n_ms_directions": draw(st.integers(1, 10))},
        "architecture_params": (
            {name: draw(arch_counts) for name in ("n_ms_antennas", "n_rf_chains", "n_combiners")}
            if wide or not lookup else dict(DEFAULT_CONFIG["architecture_params"])),
        "b_sc_hz": draw(st.lists(st.sampled_from(TABULATED_B_SC), min_size=1, max_size=3,
                                 unique=True) if lookup
                        else st.lists(spacings, min_size=1, max_size=3, unique=not wide)),
        "pss_base_b_sc_hz": draw(st.one_of(spacings, big_ints if wide
                                           else st.integers(10**3, 10**7))),
        "bits": draw((st.one_of(st.just([6]), bits) if wide else st.just([6])) if lookup else bits),
        "convergence_bits": draw(bits),
        "k": draw(counts(80, 80)),
        "scenario_params": {key: draw(budget_floats if wide else st.floats(0.0, 10.0))
                            for key in ("t_ci_s", "p_ci_w")},
    }
    if lookup and draw(st.booleans()):
        raw["b_sc_hz"].append(draw(st.one_of(
            st.sampled_from(TABULATED_B_SC).map(lambda t: float(np.nextafter(t, np.inf))),
            positive_floats.filter(lambda b: b not in TABULATED_B_SC))))
    return draw(st.sampled_from(["csv", "json"])), raw


def written_numbers(path):
    """Every number in one output file (csv cells that parse as floats)."""
    if path.suffix == ".json":
        return [v for row in json.loads(path.read_text())["rows"] for v in row.values()
                if isinstance(v, (int, float))]
    numbers = []
    for row in read_csv(path):
        for cell in row.values():
            with contextlib.suppress(ValueError):
                numbers.append(float(cell))
    return numbers


@st.composite
def damaged_runs(draw):
    """(verb, format, config, key): a cli_runs() config whose nested object key
    gains a key, loses one, or has one value turned into a string or a bool."""
    verb = draw(st.sampled_from(sorted(cli.COMMANDS)))
    fmt, raw = draw(cli_runs())
    key = draw(st.sampled_from(["geometry", "architecture_params", "scenario_params"]))
    params = raw[key]
    name = draw(st.sampled_from(sorted(params)))
    damage = draw(st.sampled_from(["add", "drop", "string", "bool"]))
    if damage == "add":
        params["n_extra"] = params[name]
    elif damage == "drop":
        del params[name]
    else:
        params[name] = str(params[name]) if damage == "string" else draw(st.booleans())
    return verb, fmt, raw, key


def run_in_process(verb, fmt, raw):
    """(exit code, stdout, stderr, files written) of one cli.main run on raw."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out_dir = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(raw))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([verb, "--config", str(config), "--out", str(out_dir), "--format", fmt])
        written = {path.name: written_numbers(path) for path in sorted(out_dir.glob("*"))}
    return code, stdout.getvalue(), stderr.getvalue(), written


class TestCliProperty:
    """A random config either runs clean or is refused as a whole."""

    # One property run per verb, so that every verb sees as many configs.
    @pytest.mark.parametrize("verb", sorted(cli.COMMANDS))
    @given(run_args=cli_runs())
    @example(run_args=("csv", INT_PAST_FLOAT_RANGE["int-k-product"]))
    @example(run_args=("json", INT_PAST_FLOAT_RANGE["int-base-product"]))
    @example(run_args=("csv", INT_PAST_FLOAT_RANGE["dbf-converters"]))
    @example(run_args=("csv", INT_PAST_FLOAT_RANGE["dbf-converters-parametric"]))
    @example(run_args=("csv", HBF_CONVERTERS_NEAR_FLOAT_MAX))
    @example(run_args=("csv", {"b_sc_hz": [15e3, 300e3]}))  # sweep's lookup_power refuses
    @example(run_args=("json", with_architecture_params(n_ms_antennas=8)))
    @settings(max_examples=40, deadline=None)
    def test_exit_zero_with_finite_outputs_or_exit_two_with_none(self, verb, run_args):
        code, stdout, stderr, written = run_in_process(verb, *run_args)
        if code == 2:
            assert stderr.startswith("config error: ")
            assert stderr.count("\n") == 1
            assert written == {}
            return
        assert code == 0, stderr
        assert written and stderr == ""
        for name, numbers in written.items():
            assert all(map(math.isfinite, numbers)), name
        if verb in ("verify", "pss"):
            counts, *summary = stdout.splitlines()[-1].split()
            passed, total = counts.split("/")
            assert passed == total
            assert summary == (["rows", "pass"] if verb == "pss" else ["combinations", "pass"])

    @given(run_args=damaged_runs())
    @settings(max_examples=100, deadline=None)
    def test_damaged_nested_object_is_refused_naming_it(self, run_args):
        verb, fmt, raw, key = run_args
        code, _, stderr, written = run_in_process(verb, fmt, raw)
        assert code == 2
        assert stderr.startswith("config error: ") and stderr.count("\n") == 1 and key in stderr
        assert written == {}
