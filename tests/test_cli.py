import contextlib
import csv
import hashlib
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

from mmwicd import AdcModel, SweepGeometry, cli
from mmwicd.cli import DEFAULT_CONFIG, config_fingerprint, main

from conftest import read_csv, scalar_energy

GOLDEN_DIR = Path(__file__).parent / "data"
ARCH_ORDER = ("ABF", "DBF", "HBF", "PSN")


def run(args, tmp_path, extra=()):
    return main([*args, "--out", str(tmp_path / "out"), *extra])


def run_with_config(verb, tmp_path, raw):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    return run([verb], tmp_path, ("--config", str(config)))


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

    def test_lookup_mode_outside_table_is_runtime_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"b_sc_hz": [123e3]}))
        code = run(["sweep"], tmp_path, ("--config", str(config)))
        assert code == 1
        assert "error" in capsys.readouterr().err


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
                return columns._replace(passed=np.zeros_like(columns.passed),
                                        first_mismatch=(1, 2))
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
    def test_empty_grid_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"b_sc_hz": []}))
        assert run(["tables"], tmp_path, ("--config", str(config))) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"subcarrier": [15e3]}))
        assert run(["tables"], tmp_path, ("--config", str(config))) == 2

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
        assert getattr(cli.resolve_config({key: [1023]}), key) == (1023,)

    @pytest.mark.parametrize("raw", [{"pss_base_b_sc_hz": 1e308}, {"k": [10**400]}],
                             ids=["base", "k-past-float-range"])
    def test_overflowing_pss_bandwidth_is_config_error(self, tmp_path, capsys, raw):
        assert run_with_config("pss", tmp_path, raw) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "pss_base_b_sc_hz" in err and "max(k)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k", [2**63, 10**19, 10**300], ids=["int64-max+1", "1e19", "1e300"])
    def test_k_past_int64_is_config_error(self, tmp_path, capsys, k):
        assert run_with_config("pss", tmp_path, {"k": [1, k]}) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: k entries") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k", [100000, 2**63 - 1], ids=["1e5", "int64-max"])
    def test_k_within_int64_runs(self, tmp_path, capsys, k):
        assert run_with_config("pss", tmp_path, {"k": [1, k]}) == 0
        assert capsys.readouterr().err == ""
        assert [row["k"] for row in read_csv(tmp_path / "out" / "pss.csv")][:2] == ["1", str(k)]

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
    ], ids=["extra-geometry-key", "extra-architecture-key", "string-budget", "boolean-budget",
            "negative-budget-without-CID", "numeric-out", "b_sc-past-float-range",
            "budget-past-float-range"])
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


class TestJsonFormat:
    def test_sweep_json_payload(self, tmp_path):
        assert run(["sweep"], tmp_path, ("--format", "json")) == 0
        payload = json.loads((tmp_path / "out" / "sweep-nCI-HPADC-6b.json").read_text())
        assert payload["tool"] == "mmwicd 0.1.0"
        assert payload["config_sha256"] == config_fingerprint(DEFAULT_CONFIG)
        first = payload["rows"][0]
        assert first["b_sc_hz"] == 15e3
        assert first["ABF"] == 5.12


# Every file each verb writes, in both formats, on two configs: the defaults
# and a 60x14 parametric grid, where 3 and 5 beams do not divide the 14 MS
# directions and k = 7 does not divide the 60 BS directions.
GOLDEN_CONFIGS = {
    "defaults": {},
    "60x14": {
        "power_mode": "parametric",
        "geometry": {"n_bs_directions": 60, "n_ms_directions": 14},
        "architecture_params": {"n_ms_antennas": 16, "n_rf_chains": 3, "n_combiners": 5},
        "bits": [3, 6, 9],
        "k": [1, 3, 5, 7],
    },
}


def output_digests(tmp_path, raw, fmt):
    """{verb: {file name: sha256}} of what each verb writes into a fresh directory."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    digests = {}
    for verb in cli.COMMANDS:
        out = tmp_path / fmt / verb
        assert main([verb, "--config", str(config), "--out", str(out), "--format", fmt]) == 0
        digests[verb] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(out.iterdir())}
    return digests


class TestGoldenOutputs:
    """Byte-level outputs, spelling of floats and line terminators included,
    as recorded in tests/data/golden_sha256.json from the csv.writer-based
    writer; perfbench's digests parse values and cannot see either."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_outputs_match_recorded_bytes(self, tmp_path, name, fmt):
        golden = json.loads((GOLDEN_DIR / "golden_sha256.json").read_text())
        assert output_digests(tmp_path, GOLDEN_CONFIGS[name], fmt) == golden[name][fmt]


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
plain_text = st.text(alphabet="abcXYZ019_|.+- ", max_size=4)


@st.composite
def tables(draw):
    """(header, columns): float columns that repeat a few values (some as numpy
    arrays), and columns of ints, bools, short strings and floats mixed."""
    n_rows = draw(st.integers(0, 10))
    header = tuple(draw(st.lists(plain_text, min_size=2, max_size=5)))
    columns = []
    for _ in header:
        if draw(st.booleans()):
            pool = draw(st.lists(floats, min_size=1, max_size=4))
            column = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
            columns.append(np.array(column) if draw(st.booleans()) else column)
        else:
            cell = st.one_of(st.integers(), st.booleans(), plain_text, floats)
            columns.append(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
    return header, columns


@st.composite
def table_sets(draw):
    """2-4 (name, header, columns) tables whose float cells come from one shared
    pool, or (half of the draws) from EDGE_FLOATS: Python lists and float64
    arrays, int64 and bool arrays, and columns of floats mixed with ints, bools
    and text."""
    pool = draw(st.lists(floats, min_size=1, max_size=6))
    pooled = st.one_of(st.sampled_from(pool), st.sampled_from(EDGE_FLOATS))
    result = []
    for i in range(draw(st.integers(2, 4))):
        n_rows = draw(st.integers(0, 8))
        header = tuple(draw(st.lists(plain_text, min_size=2, max_size=4)))
        columns = []
        for _ in header:
            kind = draw(st.sampled_from(["list", "array", "int64", "bool", "mixed"]))
            if kind == "int64":
                cells = st.integers(-2**63, 2**63 - 1)
            elif kind == "bool":
                cells = st.booleans()
            elif kind == "mixed":
                cells = st.one_of(pooled, st.integers(), st.booleans(), plain_text)
            else:
                cells = pooled
            column = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
            if kind in ("array", "int64", "bool"):
                column = np.array(column, dtype={"array": np.float64, "int64": np.int64,
                                                 "bool": np.bool_}[kind])
            columns.append(column)
        result.append((f"table{i}", header, columns))
    return result


class TestColumnWriter:
    """_emit writes what csv.writer (and json.dump) wrote for the same rows."""

    @pytest.fixture(scope="class")
    def configs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("emit")
        return {fmt: cli.resolve_config({"out": str(out), "format": fmt}) for fmt in ("csv", "json")}

    @staticmethod
    def expected(cfg, header, columns):
        rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
        buf = io.StringIO(newline="")
        if cfg.fmt == "csv":
            buf.write(f"# tool: mmwicd 0.1.0\n# config: sha256:{cfg.fingerprint}\n")
            writer = csv.writer(buf)
            writer.writerow(header)
            writer.writerows(rows)
        else:
            json.dump({"tool": "mmwicd 0.1.0", "config_sha256": cfg.fingerprint,
                       "rows": [dict(zip(header, row)) for row in rows]}, buf, indent=2)
            buf.write("\n")
        return buf.getvalue().encode()

    @example(table=(("a", "b"), [[1.5, 0.0, -0.0, 1.5], [7, True, "x", ""]]))
    @given(table=tables())
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_csv_writer_and_json_dump(self, configs, table):
        header, columns = table
        for cfg in configs.values():
            cli._emit(cfg, [("table", header, columns)])
            path = cfg.out_dir / f"table.{cfg.fmt}"
            assert path.read_bytes() == self.expected(cfg, header, columns)

    @example(table_list=[("table0", ("a", "b"), [[0.0, -0.0], np.array([-0.0, 1.5])]),
                         ("table1", ("c", "d"), [np.array([1.5, 0.0]), [True, 0.0]])])
    @given(table_list=table_sets())
    @settings(max_examples=300, deadline=None)
    def test_tables_sharing_floats_match_csv_writer(self, configs, table_list):
        for cfg in configs.values():
            cli._emit(cfg, table_list)
            for name, header, columns in table_list:
                path = cfg.out_dir / f"{name}.{cfg.fmt}"
                assert path.read_bytes() == self.expected(cfg, header, columns), path.name

    @pytest.mark.parametrize("cell", [",", '"', "\r", "\n", "a,b", 'say "x"'])
    def test_cell_needing_quotes_raises(self, configs, cell):
        with pytest.raises(ValueError, match="quot"):
            cli._emit(configs["csv"], [("quoted", ("a", "b"), [[1.0, 2.0], ["x", cell]])])
        with pytest.raises(ValueError, match="quot"):
            cli._emit(configs["csv"], [("quoted", ("a", cell), [[1.0], ["x"]])])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_raises(self, configs, fmt, bad):
        with pytest.raises(cli.ConfigError, match=f"refusing to write refused.{fmt}: column b"):
            cli._emit(configs[fmt], [("refused", ("a", "b"), [[1, 2], np.array([0.5, bad])])])
        assert not (configs[fmt].out_dir / f"refused.{fmt}").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_refused_table_leaves_every_table_unwritten(self, tmp_path, fmt):
        cfg = cli.resolve_config({"out": str(tmp_path / "out"), "format": fmt})
        with pytest.raises(cli.ConfigError, match=f"refusing to write second.{fmt}: column b"):
            cli._emit(cfg, [("first", ("a", "b"), [[1.0], [2.0]]),
                            ("second", ("a", "b"), [[1.0], [math.inf]])])
        assert not (tmp_path / "out").exists()


# Any positive float up to the largest, and any float a CI budget may hold;
# half of the draws come from the paper's range, where most configs run clean.
positive_floats = st.one_of(st.floats(1e3, 1e7),
                            st.floats(min_value=0.0, max_value=sys.float_info.max,
                                      exclude_min=True))
budget_floats = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, sys.float_info.max))


@st.composite
def cli_runs(draw):
    """(verb, format, config): a small geometry and any finite, in-range values."""
    def small_ints(hi):
        return st.lists(st.one_of(st.integers(1, 12), st.integers(1, hi)), min_size=1, max_size=3)

    raw = {
        "power_mode": "parametric",
        "geometry": {"n_bs_directions": draw(st.integers(1, 40)),
                     "n_ms_directions": draw(st.integers(1, 10))},
        "architecture_params": {"n_ms_antennas": draw(st.integers(1, 16)),
                                "n_rf_chains": draw(st.integers(1, 16)),
                                "n_combiners": draw(st.integers(1, 16))},
        "b_sc_hz": draw(st.lists(positive_floats, min_size=1, max_size=3)),
        "pss_base_b_sc_hz": draw(positive_floats),
        "bits": draw(small_ints(1100)),
        "convergence_bits": draw(small_ints(1100)),
        "k": draw(small_ints(80)),
        "scenario_params": {"t_ci_s": draw(budget_floats), "p_ci_w": draw(budget_floats)},
    }
    return draw(st.sampled_from(sorted(cli.COMMANDS))), draw(st.sampled_from(["csv", "json"])), raw


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
    verb, fmt, raw = draw(cli_runs())
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

    @given(run_args=cli_runs())
    @settings(max_examples=200, deadline=None)
    def test_exit_zero_with_finite_outputs_or_exit_two_with_none(self, run_args):
        code, stdout, stderr, written = run_in_process(*run_args)
        if code == 2:
            assert stderr.startswith("config error: ")
            assert stderr.count("\n") == 1
            assert written == {}
            return
        assert code == 0, stderr
        assert written and stderr == ""
        for name, numbers in written.items():
            assert all(map(math.isfinite, numbers)), name
        if run_args[0] == "verify":
            passed, total = stdout.splitlines()[-1].split()[0].split("/")
            assert passed == total

    @given(run_args=damaged_runs())
    @settings(max_examples=100, deadline=None)
    def test_damaged_nested_object_is_refused_naming_it(self, run_args):
        verb, fmt, raw, key = run_args
        code, _, stderr, written = run_in_process(verb, fmt, raw)
        assert code == 2
        assert stderr.startswith("config error: ") and stderr.count("\n") == 1 and key in stderr
        assert written == {}
