import json
from pathlib import Path

import pytest

from mmwicd import cli
from mmwicd.cli import DEFAULT_CONFIG, config_fingerprint, main
from mmwicd.sweepsim import VerificationReport

from conftest import read_csv

GOLDEN_DIR = Path(__file__).parent / "data"
ARCH_ORDER = ("ABF", "DBF", "HBF", "PSN")


def run(args, tmp_path, extra=()):
    return main([*args, "--out", str(tmp_path / "out"), *extra])


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
        real = cli.verify_against_analytic

        def broken(arch, scenario, geom, frame, *, sweep_order):
            report = real(arch, scenario, geom, frame, sweep_order=sweep_order)
            if arch.name == "HBF" and scenario.kind == "nCI":
                return VerificationReport(
                    **{**report.__dict__, "passed": False, "first_mismatch": (1, 2)}
                )
            return report

        monkeypatch.setattr(cli, "verify_against_analytic", broken)
        assert run(["verify"], tmp_path) == 3
        assert "11/12 combinations pass" in capsys.readouterr().out


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
