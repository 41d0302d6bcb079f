"""Command-line front end: grid runs, table reproduction, and the sim oracle.

Verbs: tables | sweep | convergence | verify | pss.  Outputs are deterministic
CSV (or JSON) files; every file embeds the tool version and a hash of the
scientific configuration so results can be traced back to their inputs.

Exit codes: 0 ok, 1 runtime failure, 2 config error, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .architectures import (
    ARCHITECTURE_NAMES,
    SCENARIO_KINDS,
    Architecture,
    Scenario,
    SweepGeometry,
    build_architecture,
    build_scenario,
    directional_scans,
    total_delay,
    uses_ci_budget,
)
from .energy import (
    CSV_COLUMNS,
    POWER_MODES,
    convergence_value,
    energy,
    proposed_structure_energy,
)
from .power import (
    ADC_CLASSES,
    AdcModel,
    default_power_model,
    default_power_table,
    parametric_power,
)
from .signaling import build_pss_structure, derive_frame
from .sweepsim import (
    SWEEP_ORDERS,
    verify_against_analytic,
    worst_case_structure_delay,
)

OUTPUT_FORMATS = ("csv", "json")

# Scientific defaults; "out" and "format" are presentation-only and excluded
# from the config fingerprint.
DEFAULT_CONFIG = {
    "b_sc_hz": [15e3, 250e3, 500e3, 1e6, 10e6],
    "architectures": list(ARCHITECTURE_NAMES),
    "scenarios": list(SCENARIO_KINDS),
    "adc_classes": ["HPADC", "LPADC"],
    "bits": [6],
    "convergence_bits": list(range(1, 13)),
    "power_mode": "lookup",
    "resolution_law": "exponential",
    "geometry": {"n_bs_directions": 64, "n_ms_directions": 16},
    "architecture_params": {"n_ms_antennas": 16, "n_rf_chains": 4, "n_combiners": 4},
    "scenario_params": {"t_ci_s": 1.5, "p_ci_w": 0.1},
    "k": [1, 2, 4, 8, 16],
    "pss_base_b_sc_hz": 250e3,
    "sweep_orders": list(SWEEP_ORDERS),
    "format": "csv",
    "out": "out",
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    fingerprint: str  # sha256 of the scientific part of raw
    b_sc: tuple[float, ...]
    architectures: tuple[Architecture, ...]
    scenarios: tuple[Scenario, ...]
    adc_classes: tuple[str, ...]
    bits: tuple[int, ...]
    convergence_bits: tuple[int, ...]
    power_mode: str
    resolution_law: str
    geom: SweepGeometry
    k_values: tuple[int, ...]
    pss_base_b_sc: float
    sweep_orders: tuple[str, ...]
    out_dir: Path
    fmt: str


def config_fingerprint(raw: dict) -> str:
    payload = {key: val for key, val in raw.items() if key not in ("out", "format")}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_positive_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v) and v > 0)


def _positive_floats(raw: dict, key: str) -> tuple[float, ...]:
    values = raw[key]
    _require(isinstance(values, list) and values, f"{key} must be a non-empty list")
    for v in values:
        _require(_is_positive_number(v), f"{key} entries must be finite numbers > 0")
    return tuple(float(v) for v in values)


def _positive_ints(raw: dict, key: str) -> tuple[int, ...]:
    values = raw[key]
    _require(isinstance(values, list) and values, f"{key} must be a non-empty list")
    for v in values:
        _require(isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                 f"{key} entries must be integers >= 1")
    return tuple(values)


def resolve_config(raw: dict) -> RunConfig:
    """Validate the merged config dict and build the runtime objects."""
    unknown = set(raw) - set(DEFAULT_CONFIG)
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    merged = {**DEFAULT_CONFIG, **raw}

    b_sc = _positive_floats(merged, "b_sc_hz")
    bits = _positive_ints(merged, "bits")
    convergence_bits = _positive_ints(merged, "convergence_bits")
    k_values = _positive_ints(merged, "k")

    arch_names = merged["architectures"]
    _require(isinstance(arch_names, list) and arch_names, "architectures must be a non-empty list")
    for name in arch_names:
        _require(name in ARCHITECTURE_NAMES,
                 f"unknown architecture {name!r}; expected one of {ARCHITECTURE_NAMES}")
    params = merged["architecture_params"]
    try:
        architectures = tuple(
            build_architecture(
                name,
                n_ms_antennas=params["n_ms_antennas"],
                n_rf_chains=params["n_rf_chains"],
                n_combiners=params["n_combiners"],
            )
            for name in arch_names
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad architecture_params: {exc}") from exc

    scenario_kinds = merged["scenarios"]
    _require(isinstance(scenario_kinds, list) and scenario_kinds, "scenarios must be a non-empty list")
    for kind in scenario_kinds:
        _require(kind in SCENARIO_KINDS,
                 f"unknown scenario {kind!r}; expected one of {SCENARIO_KINDS}")
    sc_params = merged["scenario_params"]
    try:
        scenarios = tuple(
            build_scenario(kind, t_ci=sc_params["t_ci_s"], p_ci=sc_params["p_ci_w"])
            if kind == "CID"
            else build_scenario(kind)
            for kind in scenario_kinds
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario_params: {exc}") from exc

    adc_classes = merged["adc_classes"]
    _require(isinstance(adc_classes, list) and adc_classes, "adc_classes must be a non-empty list")
    for cls in adc_classes:
        _require(cls in ADC_CLASSES, f"unknown ADC class {cls!r}; expected one of {ADC_CLASSES}")

    _require(merged["power_mode"] in POWER_MODES,
             f"power_mode must be one of {POWER_MODES}")
    _require(merged["resolution_law"] in ("exponential", "linear"),
             "resolution_law must be 'exponential' or 'linear'")
    _require(merged["format"] in OUTPUT_FORMATS, f"format must be one of {OUTPUT_FORMATS}")

    geometry = merged["geometry"]
    try:
        geom = SweepGeometry(
            n_bs_directions=geometry["n_bs_directions"],
            n_ms_directions=geometry["n_ms_directions"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad geometry: {exc}") from exc

    orders = merged["sweep_orders"]
    _require(isinstance(orders, list) and orders, "sweep_orders must be a non-empty list")
    for order in orders:
        _require(order in SWEEP_ORDERS, f"unknown sweep order {order!r}")

    pss_base = merged["pss_base_b_sc_hz"]
    _require(_is_positive_number(pss_base), "pss_base_b_sc_hz must be a finite number > 0")

    return RunConfig(
        raw=merged,
        fingerprint=config_fingerprint(merged),
        b_sc=b_sc,
        architectures=architectures,
        scenarios=scenarios,
        adc_classes=tuple(adc_classes),
        bits=bits,
        convergence_bits=convergence_bits,
        power_mode=merged["power_mode"],
        resolution_law=merged["resolution_law"],
        geom=geom,
        k_values=k_values,
        pss_base_b_sc=float(pss_base),
        sweep_orders=tuple(orders),
        out_dir=Path(merged["out"]),
        fmt=merged["format"],
    )


def _reject_non_finite(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: fail on NaN, Infinity or an overflowing literal
    (1e999), naming its key."""
    for key, val in pairs:
        for v in val if isinstance(val, list) else (val,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{key} must be finite, got {v}")
    return dict(pairs)


def load_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh, object_pairs_hook=_reject_non_finite)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    if args.out is not None:
        raw["out"] = args.out
    if args.format is not None:
        raw["format"] = args.format
    if args.power_mode is not None:
        raw["power_mode"] = args.power_mode
    if args.bits:
        raw["bits"] = args.bits
    return resolve_config(raw)


# ---------------------------------------------------------------------------
# Output helpers


def _header_lines(cfg: RunConfig) -> list[str]:
    return [f"# tool: mmwicd {__version__}", f"# config: sha256:{cfg.fingerprint}"]


def _write_csv(cfg: RunConfig, name: str, columns: tuple[str, ...], rows: list[tuple]) -> Path:
    path = cfg.out_dir / f"{name}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in _header_lines(cfg):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    return path


def _write_json(cfg: RunConfig, name: str, columns: tuple[str, ...], rows: list[tuple]) -> Path:
    path = cfg.out_dir / f"{name}.json"
    payload = {
        "tool": f"mmwicd {__version__}",
        "config_sha256": cfg.fingerprint,
        "rows": [dict(zip(columns, row)) for row in rows],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def _emit(cfg: RunConfig, name: str, columns: tuple[str, ...], rows: list[tuple]) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    writer = _write_csv if cfg.fmt == "csv" else _write_json
    path = writer(cfg, name, columns, rows)
    print(f"wrote {path}")
    return path


def _adc(cfg: RunConfig, cls: str, bits: int) -> AdcModel:
    return AdcModel(cls=cls, bits=bits)


def _model(cfg: RunConfig, cls: str):
    return default_power_model(cls, cfg.resolution_law)


# ---------------------------------------------------------------------------
# Commands


def cmd_tables(cfg: RunConfig) -> int:
    """Frame timing, scan counts, and the measured/modeled power tables."""
    rows_i = []
    for b_sc in cfg.b_sc:
        frame = derive_frame(b_sc)
        rows_i.append((b_sc, frame.t_pss, frame.b_tot, f"{frame.b_tot / 1e6:.1f}"))
    _emit(cfg, "tables-i", ("b_sc_hz", "t_pss_s", "b_tot_hz", "b_tot_mhz"), rows_i)

    rows_ii = []
    for arch in cfg.architectures:
        for scenario in cfg.scenarios:
            t_ci = scenario.t_ci if uses_ci_budget(arch, scenario, cfg.geom) else 0.0
            rows_ii.append((arch.name, scenario.kind,
                            directional_scans(arch, scenario, cfg.geom), t_ci))
    _emit(cfg, "tables-ii", ("architecture", "scenario", "n_scans", "t_ci_s"), rows_ii)

    table = default_power_table()
    for file_name, cls in (("tables-iii", "HPADC"), ("tables-iv", "LPADC")):
        if cls not in cfg.adc_classes:
            continue
        samples = [s for s in table if s.adc_class == cls]
        if cfg.power_mode == "lookup":
            columns = ("architecture", "adc_class", "b_sc_hz", "power_w")
            rows = [(s.architecture, s.adc_class, s.b_sc, s.power) for s in samples]
        else:
            model = _model(cfg, cls)
            columns = ("architecture", "adc_class", "b_sc_hz", "power_w",
                       "model_power_w", "rel_residual")
            rows = []
            for s in samples:
                arch = build_architecture(s.architecture)
                modeled = parametric_power(model, arch, AdcModel(cls), s.b_sc)
                rows.append((s.architecture, s.adc_class, s.b_sc, s.power,
                             modeled, (modeled - s.power) / s.power))
        _emit(cfg, file_name, columns, rows)
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    """Energy over the b_sc grid: one file per (scenario, ADC class, bits)."""
    arch_names = tuple(a.name for a in cfg.architectures)
    report_rows = []
    for scenario in cfg.scenarios:
        for cls in cfg.adc_classes:
            model = _model(cfg, cls) if cfg.power_mode == "parametric" else None
            for bits in cfg.bits:
                adc = _adc(cfg, cls, bits)
                grid_rows = []
                for b_sc in cfg.b_sc:
                    ec = []
                    for arch in cfg.architectures:
                        rep = energy(arch, scenario, adc, b_sc, cfg.power_mode,
                                     geom=cfg.geom, model=model)
                        ec.append(rep.e_total)
                        report_rows.append(tuple(rep.csv_row()))
                    grid_rows.append((b_sc, *ec))
                _emit(cfg, f"sweep-{scenario.kind}-{cls}-{bits}b",
                      ("b_sc_hz", *arch_names), grid_rows)
    _emit(cfg, "sweep-report", CSV_COLUMNS, report_rows)
    return 0


def cmd_convergence(cfg: RunConfig) -> int:
    """Large-bandwidth energy limit per architecture over the bit range."""
    arch_names = tuple(a.name for a in cfg.architectures)
    for cls in cfg.adc_classes:
        model = _model(cfg, cls)
        rows = []
        for bits in cfg.convergence_bits:
            values = [
                convergence_value(arch, _adc(cfg, cls, bits), cfg.geom, model=model)
                for arch in cfg.architectures
            ]
            rows.append((bits, *values))
        _emit(cfg, f"convergence-{cls}", ("bits", *arch_names), rows)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    """Exhaustive simulation vs. the closed-form delay for every combination."""
    columns = ("architecture", "scenario", "sweep_order", "b_sc_hz", "n_targets",
               "min_s", "mean_s", "max_s", "analytic_s", "passed", "first_mismatch")
    rows = []
    combos_total = 0
    combos_passed = 0
    for arch in cfg.architectures:
        for scenario in cfg.scenarios:
            combo_ok = True
            for order in cfg.sweep_orders:
                for b_sc in cfg.b_sc:
                    report = verify_against_analytic(
                        arch, scenario, cfg.geom, derive_frame(b_sc), sweep_order=order
                    )
                    combo_ok = combo_ok and report.passed
                    mismatch = ("" if report.first_mismatch is None
                                else f"{report.first_mismatch[0]}|{report.first_mismatch[1]}")
                    rows.append((report.arch, report.scenario, report.sweep_order,
                                 report.b_sc, report.n_targets,
                                 report.min_time, report.mean_time,
                                 report.max_time, report.analytic_delay,
                                 report.passed, mismatch))
            combos_total += 1
            combos_passed += combo_ok
    _emit(cfg, "verify", columns, rows)
    print(f"{combos_passed}/{combos_total} combinations pass")
    return 0 if combos_passed == combos_total else 3


def cmd_pss(cfg: RunConfig) -> int:
    """Widened-sync slot layout: delay and energy vs. k (parametric power)."""
    columns = ("architecture", "k", "b_sc_hz", "b_sc_pss_hz", "n_d",
               "sim_worst_delay_s", "analytic_delay_s",
               "e_proposed_j", "e_baseline_j", "energy_ratio")
    scenario = next((s for s in cfg.scenarios if s.kind == "nCI"), cfg.scenarios[0])
    frame = derive_frame(cfg.pss_base_b_sc)
    rows = []
    for arch in cfg.architectures:
        analytic_base = total_delay(arch, scenario, cfg.geom, frame)
        for k in cfg.k_values:
            structure = build_pss_structure(frame, k)
            worst = worst_case_structure_delay(
                structure, cfg.geom, arch=arch, scenario=scenario
            )
            cls = cfg.adc_classes[0]
            comparison = proposed_structure_energy(
                arch, scenario, _adc(cfg, cls, cfg.bits[0]), cfg.pss_base_b_sc, k,
                geom=cfg.geom, model=_model(cfg, cls),
            )
            rows.append((arch.name, k, cfg.pss_base_b_sc, structure.b_sc_pss,
                         comparison.proposed.n_d, worst, analytic_base / k,
                         comparison.proposed.e_total, comparison.baseline.e_total,
                         comparison.energy_ratio))
    _emit(cfg, "pss", columns, rows)
    return 0


COMMANDS = {
    "tables": cmd_tables,
    "sweep": cmd_sweep,
    "convergence": cmd_convergence,
    "verify": cmd_verify,
    "pss": cmd_pss,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwicd",
        description="Delay, power, and energy of initial cell discovery in "
                    "mmWave networks under four receiver beamforming architectures.",
    )
    parser.add_argument("--version", action="version", version=f"mmwicd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    help_by_command = {
        "tables": "frame timing, scan counts, and power tables",
        "sweep": "energy over the b_sc grid per scenario/ADC class",
        "convergence": "large-bandwidth energy limit vs. ADC resolution",
        "verify": "exhaustive simulation oracle vs. analytic delays",
        "pss": "widened-sync slot layout delay/energy vs. k",
    }
    for name, text in help_by_command.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", metavar="PATH", default=None,
                         help="JSON config; keys override the built-in defaults")
        cmd.add_argument("--out", metavar="DIR", default=None,
                         help="output directory (default: out)")
        cmd.add_argument("--format", choices=OUTPUT_FORMATS, default=None,
                         help="output format (default: csv)")
        cmd.add_argument("--power-mode", choices=POWER_MODES, default=None,
                         dest="power_mode",
                         help="table lookup or calibrated parametric model")
        cmd.add_argument("--bits", type=int, action="append", default=None,
                         metavar="N", help="ADC resolution in bits (repeatable)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
