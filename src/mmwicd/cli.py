"""Command-line front end: grid runs, table reproduction, and the sim oracle.

Verbs: tables | sweep | convergence | verify | pss.  Outputs are deterministic
CSV (or JSON) files; every file embeds the tool version and a hash of the
scientific configuration so results can be traced back to their inputs.
Each verb returns its tables as columns; main checks every table, then writes
them column by column: each distinct float once, in the bytes csv.writer would
write.  A non-finite float is refused (exit 2), naming the file and column,
before any file is written, so a verb that fails writes no file.

Exit codes: 0 ok, 1 runtime failure, 2 config error, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__
from .architectures import (
    ARCHITECTURE_NAMES,
    SCENARIO_KINDS,
    Architecture,
    Scenario,
    SweepGeometry,
    build_architecture,
    build_scenario,
    ci_cost,
    directional_scans,
    total_delay,
)
from .energy import (
    CSV_COLUMNS,
    EnergyColumns,
    convergence_value,
    energy,  # noqa: F401 - unused here; perfbench's tracer test looks it up in this namespace
    energy_columns,
    proposed_structure_energy,
)
from .power import (
    ADC_CLASSES,
    AdcModel,
    default_power_model,
    default_power_table,
    parametric_power,
    resolution_factor,
)
from .signaling import derive_frame
from .sweepsim import (
    SWEEP_ORDERS,
    verify_columns,
    worst_case_structure_delay,
)

OUTPUT_FORMATS = ("csv", "json")
# "lookup" reads the bundled table (model=None), "parametric" the calibrated fit.
POWER_MODES = ("lookup", "parametric")

# Largest n_bs_directions * n_ms_directions accepted: verify holds at most one
# int64 and one float64 value per (BS, MS) direction pair, 256 MiB at the cap,
# and pss the int64 alone.
MAX_TARGETS = 2**24

# Characters that make csv.writer quote a cell; _check refuses such a cell.
_QUOTED_CHARS = frozenset(',"\r\n')

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
    fingerprint: str  # sha256 of the scientific part of the merged config
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
    for key, values in (("bits", bits), ("convergence_bits", convergence_bits)):
        try:  # the factor grows with bits, so the largest entry is the one to test
            resolution_factor(max(values), merged["resolution_law"])
        except OverflowError as exc:
            raise ConfigError(f"{key} entry {max(values)} puts the {merged['resolution_law']} "
                              "resolution factor past float range") from exc
    _require(merged["format"] in OUTPUT_FORMATS, f"format must be one of {OUTPUT_FORMATS}")

    geometry = merged["geometry"]
    try:
        geom = SweepGeometry(
            n_bs_directions=geometry["n_bs_directions"],
            n_ms_directions=geometry["n_ms_directions"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad geometry: {exc}") from exc
    n_targets = geom.n_bs_directions * geom.n_ms_directions
    _require(n_targets <= MAX_TARGETS,
             f"geometry has {n_targets} (BS, MS) direction pairs, more than the "
             f"{MAX_TARGETS} (2**24) that verify and pss enumerate")

    orders = merged["sweep_orders"]
    _require(isinstance(orders, list) and orders, "sweep_orders must be a non-empty list")
    for order in orders:
        _require(order in SWEEP_ORDERS, f"unknown sweep order {order!r}")

    pss_base = merged["pss_base_b_sc_hz"]
    _require(_is_positive_number(pss_base), "pss_base_b_sc_hz must be a finite number > 0")
    widest = pss_base * max(k_values) if max(k_values) <= sys.float_info.max else math.inf
    _require(math.isfinite(widest), f"pss_base_b_sc_hz * max(k) must be finite, got {widest}")

    return RunConfig(
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


def _cells(column) -> list:
    """A column as plain Python values (json cannot encode numpy numbers)."""
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def _check(fmt: str, name: str, header: tuple[str, ...], columns: list) -> None:
    """Refuse a table that cannot be written: columns of unequal length, a
    non-finite float, or (CSV only) a title or cell that needs quoting."""
    file = f"{name}.{fmt}"
    if len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError(f"{file}: {len(header)} titles for columns of lengths "
                         f"{[len(col) for col in columns]}")
    for title, column in zip(("titles", *header), (header, *columns)):
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            bad, text = column[~np.isfinite(column)][:1].tolist(), ""
        else:
            distinct = set(column)
            bad = [v for v in distinct if isinstance(v, float) and not math.isfinite(v)]
            text = "".join(v for v in distinct if isinstance(v, str))
        if bad:
            raise ConfigError(f"refusing to write {file}: column {title} holds {bad[0]}; "
                              "the config drives it out of float range")
        if fmt == "csv" and not _QUOTED_CHARS.isdisjoint(text):
            raise ValueError(f"{file}: column {title} holds a cell that needs CSV quoting")


def _csv_cells(column) -> list[str]:
    """One column as CSV text, spelled as csv.writer spells it: a column of
    floats renders each distinct value once with repr, any other uses str."""
    cells = _cells(column)
    if set(map(type, cells)) == {float}:  # floats only: 1 == 1.0 == True as set members
        text = {v: repr(v) for v in set(cells)}
        # 0.0 and -0.0 are one set member, so zeros are rendered one by one
        return [text[v] if v else repr(v) for v in cells]
    return list(map(str, cells))


def _emit(cfg: RunConfig, tables: list) -> None:
    """Check every table, each given as (name, header, one list or numpy array
    per header column), then write them all.

    CSV lines are joined column by column (csv.writer's bytes, CRLF line ends,
    no quoting; every table has two or more columns, so no line is one empty
    cell that csv.writer would quote); JSON zips the columns back into one
    object per row.  A table refused by _check leaves every file unwritten.
    """
    for table in tables:
        _check(cfg.fmt, *table)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for name, header, columns in tables:
        path = cfg.out_dir / f"{name}.{cfg.fmt}"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if cfg.fmt == "csv":
                fh.write(f"# tool: mmwicd {__version__}\n# config: sha256:{cfg.fingerprint}\n")
                # One write per 4096 lines, never the whole file in memory.
                lines = map(",".join, chain([header], zip(*map(_csv_cells, columns))))
                while block := list(islice(lines, 4096)):
                    fh.write("\r\n".join(block) + "\r\n")
            else:
                rows = zip(*map(_cells, columns))
                json.dump({"tool": f"mmwicd {__version__}", "config_sha256": cfg.fingerprint,
                           "rows": [dict(zip(header, row)) for row in rows]}, fh, indent=2)
                fh.write("\n")
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Commands


def cmd_tables(cfg: RunConfig) -> tuple[list, int, None]:
    """Frame timing, scan counts, and the measured/modeled power tables."""
    rows_i = []
    for b_sc in cfg.b_sc:
        frame = derive_frame(b_sc)
        rows_i.append((b_sc, frame.t_pss, frame.b_tot, f"{frame.b_tot / 1e6:.1f}"))
    tables = [("tables-i", ("b_sc_hz", "t_pss_s", "b_tot_hz", "b_tot_mhz"), list(zip(*rows_i)))]

    rows_ii = []
    for arch in cfg.architectures:
        for scenario in cfg.scenarios:
            rows_ii.append((arch.name, scenario.kind, directional_scans(arch, scenario, cfg.geom),
                            ci_cost(arch, scenario, cfg.geom)[0]))
    tables.append(("tables-ii", ("architecture", "scenario", "n_scans", "t_ci_s"),
                   list(zip(*rows_ii))))

    table = default_power_table()
    for file_name, cls in (("tables-iii", "HPADC"), ("tables-iv", "LPADC")):
        if cls not in cfg.adc_classes:
            continue
        samples = [s for s in table if s.adc_class == cls]
        if cfg.power_mode == "lookup":
            columns = ("architecture", "adc_class", "b_sc_hz", "power_w")
            rows = [(s.architecture, s.adc_class, s.b_sc, s.power) for s in samples]
        else:
            model = default_power_model(cls, cfg.resolution_law)
            columns = ("architecture", "adc_class", "b_sc_hz", "power_w",
                       "model_power_w", "rel_residual")
            rows = []
            for s in samples:
                arch = build_architecture(s.architecture)
                modeled = parametric_power(model, arch, AdcModel(cls), s.b_sc)
                rows.append((s.architecture, s.adc_class, s.b_sc, s.power,
                             modeled, (modeled - s.power) / s.power))
        tables.append((file_name, columns, list(zip(*rows))))
    return tables, 0, None


def cmd_sweep(cfg: RunConfig) -> tuple[list, int, None]:
    """Energy over the b_sc grid: one file per (scenario, ADC class, bits)."""
    arch_names = tuple(a.name for a in cfg.architectures)
    tables = []
    labels = []  # (scenario, ADC class, bits) of each grid
    fields = [[] for _ in EnergyColumns._fields]  # each grid's report values, per field
    for scenario in cfg.scenarios:
        for cls in cfg.adc_classes:
            model = (default_power_model(cls, cfg.resolution_law)
                     if cfg.power_mode == "parametric" else None)
            for bits in cfg.bits:
                adc = AdcModel(cls, bits=bits)
                per_arch = [energy_columns(arch, scenario, adc, cfg.b_sc,
                                           geom=cfg.geom, model=model)
                            for arch in cfg.architectures]
                tables.append((f"sweep-{scenario.kind}-{cls}-{bits}b", ("b_sc_hz", *arch_names),
                               [cfg.b_sc, *(cols.e_total for cols in per_arch)]))
                labels.append((scenario.kind, cls, bits))
                # Report rows run b_sc-major, architecture-minor.
                for acc, per_field in zip(fields, zip(*per_arch)):
                    acc.append(np.column_stack(per_field).ravel())
    rows_per_grid = len(cfg.b_sc) * len(arch_names)
    label_columns = [[v for v in column for _ in range(rows_per_grid)] for column in zip(*labels)]
    tables.append(("sweep-report", CSV_COLUMNS, [
        arch_names * (len(cfg.b_sc) * len(labels)),
        *label_columns,
        [b_sc for b_sc in cfg.b_sc for _ in arch_names] * len(labels),
        *map(np.concatenate, fields),
    ]))
    return tables, 0, None


def cmd_convergence(cfg: RunConfig) -> tuple[list, int, None]:
    """Large-bandwidth energy limit per architecture over the bit range.

    The limit is that of the full nCI search under the calibrated parametric
    model, whatever the configured scenarios and power_mode.
    """
    arch_names = tuple(a.name for a in cfg.architectures)
    nci = build_scenario("nCI")
    tables = []
    for cls in cfg.adc_classes:
        model = default_power_model(cls, cfg.resolution_law)
        rows = []
        for bits in cfg.convergence_bits:
            values = [
                convergence_value(arch, nci, AdcModel(cls, bits=bits), cfg.geom, model)
                for arch in cfg.architectures
            ]
            rows.append((bits, *values))
        tables.append((f"convergence-{cls}", ("bits", *arch_names), list(zip(*rows))))
    return tables, 0, None


def cmd_verify(cfg: RunConfig) -> tuple[list, int, str]:
    """Exhaustive simulation vs. the closed-form delay for every combination.

    One verify_columns call per (architecture, scenario, order) covers the
    whole b_sc list; a combination passes when every order and b_sc does.
    """
    header = ("architecture", "scenario", "sweep_order", "b_sc_hz", "n_targets",
              "min_s", "mean_s", "max_s", "analytic_s", "passed", "first_mismatch")
    labels = []  # (architecture, scenario, order) of each call
    results = []
    combos_total = 0
    combos_passed = 0
    for arch in cfg.architectures:
        for scenario in cfg.scenarios:
            combo = [verify_columns(arch, scenario, cfg.geom, cfg.b_sc, sweep_order=order)
                     for order in cfg.sweep_orders]
            labels += [(arch.name, scenario.kind, order) for order in cfg.sweep_orders]
            results += combo
            combos_total += 1
            combos_passed += all(cols.passed.all() for cols in combo)
    n_b_sc = len(cfg.b_sc)
    # Rows run call-major, b_sc-minor.
    columns = [
        *([v for v in column for _ in range(n_b_sc)] for column in zip(*labels)),
        cfg.b_sc * len(results),
        [cols.n_targets for cols in results for _ in range(n_b_sc)],
        *(np.concatenate([getattr(cols, field) for cols in results])
          for field in ("min_time", "mean_time", "max_time", "analytic_delay", "passed")),
        ["" if ok else "{}|{}".format(*cols.first_mismatch)
         for cols in results for ok in cols.passed.tolist()],
    ]
    return ([("verify", header, columns)], 0 if combos_passed == combos_total else 3,
            f"{combos_passed}/{combos_total} combinations pass")


def cmd_pss(cfg: RunConfig) -> tuple[list, int, None]:
    """Widened-sync slot layout: delay and energy vs. k (parametric power).

    Evaluated for nCI (else the first listed scenario), the first ADC class and
    the first bits; the last three columns name them.
    """
    columns = ("architecture", "k", "b_sc_hz", "b_sc_pss_hz", "n_d",
               "sim_worst_delay_s", "analytic_delay_s",
               "e_proposed_j", "e_baseline_j", "energy_ratio",
               "scenario", "adc_class", "bits")
    scenario = next((s for s in cfg.scenarios if s.kind == "nCI"), cfg.scenarios[0])
    cls, bits = cfg.adc_classes[0], cfg.bits[0]
    adc, model = AdcModel(cls, bits=bits), default_power_model(cls, cfg.resolution_law)
    frame = derive_frame(cfg.pss_base_b_sc)
    rows = []
    for arch in cfg.architectures:
        for k in cfg.k_values:
            worst = worst_case_structure_delay(arch, scenario, cfg.geom, frame, k=k)
            comparison = proposed_structure_energy(
                arch, scenario, adc, cfg.pss_base_b_sc, k, geom=cfg.geom, model=model,
            )
            rows.append((arch.name, k, cfg.pss_base_b_sc, k * frame.b_sc,
                         comparison.proposed.n_d, worst,
                         total_delay(arch, scenario, cfg.geom, frame, k),
                         comparison.proposed.e_total, comparison.baseline.e_total,
                         comparison.energy_ratio, scenario.kind, cls, bits))
    return [("pss", columns, list(zip(*rows)))], 0, None


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
        # A finite config can still overflow numpy arithmetic; _check refuses
        # the non-finite result, so numpy's own warning would only be noise.
        with np.errstate(over="ignore", invalid="ignore"):
            tables, status, summary = COMMANDS[args.command](cfg)
        _emit(cfg, tables)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if summary is not None:
        print(summary)
    return status


if __name__ == "__main__":
    sys.exit(main())
