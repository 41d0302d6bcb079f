"""Command-line front end: grid runs, table reproduction, and the sim oracle.

Verbs: tables | sweep | convergence | verify | pss.  Outputs are deterministic
CSV (or JSON) files; every file embeds the tool version and a hash of the
scientific configuration so results can be traced back to their inputs.
Each verb returns its tables as columns; main checks every table, then writes
them column by column, in the bytes csv.writer would write.  CSV renders each
distinct float once per verb, keyed by its bit pattern, however many columns
and files hold it.  A non-finite float is refused (exit 2), naming the file and
column, before any file is written, so a verb that fails writes no file.

Config file keys override DEFAULT_CONFIG, and flags override both.  A list is
non-empty with every entry valid, a choice one of its names, a nested object
exactly its default's keys, each a finite number (not a bool), and out a
string; scenario_params is checked even when CID is not listed.

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
    RESOLUTION_LAWS,
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


def _is_number(v) -> bool:
    """A number a float holds: not a bool, NaN, an infinity or an int past float range."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _entries(raw: dict, key: str, ok, what: str) -> tuple:
    """raw[key] as a tuple: a non-empty list whose every entry passes ok."""
    values = raw[key]
    _require(isinstance(values, list) and values, f"{key} must be a non-empty list of {what}")
    for v in values:
        _require(ok(v), f"{key} entries must be {what}, got {v!r}")
    return tuple(values)


def _params(raw: dict, key: str) -> dict:
    """raw[key]: an object with exactly the keys of its default, each a number."""
    params, names = raw[key], DEFAULT_CONFIG[key].keys()
    _require(isinstance(params, dict) and params.keys() == names,
             f"{key} must be an object with exactly the keys {list(names)}")
    for name, v in params.items():
        _require(_is_number(v), f"{key}.{name} must be a finite number, got {v!r}")
    return params


def _build(key: str, build, *args, **params):
    """build(*args, **params), whose ValueError is a bad raw[key]."""
    try:
        return build(*args, **params)
    except ValueError as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def resolve_config(raw: dict) -> RunConfig:
    """Validate the merged config dict and build the runtime objects."""
    unknown = set(raw) - set(DEFAULT_CONFIG)
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    merged = {**DEFAULT_CONFIG, **raw}

    b_sc = tuple(map(float, _entries(merged, "b_sc_hz", lambda v: _is_number(v) and v > 0,
                                     "finite numbers > 0")))
    bits, convergence_bits, k_values = (_entries(merged, key, _is_count, "integers >= 1")
                                        for key in ("bits", "convergence_bits", "k"))
    arch_names, scenario_kinds, adc_classes, orders = (
        _entries(merged, key, names.__contains__, f"one of {names}")
        for key, names in (("architectures", ARCHITECTURE_NAMES), ("scenarios", SCENARIO_KINDS),
                           ("adc_classes", ADC_CLASSES), ("sweep_orders", SWEEP_ORDERS)))

    for key, choices in (("power_mode", POWER_MODES), ("resolution_law", RESOLUTION_LAWS),
                         ("format", OUTPUT_FORMATS)):
        _require(merged[key] in choices, f"{key} must be one of {choices}, got {merged[key]!r}")
    _require(isinstance(merged["out"], str), f"out must be a string, got {merged['out']!r}")

    geom = _build("geometry", SweepGeometry, **_params(merged, "geometry"))
    n_targets = geom.n_bs_directions * geom.n_ms_directions
    _require(n_targets <= MAX_TARGETS,
             f"geometry has {n_targets} (BS, MS) direction pairs, more than the "
             f"{MAX_TARGETS} (2**24) that verify and pss enumerate")
    arch_params = _params(merged, "architecture_params")
    architectures = tuple(_build("architecture_params", build_architecture, name, **arch_params)
                          for name in arch_names)
    # The CI budget is checked whether or not CID is listed.
    ci = _params(merged, "scenario_params")
    cid = _build("scenario_params", build_scenario, "CID", t_ci=ci["t_ci_s"], p_ci=ci["p_ci_w"])
    scenarios = tuple(cid if kind == "CID" else build_scenario(kind) for kind in scenario_kinds)

    for key, values in (("bits", bits), ("convergence_bits", convergence_bits)):
        try:  # the factor grows with bits, so the largest entry is the one to test
            resolution_factor(max(values), merged["resolution_law"])
        except OverflowError as exc:
            raise ConfigError(f"{key} entry {max(values)} puts the {merged['resolution_law']} "
                              "resolution factor past float range") from exc

    pss_base = merged["pss_base_b_sc_hz"]
    _require(_is_number(pss_base) and pss_base > 0, "pss_base_b_sc_hz must be a finite number > 0")
    widest = pss_base * max(k_values) if max(k_values) <= sys.float_info.max else math.inf
    _require(math.isfinite(widest), f"pss_base_b_sc_hz * max(k) must be finite, got {widest}")
    _require(max(k_values) <= np.iinfo(np.int64).max,
             f"k entries must fit an int64 (at most 2**63 - 1), got {max(k_values)}")

    return RunConfig(
        fingerprint=config_fingerprint(merged),
        b_sc=b_sc,
        architectures=architectures,
        scenarios=scenarios,
        adc_classes=adc_classes,
        bits=bits,
        convergence_bits=convergence_bits,
        power_mode=merged["power_mode"],
        resolution_law=merged["resolution_law"],
        geom=geom,
        k_values=k_values,
        pss_base_b_sc=float(pss_base),
        sweep_orders=orders,
        out_dir=Path(merged["out"]),
        fmt=merged["format"],
    )


def load_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:  # not JSON, or an integer literal past 4,300 digits
            raise ConfigError(f"cannot parse config file: {exc}") from exc
        _require(isinstance(raw, dict), "config root must be a JSON object")
    for key in ("out", "format", "power_mode", "bits"):  # flags win over the file
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
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


def _csv_columns(tables: list) -> list:
    """Each table's columns for CSV, as csv.writer spells them: a column of
    floats in repr (a numpy object array of str), any other column as a list
    of values that str renders.

    The float columns of every table are keyed by bit pattern, so 0.0 and
    -0.0 stay apart, and each distinct float is rendered once.  Every float
    column is a view of one object array of references to those shared
    strings, so a column's cells are only listed when its file is written.
    """
    floats, staged, start = [], [], 0
    for _, _, columns in tables:
        table = []
        for column in columns:
            if not (isinstance(column, np.ndarray) and column.dtype == np.float64):
                column = _cells(column)
                if set(map(type, column)) == {float}:  # floats only: 1 == 1.0 == True as set members
                    column = np.array(column, dtype=np.float64)
            if isinstance(column, np.ndarray):
                floats.append(column)
                column = slice(start, start + len(column))
                start = column.stop
            table.append(column)
        staged.append(table)
    keys, inverse = np.unique(np.concatenate([np.empty(0), *floats]).view(np.int64),
                              return_inverse=True)
    text = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)[inverse]
    return [[text[c] if isinstance(c, slice) else c for c in table] for table in staged]


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
    csv_columns = _csv_columns(tables) if cfg.fmt == "csv" else None
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for i, (name, header, columns) in enumerate(tables):
        path = cfg.out_dir / f"{name}.{cfg.fmt}"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if cfg.fmt == "csv":
                fh.write(f"# tool: mmwicd {__version__}\n# config: sha256:{cfg.fingerprint}\n")
                cells = [c.tolist() if isinstance(c, np.ndarray) else map(str, c)
                         for c in csv_columns[i]]
                # One write per 4096 lines, never the whole file in memory.
                lines = map(",".join, chain([header], zip(*cells)))
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
    the first bits under the parametric model; the last four columns name them.
    """
    columns = ("architecture", "k", "b_sc_hz", "b_sc_pss_hz", "n_d",
               "sim_worst_delay_s", "analytic_delay_s",
               "e_proposed_j", "e_baseline_j", "energy_ratio",
               "scenario", "adc_class", "bits", "power_mode")
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
                         comparison.energy_ratio, scenario.kind, cls, bits, "parametric"))
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
