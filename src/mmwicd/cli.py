"""Command-line front end: grid runs, table reproduction, and the sim oracle.

Verbs: tables | sweep | convergence | verify | pss.  Outputs are deterministic
CSV (or JSON) files; every file embeds the tool version and a hash of the
scientific configuration so results can be traced back to their inputs.
Each verb returns each table as (file name, {title: column}), every column a
sequence of Python values; main reads each column once, both to check it and
to spell its cells, then one writer writes every table from that text, in the
bytes csv.writer or json.dump(indent=2) would.  A column of floats renders
each distinct float once per verb, however many columns and files hold it (a
zero by its sign); a column of ints, bools or str each distinct value once;
any other column cell by cell.
A non-finite float is refused (exit 2), naming the file and column, before
any file is written, so a verb that fails writes no file.  Every verb but
verify and pss computes in Python floats and ints and runs without numpy.

Config file keys override DEFAULT_CONFIG, and flags override both.  A list is
non-empty with every entry valid and distinct, a choice one of its names, a
nested object exactly its default's keys, each a finite number (not a bool),
a count (bits, k, geometry, architecture_params) an integer >= 1 that a float
holds, and out a string; scenario_params is checked even when CID is not listed.
Under power_mode "lookup", bits must be [TABLE_BITS], the table's resolution.

Exit codes: 0 ok, 1 runtime failure, 2 config error or PowerTableError, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from itertools import chain, filterfalse, islice, repeat
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .architectures import (
    ARCHITECTURE_NAMES,
    DEFAULT_P_CI,
    DEFAULT_T_CI,
    SCENARIO_KINDS,
    Architecture,
    Scenario,
    SweepGeometry,
    _count_ok,
    build_architecture,
    ci_cost,
    default_architectures,
    directional_scans,
    total_delay,
)
from .energy import (
    CSV_COLUMNS,
    EnergyColumns,
    convergence_value,
    energy,
    energy_columns,
)
from .power import (
    ADC_CLASSES,
    TABLE_BITS,
    AdcModel,
    PowerTableError,
    default_power_model,
    default_power_table,
    parametric_power,
    resolution_factor,
)
from .signaling import _b_sc_ok, _real_ok, derive_frame, frame_scaling
from .sweepsim import (
    SWEEP_ORDERS,
    verify_columns,
    worst_case_structure_delay,
)

OUTPUT_FORMATS = ("csv", "json")
# "lookup" reads the bundled table (model=None), "parametric" the calibrated fit.
POWER_MODES = ("lookup", "parametric")

# Largest n_bs_directions * n_ms_directions accepted: verify holds at most one
# int64 and one float64 value per (BS, MS) direction pair, 256 MiB at the cap.
MAX_TARGETS = 2**24

# Characters that make csv.writer quote a cell; _prepare refuses such a cell.
_QUOTED_CHARS = frozenset(',"\r\n')

# Scientific defaults; "out" and "format" are presentation-only and excluded
# from the config fingerprint.
DEFAULT_CONFIG = {
    "b_sc_hz": [15e3, 250e3, 500e3, 1e6, 10e6],
    "architectures": list(ARCHITECTURE_NAMES),
    "scenarios": list(SCENARIO_KINDS),
    "adc_classes": ["HPADC", "LPADC"],
    "bits": [TABLE_BITS],
    "convergence_bits": list(range(1, 13)),
    "power_mode": "lookup",
    "geometry": SweepGeometry()._asdict(),
    "architecture_params": dict(build_architecture.__kwdefaults__),
    "scenario_params": {"t_ci_s": DEFAULT_T_CI, "p_ci_w": DEFAULT_P_CI},
    "k": [1, 2, 4, 8, 16],
    "pss_base_b_sc_hz": 250e3,
    "format": "csv",
    "out": "out",
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class RunConfig(NamedTuple):
    fingerprint: str  # sha256 of the scientific part of the merged config
    b_sc: tuple[float, ...]  # every verb passes it on as it is
    architectures: tuple[Architecture, ...]
    scenarios: tuple[Scenario, ...]
    adc_classes: tuple[str, ...]
    bits: tuple[int, ...]
    convergence_bits: tuple[int, ...]
    power_mode: str
    geom: SweepGeometry
    k_values: tuple[int, ...]
    pss_base_b_sc: float
    out_dir: Path
    fmt: str


def config_fingerprint(raw: dict) -> str:
    payload = {key: val for key, val in raw.items() if key not in ("out", "format")}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _entries(raw: dict, key: str, ok, what: str) -> tuple:
    """raw[key] as a tuple: a non-empty list of distinct entries that each pass ok."""
    values = raw[key]
    _require(isinstance(values, list) and values, f"{key} must be a non-empty list of {what}")
    seen = set()
    for v in values:
        _require(ok(v), f"{key} entries must be {what}, got {v!r}")
        _require(v not in seen, f"{key} entries must be distinct, got {v!r} twice")
        seen.add(v)
    return tuple(values)


def _params(raw: dict, key: str) -> dict:
    """raw[key]: an object with exactly the keys of its default, each a number."""
    params, names = raw[key], DEFAULT_CONFIG[key].keys()
    _require(isinstance(params, dict) and params.keys() == names,
             f"{key} must be an object with exactly the keys {list(names)}")
    for name, v in params.items():
        _require(_real_ok(v), f"{key}.{name} must be a finite number, got {v!r}")
    return params


def _build(key: str, build, **params):
    """build(**params), whose ValueError is a bad raw[key]."""
    try:
        return build(**params)
    except ValueError as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def resolve_config(raw: dict) -> RunConfig:
    """Validate the merged config dict and build the runtime objects."""
    unknown = set(raw) - set(DEFAULT_CONFIG)
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    merged = {**DEFAULT_CONFIG, **raw}
    # The nested objects first, so that a damaged one is named whatever else is wrong.
    geometry, arch_params, ci = (_params(merged, key) for key in
                                 ("geometry", "architecture_params", "scenario_params"))

    b_sc = tuple(map(float, _entries(merged, "b_sc_hz", _b_sc_ok, "finite numbers > 0")))
    bits, convergence_bits, k_values = (_entries(merged, key, _count_ok,
                                                 "integers >= 1 that a float holds")
                                        for key in ("bits", "convergence_bits", "k"))
    arch_names, scenario_kinds, adc_classes = (
        _entries(merged, key, names.__contains__, f"one of {names}")
        for key, names in (("architectures", ARCHITECTURE_NAMES), ("scenarios", SCENARIO_KINDS),
                           ("adc_classes", ADC_CLASSES)))

    for key, choices in (("power_mode", POWER_MODES), ("format", OUTPUT_FORMATS)):
        _require(merged[key] in choices, f"{key} must be one of {choices}, got {merged[key]!r}")
    _require(isinstance(merged["out"], str), f"out must be a string, got {merged['out']!r}")
    _require(merged["power_mode"] != "lookup" or bits == (TABLE_BITS,),
             f"bits must be [{TABLE_BITS}] under lookup power_mode, the table's resolution; "
             f"got {list(bits)}")

    geom = _build("geometry", SweepGeometry, **geometry)
    n_targets = geom.n_bs_directions * geom.n_ms_directions
    _require(n_targets <= MAX_TARGETS,
             f"geometry has {n_targets} (BS, MS) direction pairs, more than the "
             f"{MAX_TARGETS} (2**24) that verify enumerates")
    architectures = tuple(
        _build("architecture_params", build_architecture, name=name, **arch_params)
        for name in arch_names)
    # The CI budget is checked whether or not CID is listed.
    cid = _build("scenario_params", Scenario, kind="CID", t_ci=ci["t_ci_s"], p_ci=ci["p_ci_w"])
    scenarios = tuple(cid if kind == "CID" else Scenario(kind) for kind in scenario_kinds)

    for key, values in (("bits", bits), ("convergence_bits", convergence_bits)):
        try:  # the factor grows with bits, so the largest entry is the one to test
            resolution_factor(max(values))
        except OverflowError as exc:
            raise ConfigError(f"{key} entry {max(values)} puts the exponential "
                              "resolution factor past float range") from exc

    pss_base = merged["pss_base_b_sc_hz"]
    _require(_b_sc_ok(pss_base), "pss_base_b_sc_hz must be a finite number > 0")
    _require(_b_sc_ok(pss_base * max(k_values)), "pss_base_b_sc_hz * max(k) must be finite")

    return RunConfig(
        fingerprint=config_fingerprint(merged),
        b_sc=b_sc,
        architectures=architectures,
        scenarios=scenarios,
        adc_classes=adc_classes,
        bits=bits,
        convergence_bits=convergence_bits,
        power_mode=merged["power_mode"],
        geom=geom,
        k_values=k_values,
        pss_base_b_sc=float(pss_base),
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


def _prepare(fmt: str, tables: list) -> list:
    """Refuse a table that cannot be written, else return each table's titles
    and columns as the text of their cells: str under CSV (csv.writer's
    spelling) and json.dumps under JSON, which differ only for a bool (True,
    true) and a str (as is, or quoted and escaped); a float is repr in both.

    Refused, table by table: columns of unequal length, then, for the titles
    and each column in turn, a non-finite float or (CSV only) a cell that
    needs quoting.  Each column is taken as a list (a numpy array as its
    tolist()), read once for its cell types and once for its distinct cells,
    in first-seen order.  A column of floats renders each distinct float once
    per verb, from one dict of every table's floats; 0.0 and -0.0 share a key
    there, so a column holding a zero spells its zeros cell by cell.  A column
    of ints, of bools or of str spells each distinct value once (under CSV a
    str is its own text); any other column cell by cell, since 1 == True ==
    1.0 share a key.
    """
    spell = str if fmt == "csv" else json.dumps
    floats: dict[float, str] = {}  # each float of the verb and its text
    prepared = []
    for name, columns in tables:
        file = f"{name}.{fmt}"
        if len(set(map(len, columns.values()))) > 1:
            raise ValueError(f"{file}: columns of unequal lengths "
                             f"{[len(col) for col in columns.values()]}")
        table = []
        for title, column in zip(("titles", *columns), (tuple(columns), *columns.values())):
            cells = (column if type(column) in (list, tuple)
                     else column.tolist() if hasattr(column, "tolist") else list(column))
            kinds, distinct = set(map(type, cells)), dict.fromkeys(cells)
            bad = [] if kinds <= {float} and all(map(math.isfinite, distinct)) else [
                v for v in distinct if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                raise ConfigError(f"refusing to write {file}: column {title} holds {bad[0]}; "
                                  "the config drives it out of float range")
            if fmt == "csv" and not kinds <= {float, int, bool} and not _QUOTED_CHARS.isdisjoint(
                    "".join(v for v in distinct if isinstance(v, str))):
                raise ValueError(f"{file}: column {title} holds a cell that needs CSV quoting")
            if kinds <= {float}:
                fresh = list(filterfalse(floats.__contains__, distinct))
                floats.update(zip(fresh, map(repr, fresh)))
                column = ([floats[v] if v else repr(v) for v in cells] if 0.0 in distinct
                          else list(map(floats.__getitem__, cells)))
            elif kinds == {str} and fmt == "csv":
                column = cells
            elif kinds in ({int}, {bool}, {str}):
                column = map(dict(zip(distinct, map(spell, distinct))).__getitem__, cells)
            else:
                column = map(spell, cells)
            table.append(column)
        prepared.append(table)
    return prepared


def _emit(cfg: RunConfig, tables: list) -> None:
    """Check and prepare every table, each given as (name, {title: column}), in
    one pass (_prepare), then write them all.

    Both formats write the prepared text in blocks of 4096 rows; only the head,
    the row text and the tail differ.  A CSV line joins its cells (csv.writer's
    bytes, CRLF line ends, no quoting; every table has two or more columns, so
    no line is one empty cell that csv.writer would quote).  JSON writes what
    json.dump(..., indent=2) wrote for {"tool", "config_sha256", "rows"}.  A
    table refused by _prepare leaves every file unwritten.
    """
    prepared = _prepare(cfg.fmt, tables)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for (name, columns), (titles, *cells) in zip(tables, prepared):
        path = cfg.out_dir / f"{name}.{cfg.fmt}"
        if cfg.fmt == "csv":
            head = f"# tool: mmwicd {__version__}\n# config: sha256:{cfg.fingerprint}\n"
            rows, sep, tail = map(",".join, chain([titles], zip(*cells))), "\r\n", "\r\n"
        else:
            row = "\n    {%s\n    }" % ",".join(f"\n      {t.replace('%', '%%')}: %s"
                                                for t in titles)
            head = (f'{{\n  "tool": "mmwicd {__version__}",\n'
                    f'  "config_sha256": "{cfg.fingerprint}",\n  "rows": [')
            rows = map(row.__mod__, zip(*cells))
            sep, tail = ",", "\n  ]\n}\n" if len(next(iter(columns.values()))) else "]\n}\n"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            # One write per 4096 rows, never the whole file in memory.
            fh.write(head + sep.join(islice(rows, 4096)))
            while block := list(islice(rows, 4096)):
                fh.write(sep + sep.join(block))
            fh.write(tail)
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Commands


def _repeat(values, n: int) -> list:
    """Each of values n times in a row, in order."""
    return list(chain.from_iterable(map(repeat, values, repeat(n))))


def cmd_tables(cfg: RunConfig) -> tuple[list, int, None]:
    """Frame timing, scan counts, and the measured/modeled power tables."""
    t_pss, b_tot = frame_scaling(cfg.b_sc)
    tables = [("tables-i", {"b_sc_hz": cfg.b_sc, "t_pss_s": t_pss, "b_tot_hz": b_tot,
                            "b_tot_mhz": [f"{v / 1e6:.1f}" for v in b_tot]})]

    rows_ii = []
    for arch in cfg.architectures:
        for scenario in cfg.scenarios:
            rows_ii.append((arch.name, scenario.kind, directional_scans(arch, scenario, cfg.geom),
                            ci_cost(arch, scenario, cfg.geom)[0]))
    tables.append(("tables-ii", dict(zip(("architecture", "scenario", "n_scans", "t_ci_s"),
                                         zip(*rows_ii)))))

    archs, table = default_architectures(), default_power_table()
    for file_name, cls in (("tables-iii", "HPADC"), ("tables-iv", "LPADC")):
        if cls not in cfg.adc_classes:
            continue
        rows = [i for i, row_cls in enumerate(table["adc_class"]) if row_cls == cls]
        columns = {title: [column[i] for i in rows] for title, column in table.items()}
        if cfg.power_mode == "parametric":
            model, adc = default_power_model(cls), AdcModel(cls)
            names, b_sc, power = columns["architecture"], columns["b_sc_hz"], columns["power_w"]
            # One parametric_power call per architecture, over its rows in file order.
            per_arch = {name: iter(parametric_power(model, archs[name], adc, [
                b for row_name, b in zip(names, b_sc) if row_name == name]))
                for name in dict.fromkeys(names)}
            modeled = [next(per_arch[name]) for name in names]
            columns["model_power_w"] = modeled
            columns["rel_residual"] = [(m - p) / p for m, p in zip(modeled, power)]
        tables.append((file_name, columns))
    return tables, 0, None


def cmd_sweep(cfg: RunConfig) -> tuple[list, int, None]:
    """Energy over the b_sc grid: one file per (scenario, ADC class, bits); under lookup
    power, lookup_power refuses what the table did not measure before any file is written."""
    arch_names = tuple(a.name for a in cfg.architectures)
    tables = []
    labels = []  # (scenario, ADC class, bits) of each grid
    grids = []  # each grid's EnergyColumns, one per architecture
    for scenario in cfg.scenarios:
        for cls in cfg.adc_classes:
            model = default_power_model(cls) if cfg.power_mode == "parametric" else None
            for bits in cfg.bits:
                adc = AdcModel(cls, bits=bits)
                per_arch = [energy_columns(arch, scenario, adc, cfg.b_sc,
                                           geom=cfg.geom, model=model)
                            for arch in cfg.architectures]
                tables.append((f"sweep-{scenario.kind}-{cls}-{bits}b", {
                    "b_sc_hz": cfg.b_sc, **dict(zip(arch_names, (c.e_total for c in per_arch)))}))
                labels.append((scenario.kind, cls, bits))
                grids.append(per_arch)
    # Report rows run grid-major, then b_sc, then architecture.
    rows_per_grid = len(cfg.b_sc) * len(arch_names)
    tables.append(("sweep-report", dict(zip(CSV_COLUMNS, [
        arch_names * (len(cfg.b_sc) * len(grids)),
        *(_repeat(column, rows_per_grid) for column in zip(*labels)),
        _repeat(cfg.b_sc, len(arch_names)) * len(grids),
        *(list(chain.from_iterable(chain.from_iterable(
            zip(*(getattr(cols, field) for cols in per_arch)) for per_arch in grids)))
          for field in EnergyColumns._fields),
    ]))))
    return tables, 0, None


def cmd_convergence(cfg: RunConfig) -> tuple[list, int, None]:
    """Large-bandwidth energy limit per architecture over the bit range.

    The limit is that of the full nCI search under the calibrated parametric
    model, whatever the configured scenarios and power_mode.
    """
    nci = Scenario("nCI")
    tables = []
    for cls in cfg.adc_classes:
        model = default_power_model(cls)
        adcs = [AdcModel(cls, bits=bits) for bits in cfg.convergence_bits]
        tables.append((f"convergence-{cls}", {
            "bits": cfg.convergence_bits,
            **{arch.name: [convergence_value(arch, nci, adc, cfg.geom, model) for adc in adcs]
               for arch in cfg.architectures},
        }))
    return tables, 0, None


def cmd_verify(cfg: RunConfig) -> tuple[list, int, str]:
    """Exhaustive simulation vs. the closed-form delay for every combination.

    One verify_columns call per (architecture, scenario, order) covers the
    whole b_sc list with one slot-count verdict; a combination passes when
    every order does.
    """
    header = ("architecture", "scenario", "sweep_order", "b_sc_hz", "n_targets",
              "min_s", "mean_s", "max_s", "analytic_s", "passed", "first_mismatch")
    calls = [(arch, scenario, order) for arch in cfg.architectures
             for scenario in cfg.scenarios for order in SWEEP_ORDERS]
    results = [verify_columns(arch, scenario, cfg.geom, cfg.b_sc, sweep_order=order)
               for arch, scenario, order in calls]
    labels = [(arch.name, scenario.kind, order) for arch, scenario, order in calls]
    combos_passed = [all(cols.passed for cols in results[i:i + len(SWEEP_ORDERS)])
                     for i in range(0, len(results), len(SWEEP_ORDERS))]
    n_b_sc = len(cfg.b_sc)
    # Rows run call-major, b_sc-minor; a call's one verdict repeats over its b_sc rows.
    columns = [
        *(_repeat(column, n_b_sc) for column in zip(*labels)),
        cfg.b_sc * len(results),
        _repeat([cols.n_targets for cols in results], n_b_sc),
        *([value for cols in results for value in getattr(cols, field).tolist()]
          for field in ("min_time", "mean_time", "max_time", "analytic_delay")),
        _repeat([cols.passed for cols in results], n_b_sc),
        _repeat(["" if cols.passed else "{}|{}".format(*cols.first_mismatch)
                 for cols in results], n_b_sc),
    ]
    return ([("verify", dict(zip(header, columns)))], 0 if all(combos_passed) else 3,
            f"{sum(combos_passed)}/{len(combos_passed)} combinations pass")


def cmd_pss(cfg: RunConfig) -> tuple[list, int, None]:
    """Widened-sync slot layout: delay and energy vs. k (parametric power).

    Evaluated for nCI (else the first listed scenario), the first ADC class and the first
    bits, which the last four columns name; proposed report at b_sc with k, baseline at k * b_sc.
    """
    scenario = next((s for s in cfg.scenarios if s.kind == "nCI"), cfg.scenarios[0])
    cls, bits = cfg.adc_classes[0], cfg.bits[0]
    adc, model = AdcModel(cls, bits=bits), default_power_model(cls)
    frame = derive_frame(cfg.pss_base_b_sc)
    rows = []
    for arch in cfg.architectures:
        for k in cfg.k_values:
            worst = worst_case_structure_delay(arch, scenario, cfg.geom, frame, k=k)
            proposed = energy(arch, scenario, adc, frame.b_sc, k=k, geom=cfg.geom, model=model)
            baseline = energy(arch, scenario, adc, k * frame.b_sc, geom=cfg.geom, model=model)
            rows.append({"architecture": arch.name, "k": k, "b_sc_hz": cfg.pss_base_b_sc,
                         "b_sc_pss_hz": k * frame.b_sc, "n_d": proposed.n_d,
                         "sim_worst_delay_s": worst,
                         "analytic_delay_s": total_delay(arch, scenario, cfg.geom, frame, k),
                         "e_proposed_j": proposed.e_total, "e_baseline_j": baseline.e_total,
                         "energy_ratio": proposed.e_total / baseline.e_total,
                         "scenario": scenario.kind, "adc_class": cls, "bits": bits,
                         "power_mode": "parametric"})
    return [("pss", {title: [row[title] for row in rows] for title in rows[0]})], 0, None


# Each verb's function and its --help text.
COMMANDS = {
    "tables": (cmd_tables, "frame timing, scan counts, and power tables"),
    "sweep": (cmd_sweep, "energy over the b_sc grid per scenario/ADC class"),
    "convergence": (cmd_convergence, "large-bandwidth energy limit vs. ADC resolution"),
    "verify": (cmd_verify, "exhaustive simulation oracle vs. analytic delays"),
    "pss": (cmd_pss, "widened-sync slot layout delay/energy vs. k"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwicd",
        description="Delay, power, and energy of initial cell discovery in "
                    "mmWave networks under four receiver beamforming architectures.",
    )
    parser.add_argument("--version", action="version", version=f"mmwicd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in COMMANDS.items():
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
        tables, status, summary = COMMANDS[args.command][0](cfg)
        _emit(cfg, tables)
    except (ConfigError, PowerTableError) as exc:
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
