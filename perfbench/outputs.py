"""Fingerprints of a verb's CSV outputs, and the check against the reference.

Only data rows count: comment lines (`# tool:`, `# config:`) are skipped, and
only the columns the reference recorded are read, by name, so a later column
or header line is not a failure while a changed value is.  A column is
compared as float64 values when every cell parses as a number, else verbatim.

A file whose `b_sc_hz` values are exactly the config's b_sc points is a
"point file": its rows are digested per b_sc point (across all point files of
the verb), so the reference for dense-bsc can be recorded once for the whole
b_sc pool and still check any seeded subset.  Every other file gets one digest.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

B_SC_COLUMN = "b_sc_hz"


def column(cells: list[str]) -> np.ndarray:
    """One output column: float64 when every cell parses as a number, else the strings."""
    try:
        return np.array(cells, dtype=np.float64)
    except ValueError:
        return np.array(cells, dtype=object)


def row_bytes(numeric: np.ndarray, strings: list[np.ndarray], lo: int, hi: int) -> bytes:
    """Rows lo:hi: the numeric columns as one float64 block, then each string column."""
    parts = [numeric[lo:hi].tobytes()]
    parts += ["\x1f".join(col[lo:hi]).encode() + b"\x1e" for col in strings]
    return b"".join(parts)


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV the CLI wrote, comment lines dropped."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows:
        raise ValueError(f"{path.name}: no header row")
    return rows[0], rows[1:]


def _hex(h) -> str:
    return h.hexdigest()[:16]


def fingerprint(out_dir: Path, b_sc: list[float], columns: dict[str, list[str]] | None = None) -> dict:
    """Digest the CSV files in out_dir.

    With columns=None every CSV file and all of its columns are read (used to
    record a reference); otherwise exactly the named files and columns, and a
    missing file or column raises ValueError.
    """
    if columns is None:
        columns = {p.name: read_table(p)[0] for p in sorted(out_dir.glob("*.csv"))}
    points_wanted = np.unique(np.array(b_sc, dtype=np.float64))
    files: dict[str, str] = {}
    point_files: list[str] = []
    points = {}
    for name in sorted(columns):
        path = out_dir / name
        if not path.is_file():
            raise ValueError(f"missing output file {name}")
        header, rows = read_table(path)
        missing = [c for c in columns[name] if c not in header]
        if missing:
            raise ValueError(f"{name}: missing columns {missing}")
        if any(len(row) != len(header) for row in rows):
            raise ValueError(f"{name}: ragged rows")
        by_name = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
        cols = [column(list(by_name[c])) for c in columns[name]]
        key = cols[columns[name].index(B_SC_COLUMN)] if B_SC_COLUMN in columns[name] else None
        per_point = (key is not None and key.dtype != object
                     and np.array_equal(np.unique(key), points_wanted))
        if per_point:
            # Rows keep their file order within a point.
            order = np.argsort(key, kind="stable")
            key = key[order]
            cols = [col[order] for col in cols]
        floats = [col for col in cols if col.dtype != object]
        numeric = np.column_stack(floats) if floats else np.zeros((len(rows), 0))
        strings = [col for col in cols if col.dtype == object]
        if not per_point:
            files[name] = _hex(hashlib.sha256(row_bytes(numeric, strings, 0, len(rows))))
            continue
        point_files.append(name)
        bounds = np.flatnonzero(np.diff(key)) + 1
        for lo, hi in zip([0, *bounds], [*bounds, len(key)]):
            h = points.setdefault(repr(float(key[lo])), hashlib.sha256())
            h.update(name.encode() + b"\x1d" + row_bytes(numeric, strings, lo, hi))
    return {
        "columns": columns,
        "point_files": point_files,
        "files": files,
        "points": {k: _hex(h) for k, h in points.items()},
    }


def check(out_dir: Path, b_sc: list[float], reference: dict) -> list[str]:
    """Differences between out_dir and the reference; an empty list is a pass."""
    try:
        got = fingerprint(out_dir, b_sc, reference["columns"])
    except (OSError, ValueError) as exc:
        return [str(exc)]
    problems = []
    if got["point_files"] != reference["point_files"]:
        problems.append(
            f"files with one row set per b_sc point: {got['point_files']}, "
            f"expected {reference['point_files']}"
        )
    for name, digest in got["files"].items():
        if reference["files"].get(name) != digest:
            problems.append(f"{name}: values differ from the reference")
    for key, digest in got["points"].items():
        if reference["points"].get(key) != digest:
            problems.append(f"rows at b_sc_hz={key}: values differ from the reference")
    return problems
