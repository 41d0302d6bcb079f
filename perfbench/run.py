#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mmwicd CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mmwicd is imported from its `src/`
through PYTHONPATH, and the run fails (exit 2) when it resolves elsewhere.

A round runs each of the five verbs as a fresh process on the workload's
generated config (quick verbs several times, see VERB_S_PER_ROUND), plus
`--version` processes for set-up time and calibration processes, in a seeded
random order.  Rounds repeat while the next one still fits in
`--seconds` (at least one runs).  Every verb's outputs are checked against
`reference.json`; a non-zero exit, a failed check or a missing file counts as
a failed run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians of
untraced process wall times, scaled by a calibration program run in the same
rounds (see CALIBRATION), and the peak max-RSS of any verb process.
--trace 1 runs each verb untraced and then under `tracing.py`, and reports
the per-layer metrics of BENCHMARK.json: span counts and times summed over
the five verbs of a round, with times as medians over rounds.

The last stdout line is the JSON result; the lines before it are a readable
report, and the full record (samples, percentiles, provenance, every traced
function) goes to `.perfbench/<workload>/result.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import outputs
import tracing
from workloads import VERBS, WORKLOADS, config_b_sc, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

SETUPS_PER_ROUND = 2
CALIBRATIONS_PER_ROUND = 3
# A verb that finishes sooner is run again in the same round until its runs
# add up to this, so that quick verbs get enough samples on every workload.
VERB_S_PER_ROUND = 0.6
IMPORTS_PER_ROUND = 3
PROCESS_TIMEOUT_S = 150
PERCENTILES = (50, 75, 90, 95, 99)
# Printed in the readable report but not among BENCHMARK.json's per-layer
# metrics: dense-bsc never uses table lookup, so this time is 0 on every run.
REPORT_ALSO = {"power.lookup_power.busy_s": "s"}
VERIFY_SUMMARY = re.compile(r"^(\d+)/(\d+) combinations pass$", re.MULTILINE)

PROBE = """\
import json, sys
import numpy, mmwicd, mmwicd.cli
backend = getattr(mmwicd, "kernel_backend", None)
print(json.dumps({
    "mmwicd_file": mmwicd.__file__,
    "mmwicd_version": mmwicd.__version__,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "kernel_backend": backend() if backend else None,
}))
"""
# The speed of a shared machine drifts by 20% over minutes, far more than the
# spread within a run.  So the end-to-end times are scaled by
# CALIBRATION_REF_S / (median time of CALIBRATION in the same run): they read
# as seconds on a machine where CALIBRATION takes CALIBRATION_REF_S.
# CALIBRATION shares no code with mmwicd but does what a verb run does:
# interpreter start, numpy import, Python loops and small numpy operations.
CALIBRATION = """\
import numpy as np
d = {}
for i in range(100000):
    d[i & 1023] = d.get(i & 1023, 0) + i
a = np.arange(100000)
for _ in range(20):
    (a * a).sum()
"""
CALIBRATION_REF_S = 0.2
IMPORT_TIMER = "import time; t = time.perf_counter(); import mmwicd; print(time.perf_counter() - t)"


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, or the wrong mmwicd)."""


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run one process to exit: (wall s, max RSS MB, exit code)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def provenance(env: dict) -> dict:
    """Versions, CPU count and kernel of the mmwicd under test; BenchError if it is not ours."""
    src = ROOT / "src"
    if not (src / "mmwicd").is_dir():
        raise BenchError(f"no mmwicd sources under {src}")
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if probe.returncode != 0:
        raise BenchError(f"cannot import mmwicd:\n{probe.stderr}")
    info = json.loads(probe.stdout.strip().splitlines()[-1])
    if not Path(info["mmwicd_file"]).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"mmwicd resolves to {info['mmwicd_file']}, not to {src}")
    info["nproc"] = len(os.sched_getaffinity(0))
    info["cpu_count"] = os.cpu_count()
    return info


def percentile_summary(values: list[float]) -> dict:
    """Median, sample count, and the highest of PERCENTILES with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "n": n}
    usable = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    if usable:
        p = usable[-1]
        summary[f"p{p}"] = ordered[min(n - 1, -(-n * p // 100) - 1)]
    return summary


def output_counts(out_dir: Path) -> tuple[int, int, int]:
    """(files, data rows, bytes) written to out_dir."""
    files = rows = size = 0
    for path in out_dir.iterdir():
        files += 1
        size += path.stat().st_size
        if path.suffix == ".csv":
            rows += len(outputs.read_table(path)[1])
    return files, rows, size


def layer_stats(spans_path: Path) -> dict[str, float]:
    """Per-function calls, busy and self time of one traced process, plus its counters."""
    with np.load(spans_path) as d:
        labels = [str(x) for x in d["labels"]]
        name, parent = d["name"], d["parent"]
        duration = d["end"] - d["start"]
        grid_keys, targets = int(d["grid_keys"]), int(d["targets"])
    own = tracing.self_times(parent, duration)
    n = len(labels)
    calls = np.bincount(name, minlength=n)
    busy = np.bincount(name, weights=duration, minlength=n)
    self_s = np.bincount(name, weights=own, minlength=n)
    stats: dict[str, float] = {}
    for i, label in enumerate(labels):
        stats[f"{label}.calls"] = int(calls[i])
        stats[f"{label}.busy_s"] = float(busy[i])
        stats[f"{label}.self_s"] = float(self_s[i])
    ids = {label: i for i, label in enumerate(labels)}
    in_energy = 0
    if "energy.energy" in ids and "signaling.derive_frame" in ids:
        under = tracing.inside(name, parent, ids["energy.energy"])
        in_energy = int(np.count_nonzero(under & (name == ids["signaling.derive_frame"])))
    stats["signaling.derive_frame.calls_in_energy"] = in_energy
    stats["sweepsim.grid_keys"] = grid_keys
    stats["sweepsim.targets_enumerated"] = targets
    stats["trace.spanned_s"] = float(duration[parent < 0].sum())
    return stats


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.provenance = provenance(self.env)
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.out_dir = self.work / "out"
        self.out_dir.mkdir(parents=True)
        config = make_config(workload, seed)
        self.b_sc = config_b_sc(config)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps({**config, "out": str(self.out_dir)}, indent=1))
        self.reference = json.loads(REFERENCE.read_text())[workload]
        self.attempted = 0
        self.failures: list[str] = []

    def _record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def run_setup(self) -> float | None:
        log = self.work / "setup.log"
        wall, _, code = spawn([sys.executable, "-m", "mmwicd.cli", "--version"], self.env, log)
        ok = code == 0 and log.read_text().startswith("mmwicd ")
        return wall if self._record("--version", [] if ok else [f"exit {code}"]) else None

    def run_calibration(self) -> float | None:
        wall, _, code = spawn([sys.executable, "-c", CALIBRATION], self.env, self.work / "calibration.log")
        return wall if self._record("calibration", [] if code == 0 else [f"exit {code}"]) else None

    def run_verb(self, verb: str, spans: Path | None = None) -> tuple[float, float] | None:
        """Run one verb on the workload config and check its outputs; None on failure."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir()
        log = self.work / f"{verb}.log"
        if spans is None:
            argv = [sys.executable, "-m", "mmwicd.cli", verb, "--config", str(self.config_path)]
        else:
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans), f"{self.workload}/{verb}",
                    verb, "--config", str(self.config_path)]
        wall, rss, code = spawn(argv, self.env, log)
        problems = [f"exit {code}"] if code != 0 else outputs.check(self.out_dir, self.b_sc, self.reference[verb])
        if verb == "verify" and code == 0:
            summary = VERIFY_SUMMARY.search(log.read_text())
            if summary is None or summary[1] != summary[2]:
                problems.append("no 'N/N combinations pass' line")
        ok = self._record(f"{verb}{' (traced)' if spans else ''}", problems)
        return (wall, rss) if ok else None

    def rounds(self, seconds: float):
        """Yield round numbers while the next round is expected to fit in `seconds`."""
        deadline = time.perf_counter() + seconds
        n = 0
        while True:
            start = time.perf_counter()
            yield n
            n += 1
            now = time.perf_counter()
            if now + (now - start) > deadline:
                return

    def measure(self, seconds: float) -> tuple[dict[str, float], dict]:
        samples: dict[str, list[float]] = defaultdict(list)
        peak_rss = 0.0
        jobs = ["setup"] * SETUPS_PER_ROUND + ["calibration"] * CALIBRATIONS_PER_ROUND + list(VERBS)
        for _ in self.rounds(seconds):
            self.rng.shuffle(jobs)
            for job in jobs:
                if job in ("setup", "calibration"):
                    wall = self.run_setup() if job == "setup" else self.run_calibration()
                    if wall is not None:
                        samples[f"{job}_s"].append(wall)
                    continue
                spent = 0.0
                while spent < VERB_S_PER_ROUND:
                    result = self.run_verb(job)
                    if result is None:
                        break
                    samples[f"{job}_s"].append(result[0])
                    peak_rss = max(peak_rss, result[1])
                    spent += result[0]
        detail = {name: percentile_summary(v) for name, v in samples.items()}
        calibration = samples.pop("calibration_s", None)
        if not calibration:
            return {}, detail
        scale = CALIBRATION_REF_S / statistics.median(calibration)
        values = {name: statistics.median(v) * scale for name, v in samples.items()}
        if peak_rss:
            values["peak_rss_mb"] = peak_rss
        return values, detail

    def import_time(self) -> float | None:
        log = self.work / "import.log"
        _, _, code = spawn([sys.executable, "-c", IMPORT_TIMER], self.env, log)
        ok = self._record("import mmwicd", [] if code == 0 else [f"exit {code}"])
        return float(log.read_text().split()[-1]) if ok else None

    def trace_round(self) -> dict[str, float]:
        """Per-layer figures of one round: each verb untraced, then traced."""
        total: dict[str, float] = defaultdict(int)
        imports = [t for t in (self.import_time() for _ in range(IMPORTS_PER_ROUND)) if t is not None]
        if imports:
            total["import.mmwicd_s"] = statistics.median(imports)
        verbs = list(VERBS)
        self.rng.shuffle(verbs)
        for verb in verbs:
            untraced = self.run_verb(verb)
            spans = self.work / f"spans-{verb}.npz"
            traced = self.run_verb(verb, spans=spans)
            if untraced is None or traced is None:
                continue
            for key, value in layer_stats(spans).items():
                total[key] += value
            files, rows, size = output_counts(self.out_dir)
            total["cli.files_written"] += files
            total["cli.rows_written"] += rows
            total["cli.bytes_written"] += size
            total["trace.untraced_wall_s"] += untraced[0]
            total["trace.traced_wall_s"] += traced[0]
        return derive_ratios(total)

    def trace(self, seconds: float) -> tuple[dict[str, float], dict]:
        rounds = [self.trace_round() for _ in self.rounds(seconds)]
        values = {}
        for name in set().union(*rounds):
            column = [r.get(name, 0) for r in rounds]
            counted = all(isinstance(v, int) for v in column) and len(set(column)) == 1
            values[name] = column[0] if counted else statistics.median(column)
        return values, {"rounds": len(rounds)}


def derive_ratios(total: dict[str, float]) -> dict[str, float]:
    """Add the ratio metrics to a round's summed figures."""
    def ratio(num: str, den: str) -> float:
        return total[num] / total[den] if total.get(den) else 0.0

    total = dict(total)
    total["signaling.derive_frame.calls_per_energy"] = ratio(
        "signaling.derive_frame.calls_in_energy", "energy.energy.calls")
    total["sweepsim.grid_reuse_ratio"] = ratio("sweepsim.grid_keys", "sweepsim.discovery_slot_grid.calls")
    total["sweepsim.targets_per_s"] = ratio("sweepsim.targets_enumerated", "sweepsim.discovery_slot_grid.busy_s")
    total["trace.overhead_ratio"] = ratio("trace.traced_wall_s", "trace.untraced_wall_s")
    if "trace.traced_wall_s" in total:
        total["trace.unspanned_s"] = total["trace.traced_wall_s"] - total.get("trace.spanned_s", 0.0)
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        bench = Bench(args.workload, args.seed)
    except (BenchError, OSError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values, detail = bench.trace(args.seconds) if args.trace else bench.measure(args.seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    failed = len(bench.failures)
    result = {
        "correct": failed == 0 and not missing,
        "attempted": max(bench.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": bench.provenance, "failures": bench.failures, "missing": missing,
              "error_rate": failed / max(bench.attempted, 1), "detail": detail, "all": values,
              "result": result}
    (bench.work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    prov = bench.provenance
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: python {prov['python']}, "
          f"numpy {prov['numpy']}, nproc {prov['nproc']}, kernel {prov['kernel_backend']}, "
          f"mmwicd {prov['mmwicd_version']} from {prov['mmwicd_file']}")
    shown = dict(metrics)
    if args.trace:
        shown.update({name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in REPORT_ALSO.items()})
    for name, metric in shown.items():
        extra = detail.get(name, {})
        spread = " ".join(f"{'raw_median' if k == 'median' else k}={v:.4g}" for k, v in extra.items())
        print(f"{name:48s} {metric['value']:14.6g} {metric['unit']:6s} {spread}")
    if "calibration_s" in detail:
        cal = detail["calibration_s"]
        print(f"{'calibration_s':48s} {cal['median']:14.6g} s      n={cal['n']} (scale {CALIBRATION_REF_S:g} s / this)")
    print(f"{'error_rate':48s} {record['error_rate']:14.6g} ratio  "
          f"failed={failed} attempted={bench.attempted}")
    for failure in bench.failures[:20]:
        print(f"FAILED {failure}")
    for name in missing:
        print(f"MISSING {name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
