#!/usr/bin/env python3
"""Record perfbench/reference.json from the mmwicd in this checkout's src/.

    python3 perfbench/record_reference.py

Runs every verb once per workload on its reference config (the whole b_sc
pool for dense-bsc) and stores the output fingerprints.  Re-record only when
a change is meant to alter the CLI's results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import outputs
from workloads import VERBS, WORKLOADS, config_b_sc, reference_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def record(workload: str, scratch: Path) -> dict:
    config = reference_config(workload)
    out_dir = scratch / workload
    config_path = scratch / f"{workload}.json"
    config_path.write_text(json.dumps({**config, "out": str(out_dir)}))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    entry = {}
    for verb in VERBS:
        subprocess.run([sys.executable, "-m", "mmwicd.cli", verb, "--config", str(config_path)],
                       env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        entry[verb] = outputs.fingerprint(out_dir, config_b_sc(config))
        for path in out_dir.iterdir():
            path.unlink()
    return entry


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        reference = {workload: record(workload, Path(tmp)) for workload in WORKLOADS}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
