"""Golden outputs: every file each verb writes, in both formats, on the configs below.

tests/test_cli.py checks the current tree against what this module records.
Run it as a script, from the repository root, to record them again:

    PYTHONPATH=src python3 tests/record_golden.py

It rewrites tests/data/golden_sha256.json ({config: {format: {verb: {file:
sha256}}}}) and tests/data/table_i_golden.csv (the defaults' tables-i.csv,
byte for byte).  Only a deliberate output change should move either; review
the diff before committing it.  The committed files were recorded with
Python 3.11.7 and numpy 2.4.6.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from mmwicd import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import make_config  # noqa: E402 - found on the path added above

GOLDEN_DIR = Path(__file__).parent / "data"
FORMATS = ("csv", "json")

# The defaults, and a 60x14 parametric grid, where 3 and 5 beams do not divide
# the 14 MS directions and k = 7 does not divide the 60 BS directions.
GOLDEN_CONFIGS = {
    "defaults": {},
    "60x14": {
        "power_mode": "parametric",
        "geometry": {"n_bs_directions": 60, "n_ms_directions": 14},
        "architecture_params": {"n_ms_antennas": 16, "n_rf_chains": 3, "n_combiners": 5},
        "bits": [3, 6, 9],
        "k": [1, 3, 5, 7],
    },
    # Row order that holds only for the listed b_sc order, spacings spelled as
    # JSON integers, and pss finding nCI when it is not the first scenario.
    "unsorted-b_sc": {"b_sc_hz": [1000000, 15000, 250000], "scenarios": ["CID", "nCI"]},
    # Tables of one column per name: one receiver, one scenario, one ADC class.
    "one-each": {"architectures": ["HBF"], "scenarios": ["CInD"], "adc_classes": ["LPADC"]},
    # The ends of the resolution range, where 2**bits is smallest and largest.
    "bits-1-12": {"power_mode": "parametric", "bits": [1, 12]},
    # k values that do not divide the 64 BS directions.
    "k-not-dividing": {"k": [3, 5, 7, 48]},
    # Beams wider than their side: 32 DBF, 20 HBF and 24 PSN beams on 16 MS directions.
    "wide-beams": {"power_mode": "parametric",
                   "architecture_params": {"n_ms_antennas": 32, "n_rf_chains": 20,
                                           "n_combiners": 24}},
    # One BS and one MS direction, so every k but 1 exceeds the BS side.
    "1x1": {"geometry": {"n_bs_directions": 1, "n_ms_directions": 1}},
    # A CID budget of 0: no lead time and no acquisition power.
    "cid-budget-0": {"scenario_params": {"t_ci_s": 0.0, "p_ci_w": 0.0}},
    # A 1e20 s CID lead, beside which a slot is below the delay's float resolution.
    "cid-lead-1e20": {"scenario_params": {"t_ci_s": 1e20, "p_ci_w": 0.1}},
    # Spacings whose values print with exponents (parametric: the table lacks them).
    "b_sc-extremes": {"power_mode": "parametric", "b_sc_hz": [1e-3, 1e12]},
    # The dense-bsc benchmark workload at seed 0: 150 spacings, bits 1-12.
    "dense-bsc-0": make_config("dense-bsc", 0),
}


def output_digests(tmp_path, raw, fmt):
    """{verb: {file name: sha256}} of what each verb writes into a fresh directory."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    digests = {}
    for verb in cli.COMMANDS:
        out = tmp_path / fmt / verb
        assert cli.main([verb, "--config", str(config), "--out", str(out), "--format", fmt]) == 0
        digests[verb] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(out.iterdir())}
    return digests


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {}
        for name, raw in GOLDEN_CONFIGS.items():
            work = Path(tmp) / name
            work.mkdir()
            golden[name] = {fmt: output_digests(work, raw, fmt) for fmt in FORMATS}
        table_i = (Path(tmp) / "defaults" / "csv" / "tables" / "tables-i.csv").read_bytes()
    (GOLDEN_DIR / "golden_sha256.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")
    (GOLDEN_DIR / "table_i_golden.csv").write_bytes(table_i)


if __name__ == "__main__":
    main()
