"""The committed BENCH_<workload>.json records are whole and portable.

Each workload of perfbench/workloads.py has one committed record: an untraced
run of that workload in which no run failed, holding every end-to-end metric
that BENCHMARK.json lists, with the package path recorded relative to the
checkout rather than as the absolute path of the machine that ran it.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402 - found on the path added above

END_TO_END = [metric["name"] for metric in
              json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_committed_record_is_whole(workload):
    record = json.loads((ROOT / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    assert (record["workload"], record["trace"]) == (workload, 0)
    assert record["result"]["failed"] == 0
    assert sorted(set(END_TO_END) - set(record["result"]["metrics"])) == []
    assert not Path(record["provenance"]["mmwicd_file"]).is_absolute()
