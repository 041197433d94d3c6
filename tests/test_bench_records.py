"""The committed benchmark records.

A speed-up counts only with a committed ``BENCH_*.json`` that shows runs of
the parent and of the change on fixed workloads.  Each record must parse,
say what changed, how it was run, on what machine and in what order, and
list for every workload runs of both sides, each judged correct with no
failed check.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_KEYS = {"change", "command", "machine", "order", "workloads"}


def test_every_bench_record_holds_correct_runs_of_both_sides():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert RECORD_KEYS <= record.keys(), path.name
        assert record["workloads"], path.name
        for name, workload in record["workloads"].items():
            runs = workload["runs"]
            assert {run["side"] for run in runs} == {"parent", "change"}, (
                path.name, name)
            bad = [run for run in runs
                   if run["correct"] is not True or run["failed"] != 0]
            assert bad == [], (path.name, name)
