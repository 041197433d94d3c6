"""One workload run in a fresh process: the measured passes and their checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --dir DIR

Writes the workload's inputs to DIR, then runs passes over its checks until
S seconds have passed (at least two of each kind).  A plain pass calls
``guidecheck.cli.main`` in-process for each check.  With ``--trace 1`` plain
passes alternate with traced passes, which call the same layers one by one
under spans (see tracing.py).  Every check's answer is compared with the
workload's expected answer, its witnesses with the benchmark's own
validator, and its report and counts with those of the first pass.  Each
check is timed between two rounds of the speed reference (speed.py) and its
time scaled to the reference speed; a metric is the sum over checks of each
check's median scaled time.  Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import witness  # noqa: E402
import workloads  # noqa: E402
from guidecheck import cli  # noqa: E402

MIN_PASSES = 2
CHECK_LIMIT_S = 30.0  # a check slower than this counts as failed


def check_problems(check, rc, report, elapsed) -> list:
    """Every way this check's outcome differs from the expected answer."""
    exp = check.expected
    out = []
    if rc != exp["exit"]:
        out.append(f"exit code {rc}, expected {exp['exit']}")
    if report is None:
        return out + ["no report"]
    if report["verdict"] != exp["verdict"]:
        out.append(f"verdict {report['verdict']}, expected {exp['verdict']}")
    got = {
        workloads.sig_key(s["class"], s["receiver"], s["method"], s["args"]):
        workloads.marks(s["returns_ok"], s["throws_ok"], s["diverges_ok"])
        for s in report["signatures"]
    }
    if got != exp["sigs"]:
        wrong = sorted(k for k in set(got) | set(exp["sigs"])
                       if got.get(k) != exp["sigs"].get(k))
        out.append(f"{len(wrong)} signature marks differ, first {wrong[0]}: "
                   f"{got.get(wrong[0])} vs {exp['sigs'].get(wrong[0])}")
    for c in report["counterexamples"]:
        why = witness.problem(check.guideline, c)
        if why is not None:
            out.append(f"invalid witness from {c['entry']}: {why}")
    if elapsed > CHECK_LIMIT_S:
        out.append(f"took {elapsed:.1f} s, limit {CHECK_LIMIT_S:.0f} s")
    return out


def witness_notes(check, report) -> list:
    """Witnesses whose kind differs from the one recorded when the benchmark
    was written.  Not a failure: a better search may find a different or an
    additional valid witness; validity is checked by check_problems."""
    if report is None:
        return []
    kinds = {c["entry"]: c["kind"] for c in report["counterexamples"]}
    return [f"{check.name}: witness from {entry} is {kinds.get(entry)}, "
            f"recorded {kind}"
            for entry, kind in check.expected["witnesses"].items()
            if kinds.get(entry) != kind]


def witness_lengths(report) -> list:
    return [len(c["trace"]) + len(c.get("cycle") or ())
            for c in report["counterexamples"]]


class Runner:
    def __init__(self, workload, directory):
        self.workload = workload
        self.directory = directory
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.first_report: dict = {}
        self.first_counts: dict = {}

    def _judge(self, check, rc, report, elapsed, found):
        self.attempted += 1
        found = found + check_problems(check, rc, report, elapsed)
        first = self.first_report.setdefault(check.name, report)
        if report != first:
            found.append("report differs from the first pass")
        if found:
            self.failed += 1
            self.problems.extend(f"{check.name}: {p}" for p in found)

    def plain_pass(self):
        """Each check through cli.main; returns the seconds each check spent
        in cli.main, scaled to the reference speed (speed.py), and the
        reports."""
        times = {}
        reports = []
        before = speed.reference_seconds()
        for check in self.workload.checks:
            out = os.path.join(self.directory, check.name + ".report.json")
            if os.path.exists(out):
                os.remove(out)
            rc, report, found = None, None, []
            gc.collect()  # no garbage from an earlier check inflates this one
            start = time.perf_counter()
            try:
                rc = cli.main(check.argv_in(self.directory) + ["--out", out])
            except Exception as exc:  # a crash is a failed check
                found.append(f"raised {exc!r}")
            elapsed = time.perf_counter() - start
            after = speed.reference_seconds()
            times[check.name] = speed.scaled(elapsed, before, after)
            before = after
            if rc in (0, 1) and os.path.exists(out):
                with open(out, encoding="utf-8") as fh:
                    report = json.load(fh)
            self._judge(check, rc, report, elapsed, found)
            reports.append(report)
        return times, reports

    def traced_pass(self):
        """Each check through the layers under spans; returns the tracer,
        the factor that scales each check's spans to the reference speed,
        and the counts summed over the checks (the largest SCC: the
        maximum)."""
        tracer = tracing.Tracer()
        factors: dict = {}
        summed: dict = {}
        before = speed.reference_seconds()
        for check in self.workload.checks:
            rc, report, found = None, None, []
            gc.collect()
            start = time.perf_counter()
            try:
                report, outputs = tracing.traced_check(
                    tracer, check.name, check.argv_in(self.directory))
                rc = 0 if report["verdict"] == "pass" else 1
                report = json.loads(json.dumps(report, sort_keys=True))
                got = tracing.counts(outputs)
                first = self.first_counts.setdefault(check.name, got)
                if got != first:
                    found.append(f"counts differ from the first traced pass: "
                                 f"{got} vs {first}")
                if got["inference.offenses"]:
                    found.append("re-check found offenses")
                for k, v in got.items():
                    combine = max if k == "solver.largest_scc" else sum
                    summed[k] = combine((summed.get(k, 0), v))
            except Exception as exc:
                found.append(f"traced run raised {exc!r}")
            elapsed = time.perf_counter() - start
            after = speed.reference_seconds()
            factors[check.name] = speed.scaled(1.0, before, after)
            before = after
            self._judge(check, rc, report, elapsed, found)
        return tracer, factors, summed


def median_sum(samples: dict, keep=lambda key: True) -> float:
    """Sum over keys of the median sample."""
    return sum(statistics.median(v) for k, v in samples.items() if keep(k))


def run(workload_name, seed, seconds, trace, directory) -> dict:
    workload = workloads.build(workload_name, seed)
    workloads.write(workload, directory)
    runner = Runner(workload, directory)
    # Seconds scaled to the reference speed, one sample per pass:
    plain: dict = {}  # check -> seconds in cli.main
    traced: dict = {}  # (check, span name) -> self seconds
    traced_totals: dict = {}  # check -> seconds of its root span
    traced_counts: dict = {}
    passes = traced_passes = 0
    start = time.perf_counter()
    while (passes < MIN_PASSES or (trace and traced_passes < MIN_PASSES)
           or time.perf_counter() - start < seconds):
        times, reports = runner.plain_pass()
        passes += 1
        for name, secs in times.items():
            plain.setdefault(name, []).append(secs)
        if trace:
            tracer, factors, traced_counts = runner.traced_pass()
            traced_passes += 1
            for key, secs in tracer.self_times().items():
                traced.setdefault(key, []).append(secs * factors[key[0]])
            for name, secs in tracer.root_totals().items():
                traced_totals.setdefault(name, []).append(
                    secs * factors[name])

    if trace:
        metrics = {
            f"{layer}_s": (median_sum(traced, lambda k: k[1] == layer), "s")
            for layer in tracing.LAYERS}
        metrics["cli.other_s"] = (
            median_sum(traced, lambda k: k[1] == tracing.ROOT), "s")
        for name, value in traced_counts.items():
            metrics[name] = (value, "count")
        metrics["trace.overhead_s"] = (
            median_sum(traced_totals) - median_sum(plain), "s")
    else:
        lengths = [n for r in reports if r for n in witness_lengths(r)]
        metrics = {
            "wall_s": (median_sum(plain), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB"),
            "witnesses_found": (len(lengths), "count"),
            "witness_len_mean": (
                statistics.mean(lengths) if lengths else 0.0, "events"),
        }
    return {
        "workload": workload_name,
        "passes": passes,
        "traced_passes": traced_passes,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "notes": [n for c, r in zip(workload.checks, reports)
                  for n in witness_notes(c, r)],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(
        workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
