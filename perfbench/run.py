"""guidecheck benchmark: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Workloads and why each exists are described
in workloads.py and BENCHMARK.json.  The run:

1. times ``import guidecheck.cli`` in SETUP_SAMPLES fresh interpreters after
   one warm-up import (which may write bytecode caches), each between two
   rounds of the speed reference (speed.py) and scaled to the reference
   speed, and reports the median as ``setup_s``;
2. runs the workload in one fresh worker process (worker.py), which measures
   for S seconds and checks every answer;
3. prints the metrics as the last line, one JSON object with the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
   the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

Load is one process with no threads: the worker runs one check at a time.
Inputs are written under .perfbench/ at the repository root and removed at
the end.  The exit code is 0 when a result was printed, 2 when guidecheck
cannot be imported or the worker did not produce a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 21
RUN_LIMIT_S = 170  # the whole run, set-up included, must end before 180 s

IMPORT_PROBE = (
    "import sys, time\n"
    f"sys.path.insert(0, {HERE!r})\n"
    f"sys.path.insert(0, {os.path.join(ROOT, 'src')!r})\n"
    "import speed\n"
    "before = speed.reference_seconds()\n"
    "start = time.perf_counter()\n"
    "import guidecheck.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(speed.scaled(elapsed, before, speed.reference_seconds()))\n"
)


class BenchError(Exception):
    pass


def _python(what: str, args: list, timeout: float) -> str:
    """Run the interpreter isolated from the caller's environment; return
    its standard output.  subprocess.run kills and reaps it on timeout."""
    try:
        proc = subprocess.run(
            [sys.executable, "-I", *args], capture_output=True, text=True,
            timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds() -> float:
    probe = ["-c", IMPORT_PROBE]
    _python("import probe", probe, timeout=60)
    samples = [float(_python("import probe", probe, timeout=60).split()[-1])
               for _ in range(SETUP_SAMPLES)]
    return statistics.median(samples)


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    os.makedirs(WORK, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        out = _python(
            "worker",
            [os.path.join(HERE, "worker.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--dir", directory],
            timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = setup_seconds()
    result = run_workload(name, seed, seconds, trace, deadline)
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    for line in result["problems"] + result["notes"]:
        print(f"{name}: {line}", file=sys.stderr)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "passes": result["passes"],
        "traced_passes": result["traced_passes"],
    }


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"passes={result['passes']} traced_passes={result['traced_passes']}")
    for key, m in result["metrics"].items():
        print(f"   {key:<28} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds,
                             args.trace)
            print_table(args.workload, result)
            print(json.dumps({k: result[k] for k in
                              ("correct", "attempted", "failed", "metrics")}))
            return 0
        summary = {"correct": True, "attempted": 0, "failed": 0,
                   "metrics": {}}
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                result = measure(name, args.seed, args.seconds, trace)
                print_table(f"{name} trace={trace}", result)
                summary["correct"] &= result["correct"]
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                summary["metrics"].setdefault(name, {}).update(
                    result["metrics"])
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
