"""The wide ladder through the command line, text against JSON.

ROADMAP family (b) (``reference_cases.ladder``) at N = 20 with 20 tags has
74,130 signatures.  This script runs it against a one-state guideline
through ``guidecheck.cli.main`` in a fresh interpreter, once with
``--report text`` and once with ``--report json``, each written to a file.
It fails (exit 1) if an exit code is not 0 or 1, or if the JSON run's peak
RSS exceeds the text run's by more than 10%: both reports are streamed, a
signature at a time, so neither should hold the whole report.

    PYTHONPATH=src python tests/wide_ladder.py [NODES TAGS]

Each run is waited for with a blocking ``os.wait4``, which does not poll,
so its wall seconds resolve to the millisecond, and its peak RSS is the
``ru_maxrss`` of that child alone.  A run still going after 600 seconds
is killed, and its exit code is then -9.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from reference_cases import ladder

ONE_STATE = "alphabet: a\nstates: s\ninitial: s\naccepting: s\ntrans: s a s\n"
RSS_SLACK = 1.10  # the JSON run's peak may exceed the text run's by 10%
MAIN = ("import sys; from guidecheck.cli import main; "
        "sys.exit(main(sys.argv[1:]))")


def run(argv: list) -> dict:
    """Exit code, wall seconds and peak RSS (MiB) of one child running
    argv with this process's environment."""
    start = time.perf_counter()
    child = subprocess.Popen(argv)
    timer = threading.Timer(600, os.kill, (child.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here
    return {"exit": child.returncode, "seconds": round(seconds, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def measure(nodes: int, tags: int, directory: str) -> dict:
    """The run of each report form, text first, each in a fresh
    interpreter."""
    program = os.path.join(directory, "ladder.fj")
    guideline = os.path.join(directory, "one_state.gl")
    with open(program, "w", encoding="utf-8") as fh:
        fh.write(ladder(nodes, tags))
    with open(guideline, "w", encoding="utf-8") as fh:
        fh.write(ONE_STATE)
    return {form: run([sys.executable, "-c", MAIN, "analyze", "--program",
                       program, "--guideline", guideline, "--report", form,
                       "--out", os.path.join(directory, f"report.{form}")])
            for form in ("text", "json")}


def problems(result: dict) -> list:
    found = [f"{form}: exit code {run['exit']}"
             for form, run in result.items() if run["exit"] not in (0, 1)]
    text, both = result["text"]["peak_rss_mb"], result["json"]["peak_rss_mb"]
    if both > RSS_SLACK * text:
        found.append(f"json peak RSS {both} MiB exceeds the text run's "
                     f"{text} MiB by more than {RSS_SLACK - 1:.0%}")
    return found


def main(argv: list) -> int:
    nodes, tags = (int(a) for a in argv) if argv else (20, 20)
    with tempfile.TemporaryDirectory() as directory:
        result = measure(nodes, tags, directory)
    print(json.dumps({"nodes": nodes, "tags": tags, **result}))
    found = problems(result)
    for problem in found:
        print(f"wide ladder: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
