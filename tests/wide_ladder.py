"""The wide ladder through the command line, text against JSON.

ROADMAP family (b) (``reference_cases.ladder``) at N = 20 with 20 tags has
74,130 signatures.  This script runs it against a one-state guideline
through ``guidecheck.cli.main`` in a fresh interpreter, once with
``--report text`` and once with ``--report json``, each written to a file.
It fails (exit 1) if an exit code is not 0 or 1, or if the JSON run's peak
RSS exceeds the text run's by more than 10%: both reports are streamed, a
signature at a time, so neither should hold the whole report.

    PYTHONPATH=src python tests/wide_ladder.py [NODES TAGS]

Peak RSS is read with ``getrusage(RUSAGE_CHILDREN)``, the largest of the
children waited for so far: after the text run it is that run's peak, and
after the JSON run the larger of the two.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

from reference_cases import ladder

ONE_STATE = "alphabet: a\nstates: s\ninitial: s\naccepting: s\ntrans: s a s\n"
RSS_SLACK = 1.10  # the JSON run's peak may exceed the text run's by 10%
MAIN = ("import sys; from guidecheck.cli import main; "
        "sys.exit(main(sys.argv[1:]))")


def measure(nodes: int, tags: int, directory: str) -> dict:
    """Exit code, seconds and peak RSS (MiB) of each report form, text
    first, each in a fresh interpreter with this one's environment."""
    program = os.path.join(directory, "ladder.fj")
    guideline = os.path.join(directory, "one_state.gl")
    with open(program, "w", encoding="utf-8") as fh:
        fh.write(ladder(nodes, tags))
    with open(guideline, "w", encoding="utf-8") as fh:
        fh.write(ONE_STATE)
    out = {}
    for form in ("text", "json"):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", MAIN, "analyze", "--program", program,
             "--guideline", guideline, "--report", form,
             "--out", os.path.join(directory, f"report.{form}")],
            timeout=600)
        seconds = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        out[form] = {"exit": done.returncode, "seconds": round(seconds, 3),
                     "peak_rss_mb": round(peak, 1)}
    return out


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
