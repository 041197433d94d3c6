"""The reports as they were rendered whole, before ``Report.write`` streamed
them.

``text_reference`` is the text report built as one string, the way
``cli.main`` printed it, and ``json_reference`` is the JSON report dumped
by ``json`` from ``Report.to_json``; each ends in a newline, as ``main``
wrote it.  ``streamed`` collects what ``Report.write`` passes on.  The tests
check that the streamed bytes equal these.
"""

from __future__ import annotations

import json


def text_reference(report) -> str:
    lines = []
    for s in report.signatures:
        marks = ", ".join(
            f"{name}:{'ok' if okay else 'FAIL'}"
            for name, okay in (
                ("returns", s.returns_ok),
                ("throws", s.throws_ok),
                ("diverges", s.diverges_ok),
            )
        )
        lines.append(f"{s.sig}  {marks}")
    for c in report.counterexamples:
        lines.append(f"counterexample: {c.describe()}")
    if report.counterexamples:
        lines.append(
            "(counterexamples come from a bounded enumeration of runs; "
            "not finding one proves nothing)"
        )
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines) + "\n"


def json_reference(report) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


def streamed(report, form: str) -> str:
    pieces: list = []
    report.write(pieces.append, form)
    return "".join(pieces)
