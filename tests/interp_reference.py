"""The restart-per-choice enumerator, kept as a reference.

``enumerate_traces`` executes each script prefix once: a run that reaches a
stub past the end of its script forks there, each larger choice getting a
copy of the state, and goes on with the least choice.  ``Search`` goes
further and resumes, at each fuel level, the runs the last level suspended.
This enumerator shares neither: it replays every script from the entry, and
a run whose script runs out at a stub is replayed from scratch once per
choice of that stub, each with the script extended by that choice.  Its runs
must agree with the interpreter's, one for one and in the same order.
"""

from __future__ import annotations

from guidecheck.fjast import Program
from guidecheck.interp import (
    DEFAULT_FUEL,
    MAX_RUNS,
    EvalStuck,
    Evaluator,
    ScriptEnd,
    TraceRun,
)


def enumerate_by_restarts(
    prog: Program,
    entry: str,
    fuel: int = DEFAULT_FUEL,
    intrinsics: dict | None = None,
) -> list[TraceRun]:
    cls, _, method = entry.partition(".")
    if not method:
        raise ValueError(f"entry must be 'Class.method', got {entry!r}")
    runs: list[TraceRun] = []
    pending: list[tuple] = [()]
    while pending:
        script = pending.pop()
        ev = Evaluator(prog, intrinsics, fuel, script)
        try:
            outcome = ev.run_entry(cls, method)
        except EvalStuck as stuck:
            runs.append(TraceRun(script, tuple(ev.trace), None, ev.cycles,
                                 stuck=stuck))
            continue
        if isinstance(outcome, ScriptEnd):
            for choice in sorted(outcome.choices, reverse=True):
                pending.append(script + (choice,))
            continue
        runs.append(TraceRun(script, outcome.trace, outcome, ev.cycles))
        if len(runs) > MAX_RUNS:
            raise RuntimeError(f"more than {MAX_RUNS} runs for {entry}")
    return runs
