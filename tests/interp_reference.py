"""The restart-per-choice enumerator, kept as a reference.

``enumerate_traces`` executes each script prefix once and branches at every
stub call.  This enumerator explores the same scripts by restarting: a run
whose script runs out at a stub is replayed from scratch once per choice of
that stub, each with the script extended by that choice.  Its runs must
agree with the interpreter's, one for one and in the same order.
"""

from __future__ import annotations

from guidecheck.fjast import Program
from guidecheck.interp import (
    DEFAULT_FUEL,
    MAX_RUNS,
    EvalStuck,
    Evaluator,
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
        if ev.exhausted is not None:
            for choice in sorted(ev.exhausted, reverse=True):
                pending.append(script + (choice,))
            continue
        runs.append(TraceRun(script, outcome.trace, outcome, ev.cycles))
        if len(runs) > MAX_RUNS:
            raise RuntimeError(f"more than {MAX_RUNS} runs for {entry}")
    return runs
