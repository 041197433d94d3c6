"""Two enumerators of an entry's runs at one fuel bound, kept as references.

``enumerate_traces`` executes each script prefix once, as the search does: a
run that reaches a stub past the end of its script forks there, each larger
choice getting a copy of the state, and goes on with the least choice.
``interp.Search`` goes further and resumes, at each fuel level, the runs the
last level suspended; a forked run there holds only the candidates it
recorded itself, where a run here holds all of its own.

``enumerate_by_restarts`` shares neither: it replays every script from the
entry, and a run whose script runs out at a stub is replayed from scratch
once per choice of that stub, each with the script extended by that choice.
Its runs must agree with the interpreter's, one for one and in the same
order.
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


def _split_entry(entry: str) -> tuple[str, str]:
    cls, _, method = entry.partition(".")
    if not method:
        raise ValueError(f"entry must be 'Class.method', got {entry!r}")
    return cls, method


def enumerate_traces(
    prog: Program,
    entry: str,
    fuel: int = DEFAULT_FUEL,
    intrinsics: dict | None = None,
) -> list[TraceRun]:
    """Every complete run of entry ('Class.method', no parameters) under the
    fuel bound, one per stub-choice script, in lexicographic script order.
    A run forked at script position k holds, ahead of its own candidates,
    those of the run it forked from with ``cycle_choices <= k``: the ones
    that run recorded before it took its choice at k."""
    root = Evaluator(prog, intrinsics, fuel)
    root.start(*_split_entry(entry))
    runs: list[TraceRun] = []
    stack = [root]
    inherited = {root: []}
    while stack:
        ev = stack.pop()
        depth = len(stack)
        stuck = None
        try:
            outcome = ev.run(stack)
        except EvalStuck as exc:
            outcome, stuck = None, exc
        cycles = inherited.pop(ev) + ev.cycles
        for twin in stack[depth:]:
            k = len(twin.script) - 1
            inherited[twin] = [c for c in cycles if c.cycle_choices <= k]
        trace = tuple(ev.trace) if outcome is None else outcome.trace
        runs.append(TraceRun(tuple(ev.script), trace, outcome, cycles, [],
                             stuck))
        if stuck is None and len(runs) > MAX_RUNS:
            raise RuntimeError(f"more than {MAX_RUNS} runs for {entry}")
    return runs


def enumerate_by_restarts(
    prog: Program,
    entry: str,
    fuel: int = DEFAULT_FUEL,
    intrinsics: dict | None = None,
) -> list[TraceRun]:
    cls, method = _split_entry(entry)
    runs: list[TraceRun] = []
    pending: list[tuple] = [()]
    while pending:
        script = pending.pop()
        ev = Evaluator(prog, intrinsics, fuel, script)
        try:
            ev.start(cls, method)
            outcome = ev.run()
        except EvalStuck as stuck:
            runs.append(TraceRun(script, tuple(ev.trace), None, ev.cycles,
                                 [], stuck=stuck))
            continue
        if isinstance(outcome, ScriptEnd):
            for choice in sorted(outcome.choices, reverse=True):
                pending.append(script + (choice,))
            continue
        runs.append(TraceRun(script, outcome.trace, outcome, ev.cycles, []))
        if len(runs) > MAX_RUNS:
            raise RuntimeError(f"more than {MAX_RUNS} runs for {entry}")
    return runs
