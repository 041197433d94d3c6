"""Two enumerators of an entry's runs at one fuel bound, kept as references.

``enumerate_traces`` executes each script prefix once, as the search does: a
run that reaches a stub past the end of its script forks there, each larger
choice getting a copy of the state, and goes on with the least choice.
``interp.Search`` goes further and resumes, at each fuel level, the runs the
last level suspended; a forked run there holds only the repeats it
recorded itself, where a run here holds all of its own.

``enumerate_by_restarts`` shares neither: it replays every script from the
entry, and a run whose script runs out at a stub is replayed from scratch
once per choice of that stub, each with the script extended by that choice.
Its runs must agree with the interpreter's, one for one and in the same
order.  Both return the runs themselves: evaluators with their
``outcome`` or ``stuck`` set, as ``interp.Search`` returns them.

``canonical_key_with_names`` is ``Evaluator._canonical_key`` as it rendered
each field as a (name, id) pair; the tests check that the package's key,
which renders ids only, tells calls apart exactly as it did.
"""

from __future__ import annotations

from guidecheck.fjast import Program
from guidecheck.interp import (
    DEFAULT_FUEL,
    MAX_RUNS,
    EvalStuck,
    Evaluator,
    ScriptEnd,
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
) -> list[Evaluator]:
    """Every complete run of entry ('Class.method', no parameters) under the
    fuel bound, one per stub-choice script, in lexicographic script order.
    A run forked at script position k holds, ahead of its own repeats,
    those of the run it forked from recorded at script position k or
    less: the ones that run recorded before it took its choice at k."""
    root = Evaluator(prog, intrinsics, fuel)
    root.start(*_split_entry(entry))
    runs: list[Evaluator] = []
    stack = [root]
    inherited = {root: []}
    while stack:
        ev = stack.pop()
        depth = len(stack)
        runs.append(ev)
        try:
            ev.outcome = ev.run(stack)
        except EvalStuck as exc:
            ev.stuck = exc
        ev.cycles = inherited.pop(ev) + ev.cycles
        for twin in stack[depth:]:
            k = len(twin.script) - 1
            inherited[twin] = [(end, opens) for end, opens in ev.cycles
                               if end[1] <= k]
        if ev.stuck is None and len(runs) > MAX_RUNS:
            raise RuntimeError(f"more than {MAX_RUNS} runs for {entry}")
    return runs


def enumerate_by_restarts(
    prog: Program,
    entry: str,
    fuel: int = DEFAULT_FUEL,
    intrinsics: dict | None = None,
) -> list[Evaluator]:
    cls, method = _split_entry(entry)
    runs: list[Evaluator] = []
    pending: list[tuple] = [()]
    while pending:
        script = pending.pop()
        ev = Evaluator(prog, intrinsics, fuel, script)
        try:
            ev.start(cls, method)
            ev.outcome = ev.run()
        except EvalStuck as stuck:
            ev.stuck = stuck
            runs.append(ev)
            continue
        if isinstance(ev.outcome, ScriptEnd):
            for choice in sorted(ev.outcome.choices, reverse=True):
                pending.append(script + (choice,))
            continue
        runs.append(ev)
        if len(runs) > MAX_RUNS:
            raise RuntimeError(f"more than {MAX_RUNS} runs for {entry}")
    return runs


def canonical_key_with_names(ev: Evaluator, cls: str, method: str,
                             roots: list) -> tuple:
    """The configuration of a call of method with receiver and arguments
    roots, up to location renaming: the objects reachable from the roots,
    numbered in the order a walk from them meets them, each with its class,
    label and (field name, id) pairs."""
    ids: dict[int, int] = {}
    order: list[int] = []

    def visit(v):
        if v is None:
            return None
        i = ids.get(v)
        if i is None:
            i = ids[v] = len(order)
            order.append(v)
        return i

    root_ids = tuple([visit(v) for v in roots])
    rendering = []
    for loc in order:  # visit appends what each object reaches
        obj = ev.heap[loc]
        fields = tuple([(fn, visit(fv)) for fn, fv in obj.fields.items()])
        rendering.append((obj.cls, obj.label, fields))
    return (cls, method, root_ids, tuple(rendering))
