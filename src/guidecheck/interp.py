"""Trace-emitting reference interpreter.

Big-step evaluation over an explicit store (variables to values) and heap
(locations to objects).  A value is a heap location or None for null.  Every
``emit`` appends one event to the run's trace; outcomes return the trace
produced so far.

Four outcomes: normal termination, an uncaught exception, fuel exhaustion
(fuel is decremented once per non-stub method call, so every run is finite),
and a failed cast.  Genuinely stuck configurations — unbound variables, field
access or calls on null, throwing null — raise ``EvalStuck``; the static
checks reject such programs, so reaching one is a bug in the caller's setup.

Calls that resolve to an external-call stub consume no fuel and are driven by
a script: each stub call takes the next scripted choice (which emitted word,
and null versus a fresh object).  ``enumerate_traces`` explores all scripts
depth-first in lexicographic choice order, which makes the set of runs for a
given fuel bound reproducible.

While running, the evaluator records repeat-configuration candidates: a call
whose canonical configuration (dynamic receiver class, method, and the
reachable heap up to location renaming) equals that of an ancestor call still
on the stack.  Replaying the choices made between the two entries yields an
infinite run, so each candidate denotes a real diverging execution with trace
stem·cycle^ω; the analysis uses them to exhibit divergence counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .fjast import (
    Call,
    Cast,
    Emit,
    Expr,
    GetField,
    If,
    Let,
    New,
    Null,
    Program,
    SetField,
    Throw,
    TryCatch,
    Var,
)
from .fjtypes import method_lookup, preceq
from .intrinsics import IntrinsicChoice, IntrinsicSpec, stub_lookup

DEFAULT_FUEL = 32
MAX_RUNS = 100000  # most complete runs enumerate_traces collects for one entry

Value = int | None  # heap location or null


@dataclass
class Obj:
    cls: str
    label: str
    fields: dict  # field name -> Value


# -- outcomes ----------------------------------------------------------------


@dataclass
class Terminated:
    value: Value
    heap: dict
    trace: tuple


@dataclass
class Thrown:
    location: int
    heap: dict
    trace: tuple


@dataclass
class OutOfFuel:
    trace: tuple


@dataclass
class CastStuck:
    trace: tuple
    pos: object = None


class EvalStuck(Exception):
    """A configuration with no rule: rejected statically, fatal dynamically."""

    def __init__(self, kind: str, detail: str, pos=None):
        self.kind = kind
        self.pos = pos
        super().__init__(f"{kind}: {detail}")


class _Thrown(Exception):
    def __init__(self, location: int):
        self.location = location


class _OutOfFuelExc(Exception):
    pass


class _CastStuckExc(Exception):
    def __init__(self, pos):
        self.pos = pos


class _ScriptExhausted(Exception):
    def __init__(self, choices: list):
        self.choices = choices


@dataclass
class CycleCandidate:
    """Evidence of divergence: re-entering an open call in an identical
    canonical configuration.  Replaying cycle_script forever from the stem
    produces the trace stem_trace·cycle_trace^ω."""

    stem_trace: tuple
    cycle_trace: tuple
    stem_script: tuple
    cycle_script: tuple


@dataclass
class _Frame:
    key: tuple
    trace_len: int
    script_pos: int


class Evaluator:
    def __init__(
        self,
        prog: Program,
        intrinsics: dict | None = None,
        fuel: int = DEFAULT_FUEL,
        script: Sequence[IntrinsicChoice] = (),
    ):
        self.prog = prog
        self.specs = intrinsics or {}
        self.fuel_left = fuel
        self.script = tuple(script)
        self.script_pos = 0
        self.trace: list[str] = []
        self.heap: dict[int, Obj] = {}
        self._next_loc = 0
        self._next_ext = 0
        self.exhausted: list | None = None
        self.cycles: list[CycleCandidate] = []
        self._stack: list[_Frame] = []

    # -- public driving ------------------------------------------------------

    def run_entry(self, cls: str, method: str):
        """Run a fresh cls receiver's parameterless method to an outcome.
        The entry goes through the call rule itself, so fuel and cycle
        detection treat it like any other call."""
        md, _ = method_lookup(self.prog, cls, method)
        if md.params:
            raise ValueError(f"entry {cls}.{method} must take no parameters")
        loc = self._alloc(cls, "$entry")
        try:
            value = self._call(loc, method, [], pos=md.pos)
            return Terminated(value, self.heap, tuple(self.trace))
        except _Thrown as t:
            return Thrown(t.location, self.heap, tuple(self.trace))
        except _OutOfFuelExc:
            return OutOfFuel(tuple(self.trace))
        except _CastStuckExc as c:
            return CastStuck(tuple(self.trace), c.pos)
        except _ScriptExhausted as s:
            self.exhausted = s.choices
            return OutOfFuel(tuple(self.trace))

    # -- heap helpers -----------------------------------------------------------

    def _alloc(self, cls: str, label: str) -> int:
        loc = self._next_loc
        self._next_loc += 1
        self.heap[loc] = Obj(
            cls, label, {fd.name: None for fd in self.prog.fields_of(cls)}
        )
        return loc

    # -- evaluation ----------------------------------------------------------------

    def _lookup(self, env: dict, name: str, pos) -> Value:
        if name not in env:
            raise EvalStuck("unbound-variable", name, pos)
        return env[name]

    def _eval(self, env: dict, e: Expr) -> Value:
        if isinstance(e, Var):
            return self._lookup(env, e.name, e.pos)
        if isinstance(e, Null):
            return None
        if isinstance(e, New):
            return self._alloc(e.cls, e.label)
        if isinstance(e, Cast):
            v = self._eval(env, e.expr)
            if v is None:
                return None
            if preceq(self.prog, self.heap[v].cls, e.cls):
                return v
            raise _CastStuckExc(e.pos)
        if isinstance(e, Emit):
            self.trace.append(e.event)
            return None
        if isinstance(e, Let):
            v = self._eval(env, e.init)
            env2 = dict(env)
            env2[e.var] = v
            return self._eval(env2, e.body)
        if isinstance(e, If):
            vl = self._lookup(env, e.left, e.pos)
            vr = self._lookup(env, e.right, e.pos)
            return self._eval(env, e.then if vl == vr else e.els)
        if isinstance(e, Call):
            recv = self._lookup(env, e.recv, e.pos)
            if recv is None:
                raise EvalStuck("call-on-null", f"{e.recv}.{e.method}", e.pos)
            args = [self._lookup(env, a, e.pos) for a in e.args]
            return self._call(recv, e.method, args, e.pos)
        if isinstance(e, GetField):
            recv = self._lookup(env, e.recv, e.pos)
            if recv is None:
                raise EvalStuck("field-access-on-null", f"{e.recv}.{e.fname}", e.pos)
            return self.heap[recv].fields[e.fname]
        if isinstance(e, SetField):
            recv = self._lookup(env, e.recv, e.pos)
            if recv is None:
                raise EvalStuck("field-access-on-null", f"{e.recv}.{e.fname}", e.pos)
            v = self._lookup(env, e.value, e.pos)
            self.heap[recv].fields[e.fname] = v
            return v
        if isinstance(e, Throw):
            v = self._eval(env, e.expr)
            if v is None:
                raise EvalStuck("throw-null", "thrown expression is null", e.pos)
            raise _Thrown(v)
        if isinstance(e, TryCatch):
            try:
                return self._eval(env, e.body)
            except _Thrown as t:
                if preceq(self.prog, self.heap[t.location].cls, e.exc_cls):
                    env2 = dict(env)
                    env2[e.var] = t.location
                    return self._eval(env2, e.handler)
                raise
        raise AssertionError(f"unhandled expression {e!r}")

    def _call(self, recv: int, method: str, args: list, pos) -> Value:
        obj = self.heap[recv]
        md, declaring = method_lookup(self.prog, obj.cls, method)
        spec = stub_lookup(self.specs, self.prog, obj.cls, method)
        if spec is not None:
            return self._stub_call(spec, md)
        if self.fuel_left <= 0:
            raise _OutOfFuelExc()
        self.fuel_left -= 1
        key = self._canonical_key(obj.cls, method, [recv] + args)
        for fr in self._stack:
            if fr.key == key:
                self.cycles.append(CycleCandidate(
                    stem_trace=tuple(self.trace[: fr.trace_len]),
                    cycle_trace=tuple(self.trace[fr.trace_len:]),
                    stem_script=self.script[: fr.script_pos],
                    cycle_script=self.script[fr.script_pos: self.script_pos],
                ))
        frame = _Frame(key, len(self.trace), self.script_pos)
        self._stack.append(frame)
        try:
            env = {"this": recv}
            for p, v in zip(md.params, args):
                env[p.name] = v
            return self._eval(env, md.body)
        finally:
            self._stack.pop()

    def _stub_call(self, spec: IntrinsicSpec, md) -> Value:
        if self.script_pos >= len(self.script):
            raise _ScriptExhausted(spec.choices())
        choice = self.script[self.script_pos]
        if choice not in spec.choices():
            raise ValueError(
                f"script choice {choice} not available for "
                f"{spec.cls}.{spec.method}"
            )
        self.script_pos += 1
        self.trace.extend(choice.word)
        if choice.rank == 0:
            return None
        label = f"$ext{self._next_ext}"
        self._next_ext += 1
        return self._alloc(md.result, label)

    def _canonical_key(self, cls: str, method: str, roots: list) -> tuple:
        """Configuration up to location renaming; unreachable heap ignored."""
        ids: dict[int, int] = {}
        order: list[int] = []

        def visit(v: Value):
            if v is None:
                return None
            if v not in ids:
                ids[v] = len(ids)
                order.append(v)
            return ids[v]

        root_ids = tuple(visit(v) for v in roots)
        rendering = []
        i = 0
        while i < len(order):
            obj = self.heap[order[i]]
            i += 1
            fields = tuple(
                (fn, visit(fv)) for fn, fv in sorted(obj.fields.items())
            )
            rendering.append((obj.cls, obj.label, fields))
        return (cls, method, root_ids, tuple(rendering))


# -- public API ----------------------------------------------------------------


@dataclass
class TraceRun:
    script: tuple
    outcome: object
    cycles: list = field(default_factory=list)
    stuck: EvalStuck | None = None


def enumerate_traces(
    prog: Program,
    entry: str,
    fuel: int = DEFAULT_FUEL,
    intrinsics: dict | None = None,
) -> list[TraceRun]:
    """Every complete run of entry ('Class.method', no parameters) under the
    fuel bound, one per stub-choice script, in lexicographic script order."""
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
            runs.append(TraceRun(script, None, ev.cycles, stuck=stuck))
            continue
        if ev.exhausted is not None:
            for choice in sorted(ev.exhausted, reverse=True):
                pending.append(script + (choice,))
            continue
        runs.append(TraceRun(script, outcome, ev.cycles))
        if len(runs) > MAX_RUNS:
            raise RuntimeError(f"more than {MAX_RUNS} runs for {entry}")
    return runs


def replay_entry(
    prog: Program,
    entry: str,
    script: Sequence[IntrinsicChoice],
    fuel: int,
    intrinsics: dict | None = None,
) -> Evaluator:
    """Re-run one script (used to validate divergence candidates)."""
    cls, _, method = entry.partition(".")
    ev = Evaluator(prog, intrinsics, fuel, script)
    ev.run_entry(cls, method)
    return ev
