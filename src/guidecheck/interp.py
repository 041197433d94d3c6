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
given fuel bound reproducible.  It executes each script prefix once: a run
that reaches a stub past the end of its script takes the least choice there
and goes on, and queues its siblings, each its script so far plus one larger
choice, to run later.  A replay (``replay_entry``) has no queue and stops
at that point instead.

Evaluation dispatches on the node's type through a rule table.  A ``Let``
body and the taken ``If`` branch are evaluated in place rather than by a
nested call, so a long statement chain does not deepen the Python stack.
Each enumeration resolves a (dynamic class, method) pair to its declaration
and stub spec once and shares the answer among its runs.

While running, the evaluator records repeat-configuration candidates: a call
whose canonical configuration (dynamic receiver class, method, and the
reachable heap up to location renaming) equals that of an ancestor call still
on the stack.  Replaying the choices made between the two entries yields an
infinite run, so each candidate denotes a real diverging execution with trace
stem·cycle^ω; the analysis uses them to exhibit divergence counterexamples.
A candidate copies nothing: it is four offsets into its run's trace and script.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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


class Obj:
    def __init__(self, cls: str, label: str, fields: dict):
        self.cls = cls
        self.label = label
        self.fields = fields  # field name -> Value


# -- outcomes ----------------------------------------------------------------


class Terminated:
    def __init__(self, value: Value, heap: dict, trace: tuple):
        self.value = value
        self.heap = heap
        self.trace = trace


class Thrown:
    def __init__(self, location: int, heap: dict, trace: tuple):
        self.location = location
        self.heap = heap
        self.trace = trace


class OutOfFuel:
    def __init__(self, trace: tuple):
        self.trace = trace


class CastStuck:
    def __init__(self, trace: tuple, pos=None):
        self.trace = trace
        self.pos = pos


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
    pass


class CycleCandidate(NamedTuple):
    """Evidence of divergence: re-entering an open call in an identical
    canonical configuration, as offsets into the run's trace and script.
    stem_end and stem_choices are the trace length and script position at
    the open call, cycle_end and cycle_choices at the repeat.  Replaying
    script[stem_choices:cycle_choices] forever after script[:stem_choices]
    produces the trace trace[:stem_end]·trace[stem_end:cycle_end]^ω."""

    stem_end: int
    cycle_end: int
    stem_choices: int
    cycle_choices: int


class Evaluator:
    """One run.  With a ``pending`` list, a stub call past the end of the
    script takes the least choice and pushes the sibling scripts onto
    pending, largest first; without one, it stops the run (the outcome is
    ``OutOfFuel``) and leaves the stub's choices in ``exhausted``.
    ``dispatch`` caches method resolution and may be shared by the runs of
    one program and stub table."""

    def __init__(
        self,
        prog: Program,
        intrinsics: dict | None = None,
        fuel: int = DEFAULT_FUEL,
        script: Sequence[IntrinsicChoice] = (),
        pending: list | None = None,
        dispatch: dict | None = None,
    ):
        self.prog = prog
        self.specs = intrinsics or {}
        self.fuel_left = fuel
        self.script: list[IntrinsicChoice] = list(script)
        self.script_pos = 0
        self.pending = pending
        self.trace: list[str] = []
        self.heap: dict[int, Obj] = {}
        self._next_loc = 0
        self._next_ext = 0
        self.exhausted: list | None = None
        self.cycles: list[CycleCandidate] = []
        # per open call: its canonical key, trace length and script position
        self._stack: list[tuple[tuple, int, int]] = []
        # (dynamic class, method) -> (declaration, stub spec or None)
        self._dispatch: dict = {} if dispatch is None else dispatch
        self._field_names: dict[str, list[str]] = {}  # class -> sorted names

    # -- public driving ------------------------------------------------------

    def run_entry(self, cls: str, method: str):
        """Run a fresh cls receiver's parameterless method to an outcome.
        The entry goes through the call rule itself, so fuel and cycle
        detection treat it like any other call."""
        md, _ = self._resolve(cls, method)
        if md.params:
            raise ValueError(f"entry {cls}.{method} must take no parameters")
        loc = self._alloc(cls, "$entry")
        try:
            value = self._call(loc, method, [], pos=md.pos)
            return Terminated(value, self.heap, tuple(self.trace))
        except _Thrown as t:
            return Thrown(t.location, self.heap, tuple(self.trace))
        except (_OutOfFuelExc, _ScriptExhausted):
            return OutOfFuel(tuple(self.trace))
        except _CastStuckExc as c:
            return CastStuck(tuple(self.trace), c.pos)

    # -- heap helpers -----------------------------------------------------------

    def _alloc(self, cls: str, label: str) -> int:
        loc = self._next_loc
        self._next_loc += 1
        names = self._field_names.get(cls)
        if names is None:
            names = self._field_names[cls] = sorted(
                fd.name for fd in self.prog.fields_of(cls))
        self.heap[loc] = Obj(cls, label, dict.fromkeys(names))
        return loc

    # -- evaluation ----------------------------------------------------------------

    def _lookup(self, env: dict, name: str, pos) -> Value:
        try:
            return env[name]
        except KeyError:
            raise EvalStuck("unbound-variable", name, pos) from None

    def _eval(self, env: dict, e: Expr, owned: bool = False) -> Value:
        """The value of e.  Let bodies and If branches are followed in a
        loop; the first Let copies env unless the caller passed an env of
        its own (owned), and the rest of the chain extends that copy, which
        nothing else sees."""
        while True:
            kind = type(e)
            if kind is Let:
                v = self._eval(env, e.init)
                if not owned:
                    env = dict(env)
                    owned = True
                env[e.var] = v
                e = e.body
            elif kind is If:
                vl = self._lookup(env, e.left, e.pos)
                vr = self._lookup(env, e.right, e.pos)
                e = e.then if vl == vr else e.els
            else:
                rule = _RULES.get(kind)
                if rule is None:
                    raise AssertionError(f"unhandled expression {e!r}")
                return rule(self, env, e)

    def _eval_var(self, env: dict, e: Var) -> Value:
        return self._lookup(env, e.name, e.pos)

    def _eval_null(self, env: dict, e: Null) -> Value:
        return None

    def _eval_new(self, env: dict, e: New) -> Value:
        return self._alloc(e.cls, e.label)

    def _eval_cast(self, env: dict, e: Cast) -> Value:
        v = self._eval(env, e.expr)
        if v is None:
            return None
        if preceq(self.prog, self.heap[v].cls, e.cls):
            return v
        raise _CastStuckExc(e.pos)

    def _eval_emit(self, env: dict, e: Emit) -> Value:
        self.trace.append(e.event)
        return None

    def _eval_call(self, env: dict, e: Call) -> Value:
        recv = self._lookup(env, e.recv, e.pos)
        if recv is None:
            raise EvalStuck("call-on-null", f"{e.recv}.{e.method}", e.pos)
        args = [self._lookup(env, a, e.pos) for a in e.args]
        return self._call(recv, e.method, args, e.pos)

    def _eval_get_field(self, env: dict, e: GetField) -> Value:
        recv = self._lookup(env, e.recv, e.pos)
        if recv is None:
            raise EvalStuck("field-access-on-null", f"{e.recv}.{e.fname}", e.pos)
        return self.heap[recv].fields[e.fname]

    def _eval_set_field(self, env: dict, e: SetField) -> Value:
        recv = self._lookup(env, e.recv, e.pos)
        if recv is None:
            raise EvalStuck("field-access-on-null", f"{e.recv}.{e.fname}", e.pos)
        v = self._lookup(env, e.value, e.pos)
        self.heap[recv].fields[e.fname] = v
        return v

    def _eval_throw(self, env: dict, e: Throw) -> Value:
        v = self._eval(env, e.expr)
        if v is None:
            raise EvalStuck("throw-null", "thrown expression is null", e.pos)
        raise _Thrown(v)

    def _eval_try(self, env: dict, e: TryCatch) -> Value:
        try:
            return self._eval(env, e.body)
        except _Thrown as t:
            if preceq(self.prog, self.heap[t.location].cls, e.exc_cls):
                env2 = dict(env)
                env2[e.var] = t.location
                return self._eval(env2, e.handler, owned=True)
            raise

    def _resolve(self, cls: str, method: str) -> tuple:
        """The declaration that a call of method on a cls receiver runs,
        and the stub spec governing it (None for an ordinary method)."""
        target = self._dispatch.get((cls, method))
        if target is None:
            md, _ = method_lookup(self.prog, cls, method)
            target = self._dispatch[cls, method] = (
                md, stub_lookup(self.specs, self.prog, cls, method))
        return target

    def _call(self, recv: int, method: str, args: list, pos) -> Value:
        obj = self.heap[recv]
        md, spec = self._resolve(obj.cls, method)
        if spec is not None:
            return self._stub_call(spec, md)
        if self.fuel_left <= 0:
            raise _OutOfFuelExc()
        self.fuel_left -= 1
        key = self._canonical_key(obj.cls, method, [recv, *args])
        trace_len, script_pos = len(self.trace), self.script_pos
        for open_key, stem_end, stem_choices in self._stack:
            if open_key == key:
                self.cycles.append(CycleCandidate(
                    stem_end, trace_len, stem_choices, script_pos))
        self._stack.append((key, trace_len, script_pos))
        try:
            env = {"this": recv}
            for p, v in zip(md.params, args):
                env[p.name] = v
            return self._eval(env, md.body, owned=True)
        finally:
            self._stack.pop()

    def _stub_call(self, spec: IntrinsicSpec, md) -> Value:
        choices = spec.choices()
        if self.script_pos == len(self.script):
            if self.pending is None:
                self.exhausted = choices
                raise _ScriptExhausted()
            so_far = tuple(self.script)
            self.pending.extend(so_far + (c,) for c in reversed(choices[1:]))
            self.script.append(choices[0])
        choice = self.script[self.script_pos]
        if choice not in choices:
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
        """Configuration up to location renaming; unreachable heap ignored.
        Objects are numbered in the order a walk from the roots meets them,
        each field dict holds its names in sorted order (see _alloc)."""
        ids: dict[int, int] = {}
        order: list[int] = []

        def visit(v: Value):
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
            obj = self.heap[loc]
            fields = tuple([(fn, visit(fv)) for fn, fv in obj.fields.items()])
            rendering.append((obj.cls, obj.label, fields))
        return (cls, method, root_ids, tuple(rendering))


_RULES = {
    Var: Evaluator._eval_var,
    Null: Evaluator._eval_null,
    New: Evaluator._eval_new,
    Cast: Evaluator._eval_cast,
    Emit: Evaluator._eval_emit,
    Call: Evaluator._eval_call,
    GetField: Evaluator._eval_get_field,
    SetField: Evaluator._eval_set_field,
    Throw: Evaluator._eval_throw,
    TryCatch: Evaluator._eval_try,
}  # Let and If are followed in place by Evaluator._eval


# -- public API ----------------------------------------------------------------


class TraceRun:
    """One run.  ``trace`` is its outcome's trace, or the trace so far when
    it is stuck; its cycle candidates index into it and into ``script``."""

    def __init__(self, script: tuple, trace: tuple, outcome, cycles: list,
                 stuck: EvalStuck | None = None):
        self.script = script
        self.trace = trace
        self.outcome = outcome
        self.cycles = cycles
        self.stuck = stuck


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
    dispatch: dict = {}
    while pending:
        ev = Evaluator(prog, intrinsics, fuel, pending.pop(), pending, dispatch)
        try:
            outcome = ev.run_entry(cls, method)
        except EvalStuck as stuck:
            runs.append(TraceRun(tuple(ev.script), tuple(ev.trace), None,
                                 ev.cycles, stuck=stuck))
            continue
        runs.append(TraceRun(tuple(ev.script), outcome.trace, outcome,
                             ev.cycles))
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
