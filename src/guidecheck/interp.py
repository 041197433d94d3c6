"""Trace-emitting reference interpreter.

A run is a machine state, and all of it is data: the heap (locations to
objects), the trace emitted so far, the stub-choice script and the position
in it, the calls still open, and a list of continuation frames, each saying
what to do with the value the machine hands it (in the style of the CEK
machine of Felleisen and Friedman, 1986).  ``Evaluator.run`` steps that
state in a loop: no object-language call, block or handler nests a Python
frame, so a run's depth is bounded by its fuel alone.  A run of emits,
one ``Emit`` node, extends the trace by its whole word in one step.  A
value is a heap location or None for null.  An object is never changed once
it is on the heap: a field write puts a new object at its location, so runs
that share objects cannot see each other's writes.

Four outcomes: normal termination, an uncaught exception, fuel exhaustion
(each non-stub method call takes one unit of fuel, so every run is finite),
and a failed cast.  A thrown null is an exception like any other: NullType
lies below every class, so every handler catches it, as inference assumes.
Stuck configurations — an unbound variable, a field access or a call
through null — raise ``EvalStuck``, and the run ends there with no outcome
(``Evaluator.stuck``).  The static checks reject unbound variables only: a
well-typed program may read a field of or call a variable that holds null,
so a run of it may get stuck.

A call dispatches on the receiver's dynamic class through the dispatch table
the Program decided when it was built, and a new object holds its class's
fields in the order of the Program's field table.

Calls that resolve to an external-call stub consume no fuel and are driven by
a script: each stub call takes the next scripted choice (which emitted word,
and null versus a fresh object).  The search explores all scripts depth-first
in lexicographic choice order, which makes the set of runs for a given fuel
bound reproducible.  It executes each script prefix once: a run that reaches
a stub past the end of its script forks there.  Each larger choice gets a
copy of the state, with the choice appended to its script, to run later;
the run itself takes the least choice and goes on.  A replay
(``replay_entry``) does not fork; it stops at that point instead.

A run that needs fuel it does not have suspends at the call, with its state
kept, and given more fuel it resumes there.  ``Search`` deepens the fuel one
unit at a time on that: each level gives every run the last level suspended
one more unit.  A run that ended at a lower level ends the same way at every
higher one, so the search executes each (script prefix, call) state once:
iterative deepening (Korf, 1985) that keeps its frontier rather than
recomputing it.

While running, the evaluator records repeats: a call whose canonical
configuration (dynamic receiver class, method, and the reachable heap up to
location renaming) equals that of calls still open.  Replaying the choices
made between an open call's entry and the repeat yields an infinite run, so
each open call of a repeat denotes a real diverging execution with trace
stem·cycle^ω; the analysis uses them to exhibit divergence counterexamples.
A repeat is one record and copies nothing: the (trace length, script
position) pair at the repeat and the tuple of those pairs at the open calls
of its key, outermost first.
"""

from __future__ import annotations

from typing import Sequence

from .fjast import (
    Call,
    Cast,
    Emit,
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
from .intrinsics import IntrinsicChoice

DEFAULT_FUEL = 32
MAX_RUNS = 100000  # most runs one fuel level may hold, ended ones included

Value = int | None  # heap location or null


class Obj:
    """A heap object.  Never changed once on a heap: a field write puts a
    new object at the location."""

    def __init__(self, cls: str, label: str, fields: dict):
        self.cls = cls
        self.label = label
        self.fields = fields  # field name -> Value


# -- outcomes ----------------------------------------------------------------
# A run's trace and script are its own (``Evaluator.trace``, ``.script``):
# an outcome copies neither.


class Terminated:
    def __init__(self, value: Value, heap: dict):
        self.value = value
        self.heap = heap


class Thrown:
    def __init__(self, location: Value, heap: dict):
        self.location = location
        self.heap = heap


class OutOfFuel:
    pass


class ScriptEnd:
    """A run without forks stopped at a stub call past its script's end;
    choices are the stub's."""

    def __init__(self, choices: list):
        self.choices = choices


class CastStuck:
    def __init__(self, pos=None):
        self.pos = pos


class EvalStuck(Exception):
    """A configuration with no rule: an unbound variable, or a field read,
    field write or call through null.  The static checks rule out the
    first only; the run ends there, with no outcome."""

    def __init__(self, kind: str, detail: str, pos=None):
        self.kind = kind
        self.pos = pos
        super().__init__(f"{kind}: {detail}")


# Continuation frames are tuples whose first item names the frame.
_LET = 0     # (_LET, let, env, owned): bind the value, then run let.body
_RETURN = 1  # (_RETURN, key): the end of a call; closes its open call
_CAST = 2    # (_CAST, cast): check the value against cast.cls
_THROW = 3   # (_THROW,): throw the value
_TRY = 4     # (_TRY, try, env): run try.handler on an exception it catches

# What the step loop does next: evaluate an expression, hand a value to the
# top frame, or unwind the frames with a thrown location.
_EVAL, _VALUE, _RAISE = range(3)


def _lookup(env: dict, name: str, pos) -> Value:
    try:
        return env[name]
    except KeyError:
        raise EvalStuck("unbound-variable", name, pos) from None


def _receiver(env: dict, recv: str, member: str, pos) -> int:
    loc = _lookup(env, recv, pos)
    if loc is None:
        raise EvalStuck("field-access-on-null", f"{recv}.{member}", pos)
    return loc


class Evaluator:
    """One run.  ``start`` sets it at the entry's call and ``run`` steps it
    until it ends or suspends.  ``fuel`` is the number of non-stub calls
    the run may make and ``calls`` the number it has made; raising
    ``fuel`` and running again resumes a run suspended for want of it.
    The search sets ``outcome`` to what ``run`` last returned, or sets
    ``stuck`` to the ``EvalStuck`` it raised.  ``trace`` and ``script``
    only grow, so offsets into them stay valid as the run goes on.
    ``cycles`` holds the repeats the run recorded itself, one record per
    call that repeats open calls (see the module's docstring): a fork
    starts with none, those recorded before it forked stay with the run it
    forked from.  ``prefixes`` is the caller's, one entry per prefix of
    the trace that it has judged (the search keeps each prefix's profile
    there), so that a run resumed at the next level keeps them; a fork
    starts with a copy, since its trace starts with the same letters.  A
    call is resolved in the Program's dispatch table, one lookup, and an
    object's fields are its class's, in the Program's field order."""

    __slots__ = ("prog", "specs", "fuel", "calls", "script", "script_pos",
                 "trace", "prefixes", "heap", "frames", "cycles", "outcome",
                 "stuck", "_opens", "_at", "_next_loc", "_next_ext")

    def __init__(
        self,
        prog: Program,
        intrinsics: dict | None = None,
        fuel: int = DEFAULT_FUEL,
        script: Sequence[IntrinsicChoice] = (),
    ):
        self.prog = prog
        self.specs = intrinsics or {}
        self.fuel = fuel
        self.calls = 0
        self.script: list[IntrinsicChoice] = list(script)
        self.script_pos = 0
        self.trace: list[str] = []
        self.prefixes: list = []
        self.heap: dict[int, Obj] = {}
        self.frames: list[tuple] = []
        # ((trace length, script position) at a repeat, the tuple of those
        # at the open calls it repeats)
        self.cycles: list[tuple] = []
        self.outcome = None
        self.stuck: EvalStuck | None = None
        # canonical key -> (trace length, script position) at each open
        # call with that key, outermost first
        self._opens: dict[tuple, list] = {}
        self._at: tuple | None = None  # (receiver, method, arguments)
        self._next_loc = 0
        self._next_ext = 0

    # -- public driving ------------------------------------------------------

    def start(self, cls: str, method: str) -> None:
        """Set the run at a fresh cls receiver's call of its parameterless
        method.  The entry goes through the call rule itself, so fuel and
        cycle detection treat it like any other call."""
        md, _ = method_lookup(self.prog, cls, method)
        if md.params:
            raise ValueError(f"entry {cls}.{method} must take no parameters")
        self._at = (self._alloc(cls, "$entry"), method, [])

    def run(self, forks: list | None = None):
        """Step the run from where it stands until it ends or suspends, and
        return its outcome.  It suspends at a call that needs fuel it does
        not have (the outcome is ``OutOfFuel``) and, without a ``forks``
        list, at a stub call past the end of its script (``ScriptEnd``); it
        then stands at that call.  With ``forks``, a stub call past the end
        of the script pushes there a copy of the run for each larger choice,
        largest first, and the run goes on with the least."""
        heap, frames, trace = self.heap, self.frames, self.trace
        prog, specs, opens = self.prog, self.specs, self._opens
        dispatch = prog.dispatch
        recv, method, args = self._at
        self._at = None
        while True:
            # -- the call of method on recv with args ---------------------------
            cls = heap[recv].cls
            md, declaring = (dispatch[cls].get(method)
                             or method_lookup(prog, cls, method))  # a miss raises
            spec = specs.get((declaring, method)) if specs else None
            if spec is not None:
                if self.script_pos == len(self.script):
                    choices = spec.choices(md.result)
                    if forks is None:
                        self._at = (recv, method, args)
                        return ScriptEnd(choices)
                    if len(choices) > 1:
                        self._fork((recv, method, args), choices, forks)
                    self.script.append(choices[0])
                value = self._stub_result(spec, md)
                mode = _VALUE
            elif self.calls >= self.fuel:
                self._at = (recv, method, args)
                return OutOfFuel()
            else:
                self.calls += 1
                key = self._canonical_key(cls, method, [recv, *args])
                here = (len(trace), self.script_pos)
                same = opens.get(key)
                if same is None:
                    opens[key] = [here]
                else:
                    if same:
                        self.cycles.append((here, tuple(same)))
                    same.append(here)
                frames.append((_RETURN, key))
                env = {"this": recv}
                for p, v in zip(md.params, args):
                    env[p.name] = v
                e = md.body
                owned = True
                mode = _EVAL
            # -- steps up to the next call ---------------------------------------
            while True:
                if mode == _EVAL:
                    kind = type(e)
                    if kind is Let:
                        frames.append((_LET, e, env, owned))
                        e, owned = e.init, False
                        continue
                    if kind is If:
                        left = _lookup(env, e.left, e.pos)
                        e = e.then if left == _lookup(env, e.right, e.pos) else e.els
                        continue
                    if kind is Call:
                        recv = _lookup(env, e.recv, e.pos)
                        if recv is None:
                            raise EvalStuck("call-on-null",
                                            f"{e.recv}.{e.method}", e.pos)
                        args = [_lookup(env, a, e.pos) for a in e.args]
                        method = e.method
                        break
                    if kind is Emit:
                        trace.extend(e.events)
                        value = None
                    elif kind is Var:
                        value = _lookup(env, e.name, e.pos)
                    elif kind is Null:
                        value = None
                    elif kind is New:
                        value = self._alloc(e.cls, e.label)
                    elif kind is GetField:
                        loc = _receiver(env, e.recv, e.fname, e.pos)
                        value = heap[loc].fields[e.fname]
                    elif kind is SetField:
                        loc = _receiver(env, e.recv, e.fname, e.pos)
                        value = _lookup(env, e.value, e.pos)
                        obj = heap[loc]
                        fields = dict(obj.fields)
                        fields[e.fname] = value
                        heap[loc] = Obj(obj.cls, obj.label, fields)
                    elif kind is Cast:
                        frames.append((_CAST, e))
                        e, owned = e.expr, False
                        continue
                    elif kind is Throw:
                        frames.append((_THROW,))
                        e, owned = e.expr, False
                        continue
                    elif kind is TryCatch:
                        frames.append((_TRY, e, env))
                        e, owned = e.body, False
                        continue
                    else:
                        raise AssertionError(f"unhandled expression {e!r}")
                    mode = _VALUE
                elif mode == _VALUE:
                    if not frames:
                        return Terminated(value, heap)
                    frame = frames.pop()
                    tag = frame[0]
                    if tag == _LET:
                        _, let, env, owned = frame
                        if not owned:
                            env, owned = dict(env), True
                        env[let.var] = value
                        e = let.body
                        mode = _EVAL
                    elif tag == _RETURN:
                        opens[frame[1]].pop()
                    elif tag == _CAST:
                        cast = frame[1]
                        if value is not None and not preceq(
                                prog, heap[value].cls, cast.cls):
                            return CastStuck(cast.pos)
                    elif tag == _THROW:
                        mode = _RAISE
                    # a _TRY frame's body ended normally: nothing to do
                else:  # _RAISE: value is the thrown value
                    if not frames:
                        return Thrown(value, heap)
                    frame = frames.pop()
                    tag = frame[0]
                    if tag == _RETURN:
                        opens[frame[1]].pop()
                    elif tag == _TRY:
                        _, catch, env = frame
                        if value is None or preceq(prog, heap[value].cls,
                                                   catch.exc_cls):
                            env = dict(env)
                            env[catch.var] = value
                            e, owned = catch.handler, True
                            mode = _EVAL

    # -- helpers ------------------------------------------------------------------

    def _alloc(self, cls: str, label: str) -> int:
        loc = self._next_loc
        self._next_loc += 1
        self.heap[loc] = Obj(cls, label, dict.fromkeys(self.prog.fields[cls]))
        return loc

    def _stub_result(self, spec, md) -> Value:
        """Take the script's next choice for a call of spec: emit its word
        and return null or a fresh object of the declared result class."""
        choice = self.script[self.script_pos]
        if choice not in spec.choices(md.result):
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

    def _fork(self, at: tuple, choices: list, forks: list) -> None:
        """Push onto forks a copy of this run, standing at the stub call
        at, for each choice but the least, largest first.  The copies
        share the objects, which are never changed, and the frames' tuples;
        an environment a frame holds is disowned, so that whichever run
        binds into it first copies it."""
        self.frames[:] = [(_LET, f[1], f[2], False)
                          if f[0] == _LET and f[3] else f
                          for f in self.frames]
        for choice in reversed(choices[1:]):
            twin = Evaluator.__new__(Evaluator)
            twin.prog, twin.specs = self.prog, self.specs
            twin.fuel, twin.calls = self.fuel, self.calls
            twin.script = [*self.script, choice]
            twin.script_pos = self.script_pos
            twin.trace = self.trace.copy()
            twin.prefixes = self.prefixes.copy()
            twin.heap = self.heap.copy()
            twin.frames = self.frames.copy()
            twin.cycles = []
            twin.outcome = twin.stuck = None
            twin._opens = {key: same.copy()
                           for key, same in self._opens.items() if same}
            twin._at = at
            twin._next_loc, twin._next_ext = self._next_loc, self._next_ext
            forks.append(twin)

    def _canonical_key(self, cls: str, method: str, roots: list) -> tuple:
        """Configuration up to location renaming; unreachable heap ignored.
        Objects are numbered in the order a walk from the roots meets them;
        one renders its class, label and field values, as every object of a
        class holds the same field names in one order (``_alloc``)."""
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
            fields = tuple([visit(fv) for fv in obj.fields.values()])
            rendering.append((obj.cls, obj.label, fields))
        return (cls, method, root_ids, tuple(rendering))


# -- public API ----------------------------------------------------------------


def _split_entry(entry: str) -> tuple[str, str]:
    cls, _, method = entry.partition(".")
    if not method:
        raise ValueError(f"entry must be 'Class.method', got {entry!r}")
    return cls, method


def _explore(roots: list, ended: int, entry: str) -> tuple[list, list]:
    """Run each root, and the runs forked from it, depth first, until each
    ends, suspends or gets stuck.  Returns the runs in lexicographic script
    order and the suspended ones.  ``ended`` runs of the same level are
    held elsewhere; with them, a level may hold at most MAX_RUNS runs."""
    runs: list[Evaluator] = []
    suspended: list[Evaluator] = []
    for root in roots:
        stack = [root]
        while stack:
            ev = stack.pop()
            runs.append(ev)
            try:
                ev.outcome = ev.run(stack)
            except EvalStuck as exc:
                ev.outcome, ev.stuck = None, exc
                continue
            if isinstance(ev.outcome, OutOfFuel):
                suspended.append(ev)
            if ended + len(runs) > MAX_RUNS:
                raise RuntimeError(f"more than {MAX_RUNS} runs for {entry}")
    return runs, suspended


class Search:
    """The runs of entry level by level, the fuel deepening one unit a
    level, each level resuming the runs the last one suspended."""

    def __init__(self, prog: Program, entry: str,
                 intrinsics: dict | None = None):
        root = Evaluator(prog, intrinsics, 0)
        root.start(*_split_entry(entry))
        self.entry = entry
        self.frontier: list[Evaluator] = [root]  # the suspended runs
        self.ended = 0  # runs that ended at a lower level

    def deepen(self) -> list[Evaluator]:
        """The next level's new runs, in lexicographic script order: each
        suspended run gets one more unit of fuel and resumes, forking at
        stub calls, until it ends or suspends again.  Each run holds the
        repeats recorded at this level only, until the next level starts.
        The runs that ended at a lower level end the same way at this one
        and are not repeated."""
        for ev in self.frontier:
            ev.fuel += 1
            ev.cycles = []
        runs, self.frontier = _explore(self.frontier, self.ended, self.entry)
        self.ended += len(runs) - len(self.frontier)
        return runs


def replay_entry(
    prog: Program,
    entry: str,
    script: Sequence[IntrinsicChoice],
    fuel: int,
    intrinsics: dict | None = None,
) -> Evaluator:
    """Re-run one script without forking, to check a divergence candidate."""
    ev = Evaluator(prog, intrinsics, fuel, script)
    ev.start(*_split_entry(entry))
    ev.outcome = ev.run()
    return ev
