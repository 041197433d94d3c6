"""Reference interpreter: outcomes, dispatch, exceptions, fuel, stubs.

Everything here runs through interp.Search or enumerate_traces, the
one-level enumerator of tests/interp_reference.py, which steps the same
forking runs; so fuel accounting, forking and cycle detection see the same
code paths the analyses rely on.
"""

import pytest

import corpus
import taint_corpus
from conftest import FIXTURES, read_fixture
from interp_reference import (
    canonical_key_with_names,
    enumerate_by_restarts,
    enumerate_traces,
)
from region_satisfaction import (
    first_heap_violation,
    heap_satisfies,
    store_satisfies,
    value_satisfies,
)
from guidecheck import interp
from guidecheck.cli import find_counterexample
from guidecheck.fjast import ClassDecl, Emit, Let, MethodDecl, Null, Program
from guidecheck.fjparser import parse_program
from guidecheck.guideline import load_guideline
from guidecheck.interp import (
    CastStuck,
    Obj,
    OutOfFuel,
    Terminated,
    Thrown,
    replay_entry,
)
from guidecheck.intrinsics import parse_config
from guidecheck.profiles import ProfileMonoid
from guidecheck.regions import NULL_REGION, UNKNOWN, created_at, region_meta


def single_run(src, entry, fuel=32, intrinsics=None):
    runs = enumerate_traces(parse_program(src), entry, fuel=fuel, intrinsics=intrinsics)
    assert len(runs) == 1, runs
    return runs[0]


def test_alloc_and_field_roundtrip():
    run = single_run(
        """
class Cell { Cell next; Cell go() {
    Cell a = new[one] Cell();
    Cell b = new[two] Cell();
    a.next = b;
    emit wrote;
    return a.next;
} }
""",
        "Cell.go",
    )
    out = run.outcome
    assert isinstance(out, Terminated)
    assert run.trace == ["wrote"]
    assert out.heap[out.value].label == "two"
    # the entry receiver plus the two allocations
    assert sorted(o.label for o in out.heap.values()) == ["$entry", "one", "two"]


def test_dynamic_dispatch_picks_runtime_class():
    run = single_run(
        """
class A { Object cry() { emit base; return null; } }
class B extends A { Object cry() { emit sub; return null; } }
class M { Object go() { A x = new B(); return x.cry(); } }
""",
        "M.go",
    )
    assert run.trace == ["sub"]


def test_inherited_method_runs_on_subclass_instance():
    run = single_run(
        """
class A { Object cry() { emit base; return null; } }
class B extends A { }
class M { Object go() { B x = new B(); return x.cry(); } }
""",
        "M.go",
    )
    assert run.trace == ["base"]


def test_upcast_noop_downcast_stuck_nullcast_fine():
    up = single_run(
        "class A { } class B extends A { }"
        "class M { Object go() { B b = new B(); A a = (A) b; return a; } }",
        "M.go",
    )
    assert isinstance(up.outcome, Terminated) and up.outcome.heap[up.outcome.value].cls == "B"

    down = single_run(
        "class A { } class B extends A { }"
        "class M { Object go() { A a = new A(); B b = (B) a; return b; } }",
        "M.go",
    )
    assert isinstance(down.outcome, CastStuck)

    nul = single_run(
        "class A { } class B extends A { }"
        "class M { Object go() { A a = null; B b = (B) a; return b; } }",
        "M.go",
    )
    assert isinstance(nul.outcome, Terminated) and nul.outcome.value is None


def test_throw_and_catch_by_superclass():
    run = single_run(
        """
class E { } class F extends E { }
class M { Object go() {
    try { F f = new[fs] F(); throw f; } catch (E e) { emit caught; }
    return null;
} }
""",
        "M.go",
    )
    assert isinstance(run.outcome, Terminated)
    assert run.trace == ["caught"]


def test_uncaught_throw_propagates_with_location():
    run = single_run(
        """
class E { } class F extends E { }
class M { Object go() {
    emit before;
    try { E e = new[es] E(); throw e; } catch (F f) { emit nope; }
    return null;
} }
""",
        "M.go",
    )
    out = run.outcome
    assert isinstance(out, Thrown)
    assert run.trace == ["before"]
    assert out.heap[out.location].cls == "E" and out.heap[out.location].label == "es"


def test_catch_can_rethrow_the_bound_exception():
    run = single_run(
        """
class E { }
class M { Object go() {
    try { E e = new[es] E(); throw e; } catch (E f) { emit seen; throw f; }
    return null;
} }
""",
        "M.go",
    )
    assert isinstance(run.outcome, Thrown)
    assert run.trace == ["seen"]


def test_a_handler_catches_a_thrown_null_and_binds_it():
    # NullType lies below every class, so the handler for E catches null
    run = single_run(
        """
class E { }
class M { Object go() {
    E x = null;
    try { emit before; throw x; } catch (E e) {
        E z = null;
        if (e == z) { emit isnull; } else { emit object; }
    }
    return null;
} }
""",
        "M.go",
    )
    assert run.stuck is None and isinstance(run.outcome, Terminated)
    assert run.trace == ["before", "isnull"]


def test_an_uncaught_null_is_thrown():
    run = single_run("class M { Object go() { emit a; throw null; } }",
                     "M.go")
    assert run.stuck is None and isinstance(run.outcome, Thrown)
    assert run.outcome.location is None and run.trace == ["a"]


def test_stuck_configurations_are_reported_not_crashed():
    run = single_run(
        "class M { Object go() { M x = null; return x.go(); } }", "M.go"
    )
    assert run.outcome is None and run.stuck is not None
    assert run.stuck.kind == "call-on-null"

    run2 = single_run(
        "class M { M f; Object go() { M x = null; M y = x.f; return y; } }", "M.go"
    )
    assert run2.stuck.kind == "field-access-on-null"


def test_if_compares_values_not_names():
    run = single_run(
        """
class M { Object go() {
    M a = new[m1] M();
    M b = a;
    if (a == b) { emit same; } else { emit diff; }
    return null;
} }
""",
        "M.go",
    )
    assert run.trace == ["same"]


DIVERGE = """
class L { Object spin() { emit t; return this.spin(); } }
"""


def test_out_of_fuel_records_cycle_candidates():
    runs = enumerate_traces(parse_program(DIVERGE), "L.spin", fuel=8)
    (run,) = runs
    assert isinstance(run.outcome, OutOfFuel)
    assert run.trace == ["t"] * 8
    # the entry opens at trace length 0 and repeats after one emit, with no
    # stub choice in between; each later call repeats every open call, and
    # records them in one tuple, outermost first
    assert run.cycles[:2] == [((1, 0), ((0, 0),)),
                              ((2, 0), ((0, 0), (1, 0)))]
    assert len(run.cycles) == 7
    (cycle_end, cycle_choices), ((stem_end, stem_choices),) = run.cycles[0]
    assert run.trace[stem_end:cycle_end] == ["t"]
    assert run.script[stem_choices:cycle_choices] == []


def test_cycle_candidate_replays_to_a_longer_prefix():
    prog = parse_program(DIVERGE)
    (run,) = enumerate_traces(prog, "L.spin", fuel=6)
    (cycle_end, cycle_choices), ((stem_end, stem_choices),) = run.cycles[0]
    stem = run.script[:stem_choices]
    cycle = run.script[stem_choices:cycle_choices]
    ev = replay_entry(prog, "L.spin", stem + cycle * 3, fuel=40)
    want = run.trace[:stem_end] + run.trace[stem_end:cycle_end] * 3
    assert ev.trace[: len(want)] == want


def test_silent_divergence_has_empty_cycle_trace():
    (run,) = enumerate_traces(
        parse_program("class L { Object spin() { return this.spin(); } }"),
        "L.spin",
        fuel=5,
    )
    assert isinstance(run.outcome, OutOfFuel)
    assert run.trace == []
    (cycle_end, _), ((stem_end, _),) = run.cycles[0]
    assert stem_end == cycle_end


# Each go() with an object from tick calls go() twice on the same receiver:
# both calls repeat the entry, the second after the first has returned.
REPEATED_TWICE = """
class R { R tick() { return null; } }
class M { Object go() {
    emit a; R r = new R(); R x = r.tick(); R z = null;
    if (x == z) { return null; }
    else { Object y = this.go(); return this.go(); }
} }
"""


def test_a_repeat_record_is_a_snapshot_of_the_open_calls():
    prog = parse_program(REPEATED_TWICE)
    specs = parse_config("R.tick() -> Unknown emits eps\n", ("a",))
    null, fresh = specs["R", "tick"].choices()
    ev = replay_entry(prog, "M.go", [fresh, null, null], 8, specs)
    assert isinstance(ev.outcome, Terminated)
    assert ev.trace == ["a", "a", "a"]
    # the first repeat's open calls were popped to the entry and pushed
    # again by the second; its record still holds the entry alone
    assert ev.cycles == [((1, 1), ((0, 0),)), ((2, 2), ((0, 0),))]


def test_a_fruitless_search_records_each_repeating_call_once():
    # without its stubs serve() polls null and logs forever: to fuel 20 the
    # run nests 10 serve() calls, and each but the first records one
    # repeat of all the serve() calls still open, 45 open calls in all
    prog = parse_program(read_fixture("serve.fj"), "serve.fj")
    search = interp.Search(prog, "Server.serve")
    records = []
    for _ in range(20):
        (run,) = search.deepen()
        records += run.cycles
    assert [len(opens) for _, opens in records] == list(range(1, 10))
    assert sum(len(opens) for _, opens in records) == 45
    # outermost first, each serve() call two calls and one letter deeper
    assert records[-1][1] == tuple((k, 0) for k in range(9))


def test_entry_validation():
    prog = parse_program("class M { Object go(M x) { return null; } }")
    with pytest.raises(ValueError, match="entry"):
        enumerate_traces(prog, "Mgo")
    with pytest.raises(ValueError, match="no parameters"):
        enumerate_traces(prog, "M.go")


# -- intrinsic stubs -----------------------------------------------------------

STUB_PROG = """
class R { R tick() { return null; } }
class M { Object go() { R r = new R(); R x = r.tick(); return null; } }
"""


def test_stub_scripts_branch_per_word():
    prog = parse_program(STUB_PROG)
    specs = parse_config("R.tick() -> Null emits a | b b\n", ("a", "b"))
    runs = enumerate_traces(prog, "M.go", intrinsics=specs)
    assert sorted(r.trace for r in runs) == [["a"], ["b", "b"]]
    for r in runs:
        assert isinstance(r.outcome, Terminated) and r.outcome.value is None
        assert len(r.script) == 1
    # lexicographic script order
    assert [r.script for r in runs] == sorted(r.script for r in runs)


def test_stub_words_are_capped_not_enumerated_forever():
    prog = parse_program(STUB_PROG)
    specs = parse_config("R.tick() -> Null emits a*\n", ("a", "b"))
    runs = enumerate_traces(prog, "M.go", intrinsics=specs)
    # shortlex sample of a*, capped at three words
    assert [r.trace for r in runs] == [[], ["a"], ["a", "a"]]


def test_stubs_do_not_consume_fuel():
    prog = parse_program(STUB_PROG)
    specs = parse_config("R.tick() -> Null emits eps\n", ("a", "b"))
    (run,) = enumerate_traces(prog, "M.go", fuel=1, intrinsics=specs)
    assert isinstance(run.outcome, Terminated)  # the one fuel unit feeds go()


def test_unknown_result_stub_can_return_fresh_object():
    prog = parse_program(
        """
class R { R tick() { return null; } }
class M { R go() { R r = new R(); R x = r.tick(); return x; } }
"""
    )
    specs = parse_config("R.tick() -> Unknown emits eps\n", ("a", "b"))
    runs = enumerate_traces(prog, "M.go", intrinsics=specs)
    values = {
        (r.outcome.value is None) for r in runs if isinstance(r.outcome, Terminated)
    }
    assert values == {True, False}  # one null return, one fresh stub object


# -- satisfaction predicates ----------------------------------------------------


def test_value_satisfies():
    heap = {0: Obj("A", "siteX", {})}
    assert value_satisfies(None, heap, NULL_REGION)
    assert value_satisfies(None, heap, UNKNOWN)
    assert not value_satisfies(None, heap, created_at("siteX"))
    assert value_satisfies(0, heap, created_at("siteX"))
    assert not value_satisfies(0, heap, created_at("siteY"))
    assert value_satisfies(0, heap, UNKNOWN)
    assert not value_satisfies(0, heap, NULL_REGION)


def test_store_satisfies():
    heap = {0: Obj("A", "s", {})}
    store = {"x": 0, "y": None}
    assert store_satisfies(store, heap, {"x": created_at("s"), "y": NULL_REGION})
    assert not store_satisfies(store, heap, {"x": NULL_REGION})
    assert not store_satisfies({}, heap, {"x": UNKNOWN})


def _rows(ftable):
    """A field table given as a dict, read as ``ClassTable.fields_at``."""
    return lambda cls, region, fname: ftable.get((cls, region, fname),
                                                 frozenset())


def test_heap_satisfaction_against_field_table():
    prog = parse_program(
        "class A { A f; A mk() { A x = new[s] A(); A y = x.f = x; return x; } }"
    )
    meta = region_meta(prog)
    (run,) = enumerate_traces(prog, "A.mk")
    heap = run.outcome.heap
    at_s = created_at("s")
    # the $entry receiver inhabits only Unknown, x inhabits @s and Unknown;
    # a row is needed for every region an object meets
    ok = {
        ("A", at_s, "f"): frozenset({at_s}),
        ("A", UNKNOWN, "f"): frozenset({at_s, NULL_REGION}),
    }
    assert heap_satisfies(heap, _rows(ok), prog, meta)
    bad = dict(ok)
    bad[("A", at_s, "f")] = frozenset({NULL_REGION})
    violation = first_heap_violation(heap, _rows(bad), prog, meta)
    assert violation is not None
    loc, cls, region, fname = violation
    assert (cls, region, fname) == ("A", at_s, "f")
    assert heap[loc].label == "s"
    # a missing row means nothing is allowed
    assert not heap_satisfies(heap, _rows({}), prog, meta)


# -- the enumeration against the restart-per-choice reference ---------------------


def _runs_as_data(runs):
    """What a run shows: its script, outcome kind, trace and repeats."""
    return [(tuple(r.script), type(r.outcome).__name__, tuple(r.trace),
             r.stuck and r.stuck.kind, r.cycles) for r in runs]


def _entries(prog):
    return [f"{c.name}.{md.name}" for c in prog.classes for md in c.methods
            if not md.params]


def _enumeration_cases():
    """(label, program, entry, fuel, stubs): every fixture entry, both
    corpora, serve.fj at fuel 1 to 6, a program whose null stub results
    get stuck between branches, a stub with no scripted choice, and runs
    that share a field and an environment when they fork."""
    prog = parse_program(STUCK_BETWEEN_BRANCHES)
    specs = parse_config("R.tick() -> Unknown emits a | b\n", ("a", "b"))
    yield "stuck", prog, "M.go", 2, specs
    # every word of this stub is longer than the scripted words go: its
    # one choice is its shortest word
    specs = parse_config("R.tick() -> Null emits a a a a a\n", ("a", "b"))
    yield "long-words", parse_program(STUB_PROG), "M.go", 2, specs
    specs = parse_config("R.tick() -> Unknown emits eps\n", ("a", "b"))
    yield "forked-state", parse_program(FORKED_STATE), "M.go", 4, specs
    serve_cfg = read_fixture("serve.cfg")
    for path in sorted(FIXTURES.glob("*.fj")):
        prog = parse_program(path.read_text(encoding="utf-8"), path.name)
        specs = (parse_config(serve_cfg, sorted(prog.alphabet))
                 if path.name == "serve.fj" else {})
        for entry in _entries(prog):
            yield path.name, prog, entry, 5, specs
    prog = parse_program(read_fixture("serve.fj"), "serve.fj")
    specs = parse_config(serve_cfg, sorted(prog.alphabet))
    for fuel in range(1, 7):
        yield f"serve.fj@{fuel}", prog, "Server.serve", fuel, specs
    for name, (src, entry, fuel, cfg) in sorted(corpus.PROGRAMS.items()):
        prog = parse_program(src, f"{name}.fj")
        specs = parse_config(cfg, ("a", "b")) if cfg else {}
        yield name, prog, entry, fuel, specs
    for name, src in sorted(taint_corpus.PROGRAMS.items()):
        prog = parse_program(src, f"{name}.fj")
        for entry in _entries(prog):
            yield name, prog, entry, 6, {}


def test_enumeration_matches_the_restart_reference_run_for_run():
    cases = 0
    for label, prog, entry, fuel, specs in _enumeration_cases():
        got = enumerate_traces(prog, entry, fuel, specs)
        want = enumerate_by_restarts(prog, entry, fuel, specs)
        assert _runs_as_data(got) == _runs_as_data(want), (label, entry, fuel)
        cases += 1
    assert cases >= 50


# The runs fork at tick, and each must see only its own state: the first
# run writes seen before its twins read it, and suspends at id() with c
# still to be read, which a twin binds before the first run resumes.
FORKED_STATE = """
class R { R tick() { return null; } }
class M {
    M seen;
    Object id(R x) { return x; }
    Object go() {
        R r = new R(); R c = r.tick(); M z = null; M s = this.seen;
        if (s == z) { emit a; } else { emit b; }
        Object y = this.id(c); R n = null;
        if (c == n) { emit a; } else { emit b; }
        this.seen = this;
        return this.go();
    }
}
"""


# A null result from the first or second tick is called on: stuck.
STUCK_BETWEEN_BRANCHES = """
class R { R tick() { return null; } }
class M { Object go() {
    R r = new R(); R x = r.tick(); emit a; R y = x.tick(); R z = y.tick();
    return this.go();
} }
"""


def _search_runs_as_data(prog, entry, fuel, specs):
    """The runs of a Search deepened to fuel: those each level ended and
    those the last level suspended, in script order, each with every
    repeat its execution recorded.  A level reports a repeat once, on the
    first run in script order that holds it, so a run's repeats are
    gathered from every level's report: those recorded where its script
    and the recording run's agree up to the repeat."""
    search = interp.Search(prog, entry, specs)
    recorded, runs = [], []
    for level in range(1, fuel + 1):
        new = search.deepen()
        recorded += [(tuple(run.script), c) for run in new
                     for c in run.cycles]
        runs += [run for run in new
                 if level == fuel or not isinstance(run.outcome, OutOfFuel)]
        if not search.frontier:
            break
    runs.sort(key=lambda run: run.script)
    for run in runs:
        run.cycles = [(end, opens) for script, (end, opens) in recorded
                      if script[:end[1]] == tuple(run.script[:end[1]])]
    return _runs_as_data(runs)


def test_the_resumed_search_matches_the_restart_reference_run_for_run():
    cases = 0
    for label, prog, entry, fuel, specs in _enumeration_cases():
        want = enumerate_by_restarts(prog, entry, fuel, specs)
        got = _search_runs_as_data(prog, entry, fuel, specs)
        assert got == _runs_as_data(want), (label, entry, fuel)
        cases += 1
    assert cases >= 50


def test_call_keys_tell_calls_apart_as_keys_with_field_names_do(monkeypatch):
    """The key renders field values only; on every enumeration case two
    calls get equal keys exactly when the keys that also name each field
    are equal."""
    keyed = []  # (key, reference key) of each call keyed
    canonical_key = interp.Evaluator._canonical_key

    def both(ev, cls, method, roots):
        key = canonical_key(ev, cls, method, roots)
        keyed.append((key, canonical_key_with_names(ev, cls, method, roots)))
        return key

    monkeypatch.setattr(interp.Evaluator, "_canonical_key", both)
    calls = distinct = 0
    for label, prog, entry, fuel, specs in _enumeration_cases():
        keyed.clear()
        enumerate_traces(prog, entry, fuel, specs)
        pairs = set(keyed)
        assert len(pairs) == len({key for key, _ in pairs}) \
            == len({named for _, named in pairs}), (label, entry, fuel)
        calls += len(keyed)
        distinct += len(pairs)
    # most calls repeat a key, and many cases key more than one call
    assert calls > 700 and 50 < distinct < calls / 5


def _executed_calls(monkeypatch):
    """The (script prefix, call number) of each call a run executes from
    now on: the call's configuration is keyed once per executed call."""
    executed = []
    canonical_key = interp.Evaluator._canonical_key

    def recording(ev, cls, method, roots):
        executed.append((tuple(ev.script[:ev.script_pos]), ev.calls))
        return canonical_key(ev, cls, method, roots)

    monkeypatch.setattr(interp.Evaluator, "_canonical_key", recording)
    return executed


def test_a_search_executes_each_script_prefix_and_call_once(monkeypatch):
    executed = _executed_calls(monkeypatch)
    # without its stubs serve() polls null and logs forever: one run, one
    # new call per level, where re-running each level from the entry
    # executed F(F+1)/2
    prog = parse_program(read_fixture("serve.fj"), "serve.fj")
    gl = load_guideline(str(FIXTURES / "serve_liveness.gl"))
    assert find_counterexample(prog, gl, "Server.serve", 60) is None
    assert executed == [((), call) for call in range(1, 61)]
    # with them, every level forks three ways: each state once, against
    # one execution per state per run of the restart reference
    specs = parse_config(read_fixture("serve.cfg"), sorted(prog.alphabet))
    fuel = 5
    search = interp.Search(prog, "Server.serve", specs)
    executed.clear()
    for _ in range(fuel):
        search.deepen()
    searched = list(executed)
    executed.clear()
    for level in range(1, fuel + 1):
        enumerate_by_restarts(prog, "Server.serve", level, specs)
    assert len(searched) == len(set(searched)) == len(set(executed))
    assert set(searched) == set(executed)
    assert len(executed) > 2 * len(searched)


def test_a_resumed_run_composes_each_letter_of_its_trace_once(monkeypatch):
    """The run keeps the profiles of its trace's prefixes across levels, so
    the whole fruitless search composes each letter of the one run's trace
    once, where judging each level from the entry composed the whole
    trace again."""
    prefix_profiles = ProfileMonoid.prefix_profiles
    compose = ProfileMonoid.compose
    calls = composed = longest = 0
    inside = False

    def counting(m, prefixes, word):
        nonlocal calls, longest, inside
        calls += 1
        longest = max(longest, len(word))
        inside = True
        try:
            return prefix_profiles(m, prefixes, word)
        finally:
            inside = False

    def counting_compose(m, p1, p2):
        nonlocal composed
        composed += inside
        return compose(m, p1, p2)

    monkeypatch.setattr(ProfileMonoid, "prefix_profiles", counting)
    monkeypatch.setattr(ProfileMonoid, "compose", counting_compose)
    prog = parse_program(read_fixture("serve.fj"), "serve.fj")
    gl = load_guideline(str(FIXTURES / "serve_liveness.gl"))
    assert find_counterexample(prog, gl, "Server.serve", 60) is None
    assert calls >= 60 and longest >= 30
    assert composed == longest


def test_a_long_let_chain_runs_without_deepening_the_stack():
    # 5,000 statements built by hand: the parser's own depth limit stays out
    body = Null()
    for i in range(5000):
        body = Let(f"x{i}", None, Emit(("a",)), body)
    go = MethodDecl("Object", "go", (), body)
    prog = Program([ClassDecl("M", "Object", (), (go,))])
    (run,) = enumerate_traces(prog, "M.go")
    assert isinstance(run.outcome, Terminated)
    assert run.trace == ["a"] * 5000
