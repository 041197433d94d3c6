"""End-to-end pipeline and command-line behaviour.

The serve fixture is the workhorse: an event loop that conforms to the
safety guideline but not to the liveness one, with a concrete diverging
counterexample.  Fuel stays small here — counterexample search enumerates
every stub-choice combination, which is exponential in fuel.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc

import pytest

import taint_corpus
from conftest import FIXTURES, fixture, fresh_python_env, read_fixture
from nfa_reading import NfaReading
from report_reference import streamed
from guidecheck import cli, fjtypes, inference, interp, profiles
from guidecheck.cli import AnalysisError, Counterexample, analyze, main
from guidecheck.fjast import FjError, Program
from guidecheck.fjparser import parse_program
from guidecheck.fjtypes import fj_typecheck
from guidecheck.guideline import load_guideline
from guidecheck.intrinsics import load_config

FUEL = 6  # 3^fuel stub scripts in the worst case; keep it tame


def serve_inputs(gl_name):
    prog = parse_program(read_fixture("serve.fj"), "serve.fj")
    gl = load_guideline(fixture(gl_name))
    cfg = load_config(fixture("serve.cfg"), gl.alphabet)
    return prog, gl, cfg


def test_serve_passes_safety():
    prog, gl, cfg = serve_inputs("serve_safety.gl")
    report = analyze(prog, gl, intrinsics=cfg, fuel=FUEL,
                     entries=["Server.serve"])
    assert report.verdict == "pass"
    assert report.counterexamples == []
    # serve itself must be among the reported signatures, fully ok
    serves = [s for s in report.signatures if s.sig.method == "serve"]
    assert serves and all(s.ok for s in serves)


def test_serve_fails_liveness_with_divergence_witness():
    prog, gl, cfg = serve_inputs("serve_liveness.gl")
    report = analyze(prog, gl, intrinsics=cfg, fuel=FUEL,
                     entries=["Server.serve"])
    assert report.verdict == "fail"
    bad = [s for s in report.signatures if not s.ok]
    assert bad and all(not s.diverges_ok for s in bad)
    assert len(report.counterexamples) == 1
    ce = report.counterexamples[0]
    assert ce.kind == "divergence"
    assert ce.cycle == ("authcheck", "access")
    # the witness really is rejected: pumping the cycle never logs again
    assert not NfaReading(gl).accepts_lasso(ce.trace, ce.cycle)


def test_serve_witness_is_the_least_fuel_one():
    prog, gl, cfg = serve_inputs("serve_liveness.gl")
    report = analyze(prog, gl, intrinsics=cfg, fuel=FUEL,
                     entries=["Server.serve"])
    (ce,) = report.counterexamples
    assert ce.trace == ()
    assert ce.cycle == ("authcheck", "access")
    assert ce.fuel == 2
    assert ce.to_json()["fuel"] == 2
    assert "no run with less fuel shows a violation" in ce.describe()


def test_search_stops_deepening_once_every_run_terminates(monkeypatch):
    # ok() is three calls deep and fine; bad() emits nothing, which parity
    # rejects, so the verdict fails but no run from ok() can show it
    src = """
    class A extends Object {
        Object ok() {
            return this.two();
        }
        Object two() {
            return this.one();
        }
        Object one() {
            emit a;
            return null;
        }
        Object bad() {
            return null;
        }
    }
    """
    levels = []
    deepen = interp.Search.deepen

    def recording(search):
        runs = deepen(search)
        levels.append(len(levels) + 1)
        return runs

    monkeypatch.setattr(interp.Search, "deepen", recording)
    prog = parse_program(src, "deep.fj")
    report = analyze(prog, load_guideline(fixture("parity.gl")), fuel=32,
                     entries=["A.ok"])
    assert report.verdict == "fail"
    assert report.counterexamples == []
    assert levels == [1, 2, 3]  # fuel 3 runs ok() to its end


def test_a_fruitless_search_judges_each_accepted_lasso_once(monkeypatch):
    # without its stubs serve() polls null and logs forever, which the
    # liveness guideline accepts; the verdict fails but no run is a witness,
    # and each level records only the cycles its one new call closes
    prog = parse_program(read_fixture("serve.fj"), "serve.fj")
    gl = load_guideline(fixture("serve_liveness.gl"))
    judged = []
    accepts_lasso_of = profiles.ProfileMonoid.accepts_lasso_of

    def recording(monoid, stem, cycle):
        judged.append((monoid, stem, cycle))
        return accepts_lasso_of(monoid, stem, cycle)

    monkeypatch.setattr(profiles.ProfileMonoid, "accepts_lasso_of", recording)
    report = analyze(prog, gl, fuel=20, entries=["Server.serve"])
    assert report.verdict == "fail"
    assert report.counterexamples == []
    lassos = {(run.trace[:c.stem_end], run.trace[c.stem_end:c.cycle_end])
              for level in range(1, 21)
              for run in interp.enumerate_traces(prog, "Server.serve", level)
              for c in run.cycles}
    assert len(judged) == len(lassos) == 45  # 10 serve() calls
    (monoid,) = {m for m, _, _ in judged}
    # each lasso's stem and cycle are judged by their profiles
    assert sorted((stem, cycle) for _, stem, cycle in judged) == sorted(
        (monoid.profile_of_word(stem), monoid.profile_of_word(cycle))
        for stem, cycle in lassos)


def test_a_fruitless_search_copies_no_trace_per_candidate():
    # the search records 1,225 candidates, the last ones at fuel 100, where
    # the run nests 50 serve() calls; each candidate is four offsets into
    # its run's trace, not a copy of up to 50 events
    prog = parse_program(read_fixture("serve.fj"), "serve.fj")
    gl = load_guideline(fixture("serve_liveness.gl"))
    tracemalloc.start()
    try:
        ce = cli.find_counterexample(prog, gl, "Server.serve", 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ce is None
    assert peak < 2**20


def test_only_a_witness_is_replayed(monkeypatch):
    # each candidate is judged once per search, and only a rejected one is
    # replayed: the serve witness once, the accepted lassos of the fruitless
    # search never
    replays = []
    replay_entry = cli.replay_entry

    def recording(prog, entry, script, fuel, intrinsics=None):
        replays.append(script)
        return replay_entry(prog, entry, script, fuel, intrinsics)

    monkeypatch.setattr(cli, "replay_entry", recording)
    prog, gl, cfg = serve_inputs("serve_liveness.gl")
    report = analyze(prog, gl, intrinsics=cfg, fuel=FUEL,
                     entries=["Server.serve"])
    assert report.counterexamples[0].kind == "divergence"
    assert len(replays) == 1
    replays.clear()
    report = analyze(prog, gl, fuel=20, entries=["Server.serve"])
    assert report.verdict == "fail"
    assert report.counterexamples == []
    assert replays == []


def test_no_counterexample_search_without_entries():
    prog, gl, cfg = serve_inputs("serve_liveness.gl")
    report = analyze(prog, gl, intrinsics=cfg, fuel=FUEL)
    assert report.verdict == "fail"
    assert report.counterexamples == []


def test_alphabet_mismatch_is_an_analysis_error():
    prog = parse_program(read_fixture("serve.fj"), "serve.fj")
    gl = load_guideline(fixture("parity.gl"))  # alphabet {a}
    with pytest.raises(AnalysisError, match="not in the guideline alphabet"):
        analyze(prog, gl)


def test_type_errors_become_analysis_errors():
    src = """
    class A extends Object {
    }
    class B extends Object {
        A m() {
            return new[here] B();
        }
    }
    """
    prog = parse_program(src, "bad.fj")
    gl = load_guideline(fixture("parity.gl"))
    with pytest.raises(AnalysisError, match="not a subclass"):
        analyze(prog, gl)


def test_unreachable_rows_are_suppressed():
    # signatures inference never charges (e.g. null receivers) get no row;
    # the rows that do appear carry the silent method's empty-word effect
    src = """
    class Quiet extends Object {
        Object id(Object x) {
            return x;
        }
    }
    """
    prog = parse_program(src, "quiet.fj")
    gl = load_guideline(fixture("count_mod3.gl"))  # accepts the empty word
    report = analyze(prog, gl)
    assert report.verdict == "pass"
    assert report.signatures  # id's return effect is reported...
    assert all(str(s.sig.recv) != "Null" for s in report.signatures)  # ...here


def test_silent_method_fails_a_guideline_rejecting_eps():
    # parity demands an odd number of a's, so even "emit nothing" violates it
    src = """
    class Quiet extends Object {
        Object id(Object x) {
            return x;
        }
    }
    """
    prog = parse_program(src, "quiet.fj")
    report = analyze(prog, load_guideline(fixture("parity.gl")))
    assert report.verdict == "fail"
    assert all(not s.returns_ok for s in report.signatures)


def test_analyze_never_closes_the_profile_monoid(monkeypatch):
    # the monoid is closed only when inference passes its floor cap and
    # needs the exact lattice height; no fixture or corpus program does
    built = []

    class Recording(cli.ProfileDomain):
        def __init__(self, guideline):
            super().__init__(guideline)
            built.append(self)

    monkeypatch.setattr(cli, "ProfileDomain", Recording)
    for fj in sorted(FIXTURES.glob("*.fj")):
        prog = parse_program(fj.read_text(encoding="utf-8"), fj.name)
        for gl_path in sorted(FIXTURES.glob("*.gl")):
            gl = load_guideline(str(gl_path))
            if not prog.alphabet <= set(gl.alphabet):
                continue
            specs = {}
            if fj.name == "serve.fj":
                specs = load_config(fixture("serve.cfg"), gl.alphabet)
            analyze(prog, gl, intrinsics=specs)
    gl = load_guideline(fixture("taint.gl"))
    for name, src in sorted(taint_corpus.PROGRAMS.items()):
        analyze(parse_program(src, f"{name}.fj", alphabet=gl.alphabet), gl)
    assert len(built) == 9 + len(taint_corpus.PROGRAMS)
    assert all("elements" not in d.monoid.__dict__ for d in built)


def test_the_search_reads_the_monoid_the_analysis_built(monkeypatch):
    domains, searched = [], []

    class Recording(cli.ProfileDomain):
        def __init__(self, guideline):
            super().__init__(guideline)
            domains.append(self)

    real = cli.monoid_of

    def recording(guideline):
        searched.append(real(guideline))
        return searched[-1]

    monkeypatch.setattr(cli, "ProfileDomain", Recording)
    monkeypatch.setattr(cli, "monoid_of", recording)
    prog, gl, cfg = serve_inputs("serve_liveness.gl")
    analyze(prog, gl, intrinsics=cfg, fuel=FUEL, entries=["Server.serve"])
    (domain,) = domains
    assert searched and all(m is domain.monoid for m in searched)


def test_demand_driven_restricts_to_reachable():
    src = """
    class A extends Object {
        Object touched() {
            emit a;
            return null;
        }
        Object untouched() {
            emit a;
            emit a;
            return null;
        }
    }
    """
    prog = parse_program(src, "dd.fj")
    gl = load_guideline(fixture("parity.gl"))
    full = analyze(prog, gl)
    assert {s.sig.method for s in full.signatures} == {"touched", "untouched"}
    narrow = analyze(prog, gl, entries=["A.touched"], demand_driven=True)
    assert {s.sig.method for s in narrow.signatures} == {"touched"}


# -- report rendering ---------------------------------------------------------


def report_for(gl_name, entries=("Server.serve",)):
    prog, gl, cfg = serve_inputs(gl_name)
    return analyze(prog, gl, intrinsics=cfg, fuel=FUEL,
                   entries=list(entries))


def test_text_report_shape():
    text = streamed(report_for("serve_liveness.gl"), "text")
    lines = text.splitlines()
    assert lines[-1] == "verdict: fail"
    assert any("diverges:FAIL" in ln for ln in lines)
    assert any(ln.startswith("counterexample: ") for ln in lines)
    assert any("bounded enumeration" in ln for ln in lines)
    # passing reports carry no counterexample apparatus
    text_ok = streamed(report_for("serve_safety.gl"), "text")
    assert text_ok.splitlines()[-1] == "verdict: pass"
    assert "counterexample" not in text_ok


def test_json_report_schema():
    data = report_for("serve_liveness.gl").to_json()
    assert data["verdict"] == "fail"
    assert {"class", "receiver", "method", "args",
            "returns_ok", "throws_ok", "diverges_ok"} <= set(
        data["signatures"][0])
    ce = data["counterexamples"][0]
    assert ce["kind"] == "divergence"
    assert ce["cycle"] == ["authcheck", "access"]
    assert isinstance(ce["trace"], list)
    json.dumps(data)  # must be serializable as-is


def test_reports_are_deterministic():
    a = report_for("serve_liveness.gl")
    b = report_for("serve_liveness.gl")
    assert streamed(a, "text") == streamed(b, "text")
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)


def test_counterexample_descriptions():
    assert "rejected at position 2" in Counterexample(
        "E.m", "finite-trace", ("a", "b"), position=2).describe()
    assert "admits no accepted extension" in Counterexample(
        "E.m", "dead-prefix", ("a",), position=1).describe()
    assert "emitting nothing further" in Counterexample(
        "E.m", "silent-divergence", (), cycle=()).describe()
    d = Counterexample("E.m", "divergence", ("a",), cycle=("b",)).describe()
    assert "'b' forever" in d


# -- the executable -----------------------------------------------------------


def run_main(*argv):
    return main(["analyze", *argv])


def test_main_exit_zero_on_pass(capsys):
    code = run_main(
        "--program", fixture("serve.fj"),
        "--guideline", fixture("serve_safety.gl"),
        "--config", fixture("serve.cfg"),
        "--fuel", str(FUEL), "--entry", "Server.serve",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("verdict: pass")


def test_main_exit_one_on_fail_and_prints_witness(capsys):
    code = run_main(
        "--program", fixture("serve.fj"),
        "--guideline", fixture("serve_liveness.gl"),
        "--config", fixture("serve.cfg"),
        "--fuel", str(FUEL), "--entry", "Server.serve",
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "verdict: fail" in out
    assert "counterexample:" in out
    assert "forever" in out


def test_a_repeated_entry_is_searched_and_reported_once(monkeypatch, capsys):
    args = ("--program", fixture("serve.fj"),
            "--guideline", fixture("serve_liveness.gl"),
            "--config", fixture("serve.cfg"), "--fuel", str(FUEL))
    assert run_main(*args, "--entry", "Server.serve") == 1
    once = capsys.readouterr().out
    searched = []
    real = cli.find_counterexample

    def recording(prog, guideline, entry, *rest):
        searched.append(entry)
        return real(prog, guideline, entry, *rest)

    monkeypatch.setattr(cli, "find_counterexample", recording)
    assert run_main(*args, "--entry", "Server.serve",
                    "--entry", "Server.serve") == 1
    assert capsys.readouterr().out == once
    assert once.count("counterexample: Server.serve") == 1
    assert searched == ["Server.serve"]


def test_main_json_report_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = run_main(
        "--program", fixture("serve.fj"),
        "--guideline", fixture("serve_liveness.gl"),
        "--config", fixture("serve.cfg"),
        "--fuel", str(FUEL), "--entry", "Server.serve",
        "--report", "json", "--out", str(out_path),
    )
    assert code == 1
    assert capsys.readouterr().out == ""  # went to the file instead
    data = json.loads(out_path.read_text(encoding="utf-8"))
    assert data["verdict"] == "fail"
    assert data["counterexamples"][0]["cycle"] == ["authcheck", "access"]


@pytest.mark.parametrize(
    "argv",
    [
        # unreadable program file
        ("--program", "no-such-file.fj", "--guideline", fixture("parity.gl")),
        # malformed guideline
        ("--program", fixture("serve.fj"), "--guideline", fixture("serve.fj")),
        # config names a class the program lacks
        ("--program", fixture("list_last.fj"),
         "--guideline", fixture("count_mod3.gl"),
         "--config", fixture("serve.cfg")),
        # emitted event outside the guideline alphabet (parser-level check)
        ("--program", fixture("serve.fj"), "--guideline", fixture("parity.gl")),
        # demand-driven without an entry
        ("--program", fixture("serve.fj"),
         "--guideline", fixture("serve_safety.gl"),
         "--config", fixture("serve.cfg"), "--demand-driven"),
        # entry in a class the program lacks, with and without demand-driven
        ("--program", fixture("serve.fj"),
         "--guideline", fixture("serve_liveness.gl"),
         "--config", fixture("serve.cfg"), "--entry", "Nope.serve"),
        ("--program", fixture("serve.fj"),
         "--guideline", fixture("serve_liveness.gl"),
         "--config", fixture("serve.cfg"), "--entry", "Nope.serve",
         "--demand-driven"),
        # entry not of the form Class.method
        ("--program", fixture("serve.fj"),
         "--guideline", fixture("serve_liveness.gl"),
         "--config", fixture("serve.cfg"), "--entry", "Mgo"),
        # entry method that takes parameters
        ("--program", fixture("serve.fj"),
         "--guideline", fixture("serve_liveness.gl"),
         "--config", fixture("serve.cfg"), "--entry", "Server.ask"),
        # each input file option given a file that is not UTF-8
        ("--program", fixture("not_utf8.txt"),
         "--guideline", fixture("parity.gl")),
        ("--program", fixture("list_last.fj"),
         "--guideline", fixture("not_utf8.txt")),
        ("--program", fixture("serve.fj"),
         "--guideline", fixture("serve_safety.gl"),
         "--config", fixture("not_utf8.txt")),
    ],
    ids=["missing-file", "bad-guideline", "bad-config", "alphabet", "no-entry",
         "entry-unknown-class", "entry-unknown-class-demand-driven",
         "entry-unqualified", "entry-with-parameters", "program-not-utf8",
         "guideline-not-utf8", "config-not-utf8"],
)
def test_main_exit_two_on_unusable_inputs(argv, capsys):
    assert run_main(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("guidecheck: error:")
    if "not_utf8.txt" in str(argv):
        assert "not_utf8.txt: not UTF-8 text" in err


def test_main_exit_two_on_a_redeclared_method(tmp_path, capsys):
    src = tmp_path / "twice.fj"
    src.write_text("class A { Object f() { emit a; return null; } "
                   "Object f() { return null; } }\n", encoding="utf-8")
    code = run_main("--program", str(src),
                    "--guideline", fixture("first_letter.gl"))
    assert code == 2
    assert "method f redeclared in A" in capsys.readouterr().err


def test_main_exit_two_on_an_unwritable_report_file(tmp_path, capsys):
    out_path = tmp_path / "missing-dir" / "report.txt"
    code = run_main(
        "--program", fixture("serve.fj"),
        "--guideline", fixture("serve_safety.gl"),
        "--config", fixture("serve.cfg"), "--out", str(out_path),
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("guidecheck: error:")
    assert "report.txt" in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("fuel", ["0", "-3", "many"])
def test_main_rejects_fuel_below_one(fuel, capsys):
    with pytest.raises(SystemExit) as exc:
        run_main("--program", fixture("serve.fj"),
                 "--guideline", fixture("serve_liveness.gl"),
                 "--config", fixture("serve.cfg"),
                 "--entry", "Server.serve", "--fuel", fuel)
    assert exc.value.code == 2
    assert "--fuel" in capsys.readouterr().err


def test_main_type_error_message_names_the_problem(tmp_path, capsys):
    bad = tmp_path / "bad.fj"
    bad.write_text(
        "class A extends Object {\n"
        "    Object m() {\n"
        "        return y;\n"
        "    }\n"
        "}\n",
        encoding="utf-8",
    )
    code = run_main("--program", str(bad),
                    "--guideline", fixture("parity.gl"))
    assert code == 2
    assert "y" in capsys.readouterr().err


# One ill-typed program per front-end message: the lexer, the parser, the
# Program's shape checks, the name errors and the typing violations.
ILL_TYPED = [
    pytest.param(
        'class A { Object m() { return null; } } #',
        "1:41: unexpected character '#'",
        id='unexpected-character'),
    pytest.param(
        'class A {\n  Object m() { return new[l A(); }\n}',
        "2:26: unterminated '['",
        id='unterminated-bracket'),
    pytest.param(
        'class A { Object m() { return new[ ] A(); } }',
        '1:36: expected a label inside [ ]',
        id='missing-label'),
    pytest.param(
        'class A { Object m(A x) { if (x == x) { emit a; } return null; } }',
        "1:51: expected 'else', found 'return'",
        id='missing-else'),
    pytest.param(
        'class A { Object m() { return null; emit a; } }',
        '1:37: unreachable statements after return',
        id='statement-after-return'),
    pytest.param(
        'class A { Object m() { return null } }',
        "1:36: expected ';', found '}'",
        id='missing-semicolon'),
    pytest.param(
        'class A {',
        "1:10: expected member class, found 'end of input'",
        id='end-of-input'),
    pytest.param(
        'class Object { }',
        '1:1: class name Object is reserved',
        id='reserved-class-name'),
    pytest.param(
        'class A { } class A { }',
        '1:13: duplicate class A',
        id='duplicate-class'),
    pytest.param(
        'class A extends B { }',
        '1:1: unknown superclass B of A',
        id='unknown-superclass'),
    pytest.param(
        'class A extends B { } class B extends A { }',
        '1:1: inheritance cycle through A',
        id='inheritance-cycle'),
    pytest.param(
        'class A { A f; } class B extends A { A f; }',
        '1:40: field f redeclared in B',
        id='field-redeclared'),
    pytest.param(
        'class A { Object m() { A x = new[h] A(); return new[h] A(); } }',
        '1:49: duplicate allocation label h',
        id='duplicate-label'),
    pytest.param(
        'class A { Object m() { return q; } }',
        '1:31: unbound variable q',
        id='unbound-variable'),
    pytest.param(
        'class A { Object m(A x) { if (x == q) { emit a; } else { emit b; } } }',
        '1:27: unbound variable q',
        id='unbound-if-operand'),
    pytest.param(
        'class A { Object m() { return new B(); } }',
        '1:31: cannot allocate undeclared class B',
        id='undeclared-new'),
    pytest.param(
        'class A { Object m() { emit c; return null; } }',
        '1:24: event c is not in the declared alphabet',
        id='event-outside-alphabet'),
    pytest.param(
        'class A { Object m(A x) { return (B) x; } }',
        '1:34: unknown cast class B',
        id='unknown-cast-class'),
    pytest.param(
        'class A { Object m(A x) { return (NullType) x; } }',
        '1:34: unknown cast class NullType',
        id='cast-to-nulltype'),
    pytest.param(
        'class A { Object m() { B y = null; return y; } }',
        '1:24: unknown class B',
        id='unknown-local-class'),
    pytest.param(
        'class A { Object m() { try { emit a; } catch (B e) { emit b; } } }',
        '1:24: unknown exception class B',
        id='unknown-exception-class'),
    pytest.param(
        'class A { Object m(A x, B y) { return x; } }',
        '1:18: unknown parameter class B',
        id='unknown-parameter-class'),
    pytest.param(
        'class A { Object m(Object o) { return o.m(); } }',
        '1:39: receiver o has type Object, which has no members',
        id='receiver-without-members'),
    pytest.param(
        'class A { Object m() { return this.g(); } }',
        '1:31: no method g on A',
        id='no-method'),
    pytest.param(
        'class A { Object m() { return this.m(q); } }',
        '1:31: unbound variable q',
        id='unbound-argument-before-arity'),
    pytest.param(
        'class A { Object m() { return this.g; } }',
        '1:31: no field g on A',
        id='no-field-read'),
    pytest.param(
        'class A { A f; Object m(A x) { this.g = x; return null; } }',
        '1:32: no field g on A',
        id='no-field-store'),
    pytest.param(
        'class A { A f; Object m() { this.f = q; return null; } }',
        '1:29: unbound variable q',
        id='unbound-stored-value'),
    pytest.param(
        'class A { Object m(A x) { A x = null; return x; } }',
        '1:27: variable x already declared',
        id='local-shadowing'),
    pytest.param(
        'class A { Object m(A x) { try { emit a; } catch (A x) { emit b; } } }',
        '1:27: variable x already declared',
        id='catch-shadowing'),
    pytest.param(
        'class A { } class B { Object m() { B y = new A(); return y; } }',
        '1:36: initializer of y has type A, expected B',
        id='initializer-subtyping'),
    pytest.param(
        'class A { Object m(A x) { return x; } }'
        ' class B { Object n(A a, B b) { return a.m(b); } }',
        '1:79: argument b: B is not a subclass of A',
        id='argument-subtyping'),
    pytest.param(
        'class A { A f; } class B { Object n(A a, B b) { a.f = b; return null; } }',
        '1:49: assigning B into field f: A',
        id='field-store-subtyping'),
    pytest.param(
        'class A { } class B { A m() { B b = null; return b; } }',
        '1:25: body of B.m has type B, not a subclass of declared A',
        id='body-result-subtyping'),
    pytest.param(
        'class A { Object m(A x) { return this.m(); } }',
        '1:34: A.m expects 1 args',
        id='arity'),
    pytest.param(
        'class A { Foo m() { return null; } }',
        '1:15: unknown result class Foo',
        id='unknown-result-class'),
    pytest.param(
        'class A { Foo m(A x) { A x = null; return x; } }',
        '1:15: unknown result class Foo',
        id='unknown-result-class-hides-body'),
    pytest.param(
        'class A { Object f() { return null; } Object f() { return null; } }',
        '1:46: method f redeclared in A',
        id='method-redeclared'),
    pytest.param(
        'class A { Object f(A x, A x) { return x; } }',
        '1:18: parameter x redeclared in A.f',
        id='parameter-redeclared'),
    pytest.param(
        'class A { Object f(A this) { return this; } }',
        '1:18: parameter name this is reserved in A.f',
        id='parameter-named-this'),
    pytest.param(
        'class A { A m() { return this; } }'
        ' class B extends A { Object m() { return this; } }',
        '1:63: B.m overrides A.m with a different signature',
        id='override-signature'),
    pytest.param(
        'class A { A f; }'
        ' class B { Object n(A a, B b) { a.f = b; A c = b; return c; } }\n'
        'class C extends A { Object g() { return null; } Object g() { return null; } }',
        '1:49: assigning B into field f: A; '
        '1:58: initializer of c has type B, expected A; '
        '2:56: method g redeclared in C',
        id='several-errors'),
]


@pytest.mark.parametrize("source, message", ILL_TYPED)
def test_main_names_each_front_end_error(source, message, tmp_path, capsys):
    bad = tmp_path / "bad.fj"
    bad.write_text(source, encoding="utf-8")
    code = run_main("--program", str(bad),
                    "--guideline", fixture("first_letter.gl"))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"guidecheck: error: {message}\n"


def test_parsed_programs_keep_what_a_fresh_typing_walk_finds():
    # Each case that gets past the name errors: the violations kept from the
    # parser's one walk equal, in order, those of a walk over a hand-built
    # copy, and they are what main prints.
    alphabet = load_guideline(fixture("first_letter.gl")).alphabet
    typed = []
    for case in ILL_TYPED:
        source, message = case.values
        try:
            prog = parse_program(source, "bad.fj", alphabet)
        except FjError:
            continue  # a lexer, parser, shape or name error
        kept = [str(e) for e in fj_typecheck(prog)]
        assert kept == [str(e) for e in fj_typecheck(Program(prog.classes))]
        assert "; ".join(kept) == message
        typed.append(case.id)
    assert len(typed) == 14


def test_main_types_each_method_once_in_one_program(monkeypatch):
    prog, _, _ = serve_inputs("serve_liveness.gl")
    declared = [(c.name, md.name) for c in prog.classes for md in c.methods]
    check_method = fjtypes.check_method
    collect = Program._collect_labels_and_events
    typed, collected = [], []

    def counting_check_method(prog, cls, md, *args):
        typed.append((cls, md.name))
        return check_method(prog, cls, md, *args)

    def counting_collect(prog):
        collected.append(prog)
        collect(prog)

    monkeypatch.setattr(fjtypes, "check_method", counting_check_method)
    monkeypatch.setattr(Program, "_collect_labels_and_events", counting_collect)
    code = run_main("--program", fixture("serve.fj"),
                    "--guideline", fixture("serve_liveness.gl"),
                    "--config", fixture("serve.cfg"),
                    "--entry", "Server.serve", "--fuel", str(FUEL))
    assert code == 1
    assert typed == declared
    assert len(collected) == 1


# A program whose only fault is a typing violation.
MISTYPED = "class A { } class B { Object m() { B y = new A(); return y; } }"


@pytest.mark.parametrize("extra, message", [
    (("--config", "bad.cfg"),
     "line 1: expected 'Class.method(patterns)', got 'A.m('"),
    (("--demand-driven",), "--demand-driven requires --entry"),
], ids=["bad-config", "demand-driven-without-entry"])
def test_main_reports_config_and_option_errors_before_typing_violations(
        extra, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.fj").write_text(MISTYPED, encoding="utf-8")
    (tmp_path / "bad.cfg").write_text("A.m( -> Null emits a\n", encoding="utf-8")
    code = run_main("--program", "bad.fj",
                    "--guideline", fixture("first_letter.gl"), *extra)
    assert code == 2
    assert capsys.readouterr().err == f"guidecheck: error: {message}\n"


@pytest.mark.parametrize("config, message", [
    ("Server.ask(@nowhere) -> Unknown emits eps\n",
     "no allocation site labelled 'nowhere'"),
    # Server.ask sorts first, but the arity error of Server.poll wins
    ("Server.poll(_) -> Unknown emits eps\n"
     "Server.ask(@nowhere) -> Unknown emits eps\n",
     "stub Server.poll has 1 pattern(s), method declares 0 parameter(s)"),
], ids=["bad-argument-label", "arity-before-argument-label"])
def test_main_checks_every_stub_label_before_inference(
        config, message, tmp_path, monkeypatch, capsys):
    def no_inference(*args, **kwargs):
        raise AssertionError("inference ran on an unchecked config")

    monkeypatch.setattr(cli, "infer", no_inference)
    cfg = tmp_path / "stubs.cfg"
    cfg.write_text(config, encoding="utf-8")
    code = run_main("--program", fixture("serve.fj"),
                    "--guideline", fixture("serve_safety.gl"),
                    "--config", str(cfg))
    assert code == 2
    assert capsys.readouterr().err == f"guidecheck: error: {message}\n"


def test_main_exit_three_on_deep_program_without_traceback(tmp_path):
    # 3,000 nested blocks: past the recursion limit, however long a block
    # may be
    src = tmp_path / "deep.fj"
    src.write_text(
        "class M extends Object {\n    Object go() {\n"
        + "        if (this == this) {\n" * 3000
        + "        emit a;\n"
        + "        } else { }\n" * 3000
        + "        return null;\n    }\n}\n",
        encoding="utf-8",
    )
    done = subprocess.run(
        [sys.executable, "-m", "guidecheck.cli", "analyze",
         "--program", str(src), "--guideline", fixture("parity.gl")],
        capture_output=True, text=True, env=fresh_python_env(), timeout=120,
    )
    assert done.returncode == 3
    assert done.stderr.startswith("guidecheck: error: internal limit:")
    assert "Traceback" not in done.stderr


def test_a_search_nests_more_calls_than_the_recursion_limit(tmp_path, capsys):
    # grow() calls itself on a new node that links to the old one, so no
    # call repeats an open call's configuration and no candidate is judged;
    # the runs nest one call more per level, past Python's recursion limit
    fuel = sys.getrecursionlimit() + 100
    program = ("class Node extends Object {\n    Node next;\n"
               "    Object grow() {\n        Node n = new[n] Node();\n"
               "        n.next = this;\n        return n.grow();\n    }\n"
               "    Object bad() {\n        return null;\n    }\n}\n")
    code, out, err = analyze_sources(
        tmp_path, capsys, program, read_fixture("parity.gl"),
        "--entry", "Node.grow", "--fuel", str(fuel))
    # bad() returns the empty word, which parity rejects; no run of grow()
    # emits or ends, so the search deepens to the last level and finds none
    assert (code, err) == (1, "")
    assert "returns:FAIL" in out and "counterexample" not in out


def test_main_passes_a_method_of_five_thousand_statements(tmp_path, capsys):
    # as long as the interpreter's 5,000-Let chain: parsing, typing and
    # inference follow a block in a loop
    src = tmp_path / "long.fj"
    src.write_text(
        "class M extends Object {\n    M f;\n    Object go() {\n"
        + "".join(f"        M x{i} = this.f;\n        emit a;\n"
                  for i in range(2500))
        + "        emit a;\n        return null;\n    }\n}\n",
        encoding="utf-8",
    )
    code = run_main("--program", str(src), "--guideline", fixture("parity.gl"))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")  # 2,501 a's: an odd number
    assert out.rstrip().endswith("verdict: pass")


def _live_bindings(k):
    """k Nodes read from a three-region field, each compared at the end:
    all k live at once, so the per-region rule types the tail 3^k times."""
    return ("class Node extends Object {\n    Node f;\n    Object go() {\n"
            "        Node p = new[p] Node();\n        Node q = new[q] Node();\n"
            "        this.f = p;\n        this.f = q;\n        Node z = null;\n"
            + "".join(f"        Node x{i} = this.f;\n" for i in range(k))
            + "".join(f"        if (x{i} == z) {{ emit a; }} else {{ }}\n"
                      for i in range(k))
            + "        return null;\n    }\n}\n")


def test_main_exit_three_past_the_typing_work_cap(monkeypatch, tmp_path, capsys):
    gl = "alphabet: a\nstates: q\ninitial: q\naccepting: q\ntrans: q a q\n"
    code, out, err = analyze_sources(tmp_path, capsys, _live_bindings(4), gl)
    assert (code, err) == (0, "")
    monkeypatch.setattr(inference, "TYPING_WORK_CAP", 200)
    code, out, err = analyze_sources(tmp_path, capsys, _live_bindings(4), gl)
    assert code == 3
    assert out == ""
    assert err == ("guidecheck: error: internal limit: typing a method body "
                   "took more than 200 steps\n")


def test_main_exit_three_past_the_monoid_cap(monkeypatch, capsys):
    # the run interns ε̂, the three letters and at least one product; the
    # cap holds wherever profiles are built, not only where the monoid
    # is closed, which the analysis never does
    monkeypatch.setattr(profiles, "MONOID_CAP", 3)
    code = run_main(
        "--program", fixture("serve.fj"),
        "--guideline", fixture("serve_liveness.gl"),
        "--config", fixture("serve.cfg"),
        "--fuel", "2", "--entry", "Server.serve",
    )
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("guidecheck: error: internal limit: "
                            "profile monoid exceeded size cap\n")


def test_main_scripts_a_stub_whose_words_are_all_long(tmp_path, capsys):
    # every word of tick is longer than the scripted words go, so the
    # search takes its shortest one rather than drop the runs calling it
    (tmp_path / "p.fj").write_text(
        "class R { R tick() { return null; } }\n"
        "class M { Object go() { R r = new R(); R x = r.tick(); emit b; "
        "return null; } }\n", encoding="utf-8")
    (tmp_path / "s.cfg").write_text("R.tick() -> Null emits a a a a a\n",
                                    encoding="utf-8")
    (tmp_path / "g.gl").write_text(
        "alphabet: a b\nstates: q\ninitial: q\naccepting: q\n"
        "trans: q a q\n", encoding="utf-8")
    code = run_main("--program", str(tmp_path / "p.fj"),
                    "--guideline", str(tmp_path / "g.gl"),
                    "--config", str(tmp_path / "s.cfg"), "--entry", "M.go")
    assert code == 1
    assert ("counterexample: M.go: run emits 'a a a a a b', rejected at "
            "position 6 (found at fuel 1; no run with less fuel shows a "
            "violation)") in capsys.readouterr().out


def test_main_reads_a_stub_regex_nested_past_the_recursion_limit(
        tmp_path, capsys):
    # the regex is parsed and read on explicit stacks: 3,000 parentheses
    # deep, it ends in its verdict
    regex = "(" * 3000 + "a | eps" + ")*" * 3000 + " b"
    code, out, err = analyze_sources(
        tmp_path, capsys,
        "class R { R tick() { return null; } }\n"
        "class M { Object go() { R r = new R(); R x = r.tick(); "
        "return null; } }\n", AB_ANY, "--entry", "M.go",
        config=f"R.tick() -> Null emits {regex}\n")
    assert (code, err) == (0, "")
    assert out.endswith("verdict: pass\n")


def test_main_exit_two_on_eps_where_the_alphabet_has_a_letter_eps(
        tmp_path, capsys):
    # the stub's eps could be the empty word or the event eps, which n()
    # emits and the guideline rejects
    program = ("class A extends Object { Object m() { return null; }"
               " Object n() { emit eps; return null; } }\n")
    guideline = ("alphabet: eps ok\nstates: s\ninitial: s\naccepting: s\n"
                 "trans: s ok s\n")
    code, out, err = analyze_sources(tmp_path, capsys, program, guideline,
                                     config="A.m() -> Null emits eps\n")
    assert (code, out) == (2, "")
    assert err == ("guidecheck: error: line 1: 'eps' in regex 'eps' is both "
                   "the empty word and a letter of the alphabet\n")


# serve.fj with stubs that emit, through a union, a star and a throws clause
SERVE_RICH_REPORTS = {
    "serve_safety.gl": (
        '(Server, Null, ask, [Null])  returns:FAIL, throws:ok, diverges:ok\n'
        '(Server, Null, ask, [Unknown])  returns:FAIL, throws:ok, diverges:ok\n'
        '(Server, Unknown, ask, [Null])  returns:FAIL, throws:ok, diverges:ok\n'
        '(Server, Unknown, ask, [Unknown])  returns:FAIL, throws:ok, diverges:ok\n'
        '(Server, Null, poll, [])  returns:ok, throws:ok, diverges:ok\n'
        '(Server, Unknown, poll, [])  returns:ok, throws:ok, diverges:ok\n'
        '(Server, Unknown, serve, [])  returns:ok, throws:FAIL, diverges:FAIL\n'
        "counterexample: Server.serve: prefix 'authcheck access access' "
        'admits no accepted extension (dead at position 3) (found at fuel 1; '
        'no run with less fuel shows a violation)\n'
        '(counterexamples come from a bounded enumeration of runs; not '
        'finding one proves nothing)\n'
        'verdict: fail\n'
    ),
    "serve_liveness.gl": (
        '(Server, Null, ask, [Null])  returns:FAIL, throws:ok, diverges:ok\n'
        '(Server, Null, ask, [Unknown])  returns:FAIL, throws:ok, diverges:ok\n'
        '(Server, Unknown, ask, [Null])  returns:FAIL, throws:ok, diverges:ok\n'
        '(Server, Unknown, ask, [Unknown])  returns:FAIL, throws:ok, diverges:ok\n'
        '(Server, Null, poll, [])  returns:FAIL, throws:ok, diverges:ok\n'
        '(Server, Unknown, poll, [])  returns:FAIL, throws:ok, diverges:ok\n'
        '(Server, Unknown, serve, [])  returns:ok, throws:ok, diverges:FAIL\n'
        "counterexample: Server.serve: diverges emitting 'authcheck access' "
        'forever; the infinite trace is rejected (found at fuel 2; no run '
        'with less fuel shows a violation)\n'
        '(counterexamples come from a bounded enumeration of runs; not '
        'finding one proves nothing)\n'
        'verdict: fail\n'
    ),
}


@pytest.mark.parametrize("gl_name", sorted(SERVE_RICH_REPORTS))
def test_main_pins_the_report_of_stubs_with_union_star_and_throws(
        gl_name, capsys):
    code = run_main("--program", fixture("serve.fj"),
                    "--guideline", fixture(gl_name),
                    "--config", fixture("serve_rich.cfg"),
                    "--entry", "Server.serve", "--fuel", "6")
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, SERVE_RICH_REPORTS[gl_name], "")


def test_main_has_no_mode_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run_main("--program", fixture("serve.fj"),
                 "--guideline", fixture("serve_safety.gl"),
                 "--mode", "concrete")
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


# -- programs and guidelines written for one test each -------------------------


def analyze_sources(tmp_path, capsys, program, guideline, *argv, config=None):
    """Run ``analyze`` on the given source texts; returns (exit code, stdout,
    stderr)."""
    files = {"prog.fj": program, "rules.gl": guideline}
    if config is not None:
        files["stubs.cfg"] = config
        argv = ("--config", str(tmp_path / "stubs.cfg"), *argv)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code = run_main("--program", str(tmp_path / "prog.fj"),
                    "--guideline", str(tmp_path / "rules.gl"), *argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Only C.m emits bad, and the stub on P.m sits between C and G; x.m()
# dispatches through G, so G's entry must cover C's past the stub.
MID_HIERARCHY_STUB = """
class G extends Object { Object m() { return null; } }
class P extends G { Object m() { return null; } }
class C extends P { Object m() { emit bad; return null; } }
class Main extends Object {
    Object run() { G x = new[l1] C(); emit start; return x.m(); }
}
"""
# bad may not follow start
NO_BAD_AFTER_START = ("alphabet: start bad\nstates: s t\ninitial: s\n"
                      "accepting: s t\ntrans: s start t\ntrans: t start t\n"
                      "trans: s bad s\n")


@pytest.mark.parametrize("mode", [(), ("--demand-driven",)],
                         ids=["full", "demand-driven"])
def test_main_sees_a_subclass_entry_past_a_mid_hierarchy_stub(
        mode, tmp_path, capsys):
    code, out, _ = analyze_sources(
        tmp_path, capsys, MID_HIERARCHY_STUB, NO_BAD_AFTER_START,
        "--entry", "Main.run", *mode, config="P.m() -> Null emits eps\n")
    assert code == 1
    assert ("(Main, Unknown, run, [])  returns:FAIL, throws:ok, diverges:ok"
            in out.splitlines())
    assert ("counterexample: Main.run: run emits 'start bad', rejected at "
            "position 2" in out)


# The stub covers only a null argument; the call passes an object.
FETCH_AN_OBJECT = """
class T extends Object { }
class Net extends Object { Object fetch(Object t) { return null; } }
class Main extends Object {
    Object run() {
        Net n = new[k] Net();
        T t = new[o] T();
        Object r = n.fetch(t);
        emit bad;
        return r;
    }
}
"""
NO_BAD_AFTER_OK = NO_BAD_AFTER_START.replace("start", "ok")


def test_main_exit_two_on_a_stub_call_no_pattern_matches(tmp_path, capsys):
    code, out, err = analyze_sources(
        tmp_path, capsys, FETCH_AN_OBJECT, NO_BAD_AFTER_OK,
        "--entry", "Main.run", config="Net.fetch(Null) -> Null emits ok\n")
    assert code == 2
    assert out == ""
    assert err == ("guidecheck: error: call (Net, @k, fetch, [@o]) matches "
                   "no argument pattern of the stub Net.fetch\n")
    # with a pattern that covers the call, the run emitting ok bad is found
    code, out, _ = analyze_sources(
        tmp_path, capsys, FETCH_AN_OBJECT, NO_BAD_AFTER_OK,
        "--entry", "Main.run", config="Net.fetch(_) -> Null emits ok\n")
    assert code == 1
    assert "counterexample: Main.run: run emits 'ok bad'" in out


# The call can never reach the stub: the receiver is a FakeNet, whose
# override emits ok, or null.
FETCH_PAST_THE_STUB = {
    "override": """
class T extends Object { }
class Net extends Object { Object fetch(Object t) { return null; } }
class FakeNet extends Net { Object fetch(Object t) { emit ok; return null; } }
class Main extends Object {
    Object run() {
        Net n = new[k] FakeNet();
        T t = new[o] T();
        Object r = n.fetch(t);
        emit bad;
        return r;
    }
}
""",
    "null-receiver": """
class T extends Object { }
class Net extends Object { Object fetch(Object t) { return null; } }
class Main extends Object {
    Object run() {
        Net n = null;
        T t = new[o] T();
        Object r = n.fetch(t);
        emit bad;
        return r;
    }
}
""",
}


@pytest.mark.parametrize("mode", [(), ("--demand-driven",)],
                         ids=["full", "demand-driven"])
@pytest.mark.parametrize("name, code, verdict", [
    ("override", 1, "counterexample: Main.run: run emits 'ok bad'"),
    ("null-receiver", 0, "verdict: pass"),
])
def test_main_checks_stub_patterns_only_where_a_call_dispatches_to_the_stub(
        name, code, verdict, mode, tmp_path, capsys):
    got, out, err = analyze_sources(
        tmp_path, capsys, FETCH_PAST_THE_STUB[name], NO_BAD_AFTER_OK,
        "--entry", "Main.run", *mode,
        config="Net.fetch(Null) -> Null emits ok\n")
    assert (got, err) == (code, "")
    assert verdict in out


# x is typed G but holds a P, whose m is the stub.
FETCH_THROUGH_A_SUPERCLASS = """
class T extends Object { }
class G extends Object { Object m(Object t) { return null; } }
class P extends G { Object m(Object t) { return null; } }
class Main extends Object {
    Object run() {
        G x = new[l] P();
        T t = new[o] T();
        Object r = x.m(t);
        emit bad;
        return r;
    }
}
"""


@pytest.mark.parametrize("mode", [(), ("--demand-driven",)],
                         ids=["full", "demand-driven"])
def test_main_exit_two_on_a_stub_reached_through_a_superclass_type(
        mode, tmp_path, capsys):
    code, out, err = analyze_sources(
        tmp_path, capsys, FETCH_THROUGH_A_SUPERCLASS, NO_BAD_AFTER_OK,
        "--entry", "Main.run", *mode, config="P.m(Null) -> Null emits ok\n")
    assert code == 2
    assert out == ""
    assert err == ("guidecheck: error: call (P, @l, m, [@o]) matches no "
                   "argument pattern of the stub P.m\n")


# Accepts the finite word a, but keeps a run alive on it.
A_IS_UNFINISHED = ("alphabet: a\nstates: p q\ninitial: p\naccepting: p\n"
                   "trans: p a q\n")


@pytest.mark.parametrize("body, guideline, witness", [
    ("Object go() { emit a; emit b; return null; }",
     read_fixture("first_letter.gl"),
     {"kind": "finite-trace", "trace": ["a", "b"], "position": 2, "fuel": 1}),
    ("Object go() { emit a; emit b; return this.go(); }",
     read_fixture("first_letter.gl"),
     {"kind": "dead-prefix", "trace": ["a", "b"], "position": 2, "fuel": 1}),
    ("Object go() { emit a; return this.spin(); }"
     " Object spin() { return this.spin(); }",
     A_IS_UNFINISHED,
     {"kind": "silent-divergence", "trace": ["a"], "cycle": [], "fuel": 3}),
], ids=["finite-trace", "dead-prefix", "silent-divergence"])
def test_main_reports_each_witness_kind_as_json(body, guideline, witness,
                                                tmp_path, capsys):
    code, out, _ = analyze_sources(
        tmp_path, capsys, f"class M extends Object {{ {body} }}\n", guideline,
        "--entry", "M.go", "--report", "json")
    assert code == 1
    (ce,) = json.loads(out)["counterexamples"]
    assert ce == {"entry": "M.go", **witness}


# The stub may throw after emitting fail; fail must be followed by ok.
THROWING_STUB = "Net.get() -> Null emits eps throws Unknown fail\n"
OK_AFTER_FAIL = ("alphabet: fail ok\nstates: s f\ninitial: s\naccepting: s\n"
                 "trans: s ok s\ntrans: s fail f\ntrans: f ok s\n")


@pytest.mark.parametrize("call, row", [
    ("Object r = n.get();",
     "(Main, Unknown, go, [])  returns:ok, throws:FAIL, diverges:ok"),
    ("try { Object r = n.get(); } catch (Object e) { emit ok; }",
     "(Main, Unknown, go, [])  returns:ok, throws:ok, diverges:ok"),
], ids=["uncaught", "caught"])
def test_main_seeds_a_stub_throws_clause(call, row, tmp_path, capsys):
    program = ("class Net extends Object { Object get() { return null; } }\n"
               "class Main extends Object { Object go() {"
               f" Net n = new[k] Net(); {call} return null; }} }}\n")
    code, out, _ = analyze_sources(tmp_path, capsys, program, OK_AFTER_FAIL,
                                   config=THROWING_STUB)
    # the stub's own rows throw fail with no ok after it
    assert code == 1
    lines = out.splitlines()
    assert row in lines
    assert "(Net, @k, get, [])  returns:ok, throws:FAIL, diverges:ok" in lines


STUB_THROWS = """
class E extends Object { }
class M extends Object {
    Object f() { return null; }
    Object go() { try { Object r = this.f(); } catch (E x) { emit b; } return null; }
}
"""
AB_ANY = ("alphabet: a b\nstates: q\ninitial: q\naccepting: q\n"
          "trans: q a q\ntrans: q b q\n")


def test_main_exit_two_on_a_stub_throwing_from_no_allocation_site(
        tmp_path, capsys):
    code, out, err = analyze_sources(
        tmp_path, capsys, STUB_THROWS, AB_ANY,
        config="M.f() -> Null emits a throws @nosuch a\n")
    assert (code, out) == (2, "")
    assert err == "guidecheck: error: no allocation site labelled 'nosuch'\n"


def test_main_exit_two_on_a_stub_on_a_class_inheriting_the_method(
        tmp_path, capsys):
    src = """
class Base extends Object { Object f() { emit b; return null; } }
class Sub extends Base { }
class M extends Object {
    Object go() { Sub s = new[s] Sub(); Object r = s.f(); return null; }
}
"""
    code, out, err = analyze_sources(tmp_path, capsys, src, AB_ANY,
                                     config="Sub.f() -> Null emits a\n")
    assert (code, out) == (2, "")
    assert err == ("guidecheck: error: stub Sub.f names a class that inherits "
                   "the method; it is declared in Base\n")
    code, _, _ = analyze_sources(tmp_path, capsys, src, AB_ANY,
                                 config="Base.f() -> Null emits a\n")
    assert code == 0
