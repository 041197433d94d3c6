"""A run of emits is one node; the per-statement shape is its reference.

The parser reads the consecutive ``emit`` statements of a block into one
``Emit`` node that holds their word, bound by one ``$t`` variable unless it
ends its block.  ``per_statement.split_emits`` rebuilds the shape the parser
built before: one node and, but at a block's end, one ``$t`` binding per
``emit``.  Both shapes must give the same tables, η, offenses, text and
JSON reports, interpreter runs and witnesses on every program the tests
analyze: the soundness and taint corpora, the fixtures, the ``emit_runs``
program and the benchmark's programs.
"""

from __future__ import annotations

import contextlib
import io

import pytest

import corpus as soundness_corpus
import taint_corpus
from conftest import FIXTURES, fixture
from interp_reference import enumerate_traces
from per_statement import parse_per_statement, split_emits
from reference_cases import emit_runs, entry_points, reference_cases
from test_report_digests import SEED, _workloads
from guidecheck import cli
from guidecheck.fjast import (
    Emit,
    If,
    Let,
    Null,
    Pos,
    Program,
    Var,
    subexprs,
)
from guidecheck.fjparser import parse_program
from guidecheck.inference import check_well_typed, infer
from guidecheck.intrinsics import parse_config
from guidecheck.solver import EquationSystem, solve

RUNS = ("class A { Object m(A x, A y) {\n"
        "  emit a; emit b;\n"
        "  A z = null;\n"
        "  emit c; if (x == y) { emit a; emit b; } else { emit c; }\n"
        "  emit a;\n"
        "  emit b; return z; } }")


def _emits(body):
    return [e for e in subexprs(body) if isinstance(e, Emit)]


def test_a_run_of_emits_is_one_node_bound_once():
    body = parse_program(RUNS).by_name["A"].methods[0].body
    # a run ends at a local, at any other statement and at its block's end,
    # and a run that ends its block is the block's value
    assert body == Let(
        "$t0", None, Emit(("a", "b")), Let(
            "z", "A", Null(), Let(
                "$t1", None, Emit(("c",)), Let(
                    "$t2", None, If("x", "y", Emit(("a", "b")), Emit(("c",))),
                    Let("$t3", None, Emit(("a", "b")), Var("z"))))))
    last = body.body.body.body.body
    assert last.pos == last.init.pos == Pos(5, 3)
    assert last.init.event_pos == (Pos(5, 3), Pos(6, 3))
    assert [(e.pos, e.event_pos) for e in _emits(body)][:2] == [
        (Pos(2, 3), (Pos(2, 3), Pos(2, 11))),
        (Pos(4, 3), (Pos(4, 3),))]


def test_the_split_is_the_per_statement_shape():
    (cls,) = split_emits(parse_program(RUNS).classes)
    body = cls.methods[0].body
    assert body == Let(
        "$t0", None, Emit(("a",)), Let(
            "$t1", None, Emit(("b",)), Let(
                "z", "A", Null(), Let(
                    "$t2", None, Emit(("c",)), Let(
                        "$t4", None, If("x", "y", Let(
                            "$t3", None, Emit(("a",)), Emit(("b",))),
                            Emit(("c",))), Let(
                            "$t5", None, Emit(("a",)), Let(
                                "$t6", None, Emit(("b",)), Var("z"))))))))
    # each emit where it is named, its binding too
    assert [(e.events, e.pos, e.event_pos) for e in _emits(body)] == [
        (("a",), Pos(2, 3), (Pos(2, 3),)), (("b",), Pos(2, 11), (Pos(2, 11),)),
        (("c",), Pos(4, 3), (Pos(4, 3),)), (("a",), Pos(4, 25), (Pos(4, 25),)),
        (("b",), Pos(4, 33), (Pos(4, 33),)), (("c",), Pos(4, 50), (Pos(4, 50),)),
        (("a",), Pos(5, 3), (Pos(5, 3),)), (("b",), Pos(6, 3), (Pos(6, 3),))]
    assert [e.pos for e in subexprs(body)
            if isinstance(e, Let) and isinstance(e.init, Emit)] == [
        Pos(2, 3), Pos(2, 11), Pos(4, 3), Pos(4, 25), Pos(5, 3), Pos(6, 3)]
    # the names the per-statement parser gave this body, each statement's
    # once its nested blocks had theirs
    src = ("class A { Object m(A x, A y) { emit a; if (x == y) { emit a; "
           "emit a; } else { emit a; } emit a; return null; } }")
    (cls,) = split_emits(parse_program(src).classes)
    assert [e.var for e in subexprs(cls.methods[0].body)
            if isinstance(e, Let)] == ["$t0", "$t2", "$t1", "$t3"]


# The messages of errors inside a run, as the per-statement parser gave them.
RUN_ERRORS = [
    ("class A { Object m() { emit a;\n  emit z; emit a; return null; } }",
     "2:3: event z is not in the declared alphabet"),
    ("class A { Object m() { emit a; emit ; emit b; return null; } }",
     "1:37: expected event name, found ';'"),
    ("class A { Object m() { emit a; emit b return null; } }",
     "1:39: expected ';', found 'return'"),
]


@pytest.mark.parametrize("source, message", RUN_ERRORS)
def test_an_error_inside_a_run_names_its_statement(source, message, tmp_path,
                                                   monkeypatch):
    bad = tmp_path / "bad.fj"
    bad.write_text(source, encoding="utf-8")
    argv = ["analyze", "--program", str(bad),
            "--guideline", fixture("parity.gl")]
    assert _main(argv, monkeypatch, False) == _main(argv, monkeypatch, True) \
        == (2, "", f"guidecheck: error: {message}\n")


def _run_lengths(prog):
    return [len(e.events) for c in prog.classes for m in c.methods
            for e in _emits(m.body)]


def test_both_shapes_infer_the_same_tables_eta_and_offenses():
    words = 0
    for name, prog, d, specs in reference_cases():
        twin = Program(split_emits(prog.classes))
        assert set(_run_lengths(twin)) <= {1}, name
        words += sum(n > 1 for n in _run_lengths(prog))
        for entries in (None, entry_points(prog)):
            table, other = (infer(p, d, intrinsics=specs, entries=entries)
                            for p in (prog, twin))
            assert table.mtable == other.mtable, (name, entries)
            assert table.ftable == other.ftable, (name, entries)
            assert (solve(EquationSystem.from_table(table, d), d)
                    == solve(EquationSystem.from_table(other, d), d)), name
            assert ([str(o) for o in check_well_typed(prog, table, d, specs)]
                    == [str(o) for o in check_well_typed(twin, other, d,
                                                        specs)]), name
    assert words > 50  # runs of two or more emits, all split


def _main(argv, monkeypatch, per_statement):
    """cli.main's exit code, standard output and standard error, reading
    the programs in the word shape or in the per-statement one."""
    out, err = io.StringIO(), io.StringIO()
    with monkeypatch.context() as m:
        if per_statement:
            m.setattr(cli, "parse_programs", parse_per_statement)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_same_reports(argv, monkeypatch):
    for fmt in ("text", "json"):
        full = [*argv, "--report", fmt]
        word = _main(full, monkeypatch, False)
        assert word == _main(full, monkeypatch, True), full
        assert not word[2] or word[0] == 2, full  # no error on a usable input


def _modes(prog, fuel):
    """No search; a search from every entry; the same, demand-driven."""
    entries = [a for e in entry_points(prog) for a in ("--entry", e)]
    search = [*entries, "--fuel", str(fuel)]
    return [[], search, [*search, "--demand-driven"]] if entries else [[]]


def test_both_shapes_report_the_same_on_the_fixtures(monkeypatch):
    for fj in sorted(FIXTURES.glob("*.fj")):
        prog = parse_program(fj.read_text(encoding="utf-8"), fj.name)
        configs = [[]]
        if fj.name == "serve.fj":
            configs += [["--config", fixture(c)]
                        for c in ("serve.cfg", "serve_rich.cfg")]
        for gl in sorted(FIXTURES.glob("*.gl")):
            for config in configs:
                for mode in _modes(prog, 6):
                    _assert_same_reports(
                        ["analyze", "--program", str(fj), "--guideline",
                         str(gl), *config, *mode], monkeypatch)


def test_both_shapes_report_the_same_on_the_corpora(tmp_path, monkeypatch):
    programs = []  # (name, source, guideline, fuel, config)
    for name, (src, _, fuel, cfg) in sorted(soundness_corpus.PROGRAMS.items()):
        programs.append((name, src, "count_mod3.gl", fuel, cfg))
    for name, src in sorted(taint_corpus.PROGRAMS.items()):
        programs.append((name, src, "taint.gl", 6, None))
    for gl in ("count_mod3.gl", "double_letter.gl", "first_letter.gl"):
        programs.append(("emit_runs", emit_runs(3, 3, 6), gl, 6, None))
    for name, src, gl, fuel, cfg in programs:
        fj = tmp_path / f"{name}.fj"
        fj.write_text(src, encoding="utf-8")
        config = []
        if cfg:
            (tmp_path / f"{name}.cfg").write_text(cfg, encoding="utf-8")
            config = ["--config", str(tmp_path / f"{name}.cfg")]
        for mode in _modes(parse_program(src), fuel):
            _assert_same_reports(["analyze", "--program", str(fj),
                                  "--guideline", fixture(gl), *config, *mode],
                                 monkeypatch)


@pytest.mark.parametrize("name", ["serve-cex", "region-ladder", "call-chain",
                                  "guideline-batch"])
def test_both_shapes_report_the_same_on_the_benchmark(name, tmp_path,
                                                      monkeypatch):
    workloads = _workloads()
    workload = workloads.build(name, SEED)
    workloads.write(workload, str(tmp_path))
    monkeypatch.chdir(tmp_path)  # file arguments are bare names
    for check in workload.checks:
        _assert_same_reports(check.argv[:-2], monkeypatch)


def _run(ev):
    """What a run did: its script, trace, outcome, heap, repeats and where
    it got stuck."""
    heap = getattr(ev.outcome, "heap", {})
    return (ev.script, ev.trace, type(ev.outcome).__name__,
            getattr(ev.outcome, "value", getattr(ev.outcome, "location", None)),
            {loc: (o.cls, o.label, o.fields) for loc, o in heap.items()},
            ev.cycles, str(ev.stuck), getattr(ev.stuck, "pos", None))


def test_both_shapes_run_the_same():
    cases = [(src, entry, fuel, cfg)
             for src, entry, fuel, cfg in soundness_corpus.PROGRAMS.values()]
    src = emit_runs(3, 3, 6)
    cases += [(src, e, 8, None) for e in entry_points(parse_program(src))]
    for src, entry, fuel, cfg in cases:
        prog = parse_program(src)
        twin = parse_per_statement([(src, "<input>")])
        specs = parse_config(cfg, prog.alphabet | {"a", "b"}) if cfg else None
        runs = [[_run(ev) for ev in enumerate_traces(p, entry, fuel, specs)]
                for p in (prog, twin)]
        assert runs[0] == runs[1], entry
        assert runs[0]
