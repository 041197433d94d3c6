"""The report ``cli.main`` writes, streamed, byte for byte as before.

``Report.write`` passes a report on piece by piece, a signature at a time.
Its text must equal the report rendered whole (``report_reference``) and its
JSON the bytes of ``json.dumps(report.to_json(), indent=2, sort_keys=True)``:
on every reference case, on hand-built reports with every counterexample
shape, and on names that JSON escapes.  Writing takes a fixed amount of
memory whatever the signature count, and a report that cannot be written
ends in one error line and exit code 2.
"""

import os
import subprocess
import sys
import tracemalloc

import pytest
from conftest import fixture, fresh_python_env
from reference_cases import entry_points, ladder, reference_cases
from report_reference import json_reference, streamed, text_reference
from wide_ladder import main as wide_ladder_main
from wide_ladder import problems as wide_ladder_problems

from guidecheck.cli import Counterexample, Report, SigReport, analyze
from guidecheck.fjparser import parse_program
from guidecheck.guideline import parse_guideline
from guidecheck.regions import NULL_REGION, UNKNOWN, Sig, created_at

ONE_LETTER = parse_guideline(
    "alphabet: a\nstates: even odd\ninitial: even\naccepting: odd\n"
    "trans: even a odd\ntrans: odd a even\n"
)


def assert_streams_as_rendered(report, what):
    assert streamed(report, "text") == text_reference(report), what
    assert streamed(report, "json") == json_reference(report), what


def test_reference_case_reports_stream_as_rendered():
    kinds = []
    for name, prog, d, specs in reference_cases():
        report = analyze(prog, d.guideline, intrinsics=specs, fuel=3,
                         entries=entry_points(prog))
        assert_streams_as_rendered(report, name)
        kinds += [c.kind for c in report.counterexamples]
    assert len(kinds) >= 5 and "divergence" in kinds, kinds


def _counterexamples():
    """Every kind, with and without each optional field."""
    for kind in ("finite-trace", "dead-prefix", "silent-divergence",
                 "divergence"):
        for trace in ((), ("a", "b")):
            for cycle in (None, (), ("a",), ("b", "a")):
                for position in (None, 0, 2):
                    for fuel in (None, 1, 12):
                        yield Counterexample("M.go", kind, trace, cycle=cycle,
                                             position=position, fuel=fuel)


SIGS = [
    SigReport(Sig("M", UNKNOWN, "go", ()), True, True, False),
    SigReport(Sig("M", created_at("l"), "put", (NULL_REGION, UNKNOWN)),
              False, True, True),
    SigReport(Sig("N", NULL_REGION, "f", (created_at("k"),)),
              True, False, True),
]


@pytest.mark.parametrize("verdict", ["pass", "fail"])
def test_hand_built_reports_stream_as_rendered(verdict):
    assert_streams_as_rendered(Report(verdict, [], []), "empty")
    assert_streams_as_rendered(Report(verdict, SIGS, []), "no counterexample")
    cexs = list(_counterexamples())
    assert_streams_as_rendered(Report(verdict, [], cexs), "no signature")
    assert_streams_as_rendered(Report(verdict, SIGS, cexs), "both")
    for ce in cexs:
        assert_streams_as_rendered(Report(verdict, SIGS[:1], [ce]),
                                   ce.to_json())


# A class, an event and a site label that JSON escapes (ensure_ascii): a
# non-ASCII letter, a quote, a backslash and a tab.
HOSTILE = ('class Café extends Object {\n'
           '  Object go() { emit ä; Café c = new[q"u\\é\tx] Café();'
           ' Object r = c.put(c, this); return c.go(); }\n'
           '  Object put(Café p, Café q) { return null; } }\n')
HOSTILE_GUIDELINES = [
    "alphabet: ä\nstates: s\ninitial: s\naccepting: s\ntrans: s ä s\n",
    "alphabet: ä\nstates: s t\ninitial: s\naccepting: t\ntrans: s ä t\n",
]


@pytest.mark.parametrize("guideline", HOSTILE_GUIDELINES,
                         ids=["pass", "fail"])
def test_hostile_names_stream_as_rendered(guideline):
    report = analyze(parse_program(HOSTILE), parse_guideline(guideline),
                     entries=["Café.go"])
    assert any(s.sig.args for s in report.signatures)
    assert_streams_as_rendered(report, guideline)
    assert "\\u00e9" in streamed(report, "json")


def test_writing_a_json_report_takes_fixed_memory(tmp_path):
    sizes = []
    for nodes, tags in ((2, 6), (3, 10)):
        report = analyze(parse_program(ladder(nodes, tags)), ONE_LETTER)
        path = tmp_path / f"ladder{nodes}.json"
        with open(path, "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                report.write(fh.write, "json")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        sizes.append((len(report.signatures), path.stat().st_size))
        # the report alone, as one string, would be several times this
        assert peak < 64 * 1024, (nodes, tags, peak)
    assert sizes == [(301, 66633), (901, 199063)]


def _run_cli(*args, **kwargs):
    """guidecheck analyze on the serve fixture against its liveness
    guideline, in a fresh interpreter whose standard output is buffered."""
    env = fresh_python_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "guidecheck.cli", "analyze",
         "--program", fixture("serve.fj"),
         "--guideline", fixture("serve_liveness.gl"),
         "--config", fixture("serve.cfg"), "--entry", "Server.serve", *args],
        stderr=subprocess.PIPE, text=True, env=env, timeout=120, **kwargs)


def _assert_one_error_line(done, errno):
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"guidecheck: error: [Errno {errno}] "
                                        f"{os.strerror(errno)}"]


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that is always full")
@pytest.mark.parametrize("form", ["text", "json"])
def test_a_full_device_is_one_error_line(form):
    done = _run_cli("--report", form, "--out", "/dev/full")
    _assert_one_error_line(done, 28)


@pytest.mark.parametrize("form", ["text", "json"])
def test_a_closed_reader_is_one_error_line(form):
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run_cli("--report", form, stdout=write)
    finally:
        os.close(write)
    _assert_one_error_line(done, 32)


def test_the_wide_ladder_script_judges_exit_codes_and_memory():
    def runs(text_exit, text_rss, json_exit, json_rss):
        return {"text": {"exit": text_exit, "peak_rss_mb": text_rss},
                "json": {"exit": json_exit, "peak_rss_mb": json_rss}}

    assert wide_ladder_problems(runs(0, 50.0, 1, 54.9)) == []
    assert wide_ladder_problems(runs(1, 50.0, 0, 55.1)) == [
        "json peak RSS 55.1 MiB exceeds the text run's 50.0 MiB by more "
        "than 10%"]
    assert wide_ladder_problems(runs(2, 50.0, 3, 50.0)) == [
        "text: exit code 2", "json: exit code 3"]
    assert wide_ladder_main(["2", "2"]) == 0
