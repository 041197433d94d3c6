"""How the command line reads its arguments and its input files.

An ordinary ``analyze`` command line is read without argparse, which only
help, usage and errors load: seeded command lines check the reader against
argparse, and fresh interpreters check what a run loads.  An input file
may start with a UTF-8 byte-order mark, which is dropped.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys

import pytest

from conftest import PACKAGE_DIR, fixture, read_fixture
from test_cli import TOP_HELP
from guidecheck import cli

# The options, their abbreviations and other words argparse reads, and the
# values each option is given: the first ones of each list valid, the rest
# not, or not read by the reader
OPTIONS = ["--program", "--guideline", "--config", "--fuel", "--entry",
           "--report", "--out"]
ODD_WORDS = ["--prog", "--guide", "--conf", "--fu", "--ent", "--rep", "--o",
             "--demand", "--help", "-h", "--bogus", "--", "-x", "analyze", "",
             "x.fj", "frob", "--program=a.fj", "--fuel=3", "--report=json"]
VALUES = {"--fuel": (6, ["1", "3", "12", " 4", "+2", "1_0", "0", "-3",
                         "many", "2.5", ""]),
          "--report": (2, ["text", "json", "xml", "", "TEXT"])}
FILE_VALUES = (6, ["a.fj", "b.fj", "g.gl", "c.cfg", "A.m", "out.txt", "",
                   "x y", "analyze", "a=b", "--program", "-", "--", "-a.fj",
                   "-3"])


def _seeded_argv(rng: random.Random) -> list:
    """A command line, most often an ``analyze`` one with both required
    options, now and then with an odd word, a missing or invalid value."""
    words = ["analyze" if rng.random() < 0.97 else rng.choice(ODD_WORDS)]
    options = ["--program", "--guideline"] if rng.random() < 0.92 else []
    options += rng.choices(OPTIONS + ["--demand-driven"], k=rng.randrange(4))
    rng.shuffle(options)
    for option in options:
        if rng.random() < 0.02:
            words.append(rng.choice(ODD_WORDS))
        words.append(option)
        if option == "--demand-driven" or rng.random() < 0.01:
            continue
        valid, values = VALUES.get(option, FILE_VALUES)
        words.append(rng.choice(values[:valid] if rng.random() < 0.95
                                else values))
    return words


def test_the_reader_agrees_with_argparse_or_leaves_the_line_to_it():
    parser = cli._argument_parser()
    rng = random.Random(37)
    accepted = refused = 0
    for _ in range(20_000):
        argv = _seeded_argv(rng)
        read = cli._read_args(argv)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                parsed = vars(parser.parse_args(argv))
            except SystemExit:  # help, or a usage error
                parsed = None
        if read is not None:
            assert vars(read) == parsed, argv
            accepted += 1
        elif parsed is None:
            refused += 1
    assert accepted >= 1_000 and refused >= 1_000, (accepted, refused)


@pytest.mark.parametrize("argv", [
    ["analyze", "--program", "a.fj", "--guideline", "g.gl"],
    ["analyze", "--guideline", "g.gl", "--program", "a.fj", "--program",
     "b.fj", "--entry", "A.m", "--entry", "B.n", "--demand-driven",
     "--fuel", "3", "--fuel", " 5", "--report", "json", "--config", "c.cfg",
     "--out", "r.json", "--guideline", "h.gl"],
])
def test_the_reader_gives_what_argparse_gives(argv):
    assert vars(cli._read_args(argv)) == vars(
        cli._argument_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["analyze"], ["analyze", "--program", "a.fj"],
    ["analyze", "--prog", "a.fj", "--guideline", "g.gl"],
    ["analyze", "--program=a.fj", "--guideline", "g.gl"],
    ["analyze", "--program", "-a.fj", "--guideline", "g.gl"],
    ["analyze", "--program", "a.fj", "--guideline", "g.gl", "--fuel", "0"],
    ["analyze", "--program", "a.fj", "--guideline", "g.gl", "--fuel", "x"],
    ["analyze", "--program", "a.fj", "--guideline", "g.gl", "--report", "xml"],
    ["analyze", "--program", "a.fj", "--guideline", "g.gl", "--out"],
    ["analyze", "--program", "a.fj", "--guideline", "g.gl", "-h"],
    ["analyze", "--program", "a.fj", "--guideline", "g.gl", "extra"],
])
def test_the_reader_leaves_any_other_line_to_argparse(argv):
    assert cli._read_args(argv) is None


def _fresh_no_site(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh ``python -I -S`` that imports this guidecheck:
    no site .pth file loads a module before the package does."""
    code = f"import sys\nsys.path.insert(0, {str(PACKAGE_DIR.parent)!r})\n{code}"
    return subprocess.run([sys.executable, "-I", "-S", "-c", code, *args],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "COLUMNS": "80"})


def test_a_run_loads_neither_argparse_nor_gettext(tmp_path):
    code = (
        "from guidecheck import cli\n"
        "base = ['analyze', '--program', sys.argv[1], '--config', "
        "sys.argv[2], '--fuel', '4', '--entry', 'Server.serve', "
        "'--report', 'json', '--out']\n"
        "codes = [cli.main(base + [sys.argv[3], '--guideline', sys.argv[4]]),"
        " cli.main(base + [sys.argv[5], '--guideline', sys.argv[6]])]\n"
        "print(*codes, *[name for name in ('argparse', 'gettext') "
        "if name in sys.modules])\n")
    passing, failing = tmp_path / "pass.json", tmp_path / "fail.json"
    done = _fresh_no_site(
        code, fixture("serve.fj"), fixture("serve.cfg"),
        str(passing), fixture("serve_safety.gl"),
        str(failing), fixture("serve_liveness.gl"))
    assert (done.stdout, done.stderr) == ("0 1\n", "")
    assert '"verdict": "pass"' in passing.read_text(encoding="utf-8")
    assert '"verdict": "fail"' in failing.read_text(encoding="utf-8")


def test_help_in_a_fresh_interpreter_prints_as_before():
    done = _fresh_no_site("from guidecheck import cli\n"
                          "sys.exit(cli.main(sys.argv[1:]))\n", "--help")
    assert (done.returncode, done.stdout, done.stderr) == (0, TOP_HELP, "")


# Each input file option: its fixture, the other options of a check that
# reads it, and a text of it with an error on line 1, with that error
BOM_INPUTS = {
    "program": ("serve.fj", ("--guideline", fixture("serve_liveness.gl"),
                             "--config", fixture("serve.cfg")),
                "class Conn extends { }\n",
                "1:20: expected superclass name, found '{'"),
    "guideline": ("serve_liveness.gl", ("--program", fixture("serve.fj"),
                                        "--config", fixture("serve.cfg")),
                  "alphabet log\n", "line 1: expected 'key: ...'"),
    "config": ("serve.cfg", ("--program", fixture("serve.fj"),
                             "--guideline", fixture("serve_liveness.gl")),
               "Server.poll() Unknown emits eps\n",
               "line 1: expected '->'"),
}


def _check(option: str, path, capsys) -> tuple:
    others = BOM_INPUTS[option][1]
    code = cli.main(["analyze", f"--{option}", str(path), *others,
                     "--fuel", "4", "--entry", "Server.serve"])
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("option", BOM_INPUTS)
def test_a_byte_order_mark_is_dropped(option, tmp_path, capsys):
    name, _, broken, error = BOM_INPUTS[option]
    text = read_fixture(name).encode("utf-8")
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    plain = _check(option, fixture(name), capsys)
    assert plain[0] == 1 and "counterexample:" in plain[1]
    assert _check(option, marked, capsys) == plain
    # an error on line 1 reads the same, at the same column
    unmarked = tmp_path / f"plain-{name}"
    unmarked.write_text(broken, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + broken.encode("utf-8"))
    for path in (unmarked, marked):
        assert _check(option, path, capsys) == (
            2, "", f"guidecheck: error: {error}\n")
    # bytes that are not UTF-8 are placed by their offset in the file
    marked.write_bytes(b"\xef\xbb\xbfabc\xff")
    assert _check(option, marked, capsys) == (
        2, "", f"guidecheck: error: {marked}: not UTF-8 text (invalid start "
               f"byte at byte 6)\n")
