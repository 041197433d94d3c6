"""A run of ``emit NAME ;`` statements is one token.

``fjparser._lex`` reads a run of emit statements, with the blanks and
newlines between them, as one "run" token, which the parser reads as one
``Emit`` where a statement starts and splits into the run's per-statement
tokens anywhere else.  The reference is ``lexer_reference.lex_per_position``,
which makes a token of each ``emit``, name and ';': split back by
``lexer_reference.expand_runs``, the run tokens must give its tokens and its
errors, and both token streams must parse to equal classes with equal
positions, or to the same error.
"""

from __future__ import annotations

import random

import pytest

import corpus as soundness_corpus
import taint_corpus
from conftest import FIXTURES, perfbench_workloads
from lexer_reference import expand_runs, lex_per_position
from reference_cases import emit_runs
from test_fjparser import _lexed
from guidecheck.fjast import Emit, FjError, Pos, Program, subexprs
from guidecheck.fjparser import _KEYWORDS, _lex, _Parser, parse_program


# Pieces shaped like runs: statements a run token takes, ones it leaves to
# the per-statement tokens (a keyword, digit-led and '²'-led names, a
# missing ';' or name, a newline inside a statement), and what may stand
# between and after them, blanks no token class takes included.
RUN_PIECES = (
    "emit a;", "emit _b ;", "emit \u00e9t\u00e9;", "emit\tx1\t;",
    "emit a;emit b;",
    "emit return;", "emit emit;", "emit 1a;", "emit \u00b2a;", "emit a",
    "emit ;", "emit a.b;", "emit\na;",
    " ", "  ", "\t", "\n", "\r\n", "\r", "// note\n", "// emit a;", "//",
    "emit", "a", ";", "x", "emitter", "=", "{", "}", "$", "\x0c", "\u00a0",
)


def test_run_tokens_split_into_the_per_position_tokens():
    rng = random.Random(34)
    seen = {"run": 0, "long run": 0, "run at the end": 0, "error": 0,
            "split run": 0}
    for _ in range(1500):
        text = "".join(rng.choice(RUN_PIECES)
                       for _ in range(rng.randint(0, 10)))
        want = _lexed(lex_per_position, text)
        assert _lexed(lambda t: expand_runs(_lex(t)), text) == want, repr(text)
        if isinstance(want, tuple):
            seen["error"] += 1
            continue
        toks = _lex(text)
        runs = [t for t in toks if t.kind == "run"]
        for t in runs:  # emit, a name no keyword, ';', and again
            parts = [u.val for u in lex_per_position(t.val)[:-1]]
            assert parts[0::3] == ["emit"] * (len(parts) // 3), repr(t.val)
            assert parts[2::3] == [";"] * (len(parts) // 3), repr(t.val)
            assert _KEYWORDS.isdisjoint(parts[1::3]), repr(t.val)
        seen["run"] += bool(runs)
        seen["long run"] += any(t.val.count(";") > 1 for t in runs)
        seen["run at the end"] += len(toks) > 1 and toks[-2].kind == "run"
        seen["split run"] += any(
            t.val == "emit" and u.kind == "id" and w.val == ";"
            for t, u, w in zip(toks, toks[1:], toks[2:]))
    assert min(seen.values()) > 50, seen


def _positions(classes) -> list:
    """Every position of classes: of each class, field, method and node,
    and where each event of an ``Emit`` is named."""
    out = []
    for c in classes:
        out += [c.pos, *(f.pos for f in c.fields)]
        for m in c.methods:
            out.append(m.pos)
            out += [(e.pos, e.event_pos if isinstance(e, Emit) else None)
                    for e in subexprs(m.body)]
    return out


def _parsed(lex, text, alphabet=None):
    """The classes parsed from lex's tokens of text with their positions,
    or the error the parse or the Program over them raises."""
    try:
        classes = _Parser(lex(text), "t.fj").program()
        Program(classes, alphabet)
    except FjError as exc:
        return str(exc)
    return classes, _positions(classes)


def _sources():
    """Every program the tests and the benchmark analyze, by name."""
    for fj in sorted(FIXTURES.glob("*.fj")):
        yield fj.name, fj.read_text(encoding="utf-8")
    for name, (src, *_) in sorted(soundness_corpus.PROGRAMS.items()):
        yield name, src
    for name, src in sorted(taint_corpus.PROGRAMS.items()):
        yield name, src
    yield "emit_runs", emit_runs(3, 3, 6)
    workloads = perfbench_workloads()
    for seed in (1, 2):
        for name in workloads.WORKLOADS:
            for check in workloads.build(name, seed).checks:
                for file, text in sorted(check.files.items()):
                    if file.endswith(".fj"):
                        yield f"{name}/{seed}/{file}", text


def test_every_program_parses_alike_from_both_token_streams():
    runs = 0
    for name, text in _sources():
        got = _parsed(_lex, text)
        assert not isinstance(got, str), (name, got)
        assert got == _parsed(lex_per_position, text), name
        runs += sum(t.kind == "run" for t in _lex(text))
    assert runs > 200


# Statements that put a run where one may stand and where none may, among
# runs a run token does not take, with an event outside the alphabet {a, b}.
BODY_PIECES = (
    "emit a;", "emit b ;", "emit a; emit b;", "\n    emit a;",
    "emit a; // c\n", "emit\r\n a;", "emit z;", "emit return;", "emit 1a;",
    "emit a", "emit ;", "A y = null;", "A emit a;", "return x;",
    "return emit a;", "x.f = emit a;", "A y = x.f;", "x.m(x);",
    "if (x == x) { emit a; emit b; } else { emit b; }",
    "try { emit a; } catch (A e) { emit b; }", " ", "\n", "\r\n",
)


def test_random_bodies_parse_alike_from_both_token_streams():
    rng = random.Random(341)
    outcomes = {"parsed": 0, "error": 0}
    for _ in range(600):
        body = "".join(rng.choice(BODY_PIECES)
                       for _ in range(rng.randint(0, 8)))
        text = f"class A extends Object {{ A f; Object m(A x) {{{body}}} }}"
        got = _parsed(_lex, text, {"a", "b"})
        assert got == _parsed(lex_per_position, text, {"a", "b"}), repr(text)
        outcomes["error" if isinstance(got, str) else "parsed"] += 1
    assert min(outcomes.values()) > 100, outcomes


# Where a run token stands where no statement starts, or holds a statement
# a run token does not take, the messages the per-statement tokens gave.
MISPLACED = [
    ("class A { Object m(A x) { A emit a; return x; } }",
     "1:29: expected variable, found 'emit'"),
    ("class A { Object m(A x) { return emit a; } }",
     "1:34: expected variable, found 'emit'"),
    ("class A { Object m(A x) { x.f = emit a; emit b; } }",
     "1:33: expected variable, found 'emit'"),
    ("class emit a; { }", "1:7: expected class name, found 'emit'"),
    ("class A { Object m(A x) { A y = new emit a; } }",
     "1:37: expected class name, found 'emit'"),
    ("class A { Object m(A x) { if (emit a; == x) { } else { } } }",
     "1:31: expected variable, found 'emit'"),
    ("class A { Object m(A x) { emit a;\r\n  emit return; emit b; } }",
     "2:8: expected event name, found 'return'"),
    ("class A { Object m(A x) { emit a; emit b;\n    emit 1a; } }",
     "2:10: unexpected character '1'"),
    ("class A { Object m(A x) { emit a; emit b; }",
     "1:44: expected member class, found 'end of input'"),
]


@pytest.mark.parametrize("text, message", MISPLACED)
def test_a_misplaced_or_ill_formed_run_reports_as_before(text, message):
    assert _parsed(_lex, text) == _parsed(lex_per_position, text) == message


def test_an_event_outside_the_alphabet_in_mid_run_keeps_its_position():
    text = ("class A { Object m(A x) {\n    emit a; emit b;\n"
            "    emit a;   emit z; emit a;\n    return null; } }")
    (run,) = [t for t in _lex(text) if t.kind == "run"]
    assert run.val.count(";") == 5
    with pytest.raises(FjError) as exc:
        parse_program(text, alphabet={"a", "b"})
    assert str(exc.value) == "3:15: event z is not in the declared alphabet"
    assert _parsed(lex_per_position, text, {"a", "b"}) == str(exc.value)


def _long_method(n: int, last: str) -> str:
    """A method of n statements ``emit a;`` and ``emit last;``, one a line
    from line 3, column 5."""
    return ("class M extends Object {\n  Object go() {\n"
            + "    emit a;\n" * n
            + f"    emit {last};\n    return null;\n  }}\n}}\n")


def test_a_method_of_50000_emits_is_a_few_tokens(monkeypatch):
    text = _long_method(50000, "b")
    assert len(_lex(text)) == 17  # 150,019 tokens, one per emit, name and ';'
    built = []
    init = Pos.__init__

    def counted(self, line, col):
        built.append((line, col))
        init(self, line, col)

    monkeypatch.setattr(Pos, "__init__", counted)
    body = parse_program(text).classes[0].methods[0].body
    # the parse works no event's position out: a parse that built one Pos
    # per event built 50,001 more
    assert len(built) < 50, len(built)
    (emit,) = [e for e in subexprs(body) if isinstance(e, Emit)]
    assert emit.events == ("a",) * 50000 + ("b",)
    assert emit.event_pos == tuple(Pos(3 + i, 5) for i in range(50001))


def test_an_event_outside_the_alphabet_ending_a_long_run_keeps_its_position():
    text = _long_method(5000, "z")
    assert [t.kind for t in _lex(text)].count("run") == 1
    with pytest.raises(FjError) as exc:
        parse_program(text, alphabet={"a", "b"})
    assert str(exc.value) == "5003:5: event z is not in the declared alphabet"
    assert _parsed(lex_per_position, text, {"a", "b"}) == str(exc.value)
