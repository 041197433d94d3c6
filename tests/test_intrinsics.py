"""Stub config parsing, choice enumeration, and resolution through classes."""

import random

import pytest

from conftest import fixture, read_fixture
from nfa_words import nfa_accepts
from guidecheck.fjparser import parse_program
from guidecheck.interp import enumerate_traces
from guidecheck.intrinsics import (
    ConfigError,
    IntrinsicChoice,
    load_config,
    parse_config,
    stub_lookup,
    validate_against_program,
)
from guidecheck.oracle import Nfa, regex_to_nfa
from guidecheck.regions import NULL_REGION, UNKNOWN, created_at, region_meta

AB = ("a", "b")


def one(text, alphabet=AB):
    specs = parse_config(text, alphabet)
    assert len(specs) == 1
    return next(iter(specs.values()))


def test_parse_minimal_line():
    s = one("Net.poll() -> Unknown emits eps\n")
    assert (s.cls, s.method, s.arg_patterns) == ("Net", "poll", ())
    assert s.result_region == UNKNOWN
    assert nfa_accepts(s.emit_nfa, ())
    assert s.throw_region is None


def test_parse_arguments_and_throws():
    s = one("Auth.login(_, Null) -> Null emits a* b throws Unknown b\n")
    assert s.arg_patterns == (None, NULL_REGION)
    assert s.result_region == NULL_REGION
    assert nfa_accepts(s.emit_nfa, ("a", "a", "b"))
    assert s.throw_region == UNKNOWN
    assert nfa_accepts(s.throw_nfa, ("b",)) and not nfa_accepts(s.throw_nfa, ())


def test_comments_blank_lines_and_duplicates():
    specs = parse_config(
        "# header\n\nA.m() -> Null emits a  # trailing\nB.n() -> Null emits b\n", AB
    )
    assert set(specs) == {("A", "m"), ("B", "n")}
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("A.m() -> Null emits a\nA.m() -> Null emits b\n", AB)


@pytest.mark.parametrize(
    "line,needle",
    [
        ("A.m() Null emits a", "->"),
        ("Am() -> Null emits a", "Class.method"),
        ("A.m() -> Bogus emits a", "bad region"),
        ("A.m() -> @site emits a", "must be Null or Unknown"),
        ("A.m() -> Null a", "emits"),
        ("A.m() -> Null emits", "emits"),
        ("A.m() -> Null emits c", "not in the alphabet"),
        ("A.m() -> Null emits a throws Unknown", "throws needs"),
        ("A.m(junk) -> Null emits a", "bad region"),
    ],
)
def test_parse_errors(line, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(line + "\n", AB)


def test_error_carries_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("A.m() -> Null emits a\nB.n() -> Null oops a\n", AB)
    assert exc.value.line == 2


def _random_regex(rng, depth):
    """A regex of the config grammar: a letter, ``eps``, a union, a
    juxtaposition, a star or a parenthesised regex."""
    kind = rng.randrange(6) if depth else rng.randrange(2)
    if kind == 0:
        return rng.choice(AB)
    if kind == 1:
        return "eps"
    if kind == 2:
        return f"{_random_regex(rng, depth - 1)} | {_random_regex(rng, depth - 1)}"
    if kind == 3:
        return f"{_random_regex(rng, depth - 1)} {_random_regex(rng, depth - 1)}"
    if kind == 4:
        return f"({_random_regex(rng, depth - 1)})*"
    return f"({_random_regex(rng, depth - 1)})"


def test_no_regex_of_the_config_grammar_is_empty():
    # a letter and eps are non-empty, and |, juxtaposition and * of
    # non-empty languages are non-empty: every stub has a choice
    rng = random.Random(19)
    for _ in range(300):
        regex = _random_regex(rng, rng.randrange(5))
        assert regex_to_nfa(regex, AB).shortest_word() is not None, regex
        assert one(f"A.m() -> Unknown emits {regex}\n").choices(), regex


def test_choices_rank_and_order():
    s = one("A.m() -> Null emits b | a a\n")
    # sorted as plain tuples: rank first, then word lexicographically
    assert s.choices() == [
        IntrinsicChoice(0, ("a", "a")),
        IntrinsicChoice(0, ("b",)),
    ]
    u = one("A.m() -> Unknown emits b | a a\n")
    ranks = [c.rank for c in u.choices()]
    assert ranks == [0, 0, 1, 1]  # null returns first, fresh objects second


def test_choices_cap_infinite_languages():
    s = one("A.m() -> Null emits a*\n")
    assert [c.word for c in s.choices()] == [(), ("a",), ("a", "a")]


def test_choices_fall_back_to_the_shortest_word():
    s = one("A.m() -> Unknown emits a a a a a | b b b b b b\n")
    assert s.choices() == [IntrinsicChoice(0, ("a",) * 5),
                           IntrinsicChoice(1, ("a",) * 5)]


def test_stub_words_are_listed_once_per_spec(monkeypatch):
    calls = []
    words = Nfa.words

    def counting_words(self, *args, **kwargs):
        calls.append(self)
        return words(self, *args, **kwargs)

    monkeypatch.setattr(Nfa, "words", counting_words)
    prog = parse_program(read_fixture("serve.fj"), "serve.fj")
    specs = load_config(fixture("serve.cfg"), ("log", "authcheck", "access"))
    runs = enumerate_traces(prog, "Server.serve", 4, specs)
    assert len(runs) == 3 ** 4  # dozens of stub calls...
    # ...but each spec's word list is built once
    nfas = [s.emit_nfa for s in specs.values()]
    assert sorted(map(id, calls)) == sorted(map(id, nfas))


PROG = parse_program(
    """
class Net { Net poll() { return null; } Net send(Net x) { return null; } }
class Sub extends Net { }
class Other { Other poll() { return null; } }
"""
)


def test_arg_regions_expand_wildcards():
    prog = parse_program(
        "class A { A m(A x, A y) { return null; } A mk() { return new[s] A(); } }"
    )
    meta = region_meta(prog)
    s = one("A.m(_, @s) -> Null emits a\n")
    combos = s.arg_regions(meta)
    assert (NULL_REGION, created_at("s")) in combos
    assert (created_at("s"), created_at("s")) in combos
    assert (UNKNOWN, created_at("s")) in combos
    assert len(combos) == len(meta.regions)


def test_validate_against_program():
    validate_against_program(parse_config("Net.poll() -> Unknown emits a\n", AB), PROG)
    with pytest.raises(ConfigError, match="unknown class"):
        validate_against_program(parse_config("Zap.m() -> Null emits a\n", AB), PROG)
    with pytest.raises(ConfigError, match="unknown method"):
        validate_against_program(parse_config("Net.zap() -> Null emits a\n", AB), PROG)
    with pytest.raises(ConfigError, match="parameter"):
        validate_against_program(parse_config("Net.send() -> Null emits a\n", AB), PROG)
    # Sub inherits poll: calls on a Sub resolve to Net's declaration
    with pytest.raises(ConfigError, match="declared in Net"):
        validate_against_program(parse_config("Sub.poll() -> Null emits a\n", AB), PROG)
    with pytest.raises(ConfigError, match="no allocation site labelled 'k'"):
        validate_against_program(
            parse_config("Net.poll() -> Null emits a throws @k a\n", AB), PROG)
    with pytest.raises(ConfigError, match="no allocation site labelled 'k'"):
        validate_against_program(
            parse_config("Net.send(@k) -> Null emits a\n", AB), PROG)


def test_stub_lookup_resolves_through_inheritance():
    specs = parse_config("Net.poll() -> Unknown emits a\n", AB)
    assert stub_lookup(specs, PROG, "Net", "poll") is not None
    # Sub inherits poll from Net, so the stub governs Sub receivers too
    assert stub_lookup(specs, PROG, "Sub", "poll") is not None
    # Other.poll is a different declaration
    assert stub_lookup(specs, PROG, "Other", "poll") is None
    assert stub_lookup({}, PROG, "Net", "poll") is None
    assert stub_lookup(specs, PROG, "Net", "nosuch") is None


def test_load_config_reads_files(tmp_path):
    p = tmp_path / "stubs.cfg"
    p.write_text("Net.poll() -> Unknown emits a\n", encoding="utf-8")
    specs = load_config(str(p), AB)
    assert ("Net", "poll") in specs
