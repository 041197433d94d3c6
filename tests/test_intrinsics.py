"""Stub config parsing, choice enumeration, and resolution through classes.

A stub's regex is parsed to a term that the package folds three ways: into
the profile domain, into its least words and into its shortest word.  Each
fold is checked against the NFA oracle of the tests (``nfa.regex_to_nfa``
and ``profile_reference.alpha_nfa``) over every regex of the fixtures and
the soundness corpus and a seeded sweep of random ones.  The taint corpus
declares no stubs.
"""

import random

import pytest

import corpus
from conftest import FIXTURES, fixture, read_fixture
from interp_reference import enumerate_traces
from nfa import Nfa, nfa_concat, nfa_star, nfa_union, regex_to_nfa
from profile_reference import alpha_nfa, decode_fin
from guidecheck import cli
from guidecheck.domains import ProfileDomain
from guidecheck.fjparser import parse_program
from guidecheck.guideline import GuidelineAutomaton, load_guideline, parse_guideline
from guidecheck.intrinsics import (
    EPS,
    STUB_WORD_LIMIT,
    STUB_WORD_MAXLEN,
    ConfigError,
    IntrinsicChoice,
    Regex,
    RegexError,
    load_config,
    parse_config,
    parse_regex,
    stub_lookup,
    validate_against_program,
)
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
    assert s.emits.words(STUB_WORD_MAXLEN, STUB_WORD_LIMIT) == [()]
    assert s.throw_region is None


def test_parse_arguments_and_throws():
    s = one("Auth.login(_, Null) -> Null emits a* b throws Unknown b\n")
    assert s.arg_patterns == (None, NULL_REGION)
    assert s.result_region == NULL_REGION
    assert s.emits.words(3, 10) == [("b",), ("a", "b"), ("a", "a", "b")]
    assert s.throw_region == UNKNOWN
    assert s.throws.words(3, 10) == [("b",)]


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
        ("A.m(,) -> Null emits a", "empty argument pattern in 'A.m\\(,\\)'"),
        ("A.m(_,,_) -> Null emits a", "empty argument pattern"),
        ("A.m(_,) -> Null emits a", "empty argument pattern"),
        ("A.m(, Null) -> Null emits a", "empty argument pattern"),
        ("A.m( , ) -> Null emits a", "empty argument pattern"),
    ],
)
def test_parse_errors(line, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(line + "\n", AB)


def test_blank_parentheses_declare_no_pattern():
    assert one("A.m( ) -> Null emits a\n").arg_patterns == ()
    assert one("A.m( _ ,Null ) -> Null emits a\n").arg_patterns == (
        None, NULL_REGION)


def test_error_carries_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("A.m() -> Null emits a\nB.n() -> Null oops a\n", AB)
    assert exc.value.line == 2


def _random_regex(rng, depth, alphabet=AB):
    """A regex of the config grammar: a letter, ``eps``, a union, a
    juxtaposition, a star or a parenthesised regex.  Leaves are mostly
    letters and inner nodes mostly unions and juxtapositions, so many
    regexes have several words of one length."""
    if not depth or rng.random() < 0.2:
        return "eps" if rng.random() < 0.15 else rng.choice(alphabet)
    kind = rng.choice("||..*()")
    left = _random_regex(rng, depth - 1, alphabet)
    if kind == "*":
        return f"({left})*"
    if kind in "()":
        return f"({left})"
    right = _random_regex(rng, depth - 1, alphabet)
    return f"{left} | {right}" if kind == "|" else f"{left} {right}"


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
    words = Regex.words

    def counting_words(self, *args, **kwargs):
        calls.append(self)
        return words(self, *args, **kwargs)

    monkeypatch.setattr(Regex, "words", counting_words)
    prog = parse_program(read_fixture("serve.fj"), "serve.fj")
    specs = load_config(fixture("serve.cfg"), ("log", "authcheck", "access"))
    runs = enumerate_traces(prog, "Server.serve", 4, specs)
    assert len(runs) == 3 ** 4  # dozens of stub calls...
    # ...but each spec's terms enumerate their words once
    terms = [s.emits for s in specs.values()]
    assert sorted(map(id, calls)) == sorted(map(id, terms))


def test_eps_is_rejected_where_the_alphabet_has_a_letter_eps():
    # eps as a letter is an event a program may emit; a regex writing eps
    # could mean that letter or the empty word
    with pytest.raises(ConfigError) as exc:
        parse_config("A.m() -> Null emits a\nB.n() -> Null emits a | eps\n",
                     ("a", "eps"))
    assert exc.value.line == 2
    assert str(exc.value) == ("line 2: 'eps' in regex 'a | eps' is both the "
                              "empty word and a letter of the alphabet")
    with pytest.raises(ConfigError, match="both the empty word"):
        parse_config("A.m() -> Null emits a throws Unknown eps*\n", ("a", "eps"))
    # the other letters are read as before
    s = one("A.m() -> Null emits a a*\n", ("a", "eps"))
    assert s.emits.words(2, 3) == [("a",), ("a", "a")]


# -- the term against the NFA oracle ---------------------------------------------


def _random_guideline(rng, alphabet):
    """1 to 4 states over alphabet, the first initial, each state accepting
    with probability 1/2 (the last if none is), each transition present
    with probability 0.4."""
    states = [f"q{i}" for i in range(rng.randint(1, 4))]
    accepting = [q for q in states if rng.random() < 0.5] or [states[-1]]
    trans = [(q, a, q2) for q in states for a in alphabet for q2 in states
             if rng.random() < 0.4]
    return GuidelineAutomaton(alphabet, states, [states[0]], accepting, trans)


def _config_regexes(text):
    """The emitted and thrown regexes of each line of a config, split the
    way ``parse_config`` splits them."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.partition("->")[2].split()[2:]
        if "throws" in words:
            ti = words.index("throws")
            yield " ".join(words[:ti])
            yield " ".join(words[ti + 2:])
        else:
            yield " ".join(words)


def _check_against_the_oracle(src, g):
    """The term's abstraction is ``==`` the NFA walk's on g's own monoid,
    and its word lists and a stub's choices are the NFA's."""
    domain = ProfileDomain(g)
    nfa = regex_to_nfa(src, g.alphabet)
    term = parse_regex(src, g.alphabet)
    assert term.alpha(domain) == alpha_nfa(domain.monoid, nfa), src
    words = list(nfa.words(STUB_WORD_MAXLEN, STUB_WORD_LIMIT))
    assert term.words(STUB_WORD_MAXLEN, STUB_WORD_LIMIT) == words, src
    assert term.shortest_word() == nfa.shortest_word(), src
    spec = one(f"A.m() -> Null emits {src}\n", g.alphabet)
    assert spec.choices() == sorted(
        IntrinsicChoice(0, w) for w in words or [nfa.shortest_word()]), src


def _fixture_and_corpus_regexes():
    """(regex, alphabet) for every stub of the fixtures and the corpus."""
    alphabet = load_guideline(fixture("serve_safety.gl")).alphabet
    for path in sorted(FIXTURES.glob("*.cfg")):  # the configs of serve.fj
        for src in _config_regexes(path.read_text(encoding="utf-8")):
            yield src, alphabet
    for _, _, _, config in corpus.PROGRAMS.values():
        for src in _config_regexes(config or ""):
            yield src, AB


def test_fixture_and_corpus_regexes_match_the_oracle():
    found = list(_fixture_and_corpus_regexes())
    assert len(found) >= 8
    rng = random.Random(5)
    for src, alphabet in found:
        for order in (alphabet, alphabet[::-1]):
            for _ in range(3):
                _check_against_the_oracle(src, _random_guideline(rng, order))
    for name in ("serve_safety.gl", "serve_liveness.gl"):
        g = load_guideline(fixture(name))
        for src, alphabet in found:
            if alphabet == g.alphabet:
                _check_against_the_oracle(src, g)


def test_random_regexes_match_the_oracle_in_both_letter_orders():
    rng = random.Random(23)
    for _ in range(1000):
        alphabet = ("a", "b", "c", "d")[:rng.randint(1, 4)]
        src = _random_regex(rng, rng.randrange(6), alphabet)
        for order in (alphabet, alphabet[::-1]):
            _check_against_the_oracle(src, _random_guideline(rng, order))


def test_words_stay_bounded_over_a_wide_alphabet():
    alphabet = tuple(f"l{i:02}" for i in range(40))
    term = parse_regex(f"({' | '.join(alphabet)})* l39", alphabet)
    assert term.words(4, 3) == [("l39",), ("l00", "l39"), ("l01", "l39")]


def test_parse_errors_match_the_recursive_descent():
    # the stack parser raises each error where the oracle's recursive
    # descent does, with the same message
    def outcome(parse, src):
        try:
            parse(src, AB)
        except RegexError as exc:
            return str(exc)
        return "parsed"

    tokens = ["a", "b", "c", "eps", "(", ")", "|", "*", "(", ")", "!"]
    rng = random.Random(41)
    seen = set()
    for _ in range(5000):
        src = " ".join(rng.choice(tokens) for _ in range(rng.randrange(7)))
        got = outcome(parse_regex, src)
        assert got == outcome(regex_to_nfa, src), src
        seen.add(got.split(" ", 1)[0])
    # every kind of error, and success, came up
    assert seen == {"parsed", "empty", "unbalanced", "unexpected", "letter",
                    "trailing", "bad"}


def test_regexes_nest_past_the_recursion_limit():
    deep = "(" * 3000 + "a | eps" + ")*" * 3000 + " b"
    term = parse_regex(deep, AB)
    assert term.words(4, 3) == [("b",), ("a", "b"), ("a", "a", "b")]
    assert term.shortest_word() == ("b",)
    domain = ProfileDomain(parse_guideline(
        "alphabet: a b\nstates: q\ninitial: q\naccepting: q\ntrans: q a q\n"))
    assert term.alpha(domain) == parse_regex("a* b", AB).alpha(domain)


# a (b a)* b on this guideline: the fold interns 12 profiles on a fresh
# monoid, the NFA walk 9
FRESH_GUIDELINE = ("alphabet: a b\nstates: q0 q1 q2 q3\ninitial: q0\n"
                   "accepting: q0\ntrans: q0 a q1\ntrans: q1 b q2\n"
                   "trans: q2 a q3\ntrans: q3 b q0\ntrans: q1 a q1\n")
FRESH_REGEX = "a (b a)* b"


def _nfa_alpha(term, domain):
    """A term's abstraction through the NFA oracle: the term built as an
    NFA, then the product walk."""
    def leaf(tok):
        return (Nfa.epsilon(term.alphabet) if tok == EPS
                else Nfa.letter(tok, term.alphabet))
    return alpha_nfa(domain.monoid,
                     term.fold(leaf, nfa_union, nfa_concat, nfa_star))


def test_a_fresh_monoid_interns_other_profiles_under_the_fold():
    # each domain builds a monoid of its own, over one guideline too
    g = parse_guideline(FRESH_GUIDELINE)
    folded, walked = ProfileDomain(g), ProfileDomain(g)
    term = parse_regex(FRESH_REGEX, AB)
    x, y = term.alpha(folded), _nfa_alpha(term, walked)
    assert decode_fin(folded.monoid, x) == decode_fin(walked.monoid, y)
    assert (folded.fin_height(), walked.fin_height()) == (13, 10)
    # on one shared monoid the two are ==
    assert x == alpha_nfa(folded.monoid, regex_to_nfa(FRESH_REGEX, AB))


def test_the_report_is_the_same_under_either_seeding(monkeypatch, tmp_path,
                                                     capsys):
    (tmp_path / "p.fj").write_text(
        "class Net extends Object { Object get() { return null; } }\n"
        "class Main extends Object { Object go() {"
        " Net n = new[k] Net(); emit a; Object r = n.get(); emit a;"
        " return this.go(); } }\n", encoding="utf-8")
    (tmp_path / "g.gl").write_text(FRESH_GUIDELINE, encoding="utf-8")
    (tmp_path / "s.cfg").write_text(f"Net.get() -> Null emits {FRESH_REGEX}\n",
                                    encoding="utf-8")
    argv = ["analyze", "--program", str(tmp_path / "p.fj"),
            "--guideline", str(tmp_path / "g.gl"),
            "--config", str(tmp_path / "s.cfg"), "--entry", "Main.go"]
    reports = []
    for seeding in (Regex.alpha, _nfa_alpha):
        monkeypatch.setattr(Regex, "alpha", seeding)
        for report in ("text", "json"):
            code = cli.main([*argv, "--report", report])
            reports.append((code, *capsys.readouterr()))
    assert reports[:2] == reports[2:]
    assert reports[0][0] == 1


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
