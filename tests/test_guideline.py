"""Guideline automata: parsing, finite reading, and Büchi lasso acceptance.

The analysis reads words on the guideline's profile monoid
(the ``ProfileMonoid.accepts`` mask, ``dead_position`` and
``accepts_lasso_of``, read on words through ``profile_reference.WordReading``).
Those checks are validated against the automaton read state set by state
set (tests/nfa_reading.py), and the lasso check also against a brute-force
search of the configuration graph of the ultimately periodic word and the
classical reduction over powers of the word's transition relations,
computed on the string triples of tests/profile_reference.py.
"""

import itertools
import random
import subprocess
import sys

import pytest

from guidecheck.guideline import GuidelineAutomaton, GuidelineError, parse_guideline
from guidecheck.profiles import ProfileMonoid

from conftest import (
    all_words,
    bench_sized_automaton,
    fixture,
    fresh_python_env,
    random_automaton,
)
from nfa_reading import NfaReading
from profile_reference import accepts_lasso as lasso_by_relation_powers
from profile_reference import WordReading, compose_triples, rel_of_word, triples_of


def load(name):
    with open(fixture(name), encoding="utf-8") as fh:
        return parse_guideline(fh.read())


# --- brute-force Büchi oracle ------------------------------------------------


def brute_lasso(g: GuidelineAutomaton, stem, cycle) -> bool:
    """stem·cycle^ω accepted iff a reachable cycle of the configuration graph
    (state, offset-in-cycle) passes through an accepting state."""
    delta = {}
    for q, a, q2 in g.transitions:
        delta.setdefault((q, a), set()).add(q2)
    cur = set(g.initial)
    for a in stem:
        cur = {t for q in cur for t in delta.get((q, a), ())}
    n = len(cycle)
    edges = {
        (q, i): {(t, (i + 1) % n) for t in delta.get((q, cycle[i]), ())}
        for q in g.states
        for i in range(n)
    }
    seen = {(q, 0) for q in cur}
    stack = list(seen)
    while stack:
        c = stack.pop()
        for d in edges[c]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    for c in seen:
        if c[0] not in g.accepting:
            continue
        # is c on a cycle?
        frontier = set(edges[c])
        walked = set(frontier)
        work = list(frontier)
        ok = c in walked
        while work and not ok:
            d = work.pop()
            if d == c:
                ok = True
                break
            for e2 in edges[d]:
                if e2 not in walked:
                    walked.add(e2)
                    work.append(e2)
        if ok or c in walked:
            return True
    return False


# --- parsing -----------------------------------------------------------------


def test_parse_golden_fixture():
    g = load("parity.gl")
    assert g.alphabet == ("a",)
    assert set(g.states) == {"even", "odd"}
    assert g.initial == frozenset({"even"})
    assert g.accepting == frozenset({"odd"})
    assert ("even", "a", "odd") in g.transitions


@pytest.mark.parametrize(
    "text,needle,line",
    [
        ("alphabet: a\nstates q\n", "expected 'key", 2),
        ("alphabet: a\nalphabet: b\nstates: q\ninitial: q\n", "duplicate alphabet", 2),
        ("alphabet: a\nstates: q\ninitial: q\ntrans: q a\n", "state letter state", 4),
        ("alphabet: a\nstates: q\ninitial: q\nflavour: mild\n", "unknown key", 4),
        ("alphabet: a\nstates: q\ninitial: q\ntrans: q b q\n", "undeclared letter b", 4),
        ("alphabet: a\nstates: q\ninitial: p\n", "undeclared state p", None),
        ("states: q\ninitial: q\n", "missing alphabet", None),
    ],
)
def test_parse_errors_carry_line_numbers(text, needle, line):
    with pytest.raises(GuidelineError) as exc:
        parse_guideline(text)
    assert needle in str(exc.value)
    if line is not None:
        assert exc.value.line == line


def test_comments_and_blank_lines_ignored():
    g = parse_guideline(
        "# a comment\nalphabet: a b\n\nstates: s\ninitial: s\naccepting: s\ntrans: s a s\n"
    )
    assert WordReading(ProfileMonoid(g)).accepts_finite(["a"])


# --- finite reading ----------------------------------------------------------


def test_parity_membership():
    m = WordReading(ProfileMonoid(load("parity.gl")))
    for k in range(9):
        assert m.accepts_finite(["a"] * k) == (k % 2 == 1)


def test_dead_position():
    g = load("double_letter.gl")
    for reading in (WordReading(ProfileMonoid(g)), NfaReading(g)):
        assert reading.dead_position(["a", "a"]) is None
        # qf has no outgoing edges, so a third letter kills the run
        assert reading.dead_position(["a", "a", "b"]) == 3
        assert reading.dead_position(["a", "b"]) == 2  # qa only continues on a


def test_rel_of_word_is_compositional():
    g = load("count_mod3.gl")
    m = ProfileMonoid(g)
    rng = random.Random(5)
    for _ in range(40):
        u = [rng.choice(g.alphabet) for _ in range(rng.randrange(4))]
        v = [rng.choice(g.alphabet) for _ in range(rng.randrange(4))]
        assert rel_of_word(g, u + v) == compose_triples(rel_of_word(g, u), rel_of_word(g, v))
        assert triples_of(m, m.profile_of_word(u + v)) == rel_of_word(g, u + v)


def test_letter_rel_marks_accepting_endpoints():
    g = load("parity.gl")
    m = ProfileMonoid(g)
    letter = triples_of(m, m.letters["a"])
    assert ("even", 1, "odd") in letter  # target accepting
    assert ("odd", 1, "even") in letter  # source accepting


# --- lasso acceptance --------------------------------------------------------


def test_parity_lassos():
    g = load("parity.gl")
    m = WordReading(ProfileMonoid(g))
    assert m.accepts_lasso([], ["a"])  # visits odd every other step
    assert m.accepts_lasso(["a"], ["a", "a"]) is True
    assert m.accepts_lasso([], ["a", "a"]) is True  # run still crosses odd
    assert m.accepts_lasso([], ["a"]) == brute_lasso(g, [], ["a"])


def test_liveness_fixture_rejects_silent_debtor():
    m = WordReading(ProfileMonoid(load("serve_liveness.gl")))
    # access then nothing but more accesses: owing forever
    assert not m.accepts_lasso(["access"], ["access"])
    assert m.accepts_lasso([], ["log"])
    assert m.accepts_lasso([], ["access", "log"])
    assert not m.accepts_lasso(["log"], ["access", "authcheck"])


def test_cycle_must_be_nonempty():
    g = load("parity.gl")
    for reading in (WordReading(ProfileMonoid(g)), NfaReading(g)):
        with pytest.raises(ValueError):
            reading.accepts_lasso(["a"], [])


def test_lasso_rotation_and_unrolling_invariance():
    g = load("double_letter.gl")
    m = WordReading(ProfileMonoid(g))
    rng = random.Random(11)
    for _ in range(60):
        u = [rng.choice(g.alphabet) for _ in range(rng.randrange(3))]
        v = [rng.choice(g.alphabet) for _ in range(1, 4)]
        base = m.accepts_lasso(u, v)
        assert m.accepts_lasso(u + v, v) == base  # unroll into the stem
        assert m.accepts_lasso(u, v + v) == base  # square the cycle
        k = rng.randrange(len(v))
        assert m.accepts_lasso(u + v[:k], v[k:] + v[:k]) == base  # rotate


def test_lasso_against_bruteforce_on_random_automata():
    rng = random.Random(20260825)
    checked = 0
    for _ in range(150):
        g = random_automaton(rng)
        m, reading = WordReading(ProfileMonoid(g)), NfaReading(g)
        letters = list(g.alphabet)
        for _ in range(12):
            u = [rng.choice(letters) for _ in range(rng.randrange(3))]
            v = [rng.choice(letters) for _ in range(1, 4)]
            want = brute_lasso(g, u, v)
            assert m.accepts_lasso(u, v) == want, (g, u, v)
            assert reading.accepts_lasso(u, v) == want, (g, u, v)
            checked += 1
    assert checked == 1800


def test_lasso_against_the_relation_power_reduction():
    rng = random.Random(20261018)
    for _ in range(150):
        g = random_automaton(rng)
        m = WordReading(ProfileMonoid(g))
        for _ in range(12):
            u = [rng.choice(g.alphabet) for _ in range(rng.randrange(3))]
            v = [rng.choice(g.alphabet) for _ in range(1, 5)]
            assert m.accepts_lasso(u, v) == lasso_by_relation_powers(
                g, u, v), (g, u, v)


def test_lasso_exhaustive_small_words():
    g = load("serve_safety.gl")
    m, reading = WordReading(ProfileMonoid(g)), NfaReading(g)
    for ul in range(3):
        for vl in range(1, 3):
            for u in itertools.product(g.alphabet, repeat=ul):
                for v in itertools.product(g.alphabet, repeat=vl):
                    want = brute_lasso(g, list(u), list(v))
                    assert m.accepts_lasso(list(u), list(v)) == want
                    assert reading.accepts_lasso(list(u), list(v)) == want


FIXTURE_GUIDELINES = ("parity.gl", "double_letter.gl", "first_letter.gl",
                      "count_mod3.gl", "taint.gl", "serve_safety.gl",
                      "serve_liveness.gl")


def test_profile_checks_match_the_nfa_reading():
    """Every word up to length 6 and every lasso with stem and cycle up to
    length 4, on the fixture guidelines and 20 benchmark-sized automata."""
    rng = random.Random(20261018)
    automata = [load(name) for name in FIXTURE_GUIDELINES]
    automata += [bench_sized_automaton(rng) for _ in range(20)]
    lassos = 0
    for g in automata:
        m, reading = WordReading(ProfileMonoid(g)), NfaReading(g)
        for w in all_words(g.alphabet, 6):
            assert m.accepts_finite(w) == reading.accepts_finite(w), (g, w)
            assert m.dead_position(w) == reading.dead_position(w), (g, w)
        # the NFA reading of a lasso depends on the stem only through the
        # states it reaches: decide each (states, cycle) once
        by_states: dict = {}
        cycles = list(all_words(g.alphabet, 4, min_len=1))
        for u in all_words(g.alphabet, 4):
            starts = reading.run_states(u)
            for v in cycles:
                key = (starts, v)
                if key not in by_states:
                    by_states[key] = reading.accepts_lasso_from(starts, v)
                assert m.accepts_lasso(u, v) == by_states[key], (g, u, v)
                lassos += 1
    assert lassos > 300000


def test_the_automaton_names_undeclared_states_in_the_order_given():
    # The first undeclared state given is named, whatever the hash seed.
    script = (
        "from guidecheck.guideline import GuidelineAutomaton, GuidelineError\n"
        "for args in [(['p1', 'p2', 'p3'], ['q'], []),\n"
        "             (['q'], ['r1', 'r2', 'r3'], []),\n"
        "             (['q'], ['q'], [('q', 'a', 'x1'), ('q', 'a', 'x2')])]:\n"
        "    try:\n"
        "        GuidelineAutomaton(['a'], ['q'], *args)\n"
        "    except GuidelineError as exc:\n"
        "        print(exc)\n"
    )
    for seed in ("0", "1"):
        env = dict(fresh_python_env(), PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=60, check=True)
        assert done.stdout.splitlines() == [
            "undeclared state p1",
            "undeclared state r1",
            "undeclared state in transition q a x1",
        ]
