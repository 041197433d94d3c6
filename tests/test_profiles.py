"""Transition profiles and their finite/mixed abstractions.

profile_of_word is checked against brute-force path enumeration; the frozen
profile values for the one-letter parity automaton were worked out by hand
(two states, four triples — see the comments at the fixtures).  The packed
rows are checked against the string-triple reference of profile_reference.py.
"""

import random

import pytest

from guidecheck import profiles
from guidecheck.domains import ProfileDomain
from guidecheck.fjparser import parse_program
from guidecheck.guideline import load_guideline, parse_guideline
from guidecheck.inference import infer
from guidecheck.profiles import (
    FIN_BOTTOM,
    MIX_BOTTOM,
    MixAbs,
    ProfileMonoid,
)
from guidecheck.solver import EquationSystem, solve

import profile_reference as ref
from canonical_forms import CanonicalMonoid
from conftest import all_words, bench_sized_automaton, fixture, random_automaton
from language_oracle import lang_omega
from nfa import Nfa
from nfa_words import nfa_accepts, nfa_full, nfa_of_words, nfa_word
from profile_reference import profile_of_triples, triples_of


def load_monoid(name):
    with open(fixture(name), encoding="utf-8") as fh:
        return CanonicalMonoid(parse_guideline(fh.read()))


def brute_profile(m, word):
    """Every (start, accepting-seen, end) triple over explicit paths, as a
    profile of m."""
    g = m.g
    delta = {}
    for q, a, q2 in g.transitions:
        delta.setdefault((q, a), set()).add(q2)
    triples = set()
    for q0 in g.states:
        cur = {(q0, 1 if q0 in g.accepting else 0)}
        for a in word:
            cur = {
                (t, b | (1 if t in g.accepting else 0))
                for (s, b) in cur
                for t in delta.get((s, a), ())
            }
        triples |= {(q0, b, s) for (s, b) in cur}
    return profile_of_triples(m, triples, empty=not word)


# Hand-computed profiles over parity.gl (states even/odd, odd accepting,
# a toggles): one a always crosses an accepting endpoint, two a's loop.
PAR = load_monoid("parity.gl")
P_A = profile_of_triples(PAR, {("even", 1, "odd"), ("odd", 1, "even")})
P_AA = profile_of_triples(PAR, {("even", 1, "even"), ("odd", 1, "odd")})


def test_parity_letter_profiles_match_hand_computation():
    assert PAR.profile_of_word(["a"]) == P_A
    assert PAR.profile_of_word(["a", "a"]) == P_AA
    assert PAR.profile_of_word(["a"] * 3) == P_A  # period two
    assert PAR.elements == {PAR.eps, P_A, P_AA}


def test_profile_of_word_against_path_enumeration():
    rng = random.Random(31)
    for _ in range(50):
        g = random_automaton(rng)
        m = ProfileMonoid(g)
        for _ in range(8):
            w = [rng.choice(g.alphabet) for _ in range(rng.randrange(5))]
            assert m.profile_of_word(w) == brute_profile(m, w), (g, w)


def test_profile_composition_is_a_homomorphism():
    rng = random.Random(32)
    for _ in range(30):
        g = random_automaton(rng)
        m = ProfileMonoid(g)
        u = [rng.choice(g.alphabet) for _ in range(rng.randrange(4))]
        v = [rng.choice(g.alphabet) for _ in range(rng.randrange(4))]
        assert m.profile_of_word(u + v) == m.compose(
            m.profile_of_word(u), m.profile_of_word(v)
        )
        assert m.compose(m.eps, m.profile_of_word(u)) == m.profile_of_word(u)


def test_empty_word_tag_distinguishes_degenerate_profiles():
    # one accepting state with an a-self-loop: P(a) has the same triples as ε̂
    m = ProfileMonoid(
        parse_guideline(
            "alphabet: a\nstates: q\ninitial: q\naccepting: q\ntrans: q a q\n"
        )
    )
    pa = m.profile_of_word(["a"])
    assert triples_of(m, pa) == triples_of(m, m.eps)
    assert pa != m.eps
    # and the tag is what keeps aω alive: ε̂ alone can never build a cycle pair
    assert m.omega(frozenset({pa})).inf
    assert m.omega(frozenset({m.eps})).inf == frozenset()


def test_elements_cover_all_word_profiles():
    for name in ("parity.gl", "double_letter.gl", "serve_liveness.gl"):
        m = load_monoid(name)
        for w in all_words(m.g.alphabet, 5):
            assert m.profile_of_word(w) in m.elements


def test_elements_close_on_first_use_only():
    m = ProfileMonoid(load_guideline(fixture("serve_liveness.gl")))
    m.omega(frozenset({m.profile_of_word(["log"])}))
    assert "elements" not in m.__dict__
    assert m.elements is m.elements
    assert "elements" in m.__dict__


@pytest.mark.parametrize("close", [
    lambda m: m.elements,
    lambda m: m.star(frozenset(m.letters.values())),
    lambda m: m.profile_of_word(["a"] * 3),
], ids=["elements", "star", "word"])
def test_every_closure_raises_past_the_monoid_cap(monkeypatch, close):
    g = load_guideline(fixture("count_mod3.gl"))
    full = len(ProfileMonoid(g).elements)
    letters = len(g.alphabet)
    assert full > letters + 1
    # ε̂ and the letters fit under the cap, so construction succeeds
    monkeypatch.setattr(profiles, "MONOID_CAP", letters)
    m = ProfileMonoid(g)
    with pytest.raises(RuntimeError, match="profile monoid exceeded size cap"):
        close(m)
    assert len(m.zero) == letters + 1  # nothing interned past the cap
    # at the monoid's own size less ε̂, the closure fits exactly
    monkeypatch.setattr(profiles, "MONOID_CAP", full - 1)
    assert len(ProfileMonoid(g).elements) == full
    monkeypatch.setattr(profiles, "MONOID_CAP", full - 2)
    with pytest.raises(RuntimeError, match="profile monoid exceeded size cap"):
        ProfileMonoid(g).elements


def test_alpha_nfa_agrees_with_word_sweep():
    # languages are infinite, but profiles saturate quickly on these automata
    for gl, nfa_words in [
        ("parity.gl", None),  # full language over {a}
        ("first_letter.gl", [("a",), ("b", "b"), ("a", "b", "a")]),
    ]:
        m = load_monoid(gl)
        if nfa_words is None:
            nfa = nfa_full(m.g.alphabet)
        else:
            nfa = nfa_of_words(nfa_words, m.g.alphabet)
        swept = m.alpha_words(w for w in all_words(m.g.alphabet, 10) if nfa_accepts(nfa, w))
        assert swept == ref.alpha_nfa(m, nfa)


def test_alpha_nfa_on_random_pairs():
    rng = random.Random(33)
    for _ in range(25):
        g = random_automaton(rng)
        m = CanonicalMonoid(g)
        words = [
            tuple(rng.choice(g.alphabet) for _ in range(rng.randrange(4)))
            for _ in range(rng.randrange(1, 5))
        ]
        nfa = nfa_of_words(words, g.alphabet)
        assert ref.alpha_nfa(m, nfa) == m.alpha_words(words)


def test_concat_star_frozen_values_on_parity():
    a1 = frozenset({P_A})
    assert PAR.concat_fin(a1, a1) == frozenset({P_AA})
    assert PAR.star(a1) == frozenset({PAR.eps, P_A, P_AA})
    assert PAR.concat_fin(FIN_BOTTOM, a1) == FIN_BOTTOM


def test_omega_on_parity():
    x = PAR.omega(frozenset({P_A}))
    assert x.fin == FIN_BOTTOM  # no ε in the base language
    assert x.inf == frozenset({(P_A, P_AA), (P_AA, P_AA)})
    assert PAR.accepts_mix(x)  # a^ω alternates through odd forever
    assert PAR.member_up_word([], ["a"], x)
    assert PAR.member_up_word(["a"], ["a", "a"], x)


def test_omega_with_epsilon_keeps_finite_unfoldings():
    x = PAR.omega(frozenset({PAR.eps, P_A}))
    assert PAR.member_fin([], x.fin)  # picking ε forever emits nothing
    assert PAR.member_fin(["a"], x.fin)
    assert PAR.member_up_word([], ["a"], x)
    assert PAR.omega(FIN_BOTTOM) == MIX_BOTTOM


def test_accepts_fin_quantifies_over_every_member():
    assert PAR.accepts_fin(frozenset({P_A}))
    assert not PAR.accepts_fin(frozenset({P_AA}))  # aa ends in even
    assert not PAR.accepts_fin(frozenset({P_A, P_AA}))
    assert PAR.accepts_fin(FIN_BOTTOM)  # vacuous


# Two states bouncing on a/b; P(ab) ≠ P(ba), so rotations genuinely move pairs.
PINGPONG = CanonicalMonoid(
    parse_guideline(
        "alphabet: a b\nstates: s0 s1\ninitial: s0\naccepting: s0\n"
        "trans: s0 a s1\ntrans: s1 b s0\n"
    )
)


def test_member_up_word_saturates_rotations():
    m = PINGPONG
    u = nfa_word(["a", "b"], m.g.alphabet)
    x = m.alpha_lang(lang_omega(u))
    # (ab)^ω written as a·(ba)^ω: same word, rotated factorization
    assert m.member_up_word([], ["a", "b"], x)
    assert m.member_up_word(["a"], ["b", "a"], x)
    assert m.member_up_word(["a", "b", "a"], ["b", "a"], x)
    assert not m.member_up_word([], ["a"], x)
    assert not m.member_up_word([], ["b"], x)


def test_mix_eq_modulo_saturation():
    m = PINGPONG
    x = m.alpha_lang(lang_omega(nfa_word(["a", "b"], m.g.alphabet)))
    rotated = MixAbs(
        x.fin,
        frozenset(
            (m.compose(s, m.profile_of_word(["a"])), m.profile_of_word(["b", "a"]))
            for (s, e) in x.inf
            if e == m.profile_of_word(["a", "b"])
        )
        | x.inf,
    )
    assert rotated.inf != x.inf
    assert m.mix_eq(x, rotated)
    assert m.mix_leq(x, rotated) and m.mix_leq(rotated, x)
    assert m.normalize_mix(x) == m.normalize_mix(rotated)


def test_mix_leq_is_a_partial_order_on_samples():
    m = PAR
    bot = MIX_BOTTOM
    x = m.omega(frozenset({P_A}))
    y = m.mix_join(x, MixAbs(frozenset({P_A}), frozenset()))
    assert m.mix_leq(bot, x) and m.mix_leq(x, y)
    assert not m.mix_leq(y, x)
    assert m.mix_leq(x, x)


def test_acceptance_invariant_under_saturation():
    rng = random.Random(34)
    for _ in range(30):
        g = random_automaton(rng)
        m = CanonicalMonoid(g)
        elems = sorted(m.elements, key=lambda p: ref.describe(m, p))
        pairs = set()
        for _ in range(3):
            s, e = rng.choice(elems), rng.choice(elems)
            if m.compose(e, e) == e and m.compose(s, e) == s:
                pairs.add((s, e))
        x = MixAbs(frozenset(), frozenset(pairs))
        y = m.normalize_mix(x)
        assert m.accepts_mix(x) == m.accepts_mix(y)
        for _ in range(5):
            u = [rng.choice(g.alphabet) for _ in range(rng.randrange(3))]
            v = [rng.choice(g.alphabet) for _ in range(1, 3)]
            assert m.member_up_word(u, v, x) == m.member_up_word(u, v, y)


def test_extendable_into():
    # parity: a extends to aa, so P(a) reaches the {P(aa)} target
    assert PAR.extendable_into(P_A, [frozenset({P_AA})], [])
    assert PAR.extendable_into(P_A, [], [PAR.omega(frozenset({P_A}))])
    assert not PAR.extendable_into(P_A, [], [])
    # first_letter: nothing leaves qa, so a P(b)-shaped target is unreachable
    m = load_monoid("first_letter.gl")
    pa, pb = m.profile_of_word(["a"]), m.profile_of_word(["b"])
    assert not m.extendable_into(pa, [frozenset({pb})], [])
    assert m.extendable_into(m.eps, [frozenset({pb})], [])


def test_alpha_lang_matches_omega_on_pure_iteration():
    for name in ("parity.gl", "double_letter.gl", "count_mod3.gl"):
        m = load_monoid(name)
        base = nfa_of_words([("a",), ("b", "b")], m.g.alphabet) if len(
            m.g.alphabet
        ) > 1 else Nfa.letter("a", m.g.alphabet)
        got = m.alpha_lang(lang_omega(base))
        want = m.omega(ref.alpha_nfa(m, base))
        assert m.mix_eq(got, want)


# -- packed rows against the triple reference -----------------------------------


def _random_profile(rng, m):
    """A profile of m holding a random set of triples over its states,
    realizable or not, with a random empty-word tag."""
    states = m.g.states
    triples = {(q, rng.randrange(2), q2) for q in states for q2 in states
               if rng.random() < 0.4}
    return profile_of_triples(m, triples, empty=rng.random() < 0.2)


def _operand(rng, m):
    """A word profile (ε̂ among them) or an arbitrary one."""
    if rng.random() < 0.5:
        word = [rng.choice(m.g.alphabet) for _ in range(rng.randrange(4))]
        return m.profile_of_word(word)
    return _random_profile(rng, m)


def test_packed_compose_agrees_with_triple_composition():
    rng = random.Random(35)
    checked = tagged = 0
    for _ in range(100):
        m = ProfileMonoid(random_automaton(rng))
        for _ in range(25):
            p, q = _operand(rng, m), _operand(rng, m)
            pq = m.compose(p, q)
            assert triples_of(m, pq) == ref.compose_triples(
                triples_of(m, p), triples_of(m, q)), (m.g, p, q)
            assert m.empty[pq] == (m.empty[p] and m.empty[q])
            checked += 1
            tagged += m.empty[p] or m.empty[q]
    assert checked == 2500 and tagged > 500


def test_letter_and_word_profiles_agree_with_triple_relations():
    rng = random.Random(36)
    for _ in range(50):
        g = random_automaton(rng)
        m = ProfileMonoid(g)
        assert triples_of(m, m.eps) == ref.rel_of_word(g, [])
        assert m.empty[m.eps]
        for a in g.alphabet:
            assert triples_of(m, m.letters[a]) == ref.letter_rel(g, a)
        for _ in range(8):
            w = [rng.choice(g.alphabet) for _ in range(rng.randrange(5))]
            assert triples_of(m, m.profile_of_word(w)) == ref.rel_of_word(g, w)


def test_packed_acceptance_agrees_with_triple_definitions():
    rng = random.Random(37)
    for _ in range(200):
        g = random_automaton(rng)
        m = ProfileMonoid(g)
        fin = frozenset(_operand(rng, m) for _ in range(rng.randrange(3)))
        inf = frozenset((_operand(rng, m), _operand(rng, m))
                        for _ in range(rng.randrange(3)))
        assert m.accepts_fin(fin) == ref.accepts_fin(m, fin), (g, fin)
        x = MixAbs(fin, inf)
        assert m.accepts_mix(x) == ref.accepts_mix(m, x), (g, x)


def test_profiles_are_interned_per_monoid_and_equal_across_monoids():
    rng = random.Random(38)
    for _ in range(30):
        g = random_automaton(rng)
        m, m2 = ProfileMonoid(g), ProfileMonoid(g)
        u = [rng.choice(g.alphabet) for _ in range(rng.randrange(4))]
        v = [rng.choice(g.alphabet) for _ in range(rng.randrange(4))]
        p, q = m.profile_of_word(u), m.profile_of_word(v)
        pq = m.compose(p, q)
        assert pq == m.profile_of_word(u + v)
        assert pq == profile_of_triples(m, triples_of(m, pq), empty=not u + v)
        # m2 numbers its profiles in its own order; the rows agree
        for w in (v + u + v, u + v):
            assert ref.decode(m2, m2.profile_of_word(w)) == ref.decode(
                m, m.profile_of_word(w))
        for mon in (m, m2):  # dense: the indices are 0, 1, ..., n - 1
            n = len(mon._interned)
            assert sorted(mon._interned.values()) == list(range(n))
            assert len(mon.zero) == len(mon.one) == len(mon.empty) == n


# -- omega's one closure, and automata of the benchmark's size ------------------


def _words_profiles(rng, m, size, with_eps):
    """The profiles of `size` random nonempty words of up to three letters,
    and ε̂ if asked."""
    words = [[rng.choice(m.g.alphabet) for _ in range(rng.randint(1, 3))]
             for _ in range(size)]
    out = {m.profile_of_word(w) for w in words}
    return frozenset(out | {m.eps} if with_eps else out)


def test_eps_is_the_only_tagged_profile_and_a_two_sided_identity():
    rng = random.Random(39)
    automata = [random_automaton(rng) for _ in range(30)]
    automata += [bench_sized_automaton(rng) for _ in range(4)]
    for g in automata:
        m = ProfileMonoid(g)
        for p in _words_profiles(rng, m, 12, with_eps=False):
            assert m.compose(m.eps, p) == p == m.compose(p, m.eps), (g, p)
    for g in automata[:30]:
        m = ProfileMonoid(g)
        assert [p for p in m.elements if m.empty[p]] == [m.eps]


def test_omega_matches_its_two_closure_reference():
    rng = random.Random(40)
    for k in range(60):
        g = random_automaton(rng)
        m = ProfileMonoid(g)
        a = _words_profiles(rng, m, rng.randint(0, 3), with_eps=k % 2 == 0)
        got = ref.decode_mix(m, m.omega(a))
        assert got == ref.omega_triples(g, ref.decode_fin(m, a)), (g, a)


def test_operators_agree_with_triples_on_bench_sized_automata():
    rng = random.Random(41)
    for _ in range(4):
        g = bench_sized_automaton(rng)
        m = ProfileMonoid(g)
        for _ in range(40):
            p, q = _operand(rng, m), _operand(rng, m)
            assert triples_of(m, m.compose(p, q)) == ref.compose_triples(
                triples_of(m, p), triples_of(m, q)), (g, p, q)
        for _ in range(40):
            fin = frozenset(_operand(rng, m) for _ in range(rng.randrange(3)))
            inf = frozenset((_operand(rng, m), _operand(rng, m))
                            for _ in range(rng.randrange(3)))
            assert m.accepts_fin(fin) == ref.accepts_fin(m, fin), (g, fin)
            x = MixAbs(fin, inf)
            assert m.accepts_mix(x) == ref.accepts_mix(m, x), (g, x)
        for k in range(6):
            a = _words_profiles(rng, m, rng.randint(1, 2), with_eps=k % 2 == 0)
            x = m.omega(a)
            assert ref.decode_mix(m, x) == ref.omega_triples(
                g, ref.decode_fin(m, a)), (g, a)
            assert m.accepts_mix(x) == ref.accepts_mix(m, x), (g, a)


# emits every letter, loops through two methods, and diverges, so inference,
# the solve's star and omega and the verdict all build profiles
THREE_LETTER_LOOP = """
class Main {
    Object go() { emit a; Object r = this.ping(); return r; }
    Object ping() {
        Main z = null;
        if (this == z) { emit b; Object r = this.pong(); return r; }
        else { return null; }
    }
    Object pong() { emit c; Object r = this.ping(); return r; }
}
"""


def test_the_analysis_builds_only_dense_indices():
    rng = random.Random(42)
    for _ in range(3):
        domain = ProfileDomain(bench_sized_automaton(rng))
        prog = parse_program(THREE_LETTER_LOOP, alphabet=domain.alphabet)
        table = infer(prog, domain)
        eta = solve(EquationSystem.from_table(table, domain), domain)
        n = len(domain.monoid._interned)
        built = [p for t, h, s in table.mtable.values()
                 for part in (t, h, s) for a in part.values() for p in a]
        built += [p for x in eta.values() for p in x.fin]
        built += [p for x in eta.values() for pair in x.inf for p in pair]
        assert any(x.inf for x in eta.values())
        assert built and all(type(p) is int and 0 <= p < n for p in built)
