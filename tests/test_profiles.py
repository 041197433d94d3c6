"""Transition profiles and their finite/mixed abstractions.

profile_of_word is checked against brute-force path enumeration; the frozen
profile values for the one-letter parity automaton were worked out by hand
(two states, four triples — see the comments at the fixtures).  The packed
rows are checked against the string-triple reference of profile_reference.py.
"""

import contextlib
import glob
import io
import itertools
import random
from collections import Counter

import pytest

from guidecheck import cli, profiles
from guidecheck.domains import ProfileDomain
from guidecheck.fjparser import parse_program
from guidecheck.guideline import (
    GuidelineAutomaton,
    load_guideline,
    parse_guideline,
)
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
from conftest import (
    all_words,
    batch_automata,
    bench_sized_automaton,
    fixture,
    load_domain,
    perfbench_workloads,
    random_automaton,
)
from language_oracle import lang_omega
from nfa import Nfa
from nfa_words import nfa_accepts, nfa_full, nfa_of_words, nfa_word
from profile_reference import profile_of_triples, triples_of
from reference_cases import reference_cases


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
# The set-level operators are PAR_DOMAIN's, over PAR.
PAR_DOMAIN = load_domain("parity.gl")
PAR = PAR_DOMAIN.monoid
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
    d = ProfileDomain(
        parse_guideline(
            "alphabet: a\nstates: q\ninitial: q\naccepting: q\ntrans: q a q\n"
        )
    )
    m = d.monoid
    pa = m.profile_of_word(["a"])
    assert triples_of(m, pa) == triples_of(m, m.eps)
    assert pa != m.eps
    # and the tag is what keeps aω alive: ε̂ alone can never build a cycle pair
    assert d.omega(frozenset({pa})).inf
    assert d.omega(frozenset({m.eps})).inf == frozenset()


def test_elements_cover_all_word_profiles():
    for name in ("parity.gl", "double_letter.gl", "serve_liveness.gl"):
        m = load_monoid(name)
        for w in all_words(m.g.alphabet, 5):
            assert m.profile_of_word(w) in m.elements


def test_elements_close_on_first_use_only():
    d = ProfileDomain(load_guideline(fixture("serve_liveness.gl")))
    m = d.monoid
    d.omega(frozenset({m.profile_of_word(["log"])}))
    assert "elements" not in m.__dict__
    assert m.elements is m.elements
    assert "elements" in m.__dict__


@pytest.mark.parametrize("close", [
    lambda d: d.monoid.elements,
    lambda d: d.star(frozenset(d.monoid.letters.values())),
    lambda d: d.monoid.profile_of_word(["a"] * 3),
], ids=["elements", "star", "word"])
def test_every_closure_raises_past_the_monoid_cap(monkeypatch, close):
    g = load_guideline(fixture("count_mod3.gl"))
    full = len(ProfileMonoid(g).elements)
    letters = len(g.alphabet)
    assert full > letters + 1
    # ε̂ and the letters fit under the cap, so construction succeeds
    monkeypatch.setattr(profiles, "MONOID_CAP", letters)
    d = ProfileDomain(g)
    with pytest.raises(RuntimeError, match="profile monoid exceeded size cap"):
        close(d)
    assert len(d.monoid.zero) == letters + 1  # nothing interned past the cap
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
    assert PAR_DOMAIN.fin_concat(a1, a1) == frozenset({P_AA})
    assert PAR_DOMAIN.star(a1) == frozenset({PAR.eps, P_A, P_AA})
    assert PAR_DOMAIN.fin_concat(FIN_BOTTOM, a1) == FIN_BOTTOM


def test_omega_on_parity():
    x = PAR_DOMAIN.omega(frozenset({P_A}))
    assert x.fin == FIN_BOTTOM  # no ε in the base language
    assert x.inf == frozenset({(P_A, P_AA), (P_AA, P_AA)})
    assert PAR_DOMAIN.accepts_mix(x)  # a^ω alternates through odd forever
    assert PAR.member_up_word([], ["a"], x)
    assert PAR.member_up_word(["a"], ["a", "a"], x)


def test_omega_with_epsilon_keeps_finite_unfoldings():
    x = PAR_DOMAIN.omega(frozenset({PAR.eps, P_A}))
    assert PAR.member_fin([], x.fin)  # picking ε forever emits nothing
    assert PAR.member_fin(["a"], x.fin)
    assert PAR.member_up_word([], ["a"], x)
    assert PAR_DOMAIN.omega(FIN_BOTTOM) == MIX_BOTTOM


def test_accepts_fin_quantifies_over_every_member():
    assert PAR_DOMAIN.accepts_fin(frozenset({P_A}))
    assert not PAR_DOMAIN.accepts_fin(frozenset({P_AA}))  # aa ends in even
    assert not PAR_DOMAIN.accepts_fin(frozenset({P_A, P_AA}))
    assert PAR_DOMAIN.accepts_fin(FIN_BOTTOM)  # vacuous


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
    x = PAR_DOMAIN.omega(frozenset({P_A}))
    y = PAR_DOMAIN.mix_join(x, MixAbs(frozenset({P_A}), frozenset()))
    assert m.mix_leq(bot, x) and m.mix_leq(x, y)
    assert not m.mix_leq(y, x)
    assert m.mix_leq(x, x)


def test_acceptance_invariant_under_saturation():
    rng = random.Random(34)
    for _ in range(30):
        g = random_automaton(rng)
        d = load_domain(g)
        m = d.monoid
        elems = sorted(m.elements, key=lambda p: ref.describe(m, p))
        pairs = set()
        for _ in range(3):
            s, e = rng.choice(elems), rng.choice(elems)
            if m.compose(e, e) == e and m.compose(s, e) == s:
                pairs.add((s, e))
        x = MixAbs(frozenset(), frozenset(pairs))
        y = m.normalize_mix(x)
        assert d.accepts_mix(x) == d.accepts_mix(y)
        for _ in range(5):
            u = [rng.choice(g.alphabet) for _ in range(rng.randrange(3))]
            v = [rng.choice(g.alphabet) for _ in range(1, 3)]
            assert m.member_up_word(u, v, x) == m.member_up_word(u, v, y)


def test_extendable_into():
    # parity: a extends to aa, so P(a) reaches the {P(aa)} target
    assert PAR.extendable_into(P_A, [frozenset({P_AA})], [])
    assert PAR.extendable_into(P_A, [], [PAR_DOMAIN.omega(frozenset({P_A}))])
    assert not PAR.extendable_into(P_A, [], [])
    # first_letter: nothing leaves qa, so a P(b)-shaped target is unreachable
    m = load_monoid("first_letter.gl")
    pa, pb = m.profile_of_word(["a"]), m.profile_of_word(["b"])
    assert not m.extendable_into(pa, [frozenset({pb})], [])
    assert m.extendable_into(m.eps, [frozenset({pb})], [])


def test_alpha_lang_matches_omega_on_pure_iteration():
    for name in ("parity.gl", "double_letter.gl", "count_mod3.gl"):
        d = load_domain(name)
        m = d.monoid
        base = nfa_of_words([("a",), ("b", "b")], m.g.alphabet) if len(
            m.g.alphabet
        ) > 1 else Nfa.letter("a", m.g.alphabet)
        got = m.alpha_lang(lang_omega(base))
        want = d.omega(ref.alpha_nfa(m, base))
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
        d = ProfileDomain(g)
        m = d.monoid
        fin = frozenset(_operand(rng, m) for _ in range(rng.randrange(3)))
        inf = frozenset((_operand(rng, m), _operand(rng, m))
                        for _ in range(rng.randrange(3)))
        assert d.accepts_fin(fin) == ref.accepts_fin(m, fin), (g, fin)
        x = MixAbs(fin, inf)
        assert d.accepts_mix(x) == ref.accepts_mix(m, x), (g, x)


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


def test_eps_hat_products_are_set_at_interning_as_the_kernel_builds_them():
    """The monoid sets ε̂·p and p·ε̂ to p as it interns a profile p whose
    zero matrix avoids the accepting states, as every word's does; the
    kernel, asked again without them, builds the same.  A profile with a
    zero bit at an accepting state, which no word has, gets no such
    entries, and its products with ε̂ are the kernel's."""
    rng = random.Random(49)
    automata = [random_automaton(rng) for _ in range(30)]
    automata += [bench_sized_automaton(rng) for _ in range(4)]
    unset = 0
    for g in automata:
        m = ProfileMonoid(g)
        eps = m.eps
        for p in [eps, *_words_profiles(rng, m, 12, with_eps=False)]:
            assert m.mul[eps][p] == p == m.mul[p][eps], (g, p)
            m.mul[eps].pop(p)
            m.mul[p].pop(eps, None)
            assert m.compose(eps, p) == p == m.compose(p, eps), (g, p)
        if g.accepting:
            q = next(iter(g.accepting))
            p = profile_of_triples(m, {(q, 0, q)})
            assert eps not in m.mul[p] and p not in m.mul[eps], g
            assert ref.compose_triples(triples_of(m, eps), triples_of(m, p)) \
                == triples_of(m, m.compose(eps, p)) != triples_of(m, p), g
            unset += 1
    assert unset > 20


def test_no_analysis_builds_a_product_with_an_eps_hat_operand(
        monkeypatch, tmp_path):
    """Through each analysis of ``_analyses``, a ``guideline-batch`` pass
    among them, ``compose`` is asked for products with an ε̂ operand and
    finds each one set: none runs the kernel."""
    compose = ProfileMonoid.compose
    asked, built = 0, []

    def counting(m, p1, p2):
        nonlocal asked
        if m.eps in (p1, p2):
            asked += 1
            if p2 not in m.mul[p1]:
                built.append((p1, p2))
        return compose(m, p1, p2)

    monkeypatch.setattr(ProfileMonoid, "compose", counting)
    for _, run in _analyses(str(tmp_path)):
        run()
    assert built == [] and asked > 100, (len(built), asked)


def test_omega_matches_its_two_closure_reference():
    rng = random.Random(40)
    for k in range(60):
        g = random_automaton(rng)
        d = ProfileDomain(g)
        m = d.monoid
        a = _words_profiles(rng, m, rng.randint(0, 3), with_eps=k % 2 == 0)
        got = ref.decode_mix(m, d.omega(a))
        assert got == ref.omega_triples(g, ref.decode_fin(m, a)), (g, a)


def test_operators_agree_with_triples_on_bench_sized_automata():
    rng = random.Random(41)
    for _ in range(4):
        g = bench_sized_automaton(rng)
        d = ProfileDomain(g)
        m = d.monoid
        for _ in range(40):
            p, q = _operand(rng, m), _operand(rng, m)
            assert triples_of(m, m.compose(p, q)) == ref.compose_triples(
                triples_of(m, p), triples_of(m, q)), (g, p, q)
        for _ in range(40):
            fin = frozenset(_operand(rng, m) for _ in range(rng.randrange(3)))
            inf = frozenset((_operand(rng, m), _operand(rng, m))
                            for _ in range(rng.randrange(3)))
            assert d.accepts_fin(fin) == ref.accepts_fin(m, fin), (g, fin)
            x = MixAbs(fin, inf)
            assert d.accepts_mix(x) == ref.accepts_mix(m, x), (g, x)
        for k in range(6):
            a = _words_profiles(rng, m, rng.randint(1, 2), with_eps=k % 2 == 0)
            x = d.omega(a)
            assert ref.decode_mix(m, x) == ref.omega_triples(
                g, ref.decode_fin(m, a)), (g, a)
            assert d.accepts_mix(x) == ref.accepts_mix(m, x), (g, a)


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


# -- the packed kernel on automata of 1 to 12 states -------------------------


def _sized_automaton(rng, n):
    """A guideline of n states over two letters, about two transitions per
    state and letter, so that the monoid stays small enough for the
    triple reference to close."""
    letters = ("a", "b")
    states = [f"q{i}" for i in range(n)]
    accepting = [q for q in states if rng.random() < 0.4] or [states[-1]]
    initial = [q for q in states if rng.random() < 0.3] or [states[0]]
    trans = [(q, a, q2) for q in states for a in letters for q2 in states
             if rng.random() < min(1.0, 2 / n)]
    return GuidelineAutomaton(letters, states, initial, accepting, trans)


def test_packed_kernel_matches_the_triple_reference_up_to_twelve_states():
    """From n = 6 on a matrix has more than 30 bits, so it spans several
    of the interpreter's integer digits; the column product, ω and the
    acceptance masks must agree with the triples at every size, on word
    profiles and on arbitrary ones, with both tags."""
    rng = random.Random(43)
    tagged = 0
    for n in range(1, 13):
        for _ in range(3):
            g = _sized_automaton(rng, n)
            d = ProfileDomain(g)
            m = d.monoid
            for _ in range(30):
                p, q = _operand(rng, m), _operand(rng, m)
                pq = m.compose(p, q)
                assert triples_of(m, pq) == ref.compose_triples(
                    triples_of(m, p), triples_of(m, q)), (g, p, q)
                assert m.empty[pq] == (m.empty[p] and m.empty[q])
                tagged += m.empty[p] or m.empty[q]
                fin = frozenset({p, pq})
                assert d.accepts_fin(fin) == ref.accepts_fin(m, fin), (g, fin)
                x = MixAbs(fin, frozenset({(p, q), (pq, q)}))
                assert d.accepts_mix(x) == ref.accepts_mix(m, x), (g, x)
            for k in range(4):
                a = _words_profiles(rng, m, rng.randint(0, 2),
                                    with_eps=k % 2 == 0)
                x = d.omega(a)
                assert ref.decode_mix(m, x) == ref.omega_triples(
                    g, ref.decode_fin(m, a)), (g, a)
                assert d.accepts_mix(x) == ref.accepts_mix(m, x), (g, a)
    assert tagged > 100


def _domain_over(monoid, domain_class=ProfileDomain):
    """A profile domain whose operators compose on the given monoid."""
    domain = domain_class(monoid.g)
    domain.monoid = monoid
    return domain


def _drive(rng, d):
    """One fixed mix of the operators on d's monoid: the closure, words,
    products, stars, ω and concatenations of small sets, all drawn from
    rng."""
    m = d.monoid
    m.elements
    words = [[rng.choice(m.g.alphabet) for _ in range(rng.randrange(6))]
             for _ in range(20)]
    built = [m.profile_of_word(w) for w in words]
    for _ in range(20):
        a = frozenset(rng.sample(built, rng.randint(1, 3)))
        b = frozenset(rng.sample(built, rng.randint(1, 3)))
        d.fin_mix_concat(d.fin_concat(a, b), d.omega(b))
        d.star(a)


def _analyses(directory):
    """(name, run) for each check of the benchmark's ``guideline-batch``
    workload at seed 1, its inputs written to directory, and for each
    fixture program under each fixture guideline that covers it: run()
    analyzes it through ``cli`` and returns the exit code and the output,
    or the report."""
    workloads = perfbench_workloads()
    workload = workloads.build("guideline-batch", 1)
    workloads.write(workload, directory)
    for check in workload.checks:
        def main(argv=check.argv_in(directory)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()
        yield check.name, main
    for name, prog, d, specs in reference_cases():
        if ".fj/" in name:
            yield name, lambda prog=prog, g=d.guideline, specs=specs: (
                cli.analyze(prog, g, specs).to_json())


def _analyzed(monkeypatch, domain_class, run):
    """What run() returns, and the one domain of domain_class that its
    analysis built."""
    built = []

    class Recording(domain_class):
        def __init__(self, guideline):
            super().__init__(guideline)
            built.append(self)

    monkeypatch.setattr(cli, "ProfileDomain", Recording)
    out = run()
    (domain,) = built
    return out, domain


def test_the_row_loop_product_interns_the_same_profiles_in_the_same_order(
        monkeypatch, tmp_path):
    """The column product replaced the row loop kept in
    ``profile_reference.RowLoopMonoid``: on benchmark-sized automata both
    intern the same profiles under the same indices, and the analysis of a
    program builds the same tables.  A whole analysis, with the domain's
    products kept by operand pair, interns the same profiles in the same
    order as one through ``profile_reference.PlainProductDomain``, which
    multiplies every pair again on the row loop, and reports the same."""
    rng = random.Random(44)
    for _ in range(4):
        g = bench_sized_automaton(rng)
        seed = rng.random()
        packed, rows = ProfileMonoid(g), ref.RowLoopMonoid(g)
        for m in (packed, rows):
            _drive(random.Random(seed), _domain_over(m))
        assert len(packed.zero) == len(rows.zero) > 100
        assert [ref.describe(packed, p) for p in range(len(packed.zero))] == [
            ref.describe(rows, p) for p in range(len(rows.zero))]
        tables = []
        for monoid in (ProfileMonoid(g), ref.RowLoopMonoid(g)):
            domain = _domain_over(monoid)
            prog = parse_program(THREE_LETTER_LOOP, alphabet=domain.alphabet)
            table = infer(prog, domain)
            eta = solve(EquationSystem.from_table(table, domain), domain)
            tables.append((table.mtable, eta, [
                ref.describe(monoid, p) for p in range(len(monoid.zero))]))
        assert tables[0] == tables[1]
    analyses = 0
    for name, run in _analyses(str(tmp_path)):
        built = []
        for domain_class in (ProfileDomain, ref.PlainProductDomain):
            out, domain = _analyzed(monkeypatch, domain_class, run)
            m = domain.monoid
            built.append((out, m.zero, m.one, m.empty))
        assert built[0] == built[1], name
        analyses += 1
    assert analyses == 8 + 9


class _CountingRows(list):
    """A monoid's ``mul`` that counts the rows read out of it: a product
    of two profiles reads the row of its left operand."""

    reads = 0

    def __getitem__(self, p):
        self.reads += 1
        return super().__getitem__(p)


def test_concatenations_equal_the_plain_products_and_repeat_none():
    """On every fixture guideline and the benchmark's batch guidelines,
    ``fin_concat`` and ``fin_mix_concat`` give what multiplying every pair
    of elements gives, on random operands with the empty set and {ε̂} among
    them.  Asked again for a pair, as equal copies of its operands, they
    read no product and call no ``compose``."""
    rng = random.Random(47)
    automata = [load_guideline(path)
                for path in sorted(glob.glob(fixture("*.gl")))]
    automata += batch_automata()
    assert len(automata) == 7 + 8
    for g in automata:
        d = ProfileDomain(g)
        m = d.monoid
        plain = _domain_over(m, ref.PlainProductDomain)
        fins = [FIN_BOTTOM, m.fin_eps] + [
            _words_profiles(rng, m, rng.randint(1, 4), with_eps=k % 3 == 0)
            for k in range(8)]
        words = sorted(set().union(*fins))
        mixes = [MIX_BOTTOM, MixAbs(m.fin_eps, frozenset())] + [
            MixAbs(rng.choice(fins), frozenset(
                (rng.choice(words), rng.choice(words))
                for _ in range(rng.randint(1, 3))))
            for _ in range(6)]
        expected = {}
        for x in fins:
            for y in fins:
                expected[x, y] = plain.fin_concat(x, y)
                assert d.fin_concat(x, y) == expected[x, y], (g, x, y)
            for y in mixes:
                expected[x, y] = plain.fin_mix_concat(x, y)
                assert d.fin_mix_concat(x, y) == expected[x, y], (g, x, y)
        rows = m.mul = _CountingRows(m.mul)
        composed = []
        m.compose = lambda p, q: composed.append((p, q))
        asked = list(expected.items())
        rng.shuffle(asked)
        for (x, y), out in asked:
            x = frozenset(x)
            if type(y) is MixAbs:
                assert d.fin_mix_concat(x, MixAbs(*y)) == out, (g, x, y)
            else:
                assert d.fin_concat(x, frozenset(y)) == out, (g, x, y)
        assert (rows.reads, composed) == (0, []), g


def test_each_pair_is_multiplied_at_most_once_per_analysis(
        monkeypatch, tmp_path):
    """Through each analysis of ``_analyses``, ``fin_concat`` and
    ``fin_mix_concat`` read the products of an operand pair at most once,
    however often inference, the re-check and the solve ask for it."""

    class Counting(ProfileDomain):
        def __init__(self, guideline):
            super().__init__(guideline)
            self.monoid.mul = _CountingRows(self.monoid.mul)
            self.calls, self.multiplied = Counter(), Counter()

        def _counted(self, concat, x, y):
            rows = self.monoid.mul
            before = rows.reads
            out = concat(x, y)
            key = (concat.__name__, x, y)
            self.calls[key] += 1
            self.multiplied[key] += rows.reads > before
            return out

        def fin_concat(self, x, y):
            return self._counted(super().fin_concat, x, y)

        def fin_mix_concat(self, u, m):
            return self._counted(super().fin_mix_concat, u, m)

    calls = repeats = 0
    for name, run in _analyses(str(tmp_path)):
        _, domain = _analyzed(monkeypatch, Counting, run)
        assert max(domain.multiplied.values(), default=0) <= 1, name
        calls += sum(domain.calls.values())
        repeats += sum(domain.calls.values()) - len(domain.calls)
    assert calls > 1000 and repeats > 500, (calls, repeats)


# -- algebra laws the operators rely on --------------------------------------


def test_eps_hat_concatenates_as_the_identity():
    """``fin_concat`` returns the other operand when one side is {ε̂}, and
    ``fin_mix_concat`` its mixed operand when the finite one is; the
    elementwise products agree, and ``star`` closes the nonempty
    generators only, which gives the star of the whole set."""
    rng = random.Random(45)
    automata = [random_automaton(rng) for _ in range(20)]
    automata += [bench_sized_automaton(rng) for _ in range(3)]
    for g in automata:
        d = ProfileDomain(g)
        m = d.monoid
        for k in range(6):
            a = _words_profiles(rng, m, rng.randint(1, 3), with_eps=k % 2 == 0)
            elementwise = frozenset(m.compose(m.eps, p) for p in a)
            assert d.fin_concat(m.fin_eps, a) is a
            assert d.fin_concat(a, m.fin_eps) is a
            assert elementwise == a == frozenset(
                m.compose(p, m.eps) for p in a), (g, a)
            assert d.star(a) == m.fin_eps | m.s_plus(a), (g, a)
            x = d.omega(a)
            assert d.fin_mix_concat(m.fin_eps, x) is x
            assert x.inf == frozenset(
                (m.compose(m.eps, s), e) for s, e in x.inf), (g, a)
            assert d.fin_concat(a, a) == frozenset(
                m.compose(p, q) for p in a for q in a), (g, a)


def test_the_solve_closes_each_self_loop_coefficient_once(monkeypatch):
    """``eliminate`` takes the star and the ω of each self-loop
    coefficient, and both read one S⁺ closure: on every reference case
    the solve closes no set twice, and at most once per self-loop."""
    closed: dict = {}  # monoid id -> the generator sets closed
    loops = runs = 0
    s_plus = ProfileMonoid.s_plus

    def counting(m, gens):
        nonlocal runs
        gens = list(gens)
        runs += 1
        key = frozenset(gens)
        assert key not in closed.setdefault(id(m), set()), key
        closed[id(m)].add(key)
        return s_plus(m, gens)

    star = ProfileDomain.star

    def counting_star(domain, x):
        nonlocal loops
        loops += 1
        return star(domain, x)

    cases = list(reference_cases())
    tables = [(d, infer(prog, d, intrinsics=specs))
              for _, prog, d, specs in cases]
    monkeypatch.setattr(ProfileMonoid, "s_plus", counting)
    monkeypatch.setattr(ProfileDomain, "star", counting_star)
    for d, table in tables:
        solve(EquationSystem.from_table(table, d), d)
    assert loops > 10
    assert 0 < runs <= loops, (runs, loops)


def _consistent_profiles(m):
    """Every profile m can hold: bit (i, j) of zero only between two
    rejecting states, as a path that visits no accepting state, endpoints
    included, must; one profile per such pair of matrices."""
    n, g = len(m.g.states), m.g
    pairs = [(i, j) for i in range(n) for j in range(n)]
    rejecting = {i for i, q in enumerate(g.states) if q not in g.accepting}
    for picks in itertools.product(range(4), repeat=len(pairs)):
        zero = one = 0
        for (i, j), pick in zip(pairs, picks):
            if pick & 1 and not {i, j} <= rejecting:
                break
            zero |= (pick & 1) << i * n + j
            one |= (pick >> 1) << i * n + j
        else:
            yield m.profile(zero, one)


def test_a_silent_divergence_is_accepted_as_its_stem_is():
    # stem·ε̂^ω, the lasso of a silent divergence: ε̂ is its own idempotent
    # and loops on exactly the accepting states, so the lasso check reads
    # the stem as a finite word
    stems = []
    for path in sorted(glob.glob(fixture("*.gl"))):
        m = ProfileMonoid(load_guideline(path))
        more = _consistent_profiles(m) if len(m.g.states) <= 3 else []
        stems.append((m, [*m.elements, *more]))
    assert len(stems) == 7
    rng = random.Random(43)
    for _ in range(200):
        m = ProfileMonoid(random_automaton(rng))
        stems.append((m, list(m.elements)))
    for m, profiles_of_m in stems:
        for p in profiles_of_m:
            assert m.accepts_lasso_of(p, m.eps) == m.accepts[p], (m.g, p)
    assert sum(len(ps) for _, ps in stems) > 3_000
