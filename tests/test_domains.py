"""The analysis' effect domain and the two reference domains of the tests.

ProfileDomain and OracleDomain are exercised hard by the law battery in
test_acceptance; this module pins their interface behaviour (bottoms, eps,
the deliberate NotImplementedErrors) and checks the toy domain's tables
exhaustively — small enough to enumerate completely.
"""

import itertools

import pytest

from guidecheck.domains import ProfileDomain
from guidecheck.fjast import Emit, subexprs
from guidecheck.fjparser import parse_program
from guidecheck.guideline import load_guideline
from guidecheck.inference import infer
from guidecheck.profiles import ProfileMonoid

from conftest import fixture, load_domain
from language_oracle import OracleDomain
from nfa_words import nfa_accepts, nfa_none, nfa_of_words
from reference_cases import emit_runs
from toydomain import APLUS, ASTAR, EMPTY, EPS, ToyDomain, ToyMix


# --- ProfileDomain ------------------------------------------------------------


def test_profile_domain_lattice_basics():
    d = load_domain("parity.gl")
    bot = d.fin_bottom()
    a = d.alpha_word(["a"])
    assert d.fin_is_bottom(bot) and not d.fin_is_bottom(a)
    assert d.fin_eq(d.fin_join(bot, a), a)
    assert d.fin_leq(a, d.fin_join(a, d.alpha_word(["a", "a"])))
    assert d.fin_eq(d.fin_concat(a, d.alpha_word([])), a)
    assert d.mix_is_bottom(d.mix_bottom())
    assert d.member_fin([], d.alpha_word([]))
    elements = d.monoid.elements
    assert d.fin_height() == len(elements) + 1  # exact once closed


def test_profile_domain_height_counts_the_interned_profiles():
    for name in ("parity.gl", "count_mod3.gl", "serve_liveness.gl"):
        d = ProfileDomain(load_guideline(fixture(name)))
        # the empty word's profile and one per letter, all distinct here
        assert d.fin_height() == len(d.alphabet) + 2
        before = d.fin_height()
        letters = frozenset(d.monoid.letters.values())
        d.omega(d.star(letters))
        grown = d.fin_height()
        assert "elements" not in d.monoid.__dict__
        assert before < grown == len(d.monoid.zero) + 1
        assert grown <= len(d.monoid.elements) + 1


def test_profile_domain_eps_units():
    d = load_domain("double_letter.gl")
    eps = d.mix_of_eps()
    x = d.omega(d.alpha_word(["a", "a"]))
    assert d.mix_eq(d.fin_mix_concat(d.alpha_word([]), x), x)
    assert d.member_fin([], eps.fin)
    assert not eps.inf


def test_profile_domain_acceptance_hooks():
    d = load_domain("parity.gl")
    assert d.accepts_fin(d.alpha_word(["a"]))
    assert not d.accepts_fin(d.alpha_word([]))
    assert d.accepts_mix(d.omega(d.alpha_word(["a"])))


def test_profile_domain_alpha_words_default():
    d = load_domain("parity.gl")
    got = d.alpha_words([[], ["a"], ["a", "a", "a"]])
    assert got == d.fin_join(d.alpha_word([]), d.fin_join(d.alpha_word(["a"]), d.alpha_word(["a"])))


# --- OracleDomain --------------------------------------------------------------


def test_oracle_domain_has_no_exact_equality():
    d = OracleDomain(("a", "b"))
    x = d.alpha_word(["a"])
    for op in (d.fin_eq, d.fin_leq):
        with pytest.raises(NotImplementedError):
            op(x, x)
    m = d.omega(x)
    for op in (d.mix_eq, d.mix_leq):
        with pytest.raises(NotImplementedError):
            op(m, m)
    assert d.bounded_equiv(m, m)


def test_oracle_domain_language_ops():
    d = OracleDomain(("a", "b"))
    x = d.fin_join(d.alpha_word(["a"]), d.alpha_word(["b", "b"]))
    assert nfa_accepts(x, ("a",)) and nfa_accepts(x, ("b", "b")) and not nfa_accepts(x, ())
    assert d.fin_is_bottom(d.fin_bottom())
    assert not d.fin_is_bottom(d.alpha_word([]))
    y = d.star(d.alpha_word(["a"]))
    assert nfa_accepts(y, ()) and nfa_accepts(y, ("a", "a", "a"))
    m = d.omega(d.alpha_word(["a"]))
    assert d.member_up([], ["a"], m)
    assert not d.member_fin([], m.fin)
    assert d.member_fin(["a"], d.fin_mix_concat(d.alpha_word(["a"]), d.mix_of_eps()).fin)
    assert d.mix_is_bottom(d.mix_bottom())
    top = d.mix_top()
    assert d.member_fin(["b", "a"], top.fin) and d.member_up([], ["b"], top)


def test_fin_height_known_only_where_finite():
    assert OracleDomain(("a",)).fin_height() is None
    assert ToyDomain().fin_height() == 3


# --- ToyDomain: exhaustive over the four finite values --------------------------

FOUR = (EMPTY, EPS, APLUS, ASTAR)


def test_toy_join_is_a_semilattice():
    d = ToyDomain()
    for x, y, z in itertools.product(FOUR, repeat=3):
        assert d.fin_join(x, y) == d.fin_join(y, x)
        assert d.fin_join(x, x) == x
        assert d.fin_join(d.fin_join(x, y), z) == d.fin_join(x, d.fin_join(y, z))
        assert d.fin_leq(x, d.fin_join(x, y))


def test_toy_concat_is_the_best_abstraction():
    # concretize to word lengths (a^n ↦ n), compose, re-abstract minimally
    def lengths(x):
        return {EMPTY: set(), EPS: {0}, APLUS: {1, 2, 3, 4}, ASTAR: {0, 1, 2, 3, 4}}[x]

    def cover(ns):
        if not ns:
            return EMPTY
        if ns == {0}:
            return EPS
        return ASTAR if 0 in ns else APLUS

    d = ToyDomain()
    for x, y in itertools.product(FOUR, repeat=2):
        want = cover({i + j for i in lengths(x) for j in lengths(y)})
        assert d.fin_concat(x, y) == want, (x, y)


def test_toy_concat_loses_eps_precisely_where_documented():
    d = ToyDomain()
    assert d.fin_concat(APLUS, ASTAR) == APLUS
    assert d.fin_concat(ASTAR, APLUS) == APLUS
    assert d.fin_concat(ASTAR, ASTAR) == ASTAR
    assert d.fin_concat(EMPTY, ASTAR) == EMPTY


def test_toy_star_and_omega():
    d = ToyDomain()
    assert d.star(EMPTY) == EPS
    assert d.star(APLUS) == ASTAR
    assert d.omega(APLUS) == ToyMix(EMPTY, True)
    assert d.omega(ASTAR) == ToyMix(ASTAR, True)
    assert d.omega(EPS) == ToyMix(EPS, False)
    assert d.omega(EMPTY) == d.mix_bottom()


def test_toy_alpha_and_membership():
    d = ToyDomain()
    assert d.alpha_word([]) == EPS and d.alpha_word(["a", "a"]) == APLUS
    assert d.alpha_nfa(nfa_of_words([(), ("a",)], ("a",))) == ASTAR
    assert d.alpha_nfa(nfa_none(("a",))) == EMPTY
    assert d.member_fin(["a"], APLUS) and not d.member_fin([], APLUS)
    assert d.member_up([], ["a"], ToyMix(EMPTY, True))
    with pytest.raises(ValueError):
        d.member_up([], [], ToyMix(EMPTY, True))


def test_toy_mix_lattice():
    d = ToyDomain()
    bot, top = d.mix_bottom(), d.mix_top()
    vals = [ToyMix(f, b) for f in FOUR for b in (False, True)]
    for v in vals:
        assert d.mix_leq(bot, v) and d.mix_leq(v, top)
        assert d.mix_eq(d.mix_join(v, bot), v)
    assert d.render_mix(ToyMix(APLUS, True)) == "a+ + a^w"
    assert d.render_mix(ToyMix(EPS, False)) == "{eps}"


def test_a_word_is_composed_once_per_analysis(monkeypatch):
    composed = []
    real = ProfileMonoid.profile_of_word
    monkeypatch.setattr(ProfileMonoid, "profile_of_word", lambda m, w: (
        composed.append(tuple(w)), real(m, w))[1])
    d = ProfileDomain(load_guideline(fixture("count_mod3.gl")))
    # a list and a tuple are the same word
    assert d.alpha_word(["a", "b"]) is d.alpha_word(("a", "b"))
    assert composed == [("a", "b")]
    assert d.alpha_word([]) == d.alpha_word(()) == d.monoid.fin_eps
    prog = parse_program(emit_runs(3, 3, 6))
    words = {e.events for c in prog.classes for m in c.methods
             for e in subexprs(m.body) if isinstance(e, Emit)}
    typings = []
    alpha_word = d.alpha_word
    monkeypatch.setattr(d, "alpha_word", lambda w: (
        typings.append(tuple(w)), alpha_word(w))[1])
    infer(prog, d)
    typed = [w for w in typings if w]
    assert len(typed) > 2 * len(set(typed))  # words are typed again and again
    assert sorted(composed[1:]) == sorted(set(typed) - {("a", "b")})
    assert set(typed) <= words
