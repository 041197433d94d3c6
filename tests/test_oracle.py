"""NFA toolbox and concrete word languages.

Automaton operations are checked against plain word enumeration: build both
sides, enumerate every word up to a length bound, compare membership.  That
keeps the expected values independent of the construction code.
"""

import random

import pytest

from nfa import (
    Nfa,
    RegexError,
    nfa_concat,
    nfa_star,
    nfa_union,
    regex_to_nfa,
)
from language_oracle import (
    WordLang,
    all_words,
    bounded_equiv,
    lang_concat_fin,
    lang_member_fin,
    lang_member_up,
    lang_omega,
    lang_union,
    nfa_nonempty_part,
)
from nfa_words import (
    nfa_accepts,
    nfa_full,
    nfa_is_empty,
    nfa_none,
    nfa_of_words,
    nfa_word,
)

AB = ("a", "b")


def accepted_set(nfa: Nfa, max_len: int) -> set:
    return {w for w in all_words(nfa.alphabet, max_len) if nfa_accepts(nfa, w)}


def rand_nfa(rng: random.Random, alphabet=AB, max_states=3) -> Nfa:
    n = rng.randrange(1, max_states + 1)
    delta = {}
    for q in range(n):
        for a in alphabet:
            tgts = frozenset(t for t in range(n) if rng.random() < 0.4)
            if tgts:
                delta[(q, a)] = tgts
    initial = frozenset({0})
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5) or frozenset({n - 1})
    return Nfa(tuple(alphabet), n, delta, initial, accepting)


# --- constructors ------------------------------------------------------------


def test_primitive_constructors():
    assert accepted_set(nfa_none(AB), 3) == set()
    assert accepted_set(Nfa.epsilon(AB), 3) == {()}
    assert accepted_set(Nfa.letter("a", AB), 2) == {("a",)}
    assert accepted_set(nfa_word(["a", "b", "a"], AB), 4) == {("a", "b", "a")}
    assert accepted_set(nfa_of_words([(), ("b",), ("a", "a")], AB), 3) == {
        (),
        ("b",),
        ("a", "a"),
    }
    assert accepted_set(nfa_full(AB), 2) == set(all_words(AB, 2))


def test_words_enumeration_is_shortlex():
    nfa = nfa_full(AB)
    got = list(nfa.words(2))
    assert got == [(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    assert list(nfa.words(4, limit=3)) == [(), ("a",), ("b",)]


def test_shortest_word_is_the_first_word():
    rng = random.Random(11)
    for _ in range(200):
        nfa = rand_nfa(rng, max_states=6)
        first = next(iter(nfa.words(nfa.nstates, 1)), None)
        assert nfa.shortest_word() == first
        assert (first is None) == nfa_is_empty(nfa)
    # every prefix of (a|b)* stays live, so the layers of words() double
    # with each letter; the walk over state sets does not
    nfa = regex_to_nfa("(a | b)* " + "c " * 40, ("a", "b", "c"))
    assert nfa.shortest_word() == ("c",) * 40


def test_is_empty_and_has_eps():
    assert nfa_is_empty(nfa_none(AB))
    assert not nfa_is_empty(Nfa.epsilon(AB))
    assert Nfa.epsilon(AB).has_eps()
    assert not Nfa.letter("a", AB).has_eps()
    # reachable but not co-reachable accepting state
    dead = Nfa(AB, 2, {(0, "a"): frozenset({0})}, frozenset({0}), frozenset({1}))
    assert nfa_is_empty(dead)


# --- rational operations vs enumeration --------------------------------------


def test_union_concat_star_against_enumeration():
    rng = random.Random(7)
    for _ in range(60):
        x, y = rand_nfa(rng), rand_nfa(rng)
        sx, sy = accepted_set(x, 4), accepted_set(y, 4)
        assert accepted_set(nfa_union(x, y), 4) == sx | sy
        cat = {u + v for u in accepted_set(x, 4) for v in accepted_set(y, 4) if len(u + v) <= 4}
        assert accepted_set(nfa_concat(x, y), 4) == cat
        star = {()}
        for _r in range(4):
            star |= {u + v for u in star for v in accepted_set(x, 4) if len(u + v) <= 4}
        assert accepted_set(nfa_star(x), 4) == star


def test_nonempty_part_drops_epsilon_only():
    rng = random.Random(8)
    for _ in range(40):
        x = rand_nfa(rng)
        assert accepted_set(nfa_nonempty_part(x), 4) == accepted_set(x, 4) - {()}
        assert not nfa_nonempty_part(x).has_eps()


# --- regexes ------------------------------------------------------------------


@pytest.mark.parametrize(
    "src,members,non",
    [
        ("eps", [()], [("a",)]),
        ("a b", [("a", "b")], [("a",), ("b", "a")]),
        ("a | b", [("a",), ("b",)], [(), ("a", "b")]),
        ("a*", [(), ("a",), ("a", "a", "a")], [("b",)]),
        ("a a*", [("a",), ("a", "a")], [()]),
        ("(a b)* a", [("a",), ("a", "b", "a")], [("a", "b")]),
        ("a | eps", [(), ("a",)], [("a", "a")]),
    ],
)
def test_regex_membership(src, members, non):
    nfa = regex_to_nfa(src, AB)
    for w in members:
        assert nfa_accepts(nfa, w), (src, w)
    for w in non:
        assert not nfa_accepts(nfa, w), (src, w)


@pytest.mark.parametrize("src", ["a |", "(a", "a)", "*", "c", "( )"])
def test_regex_rejects_garbage(src):
    with pytest.raises(RegexError):
        regex_to_nfa(src, AB)


# --- word languages with an infinite part -------------------------------------


def omega_lang(alphabet, u_words, v_words):
    return lang_omega(nfa_of_words(u_words, alphabet))  # convenience for u^ω


def test_lang_omega_membership():
    x = lang_omega(nfa_of_words([("a",), ("b", "b")], AB))
    # {a,bb}^ω contains a^ω, (bb)^ω, (abb)^ω...
    assert lang_member_up([], ["a"], x)
    assert lang_member_up(["a"], ["b", "b"], x)
    assert lang_member_up([], ["a", "b", "b"], x)
    assert not lang_member_up([], ["b", "a"], x)  # odd b-runs never close
    assert not lang_member_fin(["a"], x)  # no finite part at all
    assert not lang_member_fin([], x)


def test_lang_omega_of_empty_or_epsilon_language():
    empty = lang_omega(nfa_none(AB))
    assert empty.inf == () and not lang_member_fin([], empty)
    # unfolding ε forever emits nothing: the observable trace is the finite ε
    x = lang_omega(Nfa.epsilon(AB))
    assert lang_member_fin([], x)
    assert not lang_member_fin(["a"], x)
    assert not lang_member_up([], ["a"], x)


def test_lang_concat_and_union():
    fin_ab = WordLang.of_fin(nfa_of_words([("a",), ("b",)], AB))
    x = lang_concat_fin(nfa_word(["a"], AB), fin_ab)
    assert lang_member_fin(["a", "a"], x) and lang_member_fin(["a", "b"], x)
    assert not lang_member_fin(["a"], x)
    y = lang_union(x, lang_omega(Nfa.letter("b", AB)))
    assert lang_member_fin(["a", "b"], y)
    assert lang_member_up([], ["b"], y)
    assert not lang_member_up([], ["a"], y)


def test_lang_member_up_requires_nonempty_cycle():
    with pytest.raises(ValueError):
        lang_member_up(["a"], [], WordLang.universal(AB))


def test_universal_language():
    x = WordLang.universal(AB)
    assert lang_member_fin([], x) and lang_member_fin(["b", "a"], x)
    assert lang_member_up(["a"], ["b"], x)


def test_bounded_equiv():
    x = lang_omega(Nfa.letter("a", AB))
    y = lang_omega(nfa_of_words([("a",), ("a", "a")], AB))
    assert bounded_equiv(x, y, AB)  # {a}^ω = {a,aa}^ω = a^ω
    z = lang_omega(nfa_full(AB))
    assert not bounded_equiv(x, z, AB)


def test_lasso_membership_matches_unrolling():
    rng = random.Random(13)
    x = lang_omega(nfa_of_words([("a", "b"), ("b",)], AB))
    for _ in range(80):
        u = tuple(rng.choice(AB) for _ in range(rng.randrange(3)))
        v = tuple(rng.choice(AB) for _ in range(1, 4))
        base = lang_member_up(u, v, x)
        assert lang_member_up(u + v, v, x) == base
        assert lang_member_up(u, v + v, x) == base


def test_product_cache_keys_by_value_not_identity():
    """Regression: the lasso product cache once keyed on id(), which the
    allocator happily recycles; equal-by-value NFAs must share a cache slot
    and distinct ones must not collide after garbage collection."""
    import gc

    def probe():
        u = nfa_word(["a"], AB)
        v = Nfa.letter("b", AB)
        return lang_member_up(["a"], ["b"], WordLang(nfa_none(AB), ((u, v),)))

    first = probe()
    gc.collect()
    # fresh, differently-shaped pair that could land on recycled ids
    u2 = nfa_word(["b"], AB)
    v2 = Nfa.letter("a", AB)
    x2 = WordLang(nfa_none(AB), ((u2, v2),))
    assert lang_member_up(["a"], ["b"], x2) is False
    assert lang_member_up(["b"], ["a"], x2) is True
    assert first is True
