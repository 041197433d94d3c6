"""The transition-profile algebra over string triples, as a reference.

A profile used to be a set of triples (q, b, q'): some path reads the word
from q to q', with b = 1 iff it visits an accepting state (endpoints
included).  The package packs the same sets into bit rows
(``guidecheck.profiles``); this module keeps the triple form and its
operations, so the tests can state profiles by hand and check the packed
operations against the plain definitions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from guidecheck.guideline import GuidelineAutomaton
from guidecheck.profiles import MixAbs, Profile

Triples = frozenset  # of (state, bit, state)


def profile_of_triples(g: GuidelineAutomaton, triples: Iterable,
                       empty: bool = False) -> Profile:
    """The profile over g's states that holds exactly these triples.  It
    is not interned, but equals the monoid's profile with the same rows."""
    index = {q: i for i, q in enumerate(g.states)}
    zero = [0] * len(g.states)
    one = [0] * len(g.states)
    for q, b, q2 in triples:
        (one if b else zero)[index[q]] |= 1 << index[q2]
    return Profile(tuple(zero), tuple(one), empty, g.states)


def triples_of(p: Profile) -> Triples:
    """The triples a profile's rows hold."""
    names = p.states
    return frozenset(
        (q, b, names[j])
        for q, z, o in zip(names, p.zero, p.one)
        for b, row in ((0, z), (1, o))
        for j in range(len(names)) if row >> j & 1
    )


def compose_triples(r1: Triples, r2: Triples) -> Triples:
    by_src: dict[str, list[tuple[int, str]]] = {}
    for q, b, q2 in r2:
        by_src.setdefault(q, []).append((b, q2))
    out = set()
    for q, b1, mid in r1:
        for b2, q2 in by_src.get(mid, ()):
            out.add((q, b1 | b2, q2))
    return frozenset(out)


def letter_rel(g: GuidelineAutomaton, a: str) -> Triples:
    """The triples of the transitions on a, b marking an accepting endpoint."""
    return frozenset(
        (q, 1 if q in g.accepting or q2 in g.accepting else 0, q2)
        for q, letter, q2 in g.transitions if letter == a
    )


def rel_of_word(g: GuidelineAutomaton, word: Sequence[str]) -> Triples:
    rel = frozenset(
        (q, 1 if q in g.accepting else 0, q) for q in g.states
    )
    for a in word:
        rel = compose_triples(rel, letter_rel(g, a))
    return rel


def accepts_fin(g: GuidelineAutomaton, a: Iterable[Profile]) -> bool:
    """Every profile in a connects an initial state to an accepting one."""
    return all(
        any(q in g.initial and q2 in g.accepting for q, _, q2 in triples_of(p))
        for p in a
    )


def accepts_mix(g: GuidelineAutomaton, x: MixAbs) -> bool:
    """accepts_fin on the finite part, and for each (stem, cycle) pair some
    state the stem reaches from an initial state loops on the cycle through
    an accepting visit."""
    if not accepts_fin(g, x.fin):
        return False
    for s, e in x.inf:
        starts = {q2 for q, _, q2 in triples_of(s) if q in g.initial}
        loops = {q for q, b, q2 in triples_of(e) if q == q2 and b == 1}
        if not starts & loops:
            return False
    return True


def accepts_lasso(g: GuidelineAutomaton, stem: Sequence[str],
                  cycle: Sequence[str]) -> bool:
    """Büchi acceptance of stem·cycle^ω by the classical reduction: accepted
    iff for some k, m a state q is reachable from an initial state reading
    stem·cycle^k and cycle^m loops on q through an accepting visit.  The
    relation powers are eventually periodic, so scanning each orbit once is
    complete."""
    rv = rel_of_word(g, cycle)
    cycles: list[Triples] = []
    cur = rv
    while cur not in cycles:
        cycles.append(cur)
        cur = compose_triples(cur, rv)
    stems: list[Triples] = []
    cur = rel_of_word(g, stem)
    while cur not in stems:
        stems.append(cur)
        cur = compose_triples(cur, rv)
    for s in stems:
        starts = {q2 for q, _, q2 in s if q in g.initial}
        for e in cycles:
            if starts & {q for q, b, q2 in e if q == q2 and b == 1}:
                return True
    return False
