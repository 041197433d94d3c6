"""The transition-profile algebra over string triples, as a reference.

A profile used to be a set of triples (q, b, q'): some path reads the word
from q to q', with b = 1 iff it visits an accepting state (endpoints
included).  The package packs the same sets into bit rows and names each
profile by its index in the monoid (``guidecheck.profiles``).  This module
decodes an index back into triples and keeps the triple form and its
operations, so the tests can state profiles by hand and check the packed
operations against the plain definitions.  It also keeps the abstraction
of an NFA by a product walk (``alpha_nfa``), the oracle that the package's
fold of a stub regex in the profile domain is checked against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from guidecheck.guideline import GuidelineAutomaton
from guidecheck.profiles import MixAbs, ProfileMonoid

Triples = frozenset  # of (state, bit, state)


def profile_of_triples(m: ProfileMonoid, triples: Iterable,
                       empty: bool = False) -> int:
    """The index in m of the profile that holds exactly these triples,
    interned there if m has not built it."""
    states = m.g.states
    index = {q: i for i, q in enumerate(states)}
    zero = [0] * len(states)
    one = [0] * len(states)
    for q, b, q2 in triples:
        (one if b else zero)[index[q]] |= 1 << index[q2]
    return m.profile(tuple(zero), tuple(one), empty)


def triples_of(m: ProfileMonoid, p: int) -> Triples:
    """The triples the rows of m's profile p hold."""
    names = m.g.states
    return frozenset(
        (q, b, names[j])
        for q, z, o in zip(names, m.zero[p], m.one[p])
        for b, row in ((0, z), (1, o))
        for j in range(len(names)) if row >> j & 1
    )


def describe(m: ProfileMonoid, p: int) -> str:
    """m's profile p written out, its triples sorted, with an ``ε:`` prefix
    on the empty word's profile."""
    inner = ", ".join(f"({q},{b},{q2})" for q, b, q2 in sorted(triples_of(m, p)))
    return "{" + ("ε:" if m.empty[p] else "") + inner + "}"


def decode(m: ProfileMonoid, p: int) -> tuple:
    """m's profile p as (triples, empty tag), comparable across monoids."""
    return triples_of(m, p), m.empty[p]


def decode_fin(m: ProfileMonoid, a: Iterable[int]) -> frozenset:
    return frozenset(decode(m, p) for p in a)


def decode_mix(m: ProfileMonoid, x: MixAbs) -> tuple:
    """A MixAbs as (finite part, pairs) of decoded profiles, the form
    ``omega_triples`` returns."""
    return decode_fin(m, x.fin), frozenset(
        (decode(m, s), decode(m, e)) for s, e in x.inf)


def decode_mtable(m: ProfileMonoid, mtable: dict) -> dict:
    """A method table with every (T, H, S) entry decoded by ``decode_fin``:
    two monoids number their profiles in the order they build them, so only
    decoded tables compare across monoids."""
    return {sig: tuple({key: decode_fin(m, a) for key, a in part.items()}
                       for part in row)
            for sig, row in mtable.items()}


def alpha_nfa(m: ProfileMonoid, nfa) -> frozenset[int]:
    """The profiles in m of all words of an NFA, by pair reachability.

    Explores (NFA state set, profile) pairs; both components live in
    finite spaces, so the walk terminates.
    """
    start = (nfa.initial, m.eps)
    seen = {start}
    queue = [start]
    out: set[int] = set()
    while queue:
        sset, p = queue.pop()
        if sset & nfa.accepting:
            out.add(p)
        for a in m.g.alphabet:
            nxt = nfa.step(sset, a)
            if not nxt:
                continue
            item = (nxt, m.compose(p, m.letters[a]))
            if item not in seen:
                seen.add(item)
                queue.append(item)
    return frozenset(out)


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


def omega_triples(g: GuidelineAutomaton, a: Iterable) -> tuple:
    """(γ a)^ω over profiles written as (triples, empty tag), by two
    closures: the finite part is the star of a when a holds an empty-tagged
    profile, and the pairs link each stem in S⁺ of a's other profiles to an
    idempotent cycle there with s·e = s.  Returns (finite part, pairs)."""
    def mul(x, y):
        return compose_triples(x[0], y[0]), x[1] and y[1]

    def s_plus(gens):
        seen, frontier = set(gens), list(gens)
        while frontier:
            p = frontier.pop()
            for q in gens:
                pq = mul(p, q)
                if pq not in seen:
                    seen.add(pq)
                    frontier.append(pq)
        return seen

    a = list(a)
    gens = [p for p in a if not p[1]]
    fin = set()
    if len(gens) < len(a):
        fin = {(rel_of_word(g, []), True)} | s_plus(a)
    splus = s_plus(gens)
    pairs = {(s, e) for e in splus if mul(e, e) == e
             for s in splus if mul(s, e) == s}
    return frozenset(fin), frozenset(pairs)


def accepts_fin(m: ProfileMonoid, a: Iterable[int]) -> bool:
    """Every profile in a connects an initial state to an accepting one."""
    g = m.g
    return all(
        any(q in g.initial and q2 in g.accepting
            for q, _, q2 in triples_of(m, p))
        for p in a
    )


def accepts_mix(m: ProfileMonoid, x: MixAbs) -> bool:
    """accepts_fin on the finite part, and for each (stem, cycle) pair some
    state the stem reaches from an initial state loops on the cycle through
    an accepting visit."""
    if not accepts_fin(m, x.fin):
        return False
    for s, e in x.inf:
        starts = {q2 for q, _, q2 in triples_of(m, s) if q in m.g.initial}
        loops = {q for q, b, q2 in triples_of(m, e) if q == q2 and b == 1}
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
