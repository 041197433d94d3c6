"""Transition-profile algebra over a guideline automaton.

A profile records, for a finite word, which states the automaton can read
the word between, and whether such a path visits an accepting state
(endpoints included).  It is stored as bit rows over the state indices:
``zero[i]`` has bit j set iff some path reads the word from state i to state
j without an accepting visit, and ``one[i]`` has bit j set iff some path
from i to j visits an accepting state.  A word may connect i to j both ways,
so both masks are kept.  Collapsing them into "some path accepts" preserves
acceptance but merges profiles, which changes the monoid's size and so the
lattice height that caps inference; the rows are exact instead.

A profile is the dense ``int`` its monoid gives it when interning its rows:
the monoid keeps the rows, the empty-word tag and the acceptance masks in
lists by index, and caches composition in one dict per left operand.
Indices are local to one monoid; two monoids over one guideline may number
the same profile differently.  Profiles of the empty word are tagged: the
empty word's profile has the same rows as some nonempty words on degenerate
automata, but the two behave differently under the infinite iteration, so
the tag is part of the interning key.

Composition ORs the rows of the right operand over the set bits of the
left's.  Sets of profiles abstract languages of finite words (``FinAbs``);
pairs of a stem profile and an idempotent cycle profile, together with a
finite part, abstract languages of finite and infinite words (``MixAbs``).
These carry union, concatenation, Kleene star and an infinite-iteration
operator, and an acceptance check against the automaton.  The same masks
decide single words for the counterexample search: a finite word, the first
dead prefix of a word, and a lasso stem·cycle^ω given the profiles of its
stem and cycle.

Two MixAbs values that denote the same language can differ in their raw pair
sets (a pair may be rotated through a factorization of its cycle).
Acceptance is invariant under that rotation, so the analysis works on raw
pair sets and never needs a canonical form.  Rotation saturation, which gives
one, the membership probes for finite and ultimately periodic words, and the
decoding of an index back into rows live with the tests.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .guideline import GuidelineAutomaton

# Hard cap on the profiles one monoid interns, ε̂ aside; the analyses here are
# meant for small specification automata, and a blow-up almost certainly
# means a bug.  Every profile is interned by ``ProfileMonoid.profile``, so
# the cap holds for every closure the operators and the search run.
MONOID_CAP = 20000

Rows = tuple[int, ...]  # one bitmask over the state indices per state


class MixAbs(NamedTuple):
    fin: frozenset[int]
    inf: frozenset[tuple[int, int]]


FinAbs = frozenset  # of profile indices

FIN_BOTTOM: FinAbs = frozenset()
MIX_BOTTOM = MixAbs(frozenset(), frozenset())


class ProfileMonoid:
    """The profiles of one automaton, with composition.

    Profiles are interned as the operators compose them, up to
    ``MONOID_CAP``.  ``elements``, the closure of the letter profiles under
    composition (the profiles of all finite words), is computed on first
    use only; the analysis never asks for it.
    """

    def __init__(self, g: GuidelineAutomaton):
        self.g = g
        n = len(g.states)
        index = {q: i for i, q in enumerate(g.states)}
        accepting = [q in g.accepting for q in g.states]
        self._initial = [index[q] for q in g.initial]
        self._accepting_mask = sum(1 << i for i in range(n) if accepting[i])
        self._interned: dict[tuple[Rows, Rows, bool], int] = {}
        # by profile index: the rows and tag, the states the word reaches
        # from an initial state, whether one of those accepts, and the states
        # the word loops on through an accepting visit
        self.zero: list[Rows] = []
        self.one: list[Rows] = []
        self.empty: list[bool] = []
        self._starts: list[int] = []
        self._accepts: list[bool] = []
        self._loops: list[int] = []
        self._mul: list[dict[int, int]] = []  # _mul[p1][p2] == p1·p2
        # ε̂ connects each state to itself, through an accepting visit iff
        # the state is accepting; a letter's rows are its transitions
        self.eps = self.profile(
            tuple(0 if accepting[i] else 1 << i for i in range(n)),
            tuple(1 << i if accepting[i] else 0 for i in range(n)),
            empty=True,
        )
        self.fin_eps: FinAbs = frozenset({self.eps})
        zero = {a: [0] * n for a in g.alphabet}
        one = {a: [0] * n for a in g.alphabet}
        for q, a, q2 in g.transitions:
            i, j = index[q], index[q2]
            (one if accepting[i] or accepting[j] else zero)[a][i] |= 1 << j
        self.letters: dict[str, int] = {
            a: self.profile(tuple(zero[a]), tuple(one[a])) for a in g.alphabet
        }

    def profile(self, zero: Rows, one: Rows, empty: bool = False) -> int:
        """The index of the profile with these rows and tag; raises
        ``RuntimeError`` rather than intern more than ``MONOID_CAP`` profiles
        besides ε̂."""
        key = (zero, one, empty)
        p = self._interned.get(key)
        if p is None:
            if len(self.zero) > MONOID_CAP:
                raise RuntimeError("profile monoid exceeded size cap")
            p = self._interned[key] = len(self.zero)
            starts = 0
            for i in self._initial:
                starts |= zero[i] | one[i]
            self.zero.append(zero)
            self.one.append(one)
            self.empty.append(empty)
            self._starts.append(starts)
            self._accepts.append(bool(starts & self._accepting_mask))
            self._loops.append(
                sum(1 << q for q, row in enumerate(one) if row >> q & 1))
            self._mul.append({})
        return p

    @cached_property
    def elements(self) -> frozenset[int]:
        """The realizable monoid: the closure of the letter profiles, and ε̂."""
        return self.s_plus(self.letters.values()) | self.fin_eps

    # -- monoid structure ---------------------------------------------------

    def compose(self, p1: int, p2: int) -> int:
        products = self._mul[p1]
        out = products.get(p2)
        if out is not None:
            return out
        zero2, one2 = self.zero[p2], self.one[p2]
        zero, one = [], []
        for z1, o1 in zip(self.zero[p1], self.one[p1]):
            z = o = 0
            while z1:  # b = 0 so far: the right row decides the bit
                low = z1 & -z1
                m = low.bit_length() - 1
                z |= zero2[m]
                o |= one2[m]
                z1 ^= low
            while o1:  # b = 1 so far: every path on stays b = 1
                low = o1 & -o1
                m = low.bit_length() - 1
                o |= zero2[m] | one2[m]
                o1 ^= low
            zero.append(z)
            one.append(o)
        out = products[p2] = self.profile(
            tuple(zero), tuple(one), self.empty[p1] and self.empty[p2])
        return out

    def profile_of_word(self, word: Sequence[str]) -> int:
        p = self.eps
        for a in word:
            p = self.compose(p, self.letters[a])
        return p

    def s_plus(self, gens: Iterable[int]) -> frozenset[int]:
        """Closure of gens under composition (products of one or more)."""
        gens = list(gens)
        seen: set[int] = set(gens)
        frontier = list(gens)
        while frontier:
            p = frontier.pop()
            for q0 in gens:
                q = self.compose(p, q0)
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
        return frozenset(seen)

    # -- FinAbs operations ----------------------------------------------------

    def concat_fin(self, a: FinAbs, b: FinAbs) -> FinAbs:
        # most products are cached: look them up here, saving a call each
        out = []
        for p in a:
            products = self._mul[p]
            for q in b:
                pq = products.get(q)
                out.append(self.compose(p, q) if pq is None else pq)
        return frozenset(out)

    def star(self, a: FinAbs) -> FinAbs:
        return self.fin_eps | self.s_plus(a)

    def omega(self, a: FinAbs) -> MixAbs:
        """Abstraction of (γ a)^ω: finite words from infinitely many ε picks,
        infinite words as linked stem/idempotent-cycle pairs.

        ε̂ is the only empty-tagged profile, and a two-sided identity on the
        profiles of nonempty words, so with ε̂ ∈ a the star of a is ε̂ and
        S⁺ of the other generators."""
        gens = [p for p in a if not self.empty[p]]
        splus = self.s_plus(gens)
        fin = self.fin_eps | splus if len(gens) < len(a) else FIN_BOTTOM
        # stems with an ε̂ prefix factor are covered by s ∈ S⁺ itself;
        # a bare ε̂ stem never satisfies s·e = s since e is nonempty.
        idempotents = [e for e in splus if self.compose(e, e) == e]
        pairs = frozenset((s, e) for e in idempotents for s in splus
                          if self.compose(s, e) == s)
        return MixAbs(fin, pairs)

    def concat_fin_mix(self, a: FinAbs, x: MixAbs) -> MixAbs:
        fin = self.concat_fin(a, x.fin)
        inf = frozenset(
            (self.compose(p, s), e) for p in a for (s, e) in x.inf
        )
        return MixAbs(fin, inf)

    def mix_join(self, x: MixAbs, y: MixAbs) -> MixAbs:
        return MixAbs(x.fin | y.fin, x.inf | y.inf)

    # -- acceptance of words ---------------------------------------------------

    def accepts_finite(self, word: Sequence[str]) -> bool:
        """The automaton accepts word under the NFA reading."""
        return self.accepts_finite_of(self.profile_of_word(word))

    def accepts_finite_of(self, p: int) -> bool:
        """The automaton accepts the words of profile p (NFA reading)."""
        return self._accepts[p]

    def dead_position(self, word: Sequence[str]) -> int | None:
        """The length of the shortest prefix of word that no run from an
        initial state reads, or None if some run reads all of word."""
        p, starts, letters = self.eps, self._starts, self.letters
        for i, a in enumerate(word):
            p = self.compose(p, letters[a])
            if not starts[p]:
                return i + 1
        return None

    def accepts_lasso_of(self, stem: int, cycle: int) -> bool:
        """Büchi acceptance of u·v^ω for any words u of profile stem and v
        of profile cycle, v nonempty.

        With e the idempotent power of v's profile, the word is u·w·w·w···
        for a word w with profile e, so it is accepted iff a state that u·w
        reaches from an initial state loops on e through an accepting
        visit: the test ``accepts_mix`` makes of the pair (stem·e, e),
        exact for ultimately periodic words (Büchi 1962)."""
        e = cycle
        while self.compose(e, e) != e:  # some power of v is idempotent
            e = self.compose(e, cycle)
        s = self.compose(stem, e)
        return bool(self._starts[s] & self._loops[e])

    # -- acceptance of abstractions --------------------------------------------

    def accepts_fin(self, a: FinAbs) -> bool:
        """Every finite word denoted by a is accepted by the automaton."""
        accepts = self._accepts
        return all(accepts[p] for p in a)

    def accepts_mix(self, x: MixAbs) -> bool:
        """Every word denoted by x (finite under the NFA reading, infinite
        under the Büchi reading) is accepted: each stem reaches, from an
        initial state, a state its cycle loops on through an accepting
        visit.  Invariant under rotating a pair through a factorization of
        its cycle, so checked on the raw pairs."""
        starts, loops = self._starts, self._loops
        return self.accepts_fin(x.fin) and all(
            starts[s] & loops[e] for s, e in x.inf)


def monoid_of(g: GuidelineAutomaton) -> ProfileMonoid:
    """The guideline's monoid, built when none is alive: the analysis and
    the counterexample search share its interned profiles and cached
    products.  The guideline holds it weakly, since the monoid refers back
    to the guideline and a cycle would outlive the analysis until the next
    cyclic collection."""
    m = g.monoid_ref() if g.monoid_ref is not None else None
    if m is None:
        m = ProfileMonoid(g)
        g.monoid_ref = weakref.ref(m)
    return m
