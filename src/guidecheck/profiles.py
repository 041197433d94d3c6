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

Composition ORs the rows of the right operand over the set bits of the
left's.  Each monoid interns its profiles, so equal profiles of one monoid
are one object and compare by identity first; equality is still on values,
so profiles of two monoids over one guideline compare equal too.  Profiles
of the empty word are tagged: the empty word's profile has the same rows as
some nonempty words on degenerate automata, but the two behave differently
under the infinite iteration, so equality on profiles includes the tag.

Sets of profiles abstract languages of finite words (``FinAbs``); pairs of a
stem profile and an idempotent cycle profile, together with a finite part,
abstract languages of finite and infinite words (``MixAbs``).  These carry
union, concatenation, Kleene star and an infinite-iteration operator, and an
acceptance check against the automaton.

Two MixAbs values that denote the same language can differ in their raw pair
sets (a pair may be rotated through a factorization of its cycle).
Acceptance is invariant under that rotation, so the analysis works on raw
pair sets and never needs a canonical form.  Rotation saturation, which gives
one, and the membership probes for finite and ultimately periodic words live
with the tests, which compare MixAbs values by the languages they denote.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .guideline import GuidelineAutomaton

# Hard cap on the realizable profile monoid; the analyses here are meant for
# small specification automata, and a blow-up almost certainly means a bug.
MONOID_CAP = 20000

Rows = tuple[int, ...]  # one bitmask over the state indices per state


class Profile:
    """The profile of a word: rows ``zero`` and ``one`` (see the module
    docstring) over the automaton's ``states``, and the empty-word tag.
    Build profiles through ``ProfileMonoid.profile``, which interns them."""

    __slots__ = ("zero", "one", "empty", "states", "_hash")

    def __init__(self, zero: Rows, one: Rows, empty: bool,
                 states: tuple[str, ...]):
        self.zero = zero
        self.one = one
        self.empty = empty
        self.states = states
        self._hash = hash((zero, one, empty))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Profile):
            return NotImplemented
        return (self._hash == other._hash and self.zero == other.zero
                and self.one == other.one and self.empty == other.empty
                and self.states == other.states)

    def __repr__(self) -> str:
        names = self.states
        triples = [
            (q, b, names[j])
            for q, z, o in zip(names, self.zero, self.one)
            for b, row in ((0, z), (1, o))
            for j in range(len(names)) if row >> j & 1
        ]
        inner = ", ".join(f"({q},{b},{q2})" for q, b, q2 in sorted(triples))
        tag = "ε:" if self.empty else ""
        return "{" + tag + inner + "}"


class MixAbs(NamedTuple):
    fin: frozenset[Profile]
    inf: frozenset[tuple[Profile, Profile]]


FinAbs = frozenset  # of Profile

FIN_BOTTOM: FinAbs = frozenset()
MIX_BOTTOM = MixAbs(frozenset(), frozenset())


class ProfileMonoid:
    """The profiles of one automaton, with composition.

    Profiles are built as the operators compose them.  ``elements``, the
    closure of the letter profiles under composition (the profiles of all
    finite words), is computed on first use only.
    """

    def __init__(self, g: GuidelineAutomaton):
        self.g = g
        n = len(g.states)
        index = {q: i for i, q in enumerate(g.states)}
        accepting = [q in g.accepting for q in g.states]
        self._initial = [index[q] for q in g.initial]
        self._accepting_mask = sum(1 << i for i in range(n) if accepting[i])
        self._interned: dict[tuple[Rows, Rows, bool], Profile] = {}
        self._compose_cache: dict[tuple[Profile, Profile], Profile] = {}
        # ε̂ connects each state to itself, through an accepting visit iff
        # the state is accepting; a letter's rows are its transitions
        self.eps = self.profile(
            tuple(0 if accepting[i] else 1 << i for i in range(n)),
            tuple(1 << i if accepting[i] else 0 for i in range(n)),
            empty=True,
        )
        zero = {a: [0] * n for a in g.alphabet}
        one = {a: [0] * n for a in g.alphabet}
        for q, a, q2 in g.transitions:
            i, j = index[q], index[q2]
            (one if accepting[i] or accepting[j] else zero)[a][i] |= 1 << j
        self.letters: dict[str, Profile] = {
            a: self.profile(tuple(zero[a]), tuple(one[a])) for a in g.alphabet
        }

    def profile(self, zero: Rows, one: Rows, empty: bool = False) -> Profile:
        """The interned profile with these rows and tag."""
        key = (zero, one, empty)
        p = self._interned.get(key)
        if p is None:
            p = self._interned[key] = Profile(zero, one, empty, self.g.states)
        return p

    @cached_property
    def elements(self) -> frozenset[Profile]:
        """The realizable monoid; raises ``RuntimeError`` past ``MONOID_CAP``."""
        seen: set[Profile] = set(self.letters.values())
        frontier = list(seen)
        while frontier:
            p = frontier.pop()
            for lp in self.letters.values():
                q = self.compose(p, lp)
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
            if len(seen) > MONOID_CAP:
                raise RuntimeError("profile monoid exceeded size cap")
        seen.add(self.eps)
        return frozenset(seen)

    # -- monoid structure ---------------------------------------------------

    def compose(self, p1: Profile, p2: Profile) -> Profile:
        cached = self._compose_cache.get((p1, p2))
        if cached is not None:
            return cached
        zero2, one2 = p2.zero, p2.one
        zero, one = [], []
        for z1, o1 in zip(p1.zero, p1.one):
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
        out = self.profile(tuple(zero), tuple(one), p1.empty and p2.empty)
        self._compose_cache[(p1, p2)] = out
        return out

    def profile_of_word(self, word: Sequence[str]) -> Profile:
        p = self.eps
        for a in word:
            p = self.compose(p, self.letters[a])
        return p

    def s_plus(self, gens: Iterable[Profile]) -> frozenset[Profile]:
        """Closure of gens under composition (products of one or more)."""
        gens = list(gens)
        seen: set[Profile] = set(gens)
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

    def alpha_nfa(self, nfa) -> FinAbs:
        """Profiles of all words of an NFA, by pair reachability.

        Explores (NFA state set, profile) pairs; both components live in
        finite spaces, so the walk terminates.
        """
        start = (nfa.initial, self.eps)
        seen = {start}
        queue = [start]
        out: set[Profile] = set()
        while queue:
            sset, p = queue.pop()
            if sset & nfa.accepting:
                out.add(p)
            for a in self.g.alphabet:
                nxt = nfa.step(sset, a)
                if not nxt:
                    continue
                item = (nxt, self.compose(p, self.letters[a]))
                if item not in seen:
                    seen.add(item)
                    queue.append(item)
        return frozenset(out)

    def concat_fin(self, a: FinAbs, b: FinAbs) -> FinAbs:
        return frozenset(self.compose(p, q) for p in a for q in b)

    def star(self, a: FinAbs) -> FinAbs:
        return frozenset({self.eps}) | self.s_plus(a)

    def omega(self, a: FinAbs) -> MixAbs:
        """Abstraction of (γ a)^ω: finite words from infinitely many ε picks,
        infinite words as linked stem/idempotent-cycle pairs."""
        gens = [p for p in a if not p.empty]
        has_eps = len(gens) < len(a)
        fin = self.star(a) if has_eps else FIN_BOTTOM
        splus = self.s_plus(gens)
        pairs = set()
        for e in splus:
            if self.compose(e, e) != e:
                continue
            for s in splus:
                # stems with an ε̂ prefix factor are covered by s ∈ S⁺ itself;
                # a bare ε̂ stem never satisfies s·e = s since e is nonempty.
                if self.compose(s, e) == s:
                    pairs.add((s, e))
        return MixAbs(fin, frozenset(pairs))

    def concat_fin_mix(self, a: FinAbs, x: MixAbs) -> MixAbs:
        fin = self.concat_fin(a, x.fin)
        inf = frozenset(
            (self.compose(p, s), e) for p in a for (s, e) in x.inf
        )
        return MixAbs(fin, inf)

    def mix_join(self, x: MixAbs, y: MixAbs) -> MixAbs:
        return MixAbs(x.fin | y.fin, x.inf | y.inf)

    # -- acceptance ------------------------------------------------------------

    def accepts_fin(self, a: FinAbs) -> bool:
        """Every finite word denoted by a is accepted by the automaton."""
        ini, acc = self._initial, self._accepting_mask
        for p in a:
            if not any((p.zero[i] | p.one[i]) & acc for i in ini):
                return False
        return True

    def accepts_mix(self, x: MixAbs) -> bool:
        """Every word denoted by x (finite under the NFA reading, infinite
        under the Büchi reading) is accepted.  Invariant under rotating a
        pair through a factorization of its cycle, so checked on the raw
        pairs."""
        if not self.accepts_fin(x.fin):
            return False
        ini = self._initial
        for s, e in x.inf:
            starts = 0
            for i in ini:
                starts |= s.zero[i] | s.one[i]
            if not any(starts >> q & 1 and e.one[q] >> q & 1
                       for q in range(len(e.one))):
                return False
        return True
