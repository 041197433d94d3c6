"""Transition-profile algebra over a guideline automaton.

A profile records, for a finite word, the triples (q, b, q') such that the
automaton can read the word from q to q', with b = 1 iff some accepting state
occurs along that path (endpoints included).  Profiles of the empty word are
tagged: the empty word's profile has the same triples as some nonempty words
on degenerate automata, but the two behave differently under the infinite
iteration, so equality on profiles includes the tag.

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

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .guideline import GuidelineAutomaton

# Hard cap on the realizable profile monoid; the analyses here are meant for
# small specification automata, and a blow-up almost certainly means a bug.
MONOID_CAP = 20000


@dataclass(frozen=True)
class Profile:
    triples: frozenset[tuple[str, int, str]]
    empty: bool = False

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({q},{b},{q2})" for q, b, q2 in sorted(self.triples)
        )
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
        self.eps = Profile(
            frozenset(
                (q, 1 if q in g.accepting else 0, q) for q in g.states
            ),
            empty=True,
        )
        self.letters: dict[str, Profile] = {
            a: Profile(g.letter_rel(a)) for a in g.alphabet
        }
        self._compose_cache: dict[tuple[Profile, Profile], Profile] = {}

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
        by_src: dict[str, list[tuple[int, str]]] = {}
        for q, b, q2 in p2.triples:
            by_src.setdefault(q, []).append((b, q2))
        triples = set()
        for q, b1, mid in p1.triples:
            for b2, q2 in by_src.get(mid, ()):
                triples.add((q, b1 | b2, q2))
        out = Profile(frozenset(triples), p1.empty and p2.empty)
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
        ini, acc = self.g.initial, self.g.accepting
        for p in a:
            if not any(q in ini and q2 in acc for (q, _, q2) in p.triples):
                return False
        return True

    def accepts_mix(self, x: MixAbs) -> bool:
        """Every word denoted by x (finite under the NFA reading, infinite
        under the Büchi reading) is accepted.  Invariant under rotating a
        pair through a factorization of its cycle, so checked on the raw
        pairs."""
        if not self.accepts_fin(x.fin):
            return False
        ini = self.g.initial
        for s, e in x.inf:
            starts = {q2 for (q, _, q2) in s.triples if q in ini}
            loops = {q for (q, b, q2) in e.triples if q == q2 and b == 1}
            if not (starts & loops):
                return False
        return True
