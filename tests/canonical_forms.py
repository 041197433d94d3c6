"""Canonical forms and membership probes for the profile domain.

The analysis compares finite elements with ``==`` and decides acceptance on
raw pair sets, so it never needs what is here.  The tests do: they compare
MixAbs values by the languages they denote, and read abstractions back word
by word and lasso by lasso.

Two MixAbs values that denote the same language can differ in their raw pair
sets (a pair may be rotated through a factorization of its cycle).  Equality
and inclusion therefore go through rotation saturation: close the pair set
under (s, e) ↦ (s·χ, ξ·e·χ) for every factorization e = χ·ξ over the
automaton's full realizable monoid.  Saturated sets are canonical forms.

``CanonicalMonoid`` adds these to ``ProfileMonoid``; ``CanonicalDomain`` is
the ``ProfileDomain`` built over it, with the language equality, inclusion
and membership probes the reference domains also offer, and their
abstraction of an NFA (``profile_reference.alpha_nfa``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from guidecheck.domains import ProfileDomain
from guidecheck.guideline import GuidelineAutomaton
from guidecheck.profiles import FinAbs, MixAbs, ProfileMonoid
from profile_reference import alpha_nfa


class CanonicalMonoid(ProfileMonoid):
    def __init__(self, g: GuidelineAutomaton):
        super().__init__(g)
        self._factor_cache: dict[int, tuple[tuple[int, int], ...]] = {}
        self._sat_cache: dict[frozenset, frozenset] = {}

    def factorizations(self, e: int) -> tuple[tuple[int, int], ...]:
        cached = self._factor_cache.get(e)
        if cached is None:
            elems = self.elements
            cached = tuple(
                (x, y) for x in elems for y in elems if self.compose(x, y) == e
            )
            self._factor_cache[e] = cached
        return cached

    # -- abstraction of languages --------------------------------------------

    def alpha_words(self, words: Iterable[Sequence[str]]) -> FinAbs:
        return frozenset(self.profile_of_word(w) for w in words)

    def alpha_lang(self, lang) -> MixAbs:
        """Abstraction of an NFA-backed language of finite and infinite words
        (anything with a ``fin`` NFA and ``inf`` pairs of NFAs denoting U·V^ω):
        stems are profiles of U·V^k, cycles are idempotent profiles of V⁺,
        keeping the linked pairs."""
        fin = alpha_nfa(self, lang.fin)
        pairs: set[tuple[int, int]] = set()
        for u_nfa, v_nfa in lang.inf:
            heads = alpha_nfa(self, u_nfa)
            body = self.s_plus(alpha_nfa(self, v_nfa))
            stems = set(heads)
            for p in heads:
                for m in body:
                    stems.add(self.compose(p, m))
            for e in body:
                if self.compose(e, e) != e:
                    continue
                for s in stems:
                    if self.compose(s, e) == s:
                        pairs.add((s, e))
        return MixAbs(fin, frozenset(pairs))

    # -- canonical forms ------------------------------------------------------

    def saturate(self, pairs: frozenset) -> frozenset:
        cached = self._sat_cache.get(pairs)
        if cached is not None:
            return cached
        cur: set[tuple[int, int]] = set()
        for s, e in pairs:
            if self.compose(e, e) == e and self.compose(s, e) == s:
                cur.add((s, e))
        work = list(cur)
        while work:
            s, e = work.pop()
            for chi, xi in self.factorizations(e):
                s2 = self.compose(s, chi)
                e2 = self.compose(xi, self.compose(e, chi))
                pair = (s2, e2)
                if pair not in cur:
                    cur.add(pair)
                    work.append(pair)
        out = frozenset(cur)
        self._sat_cache[pairs] = out
        return out

    def normalize_mix(self, x: MixAbs) -> MixAbs:
        return MixAbs(x.fin, self.saturate(x.inf))

    def mix_eq(self, x: MixAbs, y: MixAbs) -> bool:
        if x.fin != y.fin:
            return False
        if x.inf == y.inf:
            return True
        return self.saturate(x.inf) == self.saturate(y.inf)

    def mix_leq(self, x: MixAbs, y: MixAbs) -> bool:
        if not x.fin <= y.fin:
            return False
        if x.inf <= y.inf:
            return True
        return self.saturate(x.inf) <= self.saturate(y.inf)

    # -- membership -------------------------------------------------------------

    def member_fin(self, word: Sequence[str], a: FinAbs) -> bool:
        return self.profile_of_word(word) in a

    def member_up_word(self, u: Sequence[str], v: Sequence[str], x: MixAbs) -> bool:
        """Is u·v^ω denoted by x?  Holds iff some (profile(u·v^k), profile(v^m))
        is a pair of x; both power sequences are eventually periodic, so one
        pass over each orbit is complete."""
        if not v:
            raise ValueError("v must be nonempty")
        inf = self.saturate(x.inf)
        if not inf:
            return False
        pv = self.profile_of_word(v)
        cycles = []
        seen: set[int] = set()
        cur = pv
        while cur not in seen:
            seen.add(cur)
            cycles.append(cur)
            cur = self.compose(cur, pv)
        stems = []
        seen2: set[int] = set()
        cur = self.profile_of_word(u)
        while cur not in seen2:
            seen2.add(cur)
            stems.append(cur)
            cur = self.compose(cur, pv)
        return any((s, e) in inf for s in stems for e in cycles)

    def extendable_into(self, p: int, fins: Iterable[FinAbs],
                        mixes: Iterable[MixAbs]) -> bool:
        """Can p be right-extended by some realizable profile into one of the
        given abstractions (a finite-part profile or an infinite-pair stem)?"""
        fin_targets: set[int] = set()
        for a in fins:
            fin_targets |= a
        stem_targets: set[int] = set()
        for x in mixes:
            for s, _ in self.saturate(x.inf):
                stem_targets.add(s)
        targets = fin_targets | stem_targets
        if not targets:
            return False
        return any(self.compose(p, tau) in targets for tau in self.elements)


class CanonicalDomain(ProfileDomain):
    def __init__(self, guideline: GuidelineAutomaton):
        super().__init__(guideline)
        self.monoid = CanonicalMonoid(guideline)

    def fin_eq(self, x, y) -> bool:
        return x == y

    def alpha_nfa(self, nfa):
        return alpha_nfa(self.monoid, nfa)

    def alpha_words(self, words):
        out = self.fin_bottom()
        for w in words:
            out = self.fin_join(out, self.alpha_word(w))
        return out

    def fin_to_mix(self, x):
        """Embed a finite-word element as a mixed element with no infinite part."""
        return self.fin_mix_concat(x, self.mix_of_eps())

    def mix_eq(self, x, y) -> bool:
        return self.monoid.mix_eq(x, y)

    def mix_leq(self, x, y) -> bool:
        return self.monoid.mix_leq(x, y)

    def member_fin(self, w, x) -> bool:
        return self.monoid.member_fin(w, x)

    def member_up(self, u, v, m) -> bool:
        return self.monoid.member_up_word(u, v, m)
