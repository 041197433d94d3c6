"""Effect domains: the common interface and the profile domain.

An effect domain supplies two abstract lattices — one for languages of finite
words (method effects while control still returns) and one for languages that
mix finite and infinite words (whole-program behaviours, including
divergence) — together with the regular operators the analysis composes
effects with: join, concatenation, Kleene star and infinite iteration.
A stub's regex reaches a domain through these operators too, its letters
through ``alpha_word`` (``intrinsics.Regex.alpha``), so the interface takes
no automaton.  Inference runs to a fixpoint, so a domain's finite elements
must compare exactly with ``==``, and it caps its re-typings by
``fin_height``, a bound on the chains among the elements built so far.
They must hash too: the solver finds equal equations by hashing their
coefficients.  The verdict judges each distinct finite and mixed element
once, by hash.

``ProfileDomain`` interprets both lattices over the transition profiles of a
guideline automaton; it is finite, has exact equality on finite elements,
and can answer whether everything an element denotes is accepted by the
guideline.  It drives the verdict.  The domain owns the lattice operators
and builds the ``profiles.ProfileMonoid`` they compose single profiles on;
``cli.analyze`` hands that monoid to the counterexample search, so the
search reuses its interned profiles and cached products.  Inference's
re-typings, the re-check and the solve's substitutions ask for the same
concatenations many times, so the domain keeps each concatenation of two
sets, and of a set and a mixed element, by its operand pair: each distinct
pair is multiplied once, element by element, on the monoid's product cache.
One domain serves one analysis, and its memo goes with it.  The domain's
height is the count of profiles interned so far plus one, so the analysis
never closes the monoid.  The analysis needs no finite bottom (an entry
absent from a table stands for it), no mixed element of the empty word,
no equality on mixed elements, no membership probes and no abstraction of
an NFA, so the interface has none; the test suite adds them, on the
profile domain through a subclass that canonicalizes mixed elements, and in
two reference domains behind the same interface, a language-level one over
NFAs and a four-point toy domain.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from .guideline import GuidelineAutomaton
from .profiles import FIN_BOTTOM, MIX_BOTTOM, MixAbs, ProfileMonoid


class EffectDomain(ABC):
    alphabet: tuple[str, ...]

    # -- finite-word lattice -------------------------------------------------

    @abstractmethod
    def fin_is_bottom(self, x) -> bool: ...

    @abstractmethod
    def fin_join(self, x, y): ...

    @abstractmethod
    def fin_concat(self, x, y): ...

    @abstractmethod
    def fin_leq(self, x, y) -> bool: ...

    @abstractmethod
    def alpha_word(self, w: Sequence[str]): ...

    @abstractmethod
    def star(self, x): ...

    # -- mixed finite/infinite lattice ----------------------------------------

    @abstractmethod
    def mix_bottom(self): ...

    @abstractmethod
    def mix_is_bottom(self, x) -> bool: ...

    @abstractmethod
    def mix_join(self, x, y): ...

    @abstractmethod
    def fin_mix_concat(self, u, m): ...

    @abstractmethod
    def omega(self, x): ...

    # -- guideline verdict (profile domain only) ---------------------------------

    def accepts_fin(self, x) -> bool:
        raise NotImplementedError(f"{type(self).__name__} carries no verdict")

    def accepts_mix(self, m) -> bool:
        raise NotImplementedError(f"{type(self).__name__} carries no verdict")

    def fin_height(self) -> int | None:
        """A bound on every ascending chain among the finite elements built
        so far, None if unbounded/unknown; it may grow as more are built.
        Used only to cap how often inference re-types a body."""
        return None


class ProfileDomain(EffectDomain):
    def __init__(self, guideline: GuidelineAutomaton):
        self.guideline = guideline
        self.alphabet = guideline.alphabet
        self.monoid = ProfileMonoid(guideline)
        # S⁺ of a set of nonempty-word profiles, by that set
        self._closures: dict[frozenset[int], frozenset[int]] = {}
        # fin_concat and fin_mix_concat, by operand pair: a right operand
        # is a FinAbs for one and a MixAbs for the other, so no key is both
        self._products: dict[tuple, frozenset[int] | MixAbs] = {}
        # alpha_word, by the word as a tuple
        self._words: dict[tuple[str, ...], frozenset[int]] = {}

    def fin_is_bottom(self, x) -> bool:
        return not x

    def fin_join(self, x, y):
        return x | y

    def fin_concat(self, x, y):
        # ε̂ is a two-sided identity; every other pair is multiplied once,
        # and most of its element products are cached, so they are looked
        # up here, saving a call each
        m = self.monoid
        if x == m.fin_eps:
            return y
        if y == m.fin_eps:
            return x
        out = self._products.get((x, y))
        if out is None:
            mul, compose = m.mul, m.compose
            products = []
            for p in x:
                row = mul[p]
                for q in y:
                    pq = row.get(q)
                    products.append(compose(p, q) if pq is None else pq)
            out = self._products[x, y] = frozenset(products)
        return out

    def fin_leq(self, x, y) -> bool:
        return x <= y

    def alpha_word(self, w):
        # a word is composed once per analysis, not once per typing
        if not w:
            return self.monoid.fin_eps
        w = tuple(w)
        out = self._words.get(w)
        if out is None:
            out = self._words[w] = frozenset({self.monoid.profile_of_word(w)})
        return out

    def _closure(self, x) -> frozenset[int]:
        """S⁺ of x's nonempty-word profiles, closed once per such set: the
        solve takes the star and the ω of each self-loop coefficient."""
        m = self.monoid
        gens = frozenset([p for p in x if not m.empty[p]])
        out = self._closures.get(gens)
        if out is None:
            out = self._closures[gens] = m.s_plus(gens)
        return out

    def star(self, x):
        """ε̂ and S⁺ of x's other profiles: ε̂ is the only empty-tagged
        profile, and a two-sided identity on the profiles of nonempty
        words, so it adds no product."""
        return self.monoid.fin_eps | self._closure(x)

    def mix_bottom(self):
        return MIX_BOTTOM

    def mix_is_bottom(self, x) -> bool:
        return not x.fin and not x.inf

    def mix_join(self, x, y):
        return MixAbs(x.fin | y.fin, x.inf | y.inf)

    def fin_mix_concat(self, u, m):
        mon = self.monoid
        if u == mon.fin_eps:
            return m
        out = self._products.get((u, m))
        if out is None:
            fin = self.fin_concat(u, m.fin)
            mul, compose = mon.mul, mon.compose
            pairs = []
            for p in u:
                row = mul[p]
                for s, e in m.inf:
                    ps = row.get(s)
                    pairs.append((compose(p, s) if ps is None else ps, e))
            out = self._products[u, m] = MixAbs(fin, frozenset(pairs))
        return out

    def omega(self, x):
        """Abstraction of (γ x)^ω: finite words from infinitely many ε picks,
        infinite words as linked stem/idempotent-cycle pairs.  With ε̂ ∈ x
        the finite part is the star of x."""
        m = self.monoid
        splus = self._closure(x)
        fin = m.fin_eps | splus if m.eps in x else FIN_BOTTOM
        # stems with an ε̂ prefix factor are covered by s ∈ S⁺ itself;
        # a bare ε̂ stem never satisfies s·e = s since e is nonempty.
        compose = m.compose
        idempotents = [e for e in splus if compose(e, e) == e]
        pairs = frozenset((s, e) for e in idempotents for s in splus
                          if compose(s, e) == s)
        return MixAbs(fin, pairs)

    def accepts_fin(self, x) -> bool:
        """Every finite word denoted by x is accepted by the automaton."""
        accepts = self.monoid.accepts
        return all(accepts[p] for p in x)

    def accepts_mix(self, m) -> bool:
        """Every word denoted by m (finite under the NFA reading, infinite
        under the Büchi reading) is accepted: each stem reaches, from an
        initial state, a state its cycle loops on through an accepting
        visit.  Invariant under rotating a pair through a factorization of
        its cycle, so checked on the raw pairs."""
        mon = self.monoid
        accepts, starts, loops = mon.accepts, mon.starts, mon.loops
        return all(accepts[p] for p in m.fin) and all(
            starts[s] & loops[e] for s, e in m.inf)

    def fin_height(self) -> int:
        """Every finite element built so far is a set of the profiles the
        monoid has interned, so their count plus one bounds every chain.
        Closes nothing; grows as the operators intern profiles."""
        return len(self.monoid.zero) + 1
