"""Effect domains: the common interface and the profile domain.

An effect domain supplies two abstract lattices — one for languages of finite
words (method effects while control still returns) and one for languages that
mix finite and infinite words (whole-program behaviours, including
divergence) — together with the regular operators the analysis composes
effects with: join, concatenation, Kleene star and infinite iteration.
A stub's regex reaches a domain through these operators too, its letters
through ``alpha_word`` (``intrinsics.Regex.alpha``), so the interface takes
no automaton.  Inference runs to a fixpoint, so a domain's finite elements must compare
exactly with ``==``, and it caps its re-typings by ``fin_height``, a bound
on the chains among the elements built so far.  They must hash too: the
solver finds equal equations by hashing their coefficients.  The verdict
judges each distinct finite and mixed element once, by hash.

``ProfileDomain`` interprets both lattices over the transition profiles of a
guideline automaton; it is finite, has exact equality on finite elements,
and can answer whether everything an element denotes is accepted by the
guideline.  It drives the verdict.  Its monoid is the guideline's own
(``profiles.monoid_of``), which the counterexample search reads too; its
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
from .profiles import MIX_BOTTOM, monoid_of


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
        self.monoid = monoid_of(guideline)

    def fin_is_bottom(self, x) -> bool:
        return not x

    def fin_join(self, x, y):
        return x | y

    def fin_concat(self, x, y):
        return self.monoid.concat_fin(x, y)

    def fin_leq(self, x, y) -> bool:
        return x <= y

    def alpha_word(self, w):
        if not w:
            return self.monoid.fin_eps
        return frozenset({self.monoid.profile_of_word(w)})

    def star(self, x):
        return self.monoid.star(x)

    def mix_bottom(self):
        return MIX_BOTTOM

    def mix_is_bottom(self, x) -> bool:
        return not x.fin and not x.inf

    def mix_join(self, x, y):
        return self.monoid.mix_join(x, y)

    def fin_mix_concat(self, u, m):
        return self.monoid.concat_fin_mix(u, m)

    def omega(self, x):
        return self.monoid.omega(x)

    def accepts_fin(self, x) -> bool:
        return self.monoid.accepts_fin(x)

    def accepts_mix(self, m) -> bool:
        return self.monoid.accepts_mix(m)

    def fin_height(self) -> int:
        """Every finite element built so far is a set of the profiles the
        monoid has interned, so their count plus one bounds every chain.
        Closes nothing; grows as the operators intern profiles."""
        return len(self.monoid.zero) + 1
