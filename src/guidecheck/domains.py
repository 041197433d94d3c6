"""Effect domains: the common interface and the profile domain.

An effect domain supplies two abstract lattices — one for languages of finite
words (method effects while control still returns) and one for languages that
mix finite and infinite words (whole-program behaviours, including
divergence) — together with the regular operators the analysis composes
effects with: join, concatenation, Kleene star and infinite iteration.
Inference runs to a fixpoint, so a domain's finite elements must compare
exactly with ``==``.

``ProfileDomain`` interprets both lattices over the transition profiles of a
guideline automaton; it is finite, has exact equality, and can answer whether
everything an element denotes is accepted by the guideline.  It drives the
verdict.  The test suite adds two reference domains behind the same
interface: a language-level one over NFAs and a four-point toy domain.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from .guideline import GuidelineAutomaton
from .oracle import Nfa
from .profiles import FIN_BOTTOM, MIX_BOTTOM, MixAbs, ProfileMonoid


class EffectDomain(ABC):
    alphabet: tuple[str, ...]

    # -- finite-word lattice -------------------------------------------------

    @abstractmethod
    def fin_bottom(self): ...

    @abstractmethod
    def fin_is_bottom(self, x) -> bool: ...

    @abstractmethod
    def fin_join(self, x, y): ...

    @abstractmethod
    def fin_concat(self, x, y): ...

    @abstractmethod
    def fin_leq(self, x, y) -> bool: ...

    @abstractmethod
    def fin_eq(self, x, y) -> bool: ...

    @abstractmethod
    def alpha_word(self, w: Sequence[str]): ...

    def alpha_words(self, words):
        out = self.fin_bottom()
        for w in words:
            out = self.fin_join(out, self.alpha_word(w))
        return out

    @abstractmethod
    def alpha_nfa(self, nfa: Nfa): ...

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
    def mix_eq(self, x, y) -> bool: ...

    @abstractmethod
    def mix_leq(self, x, y) -> bool: ...

    @abstractmethod
    def omega(self, x): ...

    def fin_to_mix(self, x):
        """Embed a finite-word element as a mixed element with no infinite part."""
        return self.fin_mix_concat(x, self.mix_of_eps())

    @abstractmethod
    def mix_of_eps(self): ...

    # -- membership probes ------------------------------------------------------

    @abstractmethod
    def member_fin(self, w: Sequence[str], x) -> bool: ...

    @abstractmethod
    def member_up(self, u: Sequence[str], v: Sequence[str], m) -> bool: ...

    # -- guideline verdict (profile domain only) ---------------------------------

    def accepts_fin(self, x) -> bool:
        raise NotImplementedError(f"{type(self).__name__} carries no verdict")

    def accepts_mix(self, m) -> bool:
        raise NotImplementedError(f"{type(self).__name__} carries no verdict")

    # -- top element (only where the lattice has a useful one) -------------------

    def mix_top(self):
        raise NotImplementedError(f"{type(self).__name__} has no top element")

    def fin_height(self) -> int | None:
        """Height of the finite-element lattice, None if unbounded/unknown;
        used only to cap how often inference re-types a body."""
        return None


class ProfileDomain(EffectDomain):
    def __init__(self, guideline: GuidelineAutomaton):
        self.guideline = guideline
        self.alphabet = guideline.alphabet
        self.monoid = ProfileMonoid(guideline)

    def fin_bottom(self):
        return FIN_BOTTOM

    def fin_is_bottom(self, x) -> bool:
        return not x

    def fin_join(self, x, y):
        return x | y

    def fin_concat(self, x, y):
        return self.monoid.concat_fin(x, y)

    def fin_leq(self, x, y) -> bool:
        return x <= y

    def fin_eq(self, x, y) -> bool:
        return x == y

    def alpha_word(self, w):
        return frozenset({self.monoid.profile_of_word(w)})

    def alpha_nfa(self, nfa):
        return self.monoid.alpha_nfa(nfa)

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

    def mix_eq(self, x, y) -> bool:
        return self.monoid.mix_eq(x, y)

    def mix_leq(self, x, y) -> bool:
        return self.monoid.mix_leq(x, y)

    def omega(self, x):
        return self.monoid.omega(x)

    def mix_of_eps(self):
        return MixAbs(frozenset({self.monoid.eps}), frozenset())

    def member_fin(self, w, x) -> bool:
        return self.monoid.member_fin(w, x)

    def member_up(self, u, v, m) -> bool:
        return self.monoid.member_up_word(u, v, m)

    def accepts_fin(self, x) -> bool:
        return self.monoid.accepts_fin(x)

    def accepts_mix(self, m) -> bool:
        return self.monoid.accepts_mix(m)

    def fin_height(self) -> int:
        return len(self.monoid.elements) + 1
