"""A deliberately coarse four/eight-element domain over the alphabet {a}.

The finite-word lattice collapses a* to four values: the empty language, the
language {ε}, "some nonempty words" (abstracted as a⁺) and "possibly ε and
nonempty words" (a*).  The mixed lattice pairs such a value with one bit for
the single infinite word a^ω.  Concatenation is table-driven and loses
precision exactly where a finite-state abstraction must (a⁺·a⁺ = a⁺).

The point of this domain is the contrast it provides: its mixed lattice has a
top element and exact equality, so a naive greatest-fixpoint iteration inside
the lattice is possible — and lands on a⁺ ∪ a^ω for X = a⁺·X, strictly above
the a^ω that the closed-form solver extracts.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from guidecheck.domains import EffectDomain
from language_oracle import nfa_nonempty_part
from nfa import Nfa
from nfa_words import nfa_is_empty

EMPTY, EPS, APLUS, ASTAR = "0", "eps", "a+", "a*"

_ORDER = {EMPTY: 0, EPS: 1, APLUS: 1, ASTAR: 2}

_JOIN = {
    (EMPTY, EMPTY): EMPTY, (EMPTY, EPS): EPS, (EMPTY, APLUS): APLUS,
    (EMPTY, ASTAR): ASTAR, (EPS, EPS): EPS, (EPS, APLUS): ASTAR,
    (EPS, ASTAR): ASTAR, (APLUS, APLUS): APLUS, (APLUS, ASTAR): ASTAR,
    (ASTAR, ASTAR): ASTAR,
}

_CONCAT = {
    (EPS, EPS): EPS, (EPS, APLUS): APLUS, (EPS, ASTAR): ASTAR,
    (APLUS, EPS): APLUS, (APLUS, APLUS): APLUS, (APLUS, ASTAR): APLUS,
    (ASTAR, EPS): ASTAR, (ASTAR, APLUS): APLUS, (ASTAR, ASTAR): ASTAR,
}

_STAR = {EMPTY: EPS, EPS: EPS, APLUS: ASTAR, ASTAR: ASTAR}

_HAS_EPS = {EMPTY: False, EPS: True, APLUS: False, ASTAR: True}
_HAS_NONEMPTY = {EMPTY: False, EPS: False, APLUS: True, ASTAR: True}


class ToyMix(NamedTuple):
    fin: str
    omega_bit: bool  # denotes a^ω


def _join(x: str, y: str) -> str:
    return _JOIN.get((x, y)) or _JOIN[(y, x)]


def _leq(x: str, y: str) -> bool:
    return _join(x, y) == y


class ToyDomain(EffectDomain):
    alphabet = ("a",)

    def fin_bottom(self):
        return EMPTY

    def fin_is_bottom(self, x) -> bool:
        return x == EMPTY

    def fin_join(self, x, y):
        return _join(x, y)

    def fin_concat(self, x, y):
        if x == EMPTY or y == EMPTY:
            return EMPTY
        return _CONCAT[(x, y)]

    def fin_leq(self, x, y) -> bool:
        return _leq(x, y)

    def fin_eq(self, x, y) -> bool:
        return x == y

    def alpha_word(self, w: Sequence[str]):
        return EPS if len(w) == 0 else APLUS

    def alpha_nfa(self, nfa: Nfa):
        has_eps = nfa.has_eps()
        has_nonempty = not nfa_is_empty(nfa_nonempty_part(nfa))
        if has_eps and has_nonempty:
            return ASTAR
        if has_eps:
            return EPS
        if has_nonempty:
            return APLUS
        return EMPTY

    def star(self, x):
        return _STAR[x]

    def mix_bottom(self):
        return ToyMix(EMPTY, False)

    def mix_is_bottom(self, x) -> bool:
        return x.fin == EMPTY and not x.omega_bit

    def mix_join(self, x, y):
        return ToyMix(_join(x.fin, y.fin), x.omega_bit or y.omega_bit)

    def fin_mix_concat(self, u, m):
        # over {a}, any finite nonempty prefix of a^ω is again a^ω
        return ToyMix(self.fin_concat(u, m.fin),
                      m.omega_bit and u != EMPTY)

    def mix_eq(self, x, y) -> bool:
        return x == y

    def mix_leq(self, x, y) -> bool:
        return _leq(x.fin, y.fin) and (not x.omega_bit or y.omega_bit)

    def omega(self, x):
        fin = self.star(x) if _HAS_EPS[x] else EMPTY
        return ToyMix(fin, _HAS_NONEMPTY[x])

    def mix_of_eps(self):
        return ToyMix(EPS, False)

    def mix_top(self):
        return ToyMix(ASTAR, True)

    def fin_height(self) -> int:
        return 3

    def member_fin(self, w, x) -> bool:
        return _HAS_EPS[x] if len(w) == 0 else _HAS_NONEMPTY[x]

    def member_up(self, u, v, m) -> bool:
        if not v:
            raise ValueError("v must be nonempty")
        return m.omega_bit

    def render_fin(self, x) -> str:
        return {EMPTY: "{}", EPS: "{eps}", APLUS: "a+", ASTAR: "a*"}[x]

    def render_mix(self, m) -> str:
        fin = self.render_fin(m.fin)
        return f"{fin} + a^w" if m.omega_bit else fin
