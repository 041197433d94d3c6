"""Reference semantics: effects as actual languages of finite and infinite words.

``WordLang`` packs a finite part (one NFA) with an infinitary part, a list of
(U, V) pairs denoting U·V^ω where V is ε-free as a language (ε ∉ L(V)) and
nonempty.  Membership of an ultimately periodic word u·v^ω is decided on a
Büchi product automaton per pair.  ``bounded_equiv`` compares two languages
on all words and lassos up to a length bound; it is the measuring stick for
the iteration-based reference computations, which have no exact equality.

``OracleDomain`` puts these languages behind the ``EffectDomain`` interface.
It has no exact equality, only probes and bounded comparison, so the tests
use it as an independent reference for the profile domain's operators and
for the solver, never for fixpoint inference.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Sequence

from guidecheck.domains import EffectDomain
from guidecheck.guideline import GuidelineAutomaton
from guidecheck.oracle import Nfa, nfa_concat, nfa_star, nfa_union
from nfa_reading import NfaReading
from nfa_words import nfa_accepts, nfa_full, nfa_none, nfa_word


def nfa_nonempty_part(a: Nfa) -> Nfa:
    """L(a) minus the empty word, via a saw-one-letter bit."""
    n = a.nstates
    delta: dict = {}
    for (q, ltr), tgt in a.delta.items():
        shifted = frozenset(t + n for t in tgt)
        delta[(q, ltr)] = shifted
        delta[(q + n, ltr)] = shifted
    return Nfa(
        a.alphabet, 2 * n, delta,
        a.initial,
        frozenset(q + n for q in a.accepting),
    )


# -- languages of finite and infinite words -----------------------------------


class WordLang(NamedTuple):
    fin: Nfa
    inf: tuple  # of (Nfa, Nfa) pairs (U, V): U·V^ω, ε ∉ L(V)

    @staticmethod
    def none(alphabet: Sequence[str]) -> "WordLang":
        return WordLang(nfa_none(alphabet), ())

    @staticmethod
    def of_fin(nfa: Nfa) -> "WordLang":
        return WordLang(nfa, ())

    @staticmethod
    def universal(alphabet: Sequence[str]) -> "WordLang":
        """All finite and infinite words."""
        letters = nfa_none(alphabet)
        for a in alphabet:
            letters = nfa_union(letters, Nfa.letter(a, alphabet))
        return WordLang(nfa_full(alphabet), ((Nfa.epsilon(alphabet), letters),))


def lang_union(x: WordLang, y: WordLang) -> WordLang:
    return WordLang(nfa_union(x.fin, y.fin), x.inf + y.inf)


def lang_concat_fin(u: Nfa, x: WordLang) -> WordLang:
    return WordLang(
        nfa_concat(u, x.fin),
        tuple((nfa_concat(u, p), v) for p, v in x.inf),
    )


def lang_omega(u: Nfa) -> WordLang:
    """U^ω: the finite words are U* when ε ∈ U (drop ε infinitely often),
    the infinite words are (U ∖ {ε})^ω."""
    alphabet = u.alphabet
    fin = nfa_star(u) if u.has_eps() else nfa_none(alphabet)
    w = nfa_nonempty_part(u)
    inf: tuple = () if w.is_empty() else ((Nfa.epsilon(alphabet), w),)
    return WordLang(fin, inf)


def _lasso_product(u: Nfa, v: Nfa) -> GuidelineAutomaton:
    """Büchi automaton for U·V^ω: run U, then V-words forever; completing a
    V-word enters a marked copy of V's initial states."""
    states = [f"u{q}" for q in range(u.nstates)]
    states += [f"v{q}.{b}" for q in range(v.nstates) for b in (0, 1)]
    trans: list[tuple[str, str, str]] = []
    v_init0 = [f"v{q}.0" for q in v.initial]
    v_init1 = [f"v{q}.1" for q in v.initial]
    for (q, a), tgt in u.delta.items():
        for q2 in tgt:
            trans.append((f"u{q}", a, f"u{q2}"))
        if tgt & u.accepting:
            for s in v_init0:
                trans.append((f"u{q}", a, s))
    for (q, a), tgt in v.delta.items():
        for b in (0, 1):
            src = f"v{q}.{b}"
            for q2 in tgt:
                trans.append((src, a, f"v{q2}.0"))
            if tgt & v.accepting:
                for s in v_init1:
                    trans.append((src, a, s))
    initial = [f"u{q}" for q in u.initial]
    if u.has_eps():
        initial += v_init0
    return GuidelineAutomaton(
        u.alphabet, states, initial, v_init1, trans
    )


def _nfa_key(a: Nfa) -> tuple:
    return (
        a.alphabet, a.nstates,
        frozenset((q, ltr, tgt) for (q, ltr), tgt in a.delta.items()),
        a.initial, a.accepting,
    )


class _LassoCache(dict):
    def product(self, pair: tuple[Nfa, Nfa]) -> NfaReading:
        key = (_nfa_key(pair[0]), _nfa_key(pair[1]))
        got = self.get(key)
        if got is None:
            got = NfaReading(_lasso_product(*pair))
            self[key] = got
        return got


_products = _LassoCache()


def lang_member_fin(w: Sequence[str], x: WordLang) -> bool:
    return nfa_accepts(x.fin, w)


def lang_member_up(u: Sequence[str], v: Sequence[str], x: WordLang) -> bool:
    if not v:
        raise ValueError("v must be nonempty")
    return any(
        _products.product(pair).accepts_lasso(u, v) for pair in x.inf
    )


def all_words(alphabet: Sequence[str], max_len: int) -> Iterator[tuple[str, ...]]:
    for n in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=n):
            yield w


def bounded_equiv(x: WordLang, y: WordLang, alphabet: Sequence[str],
                  bound: int = 6) -> bool:
    """Agreement on every finite word of length ≤ bound and every lasso u·v^ω
    with |u| ≤ bound, 1 ≤ |v| ≤ bound."""
    for w in all_words(alphabet, bound):
        if nfa_accepts(x.fin, w) != nfa_accepts(y.fin, w):
            return False
    for u in all_words(alphabet, bound):
        for v in all_words(alphabet, bound):
            if not v:
                continue
            if lang_member_up(u, v, x) != lang_member_up(u, v, y):
                return False
    return True


class OracleDomain(EffectDomain):
    def __init__(self, alphabet: Sequence[str]):
        self.alphabet = tuple(alphabet)

    def fin_bottom(self):
        return nfa_none(self.alphabet)

    def fin_is_bottom(self, x) -> bool:
        return x.is_empty()

    def fin_join(self, x, y):
        return nfa_union(x, y)

    def fin_concat(self, x, y):
        return nfa_concat(x, y)

    def fin_leq(self, x, y) -> bool:
        raise NotImplementedError("no exact inclusion on language NFAs; "
                                  "use bounded comparison")

    def fin_eq(self, x, y) -> bool:
        raise NotImplementedError("no exact equality on language NFAs; "
                                  "use bounded comparison")

    def alpha_word(self, w):
        return nfa_word(w, self.alphabet)

    def alpha_nfa(self, nfa):
        return nfa

    def star(self, x):
        return nfa_star(x)

    def mix_bottom(self):
        return WordLang.none(self.alphabet)

    def mix_is_bottom(self, x) -> bool:
        return x.fin.is_empty() and not x.inf

    def mix_join(self, x, y):
        return lang_union(x, y)

    def fin_mix_concat(self, u, m):
        return lang_concat_fin(u, m)

    def mix_eq(self, x, y) -> bool:
        raise NotImplementedError("no exact equality on word languages; "
                                  "use bounded_equiv")

    def mix_leq(self, x, y) -> bool:
        raise NotImplementedError("no exact inclusion on word languages; "
                                  "use bounded comparison")

    def omega(self, x):
        return lang_omega(x)

    def mix_of_eps(self):
        return WordLang.of_fin(Nfa.epsilon(self.alphabet))

    def mix_top(self):
        return WordLang.universal(self.alphabet)

    def member_fin(self, w, x) -> bool:
        return nfa_accepts(x, tuple(w))

    def member_up(self, u, v, m) -> bool:
        return lang_member_up(u, v, m)

    def bounded_equiv(self, x, y, bound: int = 6) -> bool:
        return bounded_equiv(x, y, self.alphabet, bound)
