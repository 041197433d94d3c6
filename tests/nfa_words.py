"""NFA builders, word membership and emptiness that only the tests use.

The analysis builds no NFAs; the tests build them with ``nfa.regex_to_nfa``
and these helpers to write down expected languages, and probe them here for
a word or for any word at all.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from nfa import Nfa, nfa_union


def nfa_none(alphabet: Sequence[str]) -> Nfa:
    """No word at all."""
    return Nfa(tuple(alphabet), 0, {}, frozenset(), frozenset())


def nfa_word(w: Sequence[str], alphabet: Sequence[str]) -> Nfa:
    """The single word w."""
    if not w:
        return Nfa.epsilon(alphabet)
    delta = {(i, a): frozenset({i + 1}) for i, a in enumerate(w)}
    return Nfa(tuple(alphabet), len(w) + 1, delta,
               frozenset({0}), frozenset({len(w)}))


def nfa_of_words(words: Iterable[Sequence[str]], alphabet: Sequence[str]) -> Nfa:
    out = nfa_none(alphabet)
    for w in words:
        out = nfa_union(out, nfa_word(w, alphabet))
    return out


def nfa_full(alphabet: Sequence[str]) -> Nfa:
    """All finite words."""
    delta = {(0, a): frozenset({0}) for a in alphabet}
    return Nfa(tuple(alphabet), 1, delta, frozenset({0}), frozenset({0}))


def nfa_accepts(nfa: Nfa, word: Sequence[str]) -> bool:
    cur = nfa.initial
    for a in word:
        cur = nfa.step(cur, a)
        if not cur:
            return False
    return bool(cur & nfa.accepting)


def nfa_is_empty(nfa: Nfa) -> bool:
    """Whether nfa accepts no word: no accepting state is reachable."""
    seen = set(nfa.initial)
    frontier = list(nfa.initial)
    while frontier:
        q = frontier.pop()
        if q in nfa.accepting:
            return False
        for a in nfa.alphabet:
            for q2 in nfa.delta.get((q, a), ()):
                if q2 not in seen:
                    seen.add(q2)
                    frontier.append(q2)
    return True
