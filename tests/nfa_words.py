"""NFA builders and word membership that only the tests use.

The analysis builds its NFAs from stub regexes (``oracle.regex_to_nfa``)
and never asks one whether it accepts a word; the tests use these helpers
to write down expected languages and to probe them word by word.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from guidecheck.oracle import Nfa, nfa_union


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
