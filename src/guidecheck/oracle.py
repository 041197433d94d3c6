"""Regular languages of finite words: the NFA toolbox the analysis needs.

``Nfa`` is a plain ε-free NFA with integer states and possibly several
initial states; the regular operations (union, concatenation, star) are
implemented with letter-bridging constructions so the result stays ε-free.
The profile domain abstracts an ``Nfa`` into transition profiles
(``profiles.ProfileMonoid.alpha_nfa``).

A small regex dialect (union ``|``, concatenation by juxtaposition, ``*``,
``eps``, parentheses) compiles to an ``Nfa``; it is used by the external-call
configuration and by tests.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence


class Nfa(NamedTuple):
    alphabet: tuple[str, ...]
    nstates: int
    delta: dict  # (state, letter) -> frozenset[state]
    initial: frozenset
    accepting: frozenset

    # -- construction ------------------------------------------------------

    @staticmethod
    def epsilon(alphabet: Sequence[str]) -> "Nfa":
        return Nfa(tuple(alphabet), 1, {}, frozenset({0}), frozenset({0}))

    @staticmethod
    def letter(a: str, alphabet: Sequence[str]) -> "Nfa":
        return Nfa(
            tuple(alphabet), 2, {(0, a): frozenset({1})},
            frozenset({0}), frozenset({1}),
        )

    # -- queries -------------------------------------------------------------

    def step(self, states: frozenset, a: str) -> frozenset:
        out: set = set()
        for q in states:
            out |= self.delta.get((q, a), frozenset())
        return frozenset(out)

    def has_eps(self) -> bool:
        return bool(self.initial & self.accepting)

    def is_empty(self) -> bool:
        seen = set(self.initial)
        frontier = list(self.initial)
        while frontier:
            q = frontier.pop()
            if q in self.accepting:
                return False
            for a in self.alphabet:
                for q2 in self.delta.get((q, a), ()):
                    if q2 not in seen:
                        seen.add(q2)
                        frontier.append(q2)
        return True

    def words(self, max_len: int, limit: int | None = None) -> Iterator[tuple[str, ...]]:
        """Accepted words in shortlex order up to max_len."""
        count = 0
        layer: list[tuple[tuple[str, ...], frozenset]] = [((), self.initial)]
        for _ in range(max_len + 1):
            nxt = []
            for w, sset in layer:
                if sset & self.accepting:
                    yield w
                    count += 1
                    if limit is not None and count >= limit:
                        return
            for w, sset in layer:
                for a in self.alphabet:
                    t = self.step(sset, a)
                    if t:
                        nxt.append((w + (a,), t))
            layer = nxt
            if not layer:
                return

    def shortest_word(self) -> tuple[str, ...] | None:
        """The first word ``words`` yields (shortest, then least in alphabet
        order), or None if none is accepted.  A breadth-first walk that
        extends only the first word to reach each state set: any later word
        reaching that set could be replaced by the first in an accepted
        word, so the walk keeps one word per set and never the exponential
        layers of ``words``."""
        seen = {self.initial}
        layer: list[tuple[tuple[str, ...], frozenset]] = [((), self.initial)]
        while layer:
            for w, sset in layer:
                if sset & self.accepting:
                    return w
            nxt = []
            for w, sset in layer:
                for a in self.alphabet:
                    t = self.step(sset, a)
                    if t and t not in seen:
                        seen.add(t)
                        nxt.append((w + (a,), t))
            layer = nxt
        return None


def _shift(nfa: Nfa, off: int) -> dict:
    return {
        (q + off, a): frozenset(q2 + off for q2 in tgt)
        for (q, a), tgt in nfa.delta.items()
    }


def nfa_union(a: Nfa, b: Nfa) -> Nfa:
    delta = dict(a.delta)
    delta.update(_shift(b, a.nstates))
    return Nfa(
        a.alphabet, a.nstates + b.nstates, delta,
        a.initial | frozenset(q + a.nstates for q in b.initial),
        a.accepting | frozenset(q + a.nstates for q in b.accepting),
    )


def nfa_concat(a: Nfa, b: Nfa) -> Nfa:
    """ε-free concatenation: transitions into an accepting state of a also
    jump to b's initial states."""
    off = a.nstates
    delta: dict = {}
    b_init = frozenset(q + off for q in b.initial)
    for (q, ltr), tgt in a.delta.items():
        extra = b_init if (tgt & a.accepting) else frozenset()
        delta[(q, ltr)] = tgt | extra
    for (q, ltr), tgt in _shift(b, off).items():
        delta[(q, ltr)] = delta.get((q, ltr), frozenset()) | tgt
    initial = a.initial | (b_init if a.has_eps() else frozenset())
    accepting = frozenset(q + off for q in b.accepting)
    if b.has_eps():
        accepting |= a.accepting
    return Nfa(a.alphabet, a.nstates + b.nstates, delta, initial, accepting)


def nfa_star(a: Nfa) -> Nfa:
    """Loop accepting transitions back to the initial states; a fresh state
    provides ε."""
    fresh = a.nstates
    delta: dict = {}
    for (q, ltr), tgt in a.delta.items():
        extra = a.initial if (tgt & a.accepting) else frozenset()
        delta[(q, ltr)] = tgt | extra
    return Nfa(
        a.alphabet, a.nstates + 1, delta,
        a.initial | frozenset({fresh}),
        a.accepting | frozenset({fresh}),
    )


# -- regex ------------------------------------------------------------------


class RegexError(Exception):
    pass


def regex_to_nfa(src: str, alphabet: Sequence[str]) -> Nfa:
    tokens = _regex_tokens(src)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_alt() -> Nfa:
        left = parse_cat()
        while peek() == "|":
            take()
            left = nfa_union(left, parse_cat())
        return left

    def parse_cat() -> Nfa:
        out: Nfa | None = None
        while peek() is not None and peek() not in ("|", ")"):
            piece = parse_piece()
            out = piece if out is None else nfa_concat(out, piece)
        if out is None:
            raise RegexError(f"empty alternative in regex {src!r}")
        return out

    def parse_piece() -> Nfa:
        tok = take()
        if tok == "(":
            inner = parse_alt()
            if peek() != ")":
                raise RegexError(f"unbalanced parentheses in {src!r}")
            take()
            base = inner
        elif tok == "eps":
            base = Nfa.epsilon(alphabet)
        elif tok in ("|", ")", "*"):
            raise RegexError(f"unexpected {tok!r} in regex {src!r}")
        else:
            if tok not in alphabet:
                raise RegexError(f"letter {tok!r} not in the alphabet")
            base = Nfa.letter(tok, alphabet)
        while peek() == "*":
            take()
            base = nfa_star(base)
        return base

    out = parse_alt()
    if pos != len(tokens):
        raise RegexError(f"trailing input in regex {src!r}")
    return out


def _regex_tokens(src: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
        elif c in "()|*":
            tokens.append(c)
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(src[i:j])
            i = j
        else:
            raise RegexError(f"bad character {c!r} in regex {src!r}")
    if not tokens:
        raise RegexError("empty regex")
    return tokens
