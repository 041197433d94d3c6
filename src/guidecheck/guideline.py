"""Guideline automata: one automaton, two readings.

A guideline file declares an alphabet, states, initial and accepting sets and
a transition relation.  The same automaton is read as an NFA over finite
words and as a Büchi automaton over infinite words; the guideline's language
is the union of both readings.

File format (line oriented, ``#`` starts a comment)::

    alphabet: authcheck access log
    states: s0 s1
    initial: s0
    accepting: s0 s1
    trans: s0 authcheck s1
    trans: s1 access s0
"""

from __future__ import annotations

from typing import Iterable, Sequence


class GuidelineError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


Rel = frozenset  # of (state, bit, state) triples


class GuidelineAutomaton:
    def __init__(
        self,
        alphabet: Iterable[str],
        states: Iterable[str],
        initial: Iterable[str],
        accepting: Iterable[str],
        transitions: Iterable[tuple[str, str, str]],
    ):
        self.alphabet: tuple[str, ...] = tuple(dict.fromkeys(alphabet))
        self.states: tuple[str, ...] = tuple(dict.fromkeys(states))
        self.initial: frozenset[str] = frozenset(initial)
        self.accepting: frozenset[str] = frozenset(accepting)
        self.transitions: frozenset[tuple[str, str, str]] = frozenset(transitions)
        sset = set(self.states)
        for q in self.initial | self.accepting:
            if q not in sset:
                raise GuidelineError(f"undeclared state {q}")
        for q, a, q2 in self.transitions:
            if q not in sset or q2 not in sset:
                raise GuidelineError(f"undeclared state in transition {q} {a} {q2}")
            if a not in self.alphabet:
                raise GuidelineError(f"undeclared letter {a}")
        grouped: dict[tuple[str, str], set[str]] = {}
        for q, a, q2 in self.transitions:
            grouped.setdefault((q, a), set()).add(q2)
        self._delta: dict[tuple[str, str], frozenset[str]] = {
            k: frozenset(v) for k, v in grouped.items()
        }
        rels: dict[str, set] = {a: set() for a in self.alphabet}
        for (q, a), targets in self._delta.items():
            for q2 in targets:
                bit = 1 if (q in self.accepting or q2 in self.accepting) else 0
                rels[a].add((q, bit, q2))
        self._letter_rels: dict[str, Rel] = {
            a: frozenset(r) for a, r in rels.items()
        }

    # -- NFA reading --------------------------------------------------------

    def step(self, states: frozenset[str], letter: str) -> frozenset[str]:
        out: set[str] = set()
        for q in states:
            out |= self._delta.get((q, letter), frozenset())
        return frozenset(out)

    def run_states(self, word: Sequence[str]) -> frozenset[str]:
        cur = self.initial
        for a in word:
            cur = self.step(cur, a)
        return cur

    def accepts_finite(self, word: Sequence[str]) -> bool:
        return bool(self.run_states(word) & self.accepting)

    def dead_position(self, word: Sequence[str]) -> int | None:
        """Index after which no run survives, or None if some run reads all of word."""
        cur = self.initial
        for i, a in enumerate(word):
            cur = self.step(cur, a)
            if not cur:
                return i + 1
        return None

    # -- Büchi reading ------------------------------------------------------

    def rel_of_word(self, word: Sequence[str]) -> Rel:
        """Triples (q, b, q'): a path reads word from q to q'; b marks an
        accepting visit, both endpoints counted."""
        rel = frozenset(
            (q, 1 if q in self.accepting else 0, q) for q in self.states
        )
        for a in word:
            rel = self.compose_rel(rel, self.letter_rel(a))
        return rel

    def letter_rel(self, a: str) -> Rel:
        """Triples (q, b, q') of the transitions on a, b marking an accepting
        endpoint; built once per automaton."""
        return self._letter_rels.get(a, frozenset())

    @staticmethod
    def compose_rel(r1: Rel, r2: Rel) -> Rel:
        by_src: dict[str, list[tuple[int, str]]] = {}
        for q, b, q2 in r2:
            by_src.setdefault(q, []).append((b, q2))
        out = set()
        for q, b1, mid in r1:
            for b2, q2 in by_src.get(mid, ()):
                out.add((q, b1 | b2, q2))
        return frozenset(out)

    def accepts_lasso(self, stem: Sequence[str], cycle: Sequence[str]) -> bool:
        """Büchi acceptance of stem·cycle^ω (cycle must be nonempty).

        Uses the classical reduction: accepted iff for some k, m a state q is
        reachable from an initial state reading stem·cycle^k and cycle^m loops
        on q through an accepting visit.  The relation powers are eventually
        periodic, so scanning each orbit once is complete.
        """
        if not cycle:
            raise ValueError("cycle must be nonempty")
        rv = self.rel_of_word(cycle)
        cycles: list[Rel] = []
        seen: set[Rel] = set()
        cur = rv
        while cur not in seen:
            seen.add(cur)
            cycles.append(cur)
            cur = self.compose_rel(cur, rv)
        stems: list[Rel] = []
        seen2: set[Rel] = set()
        cur = self.rel_of_word(stem)
        while cur not in seen2:
            seen2.add(cur)
            stems.append(cur)
            cur = self.compose_rel(cur, rv)
        for s in stems:
            starts = {q2 for (q, _, q2) in s if q in self.initial}
            for e in cycles:
                loops = {q for (q, b, q2) in e if q == q2 and b == 1}
                if starts & loops:
                    return True
        return False

    def __repr__(self) -> str:
        return (
            f"GuidelineAutomaton(states={len(self.states)}, "
            f"letters={len(self.alphabet)}, trans={len(self.transitions)})"
        )


def parse_guideline(text: str) -> GuidelineAutomaton:
    alphabet: list[str] | None = None
    states: list[str] | None = None
    initial: list[str] | None = None
    accepting: list[str] | None = None
    transitions: list[tuple[str, str, str]] = []
    trans_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise GuidelineError("expected 'key: ...'", lineno)
        key, _, rest = line.partition(":")
        key = key.strip()
        parts = rest.split()
        if key == "alphabet":
            if alphabet is not None:
                raise GuidelineError("duplicate alphabet line", lineno)
            alphabet = parts
        elif key == "states":
            if states is not None:
                raise GuidelineError("duplicate states line", lineno)
            states = parts
        elif key == "initial":
            if initial is not None:
                raise GuidelineError("duplicate initial line", lineno)
            initial = parts
        elif key == "accepting":
            if accepting is not None:
                raise GuidelineError("duplicate accepting line", lineno)
            accepting = parts
        elif key == "trans":
            if len(parts) != 3:
                raise GuidelineError("trans needs 'state letter state'", lineno)
            transitions.append((parts[0], parts[1], parts[2]))
            trans_lines.append(lineno)
        else:
            raise GuidelineError(f"unknown key {key!r}", lineno)
    if alphabet is None:
        raise GuidelineError("missing alphabet line")
    if not states:
        raise GuidelineError("missing or empty states line")
    if not initial:
        raise GuidelineError("missing or empty initial line")
    sset = set(states)
    aset = set(alphabet)
    for (q, a, q2), ln in zip(transitions, trans_lines):
        if q not in sset or q2 not in sset:
            raise GuidelineError(f"undeclared state in '{q} {a} {q2}'", ln)
        if a not in aset:
            raise GuidelineError(f"undeclared letter {a}", ln)
    for q in (initial or []) + (accepting or []):
        if q not in sset:
            raise GuidelineError(f"undeclared state {q}")
    return GuidelineAutomaton(alphabet, states, initial, accepting or [], transitions)


def load_guideline(path: str) -> GuidelineAutomaton:
    with open(path, encoding="utf-8") as fh:
        return parse_guideline(fh.read())
