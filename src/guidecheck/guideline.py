"""Guideline automata: one automaton, two readings.

A guideline file declares an alphabet, states, initial and accepting sets and
a transition relation.  The same automaton is read as an NFA over finite
words and as a Büchi automaton over infinite words; the guideline's language
is the union of both readings.

This module parses and validates the automaton; it reads no words itself.
Both readings are decided on the automaton's transition profiles
(``profiles.ProfileMonoid``): the verdict on sets of profiles, and each
counterexample on the profiles of its words.  The automaton holds no
monoid; the profile domain builds one over it (``domains.ProfileDomain``).

File format (line oriented, ``#`` starts a comment)::

    alphabet: authcheck access log
    states: s0 s1
    initial: s0
    accepting: s0 s1
    trans: s0 authcheck s1
    trans: s1 access s0
"""

from __future__ import annotations

from typing import Iterable


class GuidelineError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class GuidelineAutomaton:
    def __init__(
        self,
        alphabet: Iterable[str],
        states: Iterable[str],
        initial: Iterable[str],
        accepting: Iterable[str],
        transitions: Iterable[tuple[str, str, str]],
    ):
        initial, accepting = tuple(initial), tuple(accepting)
        transitions = tuple(transitions)
        self.alphabet: tuple[str, ...] = tuple(dict.fromkeys(alphabet))
        self.states: tuple[str, ...] = tuple(dict.fromkeys(states))
        self.initial: frozenset[str] = frozenset(initial)
        self.accepting: frozenset[str] = frozenset(accepting)
        self.transitions: frozenset[tuple[str, str, str]] = frozenset(transitions)
        sset = set(self.states)
        for q in initial + accepting:
            if q not in sset:
                raise GuidelineError(f"undeclared state {q}")
        for q, a, q2 in transitions:
            if q not in sset or q2 not in sset:
                raise GuidelineError(f"undeclared state in transition {q} {a} {q2}")
            if a not in self.alphabet:
                raise GuidelineError(f"undeclared letter {a}")

    def __repr__(self) -> str:
        return (
            f"GuidelineAutomaton(states={len(self.states)}, "
            f"letters={len(self.alphabet)}, trans={len(self.transitions)})"
        )


def parse_guideline(text: str) -> GuidelineAutomaton:
    """Read the file format above.  Transitions are checked here, where their
    line numbers are known; the automaton checks the initial and accepting
    states."""
    sets: dict[str, list[str] | None] = dict.fromkeys(
        ("alphabet", "states", "initial", "accepting"))
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
        if key in sets:
            if sets[key] is not None:
                raise GuidelineError(f"duplicate {key} line", lineno)
            sets[key] = parts
        elif key == "trans":
            if len(parts) != 3:
                raise GuidelineError("trans needs 'state letter state'", lineno)
            transitions.append((parts[0], parts[1], parts[2]))
            trans_lines.append(lineno)
        else:
            raise GuidelineError(f"unknown key {key!r}", lineno)
    alphabet, states, initial = sets["alphabet"], sets["states"], sets["initial"]
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
    return GuidelineAutomaton(alphabet, states, initial, sets["accepting"] or [],
                              transitions)


def load_guideline(path: str) -> GuidelineAutomaton:
    with open(path, encoding="utf-8") as fh:
        return parse_guideline(fh.read())
