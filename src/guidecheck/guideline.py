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
        grouped: dict[tuple[str, str], set[str]] = {}
        for q, a, q2 in self.transitions:
            grouped.setdefault((q, a), set()).add(q2)
        self._delta: dict[tuple[str, str], frozenset[str]] = {
            k: frozenset(v) for k, v in grouped.items()
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

    def accepts_lasso(self, stem: Sequence[str], cycle: Sequence[str]) -> bool:
        """Büchi acceptance of stem·cycle^ω (cycle must be nonempty).

        Searches the product of the automaton with the positions of cycle:
        node (q, i) is state q about to read cycle[i].  Every run on the
        word enters the product at (q, 0) for a state q that stem reaches,
        and reading more copies of cycle only moves it around the product,
        so the states after each stem·cycle^k need no pass of their own.
        The word is accepted iff a node reachable from those starts is
        accepting and lies on a loop of the product.
        """
        if not cycle:
            raise ValueError("cycle must be nonempty")
        n = len(cycle)

        def successors(node):
            q, i = node
            j = (i + 1) % n
            return [(q2, j) for q2 in self._delta.get((q, cycle[i]), ())]

        def reach(starts) -> set:
            seen = set(starts)
            todo = list(seen)
            while todo:
                for nxt in successors(todo.pop()):
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            return seen

        return any(
            q in self.accepting and (q, i) in reach(successors((q, i)))
            for q, i in reach([(q, 0) for q in self.run_states(stem)])
        )

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
