"""The guideline read directly as an automaton, state set by state set.

The analysis decides every witness on the profile monoid
(the ``ProfileMonoid.accepts`` mask, ``dead_position`` and
``accepts_lasso_of``).
``NfaReading`` decides the same questions without profiles: the finite
reading steps the set of reachable states letter by letter, and the Büchi
reading searches the product of the automaton with the positions of the
cycle.  The tests compare the two readings word by word and lasso by lasso.
"""

from __future__ import annotations

from typing import Sequence

from guidecheck.guideline import GuidelineAutomaton


class NfaReading:
    def __init__(self, g: GuidelineAutomaton):
        self.g = g
        grouped: dict[tuple[str, str], set[str]] = {}
        for q, a, q2 in g.transitions:
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
        cur = self.g.initial
        for a in word:
            cur = self.step(cur, a)
        return cur

    def accepts_finite(self, word: Sequence[str]) -> bool:
        return bool(self.run_states(word) & self.g.accepting)

    def dead_position(self, word: Sequence[str]) -> int | None:
        """Index after which no run survives, or None if some run reads all of word."""
        cur = self.g.initial
        for i, a in enumerate(word):
            cur = self.step(cur, a)
            if not cur:
                return i + 1
        return None

    # -- Büchi reading ------------------------------------------------------

    def accepts_lasso(self, stem: Sequence[str], cycle: Sequence[str]) -> bool:
        """Büchi acceptance of stem·cycle^ω (cycle must be nonempty)."""
        return self.accepts_lasso_from(self.run_states(stem), cycle)

    def accepts_lasso_from(self, starts: frozenset[str],
                           cycle: Sequence[str]) -> bool:
        """Büchi acceptance of cycle^ω read from the states in starts.

        Searches the product of the automaton with the positions of cycle:
        node (q, i) is state q about to read cycle[i].  Every run on the
        word enters the product at (q, 0) for a state q in starts, and
        reading more copies of cycle only moves it around the product.  The
        word is accepted iff a node reachable from those starts is
        accepting and lies on a loop of the product.
        """
        if not cycle:
            raise ValueError("cycle must be nonempty")
        n = len(cycle)

        def successors(node):
            q, i = node
            j = (i + 1) % n
            return [(q2, j) for q2 in self._delta.get((q, cycle[i]), ())]

        def reach(frontier) -> set:
            seen = set(frontier)
            todo = list(seen)
            while todo:
                for nxt in successors(todo.pop()):
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            return seen

        return any(
            q in self.g.accepting and (q, i) in reach(successors((q, i)))
            for q, i in reach([(q, 0) for q in starts])
        )
