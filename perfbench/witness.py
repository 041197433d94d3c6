"""The benchmark's own witness validator.

It reads the guideline as the list of transitions the benchmark generated and
decides acceptance itself, so a wrong witness cannot be excused by the same
defect in guidecheck's automaton code.  A finite word conforms if some run
reads it and ends in an accepting state; an ultimately periodic word
stem·cycle^ω conforms if some run visits an accepting state infinitely often
(Büchi).  A witness is valid only if the guideline does not accept what it
shows.
"""

from __future__ import annotations


def _successors(transitions) -> dict:
    out: dict = {}
    for q, a, q2 in transitions:
        out.setdefault((q, a), set()).add(q2)
    return out


def _read(succ: dict, start, word) -> set:
    cur = set(start)
    for a in word:
        cur = {q2 for q in cur for q2 in succ.get((q, a), ())}
    return cur


def accepts_finite(g, word) -> bool:
    return bool(_read(_successors(g.transitions), g.initial, word)
                & set(g.accepting))


def is_dead(g, word) -> bool:
    """No run reads all of word, so no extension of it conforms."""
    return not _read(_successors(g.transitions), g.initial, word)


def accepts_lasso(g, stem, cycle) -> bool:
    """Büchi acceptance of stem·cycle^ω on the product of the automaton with
    the positions of cycle: accepted iff an accepting node reachable from
    the start lies on a loop."""
    if not cycle:
        raise ValueError("cycle must be nonempty")
    succ = _successors(g.transitions)
    n = len(cycle)
    accepting = set(g.accepting)

    def nexts(node):
        q, i = node
        return [(q2, (i + 1) % n) for q2 in succ.get((q, cycle[i]), ())]

    def reach(starts) -> set:
        seen = set(starts)
        todo = list(starts)
        while todo:
            for nxt in nexts(todo.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    reachable = reach({(q, 0) for q in _read(succ, g.initial, stem)})
    return any(node in reach(nexts(node))
               for node in reachable if node[0] in accepting)


def problem(g, witness: dict) -> str | None:
    """Why the reported witness (a report's counterexample entry) is not a
    violation of g, or None if it is one."""
    trace = witness.get("trace", [])
    cycle = witness.get("cycle")
    kind = witness.get("kind")
    unknown = (set(trace) | set(cycle or ())) - set(g.alphabet)
    if unknown:
        return f"events outside the alphabet: {sorted(unknown)}"
    if kind == "finite-trace" or kind == "silent-divergence":
        if accepts_finite(g, trace):
            return f"{kind}: the guideline accepts the finite trace"
        return None
    if kind == "dead-prefix":
        if not is_dead(g, trace):
            return "dead-prefix: some run still reads the whole prefix"
        return None
    if kind == "divergence":
        if not cycle:
            return "divergence: empty cycle"
        if accepts_lasso(g, trace, cycle):
            return "divergence: the guideline accepts stem.cycle^w"
        return None
    return f"unknown witness kind {kind!r}"
