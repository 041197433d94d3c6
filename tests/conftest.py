from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

import guidecheck
from canonical_forms import CanonicalDomain
from guidecheck.guideline import GuidelineAutomaton, load_guideline
from language_oracle import WordLang, nfa_nonempty_part
from nfa import Nfa

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def load_domain(guideline: GuidelineAutomaton | str) -> CanonicalDomain:
    """The profile domain with the tests' canonical forms and membership
    probes, over an automaton or the guideline fixture of that name."""
    if isinstance(guideline, str):
        guideline = load_guideline(fixture(guideline))
    return CanonicalDomain(guideline)


PACKAGE_DIR = Path(guidecheck.__file__).parent


def fresh_python_env() -> dict:
    """Environment for a fresh interpreter that imports this guidecheck."""
    env = dict(os.environ)
    paths = [str(PACKAGE_DIR.parent), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def random_automaton(rng: random.Random) -> GuidelineAutomaton:
    """A random guideline with at most 3 states and at most 2 letters."""
    alphabet = ("a", "b")[: rng.randint(1, 2)]
    states = [f"q{i}" for i in range(rng.randint(1, 3))]
    trans = [
        (q, a, q2)
        for q, a in itertools.product(states, alphabet)
        for q2 in states
        if rng.random() < 0.45
    ]
    initial = [q for q in states if rng.random() < 0.5] or [rng.choice(states)]
    accepting = [q for q in states if rng.random() < 0.5]
    return GuidelineAutomaton(alphabet, states, initial, accepting, trans)


def bench_sized_automaton(rng: random.Random) -> GuidelineAutomaton:
    """A guideline of 5 to 7 states over three letters, drawn like the
    benchmark's guideline batch: the first state initial, each state
    accepting with probability 1/2 (the last if none is), each transition
    present with probability 0.3."""
    letters = ("a", "b", "c")
    states = [f"q{i}" for i in range(rng.randint(5, 7))]
    accepting = [q for q in states if rng.random() < 0.5] or [states[-1]]
    trans = [(q, a, q2) for q in states for a in letters for q2 in states
             if rng.random() < 0.3]
    return GuidelineAutomaton(letters, states, [states[0]], accepting, trans)


def guideline_nfa(g: GuidelineAutomaton, initial=None, accepting=None) -> Nfa:
    """The guideline reinterpreted as a plain NFA, with overridable state sets."""
    idx = {q: i for i, q in enumerate(g.states)}
    grouped: dict = {}
    for q, a, q2 in g.transitions:
        grouped.setdefault((idx[q], a), set()).add(idx[q2])
    delta = {k: frozenset(v) for k, v in grouped.items()}
    return Nfa(
        tuple(g.alphabet),
        len(g.states),
        delta,
        frozenset(idx[q] for q in (initial if initial is not None else g.initial)),
        frozenset(idx[q] for q in (accepting if accepting is not None else g.accepting)),
    )


def own_language(g: GuidelineAutomaton) -> WordLang:
    """The guideline's full language (finite and infinite words) as a WordLang:
    one U·V^ω pair per accepting state q, with U = L(I→q) and V = L⁺(q→q)."""
    pairs = []
    for q in sorted(g.accepting):
        u = guideline_nfa(g, accepting=[q])
        v = nfa_nonempty_part(guideline_nfa(g, initial=[q], accepting=[q]))
        pairs.append((u, v))
    return WordLang(guideline_nfa(g), tuple(pairs))


def gamma_nfa(monoid, fin, alphabet) -> Nfa:
    """NFA of the concretization of a profile set: states are the realizable
    profiles, the run computes the word's profile, accept iff it is in fin."""
    elems = sorted(monoid.elements)
    idx = {p: i for i, p in enumerate(elems)}
    delta = {}
    for p in elems:
        for a in alphabet:
            delta[(idx[p], a)] = frozenset(
                {idx[monoid.compose(p, monoid.letters[a])]}
            )
    return Nfa(
        tuple(alphabet),
        len(elems),
        delta,
        frozenset({idx[monoid.eps]}),
        frozenset(idx[p] for p in fin),
    )


def all_words(alphabet, max_len: int, min_len: int = 0):
    for n in range(min_len, max_len + 1):
        yield from itertools.product(alphabet, repeat=n)
