"""Transition-profile algebra over a guideline automaton.

A profile records, for a finite word, which states the automaton can read
the word between, and whether such a path visits an accepting state
(endpoints included).  It is stored as two n×n bit matrices over the n
state indices: ``zero`` has bit (i, j) set iff some path reads the word
from state i to state j without an accepting visit, and ``one`` has bit
(i, j) set iff some path from i to j visits an accepting state.  A word may
connect i to j both ways, so both matrices are kept.  Collapsing them into
"some path accepts" preserves acceptance but merges profiles, which changes
the monoid's size and so the lattice height that caps inference; the
matrices are exact instead.  Each matrix is packed into one ``int``, row i
at bits i·n to i·n + n - 1, so bit (i, j) is bit i·n + j.

A profile is the dense ``int`` its monoid gives it when interning its
matrices: the monoid keeps the matrices, the empty-word tag and the
acceptance masks in public lists by index, and caches composition in one
dict per left operand (``mul``).  Indices are local to one monoid; two
monoids over one guideline may number the same profile differently.
Profiles of the empty word are tagged: the empty word's profile has the
same matrices as some nonempty words on degenerate automata, but the two
behave differently under the infinite iteration, so the tag is part of the
interning key.  The key is one ``int``, zero | one << n² | empty << 2n².

Composition works a column at a time, on whole matrices: for each state m,
column m of the left matrix is spread into whole rows (the rows i that
reach m), and ANDed with row m of the right matrix copied into every row
(the states m reaches); the product ORs these n terms.  Paths at b = 0 so
far take the right operand's bit, paths at b = 1 stay at 1.  A profile's
copied rows are built on its first use as a right operand, and its spread
columns on its first use as a left operand.  Most products missing from
the cache are profiles some other pair built before, so a miss looks its
product's key up before it interns a profile.  ε̂, the
empty word's profile, is a two-sided identity on the profiles of words, so
its products with such a profile are cached as the profile is interned, a
set holding ε̂ alone concatenates as the identity, and a closure needs only
the nonempty generators.

The monoid works on one profile at a time.  Sets of profiles abstract
languages of finite words (``FinAbs``); pairs of a stem profile and an
idempotent cycle profile, together with a finite part, abstract languages
of finite and infinite words (``MixAbs``).  Their union, concatenation,
Kleene star, infinite iteration and acceptance check are the lattice
operators of ``domains.ProfileDomain``, which reads the product cache and
the acceptance masks here, and keeps the concatenations of sets by operand
pair.  The same masks decide single words for the
counterexample search, given the profiles of a word's prefixes: a finite
word, the first dead prefix of a word, and a lasso stem·cycle^ω given the
profiles of its stem and cycle.

Rotation saturation, which gives MixAbs values a canonical form, the
membership probes for finite and ultimately periodic words, the decoding of
an index back into triples and the row-loop product the column product
replaced live with the tests.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from operator import itemgetter

from .guideline import GuidelineAutomaton

# Hard cap on the profiles one monoid interns, ε̂ aside; the analyses here are
# meant for small specification automata, and a blow-up almost certainly
# means a bug.  Every profile is interned by ``ProfileMonoid.profile``, so
# the cap holds for every closure the domain's operators and the search run.
MONOID_CAP = 20000


class MixAbs(tuple):
    """(fin, inf): the profiles of the finite words, and the (stem, cycle)
    profile pairs of the infinite ones.  A plain tuple subclass, which
    takes less to define on import than a ``NamedTuple``."""

    __slots__ = ()
    fin = property(itemgetter(0))
    inf = property(itemgetter(1))

    def __new__(cls, fin: frozenset[int],
                inf: frozenset[tuple[int, int]]) -> MixAbs:
        return tuple.__new__(cls, (fin, inf))

    def __repr__(self) -> str:
        return f"MixAbs(fin={self[0]!r}, inf={self[1]!r})"


FinAbs = frozenset  # of profile indices

FIN_BOTTOM: FinAbs = frozenset()
MIX_BOTTOM = MixAbs(frozenset(), frozenset())


class ProfileMonoid:
    """The profiles of one automaton, with composition.

    Profiles are interned as they are composed, up to ``MONOID_CAP``.
    ``elements``, the closure of the letter profiles under composition (the
    profiles of all finite words), is computed on first use only; the
    analysis never asks for it.
    """

    def __init__(self, g: GuidelineAutomaton):
        self.g = g
        n = len(g.states)
        index = {q: i for i, q in enumerate(g.states)}
        accepting = [q in g.accepting for q in g.states]
        self._full = (1 << n) - 1  # every bit of row 0
        self._col = sum(1 << i * n for i in range(n))  # bit 0 of every row
        self._diagonal = sum(1 << i * n + i for i in range(n))
        self._n = n
        self._initial = [index[q] * n for q in g.initial]  # their rows' shifts
        self._accepting_mask = sum(1 << i for i in range(n) if accepting[i])
        self._one_shift, self._empty_shift = n * n, 2 * n * n
        # the bits (i, j) with i or j accepting: a word's zero matrix holds
        # paths that visit no accepting state, so it has none of them
        self._accepting_ends = sum(1 << i * n + j for i in range(n)
                                   for j in range(n)
                                   if accepting[i] or accepting[j])
        # by key zero | one << n² | empty << 2n², one int per profile
        self._interned: dict[int, int] = {}
        # by profile index: the matrices and tag, the states the word
        # reaches from an initial state, whether one of those accepts, the
        # states the word loops on through an accepting visit, and the
        # products with it on the left, mul[p1][p2] == p1·p2
        self.zero: list[int] = []
        self.one: list[int] = []
        self.empty: list[bool] = []
        self.starts: list[int] = []
        self.accepts: list[bool] = []
        self.loops: list[int] = []
        self.mul: list[dict[int, int]] = []
        # by profile index, once it has been a right operand: its nonzero
        # rows m, as m with row m of zero, of one and of both, each copied
        # into every row; once it has been a left operand: per state m,
        # column m of zero and of one, each spread to whole rows
        self._copies: list[list[tuple[int, int, int, int]] | None] = []
        self._spreads: list[list[tuple[int, int]] | None] = []
        self._idempotent: dict[int, int] = {}  # a cycle's idempotent power
        # ε̂ connects each state to itself, through an accepting visit iff
        # the state is accepting; a letter's rows are its transitions
        self.eps = self.profile(
            sum(1 << i * n + i for i in range(n) if not accepting[i]),
            sum(1 << i * n + i for i in range(n) if accepting[i]),
            empty=True,
        )
        self.fin_eps: FinAbs = frozenset({self.eps})
        zero = dict.fromkeys(g.alphabet, 0)
        one = dict.fromkeys(g.alphabet, 0)
        for q, a, q2 in g.transitions:
            i, j = index[q], index[q2]
            bit = 1 << i * n + j
            (one if accepting[i] or accepting[j] else zero)[a] |= bit
        self.letters: dict[str, int] = {
            a: self.profile(zero[a], one[a]) for a in g.alphabet
        }

    def profile(self, zero: int, one: int, empty: bool = False) -> int:
        """The index of the profile with these matrices and tag; raises
        ``RuntimeError`` rather than intern more than ``MONOID_CAP`` profiles
        besides ε̂."""
        key = zero | one << self._one_shift | empty << self._empty_shift
        p = self._interned.get(key)
        if p is None:
            if len(self.zero) > MONOID_CAP:
                raise RuntimeError("profile monoid exceeded size cap")
            p = self._interned[key] = len(self.zero)
            row, both = self._full, zero | one
            starts = 0
            for shift in self._initial:
                starts |= both >> shift & row
            loops = 0
            diagonal = one & self._diagonal  # bit (q, q) is bit q·(n + 1)
            while diagonal:
                low = diagonal & -diagonal
                loops |= 1 << (low.bit_length() - 1) // (self._n + 1)
                diagonal ^= low
            self.zero.append(zero)
            self.one.append(one)
            self.empty.append(empty)
            self.starts.append(starts)
            self.accepts.append(bool(starts & self._accepting_mask))
            self.loops.append(loops)
            self.mul.append({})
            if not zero & self._accepting_ends:
                # ε̂, interned first as profile 0, is then a two-sided
                # identity: the products are read, not built
                self.mul[p][0] = self.mul[0][p] = p
            self._copies.append(None)
            self._spreads.append(None)
        return p

    @cached_property
    def elements(self) -> frozenset[int]:
        """The realizable monoid: the closure of the letter profiles, and ε̂."""
        return self.s_plus(self.letters.values()) | self.fin_eps

    # -- monoid structure ---------------------------------------------------

    def compose(self, p1: int, p2: int) -> int:
        products = self.mul[p1]
        out = products.get(p2)
        if out is not None:
            return out
        rows = self._copies[p2]
        if rows is None:
            rows = self._copies[p2] = self._copied_rows(p2)
        columns = self._spreads[p1]
        if columns is None:
            columns = self._spreads[p1] = self._spread_columns(p1)
        zero = one = 0
        for m, z2, o2, b2 in rows:
            # the rows of p1 that reach state m, at b = 0 and at b = 1 so
            # far: at b = 0 the right operand's row decides the bit, at
            # b = 1 every path on stays at b = 1
            zm, om = columns[m]
            if zm:
                zero |= zm & z2
                one |= zm & o2
            if om:
                one |= om & b2
        # most products are profiles built before: found by their key,
        # they skip ``profile``'s call
        empty = self.empty[p1] and self.empty[p2]
        out = self._interned.get(
            zero | one << self._one_shift | empty << self._empty_shift)
        if out is None:
            out = self.profile(zero, one, empty)
        products[p2] = out
        return out

    def _copied_rows(self, p: int) -> list[tuple[int, int, int, int]]:
        """Per state m that p's word leaves, m with row m of p's zero, of its
        one and of both, each copied into every row."""
        n, row, col = self._n, self._full, self._col
        zero, one = self.zero[p], self.one[p]
        out = []
        for m in range(n):
            z = (zero >> m * n & row) * col
            o = (one >> m * n & row) * col
            if z | o:
                out.append((m, z, o, z | o))
        return out

    def _spread_columns(self, p: int) -> list[tuple[int, int]]:
        """Per state m, column m of p's zero and of its one, each spread to
        whole rows: row i is full where the word reaches m from i."""
        full, col = self._full, self._col
        zero, one = self.zero[p], self.one[p]
        return [((zero >> m & col) * full, (one >> m & col) * full)
                for m in range(self._n)]

    def profile_of_word(self, word: Sequence[str]) -> int:
        p = self.eps
        for a in word:
            p = self.compose(p, self.letters[a])
        return p

    def s_plus(self, gens: Iterable[int]) -> frozenset[int]:
        """Closure of gens under composition (products of one or more)."""
        gens = list(gens)
        seen: set[int] = set(gens)
        frontier = list(gens)
        mul, compose = self.mul, self.compose
        while frontier:
            p = frontier.pop()
            products = mul[p]
            for q0 in gens:
                q = products.get(q0)
                if q is None:
                    q = compose(p, q0)
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
        return frozenset(seen)

    # -- acceptance of words ---------------------------------------------------

    def prefix_profiles(self, prefixes: list[int],
                        word: Sequence[str]) -> list[int]:
        """prefixes, the profiles of the first prefixes of word (none at
        first), extended in place so that prefixes[i] is the profile of
        word[:i] for every i: only the letters past its end are composed,
        so a list kept while word grows composes each letter once."""
        if not prefixes:
            prefixes.append(self.eps)
        p, compose, letters = prefixes[-1], self.compose, self.letters
        for a in word[len(prefixes) - 1:]:
            p = compose(p, letters[a])
            prefixes.append(p)
        return prefixes

    def dead_position(self, prefixes: list[int]) -> int | None:
        """The length of the shortest prefix of a word that no run from an
        initial state reads, or None if some run reads all of the word,
        given the profiles of every prefix of the word (``prefix_profiles``).
        A prefix no run reads has no extension that a run reads, so the
        last profile tells whether there is one."""
        starts = self.starts
        if len(prefixes) == 1 or starts[prefixes[-1]]:
            return None
        return next(i for i in range(1, len(prefixes))
                    if not starts[prefixes[i]])

    def accepts_lasso_of(self, stem: int, cycle: int) -> bool:
        """Büchi acceptance of u·v^ω for any words u of profile stem and v
        of profile cycle.

        With e the idempotent power of v's profile, the word is u·w·w·w···
        for a word w with profile e, so it is accepted iff a state that u·w
        reaches from an initial state loops on e through an accepting
        visit: the test ``ProfileDomain.accepts_mix`` makes of the pair
        (stem·e, e), exact for ultimately periodic words (Büchi 1962).
        The cycle may be ε̂, an empty v: ε̂ is idempotent and loops on
        exactly the accepting states, so u·ε^ω, the silent divergence
        after u, is accepted iff the automaton accepts u (``accepts``).
        Each cycle's idempotent power is found once."""
        e = self._idempotent.get(cycle)
        if e is None:
            e = cycle
            while self.compose(e, e) != e:  # some power of v is idempotent
                e = self.compose(e, cycle)
            self._idempotent[cycle] = e
        s = self.mul[stem].get(e)
        if s is None:
            s = self.compose(stem, e)
        return bool(self.starts[s] & self.loops[e])
