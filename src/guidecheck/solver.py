"""Divergence equations and their closed-form solution.

Each signature δ gets one equation δ = ⊔ᵢ Uᵢ·δᵢ built from the S-component
of the method table: Uᵢ is the finite-word effect emitted before entering the
call δᵢ.  The intended value η(δ) is the abstraction of all complete —
including infinite — event sequences of executions that start in δ and never
return.

``solve`` follows Tarjan's "Fast algorithms for solving path problems"
(JACM 1981): it splits the call graph (signature → callee) into strongly
connected components and solves them callees first.  When a component is
reached, every callee outside it already has its final value, so each such
edge folds straight into the constant: const ⊔= U·η(callee).  Inside the
component, variables are eliminated in the given order (by default the
canonical signature order): rewrite the current equation with the earlier
members' solved forms, split off the self-coefficient A, and replace
δ = A·δ ⊔ F by δ = A*·F ⊔ A^ω, distributing A* over F's terms; a
back-substitution pass over the component then closes every form.

A one-member component is solved once per block: signatures whose
equations are equal once each callee is replaced by its block, and the
signature itself by a marker, get one η.  The blocks are found callees
first by hash-consing each equation's (block, coefficient) pairs, so the
domain operators run once per block, not once per signature; the rest of
the work is one hash per signature and edge.  Inside a multi-member
component the elimination is quadratic in the size of that component.
The result is a fixpoint of the system, η(δ) = S(η)(δ) exactly, and the
elimination order does not affect it; η is equal (``==``) to what solving
each signature's equation alone gives, since equal equations over equal
callee values build equal values.  The reference computations the tests
check it against (one application S(η), greatest-fixpoint descent, the
solve of one equation per signature) are in ``tests/solver_reference.py``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .classtable import ClassTable, once_per_object
from .effexpr import dict_drop_bottom, dict_join, dict_scale
from .regions import Sig


class EquationSystem:
    def __init__(self, sigs: list, rhs: dict):
        self.sigs = sigs  # canonical variable order
        self.rhs = rhs  # Sig -> {Sig: fin element}

    @staticmethod
    def from_table(table: ClassTable, domain) -> "EquationSystem":
        """The equations of table's S-components, bottom entries dropped
        once per distinct S dict: signatures that share a row share one
        right-hand side, which nothing mutates."""
        sigs = sorted(table.mtable, key=Sig.sort_key)
        drop = once_per_object(
            lambda s: dict_drop_bottom(s, domain.fin_is_bottom))
        return EquationSystem(
            sigs, {sig: drop(table.mtable[sig][2]) for sig in sigs})


class _LinForm:
    def __init__(self, coeffs: dict, const):
        self.coeffs = coeffs  # Sig -> fin element
        self.const = const  # mix element


def components(nodes: Iterable, successors: Callable) -> list:
    """Strongly connected components of the graph that ``successors`` gives
    on ``nodes``, each successor's component before its predecessors'
    (Tarjan 1972).  Roots are taken in the order of ``nodes``.  Iterative, so
    a long chain cannot exhaust the Python stack."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    out: list = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, succ = work[-1]
            for nxt in succ:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(successors(nxt))))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    pred = work[-1][0]
                    low[pred] = min(low[pred], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        comp.append(member)
                        if member == node:
                            break
                    out.append(comp)
    return out


def solve(system: EquationSystem, domain, order: Sequence | None = None) -> dict:
    order = list(order) if order is not None else list(system.sigs)
    if len(order) != len(system.sigs) or set(order) != set(system.sigs):
        raise ValueError("order must be a permutation of the system variables")
    rank = {var: i for i, var in enumerate(order)}
    eta: dict = {}

    def substitute(form: _LinForm, var, sub: _LinForm) -> _LinForm:
        u = form.coeffs.pop(var, None)
        if u is None:
            return form
        form.coeffs = dict_join(
            form.coeffs, dict_scale(u, sub.coeffs, domain.fin_concat),
            domain.fin_join,
        )
        form.const = domain.mix_join(
            form.const, domain.fin_mix_concat(u, sub.const)
        )
        return form

    block: dict = {}  # var -> the index in etas of its block's η
    etas: list = []
    equations: dict = {}  # a one-member equation's key -> its block

    for comp in components(system.sigs, system.rhs.__getitem__):
        if len(comp) == 1:
            # an equation up to its own name: callees by block, itself as -1
            (var,) = comp
            key = frozenset((-1 if callee == var else block[callee], u)
                            for callee, u in system.rhs[var].items())
            b = equations.get(key)
            if b is not None:
                block[var] = b
                eta[var] = etas[b]
                continue
            equations[key] = len(etas)
        members = sorted(comp, key=rank.__getitem__)
        inside = set(members)
        solved: dict = {}
        for i, var in enumerate(members):
            form = _LinForm({}, domain.mix_bottom())
            for callee, u in system.rhs[var].items():
                if callee in inside:
                    form.coeffs[callee] = u
                else:
                    form.const = domain.mix_join(
                        form.const, domain.fin_mix_concat(u, eta[callee])
                    )
            for prev in members[:i]:
                form = substitute(form, prev, solved[prev])
            self_coeff = form.coeffs.pop(var, None)
            if self_coeff is not None and not domain.fin_is_bottom(self_coeff):
                star = domain.star(self_coeff)
                form.coeffs = dict_scale(star, form.coeffs, domain.fin_concat)
                form.const = domain.mix_join(
                    domain.fin_mix_concat(star, form.const),
                    domain.omega(self_coeff),
                )
            solved[var] = form

        for var in reversed(members):
            form = solved[var]
            for later, u in sorted(form.coeffs.items(),
                                   key=lambda kv: Sig.sort_key(kv[0])):
                form.const = domain.mix_join(
                    form.const, domain.fin_mix_concat(u, eta[later])
                )
            eta[var] = form.const
            block[var] = len(etas)
            etas.append(form.const)

    return {var: eta[var] for var in system.sigs}
