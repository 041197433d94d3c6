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
back-substitution pass over the component then closes every form.  The
work is linear in the size of the call graph plus the elimination inside
each component, which is quadratic only in the size of that component.
The result is a fixpoint of the system, η(δ) = S(η)(δ) exactly, and the
elimination order does not affect it.  The reference computations the
tests check it against (one application S(η), greatest-fixpoint descent)
are in ``tests/solver_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .classtable import ClassTable
from .effexpr import dict_drop_bottom, dict_join, dict_scale
from .regions import Sig


@dataclass
class EquationSystem:
    sigs: list  # canonical variable order
    rhs: dict  # Sig -> {Sig: fin element}

    @staticmethod
    def from_table(table: ClassTable, domain) -> "EquationSystem":
        sigs = sorted(table.mtable, key=Sig.sort_key)
        rhs = {
            sig: dict_drop_bottom(dict(table.mtable[sig][2]),
                                  domain.fin_is_bottom)
            for sig in sigs
        }
        return EquationSystem(sigs, rhs)


@dataclass
class _LinForm:
    coeffs: dict  # Sig -> fin element
    const: object  # mix element


def _components(system: EquationSystem) -> list:
    """Strongly connected components of the call graph, each callee's
    component before its callers' (Tarjan 1972).  Iterative, so a long call
    chain cannot exhaust the Python stack."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    out: list = []
    for root in system.sigs:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(system.rhs[root]))]
        while work:
            var, callees = work[-1]
            for callee in callees:
                if callee not in index:
                    index[callee] = low[callee] = len(index)
                    stack.append(callee)
                    on_stack.add(callee)
                    work.append((callee, iter(system.rhs[callee])))
                    break
                if callee in on_stack:
                    low[var] = min(low[var], index[callee])
            else:
                work.pop()
                if work:
                    caller = work[-1][0]
                    low[caller] = min(low[caller], low[var])
                if low[var] == index[var]:
                    comp = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        comp.append(member)
                        if member == var:
                            break
                    out.append(comp)
    return out


def solve(system: EquationSystem, domain, order: Sequence | None = None) -> dict:
    order = list(order) if order is not None else list(system.sigs)
    if sorted(order, key=Sig.sort_key) != sorted(system.sigs, key=Sig.sort_key):
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

    for comp in _components(system):
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

    return {var: eta[var] for var in system.sigs}
