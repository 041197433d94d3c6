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
edge folds straight into the constant: const ⊔= U·η(callee) (``form_of``).
Inside the component, variables are eliminated in the order of
``system.sigs``, for a table's system the canonical signature order:
rewrite the current equation with the earlier members' solved forms, split
off the self-coefficient A, and replace δ = A·δ ⊔ F by δ = A*·F ⊔ A^ω
(``close``), distributing A* over F's terms; a back-substitution pass over
the component then folds the later members' values into every constant.

The work is per block, not per signature.  Signatures that share a row
share one right-hand side object, so the components are first taken over
the distinct right-hand sides, an edge running to each callee's right-hand
side.  A cycle of signatures maps to a cycle there, so each of its
signatures is called from inside its component of right-hand sides.  Each
such component, callees first, is solved in two steps.  Its signatures
called from inside it are split into components, and each of those, of one
member or more, is eliminated, each member its own block.  Every other
holder of a right-hand side calls only solved signatures, so ``settle``
solves it by ``form_of`` alone, hash-consed: equations equal once each
callee is replaced by its block get one η, so the domain operators run once
per block; the work left per signature is a few built-in calls to group the
right-hand sides and to hand out η.  Called components are not hash-consed,
as two of them rarely have equal equations.  Inside a multi-member
component the elimination is quadratic in the size of that component.

The result is a fixpoint of the system, η(δ) = S(η)(δ) exactly, and the
elimination order does not affect it; η is equal (``==``) to what solving
each signature's equation alone gives, since equal equations over equal
callee values build equal values.  The reference computations the tests
check it against (one application S(η), greatest-fixpoint descent, the
solve of one equation per signature) are in ``tests/solver_reference.py``.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable

from .classtable import ClassTable, by_id, once_per_object
from .effexpr import dict_drop_bottom, dict_join, dict_scale


class EquationSystem:
    def __init__(self, sigs: list, rhs: dict):
        self.sigs = sigs  # variable order
        self.rhs = rhs  # Sig -> {Sig: fin element}

    @staticmethod
    def from_table(table: ClassTable, domain) -> "EquationSystem":
        """The equations of table's S-components, in the table's order, the
        canonical one.  Bottom entries are dropped once per distinct S dict:
        signatures that share a row share one right-hand side object, which
        nothing mutates."""
        drop = once_per_object(
            lambda s: dict_drop_bottom(s, domain.fin_is_bottom))
        rows = table.mtable.values()
        eq_of = {key: drop(row[2]) for key, row in by_id(rows).items()}
        # per signature, built-in calls only
        rhs = dict(zip(table.mtable, map(eq_of.__getitem__, map(id, rows))))
        return EquationSystem(list(rhs), rhs)


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


def solve(system: EquationSystem, domain) -> dict:
    """η of every signature, in ``system.sigs`` order, which is also the
    elimination order inside a component."""
    rhs = system.rhs
    rank = {var: i for i, var in enumerate(system.sigs)}

    # the block graph: a node per distinct right-hand side object, with an
    # edge to the right-hand side of each callee
    eqs = by_id(rhs.values())
    succ = {node: [id(rhs[callee]) for callee in eq]
            for node, eq in eqs.items()}
    holding = Counter(map(id, rhs.values()))  # node -> its holders' count

    etas: list = []  # the η of each block
    equations: dict = {}  # a settled equation's key -> its block
    node_block: dict = {}  # node -> the block of its holders not in sig_block
    sig_block: dict = {}  # a signature eliminated on its own -> its block

    def block_of(callee) -> int:
        b = sig_block.get(callee)
        return node_block[id(rhs[callee])] if b is None else b

    def form_of(eq: dict, inside) -> _LinForm:
        """eq with each callee outside inside folded into the constant by
        its block's η, the others kept as coefficients."""
        form = _LinForm({}, domain.mix_bottom())
        for callee, u in eq.items():
            if callee in inside:
                form.coeffs[callee] = u
            else:
                form.const = domain.mix_join(form.const, domain.fin_mix_concat(
                    u, etas[block_of(callee)]))
        return form

    def close(form: _LinForm, var) -> _LinForm:
        """form, δ = A·δ ⊔ F with A var's coefficient, as δ = A*·F ⊔ A^ω."""
        a = form.coeffs.pop(var, None)
        if a is not None and not domain.fin_is_bottom(a):
            star = domain.star(a)
            form.coeffs = dict_scale(star, form.coeffs, domain.fin_concat)
            form.const = domain.mix_join(
                domain.fin_mix_concat(star, form.const), domain.omega(a))
        return form

    def settle(eq: dict) -> int:
        """The block of the signatures holding eq that no member of their
        component calls: each calls only solved signatures, so equations
        equal up to their callees' blocks share one."""
        key = frozenset(zip(map(block_of, eq), eq.values()))
        b = equations.get(key)
        if b is None:
            b = equations[key] = len(etas)
            etas.append(form_of(eq, ()).const)
        return b

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

    def eliminate(members: list) -> None:
        """Solve one component of the signature graph, each member its own
        block."""
        inside = set(members)
        solved: dict = {}
        for i, var in enumerate(members):
            form = form_of(rhs[var], inside)
            for prev in members[:i]:
                form = substitute(form, prev, solved[prev])
            solved[var] = close(form, var)

        for var in reversed(members):
            form = solved[var]
            sig_block[var] = len(etas)
            etas.append(domain.mix_join(form.const,
                                        form_of(form.coeffs, ()).const))

    for comp in components(succ, succ.__getitem__):
        # a cycle of signatures maps to a cycle of nodes, so every signature
        # on one is called from inside its component: the called ones are
        # eliminated component by component, and the other holders of a
        # node, which call only solved signatures, are settled
        inside = set(comp)
        called = list(dict.fromkeys(
            callee for node in comp for callee in eqs[node]
            if id(rhs[callee]) in inside))
        for sub in components(called, lambda sig: [
                callee for callee in rhs[sig] if id(rhs[callee]) in inside]):
            eliminate(sorted(sub, key=rank.__getitem__))
        solved = Counter(id(rhs[sig]) for sig in called)
        for node in comp:
            if holding[node] > solved[node]:
                node_block[node] = settle(eqs[node])

    node_eta = {node: etas[b] for node, b in node_block.items()}
    eta = dict(zip(system.sigs, map(node_eta.get, map(
        id, map(rhs.__getitem__, system.sigs)))))
    eta.update((sig, etas[b]) for sig, b in sig_block.items())
    return eta
