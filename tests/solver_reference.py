"""Reference computations the solver is checked against.

``apply_system`` is one application S(η) of the divergence equations, and
``verify_fixpoint`` checks η(δ) = S(η)(δ) exactly.  ``solve_per_signature``
is the solver before it worked per block: it eliminates every signature's
equation on its own, and the tests check that ``solve`` gives an equal η.

``approx_eta`` is the executable reference: descend from the top element
(all finite and infinite words) by iterating the system inside a concrete
language domain, comparing successive iterates up to a length bound.  It
reports the index at which the chain stabilizes, or that it did not within
the cap.  ``naive_gfp`` does the same descent inside a finite abstract
domain with exact equality; the contrast between its answer and ``solve``'s
on self-loops is the reason the solver exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from guidecheck.effexpr import dict_join, dict_scale
from guidecheck.regions import Sig
from guidecheck.solver import EquationSystem, _LinForm, components


def apply_system(system: EquationSystem, eta: dict, domain) -> dict:
    """One application of the equations: S(η)."""
    out = {}
    for sig in system.sigs:
        acc = domain.mix_bottom()
        for callee, u in sorted(system.rhs[sig].items(),
                                key=lambda kv: Sig.sort_key(kv[0])):
            acc = domain.mix_join(acc, domain.fin_mix_concat(u, eta[callee]))
        out[sig] = acc
    return out


def verify_fixpoint(system: EquationSystem, eta: dict, domain) -> bool:
    applied = apply_system(system, eta, domain)
    return all(domain.mix_eq(eta[sig], applied[sig]) for sig in system.sigs)


@dataclass
class ApproxResult:
    etas: list  # η₀, η₁, ... as computed
    stabilized_at: int | None  # least n with ηₙ ≈ ηₙ₊₁, None if cap exceeded

    @property
    def stabilized(self) -> bool:
        return self.stabilized_at is not None

    def describe(self) -> str:
        if self.stabilized_at is None:
            return (f"chain did not stabilize within {len(self.etas) - 1} "
                    f"iterations")
        return f"chain stabilized at iteration {self.stabilized_at}"


def approx_eta(system: EquationSystem, domain, cap: int = 16,
               bound: int = 6) -> ApproxResult:
    """Iterate from the top element; compare successive iterates on all words
    and lassos up to the bound.  The comparison is bounded, not exact, so the
    result is a reference measurement, not a proof."""
    eta = {sig: domain.mix_top() for sig in system.sigs}
    etas = [eta]
    for n in range(cap):
        nxt = apply_system(system, eta, domain)
        etas.append(nxt)
        if all(domain.bounded_equiv(eta[sig], nxt[sig], bound)
               for sig in system.sigs):
            return ApproxResult(etas, n)
        eta = nxt
    return ApproxResult(etas, None)


def naive_gfp(system: EquationSystem, domain, cap: int = 1000) -> dict:
    """Greatest-fixpoint iteration inside a finite domain with exact equality
    and a top element.  Converges by finiteness; the cap guards bugs."""
    eta = {sig: domain.mix_top() for sig in system.sigs}
    for _ in range(cap):
        nxt = apply_system(system, eta, domain)
        if all(domain.mix_eq(eta[sig], nxt[sig]) for sig in system.sigs):
            return nxt
        eta = nxt
    raise RuntimeError("gfp iteration failed to converge within its cap")


def solve_per_signature(system: EquationSystem, domain) -> dict:
    """The solve that ran every signature's equation on its own: the one
    ``guidecheck.solver.solve`` replaced by a solve per block, which must
    give an equal (``==``) η.  Like it, it eliminates a component's
    variables in ``system.sigs`` order."""
    rank = {var: i for i, var in enumerate(system.sigs)}
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

    for comp in components(system.sigs, system.rhs.__getitem__):
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
