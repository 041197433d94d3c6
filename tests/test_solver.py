"""Closed-form solution of the divergence equations.

The hand-checkable systems here are small enough to solve on paper: one- and
two-variable right-hand sides, and a call cycle that leaves for a self-loop.
A long call chain checks that splitting into components needs no recursion.
The acceptance suite stresses order invariance and η = S(η) on the inferred
systems of whole programs.
"""

import random

import pytest

from solver_reference import apply_system, approx_eta, naive_gfp, verify_fixpoint
from guidecheck.domains import OracleDomain, ProfileDomain
from guidecheck.fjparser import parse_program
from guidecheck.guideline import parse_guideline
from guidecheck.inference import infer
from guidecheck.regions import UNKNOWN, Sig
from guidecheck.solver import EquationSystem, solve
from guidecheck.toydomain import APLUS, EMPTY, ToyDomain, ToyMix

PAR = ProfileDomain(
    parse_guideline(
        "alphabet: a\nstates: even odd\ninitial: even\naccepting: odd\n"
        "trans: even a odd\ntrans: odd a even\n"
    )
)


def sig(name):
    return Sig(name, UNKNOWN, "m", ())


D1, D2 = sig("A"), sig("B")


def test_self_loop_solves_to_omega():
    a = PAR.alpha_word(("a",))
    system = EquationSystem([D1], {D1: {D1: a}})
    eta = solve(system, PAR)
    assert PAR.mix_eq(eta[D1], PAR.omega(a))
    assert PAR.member_up([], ["a"], eta[D1])
    assert not PAR.member_fin([], eta[D1].fin)
    assert verify_fixpoint(system, eta, PAR)


def test_dead_chain_solves_to_bottom():
    a = PAR.alpha_word(("a",))
    system = EquationSystem([D1, D2], {D1: {D2: a}, D2: {}})
    eta = solve(system, PAR)
    assert PAR.mix_is_bottom(eta[D2])
    assert PAR.mix_is_bottom(eta[D1])
    assert verify_fixpoint(system, eta, PAR)


def test_mutual_recursion_threads_the_prefix():
    a = PAR.alpha_word(("a",))
    system = EquationSystem([D1, D2], {D1: {D2: a}, D2: {D1: a}})
    eta = solve(system, PAR)
    # both unroll to a^ω
    for d in (D1, D2):
        assert PAR.member_up([], ["a"], eta[d])
        assert PAR.mix_eq(eta[d], PAR.omega(a))
    assert verify_fixpoint(system, eta, PAR)


def test_silent_self_loop_leaves_a_finite_trace():
    eps = PAR.alpha_word(())
    system = EquationSystem([D1], {D1: {D1: eps}})
    eta = solve(system, PAR)
    assert PAR.member_fin([], eta[D1].fin)
    assert not eta[D1].inf  # no event is ever emitted, so no infinite word
    assert verify_fixpoint(system, eta, PAR)


def test_elimination_order_does_not_matter_here():
    a = PAR.alpha_word(("a",))
    aa = PAR.alpha_word(("a", "a"))
    system = EquationSystem(
        [D1, D2], {D1: {D1: aa, D2: a}, D2: {D2: aa}}
    )
    eta_fwd = solve(system, PAR, order=[D1, D2])
    eta_bwd = solve(system, PAR, order=[D2, D1])
    for d in (D1, D2):
        assert PAR.mix_eq(eta_fwd[d], eta_bwd[d])
    assert verify_fixpoint(system, eta_fwd, PAR)


def test_order_must_be_a_permutation():
    system = EquationSystem([D1, D2], {D1: {}, D2: {}})
    with pytest.raises(ValueError, match="permutation"):
        solve(system, PAR, order=[D1])
    with pytest.raises(ValueError, match="permutation"):
        solve(system, PAR, order=[D1, D1])


# b only at an a-count divisible by three, then b forever
GATE = ProfileDomain(
    parse_guideline(
        "alphabet: a b\nstates: c0 c1 c2 t\ninitial: c0\naccepting: t\n"
        "trans: c0 a c1\ntrans: c1 a c2\ntrans: c2 a c0\n"
        "trans: c0 b t\ntrans: t b t\n"
    )
)


def test_cycle_calling_a_self_loop_matches_the_hand_solution():
    # M → A → B → C → A is a 3-cycle entered from M; C also leaves it for L,
    # a self-loop component of its own.
    a, b = GATE.alpha_word(("a",)), GATE.alpha_word(("b",))
    m, x, y, z, loop = (sig(n) for n in ("M", "A", "B", "C", "L"))
    system = EquationSystem(
        [m, x, y, z, loop],
        {m: {x: a}, x: {y: a}, y: {z: a}, z: {x: a, loop: b}, loop: {loop: b}},
    )
    eta = solve(system, GATE)

    # by hand: L = b^ω, C = (aaa)^ω ⊔ (aaa)*·b·b^ω, B = a·C, A = aa·C, M = aaa·C
    aaa = GATE.alpha_word(("a", "a", "a"))
    hand_c = GATE.mix_join(
        GATE.omega(aaa),
        GATE.fin_mix_concat(GATE.fin_concat(GATE.star(aaa), b), GATE.omega(b)),
    )
    hand = {
        loop: GATE.omega(b),
        z: hand_c,
        y: GATE.fin_mix_concat(a, hand_c),
        x: GATE.fin_mix_concat(GATE.alpha_word(("a", "a")), hand_c),
        m: GATE.fin_mix_concat(aaa, hand_c),
    }
    for d in system.sigs:
        assert GATE.mix_eq(eta[d], hand[d]), d
        assert not eta[d].fin  # every path recurses forever
    assert GATE.member_up([], ["a", "a", "a"], eta[z])
    assert GATE.member_up(["a", "a", "a", "b"], ["b"], eta[z])
    assert not GATE.member_up(["a", "b"], ["b"], eta[z])
    assert GATE.member_up(["a", "a", "a", "b"], ["b"], eta[m])
    assert not GATE.member_up(["b"], ["b"], eta[m])
    assert verify_fixpoint(system, eta, GATE)

    rng = random.Random(7)
    for _ in range(20):
        shuffled = solve(system, GATE, order=rng.sample(system.sigs, 5))
        for d in system.sigs:
            assert GATE.mix_eq(shuffled[d], eta[d]), d


def test_long_call_chain_solves_without_recursion():
    n = 5000
    a = PAR.alpha_word(("a",))
    chain = [sig(f"C{i}") for i in range(n)]
    rhs = {chain[i]: {chain[i + 1]: a} for i in range(n - 1)}
    rhs[chain[-1]] = {chain[-1]: a}
    system = EquationSystem(chain, rhs)
    eta = solve(system, PAR)
    assert verify_fixpoint(system, eta, PAR)
    assert PAR.member_up([], ["a"], eta[chain[0]])
    assert not eta[chain[0]].fin


def test_apply_system_is_one_substitution():
    a = PAR.alpha_word(("a",))
    system = EquationSystem([D1, D2], {D1: {D2: a}, D2: {}})
    eta = {D1: PAR.mix_bottom(), D2: PAR.omega(a)}
    out = apply_system(system, eta, PAR)
    assert PAR.mix_eq(out[D1], PAR.fin_mix_concat(a, PAR.omega(a)))
    assert PAR.mix_is_bottom(out[D2])


def test_verify_fixpoint_rejects_tampering():
    a = PAR.alpha_word(("a",))
    system = EquationSystem([D1], {D1: {D1: a}})
    eta = solve(system, PAR)
    assert verify_fixpoint(system, eta, PAR)
    # the system is homogeneous, so bottom is also a fixpoint (the least one);
    # solve's added value is the ω part
    assert verify_fixpoint(system, {D1: PAR.mix_bottom()}, PAR)
    assert eta[D1].inf
    # but an arbitrary value is rejected
    assert not verify_fixpoint(system, {D1: PAR.mix_of_eps()}, PAR)
    assert not verify_fixpoint(system, {D1: PAR.omega(PAR.alpha_word(()))}, PAR)


def test_from_table_reads_the_callsite_component():
    prog = parse_program("class L { Object spin() { emit a; return this.spin(); } }")
    table = infer(prog, PAR)
    system = EquationSystem.from_table(table, PAR)
    me = Sig("L", UNKNOWN, "spin", ())
    assert system.rhs[me] == {me: PAR.alpha_word(("a",))}
    # unreachable receiver regions have empty right-hand sides
    null_recv = [s for s in system.sigs if s.recv.kind == "null"]
    assert null_recv and all(system.rhs[s] == {} for s in null_recv)
    eta = solve(system, PAR)
    assert PAR.member_up([], ["a"], eta[me])
    assert verify_fixpoint(system, eta, PAR)


# --- the executable reference ----------------------------------------------------


def test_approx_eta_descends_to_the_solution():
    d = OracleDomain(("a",))
    a = d.alpha_word(("a",))
    system = EquationSystem([D1], {D1: {D1: a}})
    res = approx_eta(system, d, cap=16, bound=4)
    assert res.stabilized
    assert res.describe() == f"chain stabilized at iteration {res.stabilized_at}"
    final = res.etas[-1][D1]
    # after stabilization nothing of length ≤ 4 remains but the a-lasso
    assert d.member_up([], ["a"], final)
    assert not d.member_fin([], final.fin) and not d.member_fin(["a"], final.fin)


def test_approx_eta_reports_nontermination_within_cap():
    d = OracleDomain(("a",))
    a = d.alpha_word(("a",))
    system = EquationSystem([D1], {D1: {D1: a}})
    res = approx_eta(system, d, cap=2, bound=6)
    assert not res.stabilized
    assert "did not stabilize" in res.describe()
    assert len(res.etas) == 3  # η₀ plus the two computed iterates


def test_naive_gfp_overshoots_where_solve_is_exact():
    toy = ToyDomain()
    system = EquationSystem([D1], {D1: {D1: APLUS}})
    exact = solve(system, toy)[D1]
    iterated = naive_gfp(system, toy)[D1]
    assert exact == ToyMix(EMPTY, True)  # a^ω alone
    assert iterated == ToyMix(APLUS, True)  # a⁺ ∪ a^ω: the in-lattice gfp
    assert toy.mix_leq(exact, iterated) and not toy.mix_eq(exact, iterated)
    # both really are fixpoints of the abstract equation
    assert verify_fixpoint(system, {D1: exact}, toy)
    assert verify_fixpoint(system, {D1: iterated}, toy)


def test_naive_gfp_cap():
    toy = ToyDomain()
    system = EquationSystem([D1], {D1: {D1: APLUS}})
    with pytest.raises(RuntimeError, match="converge"):
        naive_gfp(system, toy, cap=1)
