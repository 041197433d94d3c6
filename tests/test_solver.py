"""Closed-form solution of the divergence equations.

The hand-checkable systems here are small enough to solve on paper: one- and
two-variable right-hand sides, and a call cycle that leaves for a self-loop.
A long call chain checks that splitting into components needs no recursion.
Solving one equation per block gives η equal (``==``) to solving each
signature's equation on its own, on every whole program the tests analyze.
The acceptance suite stresses order invariance and η = S(η) on the inferred
systems of whole programs.
"""

import random

import pytest

from canonical_forms import CanonicalDomain
from conftest import load_domain
from language_oracle import OracleDomain
from reference_cases import entry_points, ladder, reference_cases
from solver_reference import (
    apply_system,
    approx_eta,
    naive_gfp,
    solve_per_signature,
    verify_fixpoint,
)
from toydomain import APLUS, EMPTY, ToyDomain, ToyMix
from guidecheck.fjparser import parse_program
from guidecheck.guideline import parse_guideline
from guidecheck.inference import infer
from guidecheck.regions import UNKNOWN, Sig
from guidecheck.solver import EquationSystem, solve

PAR = load_domain(
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
    eta_fwd = solve(system, PAR)
    eta_bwd = solve(EquationSystem([D2, D1], system.rhs), PAR)
    for d in (D1, D2):
        assert PAR.mix_eq(eta_fwd[d], eta_bwd[d])
    assert verify_fixpoint(system, eta_fwd, PAR)


# b only at an a-count divisible by three, then b forever
GATE = load_domain(
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
        shuffled = solve(
            EquationSystem(rng.sample(system.sigs, 5), system.rhs), GATE)
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


def test_equations_share_a_block_only_when_equal():
    """D1 and D2 call the same silent loop after prefixes of different
    parity, so they differ; D4 loops silently on itself as D3 does, so
    they are equal, though each is a called component eliminated into a
    block of its own."""
    eps = PAR.alpha_word(())
    a = PAR.alpha_word(("a",))
    aa = PAR.alpha_word(("a", "a"))
    d1, d2, d3, d4 = (sig(f"D{i}") for i in range(1, 5))
    system = EquationSystem([d1, d2, d3, d4], {
        d1: {d3: a}, d2: {d3: aa}, d3: {d3: eps}, d4: {d4: eps}})
    eta = solve(system, PAR)
    assert eta == solve_per_signature(system, PAR)
    assert eta[d1] != eta[d2]
    assert eta[d3] == eta[d4]
    assert verify_fixpoint(system, eta, PAR)


class _CountingConcat:
    """A domain that counts its ``fin_mix_concat`` calls and forwards every
    other name."""

    def __init__(self, domain):
        self.domain = domain
        self.concats = 0

    def __getattr__(self, name):
        return getattr(self.domain, name)

    def fin_mix_concat(self, u, m):
        self.concats += 1
        return self.domain.fin_mix_concat(u, m)


def test_uncalled_equal_equations_share_a_block():
    """D1 and D2 hold distinct but equal right-hand sides over D3, a
    self-loop solved before them, and nothing calls them: they are settled
    into one block, so they get one η and the domain concatenates once
    for both."""
    a = PAR.alpha_word(("a",))
    d1, d2, d3 = (sig(f"D{i}") for i in range(1, 4))
    system = EquationSystem([d1, d2, d3], {
        d1: {d3: a}, d2: {d3: a}, d3: {d3: a}})
    assert system.rhs[d1] is not system.rhs[d2]
    counting = _CountingConcat(PAR)
    eta = solve(system, counting)
    assert eta == solve_per_signature(system, PAR)
    assert eta[d1] is eta[d2]
    # one concatenation closes D3's self-loop, one settles D1 and D2
    assert counting.concats == 2


def test_shared_right_hand_sides_on_cycles_solve_as_each_signature_alone():
    """Right-hand side objects are shared, as rows are.  D1 and D2 hold
    one, D3 and D4 another: D1 and D3 call each other, so the objects form
    a cycle, and D2 and D4 call into it from off it.  D5 and D6 share
    {D5: a}, so D5 loops on itself and D6 only calls it.  D7 calls the
    off-cycle holders.  Every order of the system gives the η of the
    per-signature solve under that order."""
    a = PAR.alpha_word(("a",))
    aa = PAR.alpha_word(("a", "a"))
    d = [sig(f"D{i}") for i in range(8)]
    to_d3 = {d[3]: a}
    to_d1 = {d[1]: aa, d[5]: a}
    self_loop = {d[5]: a}
    rhs = {d[0]: {}, d[1]: to_d3, d[2]: to_d3, d[3]: to_d1, d[4]: to_d1,
           d[5]: self_loop, d[6]: self_loop,
           d[7]: {d[2]: a, d[4]: a, d[6]: aa}}
    system = EquationSystem(d, rhs)
    eta = solve(system, PAR)
    assert eta == solve_per_signature(system, PAR)
    assert verify_fixpoint(system, eta, PAR)
    assert list(eta) == d
    rng = random.Random(5)
    for _ in range(10):
        shuffled = EquationSystem(rng.sample(d, len(d)), rhs)
        assert solve(shuffled, PAR) == solve_per_signature(shuffled, PAR)


def _inferred_systems(demand_driven):
    """(name, equation system, domain) of every reference case and of two
    wide ladders, each entry point on its own when demand_driven."""
    cases = list(reference_cases(CanonicalDomain))
    for nodes, tags in ((2, 6), (3, 2)):
        cases.append((f"ladder({nodes}, {tags})",
                      parse_program(ladder(nodes, tags)), PAR, {}))
    for name, prog, d, specs in cases:
        for entries in ([[e] for e in entry_points(prog)] if demand_driven
                        else [None]):
            table = infer(prog, d, intrinsics=specs, entries=entries)
            yield (name, entries), EquationSystem.from_table(table, d), d


@pytest.mark.parametrize("demand_driven", [False, True],
                         ids=["full", "demand-driven"])
def test_solve_per_block_equals_the_per_signature_solve(demand_driven):
    systems = 0
    for what, system, d in _inferred_systems(demand_driven):
        eta = solve(system, d)
        assert eta == solve_per_signature(system, d), what
        assert verify_fixpoint(system, eta, d), what
        systems += 1
    assert systems >= (48 if not demand_driven else 89)


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
