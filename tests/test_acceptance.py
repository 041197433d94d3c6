"""The package's advertised guarantees, one test per guarantee.

Every expected value here was produced by an independent route before being
frozen: brute-force path enumeration for profiles, NFA/Büchi-product word
and lasso membership for languages, hand analysis for the taint corpus, the
reference interpreter for the soundness sweep.  Each test finishes by
printing one bracketed verdict line with its runtime; the time budgets are
part of the contract and are asserted, not just reported.

Run with ``pytest -v`` for the per-guarantee pass/fail lines, ``-s`` to see
the verdict lines of passing tests too.
"""

from __future__ import annotations

import random
import time

from conftest import (
    all_words,
    fixture,
    gamma_nfa,
    load_domain,
    own_language,
    random_automaton,
    read_fixture,
)
import corpus as soundness_corpus
import taint_corpus
from language_oracle import (
    OracleDomain,
    bounded_equiv as lang_bounded_equiv,
    lang_concat_fin,
    lang_omega,
)
from nfa import Nfa, nfa_concat, nfa_star, nfa_union
from nfa_reading import NfaReading
from nfa_words import nfa_of_words
from region_satisfaction import heap_satisfies, value_satisfies
from solver_reference import naive_gfp, verify_fixpoint
from toydomain import APLUS, EMPTY, ToyDomain, ToyMix

from guidecheck.cli import analyze
from guidecheck.fjast import (
    OBJECT,
    Call,
    ClassDecl,
    Emit,
    If,
    Let,
    MethodDecl,
    New,
    Param,
    Program,
)
from guidecheck.fjparser import parse_program
from guidecheck.fjtypes import fj_typecheck
from guidecheck.guideline import GuidelineAutomaton, load_guideline
from guidecheck.inference import check_well_typed, infer
from guidecheck.interp import (
    OutOfFuel,
    Terminated,
    Thrown,
    enumerate_traces,
)
from guidecheck.intrinsics import load_config, parse_config
from guidecheck.regions import NULL_REGION, UNKNOWN, Sig, created_at, region_meta
from guidecheck.solver import EquationSystem, solve

A = ("a",)


def _done(tag: str, t0: float, limit: float | None) -> None:
    elapsed = time.perf_counter() - t0
    if limit is not None:
        assert elapsed < limit, f"[{tag}] took {elapsed:.2f}s, budget {limit}s"
        print(f"[{tag}] pass in {elapsed:.2f}s (budget {limit}s)")
    else:
        print(f"[{tag}] pass in {elapsed:.2f}s")


def _pipeline(prog: Program, g: GuidelineAutomaton, specs=None):
    """infer + re-check + solve; returns (domain, table, eta)."""
    assert fj_typecheck(prog) == []
    dom = load_domain(g)
    meta = region_meta(prog)
    table = infer(prog, dom, intrinsics=specs or {}, meta=meta)
    assert check_well_typed(prog, table, dom, specs or {}, meta) == []
    eta = solve(EquationSystem.from_table(table, dom), dom)
    return dom, table, eta


# -- 1. the linked-list traversal table, region by region -----------------------


def test_list_traversal_effect_table_is_exact():
    t0 = time.perf_counter()
    prog = parse_program(read_fixture("list_last.fj"), "list_last.fj")
    gl = load_guideline(fixture("parity.gl"))
    dom, table, eta = _pipeline(prog, gl)
    l1, l2, l3 = created_at("l1"), created_at("l2"), created_at("l3")

    def live_t(recv):
        t = table.mtable[Sig("Node", recv, "last", ())][0]
        return {r: u for r, u in t.items() if not dom.fin_is_bottom(u)}

    # last on the final node: exactly one a, result stays on that node
    t1 = live_t(l1)
    assert set(t1) == {l1}
    assert dom.member_fin(A, t1[l1])
    assert not dom.member_fin((), t1[l1])
    assert not dom.member_fin(A * 2, t1[l1])

    # last on the head: one a if the chain ends here, two if it hops to l1
    t2 = live_t(l2)
    assert set(t2) == {l1, l2}
    assert dom.member_fin(A * 2, t2[l1])
    assert not dom.member_fin(A, t2[l1])
    assert not dom.member_fin(A * 3, t2[l1])
    assert not dom.member_fin((), t2[l1])
    assert dom.member_fin(A, t2[l2])
    assert not dom.member_fin((), t2[l2])
    assert not dom.member_fin(A * 2, t2[l2])

    # last on the self-looping node: one a per hop, never zero
    t3 = live_t(l3)
    assert set(t3) == {l3}
    for n in (1, 2, 3):
        assert dom.member_fin(A * n, t3[l3])
    assert not dom.member_fin((), t3[l3])

    # divergence: the cycle spins a^w; the straight chain cannot diverge
    cyc = eta[Sig("Builder", UNKNOWN, "cyclic", ())]
    assert dom.member_up(A, A, cyc)
    assert dom.member_up((), A, cyc)
    for n in range(5):
        assert not dom.member_fin(A * n, cyc.fin)
    assert dom.mix_is_bottom(eta[Sig("Builder", UNKNOWN, "linear", ())])
    _done("list-traversal-table", t0, 1.0)


# -- 2. branch-correlated composition stays exact --------------------------------


def test_branch_correlated_effects_compose_exactly():
    t0 = time.perf_counter()
    # x is an A from l1 or a B from l2; both calls then go through x, so the
    # two emissions agree letter-for-letter: {aa, bb}, never ab or ba.
    gl = GuidelineAutomaton(
        ("a", "b"),
        ["q0", "qa", "qb", "qf"],
        ["q0"],
        ["qf"],
        [("q0", "a", "qa"), ("qa", "a", "qf"),
         ("q0", "b", "qb"), ("qb", "b", "qf")],
    )
    body = Let(
        "x", "A",
        If("p", "q", New("A", "l1"), New("B", "l2")),
        Let("y", None,
            Call("x", "A", "f", ()),
            Call("x", "A", "f", ())),
    )
    prog = Program([
        ClassDecl("A", OBJECT, (), (
            MethodDecl(OBJECT, "f", (), Emit("a")),
        )),
        ClassDecl("B", "A", (), (
            MethodDecl(OBJECT, "f", (), Emit("b")),
        )),
        ClassDecl("Driver", OBJECT, (), (
            MethodDecl(OBJECT, "run",
                       (Param(OBJECT, "p"), Param(OBJECT, "q")), body),
        )),
    ])
    dom, table, _ = _pipeline(prog, gl)
    t = table.mtable[Sig("Driver", UNKNOWN, "run", (UNKNOWN, UNKNOWN))][0]
    live = {r: u for r, u in t.items() if not dom.fin_is_bottom(u)}
    assert set(live) == {NULL_REGION}
    u = live[NULL_REGION]
    assert dom.member_fin(("a", "a"), u)
    assert dom.member_fin(("b", "b"), u)
    assert not dom.member_fin(("a", "b"), u)
    assert not dom.member_fin(("b", "a"), u)
    assert not dom.member_fin(("a",), u)
    assert not dom.member_fin((), u)
    _done("correlated-branches", t0, 1.0)


# -- 3. receiver regions narrow dynamic dispatch ----------------------------------


def test_receiver_region_narrows_dispatch():
    t0 = time.perf_counter()
    gl = GuidelineAutomaton(
        ("a", "b"), ["q0", "qa", "qb"], ["q0"], ["qa", "qb"],
        [("q0", "a", "qa"), ("q0", "b", "qb")],
    )
    prog = parse_program(read_fixture("narrow.fj"), "narrow.fj")
    dom, table, eta = _pipeline(prog, gl)
    l1, l2 = created_at("l1"), created_at("l2")

    # only B objects live at l2, so a static-A call there can only emit b
    t_l2 = table.mtable[Sig("A", l2, "f", ())][0][NULL_REGION]
    assert dom.member_fin(("b",), t_l2)
    assert not dom.member_fin(("a",), t_l2)

    # an unknown receiver may be either class
    t_unk = table.mtable[Sig("A", UNKNOWN, "f", ())][0][NULL_REGION]
    assert dom.member_fin(("a",), t_unk)
    assert dom.member_fin(("b",), t_unk)

    # no B was ever allocated at l1: that row stays empty
    sig = Sig("B", l1, "f", ())
    t, h, s = table.mtable[sig]
    assert not t and not h and not s
    assert dom.mix_is_bottom(eta[sig])
    _done("region-narrowing", t0, 1.0)


# -- 4. the event loop end to end --------------------------------------------------


def test_serve_loop_end_to_end():
    t0 = time.perf_counter()
    prog = parse_program(read_fixture("serve.fj"), "serve.fj")
    safety = load_guideline(fixture("serve_safety.gl"))
    liveness = load_guideline(fixture("serve_liveness.gl"))
    cfg_s = load_config(fixture("serve.cfg"), safety.alphabet)

    # the infinitary verdict must actually have something to judge
    dom, _, eta = _pipeline(prog, safety, cfg_s)
    serve_eta = eta[Sig("Server", UNKNOWN, "serve", ())]
    assert not dom.mix_is_bottom(serve_eta)
    assert dom.accepts_mix(serve_eta)

    ok = analyze(prog, safety, intrinsics=cfg_s, fuel=6,
                 entries=["Server.serve"])
    assert ok.verdict == "pass"
    assert all(s.ok for s in ok.signatures)

    bad = analyze(prog, liveness, intrinsics=cfg_s, fuel=6,
                  entries=["Server.serve"])
    assert bad.verdict == "fail"
    assert any(not s.diverges_ok for s in bad.signatures)
    assert len(bad.counterexamples) == 1
    ce = bad.counterexamples[0]
    assert ce.kind == "divergence"
    assert ce.cycle == ("authcheck", "access")
    # the reported witness is a genuine violation of the Büchi condition
    assert not NfaReading(liveness).accepts_lasso(ce.trace, ce.cycle)
    # ... while the safety reading of the same lasso is fine
    assert NfaReading(safety).accepts_lasso(ce.trace, ce.cycle)
    _done("serve-end-to-end", t0, 2.0)


def test_serve_witness_at_fuel_ten_within_budget():
    # 3^10 runs at full fuel; the deepening search stops at the fuel-2 witness
    prog = parse_program(read_fixture("serve.fj"), "serve.fj")
    liveness = load_guideline(fixture("serve_liveness.gl"))
    cfg = load_config(fixture("serve.cfg"), liveness.alphabet)
    t0 = time.perf_counter()
    bad = analyze(prog, liveness, intrinsics=cfg, fuel=10,
                  entries=["Server.serve"])
    (ce,) = bad.counterexamples
    assert (ce.trace, ce.cycle, ce.fuel) == ((), ("authcheck", "access"), 2)
    _done("serve-fuel-10", t0, 1.0)


# -- 5. the algebra of effects, randomized ----------------------------------------


def _fin_words_equal(x: Nfa, y: Nfa, bound: int = 6) -> bool:
    return set(x.words(bound)) == set(y.words(bound))


def test_algebra_and_abstraction_law_battery():
    t0 = time.perf_counter()
    rng = random.Random(20260825)
    toy = ToyDomain()
    failures: list[str] = []

    def check(case: int, label: str, okay: bool) -> None:
        if not okay:
            failures.append(f"case {case}: {label}")

    for case in range(1000):
        g = random_automaton(rng)
        dom = load_domain(g)
        mon = dom.monoid
        sigma = g.alphabet
        pool = list(all_words(sigma, 3))

        def words():
            return [tuple(w) for w in
                    rng.sample(pool, rng.randint(0, min(4, len(pool))))]

        s1, s2, s3 = words(), words(), words()
        a, b, c = (dom.alpha_words(s) for s in (s1, s2, s3))
        eps = dom.alpha_word(())
        v = dom.mix_join(dom.omega(b), dom.fin_to_mix(c))
        w = dom.omega(dom.fin_join(a, c))

        # join-semilattice with monotone operations
        check(case, "join-commutes", dom.fin_eq(
            dom.fin_join(a, b), dom.fin_join(b, a)))
        check(case, "join-idempotent", dom.fin_eq(dom.fin_join(a, a), a))
        check(case, "concat-assoc", dom.fin_eq(
            dom.fin_concat(dom.fin_concat(a, b), c),
            dom.fin_concat(a, dom.fin_concat(b, c))))
        check(case, "unit", dom.fin_eq(dom.fin_concat(eps, a), a)
              and dom.fin_eq(dom.fin_concat(a, eps), a))
        check(case, "mix-assoc", dom.mix_eq(
            dom.fin_mix_concat(a, dom.fin_mix_concat(b, v)),
            dom.fin_mix_concat(dom.fin_concat(a, b), v)))
        check(case, "concat-mono", dom.fin_leq(
            dom.fin_concat(a, c), dom.fin_concat(dom.fin_join(a, b), c)))
        check(case, "omega-mono", dom.mix_leq(
            dom.omega(a), dom.omega(dom.fin_join(a, b))))
        check(case, "mix-join-mono", dom.mix_leq(v, dom.mix_join(v, w)))

        # alpha preserves joins; concatenation distributes over joins
        check(case, "alpha-join", dom.fin_eq(
            dom.alpha_words(s1 + s2), dom.fin_join(a, b)))
        check(case, "distrib-left", dom.fin_eq(
            dom.fin_concat(dom.fin_join(a, b), c),
            dom.fin_join(dom.fin_concat(a, c), dom.fin_concat(b, c))))
        check(case, "distrib-right", dom.fin_eq(
            dom.fin_concat(c, dom.fin_join(a, b)),
            dom.fin_join(dom.fin_concat(c, a), dom.fin_concat(c, b))))
        check(case, "distrib-mix", dom.mix_eq(
            dom.fin_mix_concat(dom.fin_join(a, b), v),
            dom.mix_join(dom.fin_mix_concat(a, v), dom.fin_mix_concat(b, v))))
        check(case, "distrib-mix-arg", dom.mix_eq(
            dom.fin_mix_concat(a, dom.mix_join(v, w)),
            dom.mix_join(dom.fin_mix_concat(a, v), dom.fin_mix_concat(a, w))))

        # star and omega unfoldings; conjugation and power collapse
        check(case, "star-unfold", dom.fin_eq(
            dom.star(a), dom.fin_join(eps, dom.fin_concat(a, dom.star(a)))))
        check(case, "star-idem", dom.fin_eq(dom.star(dom.star(a)), dom.star(a)))
        check(case, "omega-unfold", dom.mix_eq(
            dom.omega(a), dom.fin_mix_concat(a, dom.omega(a))))
        check(case, "conjugation", dom.mix_eq(
            dom.fin_mix_concat(a, dom.omega(dom.fin_concat(b, a))),
            dom.omega(dom.fin_concat(a, b))))
        power = a
        for n in range(2, 5):
            power = dom.fin_concat(power, a)
            check(case, f"power-{n}", dom.mix_eq(dom.omega(power),
                                                 dom.omega(a)))

        # the abstraction is a homomorphism from the language side
        u1 = nfa_of_words(s1, sigma)
        u2 = nfa_of_words(s2, sigma)
        check(case, "alpha-agree", dom.fin_eq(dom.alpha_nfa(u1), a))
        check(case, "hom-union", dom.fin_eq(
            dom.alpha_nfa(nfa_union(u1, u2)), dom.fin_join(a, b)))
        check(case, "hom-concat", dom.fin_eq(
            dom.alpha_nfa(nfa_concat(u1, u2)), dom.fin_concat(a, b)))
        check(case, "hom-star", dom.fin_eq(
            dom.alpha_nfa(nfa_star(u1)), dom.star(a)))
        check(case, "hom-omega", dom.mix_eq(
            mon.alpha_lang(lang_omega(u1)), dom.omega(a)))
        check(case, "hom-concat-mix", dom.mix_eq(
            mon.alpha_lang(lang_concat_fin(u1, lang_omega(u2))),
            dom.fin_mix_concat(a, dom.omega(b))))

        # Galois insertion: alpha after gamma is the identity; gamma after
        # alpha only ever grows the language
        realized = gamma_nfa(mon, a, sigma)
        check(case, "galois-insert", dom.fin_eq(dom.alpha_nfa(realized), a))
        check(case, "gamma-grows", all(dom.member_fin(w, a) for w in s1))
        check(case, "omega-of-gamma", dom.mix_eq(
            mon.alpha_lang(lang_omega(realized)), dom.omega(a)))

        # the two-point toy instance obeys the same equations
        tf = [rng.choice("0 eps a+ a*".split()) for _ in range(3)]
        tm = ToyMix(rng.choice("0 eps a+ a*".split()), rng.random() < 0.5)
        check(case, "toy-assoc", toy.fin_eq(
            toy.fin_concat(toy.fin_concat(tf[0], tf[1]), tf[2]),
            toy.fin_concat(tf[0], toy.fin_concat(tf[1], tf[2]))))
        check(case, "toy-distrib", toy.fin_eq(
            toy.fin_concat(toy.fin_join(tf[0], tf[1]), tf[2]),
            toy.fin_join(toy.fin_concat(tf[0], tf[2]),
                         toy.fin_concat(tf[1], tf[2]))))
        check(case, "toy-omega-unfold", toy.mix_eq(
            toy.omega(tf[0]), toy.fin_mix_concat(tf[0], toy.omega(tf[0]))))
        check(case, "toy-conjugation", toy.mix_eq(
            toy.fin_mix_concat(tf[0], toy.omega(
                toy.fin_concat(tf[1], tf[0]))),
            toy.omega(toy.fin_concat(tf[0], tf[1]))))
        check(case, "toy-mix-assoc", toy.mix_eq(
            toy.fin_mix_concat(tf[0], toy.fin_mix_concat(tf[1], tm)),
            toy.fin_mix_concat(toy.fin_concat(tf[0], tf[1]), tm)))

        # the language instance, compared word-for-word up to a bound
        odom = OracleDomain(sigma)
        check(case, "lang-assoc", _fin_words_equal(
            odom.fin_concat(odom.fin_concat(u1, u2), u1),
            odom.fin_concat(u1, odom.fin_concat(u2, u1))))
        check(case, "lang-distrib", _fin_words_equal(
            odom.fin_concat(odom.fin_join(u1, u2), u1),
            odom.fin_join(odom.fin_concat(u1, u1),
                          odom.fin_concat(u2, u1))))
        check(case, "lang-star-unfold", _fin_words_equal(
            odom.star(u1),
            odom.fin_join(Nfa.epsilon(sigma),
                          odom.fin_concat(u1, odom.star(u1)))))
        if case % 25 == 0:
            # lasso probes cost seconds on full-size products, so this runs
            # on every 25th case with short-word operands and a small bound
            k1 = nfa_of_words([w[:2] for w in s1[:2]], sigma)
            k2 = nfa_of_words([w[:2] for w in s2[:2]], sigma)
            check(case, "lang-omega-unfold", lang_bounded_equiv(
                odom.omega(k1), odom.fin_mix_concat(k1, odom.omega(k1)),
                sigma, bound=3))
            check(case, "lang-conjugation", lang_bounded_equiv(
                odom.fin_mix_concat(k1, odom.omega(odom.fin_concat(k2, k1))),
                odom.omega(odom.fin_concat(k1, k2)), sigma, bound=3))

    assert not failures, (
        f"{len(failures)} law violations, first: {failures[:5]}")

    # faithfulness: abstract the automaton's own language, then read it back
    # word by word and lasso by lasso -- the two views must agree everywhere
    sample_rng = random.Random(20260826)
    sample = [random_automaton(sample_rng) for _ in range(25)]
    goldens = [
        load_guideline(fixture(name)) for name in (
            "parity.gl", "double_letter.gl", "first_letter.gl",
            "count_mod3.gl", "taint.gl",
            "serve_safety.gl", "serve_liveness.gl",
        )
    ]
    probes = 0
    for g in sample + goldens:
        mon = load_domain(g).monoid
        reading = NfaReading(g)
        abstracted = mon.alpha_lang(own_language(g))
        max_w = 8 if len(g.alphabet) <= 2 else 5
        for w in all_words(g.alphabet, max_w):
            assert mon.member_fin(w, abstracted.fin) == reading.accepts_finite(w), \
                f"finite {w} disagrees on {g.states}"
            probes += 1
        for u in all_words(g.alphabet, 5):
            for v in all_words(g.alphabet, 5, min_len=1):
                assert (mon.member_up_word(u, v, abstracted)
                        == reading.accepts_lasso(u, v)), \
                    f"lasso {u}/{v} disagrees on {g.states}"
                probes += 1
    assert probes > 50000
    _done("algebra-laws+faithfulness", t0, 60.0)


# -- 6. why the solver exists: omega-completion vs in-lattice descent -------------


def test_omega_completion_beats_naive_gfp():
    t0 = time.perf_counter()
    f = Sig("F", UNKNOWN, "f", ())

    # delta_f = alpha({a}) . delta_f over the profile domain: the closed form
    # produces exactly a^w -- no finite word sneaks in
    dom = load_domain("parity.gl")
    system = EquationSystem([f], {f: {f: dom.alpha_word(A)}})
    eta = solve(system, dom)
    assert verify_fixpoint(system, eta, dom)
    assert dom.member_up((), A, eta[f])
    assert dom.member_up(A, A, eta[f])
    for n in range(5):
        assert not dom.member_fin(A * n, eta[f].fin)

    # the same equation in the four-point toy lattice: descending from the
    # top inside the lattice gets stuck at a+ + a^w, one join too coarse
    toy = ToyDomain()
    tsys = EquationSystem([f], {f: {f: toy.alpha_word(A)}})
    exact = solve(tsys, toy)[f]
    iterated = naive_gfp(tsys, toy)[f]
    assert exact == ToyMix(EMPTY, True)  # just a^w
    assert iterated == ToyMix(APLUS, True)  # a+ or a^w
    assert verify_fixpoint(tsys, {f: exact}, toy)
    assert verify_fixpoint(tsys, {f: iterated}, toy)
    assert toy.mix_leq(exact, iterated) and exact != iterated
    _done("omega-vs-gfp", t0, None)


# -- 7. every interpreter run lands inside the inferred effects -------------------


def test_soundness_sweep_over_corpus():
    t0 = time.perf_counter()
    gl = load_guideline(fixture("count_mod3.gl"))
    violations: list[str] = []
    kinds_by_program: dict[str, set] = {}

    for name, (src, entry, fuel, cfg) in sorted(
            soundness_corpus.PROGRAMS.items()):
        prog = parse_program(src, f"{name}.fj", alphabet=gl.alphabet)
        specs = parse_config(cfg, gl.alphabet) if cfg else {}
        dom, table, eta = _pipeline(prog, gl, specs)
        meta = region_meta(prog)
        mon = dom.monoid
        cls, _, method = entry.partition(".")
        sig = Sig(cls, UNKNOWN, method, ())
        t, h, _s = table.mtable[sig]
        live_t = {r: u for r, u in t.items() if not dom.fin_is_bottom(u)}
        live_h = {r: u for r, u in h.items() if not dom.fin_is_bottom(u)}
        seen: set = set()

        for run in enumerate_traces(prog, entry, fuel, specs):
            assert run.stuck is None, f"{name}: stuck run {run.stuck}"
            out = run.outcome
            if isinstance(out, Terminated):
                seen.add("terminated")
                homes = [r for r, u in live_t.items()
                         if dom.member_fin(out.trace, u)
                         and value_satisfies(out.value, out.heap, r)]
                if not homes:
                    violations.append(
                        f"{name}: terminated trace {out.trace} has no "
                        f"T entry with a matching result region")
                if not heap_satisfies(out.heap, table.fields_at, prog, meta):
                    violations.append(f"{name}: final heap escapes the "
                                      f"field table")
            elif isinstance(out, Thrown):
                seen.add("thrown")
                homes = [r for r, u in live_h.items()
                         if dom.member_fin(out.trace, u)
                         and value_satisfies(out.location, out.heap, r)]
                if not homes:
                    violations.append(
                        f"{name}: thrown trace {out.trace} has no H entry "
                        f"with a matching exception region")
                if not heap_satisfies(out.heap, table.fields_at, prog, meta):
                    violations.append(f"{name}: heap at throw escapes the "
                                      f"field table")
            else:
                assert isinstance(out, OutOfFuel)
                seen.add("out-of-fuel")
                p = mon.profile_of_word(out.trace)
                fins = (list(live_t.values()) + list(live_h.values())
                        + [eta[sig].fin])
                if not mon.extendable_into(p, fins, [eta[sig]]):
                    violations.append(
                        f"{name}: fuel-stopped prefix {out.trace} extends "
                        f"into no inferred behaviour")
        kinds_by_program[name] = seen

    assert not violations, "\n".join(violations[:10])
    assert len(kinds_by_program) >= 20
    throwers = [n for n, ks in kinds_by_program.items() if "thrown" in ks]
    spinners = [n for n, ks in kinds_by_program.items() if "out-of-fuel" in ks]
    assert len(throwers) >= 5, throwers
    assert len(spinners) >= 5, spinners
    _done("soundness-sweep", t0, 60.0)


# -- 8. the solver's answer does not depend on how it got there -------------------


def _golden_systems():
    parity = load_guideline(fixture("parity.gl"))
    letters = GuidelineAutomaton(
        ("a", "b"), ["q0", "qa", "qb"], ["q0"], ["qa", "qb"],
        [("q0", "a", "qa"), ("q0", "b", "qb")],
    )
    safety = load_guideline(fixture("serve_safety.gl"))

    prog = parse_program(read_fixture("list_last.fj"), "list_last.fj")
    dom = load_domain(parity)
    table = infer(prog, dom, meta=region_meta(prog))
    yield "list", EquationSystem.from_table(table, dom), dom

    prog = parse_program(read_fixture("narrow.fj"), "narrow.fj")
    dom = load_domain(letters)
    table = infer(prog, dom, meta=region_meta(prog))
    yield "narrow", EquationSystem.from_table(table, dom), dom

    prog = parse_program(read_fixture("serve.fj"), "serve.fj")
    cfg = load_config(fixture("serve.cfg"), safety.alphabet)
    dom = load_domain(safety)
    table = infer(prog, dom, intrinsics=cfg, meta=region_meta(prog))
    yield "serve", EquationSystem.from_table(table, dom), dom

    dom = load_domain(parity)
    f = Sig("F", UNKNOWN, "f", ())
    yield "selfloop", EquationSystem([f], {f: {f: dom.alpha_word(A)}}), dom


def test_solver_is_order_invariant_and_exact():
    t0 = time.perf_counter()
    rng = random.Random(88)
    for name, system, dom in _golden_systems():
        reference = solve(system, dom)
        assert verify_fixpoint(system, reference, dom), name
        for trial in range(10):
            order = rng.sample(system.sigs, len(system.sigs))
            eta = solve(system, dom, order=order)
            for sig in system.sigs:
                assert dom.mix_eq(eta[sig], reference[sig]), \
                    f"{name}: {sig} differs under order {trial}"
    _done("solver-invariance", t0, 10.0)


# -- 9. hand-analyzed verdict corpus ----------------------------------------------
#
# Large third-party Java benchmark suites are out of scope: there is no
# bytecode frontend here, only the small object language.  The substitute
# contract is the rest of this file plus the twelve hand-verdict programs
# below, whose expected outcomes were fixed by reading the programs against
# the two-state taint automaton before the analyzer ever ran on them.


def test_taint_corpus_matches_hand_verdicts():
    t0 = time.perf_counter()
    gl = load_guideline(fixture("taint.gl"))
    got = {}
    for name, src in sorted(taint_corpus.PROGRAMS.items()):
        prog = parse_program(src, f"{name}.fj", alphabet=gl.alphabet)
        got[name] = analyze(prog, gl).verdict
    assert got == taint_corpus.EXPECTED
    assert len(got) == 12
    # the corpus is not one-sided, and the known false positive is in it
    assert sorted(taint_corpus.EXPECTED.values()).count("fail") == 5
    assert taint_corpus.EXPECTED["phase_confusion"] == "fail"
    _done("taint-verdicts", t0, None)
