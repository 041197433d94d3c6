"""Region-and-effect typing of method bodies, and the table fixpoint."""

import re
from collections import Counter

import pytest

import inference_reference
from inference_reference import infer_by_sweeps
from profile_reference import decode_mtable
from inference_reference import check_per_signature
from reference_cases import emit_runs, entry_points, ladder, reference_cases
from conftest import FIXTURES

from guidecheck import inference, profiles
from guidecheck.classtable import init_table
from guidecheck.domains import ProfileDomain
from guidecheck.effexpr import dict_scale
from guidecheck.fjparser import parse_program
from guidecheck.guideline import parse_guideline
from guidecheck.inference import (
    _Typing,
    bodied_sigs,
    catch_split,
    check_well_typed,
    infer,
    typeff,
)
from guidecheck.intrinsics import parse_config
from guidecheck.regions import NULL_REGION, UNKNOWN, Sig, created_at, region_meta

ONE_LETTER_GUIDELINE = (
    "alphabet: a\nstates: even odd\ninitial: even\naccepting: odd\n"
    "trans: even a odd\ntrans: odd a even\n"
)
ONE_LETTER = ProfileDomain(parse_guideline(ONE_LETTER_GUIDELINE))
TWO_LETTER = ProfileDomain(
    parse_guideline(
        "alphabet: a b\nstates: q\ninitial: q\naccepting: q\n"
        "trans: q a q\ntrans: q b q\n"
    )
)


def setup(src, domain=ONE_LETTER):
    prog = parse_program(src)
    meta = region_meta(prog)
    return prog, meta, init_table(prog, meta), domain


def body_of(prog, cls, idx=0):
    return prog.by_name[cls].methods[idx].body


def typeff_in(prog, meta, table, domain, gamma, e):
    """typeff in a fresh typing of prog against table."""
    return typeff(_Typing(prog, meta, table, domain), gamma, e)


# --- typeff, rule by rule ------------------------------------------------------


def test_typeff_leaves():
    prog, meta, table, d = setup("class M { M mk() { return new[s] M(); } }")
    eps = d.alpha_word(())
    at_s = created_at("s")

    git = typeff_in(prog, meta, table, d, {"x": at_s}, body_of(prog, "M"))
    assert git.t == {at_s: eps} and git.h == {} and git.s == {} and git.fupdates == []

    prog2, meta2, table2, _ = setup("class M { Object go() { return null; } }")
    eff = typeff_in(prog2, meta2, table2, d, {"this": UNKNOWN}, body_of(prog2, "M"))
    assert eff.t == {NULL_REGION: eps}


def test_typeff_emit_charges_the_null_result():
    prog, meta, table, d = setup("class M { Object go() { emit a; return null; } }")
    eff = typeff_in(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "M"))
    assert eff.t == {NULL_REGION: d.alpha_word(("a",))}


def test_typeff_let_concatenates_left_to_right():
    prog, meta, table, d = setup(
        "class M { Object go() { emit a; emit a; emit a; return null; } }"
    )
    eff = typeff_in(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "M"))
    assert eff.t == {NULL_REGION: d.alpha_word(("a", "a", "a"))}


def test_typeff_cast_is_effect_transparent():
    prog, meta, table, d = setup(
        "class M { Object go() { emit a; M x = (M) this; return x; } }"
    )
    eff = typeff_in(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "M"))
    assert eff.t == {UNKNOWN: d.alpha_word(("a",))}


def test_typeff_if_prunes_statically_disjoint_comparison():
    src = """
class M {
  M mk() { return new[s] M(); }
  Object go(M p, M q) { if (p == q) { emit a; } else { } return null; }
}
"""
    prog, meta, table, d = setup(src)
    body = body_of(prog, "M", 1)
    eps = d.alpha_word(())
    # Null vs @s can never alias: only the else branch contributes
    g = {"this": UNKNOWN, "p": NULL_REGION, "q": created_at("s")}
    eff = typeff_in(prog, meta, table, d, g, body)
    assert eff.t == {NULL_REGION: eps}
    # Unknown may alias anything: both branches contribute
    g2 = {"this": UNKNOWN, "p": UNKNOWN, "q": created_at("s")}
    eff2 = typeff_in(prog, meta, table, d, g2, body)
    assert eff2.t == {NULL_REGION: d.fin_join(eps, d.alpha_word(("a",)))}


def test_typeff_setfield_requests_a_table_update():
    prog, meta, table, d = setup(
        "class C { C f; C go() { C x = new[s] C(); x.f = x; return x; } }"
    )
    eff = typeff_in(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "C"))
    at_s = created_at("s")
    assert (("C", at_s, "f"), at_s) in eff.fupdates
    assert eff.t == {at_s: d.alpha_word(())}


def test_typeff_getfield_reads_the_field_table():
    prog, meta, table, d = setup(
        "class C { C f; C go() { C x = new[s] C(); C y = x.f; return y; } }"
    )
    at_s = created_at("s")
    table.ftable[("C", at_s, "f")] = frozenset({NULL_REGION, at_s})
    eff = typeff_in(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "C"))
    assert set(eff.t) == {NULL_REGION, at_s}


def test_typeff_throw_moves_value_effect_to_h():
    prog, meta, table, d = setup(
        "class E { } class M { Object go() { emit a; E e = new[es] E(); throw e; } }"
    )
    eff = typeff_in(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "M"))
    assert eff.t == {}
    assert eff.h == {created_at("es"): d.alpha_word(("a",))}


def test_typeff_catch_runs_handler_after_caught_prefix():
    src = """
class E { }
class M { Object go() {
    try { emit a; E e = new[es] E(); throw e; } catch (E x) { emit b; }
    return null;
} }
"""
    prog, meta, table, d = setup(src, TWO_LETTER)
    eff = typeff_in(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "M"))
    assert eff.h == {}  # E-in-@es is certainly caught
    assert eff.t == {NULL_REGION: d.alpha_word(("a", "b"))}


def test_typeff_unrelated_handler_leaves_h_alone():
    src = """
class E { } class F { }
class M { Object go() {
    try { emit a; E e = new[es] E(); throw e; } catch (F x) { emit b; }
    return null;
} }
"""
    prog, meta, table, d = setup(src, TWO_LETTER)
    eff = typeff_in(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "M"))
    assert eff.t == {}  # the try block never completes normally
    assert eff.h == {created_at("es"): d.alpha_word(("a",))}


def test_except_filter_keeps_unknown():
    prog = parse_program("class E { } class F extends E { } class G { }")
    meta = region_meta(prog)
    h = {UNKNOWN: "u", NULL_REGION: "n"}
    caught, escaped = catch_split(h, "E", prog, meta)
    assert escaped == {UNKNOWN: "u"}  # Unknown may hold a G, Null never throws
    assert caught == h  # Unknown may hold an E or an F; Null vacuously


# --- infer ----------------------------------------------------------------------


CALLER = """
class A { Object f() { emit a; return null; } }
class M { Object go() { A x = new[l] A(); Object y = x.f(); return y; } }
"""


def test_infer_call_pulls_callee_summary():
    prog = parse_program(CALLER)
    d = ONE_LETTER
    table = infer(prog, d)
    sig_go = Sig("M", UNKNOWN, "go", ())
    sig_f = Sig("A", created_at("l"), "f", ())
    assert table.mtable[sig_f][0] == {NULL_REGION: d.alpha_word(("a",))}
    assert table.mtable[sig_go][0] == {NULL_REGION: d.alpha_word(("a",))}
    # the call-site map records f at prefix ε
    assert table.mtable[sig_go][2] == {sig_f: d.alpha_word(())}
    assert check_well_typed(prog, table, d) == []


def test_infer_field_rows_absorb_into_unknown():
    prog = parse_program(
        "class C { C f; C go() { C x = new[s] C(); x.f = x; return x.f; } }"
    )
    table = infer(prog, ONE_LETTER)
    at_s = created_at("s")
    assert at_s in table.ftable[("C", at_s, "f")]
    assert NULL_REGION in table.ftable[("C", at_s, "f")]
    # the Unknown row covers every sited row
    assert table.ftable[("C", at_s, "f")] <= table.ftable[("C", UNKNOWN, "f")]


def test_infer_recursion_reaches_a_fixpoint():
    prog = parse_program(
        "class L { Object spin() { emit a; return this.spin(); } }"
    )
    d = ONE_LETTER
    table = infer(prog, d)
    sig = Sig("L", UNKNOWN, "spin", ())
    t = table.mtable[sig][0]
    # normal termination never happens; T stays empty, the callsite map grows
    assert t == {}
    assert Sig("L", UNKNOWN, "spin", ()) in table.mtable[sig][2]
    assert check_well_typed(prog, table, d) == []


def test_infer_demand_driven_leaves_unreached_sigs_at_bottom():
    prog = parse_program(
        """
class A { Object f() { emit a; return null; } }
class B { Object g() { emit a; emit a; return null; } }
class M { Object go() { A x = new[l] A(); return x.f(); } }
"""
    )
    d = ONE_LETTER
    table = infer(prog, d, entries=["M.go"])
    assert table.mtable[Sig("M", UNKNOWN, "go", ())][0] == {
        NULL_REGION: d.alpha_word(("a",))
    }
    assert table.mtable[Sig("B", UNKNOWN, "g", ())] == ({}, {}, {})


# f's returning effect grows round by round (the empty word, then a, then
# a a, ...), and each round re-types f against its own row, so the table
# needs more typings than one per body
GROWING = """
class L { Object f() {
    L z = null;
    if (this == z) { return null; } else { emit a; Object y = this.f(); return y; }
} }
"""


class _ReadHeights(ProfileDomain):
    """The profile domain with the heights inference reads taken from
    heights in turn, the last one repeated (None: the domain's own), and a
    count of the reads."""

    def __init__(self, guideline, heights):
        super().__init__(guideline)
        self.heights, self.asked = heights, 0

    def fin_height(self):
        h = self.heights[min(self.asked, len(self.heights) - 1)]
        self.asked += 1
        return super().fin_height() if h is None else h


def test_infer_raises_when_sweeps_exceed_the_cap():
    # a zero height lets each body of a program without fields be typed once
    prog = parse_program(GROWING)
    domain = _ReadHeights(parse_guideline(ONE_LETTER_GUIDELINE), [0])
    with pytest.raises(RuntimeError, match="converge within its cap"):
        infer(prog, domain)
    assert domain.asked == 2  # the height was read again before raising


def test_infer_reads_the_height_again_past_the_cap():
    prog = parse_program(GROWING)
    # a guideline of its own: the monoid it shares with the domain is fresh
    domain = _ReadHeights(parse_guideline(ONE_LETTER_GUIDELINE), [0, None])
    table = infer(prog, domain)
    assert domain.asked == 2
    fresh = ProfileDomain(parse_guideline(ONE_LETTER_GUIDELINE))
    assert decode_mtable(domain.monoid, table.mtable) == decode_mtable(
        fresh.monoid, infer(prog, fresh).mtable)


def test_infer_hits_the_monoid_cap_where_profiles_are_built(monkeypatch):
    # ε̂ and the letter fit under the cap; f's effect a a is one too many
    monkeypatch.setattr(profiles, "MONOID_CAP", 1)
    prog = parse_program(GROWING)
    domain = ProfileDomain(parse_guideline(ONE_LETTER_GUIDELINE))
    with pytest.raises(RuntimeError, match="profile monoid exceeded size cap"):
        infer(prog, domain)
    assert "elements" not in domain.monoid.__dict__


def _typings_of(monkeypatch):
    """Record the typings infer performs from here on."""
    return _count_typings(monkeypatch)


@pytest.mark.parametrize("first_short, second_short, raises, asked", [
    (0, 0, False, 1), (0, 1, False, 1), (1, 0, False, 2), (1, 1, True, 2),
    ("all", 0, False, 2), ("all", 1, True, 3),
])
def test_typing_cap_raises_exactly_past_the_reread_cap(
        monkeypatch, first_short, second_short, raises, asked):
    """With the cap equal to the height, infer reads the height again each
    time the count of typings passes the cap, and raises exactly when the
    typings GROWING needs pass the height read then.  Heights are given as
    typings short of what GROWING needs ("all": a height of zero)."""
    prog = parse_program(GROWING)
    typed = _typings_of(monkeypatch)
    infer(prog, ProfileDomain(parse_guideline(ONE_LETTER_GUIDELINE)))
    needed = len(typed)
    assert needed > 1  # f is re-typed as its own row grows
    monkeypatch.setattr(inference, "_typing_cap",
                        lambda table, meta, bodies, height: height)
    first = 0 if first_short == "all" else needed - first_short
    domain = _ReadHeights(parse_guideline(ONE_LETTER_GUIDELINE),
                          [first, needed - second_short])
    if raises:
        with pytest.raises(RuntimeError, match="converge within its cap"):
            infer(prog, domain)
    else:
        infer(prog, domain)
    assert domain.asked == asked


def test_typings_stay_within_the_cap_at_the_final_height(monkeypatch):
    """The count infer makes is within ``_typing_cap`` at the height its
    domain reaches by the end: the bound the re-read cap relies on."""
    cases = 0
    for name, prog, d, specs in reference_cases():
        typed = _typings_of(monkeypatch)
        table = infer(prog, d, intrinsics=specs)
        meta = region_meta(prog)
        groups = inference._typing_groups(
            bodied_sigs(table, prog, meta, specs), prog)
        assert len(typed) <= inference._typing_cap(
            table, meta, len(groups), d.fin_height()), name
        cases += 1
    assert cases >= 30


def test_intrinsics_seed_and_pin():
    prog = parse_program(
        """
class Net { Net poll() { return null; } }
class M { Object go() { Net n = new[k] Net(); Net c = n.poll(); return null; } }
"""
    )
    d = ONE_LETTER
    specs = parse_config("Net.poll() -> Unknown emits a\n", d.alphabet)
    table = infer(prog, d, intrinsics=specs)
    sig_poll = Sig("Net", created_at("k"), "poll", ())
    assert sig_poll in table.pinned
    assert table.mtable[sig_poll][0] == {UNKNOWN: d.alpha_word(("a",))}
    # the caller sees the stubbed effect, not the `return null` body
    assert table.mtable[Sig("M", UNKNOWN, "go", ())][0] == {
        NULL_REGION: d.alpha_word(("a",))
    }


def test_check_well_typed_catches_a_tampered_table():
    prog = parse_program(CALLER)
    d = ONE_LETTER
    table = infer(prog, d)
    sig_f = Sig("A", created_at("l"), "f", ())
    table.mtable[sig_f] = ({}, {}, {})
    offenses = check_well_typed(prog, table, d)
    assert offenses
    assert any("not covered" in str(o) for o in offenses)
    assert any(o.sig == sig_f and o.part == "T" for o in offenses)


# --- the worklist against the sweep it replaced ------------------------------------


def assert_same_tables(got, want, what):
    """The worklist's tables equal the sweep reference's, the field rows
    compared at every class, region and field, inherited ones included."""
    assert got.mtable == want.mtable, what
    assert {key: got.fields_at(*key) for key in want.ftable} == want.ftable, what
    assert got.analyzed == want.analyzed, what
    assert got.pinned == want.pinned, what


@pytest.mark.parametrize("demand_driven", [False, True],
                         ids=["full", "demand-driven"])
def test_worklist_matches_the_sweep_reference(demand_driven):
    runs = 0
    for name, prog, d, specs in reference_cases():
        for entries in ([[e] for e in entry_points(prog)] if demand_driven
                        else [None]):
            got = infer(prog, d, intrinsics=specs, entries=entries)
            want = infer_by_sweeps(prog, d, intrinsics=specs, entries=entries)
            assert_same_tables(got, want, (name, entries))
            runs += 1
    assert runs >= 46  # 25 soundness, 12 taint, 9 fixture pairings


def test_demand_driven_tables_are_contained_in_the_full_ones():
    """Only reachable bodies write fields, so a demand-driven run may see
    smaller field rows and, through them, smaller method rows; it never
    sees larger ones.  Each analyzed signature's row is below its full row
    entry by entry, each field row a subset of its full row, and some rows
    are strictly smaller (10 method and 22 field cases in 87 runs when
    this was written)."""
    runs = smaller_methods = smaller_fields = 0
    for name, prog, d, specs in reference_cases():
        full = infer(prog, d, intrinsics=specs)
        for entry in entry_points(prog):
            narrow = infer(prog, d, intrinsics=specs, entries=[entry])
            for sig in narrow.analyzed:
                for part, whole in zip(narrow.mtable[sig], full.mtable[sig]):
                    for key, value in part.items():
                        assert d.fin_leq(value, whole.get(key, profiles.FIN_BOTTOM)), (
                            name, entry, sig, key)
            smaller_methods += any(narrow.mtable[sig] != full.mtable[sig]
                                   for sig in narrow.analyzed)
            for key, regions in narrow.ftable.items():
                assert regions <= full.ftable[key], (name, entry, key)
            smaller_fields += narrow.ftable != full.ftable
            runs += 1
    assert runs >= 87
    assert smaller_methods > 0 and smaller_fields > 0


@pytest.mark.parametrize("demand_driven", [False, True],
                         ids=["full", "demand-driven"])
def test_keyed_rule_matches_the_per_region_rule(demand_driven):
    """Against infer's own table, every analyzed body typed once per
    reading gives exactly the effects of the per-region reference rule: the
    rows are raw ``==``, both rules building profiles in one domain."""
    bodies = 0
    for name, prog, d, specs in reference_cases():
        meta = region_meta(prog)
        for entries in ([[e] for e in entry_points(prog)] if demand_driven
                        else [None]):
            table = infer(prog, d, intrinsics=specs, entries=entries,
                          meta=meta)
            for sig in bodied_sigs(table, prog, meta, specs):
                if table.analyzed is not None and sig not in table.analyzed:
                    continue
                body, gamma = inference._body_env(sig, prog)
                got = typeff(_Typing(prog, meta, table, d), gamma, body)
                want = inference_reference.typeff(prog, meta, table, d,
                                                  gamma, body)
                assert got.triple() == want.triple(), (name, sig)
                assert set(got.fupdates) == set(want.fupdates), (name, sig)
                bodies += 1
    assert bodies >= 130


def _key_orders(mtable: dict) -> list:
    return [[list(part) for part in row] for row in mtable.values()]


# a spine whose bindings each may throw, from their own regions, and call
# their own methods, so the fold's key order shows in H and S
SPINE_THROWS = """
class Oops extends Object { }
class Main extends Object {
    Object f() { emit a; if (this == this) { throw new[t1] Oops(); }
                 else { return null; } }
    Object g() { emit b; if (this == this) { throw new[t2] Oops(); }
                 else { return null; } }
    Object k() { if (this == this) { throw new[t3] Oops(); }
                 else { return null; } }
    Object go() { Object x = this.g(); emit a; Object y = this.f();
                  emit b; Object w = this.k(); return this.go(); }
}
"""


def _fold_cases():
    yield from reference_cases()
    d = ProfileDomain(parse_guideline(
        "alphabet: a b\nstates: p q\ninitial: p\naccepting: q\n"
        "trans: p a q\ntrans: q b p\ntrans: q a q\n"))
    prog = parse_program(SPINE_THROWS, alphabet=d.alphabet)
    yield "spine_throws", prog, d, {}


@pytest.mark.parametrize("demand_driven", [False, True],
                         ids=["full", "demand-driven"])
def test_prefix_first_fold_matches_the_right_fold(demand_driven, monkeypatch):
    """Concatenation distributes over join, so folding a let spine prefix
    first gives the tables the old fold back from the tail gives: ``==``,
    keys in the same order, on one shared monoid per guideline.  Each body
    typed against the finished table agrees too, key order included."""
    bodies = 0
    orders = set()
    for name, prog, d, specs in _fold_cases():
        meta = region_meta(prog)
        for entries in ([[e] for e in entry_points(prog)] if demand_driven
                        else [None]):
            table = infer(prog, d, intrinsics=specs, entries=entries,
                          meta=meta)
            with monkeypatch.context() as patch:
                patch.setattr(inference, "typeff",
                              inference_reference.typeff_right_fold)
                old = infer(prog, d, intrinsics=specs, entries=entries,
                            meta=meta)
            assert table.mtable == old.mtable, (name, entries)
            assert _key_orders(table.mtable) == _key_orders(old.mtable), (
                name, entries)
            assert table.ftable == old.ftable, (name, entries)
            for group in table.groups:
                body, gamma = inference._body_env(group[0], prog)
                got = typeff(_Typing(prog, meta, table, d), gamma, body)
                want = inference_reference.typeff_right_fold(
                    _Typing(prog, meta, table, d), gamma, body)
                assert got.triple() == want.triple(), (name, group[0])
                assert [list(part) for part in got.triple()] == [
                    list(part) for part in want.triple()], (name, group[0])
                assert got.fupdates == want.fupdates, (name, group[0])
                orders.add(tuple(map(len, got.triple())))
                bodies += 1
    assert bodies >= 110
    assert max(h for _, h, _ in orders) >= 3 and max(
        s for _, _, s in orders) >= 3


def _let_chain(k):
    """k Nodes read from a three-region field and never read again."""
    return ("class Node extends Object { Node f;\n  Object go() {\n"
            "    Node p = new[p] Node(); Node q = new[q] Node();\n"
            "    this.f = p; this.f = q;\n"
            + "".join(f"    Node x{i} = this.f;\n" for i in range(k))
            + "    emit a; return null; } }\n")


class _CountingWords(ProfileDomain):
    """The profile domain, counting the calls to ``alpha_word``, one per
    leaf or run of emits a typing visits, and keeping the nonempty words."""

    def __init__(self, guideline):
        super().__init__(guideline)
        self.words = 0
        self.nonempty = []

    def alpha_word(self, word):
        self.words += 1
        if word:
            self.nonempty.append(tuple(word))
        return super().alpha_word(word)


def test_let_chain_typing_grows_linearly_with_the_bindings():
    """The per-region rule types the tail of k dead three-region bindings
    3^k times; one typing per reading types it once."""
    counts = []
    for k in (2, 4, 8, 16):
        prog = parse_program(_let_chain(k))
        d = _CountingWords(parse_guideline(ONE_LETTER_GUIDELINE))
        table = infer(prog, d)
        assert check_well_typed(prog, table, d) == []
        counts.append(d.words)
    steps = [b - a for a, b in zip(counts, counts[1:])]
    assert steps[0] > 0
    assert steps == [steps[0], 2 * steps[0], 4 * steps[0]], counts


TWO_LETTER_GUIDELINE = (
    "alphabet: a b\nstates: p q\ninitial: p\naccepting: p\n"
    "trans: p a q\ntrans: q b p\ntrans: q a q\n"
)


@pytest.mark.parametrize("k", [1, 2, 7, 50])
def test_a_run_of_k_emits_is_k_steps_and_one_word(k):
    prog = parse_program("class A extends Object {\n"
                         "  Object f() { return this; }\n  Object go() { "
                         + "emit a; " * k + "Object r = this.f(); "
                         + "emit b; " * k + "return r; } }")
    d = _CountingWords(parse_guideline(TWO_LETTER_GUIDELINE))
    table = infer(prog, d)
    body, gamma = inference._body_env(Sig("A", UNKNOWN, "go", ()), prog)
    typings = []
    for rule in (typeff, inference_reference.typeff_right_fold):
        ty = _Typing(prog, region_meta(prog), table, d)
        d.nonempty.clear()
        typings.append((rule(ty, gamma, body).triple(), ty.work,
                        list(d.nonempty)))
    (got, steps, words), (want, old_steps, old_words) = typings
    assert got == want
    # one step per emit, the call and the returned variable, as per statement
    assert steps == old_steps == 2 * k + 2
    assert words == [("a",) * k, ("b",) * k]
    assert old_words == [("a",)] * k + [("b",)] * k


@pytest.mark.parametrize("k", [1, 3])
def test_an_emit_binding_is_typed_inline(k, monkeypatch):
    # typeff binds an emit without a _rule call, one step per emit as before
    prog = parse_program("class A extends Object {\n"
                         "  Object f() { return this; }\n  Object go() { "
                         + "emit a; " * k + "Object r = this.f(); "
                         + "emit b; " * k + "return r; } }")
    ruled = []
    rule = inference._rule
    monkeypatch.setattr(inference, "_rule", lambda ty, gamma, e: (
        ruled.append(type(e).__name__), rule(ty, gamma, e))[1])
    d = ProfileDomain(parse_guideline(TWO_LETTER_GUIDELINE))
    table = infer(prog, d)
    body, gamma = inference._body_env(Sig("A", UNKNOWN, "go", ()), prog)
    want = inference_reference.typeff_right_fold(
        _Typing(prog, region_meta(prog), table, d), gamma, body)
    ty = _Typing(prog, region_meta(prog), table, d)
    ruled.clear()
    assert typeff(ty, gamma, body).triple() == want.triple()
    assert ty.work == 2 * k + 2
    assert ruled == ["Call", "Var"]  # the local's init and the result


def _emit_run_cases():
    return [case for case in reference_cases()
            if case[0].startswith("emit_runs/")]


def test_emit_runs_type_as_per_statement_and_recheck_as_per_signature(
        monkeypatch):
    """The reference case with runs of emits wherever a run can stand:
    every body typed against the finished table gives the per-statement
    fold's effects in as many steps, and the re-check, of the table and of
    one with an a put before every T entry, reports what the per-signature
    re-check does."""
    cases = _emit_run_cases()
    assert len(cases) == 3
    then_calls = []
    found = 0
    then = inference._then
    monkeypatch.setattr(inference, "_then", lambda ty, gamma, var, *rest: (
        then_calls.append(var), then(ty, gamma, var, *rest))[1])
    for name, prog, d, specs in cases:
        meta = region_meta(prog)
        table = infer(prog, d, intrinsics=specs, meta=meta)
        for group in table.groups:
            body, gamma = inference._body_env(group[0], prog)
            got = _Typing(prog, meta, table, d)
            want = _Typing(prog, meta, table, d)
            assert typeff(got, gamma, body).triple() == (
                inference_reference.typeff_right_fold(
                    want, gamma, body).triple()), (name, group[0])
            assert got.work == want.work, (name, group[0])
        assert check_well_typed(prog, table, d) == []
        assert check_per_signature(prog, table, d) == []
        a = d.alpha_word(("a",))
        for sig, (t, h, s) in table.mtable.items():
            table.mtable[sig] = (dict_scale(a, t, d.fin_concat), h, s)
        offenses = [str(o) for o in check_well_typed(prog, table, d)]
        assert offenses == [str(o) for o in
                            check_per_signature(prog, table, d)]
        found += len(offenses)
    assert found > 20
    # the handler, and the two-region cell the rest of Spots.pick reads
    assert {"e", "c"} <= set(then_calls)


def test_emit_runs_are_typed_one_word_each():
    src = emit_runs(3, 3, 6)
    runs = {tuple(re.findall(r"emit (\w+);", run))
            for run in re.findall(r"(?:emit \w+; )+", src)}
    d = _CountingWords(parse_guideline(TWO_LETTER_GUIDELINE))
    prog = parse_program(src, alphabet=d.alphabet)
    table = infer(prog, d)
    d.nonempty.clear()
    assert check_well_typed(prog, table, d) == []
    # the re-check types every run, each as one word
    assert set(d.nonempty) == runs


def _chain_program(n):
    """An acyclic chain of n methods: C.m0 calls m1, which calls m2, and so
    on; each emits a after its call returns."""
    methods = [f"Object m{i}() {{ Object y = this.m{i + 1}(); emit a; "
               f"return y; }}" for i in range(n - 1)]
    methods.append(f"Object m{n - 1}() {{ emit a; return null; }}")
    return "class C {\n" + "\n".join(methods) + "\n}\n"


def _count_typings(monkeypatch):
    """Patch typeff to record each top-level typing as (this, body)."""
    typings = []
    depth = [0]
    real = inference.typeff

    def counting(ty, gamma, e):
        if depth[0] == 0:
            typings.append((gamma["this"], id(e)))
        depth[0] += 1
        try:
            return real(ty, gamma, e)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(inference, "typeff", counting)
    return typings


def test_worklist_types_each_body_of_an_acyclic_chain_once(monkeypatch):
    prog = parse_program(_chain_program(40))
    typings = _count_typings(monkeypatch)
    d = ONE_LETTER
    table = infer(prog, d)
    meta = region_meta(prog)
    bodied = bodied_sigs(table, prog, meta, {})
    assert len(bodied) == 40
    assert sorted(typings, key=lambda t: t[1]) == sorted(
        ((UNKNOWN, id(md.body)) for md in prog.by_name["C"].methods),
        key=lambda t: t[1])
    assert table.mtable[Sig("C", UNKNOWN, "m0", ())][0] == {
        NULL_REGION: d.alpha_word(("a",) * 40)}


def test_worklist_infers_a_long_call_chain_without_recursion_error():
    prog = parse_program(_chain_program(2000))
    d = ONE_LETTER
    table = infer(prog, d)
    assert table.mtable[Sig("C", UNKNOWN, "m0", ())][0] == {
        NULL_REGION: d.alpha_word(("a",) * 2000)}


# --- one typing per group of signatures ------------------------------------------


# Each via* method reads its parameter p through one kind of plain-name
# operand only, and its typing depends on p's region; a key that misses that
# operand would share one typing among signatures that type differently.
OPERANDS = """
class Node extends Object {
    Node next;
    Object m() { emit a; return null; }
    Object take(Node q) { Node z = null; if (q == z) { emit a; } else { } return null; }
    Object viaIf(Node p) { Node z = null; if (p == z) { emit a; } else { } return null; }
    Object viaRecv(Node p) { Object r = p.m(); return r; }
    Object viaArg(Node p) { Object r = this.take(p); return r; }
    Object viaGet(Node p) { Node n = p.next; return n; }
    Object viaSetRecv(Node p) { Node z = null; p.next = z; return null; }
    Object viaSetVal(Node p) { this.next = p; return null; }
}
class Main extends Object {
    Object go() {
        Node x = new[lx] Node();
        Node y = new[ly] Node();
        x.next = y;
        Object r1 = x.viaIf(y);
        Object r2 = x.viaRecv(y);
        Object r3 = y.viaArg(x);
        Object r4 = x.viaGet(x);
        Object r5 = y.viaSetRecv(x);
        Object r6 = y.viaSetVal(y);
        return null;
    }
}
"""

# Sub inherits who from Base, so their signatures share typings; Over
# redeclares it and must not.
INHERITED = """
class Base extends Object {
    Object who(Base p) { Base z = null; if (p == z) { emit a; } else { } return null; }
}
class Sub extends Base { }
class Over extends Base {
    Object who(Base p) { emit a; emit a; return null; }
}
class Main extends Object {
    Object go() {
        Base b = new[lb] Base();
        Sub s = new[ls] Sub();
        Over o = new[lo] Over();
        Object r1 = s.who(b);
        Object r2 = b.who(s);
        Object r3 = o.who(o);
        return null;
    }
}
"""


@pytest.mark.parametrize("src", [OPERANDS, INHERITED],
                         ids=["operands", "inherited"])
def test_grouped_typing_matches_the_sweep_reference(src):
    prog = parse_program(src)
    d = ONE_LETTER
    for entries in [None] + [[e] for e in entry_points(prog)]:
        got = infer(prog, d, entries=entries)
        want = infer_by_sweeps(prog, d, entries=entries)
        assert_same_tables(got, want, entries)
        assert check_well_typed(prog, got, d) == [], entries


def test_inherited_bodies_share_one_typing_group():
    prog = parse_program(INHERITED)
    meta = region_meta(prog)
    table = init_table(prog, meta)
    groups = inference._typing_groups(bodied_sigs(table, prog, meta, {}), prog)
    classes = [{sig.cls for sig in members} for members in groups
               if members[0].method == "who"]
    assert {"Base", "Sub"} in classes
    assert all("Over" not in c or c == {"Over"} for c in classes)


def _read_set_programs():
    """(name, program) over reference_cases, every fixture program without
    an alphabet, and ladder(2, 6)."""
    for name, prog, _, _ in reference_cases():
        yield name, prog
    for path in sorted(FIXTURES.glob("*.fj")):
        yield path.name, parse_program(path.read_text(encoding="utf-8"),
                                       path.name)
    yield "ladder", parse_program(ladder(2, 6))


def test_the_read_sets_and_call_order_match_the_walking_references():
    programs = 0
    for name, prog in _read_set_programs():
        want = inference_reference.reads_of(prog)
        assert prog.reads.keys() == want.keys(), name
        assert prog.reads == want, name
        meta = region_meta(prog)
        sigs = bodied_sigs(init_table(prog, meta), prog, meta, {})
        assert inference._callee_first(sigs, prog) == \
            inference_reference.callee_first_by_walk(sigs, prog), name
        programs += 1
    assert programs >= 50


def test_ladder_types_one_body_per_key(monkeypatch):
    prog = parse_program(ladder(2, 6))
    meta = region_meta(prog)
    d = ONE_LETTER
    step = id(prog.by_name["Node"].methods[0].body)
    go = id(prog.by_name["Main"].methods[0].body)
    # both bodies read only this, so a key is a receiver region and a body
    keys = [(created_at("l00"), step), (created_at("l01"), step),
            (UNKNOWN, step), (UNKNOWN, go)]
    typings = _count_typings(monkeypatch)
    table = infer(prog, d)
    assert len(bodied_sigs(table, prog, meta, {})) == 301
    # 301 bodies, four keys; a key is typed again only after a row it read
    # grew: step at l01 once Main.go links x0 to x1, step at Unknown once
    # closure absorbs that link into the Unknown row, go once its own row
    # and once step at l01's row grew
    assert Counter(typings) == dict(zip(keys, (1, 2, 2, 3)))
    typings.clear()
    assert check_well_typed(prog, table, d) == []
    assert sorted(typings, key=repr) == sorted(keys, key=repr)
