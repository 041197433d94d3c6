"""Region-and-effect typing of method bodies, and the table fixpoint."""

import pytest

from guidecheck.classtable import init_table
from guidecheck.domains import ProfileDomain
from guidecheck.fjparser import parse_program
from guidecheck.guideline import parse_guideline
from guidecheck.inference import (
    check_well_typed,
    except_filter,
    infer,
    typeff,
)
from guidecheck.intrinsics import parse_config
from guidecheck.regions import NULL_REGION, UNKNOWN, Sig, created_at, region_meta

ONE_LETTER = ProfileDomain(
    parse_guideline(
        "alphabet: a\nstates: even odd\ninitial: even\naccepting: odd\n"
        "trans: even a odd\ntrans: odd a even\n"
    )
)
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


# --- typeff, rule by rule ------------------------------------------------------


def test_typeff_leaves():
    prog, meta, table, d = setup("class M { M mk() { return new[s] M(); } }")
    eps = d.alpha_word(())
    at_s = created_at("s")

    git = typeff(prog, meta, table, d, {"x": at_s}, body_of(prog, "M"))
    assert git.t == {at_s: eps} and git.h == {} and git.s == {} and git.fupdates == []

    prog2, meta2, table2, _ = setup("class M { Object go() { return null; } }")
    eff = typeff(prog2, meta2, table2, d, {"this": UNKNOWN}, body_of(prog2, "M"))
    assert eff.t == {NULL_REGION: eps}


def test_typeff_emit_charges_the_null_result():
    prog, meta, table, d = setup("class M { Object go() { emit a; return null; } }")
    eff = typeff(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "M"))
    assert eff.t == {NULL_REGION: d.alpha_word(("a",))}


def test_typeff_let_concatenates_left_to_right():
    prog, meta, table, d = setup(
        "class M { Object go() { emit a; emit a; emit a; return null; } }"
    )
    eff = typeff(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "M"))
    assert eff.t == {NULL_REGION: d.alpha_word(("a", "a", "a"))}


def test_typeff_cast_is_effect_transparent():
    prog, meta, table, d = setup(
        "class M { Object go() { emit a; M x = (M) this; return x; } }"
    )
    eff = typeff(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "M"))
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
    eff = typeff(prog, meta, table, d, g, body)
    assert eff.t == {NULL_REGION: eps}
    # Unknown may alias anything: both branches contribute
    g2 = {"this": UNKNOWN, "p": UNKNOWN, "q": created_at("s")}
    eff2 = typeff(prog, meta, table, d, g2, body)
    assert eff2.t == {NULL_REGION: d.fin_join(eps, d.alpha_word(("a",)))}


def test_typeff_setfield_requests_a_table_update():
    prog, meta, table, d = setup(
        "class C { C f; C go() { C x = new[s] C(); x.f = x; return x; } }"
    )
    eff = typeff(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "C"))
    at_s = created_at("s")
    assert (("C", at_s, "f"), at_s) in eff.fupdates
    assert eff.t == {at_s: d.alpha_word(())}


def test_typeff_getfield_reads_the_field_table():
    prog, meta, table, d = setup(
        "class C { C f; C go() { C x = new[s] C(); C y = x.f; return y; } }"
    )
    at_s = created_at("s")
    table.ftable[("C", at_s, "f")] = frozenset({NULL_REGION, at_s})
    eff = typeff(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "C"))
    assert set(eff.t) == {NULL_REGION, at_s}


def test_typeff_throw_moves_value_effect_to_h():
    prog, meta, table, d = setup(
        "class E { } class M { Object go() { emit a; E e = new[es] E(); throw e; } }"
    )
    eff = typeff(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "M"))
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
    eff = typeff(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "M"))
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
    eff = typeff(prog, meta, table, d, {"this": UNKNOWN}, body_of(prog, "M"))
    assert eff.t == {}  # the try block never completes normally
    assert eff.h == {created_at("es"): d.alpha_word(("a",))}


def test_except_filter_keeps_unknown():
    prog = parse_program("class E { } class F extends E { } class G { }")
    meta = region_meta(prog)
    h = {UNKNOWN: "u", NULL_REGION: "n"}
    kept = except_filter(h, "E", prog, meta)
    assert kept == {UNKNOWN: "u"}  # Unknown may hold a G, Null never throws


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
    assert table.tdict(sig_f) == {NULL_REGION: d.alpha_word(("a",))}
    assert table.tdict(sig_go) == {NULL_REGION: d.alpha_word(("a",))}
    # the call-site map records f at prefix ε
    assert table.sdict(sig_go) == {sig_f: d.alpha_word(())}
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
    t = table.tdict(sig)
    # normal termination never happens; T stays empty, the callsite map grows
    assert t == {}
    assert Sig("L", UNKNOWN, "spin", ()) in table.sdict(sig)
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
    assert table.tdict(Sig("M", UNKNOWN, "go", ())) == {
        NULL_REGION: d.alpha_word(("a",))
    }
    assert table.mtable[Sig("B", UNKNOWN, "g", ())] == ({}, {}, {})


class _ShortCapDomain(ProfileDomain):
    """Claims a zero-height lattice, so the sweep cap is two sweeps."""

    def fin_height(self) -> int:
        return 0


def test_infer_raises_when_sweeps_exceed_the_cap():
    # the callers are analyzed before their callees, so each sweep moves the
    # emitted a back by one call and the table needs more than two sweeps
    prog = parse_program(
        """
class A { Object f() { B x = new[b] B(); return x.g(); } }
class B { Object g() { C x = new[c] C(); return x.h(); } }
class C { Object h() { emit a; return null; } }
"""
    )
    domain = _ShortCapDomain(ONE_LETTER.guideline)
    with pytest.raises(RuntimeError, match="converge within its cap"):
        infer(prog, domain)


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
    assert table.tdict(sig_poll) == {UNKNOWN: d.alpha_word(("a",))}
    # the caller sees the stubbed effect, not the `return null` body
    assert table.tdict(Sig("M", UNKNOWN, "go", ())) == {
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
