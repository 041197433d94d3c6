"""The class hierarchy a Program decides once, when it is built: its chains,
dispatch and field tables against the reference walks of
``hierarchy_reference``, deep chains in either declaration order, the
errors the pass raises, the joins up a chain, and the other checks made
while the Program is built (a node met twice, an event outside the
alphabet)."""

import pytest

from conftest import fixture
from hierarchy_reference import field_owner, fields_of, methods_of, supers
from reference_cases import reference_cases
from guidecheck import classtable
from guidecheck.cli import main
from guidecheck.domains import ProfileDomain
from guidecheck.fjast import (
    NULL_TYPE,
    OBJECT,
    Call,
    ClassDecl,
    FjError,
    GetField,
    MethodDecl,
    Null,
    Param,
    Program,
)
from guidecheck.fjparser import parse_program
from guidecheck.guideline import load_guideline
from guidecheck.inference import infer

# An override (B.m), an inherited method (n, on B, C and D), a redeclared
# method (C.k, a typing violation: the first declaration is the one
# dispatched) and inherited fields (D has f, g and h, each from its
# declaring class).
HIERARCHY = """
class A { A f; Object m() { emit a; return null; } Object n() { return this.m(); } }
class B extends A { A g; Object m() { emit b; return null; } }
class C extends B { Object k() { return null; } Object k() { emit a; return null; } }
class D extends C { A h; }
"""


def chain_source(depth: int, child_first: bool = False) -> str:
    """``class Ci extends Ci-1 { }`` for 0 < i < depth, under a C0 whose
    one method m emits a."""
    decls = ["class C0 { Object m() { emit a; return null; } }"]
    decls += [f"class C{i} extends C{i - 1} {{ }}" for i in range(1, depth)]
    return "\n".join(reversed(decls) if child_first else decls) + "\n"


def _tables_agree(prog: Program) -> None:
    for c in prog.classes:
        name = c.name
        assert prog.chains[name] == tuple(supers(prog, name))
        assert [(m, id(md), x) for m, (md, x) in prog.dispatch[name].items()] \
            == [(m, id(md), x) for m, (md, x) in methods_of(prog, name).items()]
        assert [(f, id(fd), x) for f, (fd, x) in prog.fields[name].items()] \
            == [(fd.name, id(fd), field_owner(prog, name, fd.name))
                for fd in fields_of(prog, name)]
    assert prog.chains[OBJECT] == (OBJECT,) and NULL_TYPE not in prog.chains
    for name in (OBJECT, NULL_TYPE):
        assert prog.dispatch[name] == prog.fields[name] == {}


def test_the_tables_agree_with_a_reference_walk():
    progs = [prog for _, prog, _, _ in reference_cases()]
    hierarchy = parse_program(HIERARCHY)
    for prog in [*progs, hierarchy, parse_program(chain_source(40, True))]:
        _tables_agree(prog)
    assert len(progs) > 40
    # by hand: the override, the inherited method, the first of two
    # declarations, and the fields with their declaring classes
    a, b, c, _ = hierarchy.classes
    assert hierarchy.dispatch["D"]["m"] == (b.methods[0], "B")
    assert hierarchy.dispatch["D"]["n"] == (a.methods[1], "A")
    assert hierarchy.dispatch["D"]["k"] == (c.methods[0], "C")
    assert [str(e) for e in hierarchy.violations] == [
        "4:56: method k redeclared in C"]
    assert [(f, x) for f, (_, x) in hierarchy.fields["D"].items()] == [
        ("f", "A"), ("g", "B"), ("h", "D")]
    assert hierarchy.chains["D"] == ("D", "C", "B", "A", OBJECT)
    # a class that declares no method or field shares its parent's tables
    assert hierarchy.fields["C"] is hierarchy.fields["B"]


@pytest.mark.parametrize("child_first", [False, True],
                         ids=["parent-first", "child-first"])
def test_a_deep_chain_ends_in_its_verdict(child_first, tmp_path, capsys):
    src = tmp_path / "chain.fj"
    src.write_text(chain_source(1200, child_first), encoding="utf-8")
    assert main(["analyze", "--program", str(src),
                 "--guideline", fixture("first_letter.gl")]) == 0
    # the search dispatches on the deepest class, 1,200 classes down
    assert main(["analyze", "--program", str(src),
                 "--guideline", fixture("count_mod3.gl"),
                 "--entry", "C1199.m", "--fuel", "2"]) == 1
    out = capsys.readouterr().out
    assert "counterexample: C1199.m: run emits 'a'" in out


@pytest.mark.parametrize("source, message", [
    pytest.param(
        "class D extends A { } class A extends B { } class B extends A { }",
        "1:1: inheritance cycle through D", id="into-a-cycle"),
    pytest.param(
        "class E { } class F extends E { } class B extends A { }"
        " class A extends B { } class G extends A { A f; }"
        " class H extends G { A f; }",
        "1:35: inheritance cycle through B", id="cycle-after-a-chain"),
    pytest.param(
        "class B extends A { A f; } class A { A f; }"
        " class C extends C2 { } class C2 extends C { }",
        "1:45: inheritance cycle through C", id="cycle-before-fields"),
    pytest.param(
        "class C extends B { A g; } class B extends A { A f; }"
        " class A { A f; A g; }",
        "1:50: field f redeclared in B", id="field-child-first"),
    pytest.param(
        "class A { A f; A f; }",
        "1:18: field f redeclared in A", id="field-twice-in-a-class"),
])
def test_hierarchy_errors_keep_their_text_and_name_the_same_class(
        source, message):
    with pytest.raises(FjError) as caught:
        parse_program(source)
    assert str(caught.value) == message


def test_joins_up_a_chain_are_linear_in_its_depth(monkeypatch):
    # every entry above a signature that _join_up looks at is one Sig it
    # builds; a walk to Object from every class would build depth²/2
    built = []
    sig = classtable.Sig

    def counting(*parts):
        built.append(parts[0])
        return sig(*parts)

    monkeypatch.setattr(classtable, "Sig", counting)
    domain = ProfileDomain(load_guideline(fixture("first_letter.gl")))
    for depth in (100, 200):
        for child_first in (False, True):
            built.clear()
            infer(parse_program(chain_source(depth, child_first)), domain)
            assert 0 < len(built) <= 2 * depth, (depth, child_first)


def _shared(node) -> list:
    """Classes A and C whose bodies hold one and the same node, x.m() or
    x.f on a parameter x of their own class."""
    return [ClassDecl(name, OBJECT, (), (
        MethodDecl(OBJECT, "m", (), Null()),
        MethodDecl(OBJECT, "go", (Param(name, "x"),), node)))
        for name in ("A", "C")]


def test_a_call_or_field_access_met_twice_raises():
    # typing fills the one node's receiver annotation in place, so the
    # second body would be typed against the first one's class
    with pytest.raises(FjError, match="one Call node is used twice"):
        Program(_shared(Call("x", "", "m", ())))
    with pytest.raises(FjError, match="one GetField node is used twice"):
        Program(_shared(GetField("x", "", "m")))
    # raised before typing, so no annotation was filled
    a, _ = classes = _shared(Call("x", "", "m", ()))
    with pytest.raises(FjError):
        Program(classes)
    assert a.methods[1].body.recv_cls == ""
    assert Program([a]).violations == ()


def test_an_unknown_event_raises_before_any_body_is_typed():
    # the Program checks the events where it collects them, before typing,
    # so an earlier body's name error no longer comes first
    source = ("class A { Object m() { return q; } "
              "Object n() { emit zz; return null; } }")
    with pytest.raises(FjError) as caught:
        parse_program(source, alphabet=("a",))
    assert str(caught.value) == "1:49: event zz is not in the declared alphabet"
    with pytest.raises(FjError, match="1:31: unbound variable q"):
        parse_program(source)
