"""Lexer/parser/desugarer tests, plus the static well-typedness check."""

import pytest

from guidecheck.fjast import (
    OBJECT,
    Call,
    Cast,
    ClassDecl,
    Emit,
    FjError,
    GetField,
    If,
    Let,
    MethodDecl,
    New,
    Null,
    Param,
    Program,
    SetField,
    Throw,
    TryCatch,
    Var,
    subexprs,
)
from guidecheck.fjparser import _lex, parse_program, parse_programs
from guidecheck.fjtypes import fj_typecheck, lub, preceq

from conftest import read_fixture
from fjprinter import print_program


SMALL = """
class Pair {
  Pair fst;
  Pair rest() {
    Pair p = this.fst;
    emit a;
    return p;
  }
}
"""


def test_parse_shape():
    prog = parse_program(SMALL)
    assert [c.name for c in prog.classes] == ["Pair"]
    md = prog.by_name["Pair"].methods[0]
    assert md.name == "rest" and md.result == "Pair"
    body = md.body
    # Pair p = ...; emit a; return p  desugars to two nested lets
    assert isinstance(body, Let) and body.var == "p" and body.decl == "Pair"
    assert body.init == GetField("this", "Pair", "fst")
    inner = body.body
    assert isinstance(inner, Let) and inner.decl is None
    assert inner.init == Emit("a")
    assert inner.body == Var("p")


def test_lexer_kinds_and_positions():
    text = ("class\tA {\r\n  // note [x\n  A f; new[ file.fj:3:4 ] A();\n"
            "  new[a\nb] x.y==z _\u00e99}")
    toks = [tuple(t) for t in _lex(text)]
    assert toks == [
        ("id", "class", 1, 1), ("id", "A", 1, 7), ("punct", "{", 1, 9),
        ("id", "A", 3, 3), ("id", "f", 3, 5), ("punct", ";", 3, 6),
        ("id", "new", 3, 8), ("punct", "[", 3, 11),
        ("label", "file.fj:3:4", 3, 12), ("punct", "]", 3, 25),
        ("id", "A", 3, 27), ("punct", "(", 3, 28), ("punct", ")", 3, 29),
        ("punct", ";", 3, 30),
        # a label spanning a newline does not advance the line count
        ("id", "new", 4, 3), ("punct", "[", 4, 6), ("label", "a\nb", 4, 7),
        ("punct", "]", 4, 10), ("id", "x", 4, 12), ("punct", ".", 4, 13),
        ("id", "y", 4, 14), ("punct", "==", 4, 15), ("id", "z", 4, 17),
        ("id", "_\u00e99", 4, 19), ("punct", "}", 4, 22), ("eof", "", 4, 23),
    ]


@pytest.mark.parametrize("text, message", [
    ("ab\n  $", "2:3: unexpected character '$'"),
    ("a\n new[l1 A()", "2:5: unterminated '['"),
    # an identifier starts with a letter or '_', not any alphanumeric
    ("x \u00b2a", "1:3: unexpected character '\u00b2'"),
    ("x 1a", "1:3: unexpected character '1'"),
])
def test_lexer_error_positions(text, message):
    with pytest.raises(FjError) as exc:
        _lex(text)
    assert str(exc.value) == message


def test_end_of_input_after_a_trailing_comment_is_where_the_input_ends():
    with pytest.raises(FjError) as exc:
        parse_program("class A {\n  // trailing")
    assert str(exc.value) == "2:14: expected member class, found 'end of input'"


def test_auto_labels_are_positions():
    prog = parse_program("class C { C mk() { return new C(); } }", filename="inline.fj")
    (new,) = [e for e in subexprs(prog.by_name["C"].methods[0].body) if isinstance(e, New)]
    assert new.label == "inline.fj:1:27"


def test_explicit_label_kept():
    prog = parse_program("class C { C mk() { return new[home] C(); } }")
    (new,) = [e for e in subexprs(prog.by_name["C"].methods[0].body) if isinstance(e, New)]
    assert new.label == "home"


def test_duplicate_label_rejected():
    src = "class C { C mk() { C x = new[h] C(); return new[h] C(); } }"
    with pytest.raises(FjError, match="label"):
        parse_program(src)


def test_return_must_be_last():
    src = "class C { C m() { return null; emit a; } }"
    with pytest.raises(FjError, match="return"):
        parse_program(src)


def test_missing_else_is_an_error():
    src = "class C { C m(C x, C y) { if (x == y) { emit a; } return null; } }"
    with pytest.raises(FjError):
        parse_program(src)


def test_event_outside_alphabet():
    with pytest.raises(FjError, match="alphabet"):
        parse_program(SMALL, alphabet=("b",))
    # and with a permissive alphabet it parses
    parse_program(SMALL, alphabet=("a", "b"))


def test_unbound_variable_reported_with_position():
    src = "class C {\n  C m() {\n    return q;\n  }\n}"
    with pytest.raises(FjError) as exc:
        parse_program(src)
    assert "q" in str(exc.value)
    assert exc.value.pos is not None and exc.value.pos.line == 3


def test_receiver_annotation_filled():
    src = """
class A { A id(A x) { return x; } }
class B extends A { }
class M { A go() { B b = new[k] B(); return b.id(b); } }
"""
    prog = parse_program(src)
    calls = [
        e
        for e in subexprs(prog.by_name["M"].methods[0].body)
        if isinstance(e, Call)
    ]
    assert calls and calls[0].recv_cls == "B"


def test_subexprs_walks_deep_nesting_in_preorder():
    body = Var("x")
    for _ in range(5000):
        body = Let("x", None, Emit("a"), body)
    kinds = [type(e) for e in subexprs(body)]
    assert len(kinds) == 10001
    assert kinds[:4] == [Let, Emit, Let, Emit] and kinds[-1] is Var


def test_cast_try_throw_setfield_all_survive_roundtrip():
    src = read_fixture("roundtrip.fj")
    p1 = parse_program(src, filename="roundtrip.fj")
    s1 = print_program(p1)
    s2 = print_program(parse_program(s1, filename="roundtrip.fj"))
    assert s1 == s2  # printing reaches a fixpoint after one normalisation
    kinds = {type(e) for c in parse_program(s1).classes for m in c.methods for e in subexprs(m.body)}
    for k in (Cast, TryCatch, Throw, SetField, If, Null):
        assert k in kinds


def test_parse_programs_merges_and_rejects_duplicates():
    one = "class A { }"
    two = "class B extends A { }"
    prog = parse_programs([(one, "a.fj"), (two, "b.fj")])
    assert set(prog.by_name) == {"A", "B"}
    with pytest.raises(FjError, match="duplicate"):
        parse_programs([(one, "a.fj"), ("class A { }", "b.fj")])


# --- subtyping and the checker ----------------------------------------------


HIER = parse_program(
    """
class A { A f; A m(A x) { return x; } }
class B extends A { }
class C extends B { }
class D { }
"""
)


def test_preceq_chain():
    assert preceq(HIER, "C", "A")
    assert preceq(HIER, "C", "Object")
    assert preceq(HIER, "NullType", "D")
    assert not preceq(HIER, "A", "C")
    assert not preceq(HIER, "D", "A")


def test_lub_walks_up():
    assert lub(HIER, "B", "C") == "B"
    assert lub(HIER, "C", "D") == "Object"
    assert lub(HIER, "NullType", "B") == "B"


def test_typecheck_clean_program():
    assert fj_typecheck(HIER) == []
    assert fj_typecheck(parse_program(read_fixture("roundtrip.fj"))) == []


def test_typecheck_flags_bad_override():
    prog = parse_program(
        """
class A { A m() { return this; } }
class B extends A { Object m() { return this; } }
"""
    )
    msgs = [str(e) for e in fj_typecheck(prog)]
    assert any("overrides" in m for m in msgs)


def test_typecheck_flags_bad_argument():
    prog = parse_program(
        """
class A { A m(A x) { return x; } }
class D { D go(A a, D d) { A r = a.m(d); return d; } }
"""
    )
    msgs = [str(e) for e in fj_typecheck(prog)]
    assert any("not a subclass" in m for m in msgs)


def test_typecheck_flags_body_result_mismatch():
    prog = parse_program("class A { } class B { A m() { B b = null; return b; } }")
    msgs = [str(e) for e in fj_typecheck(prog)]
    assert any("not a subclass of declared" in m for m in msgs)


def test_typecheck_flags_a_redeclared_method():
    # without the check the second f is silently ignored: lookup finds the first
    prog = parse_program(
        "class A { Object f() { emit a; return null; } Object f() { return null; } }"
    )
    msgs = [str(e) for e in fj_typecheck(prog)]
    assert msgs == ["1:54: method f redeclared in A"]


def test_typecheck_flags_a_redeclared_parameter():
    prog = parse_program("class A { Object f(A x, A x) { return x; } }")
    msgs = [str(e) for e in fj_typecheck(prog)]
    assert msgs == ["1:18: parameter x redeclared in A.f"]


def test_typecheck_flags_a_parameter_named_this():
    prog = parse_program("class A { Object f(A this) { return this; } }")
    msgs = [str(e) for e in fj_typecheck(prog)]
    assert msgs == ["1:18: parameter name this is reserved in A.f"]


def test_typecheck_allows_the_same_names_in_different_scopes():
    prog = parse_program(
        "class A { Object f(A x) { return x; } Object g(A x) { return x; } }\n"
        "class B extends A { Object f(A y) { return y; } }"
    )
    assert fj_typecheck(prog) == []


def test_typecheck_checks_a_hand_built_receiver_annotation():
    body = Call("x", "B", "m", ())
    prog = Program([
        ClassDecl("A", OBJECT, (), (MethodDecl(OBJECT, "m", (), Null()),)),
        ClassDecl("B", OBJECT, (), (
            MethodDecl(OBJECT, "m", (), Null()),
            MethodDecl(OBJECT, "go", (Param("A", "x"),), body))),
    ])
    msgs = [str(e) for e in fj_typecheck(prog)]
    assert msgs == ["receiver x has type A, annotation says B"]


def test_a_hand_built_program_is_typed_when_it_is_built():
    go = MethodDecl(OBJECT, "go", (Param("A", "x"),), Call("x", "", "go", ("x",)))
    prog = Program([ClassDecl("A", OBJECT, (), (go,))])
    assert prog.classes[0].methods[0].body.recv_cls == "A"
    assert prog.by_name["A"] is prog.classes[0]
    assert prog.violations == ()
    # a name error raises for a hand-built program, as for a parsed one
    unbound = MethodDecl(OBJECT, "go", (), Call("y", "", "go", ()))
    with pytest.raises(FjError, match="unbound variable y"):
        Program([ClassDecl("A", OBJECT, (), (unbound,))])
    with pytest.raises(FjError, match="event b is not in the declared alphabet"):
        Program([ClassDecl("A", OBJECT, (), (MethodDecl(OBJECT, "go", (), Emit("b")),))],
                alphabet=("a",))
