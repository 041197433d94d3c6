"""Lexer and parser tests, the let chains the parser builds included, plus
the static well-typedness check."""

import random

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
    _read_sets,
    subexprs,
)
from guidecheck.fjparser import _lex, _Parser, parse_program, parse_programs
from guidecheck.fjtypes import fj_typecheck, lub, preceq

from conftest import FIXTURES, read_fixture
from fjprinter import print_program
from lexer_reference import expand_runs, lex_per_position


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
    assert inner.init == Emit(("a",))
    assert inner.body == Var("p")


def test_lexer_kinds_and_positions():
    text = ("class\tA {\r\n  // note [x\n  A f; new[ file.fj:3:4 ] A();\n"
            "  new x.y==z _\u00e99}")
    toks = [tuple(t) for t in _lex(text)]
    assert toks == [
        ("id", "class", 1, 1), ("id", "A", 1, 7), ("punct", "{", 1, 9),
        ("id", "A", 3, 3), ("id", "f", 3, 5), ("punct", ";", 3, 6),
        ("id", "new", 3, 8), ("punct", "[", 3, 11),
        ("label", "file.fj:3:4", 3, 12), ("punct", "]", 3, 25),
        ("id", "A", 3, 27), ("punct", "(", 3, 28), ("punct", ")", 3, 29),
        ("punct", ";", 3, 30),
        ("id", "new", 4, 3), ("id", "x", 4, 7), ("punct", ".", 4, 8),
        ("id", "y", 4, 9), ("punct", "==", 4, 10), ("id", "z", 4, 12),
        ("id", "_\u00e99", 4, 14), ("punct", "}", 4, 17), ("eof", "", 4, 18),
    ]
    # a label may not span a newline: its '[' is left unterminated
    with pytest.raises(FjError) as exc:
        _lex(text.replace("new x", "new[a\nb] x"))
    assert str(exc.value) == "4:6: unterminated '['"


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


# The pieces random texts are drawn from: ids (one starting with a digit,
# some not ASCII), the punctuation, blanks, comments, labels (two spanning a
# newline, so unterminated, and one never closed) and characters no token
# class takes.
LEX_PIECES = (
    "x", "Node", "_t1", "\u00e9t\u00e9", "\u00b2a", "1a", "9", "new", "emit",
    "==", "=", "{", "}", "(", ")", ";", ",", ".", "]",
    " ", "\t", "\r", "  \t", "\n", "\r\n",
    "// note", "// [x ==\n", "//",
    "[l1]", "[ file.fj:3:4 ]", "[]", "[a\nb]", "[ \n ]", "[open",
    "$", "\x0c", "/", "\u00a0",
)


def _lexed(lex, text):
    """lex's tokens of text, or its error as (message, line, column)."""
    try:
        return [tuple(t) for t in lex(text)]
    except FjError as exc:
        return (str(exc), exc.pos.line, exc.pos.col)


def test_the_one_scan_lexer_matches_the_per_position_reference():
    rng = random.Random(29)
    errors = 0
    for _ in range(600):
        text = "".join(rng.choice(LEX_PIECES)
                       for _ in range(rng.randint(0, 12)))
        got = _lexed(lambda t: expand_runs(_lex(t)), text)
        assert got == _lexed(lex_per_position, text), repr(text)
        errors += isinstance(got, tuple)
    # both outcomes are drawn often
    assert 100 < errors < 500


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


def test_fresh_variables_are_named_after_their_nested_blocks():
    # a statement gets its $t name once the blocks inside it are read, so
    # the if's name comes after the one in its then-block; a run of emits
    # is one statement
    src = ("class A { Object m(A x, A y) { emit a; emit b; if (x == y) { "
           "emit a; emit a; return x; } else { emit a; } emit a; "
           "return null; } }")
    body = parse_program(src).by_name["A"].methods[0].body
    names = [e.var for e in subexprs(body) if isinstance(e, Let)]
    assert names == ["$t0", "$t2", "$t1", "$t3"]


@pytest.mark.parametrize("src, message", [
    # a syntax error later in the same method wins
    ("class A { Object m() { return null; emit a; x.f = ; } }",
     "1:51: expected variable, found ';'"),
    # the method is rejected before a later method is read
    ("class A { Object m() { return null; emit a; } Object n() { ; } }",
     "1:37: unreachable statements after return"),
    # reported where the statement after the return starts, a local too
    ("class A { Object m(A x, A y) { if (x == y) { return null; A z = null; }"
     " else { emit a; } return null; } }",
     "1:59: unreachable statements after return"),
])
def test_a_statement_after_return_is_reported_once_the_body_is_read(
        src, message):
    with pytest.raises(FjError) as exc:
        parse_program(src)
    assert str(exc.value) == message


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
        body = Let("x", None, Emit(("a",)), body)
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
        Program([ClassDecl("A", OBJECT, (), (MethodDecl(OBJECT, "go", (), Emit(("b",))),))],
                alphabet=("a",))


def _raw_classes(text):
    """The classes the parser reads from text, no Program built over them."""
    return _Parser(_lex(text), "<input>").program()


def _accesses(classes):
    return [e for c in classes for md in c.methods for e in subexprs(md.body)
            if isinstance(e, (Call, GetField, SetField))]


FIXTURE_TEXTS = [path.read_text(encoding="utf-8")
                 for path in sorted(FIXTURES.glob("*.fj"))]


def test_a_program_keeps_its_classes_and_fills_their_annotations():
    filled = 0
    for text in FIXTURE_TEXTS:
        raw = _raw_classes(text)
        accesses = _accesses(raw)
        assert not any(e.recv_cls for e in accesses)
        prog = Program(raw)
        assert len(prog.classes) == len(raw)
        assert all(c is r for c, r in zip(prog.classes, raw))
        assert all(prog.by_name[r.name] is r for r in raw)
        assert all(e.recv_cls for e in accesses)
        filled += len(accesses)
    assert filled > 10


# Each program has a typing violation.
VIOLATING = [
    "class A { } class B { Object m() { B y = new A(); return y; } }",
    "class A { Object f(A x) { return x; } }\n"
    "class B extends A { Object f(B y) { return y; } }",
    "class A { A f; Object m(B b) { A x = b.f; return b.go(x); } }\n"
    "class B extends A { Object go(B y) { return y; } }",
]


def test_a_second_program_over_the_same_classes_writes_no_node():
    for text in VIOLATING + FIXTURE_TEXTS:
        first = Program(_raw_classes(text))
        nodes = [e for c in first.classes for md in c.methods
                 for e in subexprs(md.body)]
        before = [[getattr(e, n) for n in e.__slots__] for e in nodes]
        second = Program(first.classes)
        after = [[getattr(e, n) for n in e.__slots__] for e in nodes]
        assert all(a is b for x, y in zip(before, after) for a, b in zip(x, y))
        assert [str(e) for e in second.violations] == \
            [str(e) for e in first.violations]
    assert all(Program(_raw_classes(text)).violations for text in VIOLATING)
    # a name error after the walk filled an annotation raises the same again
    raw = _raw_classes("class A { A f; Object m(A x) { A y = x.f; return q; } }")
    errors = []
    for _ in range(2):
        with pytest.raises(FjError) as exc:
            Program(raw)
        errors.append(str(exc.value))
    assert errors == ["1:50: unbound variable q"] * 2
    assert [e.recv_cls for e in _accesses(raw)] == ["A"]


def test_the_read_sets_of_a_deep_body_take_no_recursion():
    # 5,000 nested ifs, each under a let binding a variable the if reads;
    # typing this body still recurses, so the pass is fed it directly
    body = Var("x")
    for i in range(5000):
        body = Let(f"v{i}", None, Var("y"), If("x", f"v{i}", body, Null()))
    out = {}
    assert _read_sets(list(subexprs(body)), out) == {"x", "y"}
    assert len(out) == 5000
    ifs = [e for e in subexprs(body) if isinstance(e, If)]
    assert out[id(ifs[-1])] == {"x", "v0"}
    assert all(out[id(e)] == {"x", "y", e.right} for e in ifs[:-1])


def test_a_duplicate_label_is_reported_before_an_earlier_name_error():
    # in walk order the unbound q comes first, but labels are read before
    # any body is typed
    src = ("class C { Object m() { Object y = q; C x = new[h] C(); "
           "return new[h] C(); } }")
    with pytest.raises(FjError) as exc:
        parse_program(src)
    assert str(exc.value) == "1:63: duplicate allocation label h"
