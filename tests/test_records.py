"""The package's records are plain classes.

Importing the command line compiles no methods and loads neither
``dataclasses`` nor ``inspect``; every module imports first on its own, and
a Program can be built right after importing ``fjast``.  Syntax nodes
compare and hash by value without their positions, ``replace`` keeps a
node's position, and nodes, positions, parameters and stub specs refuse
assignment.  The tuple records read, compare, hash, unpack and show as
the named tuples they replace.
"""

import subprocess
import sys
from collections import namedtuple

import pytest

from conftest import PACKAGE_DIR, fixture, read_fixture
from guidecheck.fjast import (
    Call,
    Cast,
    ClassDecl,
    Emit,
    Expr,
    FieldDecl,
    GetField,
    If,
    Let,
    MethodDecl,
    New,
    Node,
    Null,
    Param,
    Pos,
    SetField,
    Throw,
    TryCatch,
    Var,
)
from guidecheck.guideline import load_guideline
from guidecheck.intrinsics import IntrinsicChoice, Regex, parse_config
from guidecheck.profiles import MixAbs


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import sys\n"
            f"sys.path.insert(0, {str(PACKAGE_DIR.parent)!r})\n"
            "import guidecheck.cli\n"
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.split() == ["False", "False"]


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh ``python -I`` that imports this guidecheck."""
    code = f"import sys\nsys.path.insert(0, {str(PACKAGE_DIR.parent)!r})\n{code}"
    return subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=60)


def test_every_module_imports_first_on_its_own():
    # fjast and fjtypes import each other: either may load first
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        name = "guidecheck" if path.stem == "__init__" else f"guidecheck.{path.stem}"
        done = _fresh(f"import {name}")
        assert done.returncode == 0, (name, done.stderr)


def test_a_program_is_built_right_after_importing_fjast():
    done = _fresh(
        "from guidecheck.fjast import Call, ClassDecl, MethodDecl, "
        "Param, Program\n"
        "go = MethodDecl('A', 'go', (Param('A', 'x'),), Call('x', '', 'go', ('x',)))\n"
        "prog = Program([ClassDecl('A', 'Object', (), (go,))])\n"
        "print(prog.classes[0].methods[0].body.recv_cls, prog.violations)\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["A", "()"]


def _nodes(pos):
    """One node of every class with fields, each carrying pos."""
    body = Emit(("a", "b"), pos, (pos, pos))
    field = FieldDecl("A", "f", pos)
    return [
        Var("x", pos), Null(pos), New("A", "l", pos),
        Cast("A", Var("x", pos), pos), body,
        Let("x", "A", Null(pos), body, pos),
        If("x", "y", body, Null(pos), pos),
        Call("x", "A", "m", ("y",), pos), GetField("x", "A", "f", pos),
        SetField("x", "A", "f", "y", pos), Throw(Var("x", pos), pos),
        TryCatch(body, "E", "e", Null(pos), pos), field,
        MethodDecl("Object", "m", (Param("A", "p"),), body, pos),
        ClassDecl("A", "Object", (field,), (), pos),
    ]


def _node_classes(cls=Node):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_classes(sub)


def test_the_samples_cover_every_node_class():
    sampled = {type(n) for n in _nodes(Pos(1, 2))}
    assert sampled | {Expr, Param, Pos} == set(_node_classes())


def test_nodes_compare_and_hash_without_their_positions():
    for a, b in zip(_nodes(Pos(1, 2)), _nodes(Pos(3, 4))):
        assert a.pos != b.pos
        assert a == b and hash(a) == hash(b)
    assert Var("x") != Var("y")
    assert Param("A", "f") != FieldDecl("A", "f")  # same fields, another class
    # the position of each event of a run is a position too
    assert Emit(("a", "b"), Pos(1, 2), (Pos(1, 2), Pos(1, 9))) == Emit(("a", "b"))
    assert Emit(("a", "b")) != Emit(("b", "a"))
    assert Pos(1, 2) == Pos(1, 2) != Pos(2, 1)
    assert Param("A", "p") != Param("A", "q")
    assert MethodDecl("Object", "m", (Param("A", "p"),), Null()) != \
        MethodDecl("Object", "m", (Param("A", "q"),), Null())


def test_repr_names_every_field():
    assert repr(Var("x", Pos(1, 2))) == "Var(name='x', pos=Pos(line=1, col=2))"
    shown = ("Emit(events=('a', 'b'), pos=Pos(line=1, col=2), "
             "event_pos=(Pos(line=1, col=2), Pos(line=1, col=10)))")
    where = (Pos(1, 2), Pos(1, 10))
    assert repr(Emit(("a", "b"), Pos(1, 2), where)) == shown
    assert repr(Emit(("a", "b"), Pos(1, 2), lambda: where)) == shown


def test_an_emit_gives_back_its_positions_or_works_them_out_on_each_read():
    where = (Pos(1, 2), Pos(1, 9))
    assert Emit(("a", "b"), Pos(1, 2), where).event_pos is where
    assert Emit(("a",)).event_pos is None
    reads = []
    emit = Emit(("a", "b"), Pos(1, 2), lambda: reads.append(1) or where)
    assert reads == []
    assert emit.event_pos == emit.event_pos == where and reads == [1, 1]
    assert emit == Emit(("a", "b")) and hash(emit) == hash(Emit(("a", "b")))
    with pytest.raises(AttributeError):
        emit.event_pos = where


def test_nodes_positions_and_parameters_refuse_assignment():
    for node in [*_nodes(Pos(1, 2)), Pos(1, 2), Param("A", "p")]:
        for name in node.__slots__:
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        with pytest.raises(AttributeError):
            node.extra = None


def test_stub_specs_refuse_assignment_and_keep_their_choices():
    alphabet = load_guideline(fixture("serve_liveness.gl")).alphabet
    specs = parse_config(read_fixture("serve.cfg"), alphabet)
    for spec in specs.values():
        choices = spec.choices()
        assert choices and spec.choices() is choices  # computed once
        for name in ("cls", "method", "emits", "throw_region", "extra"):
            with pytest.raises(AttributeError):
                setattr(spec, name, None)
        with pytest.raises(AttributeError):
            del spec.cls


TUPLE_RECORDS = [
    (MixAbs, ("fin", "inf"), (frozenset({1, 2}), frozenset({(1, 2)}))),
    (IntrinsicChoice, ("rank", "word"), (1, ("a", "b"))),
    (Regex, ("postfix", "alphabet"), (("a", "b", "."), ("a", "b"))),
]


@pytest.mark.parametrize("cls, names, values", TUPLE_RECORDS)
def test_a_tuple_record_behaves_as_the_named_tuple_it_replaces(cls, names,
                                                               values):
    named = namedtuple(cls.__name__, names)(*values)
    record = cls(*values)
    assert record == named == values and hash(record) == hash(values)
    assert cls(**dict(zip(names, values))) == record
    assert [getattr(record, n) for n in names] == [*record] == [*values]
    assert repr(record) == repr(named)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict
