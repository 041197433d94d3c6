"""Abstract syntax for the object language.

Expressions form a let-normal core: receivers, call arguments and comparison
operands are always variables, and every allocation site carries a unique
label.  The surface statement language (locals, sequencing, ``return``) is
desugared into this core by the parser; fresh variables introduced by
desugaring start with ``$`` and can never clash with source identifiers.

Nodes are immutable records (``Node``).  Positions are kept on nodes for
error reporting but excluded from equality and hashing, so a program printed
and reparsed compares equal to the original; ``replace`` keeps a node's
position unless it is given a new one.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

OBJECT = "Object"
NULL_TYPE = "NullType"

_set = object.__setattr__  # how a node's __init__ sets its fields


class Node:
    """An immutable record whose fields are its ``__slots__``, in the order
    of its constructor's parameters.  Equality and the hash cover every
    field but ``pos``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._compared = tuple(n for n in cls.__slots__ if n != "pos")

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def replace(self, **changes) -> "Node":
        """This node with the given fields changed and the others, its
        position included, kept."""
        values = [changes.pop(n, getattr(self, n)) for n in self.__slots__]
        if changes:
            raise TypeError(f"{self.__class__.__qualname__} has no field "
                            f"{next(iter(changes))!r}")
        return self.__class__(*values)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Pos(Node):
    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int):
        _set(self, "line", line)
        _set(self, "col", col)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class FjError(Exception):
    """Syntax or well-formedness error in a source program."""

    def __init__(self, message: str, pos: Pos | None = None):
        self.pos = pos
        super().__init__(f"{pos}: {message}" if pos else message)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class Var(Expr):
    __slots__ = ("name", "pos")

    def __init__(self, name: str, pos: Pos | None = None):
        _set(self, "name", name)
        _set(self, "pos", pos)


class Null(Expr):
    __slots__ = ("pos",)

    def __init__(self, pos: Pos | None = None):
        _set(self, "pos", pos)


class New(Expr):
    __slots__ = ("cls", "label", "pos")

    def __init__(self, cls: str, label: str, pos: Pos | None = None):
        _set(self, "cls", cls)
        _set(self, "label", label)
        _set(self, "pos", pos)


class Cast(Expr):
    __slots__ = ("cls", "expr", "pos")

    def __init__(self, cls: str, expr: Expr, pos: Pos | None = None):
        _set(self, "cls", cls)
        _set(self, "expr", expr)
        _set(self, "pos", pos)


class Emit(Expr):
    __slots__ = ("event", "pos")

    def __init__(self, event: str, pos: Pos | None = None):
        _set(self, "event", event)
        _set(self, "pos", pos)


class Let(Expr):
    __slots__ = ("var", "decl", "init", "body", "pos")

    def __init__(self, var: str, decl: str | None, init: Expr, body: Expr,
                 pos: Pos | None = None):
        _set(self, "var", var)
        # declared class for surface locals, None for fresh names
        _set(self, "decl", decl)
        _set(self, "init", init)
        _set(self, "body", body)
        _set(self, "pos", pos)


class If(Expr):
    __slots__ = ("left", "right", "then", "els", "pos")

    def __init__(self, left: str, right: str, then: Expr, els: Expr,
                 pos: Pos | None = None):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "then", then)
        _set(self, "els", els)
        _set(self, "pos", pos)


class Call(Expr):
    __slots__ = ("recv", "recv_cls", "method", "args", "pos")

    def __init__(self, recv: str, recv_cls: str, method: str,
                 args: tuple[str, ...], pos: Pos | None = None):
        _set(self, "recv", recv)
        # static class of the receiver, filled by the parser
        _set(self, "recv_cls", recv_cls)
        _set(self, "method", method)
        _set(self, "args", args)
        _set(self, "pos", pos)


class GetField(Expr):
    __slots__ = ("recv", "recv_cls", "fname", "pos")

    def __init__(self, recv: str, recv_cls: str, fname: str,
                 pos: Pos | None = None):
        _set(self, "recv", recv)
        _set(self, "recv_cls", recv_cls)
        _set(self, "fname", fname)
        _set(self, "pos", pos)


class SetField(Expr):
    __slots__ = ("recv", "recv_cls", "fname", "value", "pos")

    def __init__(self, recv: str, recv_cls: str, fname: str, value: str,
                 pos: Pos | None = None):
        _set(self, "recv", recv)
        _set(self, "recv_cls", recv_cls)
        _set(self, "fname", fname)
        _set(self, "value", value)
        _set(self, "pos", pos)


class Throw(Expr):
    __slots__ = ("expr", "pos")

    def __init__(self, expr: Expr, pos: Pos | None = None):
        _set(self, "expr", expr)
        _set(self, "pos", pos)


class TryCatch(Expr):
    __slots__ = ("body", "exc_cls", "var", "handler", "pos")

    def __init__(self, body: Expr, exc_cls: str, var: str, handler: Expr,
                 pos: Pos | None = None):
        _set(self, "body", body)
        _set(self, "exc_cls", exc_cls)
        _set(self, "var", var)
        _set(self, "handler", handler)
        _set(self, "pos", pos)


def subexprs(e: Expr) -> Iterator[Expr]:
    """Yield e and every expression nested inside it, in preorder.
    Iterative, so a deeply nested body cannot exhaust the Python stack."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, Cast):
            stack.append(e.expr)
        elif isinstance(e, Let):
            stack += (e.body, e.init)
        elif isinstance(e, If):
            stack += (e.els, e.then)
        elif isinstance(e, Throw):
            stack.append(e.expr)
        elif isinstance(e, TryCatch):
            stack += (e.handler, e.body)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class FieldDecl(Node):
    __slots__ = ("cls", "name", "pos")

    def __init__(self, cls: str, name: str, pos: Pos | None = None):
        _set(self, "cls", cls)  # declared class of the field's contents
        _set(self, "name", name)
        _set(self, "pos", pos)


class Param(Node):
    __slots__ = ("cls", "name")

    def __init__(self, cls: str, name: str):
        _set(self, "cls", cls)
        _set(self, "name", name)


class MethodDecl(Node):
    __slots__ = ("result", "name", "params", "body", "pos")

    def __init__(self, result: str, name: str, params: tuple[Param, ...],
                 body: Expr, pos: Pos | None = None):
        _set(self, "result", result)
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "body", body)
        _set(self, "pos", pos)


class ClassDecl(Node):
    __slots__ = ("name", "parent", "fields", "methods", "pos")

    def __init__(self, name: str, parent: str, fields: tuple[FieldDecl, ...],
                 methods: tuple[MethodDecl, ...], pos: Pos | None = None):
        _set(self, "name", name)
        _set(self, "parent", parent)  # OBJECT or a declared class name
        # declared here; inherited ones live upstream
        _set(self, "fields", fields)
        _set(self, "methods", methods)
        _set(self, "pos", pos)


class Program:
    """Class declarations plus the lookup tables derived from them.

    Construction validates shape-level well-formedness (unique class names,
    an acyclic parent relation rooted at Object, no field redeclaration along
    a chain, unique allocation labels), then types every body once with
    ``fjtypes.typed_classes``: ``classes`` holds the bodies with their
    receiver annotations filled in, and ``violations`` the typing violations
    that walk found.  A name error raises FjError.  When ``alphabet`` is
    given, every emitted event must belong to it.  A Program is never
    changed after construction.
    """

    def __init__(self, classes: Sequence[ClassDecl],
                 alphabet: Iterable[str] | None = None):
        self.classes: tuple[ClassDecl, ...] = tuple(classes)
        self.by_name: dict[str, ClassDecl] = {}
        for c in self.classes:
            if c.name in (OBJECT, NULL_TYPE):
                raise FjError(f"class name {c.name} is reserved", c.pos)
            if c.name in self.by_name:
                raise FjError(f"duplicate class {c.name}", c.pos)
            self.by_name[c.name] = c
        for c in self.classes:
            if c.parent != OBJECT and c.parent not in self.by_name:
                raise FjError(f"unknown superclass {c.parent} of {c.name}", c.pos)
        self._check_acyclic()
        self._fields: dict[str, tuple[FieldDecl, ...]] = {}
        for c in self.classes:
            self._fields[c.name] = self._collect_fields(c)
        self._collect_labels_and_events()
        # typing changes nothing but method bodies, so the shape checks,
        # labels and alphabet above hold for the typed classes too
        violations: list[FjError] = []
        self.classes = tuple(fjtypes.typed_classes(
            self, violations, None if alphabet is None else frozenset(alphabet)))
        self.by_name = {c.name: c for c in self.classes}
        self.violations: tuple[FjError, ...] = tuple(violations)

    def _check_acyclic(self) -> None:
        for c in self.classes:
            seen = {c.name}
            cur = c.parent
            while cur != OBJECT:
                if cur in seen:
                    raise FjError(f"inheritance cycle through {c.name}", c.pos)
                seen.add(cur)
                cur = self.by_name[cur].parent

    def supers(self, cls: str) -> list[str]:
        """The chain cls, parent, ..., Object (for declared cls)."""
        chain = []
        cur = cls
        while cur != OBJECT:
            chain.append(cur)
            cur = self.by_name[cur].parent
        chain.append(OBJECT)
        return chain

    def _collect_fields(self, c: ClassDecl) -> tuple[FieldDecl, ...]:
        inherited: tuple[FieldDecl, ...] = ()
        if c.parent != OBJECT:
            inherited = self._fields.get(c.parent)
            if inherited is None:
                inherited = self._collect_fields(self.by_name[c.parent])
        names = {f.name for f in inherited}
        for f in c.fields:
            if f.name in names:
                raise FjError(f"field {f.name} redeclared in {c.name}", f.pos)
            names.add(f.name)
        return inherited + c.fields

    def fields_of(self, cls: str) -> tuple[FieldDecl, ...]:
        """Fields of a declared class, inherited ones included."""
        if cls == OBJECT or cls == NULL_TYPE:
            return ()
        return self._fields[cls]

    def _collect_labels_and_events(self) -> None:
        labels: dict[str, frozenset[str]] = {}  # label -> class allocated there
        events: set[str] = set()
        for c in self.classes:
            for m in c.methods:
                for e in subexprs(m.body):
                    if isinstance(e, New):
                        if e.label in labels:
                            raise FjError(f"duplicate allocation label {e.label}", e.pos)
                        labels[e.label] = frozenset({e.cls})
                    elif isinstance(e, Emit):
                        events.add(e.event)
        self.labels: tuple[str, ...] = tuple(labels)
        self.alphabet: frozenset[str] = frozenset(events)
        self._label_classes = labels

    def new_classes_at(self, label: str) -> frozenset[str]:
        """Classes allocated at a given label (at most one in a valid program)."""
        return self._label_classes.get(label, frozenset())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and self.classes == other.classes

    def __hash__(self) -> int:
        return hash(self.classes)

    def __repr__(self) -> str:
        return f"Program({[c.name for c in self.classes]})"


# fjtypes reads the node classes above, so it is imported once they exist
from . import fjtypes  # noqa: E402
