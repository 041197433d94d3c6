"""Abstract syntax for the object language.

Expressions form a let-normal core: receivers, call arguments and comparison
operands are always variables, and every allocation site carries a unique
label.  The surface statement language (locals, sequencing, ``return``) is
desugared into this core by the parser; fresh variables introduced by
desugaring start with ``$`` and can never clash with source identifiers.

Positions are kept on nodes for error reporting but excluded from equality,
so a program printed and reparsed compares equal to the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

OBJECT = "Object"
NULL_TYPE = "NullType"


@dataclass(frozen=True)
class Pos:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class FjError(Exception):
    """Syntax or well-formedness error in a source program."""

    def __init__(self, message: str, pos: Pos | None = None):
        self.message = message
        self.pos = pos
        super().__init__(f"{pos}: {message}" if pos else message)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Var(Expr):
    name: str
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Null(Expr):
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class New(Expr):
    cls: str
    label: str
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Cast(Expr):
    cls: str
    expr: Expr
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Emit(Expr):
    event: str
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Let(Expr):
    var: str
    decl: str | None  # declared class for surface locals, None for fresh names
    init: Expr
    body: Expr
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class If(Expr):
    left: str
    right: str
    then: Expr
    els: Expr
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Call(Expr):
    recv: str
    recv_cls: str  # static class of the receiver, filled by the parser
    method: str
    args: tuple[str, ...]
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class GetField(Expr):
    recv: str
    recv_cls: str
    fname: str
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SetField(Expr):
    recv: str
    recv_cls: str
    fname: str
    value: str
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Throw(Expr):
    expr: Expr
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TryCatch(Expr):
    body: Expr
    exc_cls: str
    var: str
    handler: Expr
    pos: Pos | None = field(default=None, compare=False)


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


@dataclass(frozen=True)
class FieldDecl:
    cls: str  # declared class of the field's contents
    name: str
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Param:
    cls: str
    name: str


@dataclass(frozen=True)
class MethodDecl:
    result: str
    name: str
    params: tuple[Param, ...]
    body: Expr
    pos: Pos | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ClassDecl:
    name: str
    parent: str  # OBJECT or a declared class name
    fields: tuple[FieldDecl, ...]  # declared here; inherited ones live upstream
    methods: tuple[MethodDecl, ...]
    pos: Pos | None = field(default=None, compare=False)


class Program:
    """Class declarations plus the lookup tables derived from them.

    Construction validates shape-level well-formedness: unique class names,
    an acyclic parent relation rooted at Object, no field redeclaration along
    a chain, unique allocation labels.  Typing proper lives in fjtypes.

    ``violations`` holds the typing violations of a parsed program, found by
    the one typing walk that also annotated its bodies; it is None for a
    program built by hand, which ``fjtypes.fj_typecheck`` walks itself.
    """

    def __init__(self, classes: Sequence[ClassDecl]):
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
        self.violations: tuple[FjError, ...] | None = None

    def set_typing(
        self, classes: Sequence[ClassDecl], violations: Sequence[FjError]
    ) -> None:
        """Swap in the same classes with typed bodies, and keep the
        violations their typing found.  Typing changes nothing but method
        bodies, so the shape checks, labels and alphabet still hold."""
        self.classes = tuple(classes)
        self.by_name = {c.name: c for c in self.classes}
        self.violations = tuple(violations)

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
