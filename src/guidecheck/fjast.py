"""Abstract syntax for the object language.

Expressions form a let-normal core: receivers, call arguments and comparison
operands are always variables, and every allocation site carries a unique
label.  The surface statement language (locals, sequencing, ``return``) is
desugared into this core by the parser; fresh variables introduced by
desugaring start with ``$`` and can never clash with source identifiers.
A run of consecutive ``emit`` statements of one block is one ``Emit`` node,
which holds the run's word: every layer reads, types and runs straight-line
code once per run.

Nodes are records (``Node``) whose ``__setattr__`` raises.  Their one write
is the empty receiver annotation of a call or field access, filled in place
by ``fjtypes`` while the node's Program is built, so such a node belongs to
one body of one Program.  Positions are kept on nodes for error reporting
but excluded from equality and hashing, so a program printed and reparsed
compares equal to the original.

A Program decides the class hierarchy once, when it is built: each class's
chain up to Object, its dispatch table and its fields with their declaring
classes (``Program._build_hierarchy``).  Subtyping, member lookup, the
class tables, the interpreter and the command line's checks all read these
tables; none walks a chain of its own.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

OBJECT = "Object"
NULL_TYPE = "NullType"

_set = object.__setattr__  # how a node's __init__ sets its fields


_POSITIONS = ("pos", "_where")  # the fields equality does not cover


class Node:
    """A record whose fields are its ``__slots__``, in the order of its
    constructor's parameters; none can be assigned.  Equality and the hash
    cover every field but the positions, ``pos`` and ``_where``; ``repr``
    shows the fields named by ``_shown``, by default every slot."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._compared = tuple(n for n in cls.__slots__ if n not in _POSITIONS)
        if "_shown" not in cls.__dict__:
            cls._shown = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{self.__class__.__qualname__}({fields})"

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
    """A run of consecutive ``emit`` statements of one block: its word,
    where the run starts, and where each of its events is named, for the
    error on an event outside the alphabet.

    ``event_pos`` is a tuple of positions or a function of no arguments
    that works them out, which each read of ``event_pos`` calls.  The
    parser passes a function over the tokens it read the run from: only
    that error reads the positions, so a parse builds no ``Pos`` per
    event."""

    __slots__ = ("events", "pos", "_where")
    _shown = ("events", "pos", "event_pos")

    def __init__(self, events: tuple[str, ...], pos: Pos | None = None,
                 event_pos: tuple[Pos, ...] | Callable[[], tuple[Pos, ...]]
                 | None = None):
        _set(self, "events", events)
        _set(self, "pos", pos)
        _set(self, "_where", event_pos)

    @property
    def event_pos(self) -> tuple[Pos, ...] | None:
        where = self._where
        return where() if callable(where) else where


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
        # static class of the receiver; empty ones are filled by typing
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


def _read_sets(nodes: list[Expr], out: dict) -> frozenset[str]:
    """The variables the body listed in preorder in nodes reads before
    binding them.  Read backward, each node finds its children's read sets
    on a stack, the first child on top.  Stores those of each ``Let`` body
    and handler in out by the node's id, one set shared along a spine."""
    stack: list[frozenset[str]] = []
    pop, push = stack.pop, stack.append
    for e in reversed(nodes):
        if isinstance(e, Let):
            init, names = pop(), pop()
            out[id(e.body)] = names
            if e.var in names or not init <= names:
                names = (names - {e.var}) | init
        elif isinstance(e, (Cast, Throw)):
            names = pop()
        elif isinstance(e, If):
            names = pop() | pop() | {e.left, e.right}
        elif isinstance(e, TryCatch):
            body, handler = pop(), pop()
            out[id(e.handler)] = handler
            names = body | (handler - {e.var})
        elif isinstance(e, Var):
            names = frozenset((e.name,))
        elif isinstance(e, Call):
            names = frozenset((e.recv, *e.args))
        elif isinstance(e, (GetField, SetField)):
            names = frozenset((e.recv, e.value) if isinstance(e, SetField) else (e.recv,))
        else:
            names = frozenset()
        push(names)
    return pop()


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
    a chain, unique allocation labels), decides the class hierarchy once
    (``_build_hierarchy``), reads each body in one pass (``_read_bodies``),
    then types every body once with ``fjtypes.check_classes``, which fills
    the empty receiver annotations of the classes it is given in place;
    ``violations`` holds the typing violations it found.  A name error
    raises FjError.  When ``alphabet`` is given, every emitted event must
    belong to it.  A Program is never changed after construction.
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
        self._build_hierarchy()
        self._read_bodies(None if alphabet is None else frozenset(alphabet))
        violations: list[FjError] = []
        fjtypes.check_classes(self, violations)
        self.violations: tuple[FjError, ...] = tuple(violations)

    def _build_hierarchy(self) -> None:
        """The hierarchy, decided once for every layer to read, in one pass
        over the classes, parents first.  Per class name:

        * ``chains``: the class, its parent, ..., Object;
        * ``dispatch``: method name -> (declaration, declaring class), the
          nearest class winning, and within a class its first declaration;
        * ``fields``: field name -> (declaration, declaring class), the
          inherited ones first, in declaration order.

        Object and NullType have empty dispatch and field tables; NullType,
        below every class, has no chain.  A class that declares no method
        (no field) shares its parent's table.  A class whose chain does not
        reach Object raises, naming the first such class declared, as does
        the first field redeclared down a chain, parents first."""
        order: list[ClassDecl] = []  # every class after its parent
        placed = {OBJECT}
        for c in self.classes:
            path: dict[str, ClassDecl] = {}  # c's unplaced ancestors, c first
            name = c.name
            while name not in placed:
                if name in path:
                    raise FjError(f"inheritance cycle through {c.name}", c.pos)
                path[name] = self.by_name[name]
                name = path[name].parent
            placed.update(path)
            order += reversed(path.values())
        chains: dict[str, tuple[str, ...]] = {OBJECT: (OBJECT,)}
        dispatch: dict[str, dict] = {OBJECT: {}, NULL_TYPE: {}}
        fields: dict[str, dict] = {OBJECT: {}, NULL_TYPE: {}}
        for c in order:
            chains[c.name] = (c.name, *chains[c.parent])
            own: dict[str, tuple[MethodDecl, str]] = {}
            for md in c.methods:
                own.setdefault(md.name, (md, c.name))
            up = dispatch[c.parent]
            dispatch[c.name] = {**up, **own} if own else up
            up = fields[c.parent]
            if c.fields:
                up = dict(up)
                for f in c.fields:
                    if f.name in up:
                        raise FjError(f"field {f.name} redeclared in {c.name}", f.pos)
                    up[f.name] = (f, c.name)
            fields[c.name] = up
        self.chains = chains
        self.dispatch = dispatch
        self.fields = fields

    def _read_bodies(self, alphabet: frozenset[str] | None) -> None:
        """One pass over each body's nodes in preorder: forward, the sites,
        events (each of an ``Emit``'s word) and calls (``calls``, by the
        body's id), where a duplicate label, an event outside alphabet
        (when given, at the position of the statement that names it) and a
        call or field access met twice raise, since typing fills a node's
        receiver annotation for the one body it is in; backward, the read
        sets (``reads``, by the id of each method body, ``Let`` body and
        handler), a property of the syntax and so computed with the
        program."""
        labels: dict[str, frozenset[str]] = {}  # label -> class allocated there
        events: set[str] = set()
        accesses: set[int] = set()  # ids of the calls and field accesses
        self.reads: dict[int, frozenset[str]] = {}
        self.calls: dict[int, list[Call]] = {}
        for c in self.classes:
            for m in c.methods:
                nodes = list(subexprs(m.body))
                calls = self.calls[id(m.body)] = []
                for e in nodes:
                    if isinstance(e, New):
                        if e.label in labels:
                            raise FjError(f"duplicate allocation label {e.label}", e.pos)
                        labels[e.label] = frozenset({e.cls})
                    elif isinstance(e, Emit):
                        if (alphabet is not None
                                and not alphabet.issuperset(e.events)):
                            i = next(i for i, ev in enumerate(e.events)
                                     if ev not in alphabet)
                            where = e.event_pos
                            raise FjError(f"event {e.events[i]} is not in the "
                                          "declared alphabet",
                                          where[i] if where else e.pos)
                        events.update(e.events)
                    elif isinstance(e, (Call, GetField, SetField)):
                        if id(e) in accesses:
                            raise FjError(f"one {e.__class__.__name__} node is "
                                          "used twice; bodies share no nodes", e.pos)
                        accesses.add(id(e))
                        if isinstance(e, Call):
                            calls.append(e)
                self.reads[id(m.body)] = _read_sets(nodes, self.reads)
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
