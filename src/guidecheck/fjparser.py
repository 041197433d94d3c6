"""Surface lexer and parser for the object language.

The surface syntax is a small Java-like statement language::

    class Node extends Object {
        Node next;
        Node last() {
            Node n = this.next;
            Node z = null;
            emit step;
            if (n == z) { return this; } else { return n.last(); }
        }
    }

The parser reads statement sequences straight into the let-normal core,
with no separate desugaring pass: a sequence becomes a let chain with fresh
``$``-variables, a local a let, and ``return e;`` simply ends the chain.
Allocation sites may carry an explicit label (``new[l1] Node()``);
unlabeled sites get ``file:line:col``.  The parser builds a Program from
the raw classes, and building it types every method once
(``fjast.Program``): the receiver annotations on calls and field accesses
are filled in, a name error raises, and the typing violations stay on the
Program.  The printer behind the round-trip test lives in
``tests/fjprinter.py``.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .fjast import (
    OBJECT,
    Call,
    Cast,
    ClassDecl,
    Emit,
    Expr,
    FieldDecl,
    FjError,
    GetField,
    If,
    Let,
    MethodDecl,
    New,
    Null,
    Param,
    Pos,
    Program,
    SetField,
    Throw,
    TryCatch,
    Var,
)

_KEYWORDS = {
    "class",
    "extends",
    "emit",
    "return",
    "if",
    "else",
    "throw",
    "try",
    "catch",
    "new",
    "null",
}

# One alternative per token class.  '[' opens a raw label (labels may contain
# ':' and '.') and is in no other class, so an unclosed one matches nothing.
# ``\w+`` also matches runs starting with a digit such as '1' or '²'; _lex
# rejects those.
_TOKEN = re.compile(
    r"""
      (?P<newline>\n)
    | (?P<blank>[ \t\r]+)
    | (?P<comment>//[^\n]*)
    | \[(?P<label>[^\]]*)\]
    | (?P<punct>==|[{}();,.=\]])
    | (?P<id>\w+)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "id", "punct", "label", "eof"
    val: str
    line: int
    col: int

    @property
    def pos(self) -> Pos:
        return Pos(self.line, self.col)


def _lex(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col, i, n = 1, 1, 0, len(text)
    match = _TOKEN.match
    while i < n:
        m = match(text, i)
        c = text[i]
        if m is None or (m.lastgroup == "id" and not (c.isalpha() or c == "_")):
            msg = "unterminated '['" if c == "[" else f"unexpected character {c!r}"
            raise FjError(msg, Pos(line, col))
        kind, j = m.lastgroup, m.end()
        if kind == "newline":
            line, col, i = line + 1, 1, j
            continue
        if kind == "label":
            # a label spanning a newline does not advance the line count
            toks.append(Token("punct", "[", line, col))
            inner = m.group("label").strip()
            if inner:
                toks.append(Token("label", inner, line, col + 1))
            toks.append(Token("punct", "]", line, col + j - i - 1))
        elif kind in ("punct", "id"):
            toks.append(Token(kind, m.group(), line, col))
        col += j - i
        i = j
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parsing to raw (unannotated) syntax
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[Token], filename: str):
        self.toks = toks
        self.i = 0
        self.filename = filename
        self.fresh = 0  # the number of the method body's next $t variable
        self.unreachable: Pos | None = None  # a statement after a return

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, val: str) -> Token:
        t = self.advance()
        if t.val != val:
            raise FjError(f"expected {val!r}, found {t.val or 'end of input'!r}", t.pos)
        return t

    def ident(self, what: str = "identifier") -> Token:
        t = self.advance()
        if t.kind != "id" or t.val in _KEYWORDS:
            raise FjError(f"expected {what}, found {t.val or 'end of input'!r}", t.pos)
        return t

    # -- declarations -------------------------------------------------------

    def program(self) -> list[ClassDecl]:
        classes = []
        while self.peek().kind != "eof":
            classes.append(self.class_decl())
        return classes

    def class_decl(self) -> ClassDecl:
        kw = self.expect("class")
        name = self.ident("class name")
        parent = OBJECT
        if self.peek().val == "extends":
            self.advance()
            parent = self.ident("superclass name").val
        self.expect("{")
        fields: list[FieldDecl] = []
        methods: list[MethodDecl] = []
        while self.peek().val != "}":
            fields_or_method = self.member()
            if isinstance(fields_or_method, FieldDecl):
                fields.append(fields_or_method)
            else:
                methods.append(fields_or_method)
        self.expect("}")
        return ClassDecl(name.val, parent, tuple(fields), tuple(methods), pos=kw.pos)

    def member(self) -> FieldDecl | MethodDecl:
        cls = self.ident("member class")
        name = self.ident("member name")
        if self.peek().val == ";":
            self.advance()
            return FieldDecl(cls.val, name.val, pos=name.pos)
        self.expect("(")
        params: list[Param] = []
        if self.peek().val != ")":
            while True:
                pc = self.ident("parameter class")
                pn = self.ident("parameter name")
                params.append(Param(pc.val, pn.val))
                if self.peek().val != ",":
                    break
                self.advance()
        self.expect(")")
        self.fresh, self.unreachable = 0, None
        body = self.block()
        if self.unreachable is not None:
            raise FjError("unreachable statements after return",
                          self.unreachable)
        return MethodDecl(cls.val, name.val, tuple(params), body, pos=name.pos)

    # -- statements ---------------------------------------------------------

    def block(self) -> Expr:
        """The block's let chain, built as its statements are read: a local
        binds its variable, every other statement but the last a fresh
        ``$t`` variable, named once its nested blocks are, and the last
        statement or ``return e`` ends the chain.  A block of any length
        costs no stack, only a nested block does.  A statement after a
        return is an error once the method body is read, so that a syntax
        error later in the body is the one reported."""
        self.expect("{")
        spine = []  # (var, decl, init, pos) of each Let, outermost first
        tail: Expr = Null()
        while (t := self.peek()).val != "}":
            if t.val == "return":
                self.advance()
                tail = self.expr()
                self.expect(";")
                if self.peek().val != "}" and self.unreachable is None:
                    self.unreachable = self.peek().pos
            elif (t.kind == "id" and t.val not in _KEYWORDS
                  and self.peek(1).kind == "id"):
                cls = self.ident("class")
                var = self.ident("variable")
                self.expect("=")
                e = self.expr()
                self.expect(";")
                spine.append((var.val, cls.val, e, t.pos))
            else:
                node = self.stmt(t)
                if self.peek().val == "}":
                    tail = node
                else:  # node starts where the statement does, at node.pos
                    spine.append((f"$t{self.fresh}", None, node, node.pos))
                    self.fresh += 1
        self.expect("}")
        for var, decl, init, pos in reversed(spine):
            tail = Let(var, decl, init, tail, pos=pos)
        return tail

    def stmt(self, t: Token) -> Expr:
        """A statement that is neither a local nor a return; t is its first
        token, not yet read."""
        if t.val == "emit":
            self.advance()
            ev = self.ident("event name")
            self.expect(";")
            return Emit(ev.val, pos=t.pos)
        if t.val == "if":
            self.advance()
            self.expect("(")
            left = self.ident("variable")
            self.expect("==")
            right = self.ident("variable")
            self.expect(")")
            then = self.block()
            self.expect("else")
            els = self.block()
            return If(left.val, right.val, then, els, pos=t.pos)
        if t.val == "throw":
            self.advance()
            e = self.expr()
            self.expect(";")
            return Throw(e, pos=t.pos)
        if t.val == "try":
            self.advance()
            body = self.block()
            self.expect("catch")
            self.expect("(")
            ec = self.ident("exception class")
            ev = self.ident("variable")
            self.expect(")")
            handler = self.block()
            return TryCatch(body, ec.val, ev.val, handler, pos=t.pos)
        e = self.expr()
        self.expect(";")
        return e

    # -- expressions --------------------------------------------------------

    def expr(self) -> Expr:
        t = self.peek()
        if t.val == "null":
            self.advance()
            return Null(pos=t.pos)
        if t.val == "new":
            self.advance()
            label = None
            if self.peek().val == "[":
                self.advance()
                lt = self.advance()
                if lt.kind != "label":
                    raise FjError("expected a label inside [ ]", lt.pos)
                label = lt.val
                self.expect("]")
            cls = self.ident("class name")
            self.expect("(")
            self.expect(")")
            if label is None:
                label = f"{self.filename}:{t.line}:{t.col}"
            return New(cls.val, label, pos=t.pos)
        if t.val == "(":
            self.advance()
            cls = self.ident("cast class")
            self.expect(")")
            inner = self.expr()
            return Cast(cls.val, inner, pos=t.pos)
        recv = self.ident("variable")
        if self.peek().val != ".":
            return Var(recv.val, pos=recv.pos)
        self.advance()
        member = self.ident("member name")
        if self.peek().val == "(":
            self.advance()
            args = []
            if self.peek().val != ")":
                while True:
                    args.append(self.ident("argument variable").val)
                    if self.peek().val != ",":
                        break
                    self.advance()
            self.expect(")")
            return Call(recv.val, "", member.val, tuple(args), pos=t.pos)
        if self.peek().val == "=":
            self.advance()
            value = self.ident("variable")
            return SetField(recv.val, "", member.val, value.val, pos=t.pos)
        return GetField(recv.val, "", member.val, pos=t.pos)


def parse_program(
    text: str, filename: str = "<input>", alphabet: Iterable[str] | None = None
) -> Program:
    """Parse surface text into a Program with annotated, desugared bodies.

    When ``alphabet`` is given, every emitted event must belong to it.
    """
    return parse_programs([(text, filename)], alphabet)


def parse_programs(
    sources: Iterable[tuple[str, str]], alphabet: Iterable[str] | None = None
) -> Program:
    """Parse several (text, filename) units into one Program; classes may
    refer to classes from any unit."""
    raw_classes = []
    for text, filename in sources:
        raw_classes.extend(_Parser(_lex(text), filename).program())
    return Program(raw_classes, alphabet)
