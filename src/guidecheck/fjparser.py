"""Surface lexer, parser and desugarer for the object language.

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

Statement sequences desugar into let chains with fresh ``$``-variables,
locals into lets, and ``return e;`` simply ends the chain.  Allocation sites
may carry an explicit label (``new[l1] Node()``); unlabeled sites get
``file:line:col``.  The parser builds a Program from the raw classes, and
building it types every method once (``fjast.Program``): the receiver
annotations on calls and field accesses are filled in, a name error raises,
and the typing violations stay on the Program.  The printer behind the
round-trip test lives in ``tests/fjprinter.py``.
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
        body = self.block()
        return MethodDecl(cls.val, name.val, tuple(params), _desugar(body), pos=name.pos)

    # -- statements ---------------------------------------------------------

    def block(self) -> list[tuple]:
        self.expect("{")
        stmts = []
        while self.peek().val != "}":
            stmts.append(self.stmt())
        self.expect("}")
        return stmts

    def stmt(self) -> tuple:
        t = self.peek()
        if t.val == "emit":
            self.advance()
            ev = self.ident("event name")
            self.expect(";")
            return ("emit", ev.val, t.pos)
        if t.val == "return":
            self.advance()
            e = self.expr()
            self.expect(";")
            return ("return", e, t.pos)
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
            return ("if", left.val, right.val, then, els, t.pos)
        if t.val == "throw":
            self.advance()
            e = self.expr()
            self.expect(";")
            return ("throw", e, t.pos)
        if t.val == "try":
            self.advance()
            body = self.block()
            self.expect("catch")
            self.expect("(")
            ec = self.ident("exception class")
            ev = self.ident("variable")
            self.expect(")")
            handler = self.block()
            return ("try", body, ec.val, ev.val, handler, t.pos)
        if t.kind == "id" and t.val not in _KEYWORDS and self.peek(1).kind == "id":
            cls = self.ident("class")
            var = self.ident("variable")
            self.expect("=")
            e = self.expr()
            self.expect(";")
            return ("local", cls.val, var.val, e, t.pos)
        e = self.expr()
        self.expect(";")
        return ("expr", e, t.pos)

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


def _desugar(stmts: list[tuple]) -> Expr:
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"$t{counter[0] - 1}"

    def go(items: list[tuple]) -> Expr:
        """The chain of items, built in a loop: a block of any length costs
        no stack, only a nested block does."""
        spine = []  # (var, decl, init, pos) of each Let, outermost first
        tail: Expr = Null()
        for i, head in enumerate(items):
            last = i + 1 == len(items)
            tag = head[0]
            if tag == "local":
                _, cls, var, e, pos = head
                spine.append((var, cls, e, pos))
                continue
            if tag == "return":
                _, tail, pos = head
                if not last:
                    raise FjError("unreachable statements after return",
                                  items[i + 1][-1])
                break
            if tag == "emit":
                _, ev, pos = head
                node: Expr = Emit(ev, pos=pos)
            elif tag == "if":
                _, left, right, then, els, pos = head
                node = If(left, right, go(then), go(els), pos=pos)
            elif tag == "throw":
                _, e, pos = head
                node = Throw(e, pos=pos)
            elif tag == "try":
                _, body, ec, ev, handler, pos = head
                node = TryCatch(go(body), ec, ev, go(handler), pos=pos)
            else:
                assert tag == "expr"
                _, node, pos = head
            if last:
                tail = node
            else:
                spine.append((fresh(), None, node, pos))
        for var, decl, init, pos in reversed(spine):
            tail = Let(var, decl, init, tail, pos=pos)
        return tail

    return go(stmts)


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
