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
The consecutive ``emit`` statements of a block are read as one run, one
``Emit`` node holding their word and bound once; a run ends at a local, a
``return``, any other statement and the end of its block.
Allocation sites may carry an explicit label (``new[l1] Node()``);
unlabeled sites get ``file:line:col``; a label ends on its line.  The
parser builds a Program from the raw classes, which it keeps: it reads each
body in one pass and types every method once, filling the empty receiver
annotations in place (``fjast.Program``).  A name error raises, and the
typing violations stay on the Program.  The printer behind the round-trip
test lives in ``tests/fjprinter.py``.
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

# One scan: each match swallows the blanks before it and ends in one token
# class, so the matches tile the text and ``finditer`` yields every token in
# order.  '[' opens a raw label (labels may contain ':' and '.', not a
# newline) and is in no other class, so one not closed on its line falls
# through to ``bad``, any character no class takes; ``end`` takes the blanks
# at the end of the text.  ``\w+`` also
# matches runs starting with a digit such as '1' or '²'; _lex rejects those.
_TOKEN = re.compile(
    r"""
    [ \t\r]*
    (?:
      (?P<id>\w+)
    | (?P<punct>==|[{}();,.=\]])
    | (?P<newline>\n)
    | (?P<comment>//[^\n]*)
    | \[(?P<label>[^\]\n]*)\]
    | (?P<end>\Z)
    | (?P<bad>.)
    )
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
    """The tokens of text, ending in "eof".  A column counts the characters
    since the last newline token; no other token holds a newline."""
    toks: list[Token] = []
    line, line_start = 1, 0  # the line's number and its first index
    new = tuple.__new__
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "id":
            val = m.group(kind)
            c = val[0]
            if not (c.isalpha() or c == "_"):
                raise FjError(f"unexpected character {c!r}",
                              Pos(line, start - line_start + 1))
            toks.append(new(Token, ("id", val, line, start - line_start + 1)))
        elif kind == "punct":
            toks.append(new(Token, ("punct", m.group(kind), line,
                                    start - line_start + 1)))
        elif kind == "newline":
            line, line_start = line + 1, start + 1
        elif kind == "label":
            col = start - line_start  # that of the '[' before the label
            toks.append(Token("punct", "[", line, col))
            inner = m.group(kind).strip()
            if inner:
                toks.append(Token("label", inner, line, col + 1))
            toks.append(Token("punct", "]", line, m.end() - line_start))
        elif kind == "bad":
            c = m.group(kind)
            msg = "unterminated '['" if c == "[" else f"unexpected character {c!r}"
            raise FjError(msg, Pos(line, start - line_start + 1))
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
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
        binds its variable, every other statement (a run of emits is one)
        but the last a fresh ``$t`` variable, named once its nested blocks
        are, and the last statement or ``return e`` ends the chain.  A block
        of any length costs no stack, only a nested block does.  A statement after a
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
        """A statement that is neither a local nor a return, or a run of
        consecutive emits; t is its first token, not yet read."""
        if t.val == "emit":  # the run of emits that starts here
            events, where = [], []
            while self.peek().val == "emit":
                where.append(self.advance().pos)
                events.append(self.ident("event name").val)
                self.expect(";")
            return Emit(tuple(events), where[0], tuple(where))
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
