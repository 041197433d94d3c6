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
``return``, any other statement and the end of its block.  The lexer makes
one token of a run of ``emit NAME ;`` statements, and the parser reads its
names off the token's text; the positions of a run's events are worked out
from the tokens only when they are read.
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
from collections.abc import Iterable
from functools import partial
from operator import itemgetter

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
# order.  ``run`` takes a run of ``emit NAME ;`` statements with the blanks
# and newlines after each; _lex keeps it as one token when each name is an
# identifier and no keyword, and splits it into per-statement tokens
# otherwise.  Its alternative starts with the literal ``emit``, outside the
# group, so the engine skips it in C at a token that starts otherwise.
# '[' opens a raw label (labels may contain ':' and '.', not a newline) and
# is in no other class, so one not closed on its line falls through to
# ``bad``, any character no class takes; ``end`` takes the blanks at the end
# of the text.  ``\w+`` also matches runs starting with a digit such as '1'
# or '²'; _lex rejects those.  The pattern is compiled on import, and
# written without ``re.VERBOSE`` it compiles faster.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"emit(?P<run>[ \t\r]+\w+[ \t\r]*;[ \t\r\n]*"
    r"(?:emit[ \t\r]+\w+[ \t\r]*;[ \t\r\n]*)*)"
    r"|(?P<id>\w+)"
    r"|(?P<punct>==|[{}();,.=\]])"
    r"|(?P<newline>\n)"
    r"|(?P<comment>//[^\n]*)"
    r"|\[(?P<label>[^\]\n]*)\]"
    r"|(?P<end>\Z)"
    r"|(?P<bad>.)"
    r")"
)


class Token(tuple):
    """(kind, val, line, col): kind is "id", "punct", "label", "run" or
    "eof", and a run's val its text, from its first emit to the next token.
    A plain tuple subclass: it takes about 0.13 ms less to define on import
    than a ``NamedTuple``, which pays for compiling ``_TOKEN``'s ``run``."""

    __slots__ = ()
    kind = property(itemgetter(0))
    val = property(itemgetter(1))
    line = property(itemgetter(2))
    col = property(itemgetter(3))

    def __new__(cls, kind: str, val: str, line: int, col: int) -> Token:
        return tuple.__new__(cls, (kind, val, line, col))

    @property
    def pos(self) -> Pos:
        return Pos(self[2], self[3])


def _run_names(run: str) -> list[str]:
    """The event names of a run's text, in order: the words but ``emit``."""
    return run.replace(";", " ").split()[1::2]


def _run_positions(run: str, line: int, col: int) -> list[Pos]:
    """Where each ``emit`` of a run's text that starts at line:col is.  The
    run split at its ';'s gives each statement after the blanks and
    newlines before it, so a statement's first 'e' is its emit's."""
    where = []
    for s in run.split(";")[:-1]:
        j = s.find("e")
        k = s.rfind("\n", 0, j)
        if k < 0:  # col is the column of s's first character
            where.append(Pos(line, col + j))
            col += len(s) + 1
        else:
            line += s.count("\n", 0, j)
            where.append(Pos(line, j - k))
            col = len(s) - k + 1
    return where


def _event_positions(read: list[Token]) -> tuple[Pos, ...]:
    """Where each event of a run is named, from the tokens it was read
    from: run tokens, and the ``emit`` of each statement no run token
    took.  An ``Emit``'s ``event_pos`` calls this on each read."""
    where: list[Pos] = []
    for t in read:
        if t.kind == "run":
            where += _run_positions(t.val, t.line, t.col)
        else:
            where.append(t.pos)
    return tuple(where)


def _split_run(run: str, line: int, col: int) -> list[Token]:
    """The per-statement tokens of a run's text that starts at line:col: an
    ``emit``, a name and a ';' each, for a run _lex does not keep as one
    token.  A name that does not start with a letter or '_' raises where it
    starts, as in _lex."""
    toks = []
    for m in re.finditer(r"\n|\w+|;", run):
        val, at = m.group(), m.start()
        if val == "\n":
            line, col = line + 1, -at  # index at + 1 is column 1
        elif val == ";":
            toks.append(Token("punct", val, line, col + at))
        elif val[0].isalpha() or val[0] == "_":
            toks.append(Token("id", val, line, col + at))
        else:
            raise FjError(f"unexpected character {val[0]!r}",
                          Pos(line, col + at))
    return toks


def _lex(text: str) -> list[Token]:
    """The tokens of text, ending in "eof".  A column counts the characters
    since the last newline token.  No other token holds a newline but a
    "run", the text of a run of emit statements (``_TOKEN``), which the
    parser reads as one ``Emit``."""
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
        elif kind == "run":
            start -= 4  # the group starts after the run's first "emit"
            run = text[start:m.end()]
            col = start - line_start + 1
            names = _run_names(run)
            # each name starts with a letter or '_'
            if (_KEYWORDS.isdisjoint(names) and "".join(
                    [n[0] for n in names]).replace("_", "a").isalpha()):
                toks.append(new(Token, ("run", run, line, col)))
            else:
                toks += _split_run(run, line, col)
            k = run.rfind("\n")
            if k >= 0:
                line, line_start = line + run.count("\n"), start + k + 1
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


def _found(t: Token) -> str:
    """How an error names the token it found.  Only ``stmt`` reads a run
    token as a whole; any other read of one is an error at its first word,
    ``emit``, a keyword and no punctuation, as when each emit was a token."""
    return "emit" if t.kind == "run" else t.val or "end of input"


class _Parser:
    def __init__(self, toks: list[Token], filename: str):
        self.toks = toks
        self.i = 0
        self.filename = filename
        self.fresh = 0  # the number of the method body's next $t variable
        self.unreachable: Pos | None = None  # a statement after a return

    def peek(self, k: int = 0) -> Token:
        """The next token, or the one k after it: the parser never reads
        past "eof", the last token, and looks further only from another."""
        return self.toks[self.i + k]

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, val: str) -> Token:
        t = self.advance()
        if t.val != val:
            raise FjError(f"expected {val!r}, found {_found(t)!r}", t.pos)
        return t

    def ident(self, what: str = "identifier") -> Token:
        t = self.advance()
        if t.kind != "id" or t.val in _KEYWORDS:
            raise FjError(f"expected {what}, found {_found(t)!r}", t.pos)
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
                  and self.peek(1).kind in ("id", "run")):
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
        if t.kind == "run" or t.val == "emit":  # the run that starts here
            events, read = [], []
            while True:
                t = self.peek()
                if t.kind == "run":  # a run token is well formed
                    self.i += 1
                    events += _run_names(t.val)
                    read.append(t)
                elif t.val == "emit":
                    read.append(self.advance())
                    events.append(self.ident("event name").val)
                    self.expect(";")
                else:
                    return Emit(tuple(events), read[0].pos,
                                partial(_event_positions, read))
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
