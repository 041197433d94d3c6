"""Programs in the per-statement shape, the reference for word ``Emit`` nodes.

The parser reads the consecutive ``emit`` statements of a block as one run,
one ``Emit`` node holding the run's word and bound by one fresh ``$t``
variable.  Before that, each ``emit`` was a node of its own, and each but a
block's last statement was bound by a ``$t`` of its own.  ``split_emits``
rebuilds bodies in that shape: it splits every word ``Emit`` into a chain of
one-event ``Emit`` bindings and renumbers the fresh variables as that parser
named them, each once the blocks nested in its statement are named.  The
tests check that both shapes give the same tables, reports, runs and
witnesses.
"""

from __future__ import annotations

from typing import Iterable

from guidecheck.fjast import (
    ClassDecl,
    Emit,
    Expr,
    If,
    Let,
    MethodDecl,
    Program,
    TryCatch,
)
from guidecheck.fjparser import _lex, _Parser

_BLOCKS = {If: ("then", "els"), TryCatch: ("body", "handler")}


def split_emits(classes: Iterable[ClassDecl]) -> list[ClassDecl]:
    """Copies of classes, every node new, with per-statement bodies.  A
    receiver annotation is copied as it stands, so an annotated class copies
    to one that types the same."""
    return [ClassDecl(c.name, c.parent, c.fields,
                      tuple(MethodDecl(m.result, m.name, m.params,
                                       _Splitter().block(m.body), m.pos)
                            for m in c.methods), c.pos)
            for c in classes]


def parse_per_statement(sources: Iterable[tuple[str, str]],
                        alphabet: Iterable[str] | None = None) -> Program:
    """``fjparser.parse_programs`` with per-statement bodies."""
    raw = [c for text, filename in sources
           for c in _Parser(_lex(text), filename).program()]
    return Program(split_emits(raw), alphabet)


def _letters(e: Emit) -> list[Emit]:
    """One one-event Emit per event of e's word, each where it is named."""
    where = e.event_pos or (e.pos,) * len(e.events)
    return [Emit((ev,), pos, (pos,)) for ev, pos in zip(e.events, where)]


class _Splitter:
    """Splits one method body, as the parser builds it: a statement's
    binding, and no other, has a fresh ``$`` variable."""

    def __init__(self):
        self.count = 0  # the number of the body's next $t variable

    def fresh(self) -> str:
        self.count += 1
        return f"$t{self.count - 1}"

    def block(self, e: Expr) -> Expr:
        """A block's let chain: each statement's init is copied, naming its
        nested blocks' variables, before its own variable is named."""
        spine = []  # (var, decl, init, pos) of each Let, outermost first
        while isinstance(e, Let):
            if isinstance(e.init, Emit):
                spine += [(self.fresh(), None, one, one.pos)
                          for one in _letters(e.init)]
            else:
                init = self.expr(e.init)
                var = self.fresh() if e.var.startswith("$") else e.var
                spine.append((var, e.decl, init, e.pos))
            e = e.body
        if isinstance(e, Emit):
            *firsts, tail = _letters(e)
            spine += [(self.fresh(), None, one, one.pos) for one in firsts]
        else:
            tail = self.expr(e)
        for var, decl, init, pos in reversed(spine):
            tail = Let(var, decl, init, tail, pos)
        return tail

    def expr(self, e: Expr) -> Expr:
        """A copy of e; its nested blocks in order, then-block first."""
        if isinstance(e, Let):
            return self.block(e)
        blocks = _BLOCKS.get(type(e), ())
        values = []
        for n in e.__slots__:
            v = getattr(e, n)
            if n in blocks:
                v = self.block(v)
            elif isinstance(v, Expr):
                v = self.expr(v)
            values.append(v)
        return type(e)(*values)
