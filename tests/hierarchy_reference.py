"""The class hierarchy by walking parent links, kept as the reference the
Program's tables are checked against.

``Program`` decides chains, dispatch and field owners once, parents first.
These functions walk up from one class each time they are asked, as
Featherweight Java's ``fields``, ``mbody`` and subtyping read the class
table (Igarashi, Pierce and Wadler, 2001): quadratic on a deep chain, but
obviously right on the programs the tests build.
"""

from __future__ import annotations

from guidecheck.fjast import NULL_TYPE, OBJECT, FieldDecl, MethodDecl, Program


def supers(prog: Program, cls: str) -> list[str]:
    """The chain cls, parent, ..., Object (for declared cls)."""
    chain = []
    while cls != OBJECT:
        chain.append(cls)
        cls = prog.by_name[cls].parent
    chain.append(OBJECT)
    return chain


def lookup(prog: Program, cls: str, m: str) -> tuple[MethodDecl, str] | None:
    """The declaration a call of m on cls runs, and its declaring class:
    the nearest class declaring m, and its first declaration of m."""
    for x in supers(prog, cls)[:-1]:
        for md in prog.by_name[x].methods:
            if md.name == m:
                return md, x
    return None


def methods_of(prog: Program, cls: str) -> dict[str, tuple[MethodDecl, str]]:
    """Every method visible on cls, resolved by ``lookup``, in the order of
    first declaration from Object down."""
    if cls in (OBJECT, NULL_TYPE):
        return {}
    names = dict.fromkeys(md.name for x in reversed(supers(prog, cls)[:-1])
                          for md in prog.by_name[x].methods)
    return {m: lookup(prog, cls, m) for m in names}


def fields_of(prog: Program, cls: str) -> tuple[FieldDecl, ...]:
    """The fields of cls, inherited ones first, in declaration order."""
    if cls in (OBJECT, NULL_TYPE):
        return ()
    return tuple(f for x in reversed(supers(prog, cls)[:-1])
                 for f in prog.by_name[x].fields)


def field_owner(prog: Program, cls: str, fname: str) -> str | None:
    """The class declaring the field fname that cls has, or None."""
    if cls in (OBJECT, NULL_TYPE):
        return None
    for x in supers(prog, cls)[:-1]:
        if any(f.name == fname for f in prog.by_name[x].fields):
            return x
    return None
