"""Subtyping, member lookup and the one typing walk over method bodies.

The class hierarchy is single-inheritance with Object on top and NullType
below every class; neither is ever declared.  Subtyping and member lookup
read the chains, dispatch and field tables the Program decided when it was
built.  ``check_method`` is the only place that works out static classes:
one walk over a body, which fills each empty receiver annotation in place
(``_receiver``), the one write to a node, made while its Program is built;
``Node.__setattr__`` still raises.  Name errors (unknown variable, class or
member) raise FjError; typing violations are collected and the walk goes
on.  ``check_classes`` adds the redeclaration and override checks and types
every body; a Program runs it once, when it is built, and keeps the
violations for ``fj_typecheck``.
"""

from __future__ import annotations

from .fjast import (
    NULL_TYPE,
    OBJECT,
    Call,
    Cast,
    ClassDecl,
    Emit,
    Expr,
    FjError,
    GetField,
    If,
    Let,
    MethodDecl,
    New,
    Null,
    Program,
    SetField,
    Throw,
    TryCatch,
    Var,
)


def known_class(prog: Program, name: str) -> bool:
    return name in (OBJECT, NULL_TYPE) or name in prog.by_name


def preceq(prog: Program, c: str, d: str) -> bool:
    """Reflexive-transitive subclassing, with NullType below everything."""
    if not known_class(prog, c):
        raise FjError(f"unknown class {c}")
    if not known_class(prog, d):
        raise FjError(f"unknown class {d}")
    if c == d or c == NULL_TYPE or d == OBJECT:
        return True
    if d == NULL_TYPE or c == OBJECT:
        return False
    return d in prog.chains[c]


def lub(prog: Program, c: str, d: str) -> str:
    """Least common superclass; exists because chains are linear."""
    if preceq(prog, c, d):
        return d
    if preceq(prog, d, c):
        return c
    above = set(prog.chains[d])
    return next(x for x in prog.chains[c] if x in above)


def method_lookup(prog: Program, cls: str, m: str) -> tuple[MethodDecl, str]:
    """The declaration a call of m on cls runs, and its declaring class."""
    if cls in (OBJECT, NULL_TYPE):
        raise FjError(f"method {m} not found on {cls}")
    target = prog.dispatch[cls].get(m)
    if target is None:
        raise FjError(f"method {m} not found along the superclass chain of {cls}")
    return target


def field_class(prog: Program, cls: str, fname: str) -> str | None:
    """The declared class of field fname of cls, or None if cls has none."""
    field = prog.fields[cls].get(fname)
    return None if field is None else field[0].cls


def fj_typecheck(prog: Program) -> list[FjError]:
    """The typing violations of prog (empty = ok), found when it was built."""
    return list(prog.violations)


def check_classes(prog: Program, errors: list[FjError]) -> None:
    """Type every body of prog's classes with ``check_method``.  Per class,
    the declaration checks, the override checks, then each method append
    their violations to errors in that order.  A name error raises."""
    for c in prog.classes:
        _check_declarations(c, errors)
        _check_overrides(prog, c, errors)
        for md in c.methods:
            check_method(prog, c.name, md, errors)


def check_method(prog: Program, cls: str, md: MethodDecl,
                 errors: list[FjError]) -> None:
    """Type md's body in class cls, filling every empty receiver annotation
    in place.  Raises FjError at the first name error; appends each typing
    violation to errors and goes on."""
    for p in md.params:
        if p.cls != OBJECT and p.cls not in prog.by_name:
            raise FjError(f"unknown parameter class {p.cls}", md.pos)
    env = {"this": cls, **{p.name: p.cls for p in md.params}}
    if not known_class(prog, md.result):
        errors.append(FjError(f"unknown result class {md.result}", md.pos))
        _type_expr(prog, env, md.body, [])
    else:
        t = _type_expr(prog, env, md.body, errors)
        if not preceq(prog, t, md.result):
            errors.append(FjError(f"body of {cls}.{md.name} has type {t}, "
                                  f"not a subclass of declared {md.result}", md.pos))


def _check_declarations(c: ClassDecl, errors: list[FjError]) -> None:
    """A class declares each method once, and a method each parameter once,
    none of them named ``this``."""
    names: set[str] = set()
    for md in c.methods:
        if md.name in names:
            errors.append(FjError(f"method {md.name} redeclared in {c.name}", md.pos))
        names.add(md.name)
        where = f"{c.name}.{md.name}"
        params: set[str] = set()
        for p in md.params:
            if p.name == "this":
                errors.append(FjError(f"parameter name this is reserved in {where}", md.pos))
            elif p.name in params:
                errors.append(FjError(f"parameter {p.name} redeclared in {where}", md.pos))
            params.add(p.name)


def _check_overrides(prog: Program, c: ClassDecl, errors: list[FjError]) -> None:
    inherited = prog.dispatch[c.parent]
    for md in c.methods:
        if md.name in inherited:
            sup, where = inherited[md.name]
            same = sup.result == md.result and tuple(p.cls for p in sup.params) == tuple(
                p.cls for p in md.params
            )
            if not same:
                errors.append(
                    FjError(
                        f"{c.name}.{md.name} overrides {where}.{md.name} "
                        "with a different signature",
                        md.pos,
                    )
                )


def _type_expr(prog: Program, env: dict[str, str], e: Expr,
               errors: list[FjError]) -> str:
    """The static class of e.  At each node the name errors raise before any
    violation is appended."""
    if isinstance(e, Var):
        return _lookup(env, e.name, e.pos)
    if isinstance(e, Null):
        return NULL_TYPE
    if isinstance(e, New):
        if e.cls not in prog.by_name:
            raise FjError(f"cannot allocate undeclared class {e.cls}", e.pos)
        return e.cls
    if isinstance(e, Emit):
        return NULL_TYPE
    if isinstance(e, Cast):
        if e.cls != OBJECT and e.cls not in prog.by_name:
            raise FjError(f"unknown cast class {e.cls}", e.pos)
        _type_expr(prog, env, e.expr, errors)
        return e.cls
    if isinstance(e, Let):
        return _type_spine(prog, env, e, errors)
    if isinstance(e, If):
        _lookup(env, e.left, e.pos)
        _lookup(env, e.right, e.pos)
        return lub(prog, _type_expr(prog, env, e.then, errors),
                   _type_expr(prog, env, e.els, errors))
    if isinstance(e, Call):
        rt, ann = _receiver(prog, env, e)
        try:
            md, _ = method_lookup(prog, ann, e.method)
        except FjError:
            raise FjError(f"no method {e.method} on {ann}", e.pos) from None
        arg_types = [_lookup(env, a, e.pos) for a in e.args]
        _check_annotation(prog, e, rt, ann, errors)
        if len(md.params) != len(e.args):
            errors.append(FjError(f"{ann}.{e.method} expects {len(md.params)} args", e.pos))
        else:
            for a, t, p in zip(e.args, arg_types, md.params):
                if not preceq(prog, t, p.cls):
                    errors.append(
                        FjError(f"argument {a}: {t} is not a subclass of {p.cls}", e.pos)
                    )
        return md.result
    if isinstance(e, (GetField, SetField)):
        rt, ann = _receiver(prog, env, e)
        fc = field_class(prog, ann, e.fname)
        if fc is None:
            raise FjError(f"no field {e.fname} on {ann}", e.pos)
        t = fc if isinstance(e, GetField) else _lookup(env, e.value, e.pos)
        _check_annotation(prog, e, rt, ann, errors)
        if not preceq(prog, t, fc):
            errors.append(FjError(f"assigning {t} into field {e.fname}: {fc}", e.pos))
        return t
    if isinstance(e, Throw):
        _type_expr(prog, env, e.expr, errors)
        return NULL_TYPE
    if isinstance(e, TryCatch):
        t1 = _type_expr(prog, env, e.body, errors)
        if e.exc_cls != OBJECT and e.exc_cls not in prog.by_name:
            raise FjError(f"unknown exception class {e.exc_cls}", e.pos)
        if e.var in env:
            errors.append(FjError(f"variable {e.var} already declared", e.pos))
        env2 = dict(env)
        env2[e.var] = e.exc_cls
        t2 = _type_expr(prog, env2, e.handler, errors)
        return lub(prog, t1, t2)
    raise AssertionError(f"unhandled expression {e!r}")


def _type_spine(prog: Program, env: dict[str, str], e: Let,
                errors: list[FjError]) -> str:
    """``_type_expr`` of a let spine, followed in a loop: each init, then
    each binding's checks, in order, and the tail."""
    env = dict(env)
    while isinstance(e, Let):
        t1 = _type_expr(prog, env, e.init, errors)
        if e.decl is not None and e.decl != OBJECT and e.decl not in prog.by_name:
            raise FjError(f"unknown class {e.decl}", e.pos)
        if e.var in env:
            errors.append(FjError(f"variable {e.var} already declared", e.pos))
        if e.decl is not None and not preceq(prog, t1, e.decl):
            errors.append(
                FjError(f"initializer of {e.var} has type {t1}, expected {e.decl}", e.pos)
            )
        env[e.var] = e.decl if e.decl is not None else t1
        e = e.body
    return _type_expr(prog, env, e, errors)


def _lookup(env: dict[str, str], name: str, pos) -> str:
    if name not in env:
        raise FjError(f"unbound variable {name}", pos)
    return env[name]


def _receiver(prog: Program, env: dict[str, str], e) -> tuple[str, str]:
    """The static class of e's receiver, and the class whose members e uses:
    its annotation if it has one, else that static class, which then fills
    the annotation in place: the one write to a node."""
    rt = _lookup(env, e.recv, e.pos)
    ann = e.recv_cls or rt
    if ann not in prog.by_name:
        raise FjError(f"receiver {e.recv} has type {ann}, which has no members", e.pos)
    if not e.recv_cls:
        object.__setattr__(e, "recv_cls", ann)
    return rt, ann


def _check_annotation(prog: Program, e, rt: str, ann: str, errors: list[FjError]) -> None:
    if not preceq(prog, rt, ann):
        errors.append(
            FjError(f"receiver {e.recv} has type {rt}, annotation says {ann}", e.pos)
        )
