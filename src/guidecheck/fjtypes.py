"""Subtyping, member lookup and the one typing walk over method bodies.

The class hierarchy is single-inheritance with Object on top and NullType
below every class; neither is ever declared.  ``check_method`` is the only
place that works out static classes: one walk returns a body with its
receiver annotations filled in.  Name errors (unbound variable, unknown
class or member, event outside the alphabet) raise FjError; typing
violations are collected and the walk goes on.  ``typed_classes`` adds the
redeclaration and invariant-override checks and types every body; the
parser runs it once per program and keeps the violations on the Program, so
``fj_typecheck`` walks only a program built by hand.
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
    return d in prog.supers(c)


def lub(prog: Program, c: str, d: str) -> str:
    """Least common superclass; exists because chains are linear."""
    if preceq(prog, c, d):
        return d
    if preceq(prog, d, c):
        return c
    for x in prog.supers(c):
        if preceq(prog, d, x):
            return x
    return OBJECT


def method_lookup(prog: Program, cls: str, m: str) -> tuple[MethodDecl, str]:
    """Resolve m from cls upward; returns (declaration, declaring class)."""
    if cls in (OBJECT, NULL_TYPE):
        raise FjError(f"method {m} not found on {cls}")
    for x in prog.supers(cls):
        if x == OBJECT:
            break
        for md in prog.by_name[x].methods:
            if md.name == m:
                return md, x
    raise FjError(f"method {m} not found along the superclass chain of {cls}")


def methods_of(prog: Program, cls: str) -> dict[str, tuple[MethodDecl, str]]:
    """All methods visible on cls (nearest declaration wins)."""
    out: dict[str, tuple[MethodDecl, str]] = {}
    if cls in (OBJECT, NULL_TYPE):
        return out
    for x in reversed(prog.supers(cls)[:-1]):
        for md in prog.by_name[x].methods:
            out[md.name] = (md, x)
    return out


def field_class(prog: Program, cls: str, fname: str) -> str | None:
    for f in prog.fields_of(cls):
        if f.name == fname:
            return f.cls
    return None


def method_env(prog: Program, cls: str, md: MethodDecl) -> dict[str, str]:
    env = {"this": cls}
    for p in md.params:
        env[p.name] = p.cls
    return env


def fj_typecheck(prog: Program) -> list[FjError]:
    """The typing violations of prog (empty = ok).  A parsed program keeps
    those of its one typing walk; a program built by hand is walked here,
    and its name errors join the list instead of raising."""
    if prog.violations is not None:
        return list(prog.violations)
    errors: list[FjError] = []
    typed_classes(prog, errors, raise_names=False)
    return errors


def typed_classes(
    prog: Program,
    errors: list[FjError],
    alphabet: frozenset[str] | None = None,
    raise_names: bool = True,
) -> list[ClassDecl]:
    """prog's classes with every body typed by ``check_method``.  Per class,
    the declaration checks, the override checks, then each method append
    their violations to errors in that order.  A name error raises, or with
    ``raise_names`` off joins errors."""
    classes = []
    for c in prog.classes:
        _check_declarations(c, errors)
        _check_overrides(prog, c, errors)
        methods = []
        for md in c.methods:
            try:
                methods.append(check_method(prog, c.name, md, errors, alphabet))
            except FjError as exc:
                if raise_names:
                    raise
                errors.append(exc)
        classes.append(c.replace(methods=tuple(methods)))
    return classes


def check_method(
    prog: Program,
    cls: str,
    md: MethodDecl,
    errors: list[FjError],
    alphabet: frozenset[str] | None = None,
) -> MethodDecl:
    """Type md's body in class cls and return md with every receiver
    annotation filled in.  Raises FjError at the first name error; appends
    each typing violation to errors and goes on.  When ``alphabet`` is given,
    every emitted event must belong to it."""
    for p in md.params:
        if p.cls != OBJECT and p.cls not in prog.by_name:
            raise FjError(f"unknown parameter class {p.cls}", md.pos)
    env = method_env(prog, cls, md)
    if not known_class(prog, md.result):
        errors.append(FjError(f"unknown result class {md.result}", md.pos))
        body, _ = _type_expr(prog, env, md.body, [], alphabet)
    else:
        body, t = _type_expr(prog, env, md.body, errors, alphabet)
        if not preceq(prog, t, md.result):
            errors.append(FjError(f"body of {cls}.{md.name} has type {t}, "
                                  f"not a subclass of declared {md.result}", md.pos))
    return md if body is md.body else md.replace(body=body)


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
    if c.parent == OBJECT:
        return
    inherited = methods_of(prog, c.parent)
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


def _type_expr(
    prog: Program, env: dict[str, str], e: Expr, errors: list[FjError], alphabet
) -> tuple[Expr, str]:
    """The static class of e, and e with its receiver annotations filled.
    At each node the name errors raise before any violation is appended."""
    if isinstance(e, Var):
        return e, _lookup(env, e.name, e.pos)
    if isinstance(e, Null):
        return e, NULL_TYPE
    if isinstance(e, New):
        if e.cls not in prog.by_name:
            raise FjError(f"cannot allocate undeclared class {e.cls}", e.pos)
        return e, e.cls
    if isinstance(e, Emit):
        if alphabet is not None and e.event not in alphabet:
            raise FjError(f"event {e.event} is not in the declared alphabet", e.pos)
        return e, NULL_TYPE
    if isinstance(e, Cast):
        if e.cls != OBJECT and e.cls not in prog.by_name:
            raise FjError(f"unknown cast class {e.cls}", e.pos)
        inner, _ = _type_expr(prog, env, e.expr, errors, alphabet)
        return (e if inner is e.expr else e.replace(expr=inner)), e.cls
    if isinstance(e, Let):
        return _type_spine(prog, env, e, errors, alphabet)
    if isinstance(e, If):
        _lookup(env, e.left, e.pos)
        _lookup(env, e.right, e.pos)
        then, t1 = _type_expr(prog, env, e.then, errors, alphabet)
        els, t2 = _type_expr(prog, env, e.els, errors, alphabet)
        if then is not e.then or els is not e.els:
            e = e.replace(then=then, els=els)
        return e, lub(prog, t1, t2)
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
        return (e if e.recv_cls else e.replace(recv_cls=ann)), md.result
    if isinstance(e, (GetField, SetField)):
        rt, ann = _receiver(prog, env, e)
        fc = field_class(prog, ann, e.fname)
        if fc is None:
            raise FjError(f"no field {e.fname} on {ann}", e.pos)
        t = fc if isinstance(e, GetField) else _lookup(env, e.value, e.pos)
        _check_annotation(prog, e, rt, ann, errors)
        if not preceq(prog, t, fc):
            errors.append(FjError(f"assigning {t} into field {e.fname}: {fc}", e.pos))
        return (e if e.recv_cls else e.replace(recv_cls=ann)), t
    if isinstance(e, Throw):
        inner, _ = _type_expr(prog, env, e.expr, errors, alphabet)
        return (e if inner is e.expr else e.replace(expr=inner)), NULL_TYPE
    if isinstance(e, TryCatch):
        body, t1 = _type_expr(prog, env, e.body, errors, alphabet)
        if e.exc_cls != OBJECT and e.exc_cls not in prog.by_name:
            raise FjError(f"unknown exception class {e.exc_cls}", e.pos)
        if e.var in env:
            errors.append(FjError(f"variable {e.var} already declared", e.pos))
        env2 = dict(env)
        env2[e.var] = e.exc_cls
        handler, t2 = _type_expr(prog, env2, e.handler, errors, alphabet)
        if body is not e.body or handler is not e.handler:
            e = e.replace(body=body, handler=handler)
        return e, lub(prog, t1, t2)
    raise AssertionError(f"unhandled expression {e!r}")


def _type_spine(
    prog: Program, env: dict[str, str], e: Let, errors: list[FjError], alphabet
) -> tuple[Expr, str]:
    """``_type_expr`` of a let spine, followed in a loop: each init, then
    each binding's checks, in order, and the tail; the spine is rebuilt
    from the tail up where a node below it changed."""
    spine = []  # (Let, its typed init), outermost first
    env = dict(env)
    while isinstance(e, Let):
        init, t1 = _type_expr(prog, env, e.init, errors, alphabet)
        if e.decl is not None and e.decl != OBJECT and e.decl not in prog.by_name:
            raise FjError(f"unknown class {e.decl}", e.pos)
        if e.var in env:
            errors.append(FjError(f"variable {e.var} already declared", e.pos))
        if e.decl is not None and not preceq(prog, t1, e.decl):
            errors.append(
                FjError(f"initializer of {e.var} has type {t1}, expected {e.decl}", e.pos)
            )
        env[e.var] = e.decl if e.decl is not None else t1
        spine.append((e, init))
        e = e.body
    body, t = _type_expr(prog, env, e, errors, alphabet)
    for let, init in reversed(spine):
        if init is not let.init or body is not let.body:
            let = let.replace(init=init, body=body)
        body = let
    return body, t


def _lookup(env: dict[str, str], name: str, pos) -> str:
    if name not in env:
        raise FjError(f"unbound variable {name}", pos)
    return env[name]


def _receiver(prog: Program, env: dict[str, str], e) -> tuple[str, str]:
    """The static class of e's receiver, and the class whose members e uses:
    its annotation if it has one, else that static class."""
    rt = _lookup(env, e.recv, e.pos)
    ann = e.recv_cls or rt
    if ann not in prog.by_name:
        raise FjError(f"receiver {e.recv} has type {ann}, which has no members", e.pos)
    return rt, ann


def _check_annotation(prog: Program, e, rt: str, ann: str, errors: list[FjError]) -> None:
    if not preceq(prog, rt, ann):
        errors.append(
            FjError(f"receiver {e.recv} has type {rt}, annotation says {ann}", e.pos)
        )
