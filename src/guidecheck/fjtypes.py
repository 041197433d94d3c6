"""Subtyping, member lookup and the standard well-typedness check.

The class hierarchy is single-inheritance with Object on top and NullType
below every class; neither is ever declared.  Receiver annotations on calls
and field accesses are verified here against the declared static types,
methods and parameters must not be redeclared, and override signatures must
be invariant.
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
    """Check every method body; returns the list of violations (empty = ok)."""
    errors: list[FjError] = []
    for c in prog.classes:
        _check_declarations(c, errors)
        _check_overrides(prog, c, errors)
        for md in c.methods:
            for p in md.params:
                if not known_class(prog, p.cls) or p.cls in (OBJECT, NULL_TYPE):
                    if p.cls != OBJECT:
                        errors.append(FjError(f"unknown parameter class {p.cls}", md.pos))
            if not known_class(prog, md.result):
                errors.append(FjError(f"unknown result class {md.result}", md.pos))
                continue
            env = method_env(prog, c.name, md)
            t = _type_expr(prog, env, md.body, errors)
            if t is not None and not preceq(prog, t, md.result):
                errors.append(
                    FjError(
                        f"body of {c.name}.{md.name} has type {t}, "
                        f"not a subclass of declared {md.result}",
                        md.pos,
                    )
                )
    return errors


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
    prog: Program, env: dict[str, str], e: Expr, errors: list[FjError]
) -> str | None:
    """Static type of e, or None after an unrecoverable local error."""
    if isinstance(e, Var):
        if e.name not in env:
            errors.append(FjError(f"unbound variable {e.name}", e.pos))
            return None
        return env[e.name]
    if isinstance(e, Null):
        return NULL_TYPE
    if isinstance(e, New):
        if e.cls not in prog.by_name:
            errors.append(FjError(f"cannot allocate undeclared class {e.cls}", e.pos))
            return None
        return e.cls
    if isinstance(e, Emit):
        return NULL_TYPE
    if isinstance(e, Cast):
        _type_expr(prog, env, e.expr, errors)
        if e.cls == NULL_TYPE or not known_class(prog, e.cls):
            errors.append(FjError(f"bad cast target {e.cls}", e.pos))
            return None
        return e.cls
    if isinstance(e, Let):
        t1 = _type_expr(prog, env, e.init, errors)
        if e.var in env:
            errors.append(FjError(f"variable {e.var} already declared", e.pos))
        bound = e.decl if e.decl is not None else (t1 or OBJECT)
        if e.decl is not None:
            if not known_class(prog, e.decl) or e.decl == NULL_TYPE:
                errors.append(FjError(f"unknown class {e.decl}", e.pos))
                bound = OBJECT
            elif t1 is not None and not preceq(prog, t1, e.decl):
                errors.append(
                    FjError(f"initializer of {e.var} has type {t1}, expected {e.decl}", e.pos)
                )
        env2 = dict(env)
        env2[e.var] = bound
        return _type_expr(prog, env2, e.body, errors)
    if isinstance(e, If):
        for v in (e.left, e.right):
            if v not in env:
                errors.append(FjError(f"unbound variable {v}", e.pos))
        t1 = _type_expr(prog, env, e.then, errors)
        t2 = _type_expr(prog, env, e.els, errors)
        if t1 is None or t2 is None:
            return t1 or t2
        return lub(prog, t1, t2)
    if isinstance(e, Call):
        return _type_member(prog, env, e, errors, is_call=True)
    if isinstance(e, (GetField, SetField)):
        return _type_member(prog, env, e, errors, is_call=False)
    if isinstance(e, Throw):
        _type_expr(prog, env, e.expr, errors)
        return NULL_TYPE
    if isinstance(e, TryCatch):
        t1 = _type_expr(prog, env, e.body, errors)
        if e.exc_cls not in prog.by_name and e.exc_cls != OBJECT:
            errors.append(FjError(f"unknown exception class {e.exc_cls}", e.pos))
            return t1
        env2 = dict(env)
        if e.var in env:
            errors.append(FjError(f"variable {e.var} already declared", e.pos))
        env2[e.var] = e.exc_cls
        t2 = _type_expr(prog, env2, e.handler, errors)
        if t1 is None or t2 is None:
            return t1 or t2
        return lub(prog, t1, t2)
    raise AssertionError(f"unhandled expression {e!r}")


def _type_member(prog, env, e, errors, *, is_call: bool) -> str | None:
    if e.recv not in env:
        errors.append(FjError(f"unbound variable {e.recv}", e.pos))
        return None
    rt = env[e.recv]
    ann = e.recv_cls
    if ann not in prog.by_name:
        errors.append(FjError(f"receiver annotation {ann} is not a declared class", e.pos))
        return None
    if not preceq(prog, rt, ann):
        errors.append(
            FjError(f"receiver {e.recv} has type {rt}, annotation says {ann}", e.pos)
        )
    if is_call:
        try:
            md, _ = method_lookup(prog, ann, e.method)
        except FjError:
            errors.append(FjError(f"no method {e.method} on {ann}", e.pos))
            return None
        if len(md.params) != len(e.args):
            errors.append(FjError(f"{ann}.{e.method} expects {len(md.params)} args", e.pos))
            return md.result
        for a, p in zip(e.args, md.params):
            if a not in env:
                errors.append(FjError(f"unbound variable {a}", e.pos))
            elif not preceq(prog, env[a], p.cls):
                errors.append(
                    FjError(f"argument {a}: {env[a]} is not a subclass of {p.cls}", e.pos)
                )
        return md.result
    fc = field_class(prog, ann, e.fname)
    if fc is None:
        errors.append(FjError(f"no field {e.fname} on {ann}", e.pos))
        return None
    if isinstance(e, SetField):
        if e.value not in env:
            errors.append(FjError(f"unbound variable {e.value}", e.pos))
            return fc
        if not preceq(prog, env[e.value], fc):
            errors.append(
                FjError(f"assigning {env[e.value]} into field {e.fname}: {fc}", e.pos)
            )
        return env[e.value]
    return fc
