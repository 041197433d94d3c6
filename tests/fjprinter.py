"""Render a parsed program back to surface text.

Reparsing the output yields an equal Program, so the round-trip test can
check that printing reaches a fixpoint after one normalisation.
"""

from __future__ import annotations

from guidecheck.fjast import (
    OBJECT,
    Call,
    Cast,
    Emit,
    Expr,
    GetField,
    If,
    Let,
    New,
    Null,
    Program,
    SetField,
    Throw,
    TryCatch,
    Var,
)


def print_program(prog: Program) -> str:
    out: list[str] = []
    for c in prog.classes:
        ext = f" extends {c.parent}" if c.parent != OBJECT else ""
        out.append(f"class {c.name}{ext} {{")
        for f in c.fields:
            out.append(f"  {f.cls} {f.name};")
        for m in c.methods:
            params = ", ".join(f"{p.cls} {p.name}" for p in m.params)
            out.append(f"  {m.result} {m.name}({params}) {{")
            out.extend(_render_body(m.body, "    "))
            out.append("  }")
        out.append("}")
        out.append("")
    return "\n".join(out)


def _render_body(e: Expr, ind: str) -> list[str]:
    lines: list[str] = []
    while isinstance(e, Let):
        if e.decl is not None:
            lines.append(f"{ind}{e.decl} {e.var} = {_render_expr(e.init)};")
        else:
            lines.extend(_render_stmt(e.init, ind))
        e = e.body
    # final expression
    if isinstance(e, Null):
        lines.append(f"{ind}return null;")
    elif isinstance(e, (Emit, If, Throw, TryCatch)):
        lines.extend(_render_stmt(e, ind))
    else:
        lines.append(f"{ind}return {_render_expr(e)};")
    return lines


def _render_stmt(e: Expr, ind: str) -> list[str]:
    if isinstance(e, Emit):
        return [f"{ind}emit {ev};" for ev in e.events]
    if isinstance(e, If):
        out = [f"{ind}if ({e.left} == {e.right}) {{"]
        out.extend(_render_body(e.then, ind + "  "))
        out.append(f"{ind}}} else {{")
        out.extend(_render_body(e.els, ind + "  "))
        out.append(f"{ind}}}")
        return out
    if isinstance(e, Throw):
        return [f"{ind}throw {_render_expr(e.expr)};"]
    if isinstance(e, TryCatch):
        out = [f"{ind}try {{"]
        out.extend(_render_body(e.body, ind + "  "))
        out.append(f"{ind}}} catch ({e.exc_cls} {e.var}) {{")
        out.extend(_render_body(e.handler, ind + "  "))
        out.append(f"{ind}}}")
        return out
    return [f"{ind}{_render_expr(e)};"]


def _render_expr(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Null):
        return "null"
    if isinstance(e, New):
        return f"new[{e.label}] {e.cls}()"
    if isinstance(e, Cast):
        return f"({e.cls}) {_render_expr(e.expr)}"
    if isinstance(e, Call):
        return f"{e.recv}.{e.method}({', '.join(e.args)})"
    if isinstance(e, GetField):
        return f"{e.recv}.{e.fname}"
    if isinstance(e, SetField):
        return f"{e.recv}.{e.fname} = {e.value}"
    raise ValueError(f"expression cannot be rendered inline: {e!r}")
