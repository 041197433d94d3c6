"""Effect inference: region-sensitive typing of method bodies to a fixpoint.

``typeff`` types one expression under a region environment and a current
table, producing the effect triple (T, H, S) described in ``classtable`` plus
the field-table updates the expression demands.  ``infer`` sweeps all method
bodies, applies updates, re-closes the tables and repeats until nothing
grows.  ``check_well_typed`` re-types every body against a frozen table and
reports any entry the table fails to cover — the shape of claim a soundness
argument needs, and a useful internal sanity check.

Environments map variable names (including ``this``) to regions.  A body is
typed once per signature: receiver region from the signature, parameter
regions from the signature's argument tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classtable import (
    ClassTable,
    check_class_table,
    init_table,
    join_triple,
    triples_equal,
)
from .effexpr import dict_join, dict_scale
from .fjast import (
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
from .fjtypes import method_lookup, methods_of, preceq
from .intrinsics import IntrinsicSpec, stub_lookup
from .regions import NULL_REGION, Region, RegionMeta, Sig, created_at, region_meta

EMPTY: dict = {}


@dataclass
class Effects:
    t: dict  # Region -> fin element
    h: dict  # Region -> fin element
    s: dict  # Sig -> fin element
    fupdates: list  # ((cls, Region, fname), Region) pairs

    def triple(self):
        return (self.t, self.h, self.s)


def _eps(domain):
    return domain.alpha_word(())


def typeff(
    prog: Program,
    meta: RegionMeta,
    table: ClassTable,
    domain,
    gamma: dict,
    e: Expr,
) -> Effects:
    if isinstance(e, Var):
        return Effects({gamma[e.name]: _eps(domain)}, {}, {}, [])
    if isinstance(e, Null):
        return Effects({NULL_REGION: _eps(domain)}, {}, {}, [])
    if isinstance(e, New):
        return Effects({created_at(e.label): _eps(domain)}, {}, {}, [])
    if isinstance(e, Emit):
        return Effects({NULL_REGION: domain.alpha_word((e.event,))}, {}, {}, [])
    if isinstance(e, Cast):
        # the value is unchanged; a failing cast has no outcome to cover
        return typeff(prog, meta, table, domain, gamma, e.expr)
    if isinstance(e, GetField):
        t: dict = {}
        for r in sorted(table.fields_at(e.recv_cls, gamma[e.recv], e.fname),
                        key=Region.sort_key):
            t = dict_join(t, {r: _eps(domain)}, domain.fin_join)
        return Effects(t, {}, {}, [])
    if isinstance(e, SetField):
        src = gamma[e.value]
        update = ((e.recv_cls, gamma[e.recv], e.fname), src)
        return Effects({src: _eps(domain)}, {}, {}, [update])
    if isinstance(e, Call):
        sig = Sig(e.recv_cls, gamma[e.recv], e.method,
                  tuple(gamma[a] for a in e.args))
        t, h, _ = table.mtable[sig]
        return Effects(dict(t), dict(h), {sig: _eps(domain)}, [])
    if isinstance(e, Let):
        first = typeff(prog, meta, table, domain, gamma, e.init)
        t: dict = {}
        h = dict(first.h)
        s = dict(first.s)
        ups = list(first.fupdates)
        for r in sorted(first.t, key=Region.sort_key):
            u = first.t[r]
            g2 = dict(gamma)
            g2[e.var] = r
            body = typeff(prog, meta, table, domain, g2, e.body)
            t = dict_join(t, dict_scale(u, body.t, domain.fin_concat),
                          domain.fin_join)
            h = dict_join(h, dict_scale(u, body.h, domain.fin_concat),
                          domain.fin_join)
            s = dict_join(s, dict_scale(u, body.s, domain.fin_concat),
                          domain.fin_join)
            ups.extend(body.fupdates)
        return Effects(t, h, s, ups)
    if isinstance(e, If):
        rl, rr = gamma[e.left], gamma[e.right]
        els = typeff(prog, meta, table, domain, gamma, e.els)
        if meta.disjoint(rl, rr):
            return els
        then = typeff(prog, meta, table, domain, gamma, e.then)
        return Effects(
            dict_join(then.t, els.t, domain.fin_join),
            dict_join(then.h, els.h, domain.fin_join),
            dict_join(then.s, els.s, domain.fin_join),
            then.fupdates + els.fupdates,
        )
    if isinstance(e, Throw):
        inner = typeff(prog, meta, table, domain, gamma, e.expr)
        return Effects(
            {},
            dict_join(inner.t, inner.h, domain.fin_join),
            inner.s,
            inner.fupdates,
        )
    if isinstance(e, TryCatch):
        body = typeff(prog, meta, table, domain, gamma, e.body)
        t = dict(body.t)
        h = except_filter(body.h, e.exc_cls, prog, meta)
        s = dict(body.s)
        ups = list(body.fupdates)
        for r in sorted(body.h, key=Region.sort_key):
            if not _catchable(r, e.exc_cls, prog, meta):
                continue
            u = body.h[r]
            g2 = dict(gamma)
            g2[e.var] = r
            hnd = typeff(prog, meta, table, domain, g2, e.handler)
            t = dict_join(t, dict_scale(u, hnd.t, domain.fin_concat),
                          domain.fin_join)
            h = dict_join(h, dict_scale(u, hnd.h, domain.fin_concat),
                          domain.fin_join)
            s = dict_join(s, dict_scale(u, hnd.s, domain.fin_concat),
                          domain.fin_join)
            ups.extend(hnd.fupdates)
        return Effects(t, h, s, ups)
    raise AssertionError(f"unhandled expression {e!r}")


def _catchable(r: Region, exc_cls: str, prog: Program, meta: RegionMeta) -> bool:
    """Could a value in r be caught by a handler for exc_cls?  Null regions
    vacuously qualify (nothing in them is ever thrown)."""
    if r == NULL_REGION:
        return True
    return any(preceq(prog, c, exc_cls) for c in meta.cls_of(r))


def except_filter(h: dict, exc_cls: str, prog: Program, meta: RegionMeta) -> dict:
    """Drop throw entries certainly caught by a handler for exc_cls: those
    whose region holds only subclasses of it."""
    out = {}
    for r, u in h.items():
        if r == NULL_REGION:
            continue
        if all(preceq(prog, c, exc_cls) for c in meta.cls_of(r)):
            continue
        out[r] = u
    return out


# -- the fixpoint --------------------------------------------------------------


def seed_intrinsics(
    table: ClassTable, prog: Program, meta: RegionMeta, domain,
    specs: dict,
) -> None:
    for (cls, method), spec in sorted(specs.items()):
        t_fin = domain.alpha_nfa(spec.emit_nfa)
        h = {}
        if spec.throw_region is not None:
            h[spec.throw_region] = domain.alpha_nfa(spec.throw_nfa)
        for c in prog.classes:
            if stub_lookup(specs, prog, c.name, method) is not spec:
                continue
            for recv in meta.regions:
                for args in spec.arg_regions(meta):
                    sig = Sig(c.name, recv, method, args)
                    if sig not in table.mtable:
                        continue
                    table.mtable[sig] = (
                        {spec.result_region: t_fin}, dict(h), {},
                    )
                    table.pinned.add(sig)


def bodied_sigs(table: ClassTable, prog: Program, meta: RegionMeta,
                specs: dict) -> list[Sig]:
    """Signatures whose method body gets typed directly: the receiver class
    is creatable in the receiver region and the resolved method is no stub."""
    out = []
    for sig in table.mtable:
        if sig in table.pinned:
            continue
        if sig.cls not in meta.cls_of(sig.recv):
            continue
        if stub_lookup(specs, prog, sig.cls, sig.method) is not None:
            continue
        out.append(sig)
    out.sort(key=Sig.sort_key)
    return out


def _gamma_of(sig: Sig, prog: Program) -> dict:
    md, _ = method_lookup(prog, sig.cls, sig.method)
    gamma = {"this": sig.recv}
    for p, r in zip(md.params, sig.args):
        gamma[p.name] = r
    return gamma


def infer(
    prog: Program,
    domain,
    intrinsics: dict | None = None,
    entries: list[str] | None = None,
    max_sweeps: int | None = None,
    meta: RegionMeta | None = None,
) -> ClassTable:
    """Compute the tables to a fixpoint (or for max_sweeps sweeps when the
    domain has no decidable equality).  With entries given, only signatures
    reachable from them are analyzed (demand-driven); the rest stay bottom."""
    if meta is None:
        meta = region_meta(prog)
    specs = intrinsics or {}
    table = init_table(prog, meta)
    seed_intrinsics(table, prog, meta, domain, specs)
    check_class_table(table, prog, meta, domain)
    bodied = bodied_sigs(table, prog, meta, specs)

    active: set | None = None
    if entries is not None:
        active = set()
        for entry in entries:
            cls, _, method = entry.partition(".")
            for sig in table.mtable:
                if sig.cls == cls and sig.method == method and not sig.args:
                    active.add(sig)
        active = _expand_active(active, table, prog)

    if max_sweeps is None and not domain.has_exact_eq:
        raise ValueError("domain has no equality; pass max_sweeps")
    cap = _sweep_cap(table, meta, domain)
    sweep = 0
    while True:
        sweep += 1
        if sweep > cap:
            raise RuntimeError("inference failed to converge within its cap")
        changed = False
        for sig in bodied:
            if active is not None and sig not in active:
                continue
            md, _ = method_lookup(prog, sig.cls, sig.method)
            eff = typeff(prog, meta, table, domain, _gamma_of(sig, prog), md.body)
            for (key, region) in eff.fupdates:
                regs = table.ftable[key]
                if region not in regs:
                    table.ftable[key] = regs | {region}
                    changed = True
            joined = join_triple(domain, table.mtable[sig], eff.triple())
            if domain.has_exact_eq:
                if not triples_equal(joined, table.mtable[sig]):
                    table.mtable[sig] = joined
                    changed = True
            else:
                table.mtable[sig] = joined
                changed = True
            if active is not None:
                before = len(active)
                active |= {s for s in eff.s if s in table.mtable}
                active = _expand_active(active, table, prog)
                if len(active) != before:
                    changed = True
        if check_class_table(table, prog, meta, domain):
            changed = True
        if max_sweeps is not None:
            if sweep >= max_sweeps:
                break
        elif not changed:
            break
    if active is not None:
        table.analyzed = set(active)
    return table


def _expand_active(active: set, table: ClassTable, prog: Program) -> set:
    """A demanded signature needs every same-shape signature at a subclass:
    closure joins those up into it."""
    out = set(active)
    frontier = list(active)
    while frontier:
        sig = frontier.pop()
        for c in prog.classes:
            if sig.cls not in prog.supers(c.name):
                continue
            sub = Sig(c.name, sig.recv, sig.method, sig.args)
            if sub in table.mtable and sub not in out:
                out.add(sub)
                frontier.append(sub)
    return out


def _sweep_cap(table: ClassTable, meta: RegionMeta, domain) -> int:
    height = domain.fin_height()
    if height is None:
        return 1 << 30
    per_entry = (2 * len(meta.regions) + len(table.mtable)) * height
    return 2 + len(table.mtable) * per_entry


@dataclass
class Offense:
    sig: Sig | None
    part: str
    detail: str

    def __str__(self) -> str:
        where = f"{self.sig}: " if self.sig is not None else ""
        return f"{where}{self.part}: {self.detail}"


def check_well_typed(
    prog: Program,
    table: ClassTable,
    domain,
    intrinsics: dict | None = None,
    meta: RegionMeta | None = None,
) -> list[Offense]:
    """Re-type every analyzed body against the frozen table.  A sound table
    covers each body's triple and needs no further field updates."""
    if meta is None:
        meta = region_meta(prog)
    specs = intrinsics or {}
    offenses: list[Offense] = []
    for sig in bodied_sigs(table, prog, meta, specs):
        if table.analyzed is not None and sig not in table.analyzed:
            continue  # demand-driven: this body was deliberately skipped
        md, _ = method_lookup(prog, sig.cls, sig.method)
        eff = typeff(prog, meta, table, domain, _gamma_of(sig, prog), md.body)
        for (key, region) in eff.fupdates:
            if region not in table.ftable.get(key, frozenset()):
                offenses.append(Offense(
                    sig, "F", f"field row {key} lacks {region}"))
        stored = table.mtable[sig]
        for part, got, have in (("T", eff.t, stored[0]),
                                ("H", eff.h, stored[1]),
                                ("S", eff.s, stored[2])):
            for k, v in got.items():
                held = have.get(k)
                if held is None or not domain.fin_leq(v, held):
                    offenses.append(Offense(
                        sig, part, f"entry {k} not covered"))
    return offenses
