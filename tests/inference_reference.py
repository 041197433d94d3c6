"""The round-robin sweep that ``guidecheck.inference.infer`` replaced.

``infer_by_sweeps`` re-types every bodied signature on every sweep, in the
canonical signature order, until a sweep changes nothing; under
``entries`` it grows the set of analyzed signatures sweep by sweep.  It
computes the same least fixpoint as the worklist in ``infer``, with far more
re-typings, and the tests check the two against each other table for table.
"""

from __future__ import annotations

from guidecheck.classtable import ClassTable, check_class_table, init_table, join_triple
from guidecheck.fjast import Program
from guidecheck.fjtypes import method_lookup
from guidecheck.inference import _gamma_of, bodied_sigs, seed_intrinsics, typeff
from guidecheck.regions import RegionMeta, Sig, region_meta


def infer_by_sweeps(
    prog: Program,
    domain,
    intrinsics: dict | None = None,
    entries: list[str] | None = None,
    meta: RegionMeta | None = None,
) -> ClassTable:
    """Compute the tables to their least fixpoint: sweep until no entry
    changes, compared with ``==``.  Raises ``RuntimeError`` past the sweep
    cap.  With entries given, only signatures reachable from them are
    analyzed (demand-driven); the rest stay bottom."""
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
            if joined != table.mtable[sig]:
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
        if not changed:
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
