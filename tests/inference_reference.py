"""The round-robin sweep that ``guidecheck.inference.infer`` replaced.

``infer_by_sweeps`` re-types every bodied signature on every sweep, in the
canonical signature order, and closes the tables from scratch after each
sweep, until a sweep changes nothing; under ``entries`` it grows the set of
analyzed signatures sweep by sweep.  It computes the same least fixpoint as
the worklist in ``infer``, with far more re-typings, and the tests check the
two against each other table for table.

The reference keeps its own tables and closure, written apart from the
mutators of ``guidecheck.classtable.ClassTable``: a field row per class
that has the field, made to agree with the parent's row when the field is
inherited, and a method entry that absorbs the entries at every subclass
directly, wherever pinned entries lie between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from guidecheck.classtable import empty_triple, join_triple
from guidecheck.fjast import Program
from guidecheck.fjtypes import method_lookup, methods_of
from guidecheck.inference import _gamma_of, bodied_sigs, seed_intrinsics, typeff
from guidecheck.regions import NULL_REGION, UNKNOWN, RegionMeta, Sig, region_meta


@dataclass
class SweepTable:
    ftable: dict  # (cls, Region, fname) -> frozenset[Region], per class
    mtable: dict  # Sig -> (T, H, S)
    pinned: set = field(default_factory=set)
    analyzed: set | None = None

    def fields_at(self, cls, region, fname) -> frozenset:
        return self.ftable.get((cls, region, fname), frozenset())

    def pin(self, domain, sig, row) -> None:
        """Seed a stub's row; the closure joins it upward."""
        self.mtable[sig] = row
        self.pinned.add(sig)


def _sweep_table(prog: Program, meta: RegionMeta) -> SweepTable:
    ftable = {}
    mtable = {}
    for c in prog.classes:
        for r in meta.regions:
            for fd in prog.fields_of(c.name):
                ftable[(c.name, r, fd.name)] = frozenset({NULL_REGION})
        for mname, (md, _) in methods_of(prog, c.name).items():
            for recv in meta.regions:
                for args in product(meta.regions, repeat=len(md.params)):
                    mtable[Sig(c.name, recv, mname, args)] = empty_triple()
    return SweepTable(ftable, mtable)


def _close(table: SweepTable, prog: Program, meta: RegionMeta, domain) -> bool:
    """Close both tables; returns whether any row changed."""
    changed = False
    ftable = table.ftable
    while True:
        before = dict(ftable)
        for c in prog.classes:
            parent_fields = {fd.name for fd in prog.fields_of(c.parent)}
            for fd in prog.fields_of(c.name):
                rows = [ftable[(c.name, r, fd.name)] for r in meta.regions]
                unknown = (c.name, UNKNOWN, fd.name)
                ftable[unknown] = ftable[unknown].union(*rows)
                if fd.name not in parent_fields:
                    continue
                for r in meta.regions:
                    keys = ((c.name, r, fd.name), (c.parent, r, fd.name))
                    merged = ftable[keys[0]] | ftable[keys[1]]
                    for key in keys:
                        ftable[key] = merged
        if ftable == before:
            break
        changed = True
    mtable = table.mtable
    for sig, row in list(mtable.items()):
        if sig in table.pinned:
            continue
        joined = row
        for c in prog.classes:
            if c.name != sig.cls and sig.cls in prog.supers(c.name):
                sub = Sig(c.name, sig.recv, sig.method, sig.args)
                joined = join_triple(domain, joined, mtable[sub])
        if joined != row:
            mtable[sig] = joined
            changed = True
    return changed


def infer_by_sweeps(
    prog: Program,
    domain,
    intrinsics: dict | None = None,
    entries: list[str] | None = None,
    meta: RegionMeta | None = None,
) -> SweepTable:
    """Compute the tables to their least fixpoint: sweep until no entry
    changes, compared with ``==``.  Raises ``RuntimeError`` past the sweep
    cap.  With entries given, only signatures reachable from them are
    analyzed (demand-driven); the rest stay bottom."""
    if meta is None:
        meta = region_meta(prog)
    specs = intrinsics or {}
    table = _sweep_table(prog, meta)
    seed_intrinsics(table, prog, meta, domain, specs)
    _close(table, prog, meta, domain)
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

    sweep = 0
    while True:
        sweep += 1
        # the height may grow as sweeps build new elements: read it again
        if sweep > _sweep_cap(table, meta, domain):
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
        if _close(table, prog, meta, domain):
            changed = True
        if not changed:
            break
    if active is not None:
        table.analyzed = set(active)
    return table


def _expand_active(active: set, table: SweepTable, prog: Program) -> set:
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


def _sweep_cap(table: SweepTable, meta: RegionMeta, domain) -> int:
    height = domain.fin_height()
    if height is None:
        return 1 << 30
    per_entry = (2 * len(meta.regions) + len(table.mtable)) * height
    return 2 + len(table.mtable) * per_entry
