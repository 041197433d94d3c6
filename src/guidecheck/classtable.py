"""Region-indexed field and method summary tables.

The field table maps (class, region of the receiver, field name) to the set
of regions the field's value may lie in; every row starts at {Null} because
fields are null-initialized.  The method table maps a signature — receiver
class and region, method, argument regions — to an effect triple:

* T: per result region, the finite event words of runs that return there;
* H: per thrown-value region, the words of runs that end in that throw;
* S: per callee signature, the words emitted before control enters a call
  that is still on the stack (the divergence frontier, resolved later by the
  equation solver).

Both tables are closed under the hierarchy: rows of a field inherited from a
superclass agree across the chain, the Unknown receiver row absorbs every
site row, and a method entry absorbs the entries of the same method at every
subclass (dispatch may pick any of them).  Entries seeded from external-call
stubs are pinned: closure never widens them, and inference never re-analyzes
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .effexpr import dict_join
from .fjast import Program
from .fjtypes import methods_of
from .regions import NULL_REGION, UNKNOWN, Region, RegionMeta, Sig

# effect triple: (T, H, S) as dicts keyed by Region / Region / Sig
Triple = tuple


def empty_triple() -> Triple:
    return ({}, {}, {})


@dataclass
class ClassTable:
    ftable: dict  # (cls, Region, fname) -> frozenset[Region]
    mtable: dict  # Sig -> (T, H, S)
    pinned: set = field(default_factory=set)
    analyzed: set | None = None  # demand-driven: the sigs activated

    def fields_at(self, cls: str, region: Region, fname: str) -> frozenset:
        return self.ftable.get((cls, region, fname), frozenset())


def init_table(prog: Program, meta: RegionMeta) -> ClassTable:
    ftable = {}
    mtable = {}
    for c in prog.classes:
        for r in meta.regions:
            for fd in prog.fields_of(c.name):
                ftable[(c.name, r, fd.name)] = frozenset({NULL_REGION})
        for mname, (md, _) in sorted(methods_of(prog, c.name).items()):
            arity = len(md.params)
            for recv in meta.regions:
                for args in product(meta.regions, repeat=arity):
                    mtable[Sig(c.name, recv, mname, args)] = empty_triple()
    return ClassTable(ftable, mtable)


def join_triple(domain, a: Triple, b: Triple) -> Triple:
    return (
        dict_join(a[0], b[0], domain.fin_join),
        dict_join(a[1], b[1], domain.fin_join),
        dict_join(a[2], b[2], domain.fin_join),
    )


def close_ftable(table: ClassTable, prog: Program, meta: RegionMeta) -> set:
    """Null membership, Unknown-row absorption, and agreement along the
    hierarchy for inherited fields.  Returns the keys of the rows that
    grew."""
    ftable = table.ftable
    grown: set = set()
    while True:
        changed = False
        for (cls, r, fname), regs in list(ftable.items()):
            if NULL_REGION not in regs:
                ftable[(cls, r, fname)] = regs | {NULL_REGION}
                grown.add((cls, r, fname))
                changed = True
        for c in prog.classes:
            if c.parent not in prog.by_name:
                continue
            for fd in prog.fields_of(c.parent):
                for r in meta.regions:
                    keys = ((c.name, r, fd.name), (c.parent, r, fd.name))
                    merged = ftable[keys[0]] | ftable[keys[1]]
                    for key in keys:
                        if ftable[key] != merged:
                            ftable[key] = merged
                            grown.add(key)
                            changed = True
        for c in prog.classes:
            for fd in prog.fields_of(c.name):
                out = ftable[(c.name, UNKNOWN, fd.name)]
                merged = out
                for r in meta.regions:
                    merged = merged | ftable[(c.name, r, fd.name)]
                if merged != out:
                    ftable[(c.name, UNKNOWN, fd.name)] = merged
                    grown.add((c.name, UNKNOWN, fd.name))
                    changed = True
        if not changed:
            return grown


def close_mtable(table: ClassTable, prog: Program, meta: RegionMeta,
                 domain) -> set:
    """Absorb subclass entries into superclass entries, children first so one
    pass propagates along whole chains.  Pinned entries are never widened.
    Returns the signatures whose entries grew, comparing with ``==``."""
    order = sorted(
        (c.name for c in prog.classes),
        key=lambda n: (-len(prog.supers(n)), n),
    )
    grown: set = set()
    for cls in order:
        parent = prog.by_name[cls].parent
        if parent not in prog.by_name:
            continue
        for mname, (md, _) in sorted(methods_of(prog, parent).items()):
            arity = len(md.params)
            for recv in meta.regions:
                for args in product(meta.regions, repeat=arity):
                    target = Sig(parent, recv, mname, args)
                    if target in table.pinned:
                        continue
                    source = Sig(cls, recv, mname, args)
                    joined = join_triple(
                        domain, table.mtable[target], table.mtable[source]
                    )
                    if joined != table.mtable[target]:
                        table.mtable[target] = joined
                        grown.add(target)
    return grown


def check_class_table(table: ClassTable, prog: Program, meta: RegionMeta,
                      domain) -> set:
    """Close both tables.  Returns the rows that grew: field-table keys and
    method-table signatures, so inference can re-type just their readers."""
    return (close_ftable(table, prog, meta)
            | close_mtable(table, prog, meta, domain))
