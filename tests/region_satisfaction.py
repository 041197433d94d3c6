"""When a run's values and heap lie in the regions the tables claim.

The soundness tests run the interpreter and check its outcomes against the
inferred tables: a returned or thrown value must lie in the region its table
entry names, and every object field in a region the field table allows.
A value is a heap location or None for null.
"""

from __future__ import annotations

from guidecheck.fjast import Program
from guidecheck.interp import Value
from guidecheck.regions import Region
from hierarchy_reference import fields_of, supers


def value_satisfies(value: Value, heap: dict, region: Region) -> bool:
    if value is None:
        return region.kind in ("null", "unknown")
    if region.kind == "site":
        return heap[value].label == region.label
    return region.kind == "unknown"


def store_satisfies(store: dict, heap: dict, gamma: dict) -> bool:
    return all(
        name in store and value_satisfies(store[name], heap, r)
        for name, r in gamma.items()
    )


def heap_satisfies(heap: dict, fields_at, prog: Program, meta) -> bool:
    """Every field of every object lies in some region allowed by the field
    table, for every class/region description the object meets.  The
    table is read through ``fields_at(cls, region, fname)``."""
    return first_heap_violation(heap, fields_at, prog, meta) is None


def first_heap_violation(heap: dict, fields_at, prog: Program, meta):
    for loc in sorted(heap):
        obj = heap[loc]
        chain = supers(prog, obj.cls) if obj.cls in prog.by_name else []
        for c in chain:
            if c not in prog.by_name:
                continue
            for fd in fields_of(prog, c):
                v = obj.fields.get(fd.name)
                for r in meta.regions:
                    if not value_satisfies(loc, heap, r):
                        continue
                    allowed = fields_at(c, r, fd.name)
                    if not any(value_satisfies(v, heap, r2) for r2 in allowed):
                        return (loc, c, r, fd.name)
    return None
