"""Provenance regions and method signatures.

A region abstracts where a value comes from: the constant null, a specific
allocation site, or anywhere (Unknown).  Regions other than Unknown are
pairwise disjoint; Unknown overlaps everything.

Regions and signatures are plain tuples, so every table keyed by them hashes
and compares its keys in C.  A region's natural tuple order is the canonical
one: the kinds sort as "null" < "site" < "unknown", then by label.
"""

from __future__ import annotations

from typing import NamedTuple

from .fjast import NULL_TYPE, Program


class Region(NamedTuple):
    kind: str  # "null" | "site" | "unknown"
    label: str = ""

    def sort_key(self) -> "Region":
        """The region itself: its natural order is the canonical one."""
        return self

    def __str__(self) -> str:
        if self.kind == "null":
            return "Null"
        if self.kind == "unknown":
            return "Unknown"
        return f"@{self.label}"


NULL_REGION = Region("null")
UNKNOWN = Region("unknown")


def created_at(label: str) -> Region:
    return Region("site", label)


class Sig(NamedTuple):
    """Method signature: receiver class, receiver region, method, arg regions."""

    cls: str
    recv: Region
    method: str
    args: tuple[Region, ...]

    def sort_key(self) -> tuple:
        """Canonical order: class, method, receiver region, argument regions."""
        return (self.cls, self.method, self.recv, self.args)

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"({self.cls}, {self.recv}, {self.method}, [{args}])"


class RegionMeta:
    """Per-program region data: the region universe, Cls(·), and disjointness."""

    def __init__(self, prog: Program):
        self.regions: tuple[Region, ...] = (
            NULL_REGION,
            *[created_at(l) for l in prog.labels],
            UNKNOWN,
        )
        declared = frozenset(c.name for c in prog.classes)
        self._cls_of: dict[Region, frozenset[str]] = {
            NULL_REGION: frozenset({NULL_TYPE}),
            UNKNOWN: declared,
        }
        for l in prog.labels:
            self._cls_of[created_at(l)] = prog.new_classes_at(l)

    def cls_of(self, r: Region) -> frozenset[str]:
        return self._cls_of[r]

    def disjoint(self, r1: Region, r2: Region) -> bool:
        """Whether no value can inhabit both regions."""
        if r1.kind == "unknown" or r2.kind == "unknown":
            return False
        return r1 != r2


def region_meta(prog: Program) -> RegionMeta:
    return RegionMeta(prog)
