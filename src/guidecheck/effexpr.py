"""Pointwise lattice operations on dict-shaped effect maps.

Effect triples and equation right-hand sides are finite maps (region or
signature keyed) into a domain's element lattice.  Missing keys mean bottom.
The helpers here are parameterized by the domain's callables so the same code
serves every domain instance.
"""

from __future__ import annotations

from collections.abc import Callable


def dict_join(a: dict, b: dict, join: Callable) -> dict:
    out = dict(a)
    for k, v in b.items():
        got = out.get(k)
        out[k] = v if got is None else join(got, v)
    return out


def dict_scale(u, d: dict, concat: Callable) -> dict:
    return {k: concat(u, v) for k, v in d.items()}


def dict_drop_bottom(d: dict, is_bottom: Callable) -> dict:
    return {k: v for k, v in d.items() if not is_bottom(v)}
