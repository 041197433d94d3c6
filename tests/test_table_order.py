"""One canonical table order, and each per-table pass run once.

``init_table`` inserts the method table's signatures in the canonical order
(``Sig.sort_key``), no writer adds a key, and every later pass takes the
table in that order: the bodied signatures, the equation system, the solve
and the report.  So nothing sorts the table again, and the bodied
signatures are found once per analysis, by ``infer``, which keeps their
typing groups on the table for the re-check.
"""

from collections import Counter

import pytest
from reference_cases import entry_points, ladder, reference_cases

from guidecheck import cli, inference
from guidecheck.classtable import init_table
from guidecheck.domains import ProfileDomain
from guidecheck.fjparser import parse_program
from guidecheck.guideline import parse_guideline
from guidecheck.inference import bodied_sigs, infer
from guidecheck.regions import Sig, region_meta
from guidecheck.solver import EquationSystem

ONE_LETTER = parse_guideline(
    "alphabet: a\nstates: even odd\ninitial: even\naccepting: odd\n"
    "trans: even a odd\ntrans: odd a even\n"
)


def _canonical(sigs) -> bool:
    sigs = list(sigs)
    return sigs == sorted(sigs, key=Sig.sort_key)


def _cases():
    yield from reference_cases()
    # sites out of name order: meta.regions lists them in program order
    yield "ladder(3, 2)", parse_program(ladder(3, 2)), None, {}


@pytest.mark.parametrize("demand_driven", [False, True],
                         ids=["full", "demand-driven"])
def test_every_table_is_built_and_kept_in_the_canonical_order(demand_driven):
    tables = 0
    for name, prog, d, specs in _cases():
        if d is None:
            d = ProfileDomain(ONE_LETTER)
        meta = region_meta(prog)
        assert _canonical(init_table(prog, meta).mtable), name
        for entries in ([[e] for e in entry_points(prog)] if demand_driven
                        else [None]):
            table = infer(prog, d, intrinsics=specs, entries=entries,
                          meta=meta)
            assert _canonical(table.mtable), (name, entries)
            assert _canonical(bodied_sigs(table, prog, meta, specs)), name
            system = EquationSystem.from_table(table, d)
            assert system.sigs == list(table.mtable), (name, entries)
            tables += 1
    assert tables >= (47 if not demand_driven else 88)


def test_the_ladder_lists_its_sites_out_of_name_order():
    # the case above that a table built in meta.regions order would fail
    meta = region_meta(parse_program(ladder(3, 2)))
    assert list(meta.regions) != sorted(meta.regions)


@pytest.mark.parametrize("entries", [None, ["Main.go"]],
                         ids=["full", "demand-driven"])
def test_bodied_signatures_are_found_once_per_analysis(entries, monkeypatch):
    calls = Counter()

    def counting(*args):
        calls["bodied_sigs"] += 1
        return bodied_sigs(*args)

    monkeypatch.setattr(inference, "bodied_sigs", counting)
    report = cli.analyze(parse_program(ladder(2, 6)), ONE_LETTER,
                         entries=entries,
                         demand_driven=entries is not None)
    assert report.verdict == "fail"
    assert calls == {"bodied_sigs": 1}


def test_the_recheck_needs_a_table_built_by_infer():
    prog = parse_program(ladder(2, 2))
    table = init_table(prog, region_meta(prog))
    with pytest.raises(ValueError, match="not built by infer"):
        inference.check_well_typed(prog, table, ONE_LETTER)
