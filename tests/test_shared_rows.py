"""Tables whose work scales with their distinct values, not their signatures.

The signatures of one typing group share one row object, the divergence
solve runs the domain operators once per block of equal equations, and the
verdict judges each distinct value once.  On the wide ladder (ROADMAP
family (b)) 1,010 signatures hold five rows and two divergence values, so
the work is pinned by counts, not times.  The re-check works per group and
row object, but still reports every signature holding a bad row, exactly as
a check of each signature on its own does.
"""

from collections import Counter

from inference_reference import check_per_signature
from reference_cases import ladder

from guidecheck import classtable, cli, inference
from guidecheck.domains import ProfileDomain
from guidecheck.fjparser import parse_program
from guidecheck.guideline import parse_guideline
from guidecheck.inference import bodied_sigs, check_well_typed, infer
from guidecheck.regions import NULL_REGION, UNKNOWN, Sig, created_at, region_meta

ONE_LETTER = parse_guideline(
    "alphabet: a\nstates: even odd\ninitial: even\naccepting: odd\n"
    "trans: even a odd\ntrans: odd a even\n"
)


class _CountingDomain(ProfileDomain):
    """The profile domain, counting the solve's concatenations and the
    verdict's acceptance checks (nothing else calls them)."""

    def __init__(self, guideline):
        super().__init__(guideline)
        self.calls = Counter()

    def fin_mix_concat(self, u, m):
        self.calls["fin_mix_concat"] += 1
        return super().fin_mix_concat(u, m)

    def accepts_fin(self, x):
        self.calls["accepts_fin"] += 1
        return super().accepts_fin(x)

    def accepts_mix(self, m):
        self.calls["accepts_mix"] += 1
        return super().accepts_mix(m)


def test_ladder_work_scales_with_distinct_values(monkeypatch):
    domains, tables = [], []
    joins = Counter()

    def counting_domain(guideline):
        domains.append(_CountingDomain(guideline))
        return domains[-1]

    def keeping_infer(*args, **kwargs):
        tables.append(infer(*args, **kwargs))
        return tables[-1]

    def counting_join(*args):
        joins["join_triple"] += 1
        return real_join(*args)

    real_join = classtable.join_triple
    monkeypatch.setattr(cli, "ProfileDomain", counting_domain)
    monkeypatch.setattr(cli, "infer", keeping_infer)
    monkeypatch.setattr(classtable, "join_triple", counting_join)
    report = cli.analyze(parse_program(ladder(2, 6)), ONE_LETTER)
    (domain,), (table,) = domains, tables
    assert len(table.mtable) == 1010
    assert len(report.signatures) == 301
    # 8 typings of 4 groups, one join each; the rows: the shared empty
    # row, step at l00, l01 and Unknown, and go
    assert joins["join_triple"] <= 8, joins
    assert len({id(row) for row in table.mtable.values()}) <= 5
    # blocks: the empty equations, step at l00, step at l01 and Unknown
    # (two callees each), and go's self-loop with its call
    assert domain.calls["fin_mix_concat"] <= 5, domain.calls
    assert domain.calls["accepts_fin"] <= 3, domain.calls
    assert domain.calls["accepts_mix"] <= 2, domain.calls


# Sub inherits who, so a group holds signatures of both classes, and a join
# into a Sub entry also reaches the Base entry above it.
INHERITED = """
class Base extends Object {
    Object who(Base p) { Base z = null; if (p == z) { emit a; } else { } return null; }
}
class Sub extends Base { }
class Main extends Object {
    Object go() {
        Base b = new[lb] Base();
        Sub s = new[ls] Sub();
        Object r1 = s.who(b);
        Object r2 = b.who(s);
        return null;
    }
}
"""


def test_a_group_across_a_subclass_keeps_one_row():
    prog = parse_program(INHERITED)
    meta = region_meta(prog)
    table = infer(prog, ProfileDomain(ONE_LETTER), meta=meta)
    groups = inference._typing_groups(bodied_sigs(table, prog, meta, {}),
                                      prog)
    assert any({sig.cls for sig in members} == {"Base", "Sub"}
               for members in groups)
    for members in groups:
        assert len({id(table.mtable[sig]) for sig in members}) == 1, members


def _corrupt(table, holders, row):
    """Give every signature in holders one new row: row with one T entry
    dropped."""
    t = dict(row[0])
    del t[min(t)]
    bad = (t, row[1], row[2])
    for sig in holders:
        table.mtable[sig] = bad


def test_recheck_reports_a_corrupt_shared_row_at_every_holder():
    prog = parse_program(ladder(2, 6))
    d = ProfileDomain(ONE_LETTER)
    table = infer(prog, d)
    assert check_well_typed(prog, table, d) == []
    row = table.mtable[Sig("Node", created_at("l01"), "step",
                           (NULL_REGION, NULL_REGION))]
    holders = sorted((sig for sig, held in table.mtable.items()
                      if held is row), key=Sig.sort_key)
    assert len(holders) == 100  # step at l01, whatever its arguments
    _corrupt(table, holders, row)
    # one member of another group alone: its own row object
    lone = Sig("Node", UNKNOWN, "step", (UNKNOWN, UNKNOWN))
    _corrupt(table, [lone], table.mtable[lone])
    got = check_well_typed(prog, table, d)
    assert [str(o) for o in got] == [str(o) for o in
                                     check_per_signature(prog, table, d)]
    assert [o.sig for o in got] == sorted(holders + [lone], key=Sig.sort_key)
    assert {o.part for o in got} == {"T"}
