"""Region-indexed field and method summary tables.

The field table maps (class declaring the field, region of the receiver,
field name) to the set of regions the field's value may lie in; every row
starts at {Null} because fields are null-initialized.  A field has one row
per region, whichever class inheriting it reads or writes it: the row's
class is the field's declaring class in the Program's field table.  The
method table maps a signature — receiver class and region, method,
argument regions — to an effect triple:

* T: per result region, the finite event words of runs that return there;
* H: per thrown-value region, the words of runs that end in that throw;
* S: per callee signature, the words emitted before control enters a call
  that is still on the stack (the divergence frontier, resolved later by the
  equation solver).

Both tables are closed at every write, so no pass ever closes them: the
Unknown receiver row of a field absorbs every site row (``add_field``), and
a method entry absorbs the entries of the same method at every subclass,
since dispatch may pick any of them (``join_rows``, up the Program's
chains).  Entries seeded from external-call stubs are pinned (``pin``):
they are never widened, inference never re-analyzes them, and they are
joined into the entries above them like any other.  These three methods
are the only writers of the tables.

Method rows are shared: every signature starts at the one ``EMPTY_ROW``,
and a join gives the signatures that held one row object one new row
object, so the members of a typing group keep holding one row and later
passes can do their work once per distinct row.  A row is therefore never
mutated in place, only replaced.
"""

from __future__ import annotations

from functools import partial
from itertools import islice, product, repeat
from typing import Callable, Collection

from .effexpr import dict_join
from .fjast import Program
from .regions import NULL_REGION, UNKNOWN, Region, RegionMeta, Sig

# effect triple: (T, H, S) as dicts keyed by Region / Region / Sig
Triple = tuple

EMPTY_ROW: Triple = ({}, {}, {})  # every signature's first row, shared
_make_sig = partial(tuple.__new__, Sig)  # a Sig of a 4-tuple, in C


class ClassTable:
    """The field and method tables.  Method rows are shared among
    signatures and never mutated in place: a writer replaces a row."""

    def __init__(self, ftable: dict, mtable: dict, prog: Program):
        # (declaring cls, Region, fname) -> frozenset[Region]
        self.ftable = ftable
        self.mtable = mtable  # Sig -> (T, H, S)
        # the program's hierarchy: cls -> its chain up to Object, and
        # cls -> fname -> (declaration, declaring class)
        self.chains = prog.chains
        self.fields = prog.fields
        self.pinned: set = set()
        self.analyzed: set | None = None  # demand-driven: the sigs activated
        # infer's typing groups of the bodied signatures, for the re-check
        self.groups: list | None = None

    def field_row(self, cls: str, region: Region, fname: str) -> tuple:
        """The key of the row that class cls reads for field fname."""
        field = self.fields[cls].get(fname)
        return (None if field is None else field[1], region, fname)

    def fields_at(self, cls: str, region: Region, fname: str) -> frozenset:
        return self.ftable.get(self.field_row(cls, region, fname), frozenset())

    def add_field(self, key: tuple, region: Region) -> list:
        """Add region to the field row of key, a (class, receiver region,
        field name) triple, and to the field's Unknown row.  Returns the
        keys of the rows that grew."""
        owner, recv, fname = self.field_row(*key)
        grown = []
        for row in ((owner, recv, fname), (owner, UNKNOWN, fname)):
            regs = self.ftable[row]
            if region not in regs:
                self.ftable[row] = regs | {region}
                grown.append(row)
        return grown

    def join_rows(self, domain, sigs, triple: Triple) -> list:
        """Join triple into the entry of each of sigs and into the
        same-shape entry at every declared superclass, skipping pinned
        entries but not what lies above them.  Returns the signatures
        whose entries grew, comparing with ``==``.  Each distinct row
        object is joined once, and the signatures that held it, members
        or superclass entries alike, all get the one joined row; a row
        that does not grow stays the object it was.  Rows are replaced,
        never mutated in place, for other signatures may hold them."""
        mtable = self.mtable
        joined = _joiner(domain, triple)
        rows = list(map(mtable.__getitem__, sigs))
        grown = []
        for row in by_id(rows).values():
            new = joined(row)
            if new is row:  # the entries above already cover it too
                continue
            holders = [sig for sig, held in zip(sigs, rows) if held is row]
            mtable.update(zip(holders, repeat(new)))
            grown += holders
            for sig in holders:
                self._join_up(sig, joined, grown)
        return grown

    def pin(self, domain, sig: Sig, row: Triple) -> None:
        """Seed sig's entry with a stub's row, never to be widened, and
        join the row into the entries above it."""
        self.mtable[sig] = row
        self.pinned.add(sig)
        self._join_up(sig, _joiner(domain, row), [])

    def _join_up(self, sig: Sig, joined, grown: list) -> None:
        """Join into the same-shape entries above sig's, nearest first,
        skipping pinned ones, up to the first that the join leaves
        unchanged.  Every writer joins up, so each unpinned entry covers
        the entries below it: nothing above an unchanged one can change."""
        chain = self.chains[sig.cls]  # sig.cls, its parent, ..., Object
        for cls in islice(chain, 1, len(chain) - 1):
            up = Sig(cls, sig.recv, sig.method, sig.args)
            if up not in self.mtable:
                return  # declared below cls, so absent further up too
            if up in self.pinned:
                continue
            row = self.mtable[up]
            new = joined(row)
            if new is row:
                return
            self.mtable[up] = new
            grown.append(up)


def once_per_object(f: Callable) -> Callable:
    """f, applied once per distinct argument object, the result reused for
    every later argument that is the same object: rows and their parts are
    shared among signatures, so work on them is done once per row.  The
    memo holds each object it is keyed by, so no id is reused while it
    lives."""
    memo: dict = {}  # id(x) -> (x, f(x))

    def once(x):
        hit = memo.get(id(x))
        if hit is None or hit[0] is not x:
            hit = memo[id(x)] = (x, f(x))
        return hit[1]

    return once


def by_id(values: Collection) -> dict:
    """The distinct objects among values, keyed by id, in first-seen order.
    Per value the work is built-in calls only (``id``, ``zip``, the dict),
    no Python frame: tables hold many signatures and few distinct rows."""
    return dict(zip(map(id, values), values))


def _joiner(domain, triple: Triple) -> Callable:
    """Rows joined with triple, once per distinct row object; a row the
    join leaves equal stays the object it was."""

    def join(row: Triple) -> Triple:
        joined = join_triple(domain, row, triple)
        return row if joined == row else joined

    return once_per_object(join)


def init_table(prog: Program, meta: RegionMeta) -> ClassTable:
    """The tables of prog, every row at its start.  The method table is
    built in the canonical signature order (``Sig.sort_key``: classes by
    name, then methods by name, then regions in their natural order, which
    ``meta.regions`` is not: it lists the sites in program order), and no
    writer adds a key, so every later pass reads the table in that order
    and none sorts it again."""
    ftable = {}
    mtable = {}
    regions = sorted(meta.regions)
    for c in sorted(prog.classes, key=lambda c: c.name):
        for r in regions:
            for fd in c.fields:
                ftable[(c.name, r, fd.name)] = frozenset({NULL_REGION})
        for mname, (md, _) in sorted(prog.dispatch[c.name].items()):
            # (cls, recv, method, args) tuples in that order, made Sigs in C
            args = product(regions, repeat=len(md.params))
            sigs = map(_make_sig, product((c.name,), regions, (mname,), args))
            mtable.update(zip(sigs, repeat(EMPTY_ROW)))
    return ClassTable(ftable, mtable, prog)


def join_triple(domain, a: Triple, b: Triple) -> Triple:
    return (
        dict_join(a[0], b[0], domain.fin_join),
        dict_join(a[1], b[1], domain.fin_join),
        dict_join(a[2], b[2], domain.fin_join),
    )
