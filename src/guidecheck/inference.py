"""Effect inference: region-sensitive typing of method bodies to a fixpoint.

``typeff`` types one expression under a region environment and a current
table, producing the effect triple (T, H, S) described in ``classtable`` plus
the field-table updates the expression demands.  ``infer`` types the method
bodies callees first from a worklist, writes the results through the
table's own mutators, which keep it closed under the hierarchy, and
re-types only the bodies that read a row that grew, until nothing grows.
``check_well_typed`` re-types every body against a frozen table and reports
any entry the table fails to cover — the shape of claim a soundness
argument needs, and a useful internal sanity check.

Environments map variable names (including ``this``) to regions.  A
signature's environment takes the receiver region from the signature and
the parameter regions from its argument tuple.  ``typeff`` never reads the
signature's class and looks the environment up only at the variables the
body reads, so a body is typed once per group of signatures that resolve to
the same declared method and agree on the regions of those variables
(``_typing_groups``), and that one typing stands for every member: the
summary-sharing of Sharir and Pnueli (1981), keyed by what the procedure
can observe of its input.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .classtable import ClassTable, init_table
from .effexpr import dict_join, dict_scale
from .fjast import (
    Call,
    Cast,
    Emit,
    Expr,
    GetField,
    If,
    Let,
    MethodDecl,
    New,
    Null,
    Program,
    SetField,
    Throw,
    TryCatch,
    Var,
    subexprs,
)
from .fjtypes import method_lookup, methods_of, preceq
from .intrinsics import stub_lookup
from .regions import NULL_REGION, Region, RegionMeta, Sig, created_at, region_meta
from .solver import components


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
        for r in sorted(table.fields_at(e.recv_cls, gamma[e.recv], e.fname)):
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
        # the init's returning values go on to the body; its throws stay
        return _sequence(prog, meta, table, domain, gamma, e.var, e.body,
                         first.t, {}, first.h, first.s, first.fupdates)
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
        caught = {r: u for r, u in body.h.items()
                  if _catchable(r, e.exc_cls, prog, meta)}
        escaped = except_filter(body.h, e.exc_cls, prog, meta)
        return _sequence(prog, meta, table, domain, gamma, e.var, e.handler,
                         caught, body.t, escaped, body.s, body.fupdates)
    raise AssertionError(f"unhandled expression {e!r}")


def _sequence(prog: Program, meta: RegionMeta, table, domain, gamma: dict,
              var: str, cont: Expr, values: dict, t: dict, h: dict, s: dict,
              ups: list) -> Effects:
    """The effects t, h, s and field updates ups joined with those of the
    continuation cont run after each value region r of values, with var
    bound to r, its T, H and S each prefixed by the effect values[r] of
    reaching it.  The maps and the list are not modified."""
    for r in sorted(values):
        u = values[r]
        g2 = dict(gamma)
        g2[var] = r
        rest = typeff(prog, meta, table, domain, g2, cont)
        t = dict_join(t, dict_scale(u, rest.t, domain.fin_concat),
                      domain.fin_join)
        h = dict_join(h, dict_scale(u, rest.h, domain.fin_concat),
                      domain.fin_join)
        s = dict_join(s, dict_scale(u, rest.s, domain.fin_concat),
                      domain.fin_join)
        ups = ups + rest.fupdates
    return Effects(t, h, s, ups)


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
                    table.pin(domain, Sig(c.name, recv, method, args),
                              ({spec.result_region: t_fin}, dict(h), {}))


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


def _env_reads(md: MethodDecl) -> tuple:
    """The variables of the environment (``this`` and the parameters) that
    md's body reads, in name order.  Besides ``Var`` nodes, the let-normal
    operands that are plain names count: comparison operands, call
    receivers and arguments, field receivers and stored values.  A local
    that shadows one of them counts as a read, which only splits groups."""
    env = {"this", *(p.name for p in md.params)}
    read: set = set()
    for e in subexprs(md.body):
        if isinstance(e, Var):
            read.add(e.name)
        elif isinstance(e, If):
            read.update((e.left, e.right))
        elif isinstance(e, Call):
            read.add(e.recv)
            read.update(e.args)
        elif isinstance(e, GetField):
            read.add(e.recv)
        elif isinstance(e, SetField):
            read.update((e.recv, e.value))
        else:
            continue
        if env <= read:
            break  # every variable is read; the rest of the body can't add one
    return tuple(sorted(env & read))


def _typing_groups(sigs: list, prog: Program) -> list:
    """Split sigs into groups whose bodies type alike: the key is the
    declaring class and the method (so inherited bodies are shared) and the
    regions of the variables the body reads (``_env_reads``), in name
    order.  Groups come in the order of their first member in sigs, and
    members keep that order."""
    # (declaring class, method) -> where in (receiver, *arguments) a
    # signature holds the regions of the variables read, in name order
    reads: dict = {}
    groups: dict = {}
    for sig in sigs:
        md, decl = method_lookup(prog, sig.cls, sig.method)
        at = reads.get((decl, sig.method))
        if at is None:
            env = ("this", *(p.name for p in md.params))
            at = tuple(env.index(v) for v in _env_reads(md))
            reads[(decl, sig.method)] = at
        regions = (sig.recv, *sig.args)
        key = (decl, sig.method, tuple(regions[i] for i in at))
        groups.setdefault(key, []).append(sig)
    return list(groups.values())


def _type_group(prog: Program, meta: RegionMeta, table, domain,
                members: list) -> Effects:
    """Type the body shared by a group, in its first member's environment."""
    sig = members[0]
    md, _ = method_lookup(prog, sig.cls, sig.method)
    return typeff(prog, meta, table, domain, _gamma_of(sig, prog), md.body)


def _callee_first(sigs: list, prog: Program) -> list:
    """Order signatures callees first: by the strongly connected component
    of their (class, method) node in the static call graph, then
    canonically.  The graph's edges are the call sites of each resolved
    body, plus one from each method to the same method at every direct
    subclass, whose entry ``ClassTable.join_rows`` joins into it."""
    succ: dict = {}
    for c in prog.classes:
        for mname, (md, _) in methods_of(prog, c.name).items():
            succ[(c.name, mname)] = [(e.recv_cls, e.method)
                                     for e in subexprs(md.body)
                                     if isinstance(e, Call)]
    for c in prog.classes:
        if c.parent in prog.by_name:
            for mname in methods_of(prog, c.parent):
                succ[(c.parent, mname)].append((c.name, mname))
    comp_of = {node: i
               for i, comp in enumerate(components(succ, succ.__getitem__))
               for node in comp}
    return sorted(sigs, key=lambda s: (comp_of[(s.cls, s.method)],
                                       s.sort_key()))


class _ReadLog:
    """The table as one typing sees it, noting the field rows it reads.
    The method rows it reads are the keys of the typing's S."""

    def __init__(self, table: ClassTable):
        self._table = table
        self.mtable = table.mtable
        self.field_rows: set = set()

    def fields_at(self, cls: str, region: Region, fname: str) -> frozenset:
        row = self._table.field_row(cls, region, fname)
        self.field_rows.add(row)
        return self._table.ftable.get(row, frozenset())


def infer(
    prog: Program,
    domain,
    intrinsics: dict | None = None,
    entries: list[str] | None = None,
    meta: RegionMeta | None = None,
) -> ClassTable:
    """Compute the tables to their least fixpoint with a worklist (Kildall,
    POPL 1973).  The worklist holds groups of bodied signatures
    (``_typing_groups``), callees first (``_callee_first``, ranked by a
    group's first member).  A group's body is typed once, its field updates
    are applied once, and its triple is joined into every member's row.
    The table's mutators keep it closed as it grows: a field update also
    reaches the field's Unknown row, and a joined entry also reaches the
    same method's entries at the superclasses.  Each typing records the rows
    it reads, and when a row grows, there or above, only the groups that
    read it go back on the worklist; the fixpoint is reached when the
    worklist empties.  Table entries are compared with ``==``.  Raises
    ``RuntimeError`` past the typing cap (``_typing_cap``), sized from the
    domain's ``fin_height``.  The height may grow as typings build new
    elements, so the cap is read again when the count passes it.

    With entries given (demand-driven), the worklist starts from the entry
    signatures, and a signature is activated, with its same-shape subclass
    signatures (whose entries are joined into it), the first time a body
    reads it.  Activating a signature puts its group on the worklist, typed
    before or not; a typing is joined only into the active members, the
    rest stay bottom, and ``table.analyzed`` is the set of active
    signatures."""
    if meta is None:
        meta = region_meta(prog)
    specs = intrinsics or {}
    table = init_table(prog, meta)
    seed_intrinsics(table, prog, meta, domain, specs)
    bodied = bodied_sigs(table, prog, meta, specs)
    groups = _typing_groups(_callee_first(bodied, prog), prog)
    rank = {sig: i for i, members in enumerate(groups) for sig in members}
    readers: dict = {}  # row (field-table key or Sig) -> ranks of its readers
    queue: list = []  # heap of group ranks: the lowest, most callee-like, first
    queued = [False] * len(groups)

    def push(i: int) -> None:
        if not queued[i]:
            queued[i] = True
            heapq.heappush(queue, i)

    def push_readers(rows) -> None:
        for row in rows:
            for i in readers.get(row, ()):
                push(i)

    active: set | None = None if entries is None else set()

    def activate(sigs) -> None:
        """Demand-driven: make sigs active, with the same-shape signatures
        at their subclasses, whose entries are joined into them."""
        frontier = [s for s in sigs if s not in active]
        active.update(frontier)
        while frontier:
            sig = frontier.pop()
            if sig in rank:
                push(rank[sig])
            for c in prog.classes:
                sub = Sig(c.name, sig.recv, sig.method, sig.args)
                if (sig.cls in prog.supers(c.name) and sub in table.mtable
                        and sub not in active):
                    active.add(sub)
                    frontier.append(sub)

    if active is None:
        for i in range(len(groups)):
            push(i)
    else:
        for entry in entries:
            cls, _, method = entry.partition(".")
            activate([sig for sig in table.mtable
                      if sig.cls == cls and sig.method == method
                      and not sig.args])

    # demand-driven, a group is typed again for each member activated
    # after its first typing, which no row growth accounts for
    extra = 0 if active is None else len(bodied) - len(groups)
    typings = 0
    limit = extra + _typing_cap(table, meta, len(groups), domain.fin_height())
    while queue:
        i = heapq.heappop(queue)
        queued[i] = False
        typings += 1
        if typings > limit:  # the height may have grown since it was read
            limit = extra + _typing_cap(table, meta, len(groups),
                                        domain.fin_height())
            if typings > limit:
                raise RuntimeError(
                    "inference failed to converge within its cap")
        log = _ReadLog(table)
        eff = _type_group(prog, meta, log, domain, groups[i])
        for row in log.field_rows | eff.s.keys():
            readers.setdefault(row, set()).add(i)
        grown = []
        for (key, region) in eff.fupdates:
            grown += table.add_field(key, region)
        members = groups[i]
        if active is not None:
            members = [sig for sig in members if sig in active]
        grown += table.join_rows(domain, members, eff.triple())
        push_readers(grown)
        if active is not None:
            activate(eff.s)
    if active is not None:
        table.analyzed = set(active)
    return table


def _typing_cap(table: ClassTable, meta: RegionMeta, bodies: int,
                height: int | None) -> int:
    """Bound on the typings of ``bodies`` typing groups.  Besides its first
    typing, a group is re-typed only after a row it reads grew, and rows
    grow a bounded number of times: each method entry at most ``height``
    times per key, each field row at most once per region.  With the height
    read after any number of typings, the bound holds for those typings,
    since every entry so far is an element built by then."""
    if height is None:
        return 1 << 30
    per_entry = (2 * len(meta.regions) + len(table.mtable)) * height
    growths = (len(table.mtable) * per_entry
               + len(table.ftable) * len(meta.regions))
    return bodies * (1 + growths)


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
    """Re-type every analyzed body against the frozen table, once per
    typing group (``_typing_groups``), and check each member's stored row
    and the field rows against its group's typing, member by member in
    signature order.  A sound table covers each body's triple and needs no
    further field updates."""
    if meta is None:
        meta = region_meta(prog)
    specs = intrinsics or {}
    # demand-driven, the bodies outside table.analyzed were deliberately skipped
    sigs = [sig for sig in bodied_sigs(table, prog, meta, specs)
            if table.analyzed is None or sig in table.analyzed]
    eff_of: dict = {}
    for members in _typing_groups(sigs, prog):
        eff_of.update(dict.fromkeys(
            members, _type_group(prog, meta, table, domain, members)))
    offenses: list[Offense] = []
    for sig in sigs:
        eff = eff_of[sig]
        for (key, region) in eff.fupdates:
            if region not in table.fields_at(*key):
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
