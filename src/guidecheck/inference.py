"""Effect inference: region-sensitive typing of method bodies to a fixpoint.

``typeff`` types one expression under a region environment and a current
table, producing the effect triple (T, H, S) described in ``classtable`` plus
the field-table updates the expression demands; a run of emits, one
``Emit`` node, is typed as its word's profile.  ``infer`` types the method
bodies callees first from a worklist, writes the results through the
table's own mutators, which keep it closed under the hierarchy, and
re-types only the bodies that read a row that grew, until nothing grows.
``check_well_typed`` re-types every body against a frozen table and reports
any entry the table fails to cover, checking each row object that the
signatures of a typing group share once.

Environments map variable names (including ``this``) to regions.  A typing
of a node looks its environment up only at the variables the node reads
(``Program.reads``, a property of the syntax computed with the program), so
one key, the node and its reading (``_key``), shares typings: of a body
among the signatures that resolve to it (Sharir and Pnueli's summaries,
1981), of a ``Let`` body or handler among the value regions it binds (Might
and Shivers' abstract garbage collection, 2006), and of the latter across
the whole re-check.
"""

from __future__ import annotations

import heapq
from functools import reduce

from .classtable import ClassTable, by_id, init_table
from .effexpr import dict_join, dict_scale
from .fjast import (
    Call,
    Cast,
    Emit,
    Expr,
    GetField,
    If,
    Let,
    New,
    Null,
    Program,
    SetField,
    Throw,
    TryCatch,
    Var,
)
from .fjtypes import preceq
from .intrinsics import stub_lookup
from .regions import NULL_REGION, RegionMeta, Sig, created_at, region_meta
from .solver import components


class Effects:
    def __init__(self, t: dict, h: dict, s: dict, fupdates: list):
        self.t = t  # Region -> fin element
        self.h = h  # Region -> fin element
        self.s = s  # Sig -> fin element
        self.fupdates = fupdates  # ((cls, Region, fname), Region) pairs

    def triple(self):
        return (self.t, self.h, self.s)


TYPING_WORK_CAP = 1 << 18  # the most steps (_rule) of one body's typing


class _Typing:
    """What a typing reads besides its environment: the program, its
    regions, a table, the domain and the program's read sets, with the
    memo of typings by (node, reading), the steps taken so far and the
    field rows read; the method rows read are the keys of the typing's S."""

    def __init__(self, prog: Program, meta: RegionMeta, table: ClassTable,
                 domain):
        self.prog = prog
        self.meta = meta
        self.table = table
        self.domain = domain
        self.memo: dict = {}
        self.work = 0
        self.field_rows: set = set()


def typeff(ty: _Typing, gamma: dict, e: Expr) -> Effects:
    """e's effects under gamma.  A let spine is followed in a loop: a value
    of one region is bound directly; values in several regions are joined
    when the rest of the spine does not read the variable, so cannot tell
    them apart, and otherwise the rest is typed per reading (``_then``).
    The effects are folded prefix first: concatenation distributes over
    join, so scaling the tail once by the product of the bindings' values
    gives the values, and the key order, of folding back from the tail.
    An emit binding is typed here as ``_rule`` types it, with no call and
    no ``Effects``."""
    domain = ty.domain
    frames = []  # (u, h, s) per binding: the effect of reaching its body
    ups: list = []
    while isinstance(e, Let):
        if not frames:
            gamma = dict(gamma)  # the spine's bindings extend a copy
        if e.init.__class__ is Emit:  # _rule's step, taken inline
            ty.work += len(e.init.events)
            gamma[e.var] = NULL_REGION
            frames.append((domain.alpha_word(e.init.events), {}, {}))
            e = e.body
            continue
        first = _rule(ty, gamma, e.init)
        ups += first.fupdates
        if len(first.t) == 1:
            ((r, u),) = first.t.items()
            gamma[e.var] = r
        elif first.t and e.var not in ty.prog.reads[id(e.body)]:
            u = reduce(domain.fin_join, first.t.values())
        else:
            # the init's returning values go on to the body; its throws stay
            tail = _then(ty, gamma, e.var, e.body, first.t, {}, first.h,
                         first.s, [])
            break
        frames.append((u, first.h, first.s))
        e = e.body
    else:
        tail = _rule(ty, gamma, e)
    if not frames:
        return Effects(tail.t, tail.h, tail.s, ups + tail.fupdates)
    # prefix first: binding i's own throws and calls follow u₁·…·uᵢ₋₁, and
    # the tail's effects follow the whole product, scaled once; most
    # bindings neither throw nor call
    concat, join = domain.fin_concat, domain.fin_join
    prefix, h, s = frames[0]
    for u, h0, s0 in frames[1:]:
        if h0:
            h = dict_join(h, dict_scale(prefix, h0, concat), join)
        if s0:
            s = dict_join(s, dict_scale(prefix, s0, concat), join)
        prefix = concat(prefix, u)
    return Effects(dict_scale(prefix, tail.t, concat),
                   dict_join(h, dict_scale(prefix, tail.h, concat), join),
                   dict_join(s, dict_scale(prefix, tail.s, concat), join),
                   ups + tail.fupdates)


def _rule(ty: _Typing, gamma: dict, e: Expr) -> Effects:
    """One step: the typing rule of e; a ``Let`` spine is ``typeff``'s.
    A run of emits is typed as one word, still one step per emit: α is a
    monoid morphism, so α(a₁)·…·α(aₖ) = α(a₁…aₖ)."""
    ty.work += 1
    domain = ty.domain
    if isinstance(e, Var):
        return Effects({gamma[e.name]: domain.alpha_word(())}, {}, {}, [])
    if isinstance(e, Null):
        return Effects({NULL_REGION: domain.alpha_word(())}, {}, {}, [])
    if isinstance(e, New):
        return Effects({created_at(e.label): domain.alpha_word(())}, {}, {}, [])
    if isinstance(e, Emit):
        ty.work += len(e.events) - 1
        return Effects({NULL_REGION: domain.alpha_word(e.events)}, {}, {}, [])
    if isinstance(e, Cast):
        # the value is unchanged; a failing cast has no outcome to cover
        return typeff(ty, gamma, e.expr)
    if isinstance(e, GetField):
        row = ty.table.field_row(e.recv_cls, gamma[e.recv], e.fname)
        ty.field_rows.add(row)
        t: dict = {}
        for r in sorted(ty.table.ftable.get(row, ())):
            t = dict_join(t, {r: domain.alpha_word(())}, domain.fin_join)
        return Effects(t, {}, {}, [])
    if isinstance(e, SetField):
        src = gamma[e.value]
        update = ((e.recv_cls, gamma[e.recv], e.fname), src)
        return Effects({src: domain.alpha_word(())}, {}, {}, [update])
    if isinstance(e, Call):
        sig = Sig(e.recv_cls, gamma[e.recv], e.method,
                  tuple(gamma[a] for a in e.args))
        t, h, _ = ty.table.mtable[sig]
        return Effects(dict(t), dict(h), {sig: domain.alpha_word(())}, [])
    if isinstance(e, If):
        rl, rr = gamma[e.left], gamma[e.right]
        els = typeff(ty, gamma, e.els)
        if ty.meta.disjoint(rl, rr):
            return els
        then = typeff(ty, gamma, e.then)
        join = domain.fin_join
        return Effects(dict_join(then.t, els.t, join), dict_join(then.h, els.h, join),
                       dict_join(then.s, els.s, join), then.fupdates + els.fupdates)
    if isinstance(e, Throw):
        inner = typeff(ty, gamma, e.expr)
        h = dict_join(inner.t, inner.h, domain.fin_join)
        return Effects({}, h, inner.s, inner.fupdates)
    if isinstance(e, TryCatch):
        body = typeff(ty, gamma, e.body)
        caught, escaped = catch_split(body.h, e.exc_cls, ty.prog, ty.meta)
        return _then(ty, gamma, e.var, e.handler, caught, body.t, escaped,
                     body.s, body.fupdates)
    if isinstance(e, Let):
        return typeff(ty, gamma, e)
    raise AssertionError(f"unhandled expression {e!r}")


def _then(ty: _Typing, gamma: dict, var: str, cont: Expr, values: dict,
          t: dict, h: dict, s: dict, ups: list) -> Effects:
    """t, h, s and ups joined with the effects of cont run after each value
    region r of values with var bound to r, each prefixed by values[r].
    Regions that cont cannot tell apart, not reading var, share a typing."""
    concat, join = ty.domain.fin_concat, ty.domain.fin_join
    for r, u in sorted(values.items()):
        rest = _typed(ty, {**gamma, var: r}, cont)
        t = dict_join(t, dict_scale(u, rest.t, concat), join)
        h = dict_join(h, dict_scale(u, rest.h, concat), join)
        s = dict_join(s, dict_scale(u, rest.s, concat), join)
        ups = ups + rest.fupdates
    return Effects(t, h, s, ups)


def _key(reads: dict, gamma: dict, e: Expr) -> tuple:
    """The one key of every shared typing: node e and its reading, the
    regions gamma gives the variables e reads, in name order."""
    return (id(e), tuple([gamma[v] for v in sorted(reads[id(e)])]))


def _typed(ty: _Typing, gamma: dict, e: Expr) -> Effects:
    """typeff of e, made once per reading.  Only a typing made here repeats
    steps, and only the multi-region variables live at once multiply them,
    as they multiply the per-region rule's typings; so here the steps are
    checked against ``TYPING_WORK_CAP``."""
    key = _key(ty.prog.reads, gamma, e)
    eff = ty.memo.get(key)
    if eff is None:
        if ty.work > TYPING_WORK_CAP:
            raise RuntimeError(f"typing a method body took more than "
                               f"{TYPING_WORK_CAP} steps")
        eff = ty.memo[key] = typeff(ty, gamma, e)
    return eff


def catch_split(h: dict, exc_cls: str, prog: Program,
                meta: RegionMeta) -> tuple:
    """Split throw entries h at a handler for exc_cls into those it may
    catch and those that may escape it, holding some class that is no
    subclass of exc_cls.  Null holds only NullType, below every class, so
    it is caught, as a run's handler catches a thrown null."""
    caught, escaped = {}, {}
    for r, u in h.items():
        subclass = [preceq(prog, c, exc_cls) for c in meta.cls_of(r)]
        if any(subclass):
            caught[r] = u
        if not all(subclass):
            escaped[r] = u
    return caught, escaped


# -- the fixpoint --------------------------------------------------------------


def seed_intrinsics(
    table: ClassTable, prog: Program, meta: RegionMeta, domain,
    specs: dict,
) -> None:
    """Pin each stub's declared row at every signature it governs: each
    class that resolves the method to the stub, each receiver region, and
    each argument tuple its patterns match.  The specs come checked against
    the program (``intrinsics.validate_against_program``): every region a
    pattern names is one of the program's."""
    for (cls, method), spec in sorted(specs.items()):
        t_fin = spec.emits.alpha(domain)
        h = {}
        if spec.throw_region is not None:
            h[spec.throw_region] = spec.throws.alpha(domain)
        row = ({spec.result_region: t_fin}, h, {})  # one row per stub
        for c in prog.classes:
            if stub_lookup(specs, prog, c.name, method) is not spec:
                continue
            for recv in meta.regions:
                for args in spec.arg_regions(meta):
                    table.pin(domain, Sig(c.name, recv, method, args), row)


def bodied_sigs(table: ClassTable, prog: Program, meta: RegionMeta,
                specs: dict) -> list[Sig]:
    """Signatures whose method body gets typed directly: the receiver class
    is creatable in the receiver region and the resolved method is no stub.
    In the table's order, the canonical one (``init_table``)."""
    creatable = {r: meta.cls_of(r) for r in meta.regions}
    return [sig for sig in table.mtable
            if sig.cls in creatable[sig.recv] and sig not in table.pinned
            and stub_lookup(specs, prog, sig.cls, sig.method) is None]


def _env(md, values) -> dict:
    """The environment md's body is typed in: ``this`` and the parameters
    bound to values, in that order; a later name wins."""
    return dict(zip(["this", *(p.name for p in md.params)], values))


def _body_env(sig: Sig, prog: Program) -> tuple:
    """The body sig resolves to, and the environment it is typed in."""
    md, _ = prog.dispatch[sig.cls][sig.method]
    return md.body, _env(md, (sig.recv, *sig.args))


def _typing_groups(sigs: list, prog: Program) -> list:
    """Split sigs into groups whose bodies type alike, by ``_key``: so
    inherited bodies are shared.  Groups come in the order of their first
    member in sigs, and members keep that order.  Each (class, method) is
    resolved once, and ``_key`` taken once over the environment of
    positions in (receiver, *arguments), so no signature builds one."""
    where: dict = {}  # (cls, method) -> _key over positions
    groups: dict = {}
    for sig in sigs:
        at = where.get((sig.cls, sig.method))
        if at is None:
            md, _ = prog.dispatch[sig.cls][sig.method]
            at = where[sig.cls, sig.method] = _key(
                prog.reads, _env(md, range(1 + len(md.params))), md.body)
        body_id, positions = at
        regions = (sig.recv, *sig.args)
        key = (body_id, tuple([regions[i] for i in positions]))
        groups.setdefault(key, []).append(sig)
    return list(groups.values())


def _callee_first(sigs: list, prog: Program) -> list:
    """Order signatures callees first: by the strongly connected component
    of their (class, method) node in the static call graph, then in their
    given order, the canonical one.  The graph's edges are the call sites
    of each resolved body (``Program.calls``), plus one from each method to
    the same method at every direct subclass, whose entry
    ``ClassTable.join_rows`` joins into it."""
    succ: dict = {}
    for c in prog.classes:
        for mname, (md, _) in prog.dispatch[c.name].items():
            succ[(c.name, mname)] = [(e.recv_cls, e.method)
                                     for e in prog.calls[id(md.body)]]
    for c in prog.classes:
        for mname in prog.dispatch[c.parent]:  # Object's is empty
            succ[(c.parent, mname)].append((c.name, mname))
    comp_of = {node: i
               for i, comp in enumerate(components(succ, succ.__getitem__))
               for node in comp}
    # sorted is stable, and sigs come in the canonical order
    return sorted(sigs, key=lambda s: comp_of[s.cls, s.method])


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
    are applied once, and its triple is joined into every member's row,
    once per distinct row object, so the members keep sharing one row.
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
    groups = table.groups = _typing_groups(_callee_first(bodied, prog), prog)
    rank = {sig: i for i, members in enumerate(groups) for sig in members}
    readers: dict = {}  # row (field-table key or Sig) -> ranks of its readers
    queue: list = []  # heap of group ranks: the lowest, most callee-like, first
    queued = [False] * len(groups)

    def push(i: int) -> None:
        if not queued[i]:
            queued[i] = True
            heapq.heappush(queue, i)

    active: set | None = None if entries is None else set()
    below: dict = {}  # class -> its direct subclasses
    for c in prog.classes:
        below.setdefault(c.parent, []).append(c.name)

    def activate(sigs) -> None:
        """Demand-driven: make sigs active, with the same-shape signatures
        at their subclasses, whose entries are joined into them.  The
        active set stays closed downward, so a signature activates the
        ones at its direct subclasses, and each of those its own."""
        frontier = [s for s in sigs if s not in active]
        active.update(frontier)
        while frontier:
            sig = frontier.pop()
            if sig in rank:
                push(rank[sig])
            for cls in below.get(sig.cls, ()):
                sub = Sig(cls, sig.recv, sig.method, sig.args)
                if sub in table.mtable and sub not in active:
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
        ty = _Typing(prog, meta, table, domain)
        body, gamma = _body_env(groups[i][0], prog)
        eff = typeff(ty, gamma, body)
        for row in ty.field_rows | eff.s.keys():
            readers.setdefault(row, set()).add(i)
        grown = []
        for (key, region) in eff.fupdates:
            grown += table.add_field(key, region)
        members = groups[i]
        if active is not None:
            members = [sig for sig in members if sig in active]
        grown += table.join_rows(domain, members, eff.triple())
        for row in grown:
            for j in readers.get(row, ()):
                push(j)
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


class Offense:
    def __init__(self, sig: Sig, part: str, detail: str):
        self.sig = sig
        self.part = part
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.sig}: {self.part}: {self.detail}"


def check_well_typed(
    prog: Program,
    table: ClassTable,
    domain,
    intrinsics: dict | None = None,
    meta: RegionMeta | None = None,
) -> list[Offense]:
    """Re-type every analyzed body against the frozen table, once per
    typing group, and check the field rows and each distinct row object its
    members hold against the typing.  The table must come from ``infer``,
    which keeps the typing groups on it; any other table is a ValueError.
    A row's offenses are reported for every signature holding it, in
    signature order.  A sound table covers each body's triple and needs no
    further field updates.  ``intrinsics`` is unused: the groups hold no
    stubbed signature."""
    if table.groups is None:
        raise ValueError("the table was not built by infer")
    if meta is None:
        meta = region_meta(prog)
    # one memo over the frozen table, for the continuations of every body
    ty = _Typing(prog, meta, table, domain)
    found: dict = {}  # sig -> its offenses as (part, detail), if any
    for members in table.groups:
        if table.analyzed is not None:
            # demand-driven, the others were deliberately skipped
            members = [sig for sig in members if sig in table.analyzed]
            if not members:
                continue
        body, gamma = _body_env(members[0], prog)
        ty.work = 0  # the cap counts one body's typing
        eff = typeff(ty, gamma, body)
        fields = [("F", f"field row {key} lacks {region}")
                  for key, region in eff.fupdates
                  if region not in table.fields_at(*key)]
        rows = list(map(table.mtable.__getitem__, members))
        offenses = {key: mine for key, row in by_id(rows).items()
                    if (mine := fields + _uncovered(domain, eff, row))}
        if offenses:
            for sig, row in zip(members, rows):
                if id(row) in offenses:
                    found[sig] = offenses[id(row)]
    return [Offense(sig, part, detail)
            for sig in sorted(found, key=Sig.sort_key)
            for part, detail in found[sig]]


def _uncovered(domain, eff: Effects, row: tuple) -> list:
    """The entries of eff's triple that row fails to cover, as (part,
    detail) pairs."""
    return [(part, f"entry {k} not covered")
            for part, got, have in zip("THS", eff.triple(), row)
            for k, v in got.items()
            if k not in have or not domain.fin_leq(v, have[k])]
