"""The round-robin sweep that ``guidecheck.inference.infer`` replaced, and
the per-region typing rule that ``guidecheck.inference.typeff`` replaced.

``infer_by_sweeps`` re-types every bodied signature on every sweep, in the
canonical signature order, and closes the tables from scratch after each
sweep, until a sweep changes nothing; under ``entries`` it grows the set of
analyzed signatures sweep by sweep.  It computes the same least fixpoint as
the worklist in ``infer``, with far more re-typings, and the tests check the
two against each other table for table.

``typeff`` here types a ``Let`` body and a handler once per region of the
value they bind (``_sequence``), whether or not they read it, recursing at
every binding; the sweep types with it, so the tests check the rule keyed by
reading against it as well.

``typeff_right_fold`` is the package's spine loop as it folded a let
spine back from its tail, scaling the effects once per binding, and typed
emits one at a time, as when each was a node of its own: it folds the word
of an ``Emit`` letter by letter, one step each.  The tests check the
prefix-first fold that replaced it, and the one word per run, against it,
table for table.

``check_per_signature`` is the re-check before it worked per typing group
and row object: it checks every signature's row on its own, and the tests
check that ``check_well_typed`` reports the same offenses in the same order.

``reads_of`` is the recursive post-order pass that computed the read sets
before a Program computed them in its one pass over each body, and
``callee_first_by_walk`` orders signatures callees first from a walk over
each resolved body, before the Program listed the calls; the tests check
``Program.reads`` and ``inference._callee_first`` against them.

The reference keeps its own tables and closure, written apart from the
mutators of ``guidecheck.classtable.ClassTable``: a field row per class
that has the field, made to agree with the parent's row when the field is
inherited, and a method entry that absorbs the entries at every subclass
directly, wherever pinned entries lie between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product

from guidecheck.classtable import join_triple
from guidecheck.effexpr import dict_join, dict_scale
from guidecheck.fjast import (
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
    subexprs,
)
from guidecheck.fjtypes import method_lookup, preceq
from guidecheck.inference import (
    Effects,
    Offense,
    _body_env,
    _rule,
    _then,
    _typed,
    _Typing,
    bodied_sigs,
    seed_intrinsics,
)
from guidecheck.solver import components
from guidecheck.regions import (
    NULL_REGION,
    UNKNOWN,
    Region,
    RegionMeta,
    Sig,
    created_at,
    region_meta,
)
from hierarchy_reference import fields_of, methods_of, supers


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
        # letter by letter, as per-statement emits were typed
        word = reduce(domain.fin_concat,
                      [domain.alpha_word((a,)) for a in e.events], _eps(domain))
        return Effects({NULL_REGION: word}, {}, {}, [])
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


def typeff_right_fold(ty: _Typing, gamma: dict, e: Expr) -> Effects:
    """``guidecheck.inference.typeff`` as it was before the prefix-first
    fold and the word ``Emit``: the same spine loop, each event of a run a
    binding of its own, the effects folded back from the spine's tail, T, H
    and S scaled by each binding's value in turn."""
    domain = ty.domain
    frames = []  # (u, h, s) per binding: the effect of reaching its body
    ups: list = []

    def letters(events):
        ty.work += len(events)
        frames.extend((domain.alpha_word((a,)), {}, {}) for a in events)

    while isinstance(e, Let):
        if not frames:
            gamma = dict(gamma)  # the spine's bindings extend a copy
        if isinstance(e.init, Emit):
            letters(e.init.events)
            gamma[e.var] = NULL_REGION
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
            tail = _then(ty, gamma, e.var, e.body, first.t, {}, first.h,
                         first.s, [])
            break
        frames.append((u, first.h, first.s))
        e = e.body
    else:
        if isinstance(e, Emit):  # a run's last event is the spine's tail
            letters(e.events[:-1])
            e = Emit(e.events[-1:])
        tail = _rule(ty, gamma, e)
    t, h, s = tail.t, tail.h, tail.s
    concat, join = domain.fin_concat, domain.fin_join
    for u, h0, s0 in reversed(frames):
        t = dict_scale(u, t, concat)
        h = dict_join(h0, dict_scale(u, h, concat), join)
        s = dict_join(s0, dict_scale(u, s, concat), join)
    return Effects(t, h, s, ups + tail.fupdates)


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
            for fd in fields_of(prog, c.name):
                ftable[(c.name, r, fd.name)] = frozenset({NULL_REGION})
        for mname, (md, _) in methods_of(prog, c.name).items():
            for recv in meta.regions:
                for args in product(meta.regions, repeat=len(md.params)):
                    mtable[Sig(c.name, recv, mname, args)] = ({}, {}, {})
    return SweepTable(ftable, mtable)


def _close(table: SweepTable, prog: Program, meta: RegionMeta, domain) -> bool:
    """Close both tables; returns whether any row changed."""
    changed = False
    ftable = table.ftable
    while True:
        before = dict(ftable)
        for c in prog.classes:
            parent_fields = {fd.name for fd in fields_of(prog, c.parent)}
            for fd in fields_of(prog, c.name):
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
            if c.name != sig.cls and sig.cls in supers(prog, c.name):
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
    # the sweep table is built in program order, not the canonical one
    bodied = sorted(bodied_sigs(table, prog, meta, specs), key=Sig.sort_key)

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
            body, gamma = _body_env(sig, prog)
            eff = typeff(prog, meta, table, domain, gamma, body)
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
            if sig.cls not in supers(prog, c.name):
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


def check_per_signature(
    prog: Program,
    table,
    domain,
    intrinsics: dict | None = None,
    meta: RegionMeta | None = None,
) -> list[Offense]:
    """Re-type every analyzed body against the frozen table, once per key
    (``_key``), and check each signature's stored row and the field rows
    against its body's typing, in signature order."""
    if meta is None:
        meta = region_meta(prog)
    specs = intrinsics or {}
    sigs = [sig for sig in bodied_sigs(table, prog, meta, specs)
            if table.analyzed is None or sig in table.analyzed]
    ty = _Typing(prog, meta, table, domain)
    offenses: list[Offense] = []
    for sig in sigs:
        body, gamma = _body_env(sig, prog)
        ty.work = 0
        eff = _typed(ty, gamma, body)
        for (key, region) in eff.fupdates:
            if region not in table.fields_at(*key):
                offenses.append(Offense(sig, "F", f"field row {key} lacks {region}"))
        for part, got, have in zip("THS", eff.triple(), table.mtable[sig]):
            for k, v in got.items():
                held = have.get(k)
                if held is None or not domain.fin_leq(v, held):
                    offenses.append(Offense(sig, part, f"entry {k} not covered"))
    return offenses


def reads_of(prog: Program) -> dict:
    """The variables each method body, ``Let`` body and handler of prog
    reads before binding them, keyed by the node's id: what a typing of the
    node can observe of its environment.  One post-order pass."""
    out: dict = {}
    for c in prog.classes:
        for md in c.methods:
            out[id(md.body)] = _reads(md.body, out)
    return out


def _reads(e: Expr, out: dict) -> frozenset:
    """The variables e reads before binding them.  Stores those of each
    ``Let`` body and handler below e in out, one set shared along a spine
    until a binding changes it."""
    spine = []
    while isinstance(e, Let):
        spine.append(e)
        e = e.body
    if isinstance(e, (Cast, Throw)):
        names = _reads(e.expr, out)
    elif isinstance(e, If):
        names = _reads(e.then, out) | _reads(e.els, out) | {e.left, e.right}
    elif isinstance(e, TryCatch):
        out[id(e.handler)] = handler = _reads(e.handler, out)
        names = _reads(e.body, out) | (handler - {e.var})
    elif isinstance(e, Var):
        names = frozenset((e.name,))
    elif isinstance(e, Call):
        names = frozenset((e.recv, *e.args))
    elif isinstance(e, (GetField, SetField)):
        names = frozenset((e.recv, e.value) if isinstance(e, SetField) else (e.recv,))
    else:
        names = frozenset()
    for let in reversed(spine):
        out[id(let.body)] = names
        init = _reads(let.init, out)
        if let.var in names or not init <= names:
            names = (names - {let.var}) | init
    return names


def callee_first_by_walk(sigs: list, prog: Program) -> list:
    """sigs ordered as ``inference._callee_first`` orders them, with the
    call graph's edges read by walking every resolved body."""
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
    return sorted(sigs, key=lambda s: comp_of[s.cls, s.method])
