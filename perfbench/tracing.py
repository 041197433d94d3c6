"""Per-layer timing from outside the program.

``traced_check`` repeats the calls ``guidecheck.cli`` makes for one
``analyze`` invocation — load, parse, typecheck, profile monoid, regions,
inference, re-check, equations, solve, verdict loop, counterexample search —
in the same order, with a span around each public call.  It returns the
report those calls produce, so the caller can check it against the untraced
run's report, and the counts read off each layer's output.

Spans are kept in memory as (name, start, end, parent, check); a layer's
self time is its span's duration minus what its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from guidecheck.cli import AnalysisError, Report, SigReport, find_counterexample
from guidecheck.domains import ProfileDomain
from guidecheck.fjast import subexprs
from guidecheck.fjparser import parse_programs
from guidecheck.fjtypes import fj_typecheck
from guidecheck.guideline import load_guideline
from guidecheck.inference import bodied_sigs, check_well_typed, infer
from guidecheck.intrinsics import load_config, validate_against_program
from guidecheck.regions import Sig, region_meta
from guidecheck.solver import EquationSystem, solve

ROOT = "check"
# Layer spans in call order; the metric of each is '<name>_s'.
LAYERS = (
    "cli.load", "fjparser.parse", "fjtypes.typecheck", "profiles.monoid",
    "regions.meta", "inference.infer", "inference.recheck",
    "solver.from_table", "solver.solve", "cli.verdict", "cli.cex",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    check: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, check: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, check))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> dict:
        """Self time summed per (check, span name)."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: dict = {}
        for s, child in zip(self.spans, covered):
            key = (s.check, s.name)
            out[key] = out.get(key, 0.0) + (s.end - s.start - child)
        return out

    def root_totals(self) -> dict:
        """Duration of each check's root span."""
        return {s.check: s.end - s.start
                for s in self.spans if s.parent is None}


def _options(argv: list) -> dict:
    """The 'analyze' arguments the workloads use, as lists per flag."""
    opts: dict = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts.setdefault(flag, []).append(value)
    if set(opts) - {"--program", "--guideline", "--config", "--entry",
                    "--fuel", "--report"}:
        raise ValueError(f"traced run does not replicate {sorted(opts)}")
    return opts


def traced_check(tracer: Tracer, name: str, argv: list):
    """Run one check through the layers under spans.  Returns the report as
    JSON and the layer outputs the counts are read from."""
    opts = _options(argv)
    entries = opts.get("--entry", [])
    fuel = int(opts.get("--fuel", ["32"])[0])

    def span(layer):
        return tracer.span(layer, name)

    with span(ROOT):
        with span("cli.load"):
            guideline = load_guideline(opts["--guideline"][0])
            sources = []
            for path in opts["--program"]:
                with open(path, encoding="utf-8") as fh:
                    sources.append((fh.read(), path))
        with span("fjparser.parse"):
            prog = parse_programs(sources, alphabet=guideline.alphabet)
        with span("cli.load"):
            specs = {}
            if "--config" in opts:
                specs = load_config(opts["--config"][0], guideline.alphabet)
        with span("fjtypes.typecheck"):
            type_errors = fj_typecheck(prog)
        if type_errors:
            raise AnalysisError(type_errors)
        missing = sorted(prog.alphabet - set(guideline.alphabet))
        if missing:
            raise AnalysisError(
                [f"program emits {e}, not in the guideline alphabet"
                 for e in missing])
        with span("cli.load"):
            if specs:
                validate_against_program(specs, prog)
        with span("profiles.monoid"):
            domain = ProfileDomain(guideline)
        with span("regions.meta"):
            meta = region_meta(prog)
        with span("inference.infer"):
            table = infer(prog, domain, intrinsics=specs, meta=meta)
        with span("inference.recheck"):
            offenses = check_well_typed(prog, table, domain, specs, meta)
        with span("solver.from_table"):
            system = EquationSystem.from_table(table, domain)
        with span("solver.solve"):
            eta = solve(system, domain)
        with span("cli.verdict"):
            sig_reports = []
            all_ok = True
            for sig in sorted(table.mtable, key=Sig.sort_key):
                t, h, _ = table.mtable[sig]
                div = eta[sig]
                if not t and not h and domain.mix_is_bottom(div):
                    continue
                r_ok = all(domain.accepts_fin(u) for _, u in sorted(
                    t.items(), key=lambda kv: kv[0].sort_key()))
                h_ok = all(domain.accepts_fin(u) for _, u in sorted(
                    h.items(), key=lambda kv: kv[0].sort_key()))
                d_ok = domain.accepts_mix(div)
                all_ok = all_ok and r_ok and h_ok and d_ok
                sig_reports.append(SigReport(sig, r_ok, h_ok, d_ok))
        counterexamples = []
        cex_calls = 0
        if not all_ok and entries:
            for entry in sorted(entries):
                cex_calls += 1
                with span("cli.cex"):
                    ce = find_counterexample(prog, guideline, entry, fuel,
                                             specs)
                if ce is not None:
                    counterexamples.append(ce)
        report = Report("pass" if all_ok else "fail", sig_reports,
                        counterexamples).to_json()
    outputs = {
        "prog": prog, "specs": specs, "domain": domain, "meta": meta,
        "table": table, "offenses": offenses, "system": system,
        "sig_reports": sig_reports,
        "cex_calls": cex_calls,
    }
    return report, outputs


def counts(outputs: dict) -> dict:
    """Work done per layer, read off the layer outputs."""
    prog, domain, table = outputs["prog"], outputs["domain"], outputs["table"]
    system = outputs["system"]
    nonbottom = sum(
        1 for t, h, s in table.mtable.values()
        for part in (t, h, s) for v in part.values()
        if not domain.fin_is_bottom(v))
    return {
        "fjparser.ast_nodes": sum(
            1 for c in prog.classes for md in c.methods
            for _ in subexprs(md.body)),
        "profiles.monoid_size": len(domain.monoid.elements),
        "inference.signatures": len(table.mtable),
        "inference.bodied_sigs": len(bodied_sigs(
            table, prog, outputs["meta"], outputs["specs"])),
        "inference.nonbottom_entries": nonbottom,
        "inference.offenses": len(outputs["offenses"]),
        "solver.equations": len(system.sigs),
        "solver.edges": sum(len(r) for r in system.rhs.values()),
        "solver.largest_scc": largest_scc(system.rhs),
        "cli.failing_sigs": sum(1 for r in outputs["sig_reports"] if not r.ok),
        "cli.cex_calls": outputs["cex_calls"],
    }


def largest_scc(graph: dict) -> int:
    """Size of the largest strongly connected component (iterative Tarjan)."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    best = 0
    for root in graph:
        if root in index:
            continue
        work = [(root, iter(graph.get(root, ())))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succ = work[-1]
            advanced = False
            for nxt in succ:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(graph.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                size = 0
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    size += 1
                    if member == node:
                        break
                best = max(best, size)
    return best
