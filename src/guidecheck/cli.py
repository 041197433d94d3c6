"""End-to-end analysis and the command-line interface.

``analyze`` wires the pipeline together: static checks, effect inference
over the guideline's profile domain, the divergence equations and their
closed-form solution, then one accept/reject verdict per signature — its
returning effects, its throwing effects and its divergence effects must all
be accepted by the guideline.  When a verdict fails and entry points are
given, ``find_counterexample`` searches interpreter runs for a concrete
witness: a rejected complete trace, a prefix no accepted word extends, or a
diverging execution whose infinite trace the guideline rejects (validated by
replaying its script).  The search deepens the fuel one call at a time, so
the witness it reports needs the least fuel of any.

Exit codes: 0 all signatures conform, 1 some verdict failed, 2 the inputs
were unusable (an input file that cannot be read or is not UTF-8, parse,
type, guideline, config or entry errors, a call to a stub that none of its
argument patterns matches, or a report file that cannot be written), 3 an
internal limit was hit (recursion depth, the run or inference re-typing
caps, the cap on the work of typing one method body, or the profile
monoid's size cap, which holds wherever profiles are built: in inference,
the divergence solve and the counterexample search).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .domains import ProfileDomain
from .fjast import NULL_TYPE, FjError, Program
from .fjparser import parse_programs
from .fjtypes import fj_typecheck, method_lookup
from .guideline import GuidelineAutomaton, GuidelineError, parse_guideline
from .inference import check_well_typed, infer
from .interp import (
    DEFAULT_FUEL,
    OutOfFuel,
    Terminated,
    Thrown,
    enumerate_traces,
    replay_entry,
)
from .intrinsics import (
    ConfigError,
    parse_config,
    stub_lookup,
    validate_against_program,
)
from .profiles import monoid_of
from .regions import Sig, region_meta
from .solver import EquationSystem, solve


class AnalysisError(Exception):
    """Input rejected before analysis: parse/type/config problems."""

    def __init__(self, messages):
        super().__init__("; ".join(str(m) for m in messages))


class SigReport:
    def __init__(self, sig: Sig, returns_ok: bool, throws_ok: bool,
                 diverges_ok: bool):
        self.sig = sig
        self.returns_ok = returns_ok
        self.throws_ok = throws_ok
        self.diverges_ok = diverges_ok

    @property
    def ok(self) -> bool:
        return self.returns_ok and self.throws_ok and self.diverges_ok

    def to_json(self) -> dict:
        return {
            "class": self.sig.cls,
            "receiver": str(self.sig.recv),
            "method": self.sig.method,
            "args": [str(a) for a in self.sig.args],
            "returns_ok": self.returns_ok,
            "throws_ok": self.throws_ok,
            "diverges_ok": self.diverges_ok,
        }


class Counterexample:
    def __init__(self, entry: str, kind: str, trace: tuple,
                 cycle: tuple | None = None, position: int | None = None,
                 fuel: int | None = None):
        self.entry = entry
        # finite-trace | dead-prefix | silent-divergence | divergence
        self.kind = kind
        self.trace = trace
        self.cycle = cycle
        self.position = position
        self.fuel = fuel  # the least fuel at which the search found it

    def to_json(self) -> dict:
        out = {
            "entry": self.entry,
            "kind": self.kind,
            "trace": list(self.trace),
        }
        if self.cycle is not None:
            out["cycle"] = list(self.cycle)
        if self.position is not None:
            out["position"] = self.position
        if self.fuel is not None:
            out["fuel"] = self.fuel
        return out

    def describe(self) -> str:
        text = self._describe_kind()
        if self.fuel is not None:
            text += (f" (found at fuel {self.fuel}; no run with less fuel "
                     f"shows a violation)")
        return text

    def _describe_kind(self) -> str:
        word = " ".join(self.trace) if self.trace else "(empty)"
        if self.kind == "finite-trace":
            return (f"{self.entry}: run emits '{word}', rejected at "
                    f"position {self.position}")
        if self.kind == "dead-prefix":
            return (f"{self.entry}: prefix '{word}' admits no accepted "
                    f"extension (dead at position {self.position})")
        if self.kind == "silent-divergence":
            return (f"{self.entry}: diverges after '{word}' emitting "
                    f"nothing further; the finite trace is rejected")
        cyc = " ".join(self.cycle or ())
        stem = f"emitting '{word}' then " if self.trace else ""
        return (f"{self.entry}: diverges {stem}emitting '{cyc}' forever; "
                f"the infinite trace is rejected")


class Report:
    def __init__(self, verdict: str, signatures: list, counterexamples: list):
        self.verdict = verdict  # "pass" | "fail"
        self.signatures = signatures
        self.counterexamples = counterexamples

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "signatures": [s.to_json() for s in self.signatures],
            "counterexamples": [c.to_json() for c in self.counterexamples],
        }

    def to_text(self) -> str:
        lines = []
        for s in self.signatures:
            marks = ", ".join(
                f"{name}:{'ok' if okay else 'FAIL'}"
                for name, okay in (
                    ("returns", s.returns_ok),
                    ("throws", s.throws_ok),
                    ("diverges", s.diverges_ok),
                )
            )
            lines.append(f"{s.sig}  {marks}")
        for c in self.counterexamples:
            lines.append(f"counterexample: {c.describe()}")
        if self.counterexamples:
            lines.append(
                "(counterexamples come from a bounded enumeration of runs; "
                "not finding one proves nothing)"
            )
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def analyze(
    prog: Program,
    guideline: GuidelineAutomaton,
    intrinsics: dict | None = None,
    fuel: int = DEFAULT_FUEL,
    entries: list | None = None,
    demand_driven: bool = False,
) -> Report:
    type_errors = fj_typecheck(prog)
    if type_errors:
        raise AnalysisError(type_errors)
    if entries:
        entries = list(dict.fromkeys(entries))  # a repeated entry is one
    _check_entries(prog, entries or [])
    missing = sorted(prog.alphabet - set(guideline.alphabet))
    if missing:
        raise AnalysisError(
            [f"program emits {e}, not in the guideline alphabet"
             for e in missing]
        )
    specs = intrinsics or {}
    if specs:
        validate_against_program(specs, prog)

    domain = ProfileDomain(guideline)
    meta = region_meta(prog)
    table = infer(
        prog, domain, intrinsics=specs,
        entries=entries if demand_driven else None, meta=meta,
    )
    _check_stub_calls(prog, table, specs, meta)
    offenses = check_well_typed(prog, table, domain, specs, meta)
    if offenses:
        raise RuntimeError(
            "inference produced a table its own re-check rejects: "
            + "; ".join(str(o) for o in offenses)
        )
    system = EquationSystem.from_table(table, domain)
    eta = solve(system, domain)

    # one verdict per distinct value: signatures share rows and blocks
    accepts_fin = functools.cache(domain.accepts_fin)
    accepts_mix = functools.cache(domain.accepts_mix)
    sig_reports = []
    all_ok = True
    for sig in system.sigs:
        t, h, _ = table.mtable[sig]
        div = eta[sig]
        if not t and not h and domain.mix_is_bottom(div):
            continue
        r_ok = all(accepts_fin(u) for u in t.values())
        h_ok = all(accepts_fin(u) for u in h.values())
        d_ok = accepts_mix(div)
        all_ok = all_ok and r_ok and h_ok and d_ok
        sig_reports.append(SigReport(sig, r_ok, h_ok, d_ok))

    counterexamples = []
    if not all_ok and entries:
        for entry in sorted(entries):
            ce = find_counterexample(prog, guideline, entry, fuel, specs)
            if ce is not None:
                counterexamples.append(ce)

    return Report(
        "pass" if all_ok else "fail", sig_reports, counterexamples,
    )


def _check_stub_calls(prog: Program, table, specs: dict, meta) -> None:
    """Each call that dispatches to a stub must match its argument
    patterns: only the matching signatures are seeded, and the rest would
    stay bottom, as if the call never returned.  A call dispatches on the
    receiver's dynamic class, so it is checked against each class the
    receiver region may hold that is a subclass of the static one."""
    if not specs:
        return
    called = {callee for _, _, s in table.mtable.values() for callee in s}
    targets = {Sig(c, sig.recv, sig.method, sig.args)
               for sig in called for c in meta.cls_of(sig.recv)
               if c != NULL_TYPE and sig.cls in prog.supers(c)}
    problems = []
    for sig in sorted(targets - table.pinned, key=Sig.sort_key):
        spec = stub_lookup(specs, prog, sig.cls, sig.method)
        if spec is not None:
            problems.append(f"call {sig} matches no argument pattern of the "
                            f"stub {spec.cls}.{spec.method}")
    if problems:
        raise AnalysisError(problems)


def _check_entries(prog: Program, entries: list) -> None:
    """Each entry must name a parameterless method of a declared class."""
    problems = []
    for entry in entries:
        cls, dot, method = entry.partition(".")
        if not dot or not cls or not method:
            problems.append(f"entry must be 'Class.method', got {entry!r}")
            continue
        if cls not in prog.by_name:
            problems.append(f"entry {entry}: no class {cls} in the program")
            continue
        try:
            md, _ = method_lookup(prog, cls, method)
        except FjError:
            problems.append(f"entry {entry}: {cls} has no method {method}")
            continue
        if md.params:
            problems.append(f"entry {entry}: an entry must take no parameters")
    if problems:
        raise AnalysisError(problems)


# -- counterexample search -----------------------------------------------------


def find_counterexample(
    prog: Program,
    guideline: GuidelineAutomaton,
    entry: str,
    fuel: int = DEFAULT_FUEL,
    intrinsics: dict | None = None,
):
    """A concrete guideline violation reachable from entry, or None.

    The fuel deepens from 1 to fuel.  At each level every run is enumerated
    and searched for a witness; the first one found is returned with its
    level, so no run with less fuel shows a violation.  The search stops
    early once no run at a level runs out of fuel: every higher level would
    repeat the same runs.  Traces are checked on the guideline's profile
    monoid, the one the analysis built, so most products are cached, and
    each divergence the guideline accepts is judged once per search.
    """
    monoid = monoid_of(guideline)
    accepted: set = set()  # (stem, cycle) traces the guideline accepts
    for level in range(1, fuel + 1):
        runs = enumerate_traces(prog, entry, level, intrinsics)
        ce = _witness_in(prog, monoid, entry, runs, level, intrinsics,
                         accepted)
        if ce is not None:
            ce.fuel = level
            return ce
        if not any(isinstance(run.outcome, OutOfFuel) for run in runs):
            return None
    return None


def _witness_in(prog, monoid, entry, runs, fuel, intrinsics, accepted):
    """The first witness among one level's runs, tried in order: (1) the
    first complete run (terminated or thrown) whose trace the guideline
    rejects as a finite word; (2) the first fuel-stopped run whose emitted
    prefix kills every automaton run; (3) the first diverging execution —
    witnessed by a repeated call configuration and validated by replay —
    whose trace stem·cycle^ω the guideline rejects.  ``accepted`` holds the
    (stem, cycle) traces of candidates the guideline accepted, at this
    level or a lower one; they are skipped, and this level's are added.  A
    rejected candidate is replayed at every level, since the replay's fuel
    grows with the level."""
    for run in runs:
        if isinstance(run.outcome, (Terminated, Thrown)):
            w = run.outcome.trace
            if not monoid.accepts_finite(w):
                pos = monoid.dead_position(w)
                return Counterexample(
                    entry, "finite-trace", w,
                    position=pos if pos is not None else len(w),
                )

    for run in runs:
        if isinstance(run.outcome, OutOfFuel):
            w = run.outcome.trace
            pos = monoid.dead_position(w)
            if pos is not None:
                return Counterexample(entry, "dead-prefix", w, position=pos)

    seen = set()
    for run in runs:
        for cand in run.cycles:
            traces = (cand.stem_trace, cand.cycle_trace)
            if traces in accepted:
                continue
            key = cand.key()
            if key in seen:
                continue
            seen.add(key)
            if (monoid.accepts_lasso(*traces) if cand.cycle_trace
                    else monoid.accepts_finite(cand.stem_trace)):
                accepted.add(traces)
            elif _replay_confirms(prog, entry, cand, fuel, intrinsics):
                kind = "divergence" if cand.cycle_trace else "silent-divergence"
                return Counterexample(entry, kind, cand.stem_trace,
                                      cycle=cand.cycle_trace)
    return None


def _replay_confirms(prog, entry, cand, fuel, intrinsics) -> bool:
    """Re-run the candidate's choices with the cycle pumped three times; the
    trace must follow stem·cycle·cycle."""
    script = cand.stem_script + cand.cycle_script * 3
    ev = replay_entry(prog, entry, script, fuel * 4 + 8, intrinsics)
    expected = cand.stem_trace + cand.cycle_trace * 2
    got = tuple(ev.trace)
    if len(got) < len(expected):
        return False
    return got[: len(expected)] == expected


# -- command line ----------------------------------------------------------------


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_text(path: str) -> str:
    """The text of an input file; one that is not UTF-8 is unusable."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise AnalysisError(
            [f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"]
        ) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="guidecheck",
        description="Check event-emitting programs against an automaton "
                    "guideline, including their infinite behaviours.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pa = sub.add_parser("analyze", help="analyze programs against a guideline")
    pa.add_argument("--program", action="append", required=True,
                    metavar="FILE", help="source file (repeatable)")
    pa.add_argument("--guideline", required=True, metavar="FILE")
    pa.add_argument("--config", metavar="FILE",
                    help="external-call stub declarations")
    pa.add_argument("--fuel", type=_at_least_one, default=DEFAULT_FUEL,
                    help="most interpreter calls per run in the "
                         "counterexample search (at least 1)")
    pa.add_argument("--entry", action="append", metavar="Class.method",
                    help="entry point for counterexample search (repeatable)")
    pa.add_argument("--demand-driven", action="store_true",
                    help="analyze only signatures reachable from --entry")
    pa.add_argument("--report", choices=("text", "json"), default="text")
    pa.add_argument("--out", metavar="FILE", help="write the report here")
    args = parser.parse_args(argv)

    try:
        guideline = parse_guideline(_read_text(args.guideline))
        sources = [(_read_text(path), path) for path in args.program]
        prog = parse_programs(sources, alphabet=guideline.alphabet)
        specs = {}
        if args.config:
            specs = parse_config(_read_text(args.config), guideline.alphabet)
        if args.demand_driven and not args.entry:
            raise AnalysisError(["--demand-driven requires --entry"])
        report = analyze(
            prog, guideline, intrinsics=specs, fuel=args.fuel,
            entries=args.entry, demand_driven=args.demand_driven,
        )
        if args.report == "json":
            rendered = json.dumps(report.to_json(), indent=2, sort_keys=True)
        else:
            rendered = report.to_text()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        else:
            print(rendered)
    except (FjError, GuidelineError, ConfigError, AnalysisError, OSError) as exc:
        print(f"guidecheck: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # includes RecursionError
        print(f"guidecheck: error: internal limit: {exc}", file=sys.stderr)
        return 3
    return 0 if report.verdict == "pass" else 1

if __name__ == "__main__":
    sys.exit(main())
