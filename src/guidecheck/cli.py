"""End-to-end analysis and the command-line interface.

``analyze`` wires the pipeline together: static checks, effect inference
over the guideline's profile domain, the divergence equations and their
closed-form solution, then one accept/reject verdict per signature — its
returning effects, its throwing effects and its divergence effects must all
be accepted by the guideline.  When a verdict fails and entry points are
given, a search of interpreter runs looks for a concrete witness: a
rejected complete trace, a prefix no accepted word extends, or a diverging
execution whose infinite trace the guideline rejects (validated by replaying
its script).  ``analyze`` hands it the domain's profile monoid, so the
search judges traces on the profiles and products the verdict built;
``find_counterexample``, the search on its own, builds a monoid of its own.
The search deepens the fuel one call at a time, so the witness it reports
needs the least fuel of any.

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
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator

from .classtable import by_id
from .domains import ProfileDomain
from .fjast import NULL_TYPE, FjError, Program
from .fjparser import parse_programs
from .fjtypes import fj_typecheck
from .guideline import GuidelineAutomaton, GuidelineError, parse_guideline
from .inference import check_well_typed, infer
from .interp import (
    DEFAULT_FUEL,
    OutOfFuel,
    Search,
    Terminated,
    Thrown,
    replay_entry,
)
from .intrinsics import (
    ConfigError,
    parse_config,
    stub_lookup,
    validate_against_program,
)
from .profiles import ProfileMonoid
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


class SigReports:
    """The reports of a solved table's signatures, in the table's order,
    made as they are read, from marks judged once per distinct row and once
    per distinct η.  A signature with no entry and bottom η is left out."""

    def __init__(self, mtable: dict, eta: dict, row_marks: dict,
                 eta_marks: dict):
        self.mtable = mtable
        self.eta = eta
        # id of a row -> (returns_ok, throws_ok, whether it has an entry)
        self.row_marks = row_marks
        # id of an η -> (diverges_ok, whether it is not bottom)
        self.eta_marks = eta_marks

    def __iter__(self) -> Iterator[SigReport]:
        eta, row_marks, eta_marks = self.eta, self.row_marks, self.eta_marks
        for sig, row in self.mtable.items():
            returns_ok, throws_ok, entries = row_marks[id(row)]
            diverges_ok, diverges = eta_marks[id(eta[sig])]
            if entries or diverges:
                yield SigReport(sig, returns_ok, throws_ok, diverges_ok)

    def __len__(self) -> int:
        return sum(1 for _ in self)


class Report:
    """A verdict and its evidence.  ``signatures`` holds ``SigReport``s and
    may be read more than once: a list, or the ``SigReports`` of a table.
    ``write`` streams it, one signature at a time; ``to_json`` builds its
    dict whole."""

    def __init__(self, verdict: str, signatures, counterexamples: list):
        self.verdict = verdict  # "pass" | "fail"
        self.signatures = signatures
        self.counterexamples = counterexamples

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "signatures": [s.to_json() for s in self.signatures],
            "counterexamples": [c.to_json() for c in self.counterexamples],
        }

    def write(self, write: Callable[[str], object], form: str) -> None:
        """Pass the report to write piece by piece, a signature at a time,
        as text (``form`` "text": a line per signature, one per
        counterexample and the verdict) or as JSON (``form`` "json": the
        bytes of ``json.dumps(to_json(), indent=2, sort_keys=True)``), then
        a newline.  Neither the whole report nor its dict is built."""
        if form == "json":
            for piece in self._json_pieces():
                write(piece)
        else:
            for line in self._text_lines():
                write(line + "\n")

    def _text_lines(self) -> Iterator[str]:
        for s in self.signatures:
            yield (f"{s.sig}  returns:{_TEXT_MARK[s.returns_ok]}, "
                   f"throws:{_TEXT_MARK[s.throws_ok]}, "
                   f"diverges:{_TEXT_MARK[s.diverges_ok]}")
        for c in self.counterexamples:
            yield f"counterexample: {c.describe()}"
        if self.counterexamples:
            yield ("(counterexamples come from a bounded enumeration of runs; "
                   "not finding one proves nothing)")
        yield f"verdict: {self.verdict}"

    def _json_pieces(self) -> Iterator[str]:
        """The bytes of ``json.dumps(self.to_json(), indent=2,
        sort_keys=True)`` and a newline: the keys in sorted order, each
        item of the two arrays rendered at depth 2 on its own.  Names and
        region texts are escaped once each, as ``json`` escapes them."""
        enc = functools.cache(encode_basestring_ascii)
        region = functools.cache(lambda r: enc(str(r)))

        def sig_json(s: SigReport) -> str:
            sig = s.sig
            args = ("[\n        " + ",\n        ".join(map(region, sig.args))
                    + "\n      ]" if sig.args else "[]")
            return (f'{{\n      "args": {args},\n'
                    f'      "class": {enc(sig.cls)},\n'
                    f'      "diverges_ok": {_JSON_BOOL[s.diverges_ok]},\n'
                    f'      "method": {enc(sig.method)},\n'
                    f'      "receiver": {region(sig.recv)},\n'
                    f'      "returns_ok": {_JSON_BOOL[s.returns_ok]},\n'
                    f'      "throws_ok": {_JSON_BOOL[s.throws_ok]}\n    }}')

        yield '{\n  "counterexamples": '
        # few, so json renders them; an item's lines sit at depth 2
        yield from _json_array(
            json.dumps(c.to_json(), indent=2, sort_keys=True)
            .replace("\n", "\n    ") for c in self.counterexamples)
        yield ',\n  "signatures": '
        yield from _json_array(map(sig_json, self.signatures))
        yield f',\n  "verdict": {enc(self.verdict)}\n}}\n'


_TEXT_MARK = {True: "ok", False: "FAIL"}
_JSON_BOOL = {True: "true", False: "false"}


def _json_array(items: Iterable[str]) -> Iterator[str]:
    """A JSON array at depth 1 of an indent-2 dump, piece by piece, from
    its items rendered at depth 2."""
    sep = "[\n    "
    for item in items:
        yield sep + item
        sep = ",\n    "
    yield "[]" if sep == "[\n    " else "\n  ]"


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
    eta = solve(EquationSystem.from_table(table, domain), domain)

    # one verdict per distinct row and per distinct η: signatures share
    # them.  A signature left out of the report has no entry and bottom η,
    # which every guideline accepts, so it cannot fail the verdict.
    accepts_fin = functools.cache(domain.accepts_fin)
    accepts_mix = functools.cache(domain.accepts_mix)  # blocks may be equal
    row_marks = {
        key: (all(accepts_fin(u) for u in t.values()),
              all(accepts_fin(u) for u in h.values()), bool(t or h))
        for key, (t, h, _) in by_id(table.mtable.values()).items()}
    eta_marks = {key: (accepts_mix(div), not domain.mix_is_bottom(div))
                 for key, div in by_id(eta.values()).items()}
    all_ok = (all(r and h for r, h, _ in row_marks.values())
              and all(d for d, _ in eta_marks.values()))

    counterexamples = []
    if not all_ok and entries:
        for entry in sorted(entries):
            ce = _counterexample(prog, domain.monoid, entry, fuel, specs)
            if ce is not None:
                counterexamples.append(ce)

    return Report(
        "pass" if all_ok else "fail",
        SigReports(table.mtable, eta, row_marks, eta_marks), counterexamples,
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
               if c != NULL_TYPE and sig.cls in prog.chains[c]}
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
        target = prog.dispatch[cls].get(method)
        if target is None:
            problems.append(f"entry {entry}: {cls} has no method {method}")
            continue
        if target[0].params:
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

    The fuel deepens from 1 to fuel.  Each level resumes the runs the last
    level suspended for want of fuel, with one more unit each, and searches
    the runs it ends or suspends for a witness; the first one found is
    returned with its level, so no run with less fuel shows a violation.
    A run that ended at a lower level was searched there, and ends the same
    way at every higher one.  The search stops early once a level suspends
    no run.  Traces are checked on a profile monoid of the guideline built
    for this search; ``analyze`` hands the search the monoid its domain
    built instead, so most products are cached.
    """
    return _counterexample(prog, ProfileMonoid(guideline), entry, fuel,
                           intrinsics)


def _counterexample(prog, monoid, entry, fuel, intrinsics):
    """``find_counterexample`` on the given monoid of the guideline."""
    search = Search(prog, entry, intrinsics)
    for level in range(1, fuel + 1):
        runs = search.deepen()
        ce = _witness_in(prog, monoid, entry, runs, level, intrinsics)
        if ce is not None:
            ce.fuel = level
            return ce
        if not search.frontier:
            return None
    return None


def _witness_in(prog, monoid, entry, runs, fuel, intrinsics):
    """The first witness among one level's new runs, tried in order: (1)
    the first complete run (terminated or thrown) whose trace the guideline
    rejects as a finite word; (2) the first fuel-stopped run whose emitted
    prefix kills every automaton run; (3) the first diverging execution —
    witnessed by a repeated call configuration and validated by replay —
    whose trace stem·cycle^ω the guideline rejects.

    Each run holds only the repeats that calls of this level recorded, so
    each lasso is judged once per search, at the first level that finds
    it.  That loses no witness: acceptance depends only on the traces, and
    a lasso found at fuel L repeats within L calls, so its stem and two
    cycles take at most 2L+1 calls, under the replay's fuel of 4L+8.  The
    replay is deterministic in its script, so a rejected lasso is confirmed
    at the level that judges it or at none.  A run keeps the profiles of
    its trace's prefixes across levels, so a level composes only the
    letters it added to the trace."""
    for run in runs:
        if isinstance(run.outcome, (Terminated, Thrown)):
            prefixes = monoid.prefix_profiles(run.prefixes, run.trace)
            if not monoid.accepts[prefixes[-1]]:
                pos = monoid.dead_position(prefixes)
                return Counterexample(
                    entry, "finite-trace", tuple(run.trace),
                    position=pos if pos is not None else len(run.trace),
                )

    for run in runs:
        if isinstance(run.outcome, OutOfFuel):
            pos = monoid.dead_position(
                monoid.prefix_profiles(run.prefixes, run.trace))
            if pos is not None:
                return Counterexample(entry, "dead-prefix", tuple(run.trace),
                                      position=pos)

    for run in runs:
        for stem, end, accepted in _lasso_verdicts(monoid, run):
            if accepted:
                continue
            if _replay_confirms(prog, entry, run, stem, end, fuel, intrinsics):
                stem_end, cycle_end = stem[0], end[0]
                cycle = tuple(run.trace[stem_end:cycle_end])
                kind = "divergence" if cycle else "silent-divergence"
                return Counterexample(entry, kind,
                                      tuple(run.trace[:stem_end]), cycle=cycle)
    return None


def _lasso_verdicts(monoid, run) -> Iterator[tuple]:
    """For each of run's repeats in order, and each open call it repeats,
    outermost first: the (trace length, script position) pairs at the open
    call and at the repeat, and whether the guideline accepts the lasso's
    trace, stem·cycle^ω.  An empty cycle has profile ε̂, and stem·ε̂^ω is
    accepted exactly when the stem is as a finite word.  The stems are
    prefixes of the run's trace, whose profiles the run keeps across levels
    (``prefix_profiles``); the cycles of one repeat end at the same offset,
    so their profiles are built right to left from there, each letter
    composed once."""
    if not run.cycles:
        return
    trace, letters, compose = run.trace, monoid.letters, monoid.compose
    prefix = monoid.prefix_profiles(run.prefixes, trace)
    for end, opens in run.cycles:
        cycle_end = start = end[0]
        suffix = {cycle_end: monoid.eps}  # i -> profile of trace[i:cycle_end]
        for stem in opens:
            stem_end = stem[0]
            while start > stem_end:
                start -= 1
                suffix[start] = compose(letters[trace[start]],
                                        suffix[start + 1])
            yield stem, end, monoid.accepts_lasso_of(prefix[stem_end],
                                                     suffix[stem_end])


def _replay_confirms(prog, entry, run, stem, end, fuel, intrinsics) -> bool:
    """Re-run the lasso's choices with the cycle pumped three times; the
    trace must follow stem·cycle·cycle.  stem and end are the (trace
    length, script position) pairs at the open call and at its repeat."""
    (stem_end, stem_choices), (cycle_end, cycle_choices) = stem, end
    script = run.script[:cycle_choices]
    pumped = script + script[stem_choices:] * 2
    ev = replay_entry(prog, entry, pumped, fuel * 4 + 8, intrinsics)
    expected = run.trace[:cycle_end] + run.trace[stem_end:cycle_end]
    return ev.trace[:len(expected)] == expected


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


def _write_stdout(report: Report, form: str) -> None:
    try:
        report.write(sys.stdout.write, form)
        sys.stdout.flush()
    except OSError:
        # what could not be written stays buffered, and the interpreter's
        # flush at exit would fail on it again ("Exception ignored", exit
        # 120): let that flush go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


@functools.cache
def _argument_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process, as parsing leaves
    it as it was: a caller that runs many checks in one process builds it
    once."""
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
    return parser


def main(argv=None) -> int:
    args = _argument_parser().parse_args(argv)

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
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                report.write(fh.write, args.report)
        else:
            _write_stdout(report, args.report)
    except (FjError, GuidelineError, ConfigError, AnalysisError, OSError) as exc:
        print(f"guidecheck: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # includes RecursionError
        print(f"guidecheck: error: internal limit: {exc}", file=sys.stderr)
        return 3
    return 0 if report.verdict == "pass" else 1

if __name__ == "__main__":
    sys.exit(main())
