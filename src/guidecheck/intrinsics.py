"""External-call stubs: declared effect summaries for methods with no body
worth analyzing (I/O, library calls).

A config file gives one line per stub::

    Net.poll() -> Unknown emits eps
    Log.write(_) -> Null emits w
    Auth.login(_, _) -> Unknown emits try* ok throws Unknown fail

Left of ``->``: class, method and one region pattern per parameter (``_``
matches every region, otherwise ``Null``, ``Unknown`` or ``@label``).  Right:
the region of the returned value (``Null`` or ``Unknown``), the language of
events the call may emit, and optionally the region and event language of
thrown exceptions.

The analysis seeds the method table with these summaries and never analyzes
the stub bodies.  The interpreter replaces a stub call by a scripted choice:
which emitted word to append, and whether to return null or a fresh object of
the declared result class (only in region Unknown, so fresh objects carry a
synthetic allocation label no region pattern matches).  The words tried are
the language's first ``STUB_WORD_LIMIT`` in shortlex order up to length
``STUB_WORD_MAXLEN``, or its shortest word when none is that short.  Stubs
never throw at run time; the throws clause only widens the analyzed summary.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import NamedTuple

from .fjast import FjError, Program
from .fjtypes import method_lookup
from .oracle import Nfa, RegexError, regex_to_nfa
from .regions import NULL_REGION, UNKNOWN, Region, RegionMeta, created_at

STUB_WORD_MAXLEN = 4
STUB_WORD_LIMIT = 3


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class IntrinsicChoice(NamedTuple):
    """One scripted stub outcome: rank 0 returns null, rank 1 returns a fresh
    object; word is the emitted event sequence."""
    rank: int
    word: tuple[str, ...]


_set = object.__setattr__  # how IntrinsicSpec.__init__ sets its fields


class IntrinsicSpec:
    """One stub declaration.  Immutable: assigning a field raises."""

    def __init__(self, cls: str, method: str, arg_patterns: tuple[str, ...],
                 result_region: Region, emit_src: str, emit_nfa: Nfa,
                 throw_region: Region | None = None,
                 throw_src: str | None = None, throw_nfa: Nfa | None = None):
        _set(self, "cls", cls)
        _set(self, "method", method)
        _set(self, "arg_patterns", arg_patterns)
        _set(self, "result_region", result_region)
        _set(self, "emit_src", emit_src)
        _set(self, "emit_nfa", emit_nfa)
        _set(self, "throw_region", throw_region)
        _set(self, "throw_src", throw_src)
        _set(self, "throw_nfa", throw_nfa)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def choices(self) -> list[IntrinsicChoice]:
        """The scripted outcomes of one call, sorted.  Computed once per
        spec; callers must not modify the list."""
        return self._choices

    @cached_property
    def _choices(self) -> list[IntrinsicChoice]:
        # parse_config rejects an empty emit language, so a stub always
        # has a choice
        words = (list(self.emit_nfa.words(STUB_WORD_MAXLEN, STUB_WORD_LIMIT))
                 or [self.emit_nfa.shortest_word()])
        out = [IntrinsicChoice(0, w) for w in words]
        if self.result_region == UNKNOWN:
            out += [IntrinsicChoice(1, w) for w in words]
        return sorted(out)

    def arg_regions(self, meta: RegionMeta) -> list[tuple[Region, ...]]:
        """All argument-region tuples this spec seeds."""
        per_slot: list[list[Region]] = []
        for pat in self.arg_patterns:
            if pat == "_":
                per_slot.append(list(meta.regions))
            else:
                per_slot.append([_parse_region(pat, meta)])
        return [tuple(combo) for combo in itertools.product(*per_slot)]


def _parse_region(token: str, meta: RegionMeta | None = None) -> Region:
    if token == "Null":
        return NULL_REGION
    if token == "Unknown":
        return UNKNOWN
    if token.startswith("@") and len(token) > 1:
        r = created_at(token[1:])
        if meta is not None and r not in meta.regions:
            raise ConfigError(f"no allocation site labelled {token[1:]!r}")
        return r
    raise ConfigError(f"bad region {token!r}")


def parse_config(text: str, alphabet) -> dict[tuple[str, str], IntrinsicSpec]:
    specs: dict[tuple[str, str], IntrinsicSpec] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            spec = _parse_line(line, alphabet)
        except (ConfigError, RegexError) as exc:
            raise ConfigError(str(exc), lineno) from None
        key = (spec.cls, spec.method)
        if key in specs:
            raise ConfigError(f"duplicate stub for {spec.cls}.{spec.method}", lineno)
        specs[key] = spec
    return specs


def _parse_line(line: str, alphabet) -> IntrinsicSpec:
    head, arrow, tail = line.partition("->")
    if not arrow:
        raise ConfigError("expected '->'")
    head = head.strip()
    if "." not in head or not head.endswith(")"):
        raise ConfigError(f"expected 'Class.method(patterns)', got {head!r}")
    clsmeth, _, argpart = head[:-1].partition("(")
    cls, dot, method = clsmeth.partition(".")
    if not dot or not cls or not method:
        raise ConfigError(f"expected 'Class.method', got {clsmeth!r}")
    arg_patterns = tuple(
        p.strip() for p in argpart.split(",") if p.strip()
    ) if argpart.strip() else ()
    for p in arg_patterns:
        if p != "_":
            _parse_region(p)  # validates shape; labels checked at seed time

    words = tail.split()
    if len(words) < 3 or words[1] != "emits":
        raise ConfigError("expected '<region> emits <regex> "
                          "[throws <region> <regex>]'")
    result_region = _parse_region(words[0])
    if result_region not in (NULL_REGION, UNKNOWN):
        raise ConfigError("result region must be Null or Unknown")
    throw_region = throw_src = throw_nfa = None
    if "throws" in words[2:]:
        ti = words.index("throws", 2)
        emit_src = " ".join(words[2:ti])
        rest = words[ti + 1:]
        if len(rest) < 2:
            raise ConfigError("throws needs '<region> <regex>'")
        throw_region = _parse_region(rest[0])
        throw_src = " ".join(rest[1:])
        throw_nfa = regex_to_nfa(throw_src, alphabet)
    else:
        emit_src = " ".join(words[2:])
    if not emit_src:
        raise ConfigError("missing emitted-events regex")
    emit_nfa = regex_to_nfa(emit_src, alphabet)
    if emit_nfa.is_empty():
        raise ConfigError(f"emit language of {cls}.{method} is empty")
    return IntrinsicSpec(
        cls=cls, method=method, arg_patterns=arg_patterns,
        result_region=result_region, emit_src=emit_src, emit_nfa=emit_nfa,
        throw_region=throw_region, throw_src=throw_src, throw_nfa=throw_nfa,
    )


def load_config(path: str, alphabet) -> dict[tuple[str, str], IntrinsicSpec]:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read(), alphabet)


def validate_against_program(
    specs: dict[tuple[str, str], IntrinsicSpec], prog: Program
) -> None:
    """Each stub must name a method where it is declared, with a matching
    arity, and a throws clause must name a region of the program.  A stub
    on a class that inherits the method would never be looked up: the
    method's calls resolve to the declaring class."""
    for (cls, method), spec in sorted(specs.items()):
        decl = prog.by_name.get(cls)
        if decl is None:
            raise ConfigError(f"stub for unknown class {cls}")
        try:
            md, declaring = method_lookup(prog, cls, method)
        except FjError:
            raise ConfigError(f"stub for unknown method {cls}.{method}") from None
        if declaring != cls:
            raise ConfigError(
                f"stub {cls}.{method} names a class that inherits the method; "
                f"it is declared in {declaring}"
            )
        if len(md.params) != len(spec.arg_patterns):
            raise ConfigError(
                f"stub {cls}.{method} has {len(spec.arg_patterns)} "
                f"pattern(s), method declares {len(md.params)} parameter(s)"
            )
        thrown = spec.throw_region
        if (thrown is not None and thrown.kind == "site"
                and thrown.label not in prog.labels):
            raise ConfigError(f"no allocation site labelled {thrown.label!r}")


def stub_lookup(
    specs: dict[tuple[str, str], IntrinsicSpec],
    prog: Program, cls: str, method: str,
) -> IntrinsicSpec | None:
    """The stub entry governing a call to method on class cls, if the
    resolved declaration is a stub."""
    if not specs:
        return None
    try:
        _, declaring = method_lookup(prog, cls, method)
    except FjError:
        return None
    return specs.get((declaring, method))
