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

``parse_config`` checks each line; ``validate_against_program`` checks each
stub against the program, every ``@label`` included, before the analysis.

The analysis seeds the method table with these summaries and never analyzes
the stub bodies.  The interpreter replaces a stub call by a scripted choice:
which emitted word to append, and whether to return null or a fresh object of
the declared result class (only in region Unknown, so fresh objects carry a
synthetic allocation label no region pattern matches).  The words tried are
the language's first ``STUB_WORD_LIMIT`` in shortlex order up to length
``STUB_WORD_MAXLEN``, or its shortest word when none is that short.  Stubs
never throw at run time; the throws clause only widens the analyzed summary.

A regex (``|``, juxtaposition, ``*``, ``eps``, parentheses) parses to a
postfix term, read on a stack however deep it nests: into the effect domain
by ``alpha_word`` and the domain's join, concatenation and star (a monoid
morphism abstracts words, so this abstracts the language), into its least
words, and into its shortest word.  ``eps`` may not also be a letter.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import NamedTuple

from .fjast import FjError, Program
from .fjtypes import method_lookup
from .regions import NULL_REGION, UNKNOWN, Region, RegionMeta, created_at

STUB_WORD_MAXLEN = 4
STUB_WORD_LIMIT = 3

# the operators of a postfix term; a letter stands for itself
EPS, UNION, CONCAT, STAR = "eps", "|", ".", "*"


class RegexError(Exception):
    pass


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class IntrinsicChoice(NamedTuple):
    """One scripted stub outcome: rank 0 returns null, rank 1 returns a fresh
    object; word is the emitted event sequence."""
    rank: int
    word: tuple[str, ...]


class Regex(NamedTuple):
    """A parsed config regex: its term in postfix order, and the alphabet
    whose order ranks its words."""
    postfix: tuple[str, ...]
    alphabet: tuple[str, ...]

    def fold(self, leaf, union, concat, star):
        """The term read bottom-up: leaf maps a letter or ``EPS`` to a
        value, and union, concat and star combine their operands' values."""
        stack = []
        for tok in self.postfix:
            if tok == STAR:
                stack[-1] = star(stack[-1])
            elif tok == UNION or tok == CONCAT:
                right = stack.pop()
                op = union if tok == UNION else concat
                stack[-1] = op(stack[-1], right)
            else:
                stack.append(leaf(tok))
        return stack.pop()

    def alpha(self, domain):
        """The abstraction of the regex's language in domain."""
        return self.fold(
            lambda tok: domain.alpha_word(() if tok == EPS else (tok,)),
            domain.fin_join, domain.fin_concat, domain.star)

    def words(self, max_len: int, limit: int) -> list[tuple[str, ...]]:
        """The first ``limit`` words up to length max_len, shortlex by the
        alphabet's order.  A subterm keeps its ``limit`` least words of each
        length: a union's or a concatenation's are made of its operands'."""
        rank = {a: i for i, a in enumerate(self.alphabet)}

        def least(ws):
            return sorted(set(ws))[:limit]

        def leaf(tok):
            out = [[] for _ in range(max_len + 1)]
            if tok == EPS:
                out[0] = [()]
            else:
                out[1] = [(rank[tok],)]
            return out

        def union(x, y):
            return [least(xs + ys) for xs, ys in zip(x, y)]

        def concat(x, y):
            return [least(u + v for i in range(n + 1)
                          for u in x[i] for v in y[n - i])
                    for n in range(max_len + 1)]

        def star(x):
            # from ε, one factor more a round, until the lists settle
            out = leaf(EPS)
            while (nxt := union(out, concat(out, x))) != out:
                out = nxt
            return out

        layers = self.fold(leaf, union, concat, star)
        ranked = [w for layer in layers for w in layer][:limit]
        return [tuple(self.alphabet[i] for i in w) for w in ranked]

    def shortest_word(self) -> tuple[str, ...]:
        """The language's least word in shortlex order: a union's least
        branch, a concatenation's parts' least words joined, ε for a star."""
        rank = {a: i for i, a in enumerate(self.alphabet)}
        word = self.fold(lambda tok: () if tok == EPS else (rank[tok],),
                         lambda x, y: min(x, y, key=lambda w: (len(w), w)),
                         lambda x, y: x + y, lambda x: ())
        return tuple(self.alphabet[i] for i in word)


_set = object.__setattr__  # how IntrinsicSpec.__init__ sets its fields


class IntrinsicSpec:
    """One stub declaration.  Immutable: assigning a field raises."""

    def __init__(self, cls: str, method: str,
                 arg_patterns: tuple[Region | None, ...],
                 result_region: Region, emits: Regex,
                 throw_region: Region | None = None,
                 throws: Regex | None = None):
        _set(self, "cls", cls)
        _set(self, "method", method)
        # one region per parameter, None for the wildcard ``_``
        _set(self, "arg_patterns", arg_patterns)
        _set(self, "result_region", result_region)
        _set(self, "emits", emits)
        _set(self, "throw_region", throw_region)
        _set(self, "throws", throws)

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
        # no regex of the config grammar denotes the empty language, so a
        # stub always has a choice
        words = (self.emits.words(STUB_WORD_MAXLEN, STUB_WORD_LIMIT)
                 or [self.emits.shortest_word()])
        out = [IntrinsicChoice(0, w) for w in words]
        if self.result_region == UNKNOWN:
            out += [IntrinsicChoice(1, w) for w in words]
        return sorted(out)

    def arg_regions(self, meta: RegionMeta) -> list[tuple[Region, ...]]:
        """All argument-region tuples this spec seeds: each wildcard
        expanded to every region of the program."""
        per_slot = [meta.regions if pat is None else (pat,)
                    for pat in self.arg_patterns]
        return list(itertools.product(*per_slot))


def _parse_region(token: str) -> Region:
    if token == "Null":
        return NULL_REGION
    if token == "Unknown":
        return UNKNOWN
    if token.startswith("@") and len(token) > 1:
        return created_at(token[1:])
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
        None if p == "_" else _parse_region(p)
        for p in (p.strip() for p in argpart.split(",")) if p
    )

    words = tail.split()
    if len(words) < 3 or words[1] != "emits":
        raise ConfigError("expected '<region> emits <regex> "
                          "[throws <region> <regex>]'")
    result_region = _parse_region(words[0])
    if result_region not in (NULL_REGION, UNKNOWN):
        raise ConfigError("result region must be Null or Unknown")
    throw_region = throws = None
    if "throws" in words[2:]:
        ti = words.index("throws", 2)
        emits = " ".join(words[2:ti])
        rest = words[ti + 1:]
        if len(rest) < 2:
            raise ConfigError("throws needs '<region> <regex>'")
        throw_region = _parse_region(rest[0])
        throws = parse_regex(" ".join(rest[1:]), alphabet)
    else:
        emits = " ".join(words[2:])
    if not emits:
        raise ConfigError("missing emitted-events regex")
    return IntrinsicSpec(
        cls=cls, method=method, arg_patterns=arg_patterns,
        result_region=result_region,
        emits=parse_regex(emits, alphabet),
        throw_region=throw_region, throws=throws,
    )


def parse_regex(src: str, alphabet) -> Regex:
    """The term of a config regex: ``|`` binds loosest, then juxtaposition,
    then ``*``, and both binary operators group to the left.  A stack of
    open groups stands in for a recursive descent; each error is raised at
    the token where that descent would raise it."""
    postfix: list[str] = []
    # per open group, the whole regex outermost: the alternatives closed so
    # far, and the pieces read of the current one
    groups = [[0, 0]]
    for tok in [*_regex_tokens(src), None]:
        group = groups[-1]
        alts, pieces = group
        if tok in ("|", ")", None):
            if not pieces:
                raise RegexError(f"empty alternative in regex {src!r}")
            if pieces > 1:
                postfix.append(CONCAT)
            if alts:
                postfix.append(UNION)
            if tok == "|":
                group[:] = [alts + 1, 0]
            elif tok == ")":
                if len(groups) == 1:
                    raise RegexError(f"trailing input in regex {src!r}")
                groups.pop()  # the group is a piece of the one around it
            elif len(groups) > 1:
                raise RegexError(f"unbalanced parentheses in {src!r}")
        elif tok == "*":
            if not pieces:
                raise RegexError(f"unexpected '*' in regex {src!r}")
            postfix.append(STAR)
        else:
            if pieces > 1:
                postfix.append(CONCAT)  # the piece before this one is whole
            group[1] = pieces + 1
            if tok == "(":
                groups.append([0, 0])
            elif tok == EPS:
                if EPS in alphabet:
                    raise RegexError(f"'eps' in regex {src!r} is both the "
                                     "empty word and a letter of the alphabet")
                postfix.append(EPS)
            elif tok not in alphabet:
                raise RegexError(f"letter {tok!r} not in the alphabet")
            else:
                postfix.append(tok)
    return Regex(tuple(postfix), tuple(alphabet))


def _regex_tokens(src: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
        elif c in "()|*":
            tokens.append(c)
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(src[i:j])
            i = j
        else:
            raise RegexError(f"bad character {c!r} in regex {src!r}")
    if not tokens:
        raise RegexError("empty regex")
    return tokens


def load_config(path: str, alphabet) -> dict[tuple[str, str], IntrinsicSpec]:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read(), alphabet)


def validate_against_program(
    specs: dict[tuple[str, str], IntrinsicSpec], prog: Program
) -> None:
    """Each stub must name a method where it is declared, with a matching
    arity, and every ``@label`` of a throws clause or an argument pattern
    must name an allocation site of the program.  A stub on a class that
    inherits the method would never be looked up: the method's calls
    resolve to the declaring class.  The argument patterns are checked
    last, once every stub has passed the other checks."""
    for (cls, method), spec in sorted(specs.items()):
        if cls not in prog.by_name:
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
        _check_site(spec.throw_region, prog)
    for _, spec in sorted(specs.items()):
        for pat in spec.arg_patterns:
            _check_site(pat, prog)


def _check_site(r: Region | None, prog: Program) -> None:
    if r is not None and r.kind == "site" and r.label not in prog.labels:
        raise ConfigError(f"no allocation site labelled {r.label!r}")


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
