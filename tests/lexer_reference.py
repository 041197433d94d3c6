"""The lexer that matched one token class at each position, kept as the
reference for ``fjparser._lex``'s one scan: both must give the same tokens,
and the same error at the same position, on every text, once each of
``_lex``'s run tokens is split into the tokens of its statements
(``expand_runs``)."""

from __future__ import annotations

import re

from guidecheck.fjast import FjError, Pos
from guidecheck.fjparser import Token

# One alternative per token class.  '[' opens a raw label (labels may contain
# ':' and '.', not a newline) and is in no other class, so one not closed on
# its line matches nothing.
# ``\w+`` also matches runs starting with a digit such as '1' or '²';
# lex_per_position rejects those.
_TOKEN = re.compile(
    r"""
      (?P<newline>\n)
    | (?P<blank>[ \t\r]+)
    | (?P<comment>//[^\n]*)
    | \[(?P<label>[^\]\n]*)\]
    | (?P<punct>==|[{}();,.=\]])
    | (?P<id>\w+)
    """,
    re.VERBOSE,
)


def lex_per_position(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col, i, n = 1, 1, 0, len(text)
    match = _TOKEN.match
    while i < n:
        m = match(text, i)
        c = text[i]
        if m is None or (m.lastgroup == "id" and not (c.isalpha() or c == "_")):
            msg = "unterminated '['" if c == "[" else f"unexpected character {c!r}"
            raise FjError(msg, Pos(line, col))
        kind, j = m.lastgroup, m.end()
        if kind == "newline":
            line, col, i = line + 1, 1, j
            continue
        if kind == "label":
            toks.append(Token("punct", "[", line, col))
            inner = m.group("label").strip()
            if inner:
                toks.append(Token("label", inner, line, col + 1))
            toks.append(Token("punct", "]", line, col + j - i - 1))
        elif kind in ("punct", "id"):
            toks.append(Token(kind, m.group(), line, col))
        col += j - i
        i = j
    toks.append(Token("eof", "", line, col))
    return toks


def expand_runs(toks: list[Token]) -> list[Token]:
    """toks with each "run" token replaced by the tokens lex_per_position
    gives its text, moved to where the run starts."""
    out: list[Token] = []
    for t in toks:
        if t.kind != "run":
            out.append(t)
            continue
        for u in lex_per_position(t.val)[:-1]:  # all but its eof
            shift = t.col - 1 if u.line == 1 else 0
            out.append(Token(u.kind, u.val, t.line + u.line - 1,
                             u.col + shift))
    return out
