"""The two-match tokenizer, kept as the reference for the tests.

`linlog.sexpr._tokenize` reads each token, with the whitespace and
comments before it, in one regex match, and gives plain
(kind, text, start) tuples.  This is the function it replaced: one
match per token and one per whitespace run or comment, and a frozen
`Token` with its `SourceSpan` for each token.  The tests check that
both give the same tokens, and the same error where either raises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from linlog.sexpr import ParseError, SourceSpan


@dataclass(frozen=True)
class Token:
    kind: str  # "(", ")", "!", "*", ".", "-o", "kw", "ident", "num", "eof"
    text: str
    span: SourceSpan


_HYPHEN_KEYWORDS = ("tensor-r", "tensor-l", "lolli-r", "lolli-l", "one-r", "one-l", "all-r", "all-l")

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>;[^\n]*)
      | (?P<kw>(?:%s)(?![A-Za-z0-9_'\-]))
      | (?P<lolli>-o)
      | (?P<num>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<punct>[()!*.])
    """
    % "|".join(_HYPHEN_KEYWORDS),
    re.VERBOSE,
)


def _tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", SourceSpan(pos, pos + 1)
            )
        span = SourceSpan(m.start(), m.end())
        if m.lastgroup == "punct":
            out.append(Token(m.group(), m.group(), span))
        elif m.lastgroup == "lolli":
            out.append(Token("-o", "-o", span))
        elif m.lastgroup in ("kw", "num", "ident"):
            out.append(Token(m.lastgroup, m.group(), span))
        pos = m.end()
    out.append(Token("eof", "", SourceSpan(len(text), len(text))))
    return out
