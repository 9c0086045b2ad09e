"""The token-tuple reader, kept as the reference for the tests.

`linlog.sexpr` reads proof text as the list of token strings of one
`findall`, indexed directly, and finds a token's offset only when it
raises a ParseError.  This is the reader it replaced: `_tokenize` gives
one (kind, text, start) tuple per token, and `_Parser` reads them
through `peek`, `advance` and `expect`.  Its nodes are built by the
lenient builders `sexpr` had then, which call the same strict
constructor and fallbacks, so the kernel derives each node as `sexpr`'s
do.
The tests check that both readers return equal proofs with the same
``checked`` flags, or raise the same ParseError message and byte span.
"""

from __future__ import annotations

import re
from typing import Callable, TypeVar

from linlog.formula import Bang, Forall, Formula, Lolli, One, Tensor, Var
from linlog.proof import RULE_KEYWORDS, Proof, ProofError, _make, rule_arity
from linlog.sexpr import ParseError, SourceSpan, _FALLBACKS, _keep

T = TypeVar("T")

_Token = tuple[str, str, int]  # kind, text, start; an operator's kind is its text

_TOKEN_RE = re.compile(
    r"""(?:[ \t\r\n]+|;[^\n]*)*
      (?: (?P<kw>(?:%s)(?![A-Za-z0-9_'\-]))
        | (?P<op>-o|[()!*.])
        | (?P<num>[0-9]+)
        | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
        | (?P<eof>\Z)
        | (?P<bad>.) )
    """
    % "|".join([kw for kw in RULE_KEYWORDS.values() if "-" in kw]),
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        out.append((kind if kind != "op" else m[kind], m[kind], m.start(kind)))
        if kind == "eof" or kind == "bad":
            break
    if out[-1][0] == "bad":
        raise _error(f"unexpected character {out[-1][1]!r}", out[-1])
    return out


def _error(message: str, tok: _Token) -> ParseError:
    _, text, start = tok
    return ParseError(message, SourceSpan(start, start + len(text)))


def _describe(tok: _Token) -> str:
    return "end of input" if tok[0] == "eof" else f"'{tok[1]}'"


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.advance()
        if tok[0] != kind:
            raise _error(f"expected {what or kind!r}, found {_describe(tok)}", tok)
        return tok

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok[0] != "eof":
            raise _error(f"trailing input {_describe(tok)}", tok)

    def formula(self) -> Formula:
        waiting: list[tuple[str, Formula | str | None]] = []
        while True:
            tok = self.advance()
            kind, text, _ = tok
            if kind in ("!", "("):
                binder = None
                if kind == "(" and self.peek()[:2] == ("ident", "all"):
                    self.advance()
                    name = self.expect("ident", "a binder name")
                    if name[1] == "all":
                        raise _error("'all' cannot be a binder name", name)
                    self.expect(".", "'.'")
                    binder = name[1]
                waiting.append((kind, binder))
                continue
            if kind == "num":
                if text != "1":
                    raise _error("the only numeric formula is the unit 1", tok)
                operand = One()
            elif kind == "ident":
                if text == "all":
                    raise _error("'all' is reserved; write (all x. A)", tok)
                operand = Var(text)
            else:
                raise _error(f"expected a formula, found {_describe(tok)}", tok)
            while True:
                while waiting and waiting[-1][0] in ("!", "*"):
                    op, left = waiting.pop()
                    operand = Bang(operand) if op == "!" else Tensor(left, operand)
                kind = self.peek()[0]
                if kind in ("*", "-o"):
                    waiting.append((self.advance()[0], operand))
                    break
                while waiting and waiting[-1][0] == "-o":
                    operand = Lolli(waiting.pop()[1], operand)
                if not waiting:
                    return operand
                binder = waiting.pop()[1]
                self.expect(")", "')'")
                if binder is not None:
                    operand = Forall(binder, operand)

    def index(self) -> int:
        tok = self.expect("num", "a context index")
        try:
            return int(tok[1])
        except ValueError:
            raise _error("context index too long", tok) from None

    def proof(self) -> Proof:
        open_nodes: list[tuple[str, list]] = []
        while True:
            self.expect("(", "a proof '('")
            tok = self.advance()
            if tok[0] not in ("kw", "ident"):
                raise _error(f"expected a rule keyword, found {_describe(tok)}", tok)
            if tok[1] not in _RULES:
                raise _error(f"unknown rule keyword '{tok[1]}'", tok)
            open_nodes.append((tok[1], []))
            while True:
                kw, args = open_nodes[-1]
                shape, build = _RULES[kw]
                while len(args) < len(shape) and shape[len(args)] != "p":
                    args.append(self.argument(shape[len(args)]))
                if len(args) < len(shape):
                    break
                node = build(*args)
                self.expect(")", "')'")
                open_nodes.pop()
                if not open_nodes:
                    return node
                open_nodes[-1][1].append(node)

    def argument(self, kind: str) -> int | Formula | str:
        if kind == "i":
            return self.index()
        if kind == "f":
            return self.formula()
        return self.expect("ident", "a binder name")[1]


def _lenient(tag, fallback):
    """The builder for a rule whose arguments are its tag's fields, then
    its premises; ``fallback(rule, premises)`` gives the conclusion of a
    node that does not fit the schema."""
    n = len(tag.__annotations__)

    def build(*args):
        rule, premises = tag(*args[:n]), args[n:]
        try:
            return _make(rule, *premises)
        except ProofError:
            return Proof(rule, premises, fallback(rule, premises))

    return build


_RULES = {
    kw: (
        "".join({"at": "i", "binder": "x"}.get(name, "f") for name in tag.__annotations__)
        + "p" * rule_arity(tag),
        _lenient(tag, _FALLBACKS.get(tag, _keep)),
    )
    for tag, kw in RULE_KEYWORDS.items()
}


def _parse(text: str, read: Callable[[_Parser], T]) -> T:
    try:
        parser = _Parser(text)
        out = read(parser)
        parser.expect_eof()
        return out
    except ParseError as e:
        start = len(text[: e.span.start].encode("utf-8", "surrogatepass"))
        end = start + len(text[e.span.start : e.span.end].encode("utf-8", "surrogatepass"))
        raise ParseError(e.message, SourceSpan(start, end)) from None


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def parse_proof(text: str) -> Proof:
    return _parse(text, _Parser.proof)
