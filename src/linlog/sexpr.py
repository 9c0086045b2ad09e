"""Text formats: formula grammar, proof s-expressions, JSON interchange.

Formula grammar (whitespace-insensitive, ``;`` comments to end of line)::

    formula := tensor | tensor -o formula        -o is right associative
    tensor  := unary | tensor * unary            *  is left associative
    unary   := ! unary | atom
    atom    := ident | 1 | ( formula ) | ( all ident . formula )

Proof grammar: s-expressions with one keyword per deduction rule::

    (ax F)       (ex I P)       (cut I P P)    (tensor-r P P)
    (tensor-l I P)  (lolli-r P)  (lolli-l I P P)  (prom P)
    (der I P)    (ctr I P)      (weak I F P)   (one-l I P)
    (one-r)      (all-r X P)    (all-l I F W P)

where ``I`` is a context index, ``F`` a formula, ``W`` a witness
formula and ``X`` an identifier.  The arguments before the premises are
the fields of the rule's tag, in order (``weak`` carries the inserted
formula, ``all-l`` the quantified formula and the witness), except for
``ax`` and ``all-r``, whose argument is part of the conclusion.

`parse_proof` never runs the rule checker: the tree comes back as
written, with best-effort cached conclusions where a schema does not
fit, and the caller decides what that means (see ``proof.validate``).
Both grammars are read from explicit stacks, so nesting depth costs no
recursion.  All spans are byte offsets into the input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction

from .formula import (
    Bang,
    Forall,
    Formula,
    Lolli,
    One,
    Sequent,
    Tensor,
    Var,
    emit,
    format_formula,
)
from .proof import (
    Proof,
    ProofError,
    RULE_KEYWORDS,
    _make,
    fold,
    mk_axiom,
    mk_forall_r,
    rule_arity,
)
from . import proof as _proof


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (bytes {span.start}..{span.end})")
        self.message = message
        self.span = span


_Token = tuple[str, str, int]  # kind, text, start; an operator's kind is its text
_HYPHEN_KEYWORDS = ("tensor-r", "tensor-l", "lolli-r", "lolli-l", "one-r", "one-l", "all-r", "all-l")

# One match per token: the whitespace and comments before it, then the
# token, the end of input, or the character that starts no token.
_TOKEN_RE = re.compile(
    r"""(?:[ \t\r\n]+|;[^\n]*)*
      (?: (?P<kw>(?:%s)(?![A-Za-z0-9_'\-]))
        | (?P<op>-o|[()!*.])
        | (?P<num>[0-9]+)
        | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
        | (?P<eof>\Z)
        | (?P<bad>.) )
    """
    % "|".join(_HYPHEN_KEYWORDS),
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``: operators, "kw", "num" and "ident", then "eof"."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = (kind if kind != "op" else m[kind], m[kind], m.start(kind))
        if kind == "bad":
            raise _error(f"unexpected character {tok[1]!r}", tok)
        out.append(tok)
        if kind == "eof":
            return out


def _error(message: str, tok: _Token) -> ParseError:
    """A ParseError spanning the text of ``tok``."""
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

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        """One formula.  The stack holds what waits for an operand: a ``!``,
        the left operand of ``*`` or ``-o``, and an open parenthesis or
        ``all`` binder, which waits for the formula inside it and ``)``."""
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
            while True:  # the operand is complete: hand it to what waits for it
                while waiting and waiting[-1][0] in ("!", "*"):
                    op, left = waiting.pop()
                    operand = Bang(operand) if op == "!" else Tensor(left, operand)
                kind = self.peek()[0]
                if kind in ("*", "-o"):  # * is left associative, -o right
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

    # -- proofs ------------------------------------------------------------

    def index(self) -> int:
        tok = self.expect("num", "a context index")
        try:
            return int(tok[1])
        except ValueError:  # more digits than int() converts
            raise _error("context index too long", tok) from None

    def proof(self) -> Proof:
        """One proof s-expression.  Open nodes wait on an explicit stack
        while their premises are read, so nesting depth costs no
        recursion."""
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
                    break  # the next argument is a premise: open it
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


# Lenient fallbacks: when a rule application does not fit its schema we
# still hand back a tree — with a best-effort conclusion — so that
# validate can point at the offending node instead of parsing dying.


def _lenient(tag, fallback):
    """The builder for a rule whose arguments are its tag's fields, then
    its premises; ``fallback(rule, premises)`` gives the conclusion of a
    node that does not fit the schema."""
    n = len(fields(tag))

    def build(*args):
        rule, premises = tag(*args[:n]), args[n:]
        try:
            return _make(rule, *premises)
        except ProofError:
            return Proof(rule, premises, fallback(rule, premises))

    return build


def _keep(rule, premises):
    return premises[-1].conclusion


def _promote(rule, premises):
    s = premises[0].conclusion
    return Sequent(s.context, Bang(s.conclusion))


def _insert(rule, premises):
    s = premises[0].conclusion
    ins = min(max(rule.at, 0), len(s.context))
    return Sequent(s.context[:ins] + (rule.formula,) + s.context[ins:], s.conclusion)


def _replace(rule, premises):
    s, at = premises[0].conclusion, rule.at
    if 0 <= at < len(s.context):
        return Sequent(s.context[:at] + (rule.quantified,) + s.context[at + 1 :], s.conclusion)
    return Sequent(s.context + (rule.quantified,), s.conclusion)


def _all_r(name, p):
    try:
        return mk_forall_r(p, name)
    except ProofError:
        s = p.conclusion
        return Proof(_proof.ForallR(), (p,), Sequent(s.context, Forall(name, s.conclusion)))


# Each rule keyword's arguments, in order (i a context index, f a
# formula, x a binder name, p a premise proof), and the function that
# builds its node from them: the tag's fields, then its premises, except
# for ax and all-r, whose argument is part of the conclusion.
_FALLBACKS = {_proof.Promotion: _promote, _proof.Weakening: _insert, _proof.ForallL: _replace}
_RULES = {
    kw: (
        "".join("i" if f.name == "at" else "f" for f in fields(tag)) + "p" * rule_arity(tag),
        _lenient(tag, _FALLBACKS.get(tag, _keep)),
    )
    for tag, kw in RULE_KEYWORDS.items()
} | {"ax": ("f", mk_axiom), "all-r": ("xp", _all_r)}


# ---------------------------------------------------------------------------
# Entry points


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    out = parser.formula()
    parser.expect_eof()
    return out


def parse_proof(text: str) -> Proof:
    parser = _Parser(text)
    out = parser.proof()
    parser.expect_eof()
    return out


_WIDTH = 72


def _node_args(p: Proof) -> list[str]:
    rule = p.rule
    if isinstance(rule, _proof.Axiom):
        return [format_formula(p.conclusion.conclusion)]
    if isinstance(rule, _proof.ForallR):
        f = p.conclusion.conclusion
        return [f.binder if isinstance(f, Forall) else "_"]
    return [
        format_formula(v) if isinstance(v, Formula) else str(v) for v in vars(rule).values()
    ]


def print_proof(p: Proof) -> str:
    """Canonical text for a proof; `parse_proof` is its inverse.

    A node goes on one line when it has no premises or its one-line text
    fits in ``_WIDTH`` columns at its indent; otherwise its head opens a
    block and each premise follows on its own line, two columns deeper.
    """
    return "".join(emit((fold(p, _measure), 0), _layout))


def _layout(measure: tuple, indent: int) -> list:
    """``print_proof``'s top-down pass, over the measures."""
    head, width, inline, premises = measure
    if not premises or indent + width <= _WIDTH:
        return [inline]
    pad = "\n" + " " * (indent + 2)
    return [head, *[part for q in premises for part in (pad, (q, indent + 2))], ")"]


def _measure(node: Proof, premises: list[tuple]) -> tuple:
    """``print_proof``'s bottom-up pass: a node's head, the width of its
    one-line text, that text only where it is at most ``_WIDTH`` wide
    (or the node is a leaf), and its premises' measures."""
    head = "(" + " ".join([RULE_KEYWORDS[type(node.rule)], *_node_args(node)])
    width = len(head) + 1 + sum([1 + m[1] for m in premises])
    inline = None
    if width <= _WIDTH or not premises:
        inline = " ".join([head, *[m[2] for m in premises]]) + ")"
    return head, width, inline, premises


# ---------------------------------------------------------------------------
# Rationals, vector and matrix literals, JSON interchange


def format_fraction(q: Fraction) -> str:
    """Exact ``p/q`` rendering, denominator always spelled out."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a bare integer."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad rational literal {text!r}: {err}") from None


_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class _ValueLexer:
    """Scanner for the value literals of the command line: coordinate
    lists ``[1/2, 3]`` and matrices ``[[..],[..]]``."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ValueError(
                f"expected {ch!r} at offset {self.pos} in value literal {self.text!r}"
            )
        self.pos += 1

    def rational(self) -> Fraction:
        self.skip_ws()
        m = _RATIONAL_RE.match(self.text, self.pos)
        if m is None:
            raise ValueError(
                f"expected a rational at offset {self.pos} in {self.text!r}"
            )
        self.pos = m.end()
        return parse_rational(m.group())


@dataclass(frozen=True)
class CoordsLit:
    """A vector ``[a, b, …]`` or matrix ``[[…], […]]`` of exact rationals."""

    rows: tuple
    is_matrix: bool


def parse_value_literal(text: str) -> CoordsLit:
    """A vector or matrix literal; anything else is a ValueError."""
    lexer = _ValueLexer(text)
    out = _coords(lexer)
    lexer.skip_ws()
    if lexer.pos != len(lexer.text):
        raise ValueError(f"trailing input in value literal {text!r}")
    return out


def _coords(lexer: _ValueLexer, nested: bool = True) -> CoordsLit:
    """A vector, or (when ``nested``) a matrix given as a list of rows."""
    lexer.eat("[")
    is_matrix = nested and lexer.peek() == "["
    item = (lambda: _coords(lexer, False).rows) if is_matrix else lexer.rational
    entries = [item()]
    while lexer.peek() == ",":
        lexer.eat(",")
        entries.append(item())
    lexer.eat("]")
    if is_matrix and len({len(row) for row in entries}) > 1:
        raise ValueError(f"matrix rows of unequal lengths in value literal {lexer.text!r}")
    return CoordsLit(tuple(entries), is_matrix)


def step_json(rule_id: str, path: tuple[int, ...], size_before: int, size_after: int) -> dict:
    """One trace step in the interchange shape."""
    return {"rule": rule_id, "path": list(path), "sizes": [size_before, size_after]}
