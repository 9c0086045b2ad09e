"""Text formats: formulas, proof s-expressions, value literals, JSON.

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
the fields of the rule's tag, in order (``ax`` carries its formula,
``weak`` the inserted formula, ``all-r`` its binder, ``all-l`` the
quantified formula and the witness).

`parse_proof` rejects no tree for its rules.  It builds each node
that fits its schema with the strict constructor, which certifies it
(``Proof.checked``); a node that does not fit comes back as written,
unchecked, with a best-effort cached conclusion, and the caller decides
what that means (see ``proof.validate``).
Both grammars are read from explicit stacks, so nesting depth costs no
recursion, over the token strings of one ``findall``; a token's offset
is found only to raise an error.  All spans are UTF-8 byte offsets.

Value literals are exact rational vectors ``[1/2, 3]`` and matrices
``[[1, 0], [0, 1]]``, read as points and written as results, and the
ket sums ``2/1 * ket([1/1,0/1]; [0/1,1/1])`` of ``!V``, written only.
"""

from __future__ import annotations

import re
from functools import cache
from string import ascii_letters
from typing import Callable, NamedTuple, Sequence, TypeVar

from .formula import (
    Bang,
    Forall,
    Formula,
    Lolli,
    One,
    Sequent,
    Tensor,
    Var,
    field_values,
    format_formula,
)
from .proof import (
    Proof,
    ProofError,
    RULE_KEYWORDS,
    RuleTag,
    _make,
    fold,
    rule_arity,
    rule_keyword,
)
from . import proof as _proof

T = TypeVar("T")


class SourceSpan(NamedTuple):
    start: int
    end: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (bytes {span.start}..{span.end})")
        self.message = message
        self.span = span


_Token = tuple[str, str, int]  # kind, text, start; an operator's kind is its text

# One match per token: the whitespace and comments before it, then, in
# the one group, the token, "" at the end of input, or the character
# that starts no token.  `_kind` reads back which alternative matched.
_TOKEN_RE = re.compile(
    r"""(?:[ ]+|[\t\r\n]+|;[^\n]*)*
      ( (?:%s)(?![A-Za-z0-9_'\-])
      | -o|[()!*.]
      | [0-9]+
      | [A-Za-z_][A-Za-z0-9_']*
      | \Z
      | . )
    """
    % "|".join([kw for kw in RULE_KEYWORDS.values() if "-" in kw]),
    re.VERBOSE | re.DOTALL,
)


def _kind(tok: str) -> str:
    """The kind of a token of `_TOKEN_RE`: its text for an operator,
    "kw" (only hyphenated keywords), "num", "ident", "eof" or "bad"."""
    if tok in ("(", ")", "!", "*", ".", "-o"):
        return tok
    if not tok:
        return "eof"
    if "0" <= tok[0] <= "9":
        return "num"
    if tok[0] in ascii_letters or tok[0] == "_":
        return "kw" if "-" in tok else "ident"
    return "bad"


def _scan(regex: re.Pattern, text: str) -> list[_Token]:
    """The tokens of ``text``, one per match of ``regex`` and of the kind
    its group names, up to and including the first "eof" or "bad"."""
    out = []
    for m in regex.finditer(text):
        kind = m.lastgroup
        out.append((kind if kind != "op" else m[kind], m[kind], m.start(kind)))
        if kind == "eof" or kind == "bad":
            return out


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text`` with their starts: operators, "kw", "num"
    and "ident", then "eof".  The reader takes offsets from here only to
    raise a ParseError."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        out.append((_kind(m[1]), m[1], m.start(1)))
        if out[-1][0] == "bad":
            raise _error(f"unexpected character {m[1]!r}", out[-1])
        if out[-1][0] == "eof":
            return out


def _error(message: str, tok: _Token) -> ParseError:
    """A ParseError spanning the text of ``tok``."""
    _, text, start = tok
    return ParseError(message, SourceSpan(start, start + len(text)))


class _Parser:
    """The token strings of ``text``, read by index; ``kinds`` maps each
    distinct one to its kind.  Each reader takes the index of its first
    token and returns what it read and the index after it."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN_RE.findall(text)  # then "", perhaps repeated
        self.kinds = {tok: _kind(tok) for tok in set(self.toks)}

    def fail(self, i: int, message: str) -> ParseError:
        """A ParseError spanning token ``i``.  No rule takes a character
        that starts no token, so reading stops at or before the first;
        `_tokenize` raises there instead, whatever ``message`` says."""
        return _error(message, _tokenize(self.text)[i])

    def expected(self, i: int, what: str) -> ParseError:
        found = f"'{self.toks[i]}'" if self.toks[i] else "end of input"
        return self.fail(i, f"expected {what}, found {found}")

    def formula(self, i: int) -> tuple[Formula, int]:
        """One formula.  The stack holds what waits for an operand: a
        ``!``, the left operand of ``*`` or ``-o``, and an open parenthesis
        or ``all`` binder, which waits for the formula inside it and ``)``."""
        toks, kinds = self.toks, self.kinds
        waiting: list[tuple[str, Formula | str | None]] = []
        while True:
            tok = toks[i]
            kind = kinds[tok]
            i += 1
            if kind == "!" or kind == "(":
                binder = None
                if kind == "(" and toks[i] == "all":
                    if kinds[toks[i + 1]] != "ident":
                        raise self.expected(i + 1, repr("a binder name"))
                    if toks[i + 1] == "all":
                        raise self.fail(i + 1, "'all' cannot be a binder name")
                    if toks[i + 2] != ".":
                        raise self.expected(i + 2, repr("'.'"))
                    binder = toks[i + 1]
                    i += 3
                waiting.append((kind, binder))
                continue
            if kind == "num":
                if tok != "1":
                    raise self.fail(i - 1, "the only numeric formula is the unit 1")
                operand = One()
            elif kind == "ident":
                if tok == "all":
                    raise self.fail(i - 1, "'all' is reserved; write (all x. A)")
                operand = Var(tok)
            else:
                raise self.expected(i - 1, "a formula")
            while True:  # the operand is complete: hand it to what waits for it
                while waiting and waiting[-1][0] in ("!", "*"):
                    op, left = waiting.pop()
                    operand = Bang(operand) if op == "!" else Tensor(left, operand)
                if toks[i] == "*" or toks[i] == "-o":  # * is left associative, -o right
                    waiting.append((toks[i], operand))
                    i += 1
                    break
                while waiting and waiting[-1][0] == "-o":
                    operand = Lolli(waiting.pop()[1], operand)
                if not waiting:
                    return operand, i
                binder = waiting.pop()[1]
                if toks[i] != ")":
                    raise self.expected(i, repr("')'"))
                i += 1
                if binder is not None:
                    operand = Forall(binder, operand)

    def proof(self, i: int) -> tuple[Proof, int]:
        """One proof s-expression.  Open nodes wait on an explicit stack,
        as (rule tag, premises read, premises needed), while their
        premises are read, so nesting depth costs no recursion.  A node
        that does not fit its schema gets its rule's fallback conclusion."""
        toks, kinds = self.toks, self.kinds
        open_nodes: list[tuple[RuleTag, list, int]] = []
        while True:
            if toks[i] != "(":
                raise self.expected(i, repr("a proof '('"))
            entry = _RULES.get(toks[i + 1])
            if entry is None:
                if kinds[toks[i + 1]] not in ("kw", "ident"):
                    raise self.expected(i + 1, "a rule keyword")
                raise self.fail(i + 1, f"unknown rule keyword '{toks[i + 1]}'")
            tag, head, need = entry
            i += 2
            args = []
            for kind in head:
                if kind == "f":
                    formula, i = self.formula(i)
                    args.append(formula)
                    continue
                tok = toks[i]
                if kind == "x" and kinds[tok] != "ident":
                    raise self.expected(i, repr("a binder name"))
                if kind == "i" and kinds[tok] != "num":
                    raise self.expected(i, repr("a context index"))
                try:
                    args.append(tok if kind == "x" else int(tok))
                except ValueError:  # more digits than int() converts
                    raise self.fail(i, "context index too long") from None
                i += 1
            rule, premises = tag(*args), []
            while len(premises) == need:  # the node is complete: close it
                try:
                    node = _make(rule, *premises)
                except ProofError:
                    premises = tuple(premises)
                    node = Proof(rule, premises, _FALLBACKS.get(type(rule), _keep)(rule, premises))
                if toks[i] != ")":
                    raise self.expected(i, repr("')'"))
                i += 1
                if not open_nodes:
                    return node, i
                rule, premises, need = open_nodes.pop()
                premises.append(node)
            open_nodes.append((rule, premises, need))  # its next argument is a premise


# Lenient fallbacks: when a rule application does not fit its schema we
# still hand back a tree — with a best-effort conclusion — so that
# validate can point at the offending node instead of parsing dying.


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


def _generalize(rule, premises):
    s = premises[0].conclusion
    return Sequent(s.context, Forall(rule.binder, s.conclusion))


_FALLBACKS = {
    _proof.Promotion: _promote,
    _proof.Weakening: _insert,
    _proof.ForallR: _generalize,
    _proof.ForallL: _replace,
}

# Each rule keyword's tag class, the tag's fields, which the keyword's
# arguments before its premises are, in order (i the context index
# ``at``, x the binder name ``binder``, f a formula), and its number of
# premises.
_RULES = {
    kw: (
        tag,
        "".join({"at": "i", "binder": "x"}.get(name, "f") for name in tag._names),
        rule_arity(tag),
    )
    for tag, kw in RULE_KEYWORDS.items()
}


# ---------------------------------------------------------------------------
# Entry points


def _parse(text: str, read: Callable[[_Parser, int], tuple[T, int]]) -> T:
    """``read`` from the tokens of ``text``, which it must use up.  The
    parser counts characters; a ParseError's span is turned into UTF-8
    byte offsets only when it is raised."""
    try:
        parser = _Parser(text)
        out, i = read(parser, 0)
        if parser.toks[i]:
            raise parser.fail(i, f"trailing input '{parser.toks[i]}'")
        return out
    except ParseError as e:
        start = len(text[: e.span.start].encode("utf-8", "surrogatepass"))
        end = start + len(text[e.span.start : e.span.end].encode("utf-8", "surrogatepass"))
        raise ParseError(e.message, SourceSpan(start, end)) from None


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def parse_proof(text: str) -> Proof:
    return _parse(text, _Parser.proof)


_WIDTH = 72


def _node_args(p: Proof, text: Callable[[Formula], str]) -> list[str]:
    """The arguments of ``p``'s node as printed, its formulas by ``text``."""
    return [text(v) if isinstance(v, Formula) else str(v) for v in field_values(p.rule)]


def print_proof(p: Proof) -> str:
    """Canonical text for a proof; `parse_proof` is its inverse.

    A node goes on one line when it has no premises or its one-line text
    fits in ``_WIDTH`` columns at its indent; otherwise its head opens a
    block and each premise follows on its own line, two columns deeper.
    Each distinct formula, and each distinct rule tag's head, is
    formatted once per call.
    """
    text = cache(format_formula)  # for this call only
    heads: dict = {}

    def measure(node: Proof, premises: list[tuple]) -> tuple:
        """The bottom-up pass: a node's head, the width of its one-line
        text, that text only where it is at most ``_WIDTH`` wide (or the
        node is a leaf), and its premises' measures."""
        head = heads.get(node.rule)
        if head is None:
            head = "(" + " ".join([rule_keyword(node.rule), *_node_args(node, text)])
            heads[node.rule] = head
        width = len(head) + 1
        for m in premises:
            width += 1 + m[1]
        if width > _WIDTH and premises:
            return head, width, None, premises
        return head, width, " ".join([head, *[m[2] for m in premises]]) + ")", premises

    # The top-down pass: the stack holds text and (measure, indent) items.
    out: list[str] = []
    stack: list = [(fold(p, measure), 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        (head, width, inline, premises), indent = item
        if not premises or indent + width <= _WIDTH:
            out.append(inline)
            continue
        out.append(head)
        stack.append(")")
        pad = "\n" + " " * (indent + 2)
        for q in reversed(premises):
            stack += ((q, indent + 2), pad)
    return "".join(out)


# ---------------------------------------------------------------------------
# Rationals, vector and matrix literals, JSON interchange


def format_fraction(q: Fraction) -> str:
    """Exact ``p/q`` rendering, denominator always spelled out."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a bare integer.  Only here is ``fractions``
    imported: the proof commands read no rational, and never load it."""
    from fractions import Fraction

    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"bad rational literal {text!r}: zero denominator") from None
    except ValueError as err:
        raise ValueError(f"bad rational literal {text!r}: {err}") from None


class CoordsLit(NamedTuple):
    """A vector ``[a, b, …]`` or matrix ``[[…], […]]`` of exact rationals."""

    rows: tuple
    is_matrix: bool


# One match per value-literal token: the whitespace before it, then a
# rational, a bracket or comma, the end of input, or any other character.
_VALUE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rat>-?[0-9]+(?:/[0-9]+)?)|(?P<op>[\[\],])|(?P<eof>\Z)|(?P<bad>.))",
    re.DOTALL,
)


def parse_value_literal(text: str) -> CoordsLit:
    """A vector or matrix literal, read by index from the tokens of
    ``_VALUE_TOKEN_RE``; anything else is a ValueError."""
    tokens = _scan(_VALUE_TOKEN_RE, text)
    at = 0

    def take(kind: str) -> str:
        nonlocal at
        found, tok, start = tokens[at]
        if found != kind:
            want = "a rational" if kind == "rat" else repr(kind)
            raise ValueError(f"expected {want} at offset {start} in value literal {text!r}")
        at += 1
        return tok

    def listed(item) -> tuple:
        """``[item, item, …]``"""
        take("[")
        out = [item()]
        while tokens[at][0] == ",":
            take(",")
            out.append(item())
        take("]")
        return tuple(out)

    def rational() -> Fraction:
        return parse_rational(take("rat"))

    is_matrix = [tok[0] for tok in tokens[:2]] == ["[", "["]
    rows = listed(lambda: listed(rational)) if is_matrix else listed(rational)
    if is_matrix and len({len(row) for row in rows}) > 1:
        raise ValueError(f"matrix rows of unequal lengths in value literal {text!r}")
    if tokens[at][0] != "eof":
        raise ValueError(f"trailing input in value literal {text!r}")
    return CoordsLit(rows, is_matrix)


def format_coords(coords: Sequence) -> str:
    """The literal `parse_value_literal` reads back: a vector of rationals,
    or a matrix given as a sequence of rows."""
    return "[" + ",".join(
        format_coords(c) if isinstance(c, (tuple, list)) else format_fraction(c) for c in coords
    ) + "]"


def format_ket(coeff: Fraction, base: tuple, args: tuple[int, ...]) -> str:
    """One term ``c * ket(base; e_i, …)`` of a ket sum, each argument the
    standard basis vector of its index; a coefficient of 1 is left out."""
    text = format_coords(base)
    if args:
        units = [tuple(int(i == a) for i in range(len(base))) for a in args]
        text += "; " + ", ".join(map(format_coords, units))
    return f"ket({text})" if coeff == 1 else f"{format_fraction(coeff)} * ket({text})"


def step_json(rule_id: str, path: tuple[int, ...], size_before: int, size_after: int) -> dict:
    """One trace step in the interchange shape."""
    return {"rule": rule_id, "path": list(path), "sizes": [size_before, size_after]}
