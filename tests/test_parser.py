import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _kernelref
import _readref
import _tokref
import _valref
from linlog.formula import (
    INT,
    Bang,
    Forall,
    Lolli,
    One,
    Sequent,
    Tensor,
    Var,
    format_formula,
    int_type,
)
from linlog.encodings import (
    add_cut,
    church,
    church_body,
    exp_cut,
    hypexp_cut,
    library,
    mult_cut,
)
from linlog.proof import (
    RULE_KEYWORDS,
    mk_axiom,
    mk_ctr,
    mk_cut,
    mk_der,
    mk_exchange,
    mk_forall_l,
    mk_forall_r,
    mk_lolli_l,
    mk_lolli_r,
    mk_one_l,
    mk_one_r,
    mk_prom,
    mk_tensor_l,
    mk_tensor_r,
    mk_weak,
    preorder,
    validate,
)
from linlog.sexpr import (
    CoordsLit,
    ParseError,
    format_coords,
    format_fraction,
    parse_formula,
    parse_proof,
    parse_rational,
    parse_value_literal,
    print_proof,
    step_json,
)
from linlog.sexpr import _node_args, _tokenize

A = Var("A")


def test_parse_formula_examples():
    assert parse_formula("!(A -o A) -o (A -o A)") == int_type(A)
    assert parse_formula("1") == One()
    assert parse_formula("(all x. !(x -o x) -o (x -o x))") == INT
    assert parse_formula("  A ; trailing comment\n") == A


def test_parse_formula_precedence():
    x, y, z = Var("x"), Var("y"), Var("z")
    assert parse_formula("x -o y -o z") == Lolli(x, Lolli(y, z))
    assert parse_formula("x * y * z") == Tensor(Tensor(x, y), z)
    assert parse_formula("!x * y") == Tensor(Bang(x), y)
    assert parse_formula("!(x * y)") == Bang(Tensor(x, y))
    assert parse_formula("x * y -o z") == Lolli(Tensor(x, y), z)
    assert parse_formula("!!x'") == Bang(Bang(Var("x'")))


def test_parse_formula_errors_carry_spans():
    with pytest.raises(ParseError) as err:
        parse_formula("A -o")
    assert err.value.span.start == 4

    with pytest.raises(ParseError):
        parse_formula("(A -o A")
    with pytest.raises(ParseError):
        parse_formula("all x. x")
    with pytest.raises(ParseError):
        parse_formula("A @ B")
    with pytest.raises(ParseError):
        parse_formula("2")
    with pytest.raises(ParseError):
        parse_formula("A B")


def test_all_is_refused_as_a_binder_name():
    with pytest.raises(ParseError, match=r"^'all' cannot be a binder name") as err:
        parse_formula("(all all. x)")
    assert type(err.value) is ParseError
    # the all-r schema refuses it too: both readers hand the node back unchecked
    text = "(all-r all (lolli-r (ax A)))"
    p, checked = _reads_like_the_reference(text)
    assert checked == [False, True, True]
    assert p.conclusion == Sequent((), Forall("all", Lolli(A, A)))
    assert validate(p) == [((), "'all' cannot be a binder name")]
    assert print_proof(p) == text


def test_a_proof_node_must_open_with_a_rule_keyword():
    with pytest.raises(ParseError, match=r"^expected a rule keyword, found '\('") as err:
        parse_proof("((ax A))")
    assert type(err.value) is ParseError


def test_parse_proof_axiom():
    p = parse_proof("(ax A)")
    assert p == mk_axiom(A)
    assert parse_proof("(ax A -o A)") == mk_axiom(Lolli(A, A))
    assert parse_proof("(one-r)") == mk_one_r()


def _one_of_everything():
    ax = mk_axiom(A)
    pair = mk_tensor_r(ax, mk_axiom(Var("B")))
    ex = mk_exchange(pair, 0)
    tl = mk_tensor_l(ex, 0)
    der = mk_der(ax, 0)
    prom = mk_prom(der)
    weak = mk_weak(der, 1, Bang(Var("B")))
    ctr = mk_ctr(mk_weak(der, 1, Bang(A)), 0)
    lr = mk_lolli_r(ax)
    ll = mk_lolli_l(ax, ax, 0)
    cut = mk_cut(lr, ll, 1)
    onel = mk_one_l(mk_one_r(), 0)
    fr = mk_forall_r(mk_lolli_r(mk_axiom(Var("x"))), "x")
    fl = mk_forall_l(mk_axiom(int_type(A)), 0, INT, A)
    return [ax, pair, ex, tl, der, prom, weak, ctr, lr, ll, cut, onel, fr, fl]


def test_print_parse_round_trip():
    for p in _one_of_everything():
        assert _kernelref.validate(p) == []
        assert parse_proof(print_proof(p)) == p


def test_print_golden():
    assert print_proof(mk_axiom(One())) == "(ax 1)"
    assert print_proof(mk_one_r()) == "(one-r)"
    assert (
        print_proof(mk_forall_l(mk_axiom(int_type(A)), 0, INT, A))
        == "(all-l 0 (all x. !(x -o x) -o (x -o x)) A (ax !(A -o A) -o (A -o A)))"
    )


def test_print_wraps_long_proofs():
    p = mk_lolli_r(mk_lolli_l(mk_axiom(int_type(A)), mk_axiom(int_type(A)), 0))
    text = print_proof(p)
    assert "\n" in text
    assert parse_proof(text) == p


def test_parse_proof_is_lenient_validate_reports():
    p = parse_proof("(ex 5 (ax A))")
    problems = validate(p)
    assert len(problems) == 1
    assert problems[0][0] == ()
    assert "exchange" in problems[0][1]

    q = parse_proof("(prom (ax A))")
    assert any("not banged" in msg for _, msg in validate(q))

    # a lenient weakening still prints its inserted formula
    r = parse_proof("(weak 9 !A (ax A))")
    assert validate(r) != []
    assert "!A" in print_proof(r)

    # an all-r whose binder occurs free in a hypothesis
    text = "(all-r x (ax x))"
    s = parse_proof(text)
    assert [msg for _, msg in validate(s)] == ["all-r binder x occurs free in hypothesis 0 (x)"]
    assert print_proof(s) == text


def test_parse_proof_errors():
    with pytest.raises(ParseError):
        parse_proof("(frobnicate (ax A))")
    with pytest.raises(ParseError) as err:
        parse_proof("(ex 0 (der x (ax A)))")
    assert (err.value.span.start, err.value.span.end) == (11, 12)
    with pytest.raises(ParseError) as err:
        parse_proof("(cut 0 (ax A) (frob 1))")
    assert (err.value.span.start, err.value.span.end) == (15, 19)
    with pytest.raises(ParseError) as err:
        parse_proof("(lolli-r (ax A) (ax A))")
    assert (err.value.span.start, err.value.span.end) == (16, 17)
    assert err.value.message.endswith("found '('")
    with pytest.raises(ParseError):
        parse_proof("(ax A) (ax A)")
    with pytest.raises(ParseError):
        parse_proof("(cut x (ax A) (ax A))")


def test_parse_proof_with_comments_and_layout():
    text = """
    ; iterate twice
    (ctr 0
      (der 1
        (der 0 ; innermost
          (lolli-r (lolli-l 0 (ax A) (lolli-l 0 (ax A) (ax A)))))))
    """
    p = parse_proof(text)
    assert _kernelref.validate(p) == []
    assert parse_proof(print_proof(p)) == p


def test_rationals():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert format_fraction(Fraction(5, 1)) == "5/1"
    assert format_fraction(Fraction(-1, 3)) == "-1/3"
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("x")


def test_value_literals():
    v = parse_value_literal("[1/2, 3]")
    assert v == CoordsLit((Fraction(1, 2), Fraction(3)), False)
    m = parse_value_literal("[[1,0],[0,1]]")
    assert m.is_matrix and m.rows[1] == (Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        parse_value_literal("[1, oops]")
    with pytest.raises(ValueError):
        parse_value_literal("[1] extra")


def test_a_matrix_literal_needs_rows_of_one_length():
    for text in ("[[1,1,0],[1]]", "[[1],[1,0]]", "[[1,2],[3,4],[5]]"):
        with pytest.raises(ValueError, match="unequal lengths"):
            parse_value_literal(text)
    # one column, or a single row, is still a matrix
    assert parse_value_literal("[[1],[1],[0],[1]]").rows == ((1,), (1,), (0,), (1,))
    assert parse_value_literal("[[1, 1, 0, 1]]").rows == ((1, 1, 0, 1),)


def _literal_or_error(parse, text):
    """``parse(text)``, or the message of its ValueError."""
    try:
        return parse(text)
    except ValueError as err:
        return str(err)


# Pieces of a value literal: every token, a zero denominator, the near
# misses of a rational, whitespace (ASCII and not), a character that
# starts no token, and a non-ASCII one.
_VALUE_PIECES = ["[", "]", ",", "1/2", "-3", "1/0", "-", "/", " ", "\t", "\n", "\xa0", "x", "é"]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(pieces=st.lists(st.sampled_from(_VALUE_PIECES), max_size=16))
def test_value_literals_match_the_scanner_reference(pieces):
    text = "".join(pieces)
    ours = _literal_or_error(parse_value_literal, text)
    assert ours == _literal_or_error(_valref.parse_value_literal, text)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    vector=st.lists(st.fractions(), min_size=1, max_size=6),
    matrix=st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(*[st.fractions()] * n), min_size=1, max_size=4)
    ),
)
def test_written_coordinates_read_back(vector, matrix):
    for coords, is_matrix in ((vector, False), (matrix, True)):
        text = format_coords(coords)
        lit = CoordsLit(tuple(coords), is_matrix)
        assert parse_value_literal(text) == lit == _valref.parse_value_literal(text)


def test_parse_error_spans_are_utf8_byte_offsets():
    # the parser counts characters; the span it raises counts bytes
    with pytest.raises(ParseError) as err:
        parse_proof("; é\n(ax @)")
    assert (err.value.span.start, err.value.span.end) == (9, 10)
    assert str(err.value) == "unexpected character '@' (bytes 9..10)"
    with pytest.raises(ParseError) as err:
        parse_formula("é")
    assert (err.value.span.start, err.value.span.end) == (0, 2)
    with pytest.raises(ParseError) as err:
        parse_formula("A -o é")
    assert (err.value.span.start, err.value.span.end) == (5, 7)


def test_step_json():
    assert step_json("prom-der", (0, 1), 10, 8) == {
        "rule": "prom-der",
        "path": [0, 1],
        "sizes": [10, 8],
    }


# The printer as it was written before it became iterative: `_pp`
# rebuilds the one-line text of every subtree at every level, so it is
# quadratic and recurses with the depth of the proof.  It is kept here
# as the reference for the layout.
_REF_WIDTH = 72


def _ref_inline(p):
    args = _node_args(p, format_formula)
    parts = [RULE_KEYWORDS[type(p.rule)], *args, *map(_ref_inline, p.premises)]
    return "(" + " ".join(parts) + ")"


def _ref_pp(p, indent=0):
    inline = _ref_inline(p)
    if not p.premises or indent + len(inline) <= _REF_WIDTH:
        return inline
    head = "(" + " ".join([RULE_KEYWORDS[type(p.rule)], *_node_args(p, format_formula)])
    pad = " " * (indent + 2)
    lines = [head] + [pad + _ref_pp(q, indent + 2) for q in p.premises]
    return "\n".join(lines) + ")"


def test_printer_matches_the_recursive_reference():
    proofs = [*library().values(), *_one_of_everything()]
    proofs += [church(n, A) for n in range(61)]
    proofs += [church_body(k, A) for k in range(13)]
    proofs += [add_cut(m, n, A) for m in range(4) for n in range(4)]
    proofs += [mult_cut(m, n, A) for m in range(4) for n in range(4)]
    proofs += [exp_cut(2, n, A) for n in range(1, 4)]
    proofs += [hypexp_cut(n) for n in range(3)]
    # lenient trees: weakening indices out of range, quantifier-left
    # instances that do not fit, inside and outside the context
    lenient = [
        parse_proof(text)
        for text in (
            "(weak 9 !A (ax A))",
            "(weak 3 !B (one-r))",
            "(weak 2 !B (lolli-r (ax A)))",
            "(all-l 0 (all x. x -o x) B (ax A))",
            "(all-l 4 (all x. x) A (ax A))",
            "(lolli-r (weak 7 !(A -o A) (all-l 2 (all x. !(x -o x) -o (x -o x)) "
            "(A -o A) (ax !(A -o A) -o (A -o A)))))",
        )
    ]
    for p in proofs + lenient:
        assert print_proof(p) == _ref_pp(p)
    # an out-of-range all-l prints the quantified formula its parse
    # appended to the context, so lenient trees round-trip too
    assert print_proof(lenient[4]) == "(all-l 4 (all x. x) A (ax A))"
    for t in lenient:
        assert parse_proof(print_proof(t)) == t


def _ref_tokenize(text):
    return [(tok.kind, tok.text, tok.span.start) for tok in _tokref._tokenize(text)]


def _tokens_or_error(tokenize, text):
    """``tokenize(text)``, or the message and span of its ParseError."""
    try:
        return tokenize(text)
    except ParseError as err:
        return err.message, err.span


# Pieces of input: every token kind, whitespace and comments, and the
# near misses of a hyphenated keyword or `-o`, characters that start no
# token, and non-ASCII ones.
_PIECES = [
    *"()!*.", "-o", "-", "-x", "-oo", *RULE_KEYWORDS.values(), "ax", "all-r", "all",
    "tensor-rx", "tensor-r-", "lolli-l'", "x", "A", "x'", "_y9", "0", "1", "42", "9" * 30,
    " ", "  ", "\t", "\n", "\r\n", "; note", ";", ";;(ax A)\n", "\f", "\v", "é", "⊸", "λx",
    "\x00", "@", "[", ",",
]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(pieces=st.lists(st.sampled_from(_PIECES), max_size=12))
def test_tokenizer_matches_the_two_match_reference(pieces):
    text = "".join(pieces)
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_ref_tokenize, text)


def test_tokenizer_matches_the_reference_on_every_encoding():
    for p in library().values():
        text = print_proof(p) + "\n"  # as `linlog encode` prints it
        tokens = _tokenize(text)
        assert tokens == _ref_tokenize(text)
        assert tokens[-1] == ("eof", "", len(text))


def _read_or_error(parse, text):
    """``parse(text)`` with the ``checked`` flag of each node in preorder,
    or the message and span of its ParseError."""
    try:
        p = parse(text)
    except ParseError as err:
        return err.message, err.span
    return p, [q.checked for _, q in preorder(p)]


def _reads_like_the_reference(text):
    ours = _read_or_error(parse_proof, text)
    assert ours == _read_or_error(_readref.parse_proof, text)
    return ours


_ENCODING_TEXTS = [print_proof(p) + "\n" for p in library().values()]  # as `linlog encode` prints


def test_the_reader_matches_the_tuple_reader_on_every_encoding():
    for text in _ENCODING_TEXTS:
        p, flags = _reads_like_the_reference(text)
        assert all(flags) and print_proof(p) + "\n" == text
    # a grammar error before an unexpected character, comments that end
    # with and without a newline, keywords as identifiers, an empty text,
    # binders that are not followed by '.' or are not names
    for text in ("(ax A B) $", "(ax A) ; end\n", "(ax A) ; end", "(ax ax)", "(ax all)",
                 "(lolli-rx (ax A))", "", " ", "(all-r all (ax A))", "(ex 0 (ax A)) é",
                 "(ax (all x y))", "(ax (all all. x))", "(ax (all 1. x))", "(ax (all x."):
        _reads_like_the_reference(text)


def test_an_all_r_binder_must_be_a_name():
    # a missing or numeric binder, reported at its place by both readers;
    # the mutation test below need not draw either
    for text, found in (("(all-r (ax A))", "("), ("(all-r 0 (ax A))", "0")):
        message, span = _reads_like_the_reference(text)
        assert message == f"expected 'a binder name', found '{found}'"
        assert (span.start, span.end) == (7, 8)


# Mutations of a token (kind, text, start) of a text: cut the text
# before or after it, delete it, double it, put a stray character or a
# comment before it, or put a 5000-digit index in its place.
_MUTATIONS = {
    "cut-before": lambda text, tok, at: text[:at],
    "cut-after": lambda text, tok, at: text[: at + len(tok)],
    "delete": lambda text, tok, at: text[:at] + text[at + len(tok) :],
    "double": lambda text, tok, at: text[: at + len(tok)] + " " + text[at:],
    "stray-ascii": lambda text, tok, at: text[:at] + "$" + text[at:],
    "stray-non-ascii": lambda text, tok, at: text[:at] + "⊗" + text[at:],
    "comment": lambda text, tok, at: text[:at] + "; ⊢ A\n" + text[at:],
    "open-comment": lambda text, tok, at: text[:at] + "; ⊢ A" + text[at:],
    "long-index": lambda text, tok, at: text[:at] + "9" * 5000 + text[at + len(tok) :],
}


def test_the_reader_matches_the_tuple_reader_on_mutated_encodings():
    """100 printed encodings with one or two mutations each, at a token of
    the original (its index taken modulo their number), made right to
    left so that offsets stay good.  A seeded generator draws them, so
    every run, whatever other tests ran first, checks the same texts."""
    rng = random.Random("mutated-encodings")
    names = sorted(_MUTATIONS)
    for _ in range(100):
        text = rng.choice(_ENCODING_TEXTS)
        picks = [(rng.randint(0, 10**4), rng.choice(names)) for _ in range(rng.randint(1, 2))]
        tokens = _readref._tokenize(text)
        for k, name in sorted({k % len(tokens): name for k, name in picks}.items(), reverse=True):
            _, tok, at = tokens[k]
            text = _MUTATIONS[name](text, tok, at)
        _reads_like_the_reference(text)
