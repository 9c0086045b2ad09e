"""Shapes and denotations of the numeral library."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import _kernelref
from linlog.coalgebra import BaseSp, HomSp
from linlog.encodings import (
    _spine,
    add,
    add_cut,
    church,
    church_body,
    comp,
    exp,
    hypexp,
    library,
    mult,
    mult_cut,
    plain_body,
    rec,
)
from linlog.formula import Bang, INT, Lolli, Sequent, Var, endo, int_type
from linlog.proof import (
    mk_axiom,
    mk_ctr,
    mk_cut,
    mk_der,
    mk_lolli_r,
    mk_weak,
    proof_eq,
)
from linlog.semantics import Matrix, Scalar, den_apply, force, matrix, nl

A = Var("A")
E = endo(A)
ASG = {"A": 2}
E_SPACE = HomSp(BaseSp("A", 2), BaseSp("A", 2))


def _matmul(a, b):
    return [
        [sum((a[i][t] * b[t][j] for t in range(2)), Fraction(0)) for j in range(2)]
        for i in range(2)
    ]


def _mat_power(a, n):
    out = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for _ in range(n):
        out = _matmul(out, a)
    return out


def _rand_mat(rng):
    return [[Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(2)] for _ in range(2)]


def _rows(v):
    m = force(v, E_SPACE)
    assert isinstance(m, Matrix)
    return [list(r) for r in m.rows]


# ---------------------------------------------------------------------------
# Shapes


def test_numeral_two_is_the_displayed_tree():
    body = mk_ctr(mk_der(mk_der(plain_body(2, A), 0), 1), 0)
    assert proof_eq(church(2, A), mk_lolli_r(body))


def test_small_bodies():
    assert proof_eq(church_body(0, A), mk_weak(mk_lolli_r(mk_axiom(A)), 0, Bang(E)))
    assert proof_eq(church_body(1, A), mk_der(plain_body(1, A), 0))


def test_halving_spine_for_four():
    assert _spine(4) == [
        ("ctr", 0),
        ("ctr", 1),
        ("der", 2),
        ("der", 1),
        ("ctr", 0),
        ("der", 1),
        ("der", 0),
    ]


def test_conclusions():
    intA = int_type(A)
    assert church(3, A).conclusion == Sequent((), intA)
    assert church_body(3, A).conclusion == Sequent((Bang(E),), E)
    assert comp(A).conclusion == Sequent((E, E), E)
    assert add(A).conclusion == Sequent((intA, intA), intA)
    assert mult(2, A).conclusion == Sequent((intA,), intA)
    assert exp(2, A).conclusion == Sequent((int_type(intA),), intA)
    assert hypexp().conclusion == Sequent((INT,), INT)


def test_every_encoding_validates():
    for name, p in library().items():
        assert _kernelref.validate(p) == [], name
    for n in range(9):
        assert _kernelref.validate(church(n, A)) == []


# ---------------------------------------------------------------------------
# Denotations


def test_numeral_bodies_iterate_exactly():
    rng = random.Random(3)
    for n in range(6):
        al = _rand_mat(rng)
        got = nl(church_body(n, A), matrix(E_SPACE, al), ASG)
        assert _rows(got) == _mat_power(al, n), f"n={n}"


def test_zero_body_is_the_identity_map():
    rng = random.Random(7)
    al = _rand_mat(rng)
    got = nl(church_body(0, A), matrix(E_SPACE, al), ASG)
    assert _rows(got) == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_nilpotent_cube_is_zero():
    al = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    got = nl(church_body(3, A), matrix(E_SPACE, al), ASG)
    assert _rows(got) == [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]


def test_addition_cuts_denote_sums_before_any_rewriting():
    rng = random.Random(11)
    for m, n in [(0, 2), (1, 1), (2, 3)]:
        al = _rand_mat(rng)
        got = nl(add_cut(m, n, A), matrix(E_SPACE, al), ASG)
        assert _rows(got) == _mat_power(al, m + n), (m, n)


def test_multiplication_cuts_denote_products_before_any_rewriting():
    rng = random.Random(13)
    for m, n in [(1, 3), (2, 2), (3, 2)]:
        al = _rand_mat(rng)
        got = nl(mult_cut(m, n, A), matrix(E_SPACE, al), ASG)
        assert _rows(got) == _mat_power(al, m * n), (m, n)


def test_rec_applies_the_boxed_step_n_times():
    # the only closed step of type ⊢ E ⊸ E without constants is the
    # identity, so iterating it must return the base proof's value
    beta = mk_lolli_r(mk_axiom(A))  # ⊢ E, denoting the identity matrix
    beta_prime = mk_lolli_r(plain_body(1, A))  # ⊢ E ⊸ E, the identity map
    p = rec(beta, beta_prime, E)
    assert p.conclusion == Sequent((int_type(E),), E)
    assert _kernelref.validate(p) == []
    for n in (0, 2):
        run = mk_cut(church(n, E), p, 0)
        got = force(den_apply(run, Scalar(Fraction(1)), ASG), E_SPACE)
        assert got.rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_validation_rejects_negative_numerals():
    with pytest.raises(ValueError):
        church(-1, A)
