"""Laws of the symbolic !V model, checked on seeded random elements."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linlog.coalgebra import (
    BangElem,
    BangSp,
    BaseSp,
    SumSp,
    Vect,
    bang_add,
    bang_from_terms,
    bang_scale,
    basis_vec,
    coproduct,
    counit,
    dereliction,
    grouplike_kets,
    ket,
    lift,
    merge,
    set_partitions,
    split,
    tensor_from_terms,
    vacuum,
    vec_add,
    vec_is_zero,
    vec_scale,
    vect,
    zero_bang,
    zero_vec,
)


def _rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))


def _rand_vec(rng: random.Random, space) -> "object":
    from linlog.coalgebra import space_dim

    return vect(space, [_rand_frac(rng) for _ in range(space_dim(space))])


def _rand_ket(rng: random.Random, space, max_args=3) -> BangElem:
    base = _rand_vec(rng, space)
    args = [_rand_vec(rng, space) for _ in range(rng.randint(0, max_args))]
    return ket(base, args)


def _rand_elem(rng: random.Random, space) -> BangElem:
    out = _rand_ket(rng, space)
    if rng.random() < 0.5:
        out = bang_add(out, _rand_ket(rng, space))
    return out


def _pure(space, key) -> BangElem:
    return BangElem(space, ((key, Fraction(1)),))


def _tensor2(a: BangElem, b: BangElem):
    acc = {}
    for ka, ca in a.terms:
        for kb, cb in b.terms:
            acc[(ka, kb)] = acc.get((ka, kb), Fraction(0)) + ca * cb
    return tensor_from_terms((BangSp(a.space), BangSp(b.space)), acc)


# ---------------------------------------------------------------------------
# Partitions


def test_set_partition_counts_are_bell_numbers():
    assert [len(set_partitions(s)) for s in range(5)] == [1, 1, 2, 5, 15]


def test_set_partitions_of_three_in_growth_string_order():
    assert set_partitions(3) == [
        ((0, 1, 2),),
        ((0, 1), (2,)),
        ((0, 2), (1,)),
        ((0,), (1, 2)),
        ((0,), (1,), (2,)),
    ]


# ---------------------------------------------------------------------------
# Kets


def test_ket_with_zero_argument_vanishes_but_vacuum_does_not():
    V = BaseSp("A", 2)
    P = vect(V, [1, 2])
    assert ket(P, [zero_vec(V)]).is_zero()
    assert not vacuum(P).is_zero()
    assert counit(vacuum(P)) == 1


def test_kets_are_symmetric_and_multilinear():
    rng = random.Random(7)
    V = BaseSp("A", 3)
    P = _rand_vec(rng, V)
    u, v, w = (_rand_vec(rng, V) for _ in range(3))
    assert ket(P, [u, v]) == ket(P, [v, u])
    assert ket(P, [vec_add(u, w), v]) == bang_add(ket(P, [u, v]), ket(P, [w, v]))
    assert ket(P, [vec_scale(Fraction(3, 2), u)]) == bang_add(
        ket(P, [u]), ket(P, [vec_scale(Fraction(1, 2), u)])
    )


def test_vacua_at_distinct_points_are_independent():
    V = BaseSp("A", 2)
    a = vacuum(vect(V, [1, 0]))
    b = vacuum(vect(V, [0, 1]))
    assert a != b
    assert not bang_add(a, bang_scale_neg(b)).is_zero()


def bang_scale_neg(x: BangElem) -> BangElem:
    from linlog.coalgebra import bang_scale

    return bang_scale(Fraction(-1), x)


# ---------------------------------------------------------------------------
# Counit / dereliction / coproduct


def test_dereliction_on_short_kets():
    V = BaseSp("A", 2)
    P = vect(V, [2, 3])
    v = vect(V, [1, -1])
    u = vect(V, [0, 5])
    assert dereliction(vacuum(P)) == P
    assert dereliction(ket(P, [v])) == v
    assert vec_is_zero(dereliction(ket(P, [u, v])))


def test_coproduct_of_repeated_argument_by_hand():
    # Δ|ν,ν⟩_P = |ν,ν⟩⊗|o⟩ + 2·|ν⟩⊗|ν⟩ + |o⟩⊗|ν,ν⟩
    V = BaseSp("A", 2)
    P = vect(V, [1, 1])
    nu = vect(V, [1, 2])
    lhs = coproduct(ket(P, [nu, nu]))
    expected = {}
    pieces = [
        (ket(P, [nu, nu]), vacuum(P), 1),
        (ket(P, [nu]), ket(P, [nu]), 2),
        (vacuum(P), ket(P, [nu, nu]), 1),
    ]
    for left, right, mult in pieces:
        for key, c in _tensor2(left, right).terms:
            expected[key] = expected.get(key, Fraction(0)) + mult * c
    assert lhs == tensor_from_terms(lhs.factors, expected)


def _assert_counit_laws(x: BangElem) -> None:
    left = {}
    right = {}
    for (kl, kr), c in coproduct(x).terms:
        if not kl[1]:
            left[kr] = left.get(kr, 0) + c
        if not kr[1]:
            right[kl] = right.get(kl, 0) + c
    assert bang_from_terms(x.space, left) == x
    assert bang_from_terms(x.space, right) == x


def _assert_coassociative(x: BangElem) -> None:
    lhs = {}
    rhs = {}
    for (kl, kr), c in coproduct(x).terms:
        for (k1, k2), c2 in coproduct(_pure(x.space, kl)).terms:
            key = (k1, k2, kr)
            lhs[key] = lhs.get(key, 0) + c * c2
        for (k2, k3), c2 in coproduct(_pure(x.space, kr)).terms:
            key = (kl, k2, k3)
            rhs[key] = rhs.get(key, 0) + c * c2
    assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


def test_counit_laws_on_random_elements():
    rng = random.Random(11)
    V = BaseSp("A", 2)
    for _ in range(30):
        _assert_counit_laws(_rand_elem(rng, V))


def test_coproduct_is_cocommutative():
    rng = random.Random(13)
    V = BaseSp("A", 3)
    for _ in range(20):
        x = _rand_elem(rng, V)
        t = coproduct(x)
        swapped = {(kr, kl): c for (kl, kr), c in t.terms}
        assert t == tensor_from_terms(t.factors, swapped)


def test_coproduct_is_coassociative():
    rng = random.Random(17)
    V = BaseSp("A", 2)
    for _ in range(20):
        _assert_coassociative(_rand_elem(rng, V))


# Exact rationals as the evaluator carries them: an int, an integral
# Fraction, or a Fraction with a denominator up to 7.
_rationals = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
)
_V2 = BaseSp("A", 2)
_vects = st.lists(_rationals, min_size=2, max_size=2).map(lambda cs: Vect(_V2, tuple(cs)))
_kets = st.builds(ket, _vects, st.lists(_vects, max_size=3))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_kets, _kets)
def test_counit_and_coassociativity_on_rational_kets(x, y):
    for elem in (x, bang_add(x, y)):
        _assert_counit_laws(elem)
        _assert_coassociative(elem)


# ---------------------------------------------------------------------------
# Lifting


def _rand_linear_phi(rng: random.Random, dom, cod):
    """A deterministic linear map !dom → cod, drawn lazily per ket basis key."""
    images = {}

    def phi(x: BangElem):
        out = zero_vec(cod)
        for key, c in x.terms:
            if key not in images:
                images[key] = _rand_vec(rng, cod)
            out = vec_add(out, vec_scale(c, images[key]))
        return out

    return phi


def test_lift_triangle_dereliction_recovers_phi():
    rng = random.Random(19)
    V, W = BaseSp("A", 2), BaseSp("B", 2)
    phi = _rand_linear_phi(rng, W, V)
    for _ in range(15):
        x = _rand_elem(rng, W)
        assert dereliction(lift(phi, x, out_space=V)) == phi(x)


def test_lift_preserves_counit():
    rng = random.Random(23)
    V, W = BaseSp("A", 2), BaseSp("B", 3)
    phi = _rand_linear_phi(rng, W, V)
    for _ in range(15):
        x = _rand_elem(rng, W)
        assert counit(lift(phi, x, out_space=V)) == counit(x)


def test_lift_is_a_coalgebra_morphism():
    rng = random.Random(29)
    V, W = BaseSp("A", 2), BaseSp("B", 2)
    phi = _rand_linear_phi(rng, W, V)
    for _ in range(10):
        x = _rand_elem(rng, W)
        lhs = coproduct(lift(phi, x, out_space=V))
        acc = {}
        for (kl, kr), c in coproduct(x).terms:
            fl = lift(phi, _pure(W, kl), out_space=V)
            fr = lift(phi, _pure(W, kr), out_space=V)
            for key, c2 in _tensor2(fl, fr).terms:
                acc[key] = acc.get(key, Fraction(0)) + c * c2
        assert lhs == tensor_from_terms(lhs.factors, acc)


def test_grouplike_kets_by_hand():
    # x = P + t0·a + t1·b + t0t1·c: its t0t1 coefficient sums the two set
    # partitions of {t0, t1} whose blocks are monomials of x
    V = BaseSp("A", 2)
    P, a, b, c = (1, 2), (1, 0), (0, 1), (3, 5)
    x = ((0, P), (1, a), (2, b), (3, c))
    one, t1 = ((0, (1,)),), ((2, (2,)),)
    base = vect(V, P)
    want = bang_add(ket(base, [vect(V, a), vect(V, b)]), ket(base, [vect(V, c)]))
    assert grouplike_kets(V, [(x, one)], 3) == want
    # a coefficient takes its variables out of the partitions
    assert grouplike_kets(V, [(x, t1)], 3) == bang_scale(2, ket(base, [vect(V, a)]))
    # a coefficient with a variable outside the monomial adds nothing
    assert grouplike_kets(V, [(x, t1)], 1) == zero_bang(V)
    # the point's constant term is the base point, zero when absent
    assert grouplike_kets(V, [(((1, a),), one)], 0) == vacuum(zero_vec(V))


def test_lift_on_vacuum_and_singleton_by_hand():
    V, W = BaseSp("A", 2), BaseSp("B", 1)
    P = vect(W, [2])

    def phi(x: BangElem):
        # vacuum ↦ (1, 0), one-argument kets ↦ coords (0, sum), rest ↦ 0
        out = zero_vec(V)
        for (_, args), c in x.terms:
            if not args:
                out = vec_add(out, vec_scale(c, vect(V, [1, 0])))
            elif len(args) == 1:
                out = vec_add(out, vec_scale(c, vect(V, [0, 1])))
        return out

    Q = vect(V, [1, 0])
    assert lift(phi, vacuum(P), out_space=V) == vacuum(Q)
    # one argument: the only partition is the single block
    assert lift(phi, ket(P, [vect(W, [1])]), out_space=V) == ket(Q, [vect(V, [0, 1])])
    # two arguments: {12}, {1|2} → |φ|ν₁ν₂⟩⟩ + |φν₁, φν₂⟩, first image is 0 here
    two = lift(phi, ket(P, [vect(W, [1]), vect(W, [1])]), out_space=V)
    assert two == ket(Q, [vect(V, [0, 1]), vect(V, [0, 1])])


def test_lift_calls_phi_once_per_distinct_block():
    rng = random.Random(31)
    V, W = BaseSp("A", 2), BaseSp("B", 4)
    inner = _rand_linear_phi(rng, W, V)
    seen = []

    def phi(x: BangElem):
        seen.append(x)
        return inner(x)

    P = _rand_vec(rng, W)
    x = BangElem(W, (((P.coords, (0, 1, 2, 3)), Fraction(1)),))
    out = lift(phi, x, out_space=V)
    # 15 non-empty sub-multisets of four distinct arguments, plus the vacuum
    assert len(seen) == 16 and len(set(seen)) == 16
    # the set-partition sum over its 15 partitions, spelled out without
    # sharing any image
    acc = {}
    for blocks in set_partitions(4):
        Q = inner(_pure(W, (P.coords, ())))
        images = [inner(_pure(W, (P.coords, block))) for block in blocks]
        for key, c in ket(Q, images).terms:
            acc[key] = acc.get(key, Fraction(0)) + c
    assert out == bang_from_terms(V, acc)
    # a repeated argument has fewer distinct blocks: {0}, {1}, {2}, {0,0},
    # {0,1}, {0,2}, {1,2}, {0,0,1}, {0,0,2}, {0,1,2}, {0,0,1,2}, vacuum
    seen.clear()
    lift(phi, BangElem(W, (((P.coords, (0, 0, 1, 2)), Fraction(1)),)), out_space=V)
    assert len(seen) == 12


# ---------------------------------------------------------------------------
# Merge / split


def _has_float(x: BangElem) -> bool:
    return any(
        isinstance(v, float) for (base, _), c in x.terms for v in (*base, c)
    )


# Pure kets over g = 0..3 factors of dimension 1..3: int or Fraction
# base points, sorted arguments, an int coefficient on the first factor.
_factor_dims = st.lists(st.integers(1, 3), max_size=3)
_ket_coeffs = st.integers(-4, 4).filter(bool)


@st.composite
def _factor_kets(draw, dims) -> tuple[BangElem, ...]:
    out = []
    for i, d in enumerate(dims):
        base = tuple(draw(st.lists(_rationals, min_size=d, max_size=d)))
        args = tuple(sorted(draw(st.lists(st.integers(0, d - 1), max_size=3))))
        c = draw(_ket_coeffs) if i == 0 else 1
        out.append(BangElem(BaseSp(f"W{i}", d), (((base, args), c),)))
    return tuple(out)


@st.composite
def _sum_ket(draw, dims) -> BangElem:
    total = sum(dims)
    base = tuple(draw(st.lists(_rationals, min_size=total, max_size=total)))
    args = tuple(sorted(draw(st.lists(st.integers(0, total - 1), max_size=4)))) if total else ()
    c = draw(_ket_coeffs) if dims else 1
    parts = tuple(BaseSp(f"W{i}", d) for i, d in enumerate(dims))
    return BangElem(SumSp(parts), (((base, args), c),))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_factor_dims.flatmap(lambda dims: st.tuples(_factor_kets(dims), _sum_ket(dims))))
def test_split_and_merge_are_inverse_on_one_ket(kets):
    xs, x = kets
    assert split(merge(xs)) == xs
    parts = split(x)
    assert merge(parts) == x
    assert not any(_has_float(p) for p in parts)


def test_split_of_single_term_puts_coefficient_on_first_factor():
    U, W = BaseSp("A", 1), BaseSp("B", 1)
    m = bang_scale(
        Fraction(6), merge([vacuum(vect(U, [1])), vacuum(vect(W, [2]))])
    )
    sx, sy = split(m)
    assert sx.terms[0][1] == Fraction(6)
    assert sy.terms[0][1] == Fraction(1)


def test_split_is_exact_for_int_and_fraction_coefficients():
    U, W = BaseSp("A", 1), BaseSp("B", 1)
    # one-term merges with an int or a Fraction coefficient: the second
    # factor's coefficient is 1, not 1.0, and the first keeps c exactly
    one = merge([vacuum(Vect(U, (1,))), vacuum(Vect(W, (2,)))])
    ((key, _),) = one.terms
    for c in (1, 6, Fraction(2, 3)):
        m = BangElem(one.space, ((key, c),))
        assert not _has_float(m)
        parts = split(m)
        assert not any(_has_float(p) for p in parts)
        assert [p.terms[0][1] for p in parts] == [c, 1]
        assert type(parts[0].terms[0][1]) is type(c)
        assert merge(parts) == m


def test_merge_of_nothing_is_the_empty_vacuum():
    m = merge([])
    assert m.space == SumSp(())
    assert m.terms == ((((), ()), Fraction(1)),)


def test_merge_shifts_argument_indices():
    U, W = BaseSp("A", 2), BaseSp("B", 2)
    x = ket(vect(U, [1, 0]), [basis_vec(U, 1)])
    y = ket(vect(W, [0, 2]), [basis_vec(W, 0)])
    m = merge([x, y])
    ((key, coeff),) = m.terms
    assert key == ((Fraction(1), Fraction(0), Fraction(0), Fraction(2)), (1, 2))
    assert coeff == 1


def test_split_rejects_entangled_sums():
    U, W = BaseSp("A", 1), BaseSp("B", 1)
    e0 = bang_add(
        merge([vacuum(vect(U, [1])), vacuum(vect(W, [2]))]),
        merge([vacuum(vect(U, [3])), vacuum(vect(W, [4]))]),
    )
    with pytest.raises(ValueError):
        split(e0)


def test_split_refuses_zero_and_non_sums():
    U, W = BaseSp("A", 1), BaseSp("B", 2)
    for x in (
        zero_bang(SumSp((U, W))),
        vacuum(vect(U, [1])),
        bang_scale(3, merge([])),
    ):
        with pytest.raises(ValueError):
            split(x)
    assert split(merge([])) == ()


def test_a_vector_of_the_wrong_length_counts_its_coordinates():
    for coords, count in (([1], "1 coordinate"), ([1, 2, 3], "3 coordinates")):
        with pytest.raises(ValueError, match=f"^{count} for a 2-dimensional space$"):
            vect(BaseSp("A", 2), coords)
