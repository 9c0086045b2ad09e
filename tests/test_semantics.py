"""Evaluation of proofs on explicit values, against hand matrix oracles."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linlog.coalgebra import (
    BangElem,
    BangSp,
    BaseSp,
    HomSp,
    SumSp,
    TensorSp,
    UnitSp,
    Vect,
    _sum_offsets,
    bang_add,
    bang_from_terms,
    bang_scale,
    basis_vec,
    dereliction,
    exact,
    ket,
    lift,
    merge,
    space_dim,
    tensor_from_terms,
    vacuum,
    zero_bang,
)
from linlog.encodings import add, add_cut, church, church_body, comp, mult, mult_cut, rec
from linlog.formula import INT, Bang, Forall, Lolli, One, Tensor, Var, endo, int_type
from linlog.proof import (
    Promotion,
    mk_axiom,
    mk_ctr,
    mk_cut,
    mk_der,
    mk_exchange,
    mk_lolli_l,
    mk_lolli_r,
    mk_one_l,
    mk_one_r,
    mk_prom,
    mk_tensor_l,
    mk_tensor_r,
    mk_weak,
)
from linlog.rewrite import normalize
from linlog.semantics import (
    BangVal,
    Matrix,
    Pair,
    Scalar,
    SemanticsError,
    Suspended,
    UnsupportedSpace,
    Vector,
    ZeroMap,
    _acc,
    _asg_key,
    _flat,
    _plan,
    _zero,
    apply_hom,
    den_apply,
    den_formula,
    den_matrix,
    flatten,
    force,
    matrix,
    nl,
    probe_equal,
    tangent,
    value_literal,
    values_agree,
)

A = Var("A")
ASG = {"A": 2}
E_SPACE = HomSp(BaseSp("A", 2), BaseSp("A", 2))


def _matmul(a, b):
    """Independent exact matrix product oracle."""
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _ket_coefficient(k, alpha, nus):
    """Independent oracle for a numeral on a ket: the coefficient of
    t₁…t_s in (α + Σ tᵢνᵢ)^k, expanded word by word with every tᵢ used
    at most once (the key is the set of t's used so far)."""
    n = len(alpha)
    zero = [[Fraction(0)] * n for _ in range(n)]
    poly = {0: [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]}
    for _ in range(k):
        nxt = {}
        for used, m in poly.items():
            nxt[used] = _mat_add(nxt.get(used, zero), _matmul(m, alpha))
            for i, nu in enumerate(nus):
                if not used >> i & 1:
                    key = used | 1 << i
                    nxt[key] = _mat_add(nxt.get(key, zero), _matmul(m, nu))
        poly = nxt
    return poly.get((1 << len(nus)) - 1, zero)


def _unit_matrix(n, flat_index):
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[flat_index // n][flat_index % n] = Fraction(1)
    return rows


def _ket_table(p, base, arg_sets, asg=ASG):
    """⟦p⟧ of a closed numeral on |e_args⟩_base for each argument multiset."""
    h = den_apply(p, Scalar(Fraction(1)), asg)
    space = den_formula(p.conclusion.conclusion.cons, asg)
    out = []
    for args in arg_sets:
        x = BangElem(space, (((base, tuple(args)), Fraction(1)),))
        out.append(force(apply_hom(h, BangVal(x)), space).rows)
    return out


def _rand_mat(rng, n=2):
    return [[Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)] for _ in range(n)]


def _mat_value(rows):
    return matrix(E_SPACE, rows)


def _as_rows(v):
    m = force(v, E_SPACE)
    assert isinstance(m, Matrix)
    return [list(r) for r in m.rows]


def _mat_vect(rows):
    return Vect(E_SPACE, tuple(c for row in rows for c in row))


# ---------------------------------------------------------------------------
# Spaces


def test_den_formula_shapes():
    assert den_formula(int_type(A), ASG) == HomSp(
        BangSp(E_SPACE), E_SPACE
    )
    assert den_formula(One(), {}) == UnitSp()
    sp = den_formula(Tensor(Var("B"), Var("B")), {"B": 3})
    assert sp == TensorSp(BaseSp("B", 3), BaseSp("B", 3))
    assert space_dim(sp) == 9


def test_den_formula_requires_assignment_and_first_order():
    with pytest.raises(SemanticsError):
        den_formula(Var("Z"), {})
    from linlog.formula import Forall

    with pytest.raises(UnsupportedSpace):
        den_formula(Forall("x", Var("x")), {})


def test_den_formula_reads_left_to_right_and_not_under_a_binder():
    with pytest.raises(SemanticsError, match="no dimension assigned to variable x") as err:
        den_formula(Tensor(Var("x"), INT), {})
    assert type(err.value) is SemanticsError
    with pytest.raises(UnsupportedSpace):  # not the unassigned y
        den_formula(Forall("x", Var("y")), {})


# ---------------------------------------------------------------------------
# Plain structural rules as matrices


def test_axiom_is_the_identity_matrix():
    assert den_matrix(mk_axiom(A), ASG) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def test_exchange_is_the_swap_of_tensor_factors():
    B = Var("B")
    p = mk_exchange(mk_tensor_r(mk_axiom(B), mk_axiom(A)), 0)
    got = den_matrix(p, {"A": 2, "B": 2})
    # oracle: e_i ⊗ e_j ↦ column at flat index i*2+j must be e_j ⊗ e_i
    expected = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            expected[j * 2 + i][i * 2 + j] = Fraction(1)
    assert got == expected


def test_composition_at_dimension_one_is_multiplication():
    assert den_matrix(comp(A), {"A": 1}) == [[Fraction(1)]]


def test_units_scale_and_unit_proof_is_one():
    p = mk_one_l(mk_axiom(A), 0)
    got = den_apply(p, Pair(tensor_from_terms(
        (UnitSp(), BaseSp("A", 2)),
        {(0, 1): Fraction(3)},
    )), ASG)
    assert force(got, BaseSp("A", 2)) == Vector(Vect(BaseSp("A", 2), (Fraction(0), Fraction(3))))
    assert den_apply(mk_one_r(), Scalar(Fraction(2)), ASG) == Scalar(Fraction(2))


def test_tensor_left_then_right_is_identity():
    B = Var("B")
    asg = {"A": 2, "B": 2}
    p = mk_tensor_l(mk_tensor_r(mk_axiom(A), mk_axiom(B)), 0)
    n = 4
    assert den_matrix(p, asg) == [
        [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)
    ]


# ---------------------------------------------------------------------------
# The numeral body on kets


def test_two_body_on_vacuum_is_the_square():
    alpha = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    got = den_apply(church_body(2, A), BangVal(vacuum(_mat_vect(alpha))), ASG)
    assert _as_rows(got) == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    assert _as_rows(got) == _matmul(alpha, alpha)


def test_two_body_ket_table_on_random_triples():
    rng = random.Random(5)
    for _ in range(8):
        al, nu, mu = (_rand_mat(rng) for _ in range(3))
        base = _mat_vect(al)
        body = church_body(2, A)
        assert _as_rows(den_apply(body, BangVal(vacuum(base)), ASG)) == _matmul(al, al)
        one = den_apply(body, BangVal(ket(base, [_mat_vect(nu)])), ASG)
        assert _as_rows(one) == [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(_matmul(nu, al), _matmul(al, nu))
        ]
        two = den_apply(body, BangVal(ket(base, [_mat_vect(nu), _mat_vect(mu)])), ASG)
        assert _as_rows(two) == [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(_matmul(nu, mu), _matmul(mu, nu))
        ]


def test_two_separate_bangs_compose_one_use_each():
    e = endo(A)
    p = mk_der(mk_der(comp(A), 1), 0)  # !E, !E ⊢ E
    rng = random.Random(9)
    al, mu = _rand_mat(rng), _rand_mat(rng)
    va, vm = _mat_vect(al), _mat_vect(mu)
    spaces = (BangSp(E_SPACE), BangSp(E_SPACE))

    def pair_of(x, y):
        acc = {}
        for kx, cx in x.terms:
            for ky, cy in y.terms:
                acc[(kx, ky)] = acc.get((kx, ky), Fraction(0)) + cx * cy
        return Pair(tensor_from_terms(spaces, acc))

    got = den_apply(p, pair_of(vacuum(va), ket(vm, [vm])), ASG)
    assert _as_rows(got) == _matmul(mu, al)
    # s, t > 1 dies under dereliction
    long = den_apply(p, pair_of(ket(va, [va, va]), ket(vm, [vm])), ASG)
    assert _as_rows(long) == [[Fraction(0)] * 2 for _ in range(2)]


# ---------------------------------------------------------------------------
# Promotion, linearity, cut


def test_dereliction_cancels_promotion():
    rng = random.Random(13)
    boxed = mk_prom(church_body(2, A))
    for _ in range(6):
        base = _mat_vect(_rand_mat(rng))
        x = ket(base, [_mat_vect(_rand_mat(rng))])
        out = den_apply(boxed, BangVal(x), ASG)
        assert isinstance(out, BangVal)
        inner = den_apply(church_body(2, A), BangVal(x), ASG)
        assert dereliction(out.elem) == Vect(E_SPACE, flatten(inner, E_SPACE))


def test_a_contracted_box_scales_and_adds_elements_of_the_bang_space():
    # !A ⊢ !(A⊗A): contraction sums the box over the coproduct's terms,
    # so the evaluator scales and adds elements of !(A⊗A)
    p = mk_ctr(mk_prom(mk_tensor_r(mk_der(mk_axiom(A), 0), mk_der(mk_axiom(A), 0))), 0)
    a, aa = BaseSp("A", 2), TensorSp(BaseSp("A", 2), BaseSp("A", 2))

    def pair(u, v):
        return tuple(x * y for x in u for y in v)

    base, nu = (Fraction(1, 2), Fraction(3)), (Fraction(-1), Fraction(2, 3))
    got = den_apply(p, BangVal(bang_scale(2, ket(Vect(a, base), [Vect(a, nu)]))), ASG)
    sym = tuple(x + y for x, y in zip(pair(nu, base), pair(base, nu)))
    assert got == BangVal(bang_scale(2, ket(Vect(aa, pair(base, base)), [Vect(aa, sym)])))
    got = den_apply(p, BangVal(vacuum(Vect(a, base))), ASG)
    assert got == BangVal(vacuum(Vect(aa, pair(base, base))))


def test_den_apply_is_linear_in_the_input():
    rng = random.Random(17)
    body = church_body(3, A)
    for _ in range(5):
        x = ket(_mat_vect(_rand_mat(rng)), [_mat_vect(_rand_mat(rng))])
        y = ket(_mat_vect(_rand_mat(rng)), [])
        a, b = Fraction(2), Fraction(-1, 2)
        mixed = bang_add(bang_scale(a, x), bang_scale(b, y))
        lhs = _as_rows(den_apply(body, BangVal(mixed), ASG))
        rx = _as_rows(den_apply(body, BangVal(x), ASG))
        ry = _as_rows(den_apply(body, BangVal(y), ASG))
        assert lhs == [
            [a * p + b * q for p, q in zip(rp, rq)] for rp, rq in zip(rx, ry)
        ]


def test_cut_composes_denotations():
    # comp cut into the first hom slot of an application chain
    e = endo(A)
    ll1 = mk_lolli_l(mk_axiom(A), mk_axiom(A), 0)  # A, E ⊢ A
    p = mk_cut(comp(A), ll1, 1)  # A, E, E ⊢ A
    asg = ASG
    spaces = (BaseSp("A", 2), E_SPACE, E_SPACE)
    dims = [2, 4, 4]
    import itertools

    for combo in itertools.product(*[range(d) for d in dims]):
        inp = Pair(tensor_from_terms(tuple(spaces), {combo: Fraction(1)}))
        got = den_apply(p, inp, asg)
        # oracle: α then β applied to the vector, i.e. (β∘α)(v)
        v = [Fraction(1 if i == combo[0] else 0) for i in range(2)]
        al = [[Fraction(0)] * 2 for _ in range(2)]
        al[combo[1] // 2][combo[1] % 2] = Fraction(1)
        be = [[Fraction(0)] * 2 for _ in range(2)]
        be[combo[2] // 2][combo[2] % 2] = Fraction(1)
        prod = _matmul(be, al)
        want = [sum((prod[i][j] * v[j] for j in range(2)), Fraction(0)) for i in range(2)]
        assert force(got, BaseSp("A", 2)) == Vector(Vect(BaseSp("A", 2), tuple(want)))


# ---------------------------------------------------------------------------
# nl / tangent entry points


def test_nl_shapes_agree_for_body_and_curried_numeral():
    rng = random.Random(21)
    for _ in range(5):
        al = _rand_mat(rng)
        r1 = nl(church_body(2, A), _mat_value(al), ASG)
        r2 = nl(church(2, A), _mat_value(al), ASG)
        assert _as_rows(r1) == _as_rows(r2) == _matmul(al, al)


def test_nl_of_a_deep_numeral_is_the_matrix_power():
    # church(128) is the normal form of exp_cut(2, 7), about 390 rule
    # levels deep; its evaluation must not run out of recursion depth
    al = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1, 2)]]
    want = [[Fraction(1 if i == j else 0) for j in range(2)] for i in range(2)]
    for _ in range(128):
        want = _matmul(want, al)
    assert _as_rows(nl(church(128, A), _mat_value(al), ASG)) == want


def test_nl_rejects_other_shapes():
    with pytest.raises(SemanticsError):
        nl(mk_axiom(A), Scalar(Fraction(1)), ASG)


def test_float_inputs_are_refused_at_the_boundary():
    V = BaseSp("A", 2)
    base = _mat_vect([[1, 0.5], [0, 1]]).coords
    float_ket = BangVal(BangElem(E_SPACE, (((base, ()), 1),)))
    float_coeff = Pair(tensor_from_terms((E_SPACE, E_SPACE), {(0, 1): 0.5}))
    calls = [
        lambda: den_apply(mk_axiom(A), Vector(Vect(V, (1.5, 2))), ASG),  # a coordinate
        lambda: den_apply(mk_axiom(Bang(endo(A))), float_ket, ASG),  # a ket's base point
        lambda: den_apply(mk_one_r(), Scalar(0.5), ASG),  # a Scalar input
        lambda: den_apply(comp(A), float_coeff, ASG),  # a Pair coefficient
        lambda: nl(church(2, A), [[1, 0.5], [0, 1]], ASG),  # a raw point
        lambda: nl(church(2, A), [1, 0.5, 0, 1], ASG),  # a flat raw point
        lambda: nl(mk_der(mk_axiom(A), 0), 1.5, {"A": 1}),  # a bare raw point
    ]
    for call in calls:
        with pytest.raises(SemanticsError, match="is not an exact rational"):
            call()


def test_tangent_of_identity_numeral_is_identity():
    rng = random.Random(23)
    al, nu = _rand_mat(rng), _rand_mat(rng)
    got = tangent(church_body(1, A), _mat_value(al), _mat_value(nu), ASG)
    assert _as_rows(got) == nu


def test_suspended_values_compare_by_probes():
    two = den_apply(church(2, A), Scalar(Fraction(1)), ASG)
    other = den_apply(church(2, A), Scalar(Fraction(1)), ASG)
    sp = den_formula(int_type(A), ASG)
    assert values_agree(two, other, sp)
    three = den_apply(church(3, A), Scalar(Fraction(1)), ASG)
    assert not values_agree(two, three, sp)
    assert probe_equal(church(2, A), church(2, A), ASG)
    assert not probe_equal(church(2, A), church(3, A), ASG)


# ---------------------------------------------------------------------------
# Errors and limits


def test_infinite_spaces_are_refused_honestly():
    with pytest.raises(UnsupportedSpace):
        den_matrix(church(2, A), ASG)
    with pytest.raises(UnsupportedSpace):
        den_apply(mk_prom(church(2, A)), Scalar(Fraction(1)), ASG)
    from linlog.encodings import church2

    with pytest.raises(UnsupportedSpace):
        den_apply(church2(2), Scalar(Fraction(1)), {"A": 2})


# ---------------------------------------------------------------------------
# Rendering


def test_value_literals_render_and_reparse():
    from linlog.sexpr import parse_value_literal

    assert value_literal(Scalar(Fraction(3, 2))) == "3/2"
    m = matrix(E_SPACE, [[1, 2], [0, 1]])
    assert value_literal(m) == "[[1/1,2/1],[0/1,1/1]]"
    lit = parse_value_literal(value_literal(m))
    assert lit.rows == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))
    v = BangVal(ket(Vect(BaseSp("A", 2), (Fraction(1), Fraction(0))), []))
    assert value_literal(v) == "ket([1/1,0/1])"


# ---------------------------------------------------------------------------
# The staged evaluator against independent oracles


def test_numerals_on_every_ket_of_depth_three_match_the_polynomial_oracle():
    rng = random.Random(41)
    arg_sets = [
        args for s in range(4) for args in itertools.combinations_with_replacement(range(4), s)
    ]
    assert len(arg_sets) == 35
    for _ in range(2):
        alpha = _rand_mat(rng)
        base = tuple(c for row in alpha for c in row)
        for k in range(9):
            got = _ket_table(church(k, A), base, arg_sets)
            for args, rows in zip(arg_sets, got):
                nus = [_unit_matrix(2, i) for i in args]
                assert [list(r) for r in rows] == _ket_coefficient(k, alpha, nus), (k, args)


def test_unnormalized_mult_cuts_agree_with_their_normal_forms():
    # promotion, and with it the set-partition sum of `lift`, runs only on
    # the unnormalized cut
    rng = random.Random(43)
    arg_sets = [(0, 1, 2), (1, 1, 3), (0, 1, 2, 3), (0, 2, 2, 3)]
    pairs = [(m, n) for m in range(7) for n in range(7) if m * n <= 6 and m + n <= 7]
    for m, n in pairs:
        cut = mult_cut(m, n, A)
        res = normalize(cut)
        assert not res.exhausted
        base = tuple(c for row in _rand_mat(rng) for c in row)
        assert _ket_table(cut, base, arg_sets) == _ket_table(res.proof, base, arg_sets), (m, n)


def test_comp_matrix_and_add_on_kets_match_the_matrix_oracle():
    for d in (1, 2):
        asg = {"A": d}
        cols = []
        for i in range(d * d):  # α, the first hypothesis, varies slowest
            for j in range(d * d):
                prod = _matmul(_unit_matrix(d, j), _unit_matrix(d, i))  # β ∘ α
                cols.append([c for row in prod for c in row])
        assert den_matrix(comp(A), asg) == [list(r) for r in zip(*cols)]
        # add lives in infinite spaces: no matrix, so it is checked on kets
        with pytest.raises(UnsupportedSpace):
            den_matrix(add(A), asg)
        rng = random.Random(47 + d)
        alpha = _rand_mat(rng, d)
        nu = _rand_mat(rng, d)
        base = tuple(c for row in alpha for c in row)
        for m, n in ((0, 2), (1, 1), (2, 3)):
            h = den_apply(add_cut(m, n, A), Scalar(Fraction(1)), asg)
            space = den_formula(int_type(A).cons, asg)
            for args in ((), (nu,)):
                flat = [Vect(space, tuple(c for row in v for c in row)) for v in args]
                x = ket(Vect(space, base), flat)
                got = force(apply_hom(h, BangVal(x)), space).rows
                assert [list(r) for r in got] == _ket_coefficient(m + n, alpha, list(args))


def test_suspended_values_remember_their_assignment():
    p = church(2, A)
    one = den_apply(p, Scalar(Fraction(1)), {"A": 1})
    two = den_apply(p, Scalar(Fraction(1)), {"A": 2})
    assert isinstance(one, Suspended) and isinstance(two, Suspended)
    assert one.node == two.node == p and one.env == two.env
    assert one != two
    assert one == den_apply(p, Scalar(Fraction(1)), {"A": 1})


def test_zero_in_an_infinite_hom_space_is_a_map_to_zero():
    e = endo(A)
    p = mk_der(mk_lolli_r(mk_weak(mk_axiom(e), 0, Bang(e))), 0)  # !E ⊢ !E ⊸ E
    P = _mat_vect([[1, 2], [3, 4]])
    units = [_mat_vect(_unit_matrix(2, i)) for i in range(2)]
    # dereliction kills a two-argument ket, so the result is the zero map
    h = den_apply(p, BangVal(ket(P, units)), ASG)
    got = apply_hom(h, BangVal(vacuum(P)))
    assert _as_rows(got) == [[Fraction(0)] * 2 for _ in range(2)]
    # one argument survives dereliction: the map sends the vacuum to e₀
    h1 = den_apply(p, BangVal(ket(P, units[:1])), ASG)
    assert _as_rows(apply_hom(h1, BangVal(vacuum(P)))) == _unit_matrix(2, 0)
    assert values_agree(h, den_apply(p, BangVal(bang_scale(Fraction(0), vacuum(P))), ASG),
                        den_formula(Lolli(Bang(e), e), ASG))


# ---------------------------------------------------------------------------
# Non-integral rationals.  Every benchmark input is integral, so only these
# tests reach the evaluator's Fraction path; entries are drawn as ints,
# integral Fractions and Fractions with denominators up to 7, mixed.

_rationals = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
)
_mats = st.lists(st.lists(_rationals, min_size=2, max_size=2), min_size=2, max_size=2)
_small_mults = [(m, n) for m in range(5) for n in range(5) if m * n <= 4]


def _rational_ket_value(p, alpha, nus):
    """⟦p⟧ of a closed numeral on |ν₁…ν_s⟩_α, as rows."""
    h = den_apply(p, Scalar(Fraction(1)), ASG)
    x = ket(_mat_vect(alpha), [_mat_vect(nu) for nu in nus])
    return [list(r) for r in force(apply_hom(h, BangVal(x)), E_SPACE).rows]


@functools.cache
def _mult_normal_form(m, n):
    res = normalize(mult_cut(m, n, A))
    assert not res.exhausted
    return res.proof


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 6), _mats, st.lists(_mats, max_size=3))
def test_numerals_on_rational_kets_match_the_polynomial_oracle(k, alpha, nus):
    assert _rational_ket_value(church(k, A), alpha, nus) == _ket_coefficient(k, alpha, nus)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.sampled_from(_small_mults), _mats, st.lists(_mats, max_size=3))
def test_unnormalized_mult_cuts_agree_with_their_normal_forms_on_rational_kets(mn, alpha, nus):
    cut, normal = mult_cut(*mn, A), _mult_normal_form(*mn)
    assert _rational_ket_value(cut, alpha, nus) == _rational_ket_value(normal, alpha, nus)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 6), _mats, _mats)
def test_nl_and_tangent_at_rational_points_match_matrix_powers(k, alpha, nu):
    powers = [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]]
    for _ in range(k):
        powers.append(_matmul(powers[-1], alpha))
    assert _as_rows(nl(church_body(k, A), alpha, ASG)) == powers[k]
    # d/dt (α + tν)^k at t = 0 is the sum of α^i ν α^(k−1−i)
    slope = [[Fraction(0)] * 2 for _ in range(2)]
    for i in range(k):
        slope = _mat_add(slope, _matmul(_matmul(powers[i], nu), powers[k - 1 - i]))
    assert _as_rows(tangent(church(k, A), alpha, nu, ASG)) == slope


def _numbers(v):
    """Every number a public value holds: its coordinates, or the base
    points and coefficients of its kets."""
    if isinstance(v, Scalar):
        return [v.value]
    if isinstance(v, Vector):
        return list(v.vec.coords)
    if isinstance(v, Matrix):
        return [c for row in v.rows for c in row]
    if isinstance(v, BangVal):
        return [n for (base, _), c in v.elem.terms for n in (*base, c)]
    return [n for item in v for n in (_numbers(item) if isinstance(item, list) else [item])]


@pytest.mark.parametrize("num", [int, Fraction])
def test_public_outputs_hold_only_fractions(num):
    V = BaseSp("A", 2)
    P = [[num(1), num(2)], [num(0), num(3)]]
    nu = [[num(0), num(1)], [num(-2), num(0)]]
    x = BangVal(ket(_mat_vect(P), [_mat_vect(nu)]))
    m = Matrix(E_SPACE, ((num(1), num(2)), (num(3), num(4))))
    h = den_apply(church(2, A), Scalar(num(1)), ASG)
    pair = Pair(tensor_from_terms((E_SPACE, E_SPACE), {(0, 1): num(3), (2, 2): num(1)}))
    outputs = [
        den_apply(mk_one_r(), Scalar(num(2)), ASG),
        den_apply(mk_axiom(A), Vector(Vect(V, (num(1), num(2)))), ASG),
        den_apply(mk_axiom(Bang(endo(A))), x, ASG),
        den_apply(mk_prom(church_body(2, A)), x, ASG),
        den_apply(comp(A), pair, ASG),
        apply_hom(h, x),
        apply_hom(m, Vector(Vect(V, (num(1), num(-1))))),
        force(m, E_SPACE),
        force(den_apply(mk_lolli_r(mk_axiom(A)), Scalar(num(1)), ASG), E_SPACE),
        force(x, BangSp(E_SPACE)),
        flatten(m, E_SPACE),
        den_matrix(comp(A), ASG),
        nl(church(2, A), [[num(1), num(2)], [num(0), num(1)]], ASG),
        tangent(church(3, A), P, Matrix(E_SPACE, tuple(map(tuple, nu))), ASG),
    ]
    assert {type(v).__name__ for v in outputs[:10]} == {"Scalar", "Vector", "BangVal", "Matrix"}
    for out in outputs:
        numbers = _numbers(out)
        assert numbers and all(type(c) is Fraction for c in numbers), out


# ---------------------------------------------------------------------------
# Branches only unusual inputs reach: a zero ket, weakening a one-argument
# ket into an infinite hom space, a hom given as a Vector


def _idle_copy():
    """(ctr 0 (weak 1 !A (ax !A))): the identity on !A, by way of the
    coproduct and a counit."""
    return mk_ctr(mk_weak(mk_axiom(Bang(A)), 1, Bang(A)), 0)


def test_a_copy_and_drop_is_the_identity_and_keeps_the_zero_ket():
    V = BaseSp("A", 2)
    x = ket(Vect(V, (Fraction(1, 2), 3)), [basis_vec(V, 0)])
    assert den_apply(_idle_copy(), BangVal(x), ASG) == BangVal(x)
    zero = den_apply(_idle_copy(), BangVal(zero_bang(V)), ASG)
    assert zero == BangVal(zero_bang(V))
    assert value_literal(zero) == "0/1"
    # different conclusions are never probe-equal
    assert not probe_equal(_idle_copy(), church(1, A), ASG)


def test_weakening_a_one_argument_ket_into_a_hom_is_the_zero_map():
    # !A ⊢ int_A: the counit of a one-argument ket is 0, and int_A has no
    # matrix, so that term is a ZeroMap; den_apply scales it and adds it
    p = mk_weak(church(2, A), 0, Bang(A))
    V = BangSp(BaseSp("A", 2))
    space = den_formula(int_type(A), ASG)
    two = den_apply(church(2, A), Scalar(Fraction(1)), ASG)

    def on(terms):
        return den_apply(p, Pair(tensor_from_terms((V,), terms)), ASG)

    only = on({(((1, 2), (0,)),): 3})
    assert isinstance(only, ZeroMap) and only.space == space
    P = _mat_vect([[1, 0], [2, 1]])
    assert _as_rows(apply_hom(only, BangVal(vacuum(P)))) == [[0, 0], [0, 0]]
    # the ZeroMap term first, then the vacuum's numeral; and the reverse
    first = on({(((0, 0), (0,)),): 2, (((1, 1), ()),): 1})
    last = on({(((1, 1), ()),): 1, (((1, 1), (1,)),): 3})
    for got in (first, last):
        assert isinstance(got, Suspended)
        assert values_agree(got, two, space)


def test_a_hom_given_as_a_vector_applies_as_its_matrix():
    V = BaseSp("A", 2)
    arg = Vector(Vect(V, (1, Fraction(-1, 2))))
    as_vector = apply_hom(Vector(Vect(E_SPACE, (1, 2, 3, 4))), arg)
    assert as_vector == apply_hom(matrix(E_SPACE, [[1, 2], [3, 4]]), arg)
    assert as_vector == Vector(Vect(V, (Fraction(0), Fraction(1))))


def test_value_literals_of_vectors_and_kets_with_arguments():
    V = BaseSp("A", 2)
    assert value_literal(Vector(Vect(V, (Fraction(1, 2), Fraction(-3))))) == "[1/2,-3/1]"
    P = Vect(V, (Fraction(1), Fraction(0)))
    x = bang_add(ket(P, [basis_vec(V, 1)]), bang_scale(Fraction(2, 3), ket(P, [P, P])))
    assert value_literal(BangVal(x)) == (
        "2/3 * ket([1/1,0/1]; [1/1,0/1], [1/1,0/1]) + ket([1/1,0/1]; [0/1,1/1])"
    )


# ---------------------------------------------------------------------------
# Promotion boxes against the reference φ.  The box's φ once summed the
# body over every term of its argument and cut each term apart with a
# general `split`, which factored sums over a direct sum up to a scalar
# gauge and checked itself with a second `merge`.  `lift` hands φ one
# pure ket, so φ is now one expression over a `split` that only slices;
# the old φ and split are kept here as the reference.


def _ref_split_key(key, offsets):
    base, args = key
    return tuple(
        (base[lo:hi], tuple(j - lo for j in args if lo <= j < hi))
        for lo, hi in zip(offsets, offsets[1:])
    )


def _ref_split(x):
    if not isinstance(x.space, SumSp):
        raise ValueError("split expects an element over a direct sum")
    parts = x.space.parts
    g = len(parts)
    if g == 0:
        return ()
    if not x.terms:
        return tuple(zero_bang(p) for p in parts)
    offsets = _sum_offsets(parts)
    terms = {key: (_ref_split_key(key, offsets), c) for key, c in x.terms}
    pivot_parts, c_pivot = terms[min(terms)]
    factors = []
    for i in range(g):
        fi = {}
        for kp, c in terms.values():
            if all(kp[j] == pivot_parts[j] for j in range(g) if j != i):
                fi[kp[i]] = c if i == 0 else exact(Fraction(c, c_pivot))
        factors.append(fi)
    candidates = tuple(bang_from_terms(parts[i], factors[i]) for i in range(g))
    if merge(candidates) != x:
        raise ValueError("element is not a tensor product of per-factor elements")
    return candidates


def _ref_box(box, env, asg):
    """⟦box⟧ on a context tuple of kets, with the reference φ."""
    body = _plan(box.premises[0], _asg_key(asg))
    inner = den_formula(box.conclusion.conclusion.body, asg)

    def phi(x):
        out = None
        for key, c in x.terms:
            out = _acc(out, c, body(_ref_split(BangElem(x.space, ((key, 1),)))), lambda: inner)
        return Vect(inner, _zero(inner) if out is None else _flat(out, inner))

    return lift(phi, merge(env), out_space=inner)


def _depth_two_kets(space):
    """Every ket of at most two basis arguments, at one base point that
    mixes ints and Fractions."""
    d = space_dim(space)
    base = (Fraction(1, 2), -2, 3, Fraction(-5, 3))[:d]
    return [
        BangElem(space, (((base, args), 1),))
        for s in range(3)
        for args in itertools.combinations_with_replacement(range(d), s)
    ]


def _boxes_with_g_context_formulas():
    e = endo(A)
    B, C = Var("B"), Var("C")
    closed = rec(mk_lolli_r(mk_axiom(A)), mk_lolli_r(mk_axiom(e)), e).premises[0]
    numeral = mult(2, A).premises[0].premises[0]
    wide = mk_prom(mk_tensor_r(mk_der(mk_axiom(A), 0), mk_der(mk_axiom(B), 0)))
    three = mk_prom(
        mk_tensor_r(
            mk_tensor_r(mk_der(mk_axiom(A), 0), mk_der(mk_axiom(B), 0)),
            mk_der(mk_axiom(C), 0),
        )
    )
    return [
        (closed, ASG),
        (numeral, ASG),
        (wide, {"A": 2, "B": 2}),
        (three, {"A": 2, "B": 1, "C": 1}),
    ]


def test_boxes_with_zero_to_three_context_formulas_match_the_reference_phi():
    boxes = _boxes_with_g_context_formulas()
    assert [len(box.conclusion.context) for box, _ in boxes] == [0, 1, 2, 3]
    for box, asg in boxes:
        assert type(box.rule) is Promotion
        spaces = [den_formula(f.body, asg) for f in box.conclusion.context]
        plan = _plan(box, _asg_key(asg))
        for env in itertools.product(*map(_depth_two_kets, spaces)):
            assert plan(env) == _ref_box(box, env, asg), (box.conclusion, env)


def test_a_value_of_the_wrong_dimension_counts_its_coordinates():
    two = Vector(Vect(BaseSp("A", 2), (Fraction(1), Fraction(0))))
    for value, count in ((Scalar(Fraction(1)), "1 coordinate"), (two, "2 coordinates")):
        message = f"^value has {count} but Hom\\(A, A\\) has dimension 4$"
        with pytest.raises(SemanticsError, match=message):
            flatten(value, E_SPACE)
