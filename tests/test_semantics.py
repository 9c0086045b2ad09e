"""Evaluation of proofs on explicit values, against hand matrix oracles."""

from __future__ import annotations

import functools
import gc
import itertools
import random
import sys
from dataclasses import dataclass
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
    TensorElem,
    Vect,
    _sum_offsets,
    bang_add,
    bang_from_terms,
    bang_scale,
    basis_vec,
    coproduct,
    dereliction,
    exact,
    is_finite,
    ket,
    lift,
    merge,
    space_dim,
    tensor_from_terms,
    vacuum,
    zero_bang,
)
from linlog.encodings import (
    add,
    add_cut,
    church,
    church_body,
    comp,
    library,
    mult,
    mult_cut,
    plain_body,
    rec,
)
from linlog.formula import INT, Bang, Forall, Lolli, One, Sequent, Tensor, Var, endo, int_type
from linlog.proof import (
    LolliR,
    Proof,
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
    validate,
)
from linlog.rewrite import normalize
from linlog.sexpr import parse_proof

import _semref
from linlog.semantics import (
    BangJet,
    Closure,
    Scalar,
    _asg_key,
    SemanticsError,
    Suspended,
    UnsupportedSpace,
    _bang_in,
    _call,
    _entries,
    _eval,
    _materialize,
    _support,
    _shifted,
    _collect,
    _matrix_times,
    _tensor,
    _times,
    _total,
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
        out.append(force(apply_hom(h, x), space).rows)
    return out


def _rand_mat(rng, n=2):
    return [[Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)] for _ in range(n)]


def _mat_value(rows):
    return matrix(E_SPACE, rows)


def _as_rows(v):
    m = force(v, E_SPACE)
    assert type(m) is Vect and isinstance(m.space, HomSp)
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
    got = den_apply(p, tensor_from_terms(
        (UnitSp(), BaseSp("A", 2)),
        {(0, 1): Fraction(3)},
    ), ASG)
    assert force(got, BaseSp("A", 2)) == Vect(BaseSp("A", 2), (Fraction(0), Fraction(3)))
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
    got = den_apply(church_body(2, A), vacuum(_mat_vect(alpha)), ASG)
    assert _as_rows(got) == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    assert _as_rows(got) == _matmul(alpha, alpha)


def test_two_body_ket_table_on_random_triples():
    rng = random.Random(5)
    for _ in range(8):
        al, nu, mu = (_rand_mat(rng) for _ in range(3))
        base = _mat_vect(al)
        body = church_body(2, A)
        assert _as_rows(den_apply(body, vacuum(base), ASG)) == _matmul(al, al)
        one = den_apply(body, ket(base, [_mat_vect(nu)]), ASG)
        assert _as_rows(one) == [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(_matmul(nu, al), _matmul(al, nu))
        ]
        two = den_apply(body, ket(base, [_mat_vect(nu), _mat_vect(mu)]), ASG)
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
        return tensor_from_terms(spaces, acc)

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
        out = den_apply(boxed, x, ASG)
        assert type(out) is BangElem
        inner = den_apply(church_body(2, A), x, ASG)
        assert dereliction(out) == Vect(E_SPACE, flatten(inner, E_SPACE))


def test_a_contracted_box_scales_and_adds_elements_of_the_bang_space():
    # !A ⊢ !(A⊗A): contraction sums the box over the coproduct's terms,
    # so the evaluator scales and adds elements of !(A⊗A)
    p = mk_ctr(mk_prom(mk_tensor_r(mk_der(mk_axiom(A), 0), mk_der(mk_axiom(A), 0))), 0)
    a, aa = BaseSp("A", 2), TensorSp(BaseSp("A", 2), BaseSp("A", 2))

    def pair(u, v):
        return tuple(x * y for x in u for y in v)

    base, nu = (Fraction(1, 2), Fraction(3)), (Fraction(-1), Fraction(2, 3))
    got = den_apply(p, bang_scale(2, ket(Vect(a, base), [Vect(a, nu)])), ASG)
    sym = tuple(x + y for x, y in zip(pair(nu, base), pair(base, nu)))
    assert got == bang_scale(2, ket(Vect(aa, pair(base, base)), [Vect(aa, sym)]))
    got = den_apply(p, vacuum(Vect(a, base)), ASG)
    assert got == vacuum(Vect(aa, pair(base, base)))


def test_den_apply_is_linear_in_the_input():
    rng = random.Random(17)
    body = church_body(3, A)
    for _ in range(5):
        x = ket(_mat_vect(_rand_mat(rng)), [_mat_vect(_rand_mat(rng))])
        y = ket(_mat_vect(_rand_mat(rng)), [])
        a, b = Fraction(2), Fraction(-1, 2)
        mixed = bang_add(bang_scale(a, x), bang_scale(b, y))
        lhs = _as_rows(den_apply(body, mixed, ASG))
        rx = _as_rows(den_apply(body, x, ASG))
        ry = _as_rows(den_apply(body, y, ASG))
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
        inp = tensor_from_terms(tuple(spaces), {combo: Fraction(1)})
        got = den_apply(p, inp, asg)
        # oracle: α then β applied to the vector, i.e. (β∘α)(v)
        v = [Fraction(1 if i == combo[0] else 0) for i in range(2)]
        al = [[Fraction(0)] * 2 for _ in range(2)]
        al[combo[1] // 2][combo[1] % 2] = Fraction(1)
        be = [[Fraction(0)] * 2 for _ in range(2)]
        be[combo[2] // 2][combo[2] % 2] = Fraction(1)
        prod = _matmul(be, al)
        want = [sum((prod[i][j] * v[j] for j in range(2)), Fraction(0)) for i in range(2)]
        assert force(got, BaseSp("A", 2)) == Vect(BaseSp("A", 2), tuple(want))


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


def test_nl_spends_one_frame_per_proof_node():
    # church(400) is about 800 rule levels deep: it evaluates under the
    # default recursion limit only while each node costs one Python frame
    assert sys.getrecursionlimit() <= 1000
    fib = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)]]
    want = [[Fraction(1 if i == j else 0) for j in range(2)] for i in range(2)]
    for _ in range(400):
        want = _matmul(want, fib)
    assert _as_rows(nl(church(400, A), _mat_value(fib), ASG)) == want


def test_nl_rejects_other_shapes():
    with pytest.raises(SemanticsError):
        nl(mk_axiom(A), Scalar(Fraction(1)), ASG)


def test_float_inputs_are_refused_at_the_boundary():
    V = BaseSp("A", 2)
    base = _mat_vect([[1, 0.5], [0, 1]]).coords
    float_ket = BangElem(E_SPACE, (((base, ()), 1),))
    float_coeff = tensor_from_terms((E_SPACE, E_SPACE), {(0, 1): 0.5})
    calls = [
        lambda: den_apply(mk_axiom(A), Vect(V, (1.5, 2)), ASG),  # a coordinate
        lambda: den_apply(mk_axiom(Bang(endo(A))), float_ket, ASG),  # a ket's base point
        lambda: den_apply(mk_one_r(), Scalar(0.5), ASG),  # a Scalar input
        lambda: den_apply(comp(A), float_coeff, ASG),  # a TensorElem coefficient
        lambda: nl(church(2, A), [[1, 0.5], [0, 1]], ASG),  # a raw point
        lambda: nl(church(2, A), [1, 0.5, 0, 1], ASG),  # a flat raw point
        lambda: nl(mk_der(mk_axiom(A), 0), 1.5, {"A": 1}),  # a bare raw point
    ]
    for call in calls:
        with pytest.raises(SemanticsError, match="is not an exact rational"):
            call()


def test_a_dimension_must_be_an_int_of_at_least_one():
    # a float dimension once made a float space that answered for the int
    # one, through the interned spaces and the formula's space memo
    Q = Var("Q")
    for dim in (2.0, True, 0, -1, Fraction(2)):
        for call in (
            lambda: den_formula(Q, {"Q": dim}),
            lambda: den_matrix(mk_axiom(Q), {"Q": dim, "A": 2}),
            lambda: den_apply(mk_axiom(A), Vect(BaseSp("A", 2), (1, 0)), {"A": 2, "Q": dim}),
            lambda: nl(church(2, A), [[1, 0], [0, 1]], {"A": dim}),
        ):
            with pytest.raises(SemanticsError, match="the dimension of [QA] must be an int >= 1"):
                call()
    assert den_formula(Q, {"Q": 2}) is BaseSp("Q", 2)
    assert den_matrix(mk_axiom(Q), {"Q": 2}) == [[1, 0], [0, 1]]


def test_den_matrix_takes_deep_spaces():
    # the spaces of deep formulas are walked on explicit stacks
    assert sys.getrecursionlimit() <= 1000
    tower, chain = A, A
    for _ in range(3000):
        tower, chain = Bang(tower), Tensor(chain, A)
    with pytest.raises(UnsupportedSpace, match="needs a finite space, got !!!"):
        den_matrix(mk_axiom(tower), {"A": 2})
    assert den_matrix(mk_axiom(chain), {"A": 1}) == [[1]]


def test_the_spaces_of_a_denoted_tower_go_with_it():
    # den_formula keeps a formula's space only while the formula lives,
    # and space_dim remembers dimensions without holding the spaces
    gc.collect()
    before = len(BangSp._live)
    tower = Var("only_in_this_tower")
    for _ in range(2000):
        tower = Bang(tower)
    space = den_formula(tower, {"only_in_this_tower": 2})
    assert space_dim(space) is None and space_dim(space.inner) is None
    assert len(BangSp._live) == before + 2000
    del tower, space
    gc.collect()
    assert len(BangSp._live) == before


def test_the_spaces_of_a_denoted_axiom_go_with_it():
    # the evaluator's basis and zero caches hold no space: the identity
    # rows are cached by dimension
    gc.collect()
    before = len(TensorSp._live)
    chain = Var("only_in_this_chain")
    for _ in range(3000):
        chain = Tensor(chain, Var("only_in_this_chain"))
    assert den_matrix(mk_axiom(chain), {"only_in_this_chain": 1}) == [[1]]
    assert len(TensorSp._live) == before + 3000
    del chain
    gc.collect()
    assert len(TensorSp._live) == before


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
    v = ket(Vect(BaseSp("A", 2), (Fraction(1), Fraction(0))), [])
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
    # promotion runs only on the unnormalized cut
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
                got = force(apply_hom(h, x), space).rows
                assert [list(r) for r in got] == _ket_coefficient(m + n, alpha, list(args))


def test_suspended_values_remember_their_assignment():
    p = church(2, A)
    one = den_apply(p, Scalar(Fraction(1)), {"A": 1})
    two = den_apply(p, Scalar(Fraction(1)), {"A": 2})
    assert isinstance(one, Suspended) and isinstance(two, Suspended)
    ((f1, c1),), ((f2, c2),) = one.terms, two.terms
    assert f1.node == f2.node == p and f1.env == f2.env and c1 == c2
    assert f1 != f2 and one != two
    assert one == den_apply(p, Scalar(Fraction(1)), {"A": 1})


def test_zero_in_an_infinite_hom_space_is_a_map_to_zero():
    e = endo(A)
    p = mk_der(mk_lolli_r(mk_weak(mk_axiom(e), 0, Bang(e))), 0)  # !E ⊢ !E ⊸ E
    P = _mat_vect([[1, 2], [3, 4]])
    units = [_mat_vect(_unit_matrix(2, i)) for i in range(2)]
    # dereliction kills a two-argument ket, so the result is the zero map
    h = den_apply(p, ket(P, units), ASG)
    got = apply_hom(h, vacuum(P))
    assert _as_rows(got) == [[Fraction(0)] * 2 for _ in range(2)]
    # one argument survives dereliction: the map sends the vacuum to e₀
    h1 = den_apply(p, ket(P, units[:1]), ASG)
    assert _as_rows(apply_hom(h1, vacuum(P))) == _unit_matrix(2, 0)
    assert values_agree(h, den_apply(p, bang_scale(Fraction(0), vacuum(P)), ASG),
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
    return [list(r) for r in force(apply_hom(h, x), E_SPACE).rows]


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
    if isinstance(v, Vect):
        return list(v.coords)
    if isinstance(v, BangElem):
        return [n for (base, _), c in v.terms for n in (*base, c)]
    return [n for item in v for n in (_numbers(item) if isinstance(item, list) else [item])]


@pytest.mark.parametrize("num", [int, Fraction])
def test_public_outputs_hold_only_fractions(num):
    V = BaseSp("A", 2)
    P = [[num(1), num(2)], [num(0), num(3)]]
    nu = [[num(0), num(1)], [num(-2), num(0)]]
    x = ket(_mat_vect(P), [_mat_vect(nu)])
    m = Vect(E_SPACE, (num(1), num(2), num(3), num(4)))
    h = den_apply(church(2, A), Scalar(num(1)), ASG)
    pair = tensor_from_terms((E_SPACE, E_SPACE), {(0, 1): num(3), (2, 2): num(1)})
    outputs = [
        den_apply(mk_one_r(), Scalar(num(2)), ASG),
        den_apply(mk_axiom(A), Vect(V, (num(1), num(2))), ASG),
        den_apply(mk_axiom(Bang(endo(A))), x, ASG),
        den_apply(mk_prom(church_body(2, A)), x, ASG),
        den_apply(comp(A), pair, ASG),
        apply_hom(h, x),
        apply_hom(m, Vect(V, (num(1), num(-1)))),
        force(m, E_SPACE),
        force(den_apply(mk_lolli_r(mk_axiom(A)), Scalar(num(1)), ASG), E_SPACE),
        force(x, BangSp(E_SPACE)),
        flatten(m, E_SPACE),
        den_matrix(comp(A), ASG),
        nl(church(2, A), [[num(1), num(2)], [num(0), num(1)]], ASG),
        tangent(church(3, A), P, _mat_vect(nu), ASG),
    ]
    assert {type(v).__name__ for v in outputs[:10]} == {"Vect", "BangElem"}
    for out in outputs:
        numbers = _numbers(out)
        assert numbers and all(type(c) is Fraction for c in numbers), out


# ---------------------------------------------------------------------------
# Branches only unusual inputs reach: a zero ket, weakening a one-argument
# ket into an infinite hom space, a hom given as a flat vector


def _idle_copy():
    """(ctr 0 (weak 1 !A (ax !A))): the identity on !A, by way of the
    coproduct and a counit."""
    return mk_ctr(mk_weak(mk_axiom(Bang(A)), 1, Bang(A)), 0)


def test_a_copy_and_drop_is_the_identity_and_keeps_the_zero_ket():
    V = BaseSp("A", 2)
    x = ket(Vect(V, (Fraction(1, 2), 3)), [basis_vec(V, 0)])
    assert den_apply(_idle_copy(), x, ASG) == x
    zero = den_apply(_idle_copy(), zero_bang(V), ASG)
    assert zero == zero_bang(V)
    assert value_literal(zero) == "0/1"
    # different conclusions are never probe-equal
    assert not probe_equal(_idle_copy(), church(1, A), ASG)


def test_weakening_a_one_argument_ket_into_a_hom_is_the_zero_map():
    # !A ⊢ int_A: the counit of a one-argument ket is 0, and int_A has no
    # matrix, so that term is the empty combination; den_apply scales it
    # and adds it
    p = mk_weak(church(2, A), 0, Bang(A))
    V = BangSp(BaseSp("A", 2))
    space = den_formula(int_type(A), ASG)
    two = den_apply(church(2, A), Scalar(Fraction(1)), ASG)

    def on(terms):
        return den_apply(p, tensor_from_terms((V,), terms), ASG)

    only = on({(((1, 2), (0,)),): 3})
    assert only == Suspended(space, ())
    P = _mat_vect([[1, 0], [2, 1]])
    assert _as_rows(apply_hom(only, vacuum(P))) == [[0, 0], [0, 0]]
    # the zero term first, then the vacuum's numeral; and the reverse
    first = on({(((0, 0), (0,)),): 2, (((1, 1), ()),): 1})
    last = on({(((1, 1), ()),): 1, (((1, 1), (1,)),): 3})
    for got in (first, last):
        assert isinstance(got, Suspended)
        assert values_agree(got, two, space)


def test_a_zero_term_adds_nothing_to_an_abstraction():
    # !E ⊢ !E ⊸ E derelicts before it abstracts, so a vacuum at 0 gives the
    # zero map, which adds nothing to the other term's closure, before or after
    e = endo(A)
    p = mk_der(mk_lolli_r(mk_weak(mk_axiom(e), 0, Bang(e))), 0)
    space = den_formula(int_type(A), ASG)
    origin = ((0, 0, 0, 0), ())
    for base in ((1, 2, 0, 1), (-1, 2, 0, 1)):  # sorted after the origin, then before
        alone = den_apply(p, vacuum(Vect(E_SPACE, base)), ASG)
        both = tensor_from_terms((BangSp(E_SPACE),), {(origin,): 1, ((base, ()),): 1})
        got = den_apply(p, both, ASG)
        assert isinstance(got, Suspended) and values_agree(got, alone, space)


def test_a_hom_given_as_a_vector_applies_as_its_matrix():
    V = BaseSp("A", 2)
    arg = Vect(V, (1, Fraction(-1, 2)))
    as_vector = apply_hom(Vect(E_SPACE, (1, 2, 3, 4)), arg)
    assert as_vector == apply_hom(matrix(E_SPACE, [[1, 2], [3, 4]]), arg)
    assert as_vector == Vect(V, (Fraction(0), Fraction(1)))


def test_value_literals_of_vectors_and_kets_with_arguments():
    V = BaseSp("A", 2)
    assert value_literal(Vect(V, (Fraction(1, 2), Fraction(-3)))) == "[1/2,-3/1]"
    P = Vect(V, (Fraction(1), Fraction(0)))
    x = bang_add(ket(P, [basis_vec(V, 1)]), bang_scale(Fraction(2, 3), ket(P, [P, P])))
    assert value_literal(x) == (
        "2/3 * ket([1/1,0/1]; [1/1,0/1], [1/1,0/1]) + ket([1/1,0/1]; [0/1,1/1])"
    )


# ---------------------------------------------------------------------------
# Promotion boxes against the reference φ.  A box once lifted a φ that
# summed the body over every term of its argument and cut each term apart
# with a general `split`, which factored sums over a direct sum up to a
# scalar gauge and checked itself with a second `merge`.  The old φ and
# split are kept here, over the body plans of `tests/_semref.py`, as the
# reference for `den_apply` on the box.


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
    """⟦box⟧ on a context tuple of kets, with the reference evaluator's
    body plan and the reference φ."""
    body = _semref._plan(box.premises[0], _asg_key(asg))
    inner = den_formula(box.conclusion.conclusion.body, asg)

    def phi(x):
        out = None
        for key, c in x.terms:
            r = body(_ref_split(BangElem(x.space, ((key, 1),))))
            out = _semref._acc(out, c, r, lambda: inner)
        return Vect(inner, _semref._zero(inner) if out is None else _semref._flat(out, inner))

    return lift(phi, merge(env), out_space=inner)


def _box_input(env, spaces):
    """A context tuple of kets as the public input of `den_apply`."""
    if not env:
        return Scalar(Fraction(1))
    if len(env) == 1:
        return env[0]
    key = tuple(x.terms[0][0] for x in env)
    return tensor_from_terms(tuple(map(BangSp, spaces)), {key: Fraction(1)})


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
        for env in itertools.product(*map(_depth_two_kets, spaces)):
            got = den_apply(box, _box_input(env, spaces), asg)
            assert got == _ref_box(box, env, asg), (box.conclusion, env)


# ---------------------------------------------------------------------------
# The jet evaluator against the ket-branching reference.  `tests/_semref.py`
# keeps the plans that ran each contraction once per coproduct term and each
# box over set partitions; every value the jet evaluator gives must be the
# one they give, or, on an input they refuse, the sum of what they give on
# its pure terms.  An infinite hom value is compared by applying it to drawn
# arguments: kets, closed numerals, and int-valued closures over a ket.


def _closure_over_a_ket():
    """!E ⊢ int: λf. (captured ∘ captured ∘ f), so its value holds the
    variables of a ket of up to two arguments."""
    three = mk_der(mk_der(mk_der(plain_body(3, A), 2), 1), 0)  # !E, !E, !E ⊢ E
    return mk_lolli_r(mk_ctr(three, 1))


def _split_under_an_abstraction():
    """!(A⊗A) ⊢ !A ⊸ A⊗A: a tensor-left whose branches are abstractions
    of a space with no matrix, after a dereliction."""
    pair = mk_weak(mk_tensor_r(mk_axiom(A), mk_axiom(A)), 0, Bang(A))  # !A, A, A ⊢ A⊗A
    return mk_der(mk_tensor_l(mk_lolli_r(pair), 0), 0)


def _differential_proofs():
    """(label, proof, assignment) for each proof the jet evaluator is
    checked on against the reference."""
    e = endo(A)
    out = [(name, p, ASG) for name, p in library(A).items()]
    out += [(f"add-cut-{m}-{n}", add_cut(m, n, A), ASG) for m, n in ((0, 1), (1, 2), (2, 1))]
    out += [(f"mult-cut-{m}-{n}", mult_cut(m, n, A), ASG) for m, n in ((1, 1), (1, 2), (2, 2))]
    boxes = _boxes_with_g_context_formulas()
    out += [(f"box-{g}", box, asg) for g, (box, asg) in enumerate(boxes)]
    closed_box = boxes[0][0]
    square = mk_tensor_r(mk_axiom(A), mk_axiom(A))
    return out + [
        ("copy-and-drop", _idle_copy(), ASG),  # a ! output
        ("boxed-numeral-body", mk_prom(church_body(2, A)), ASG),
        # weakening and a unit slot scale a ! value and an abstraction
        ("weakened-box", mk_weak(closed_box, 0, Bang(A)), ASG),
        ("weakened-numeral", mk_weak(church(2, A), 0, Bang(A)), ASG),
        ("unit-box", mk_one_l(closed_box, 0), ASG),
        ("unit-numeral", mk_one_l(church(2, A), 0), ASG),
        ("derelict-abstraction", mk_der(mk_lolli_r(mk_weak(mk_axiom(e), 0, Bang(e))), 0), ASG),
        ("split-under-abstraction", _split_under_an_abstraction(), ASG),
        ("closure-over-a-ket", _closure_over_a_ket(), ASG),
        # applied to two closures over kets, the second one's variables
        # are shifted above the first's
        ("add-abstracted", mk_lolli_r(add(A)), ASG),
        ("two-bang-slots", mk_der(mk_der(comp(A), 1), 0), ASG),
        ("unit-and-tensor-slots", mk_one_l(mk_tensor_l(square, 0), 0), ASG),
    ]


_DIFF_PROOFS = _differential_proofs()
_small = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)))
_nonzero = _small.filter(lambda q: q != 0)


def _draw_ket_key(data, d, max_args=4):
    base = tuple(data.draw(st.lists(_small, min_size=d, max_size=d)))
    args = data.draw(st.lists(st.integers(0, d - 1), max_size=max_args))
    return base, tuple(sorted(args))


def _draw_kets(data, space, terms=(1, 3), max_args=4):
    """A combination of 1–3 kets of 0–4 arguments over ``space``."""
    n = data.draw(st.integers(*terms))
    acc = {}
    for _ in range(n):
        key = _draw_ket_key(data, space_dim(space), max_args)
        acc[key] = acc.get(key, 0) + data.draw(_nonzero)
    return bang_from_terms(space, acc)


def _draw_int(data):
    """A (jet, reference) pair of int_A values: a closed numeral, or (three
    times in four) a closure that captured a drawn ket."""
    if not data.draw(st.integers(0, 3)):
        k = data.draw(st.integers(0, 3))
        one = Scalar(Fraction(1))
        return den_apply(church(k, A), one, ASG), _semref.den_apply(church(k, A), one, ASG)
    x = _draw_kets(data, E_SPACE, terms=(1, 2), max_args=2)
    q = _closure_over_a_ket()
    return den_apply(q, x, ASG), _semref.den_apply(q, x, ASG)


def _draw_input(data, space):
    """A (jet, reference) pair of inputs for one slot of ``space``."""
    if isinstance(space, BangSp):
        x = _draw_kets(data, space.inner)
        return x, x
    if space == den_formula(int_type(A), ASG):
        return _draw_int(data)
    if space == den_formula(int_type(int_type(A)), ASG):
        p, one = church(data.draw(st.integers(0, 2)), int_type(A)), Scalar(Fraction(1))
        return den_apply(p, one, ASG), _semref.den_apply(p, one, ASG)
    d = space_dim(space)
    v = Vect(space, tuple(data.draw(st.lists(_small, min_size=d, max_size=d))))
    return v, v


def _draw_context_input(data, spaces):
    """The whole context: a Scalar, one slot's value, or a TensorElem of
    1–3 pure terms over finite and ! slots (one ! slot too)."""
    if not spaces:  # mostly 1: the reference refuses to scale an abstraction of int
        c = Scalar(data.draw(st.sampled_from((1, 1, 1, Fraction(-3, 2)))))
        return c, c
    if len(spaces) == 1 and not (isinstance(spaces[0], BangSp) and data.draw(st.booleans())):
        return _draw_input(data, spaces[0])
    acc = {}
    for _ in range(data.draw(st.integers(1, 3))):
        key = tuple(
            _draw_ket_key(data, space_dim(s.inner), max_args=2) if isinstance(s, BangSp)
            else data.draw(st.integers(0, (space_dim(s) or 1) - 1))  # 0 names no basis vector
            for s in spaces
        )
        acc[key] = acc.get(key, 0) + data.draw(_nonzero)
    t = tensor_from_terms(tuple(spaces), acc)
    return t, t


def _agree(data, got, wants, space, depth=0):
    """``got``, a jet evaluator value, equals Σ c·w over the (c, w) in
    ``wants``, reference values; False when a reference value cannot be
    compared (an infinite hom value it would have to materialize)."""
    if is_finite(space) or isinstance(space, BangSp):
        total = None
        for c, w in wants:
            v = _semref.force(w, space)
            if type(v) is BangElem:
                v = bang_scale(c, v)
                total = v if total is None else bang_add(total, v)
            else:
                v = [c * q for q in v.coords]
                total = v if total is None else [a + b for a, b in zip(total, v)]
        total = total if type(total) is BangElem else Vect(space, tuple(total))
        assert force(got, space) == total
        return True
    assert isinstance(space, HomSp) and depth < 4
    arg, ref_arg = _draw_input(data, space.dom)
    applied = [(c, _outcome(lambda: _semref.apply_hom(w, ref_arg, space))) for c, w in wants]
    if any(err for _c, (_w, err) in applied):
        return False
    wants = [(c, w) for c, (w, _err) in applied]
    return _agree(data, apply_hom(got, arg), wants, space.cod, depth + 1)


def _outcome(call):
    try:
        return call(), None
    except SemanticsError as e:
        return None, type(e)


def _pure_terms(x):
    """(c, input) pairs with Σ c·input = x, each input one term of x."""
    if type(x) is Vect and type(x.space) is UnitSp:
        return [(x.coords[0], Scalar(Fraction(1)))]
    if type(x) is BangElem:
        return [(c, BangElem(x.space, ((key, Fraction(1)),))) for key, c in x.terms]
    if type(x) is TensorElem:
        return [(c, tensor_from_terms(x.factors, {key: Fraction(1)})) for key, c in x.terms]
    return [(1, x)]


@pytest.mark.parametrize("label, p, asg", _DIFF_PROOFS, ids=[d[0] for d in _DIFF_PROOFS])
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_the_jet_evaluator_matches_the_ket_branching_reference(label, p, asg, data):
    try:
        drawn = _draw_context_input(data, [den_formula(f, asg) for f in p.conclusion.context])
    except UnsupportedSpace:  # a second-order context: both evaluators refuse it
        drawn = (Scalar(Fraction(1)),) * 2
    got, err = _outcome(lambda: den_apply(p, drawn[0], asg))
    want, ref_err = _outcome(lambda: _semref.den_apply(p, drawn[1], asg))
    # the reference materializes an abstraction it scales or adds, which a
    # hom space with no matrix refuses; the jet evaluator keeps those
    # unapplied and adds fewer, so it may answer there.  Its answer is then
    # checked against the reference on each pure term of the input.
    assert err == ref_err or (err is None and ref_err is UnsupportedSpace)
    if err is None:
        wants = [(1, want)]
        if ref_err is not None:
            pure = _pure_terms(drawn[1])
            terms = [(c, _outcome(lambda: _semref.den_apply(p, x, asg))) for c, x in pure]
            if any(e for _c, (_w, e) in terms):
                return
            wants = [(c, w) for c, (w, _e) in terms]
        _agree(data, got, wants, den_formula(p.conclusion.conclusion, asg))


def test_a_contraction_below_an_abstraction_copies_without_a_matrix():
    # !E ⊢ int contracts its ket before abstracting.  The reference sums one
    # closure per coproduct term, which int, having no matrix, refuses; the
    # jet evaluator copies one group-like element, so it gives the sum that
    # the reference gives term by term.
    three = mk_der(mk_der(mk_der(plain_body(3, A), 2), 1), 0)  # !E, !E, !E ⊢ E
    body = mk_lolli_r(three)  # !E, !E ⊢ int
    p = mk_ctr(body, 0)
    x = BangElem(E_SPACE, ((((1, 2, 0, 1), (0,)), Fraction(1)),))
    k = BangElem(E_SPACE, ((((1, 1, 0, 1), (3,)), Fraction(1)),))
    with pytest.raises(UnsupportedSpace):
        _semref.den_apply(p, x, ASG)
    int_space = den_formula(int_type(A), ASG)
    want = [0] * 4
    for (kl, kr), c in coproduct(x).terms:
        pair = tensor_from_terms((BangSp(E_SPACE),) * 2, {(kl, kr): c})
        h = _semref.den_apply(body, pair, ASG)
        value = _semref.force(_semref.apply_hom(h, k, int_space), E_SPACE)
        want = [a + b for a, b in zip(want, value.coords)]
    got = force(apply_hom(den_apply(p, x, ASG), k), E_SPACE)
    assert list(got.coords) == want and any(want)


def test_a_value_of_the_wrong_dimension_counts_its_coordinates():
    two = Vect(BaseSp("A", 2), (Fraction(1), Fraction(0)))
    for value, count in ((Scalar(Fraction(1)), "1 coordinate"), (two, "2 coordinates")):
        message = f"^value has {count} but Hom\\(A, A\\) has dimension 4$"
        with pytest.raises(SemanticsError, match=message):
            flatten(value, E_SPACE)


# ---------------------------------------------------------------------------
# The input checks at the public boundary.  Each test pins the exception's
# type and its message, the space it names included, but no class name;
# a unit slot and a tensor slot reach both compound space labels.

AA = TensorSp(BaseSp("A", 2), BaseSp("A", 2))


def _refused(call, exc, message):
    with pytest.raises(exc, match=message) as err:
        call()
    assert type(err.value) is exc


def test_a_ket_based_in_an_infinite_space_is_unsupported():
    x = BangElem(UnitSp(), ((((1,), ()), 1),))
    _refused(lambda: den_apply(mk_axiom(Bang(Bang(One()))), x, ASG), UnsupportedSpace,
             r"^no ket may be based in !k$")


@dataclass(frozen=True)
class Foreign:
    """A rule tag of a class the evaluator does not know."""


def test_a_foreign_rule_tag_is_refused():
    node = Proof(Foreign(), (), Sequent((A,), A))
    _refused(lambda: den_apply(node, Vect(BaseSp("A", 2), (1, 2)), ASG), SemanticsError,
             r"^unknown rule Foreign\(\)$")


def test_the_zero_of_a_tensor_of_bangs_is_unsupported():
    # a contraction of the zero of !A gives the zero of !A (x) !A, which
    # is neither finite nor a bang nor a hom space
    p = mk_ctr(mk_tensor_r(mk_axiom(Bang(A)), mk_axiom(Bang(A))), 0)
    _refused(lambda: den_apply(p, BangElem(BaseSp("A", 2), ()), ASG), UnsupportedSpace,
             r"^zero value needs a finite space, got \(!A \(x\) !A\)$")


def test_a_vector_of_another_space_of_the_same_dimension_is_refused():
    b = Vect(BaseSp("B", 2), (Fraction(1), Fraction(0)))
    _refused(lambda: den_apply(mk_axiom(A), b, ASG), SemanticsError,
             r"^a value of B is not an element of A$")


def test_a_vector_of_a_compound_space_is_not_an_element_of_a_base_space():
    unit_square = Vect(TensorSp(UnitSp(), UnitSp()), (Fraction(1),))
    _refused(lambda: den_apply(mk_axiom(A), unit_square, {"A": 1}), SemanticsError,
             r"^a value of \(k \(x\) k\) is not an element of A$")


def test_a_ket_over_another_space_of_the_same_dimension_is_refused():
    x = BangElem(BaseSp("B", 4), ((((1, 2, 3, 4), (0,)), Fraction(1)),))
    _refused(lambda: den_apply(mk_axiom(Bang(endo(A))), x, ASG), SemanticsError,
             r"^ket does not live over Hom\(A, A\)$")


def test_a_product_input_over_other_spaces_is_refused():
    # comp's context is Hom(A, A), Hom(A, A); these factors have its dimensions
    other = HomSp(BaseSp("B", 2), BaseSp("B", 2))
    inp = tensor_from_terms((other, other), {(0, 1): Fraction(1)})
    _refused(lambda: den_apply(comp(A), inp, ASG), SemanticsError,
             r"^input factors do not match the context's spaces$")


def test_an_abstraction_of_another_space_is_refused():
    two_b = den_apply(church(2, Var("B")), Scalar(Fraction(1)), {"B": 2})
    _refused(lambda: den_apply(mk_axiom(int_type(A)), two_b, ASG), SemanticsError,
             r"^a value of Hom\(!Hom\(B, B\), Hom\(B, B\)\) is not an element of "
             r"Hom\(!Hom\(A, A\), Hom\(A, A\)\)$")


def test_a_ket_over_the_wrong_space_is_refused():
    short = BangElem(BaseSp("A", 2), ((((1, 2), ()), 1),))  # 2 base coordinates of 4
    far = BangElem(AA, ((((1, 2, 3, 4), (4,)), 1),))  # argument index 4 of 4
    for x in (short, far):
        _refused(lambda: den_apply(mk_axiom(Bang(Tensor(A, A))), x, ASG), SemanticsError,
                 r"^ket does not live over \(A \(x\) A\)$")


def test_a_value_of_the_wrong_kind_for_its_slot_is_refused():
    x = vacuum(Vect(BaseSp("A", 2), (1, 2)))
    two = den_apply(church(2, A), Scalar(Fraction(1)), ASG)  # an unapplied abstraction
    for p, value, label in ((mk_axiom(One()), x, "k"),
                            (mk_axiom(Tensor(A, A)), two, r"\(A \(x\) A\)")):
        _refused(lambda: den_apply(p, value, ASG), SemanticsError,
                 rf"^a \w+ is not an element of {label}$")


def test_a_basis_index_out_of_range_is_refused():
    p = mk_one_l(mk_axiom(Tensor(A, A)), 0)  # 1, A⊗A ⊢ A⊗A
    for key, dim in (((1, 0), 1), ((0, 4), 4)):
        inp = tensor_from_terms((UnitSp(), AA), {key: Fraction(1)})
        _refused(lambda: den_apply(p, inp, ASG), SemanticsError,
                 rf"^basis index {max(key)} out of range for dimension {dim}$")


def test_a_descriptor_on_a_bang_slot_must_be_a_ket_key():
    # a basis index, or a tuple of the wrong shape, where a (base point,
    # argument indices) pair belongs
    p = mk_weak(mk_axiom(A), 0, Bang(A))  # (weak 0 !A (ax A)): !A, A ⊢ A
    a2 = BaseSp("A", 2)
    for desc in (0, (0,), ((1, 2),), ((1, 2), (0,), 5), ((1, 2), 0)):
        inp = TensorElem((BangSp(a2), a2), (((desc, 0), Fraction(1)),))
        _refused(lambda: den_apply(p, inp, ASG), SemanticsError,
                 r"^a ! slot takes a \(base point, argument indices\) pair, not ")
    # the pair itself is read as before
    inp = TensorElem((BangSp(a2), a2), (((((1, 2), ()), 1), Fraction(1)),))
    assert den_apply(p, inp, ASG) == Vect(a2, (0, 1))


def test_applying_a_value_that_is_not_a_hom_is_refused():
    # a ket over a hom space is an element of !Hom(A, A), not of Hom(A, A)
    ket_over_hom = vacuum(_mat_vect([[1, 0], [0, 1]]))
    for psi in (Scalar(Fraction(1)), Vect(AA, (1, 0, 0, 1)), ket_over_hom):
        _refused(lambda: apply_hom(psi, Scalar(Fraction(1))), SemanticsError,
                 r"^cannot apply a \w+ as a hom value$")


def test_an_empty_context_takes_only_a_scalar():
    one_dim = Vect(BaseSp("A", 1), (Fraction(2),))  # one coordinate, not of k
    for value in (one_dim, vacuum(Vect(UnitSp(), (1,)))):
        _refused(lambda: den_apply(mk_one_r(), value, ASG), SemanticsError,
                 r"^empty context takes a \w+ input$")


def test_a_product_input_must_match_the_context_arity():
    one_slot = tensor_from_terms((E_SPACE,), {(0,): Fraction(1)})
    _refused(lambda: den_apply(comp(A), one_slot, ASG), SemanticsError,
             r"^input arity does not match the context$")


def test_a_multi_slot_context_takes_only_a_product_input():
    _refused(lambda: den_apply(comp(A), _mat_value([[1, 0], [0, 1]]), ASG), SemanticsError,
             r"^multi-hypothesis contexts take a \w+ input$")


def test_a_value_with_no_literal_is_refused():
    two = den_apply(church(2, A), Scalar(Fraction(1)), ASG)
    pair = tensor_from_terms((UnitSp(),), {(0,): Fraction(1)})
    for v in (two, Suspended(den_formula(int_type(A), ASG), ()), pair):
        _refused(lambda: value_literal(v), SemanticsError, r"^no literal rendering for \w+$")


def test_values_of_a_hom_into_a_bang_space_cannot_be_compared():
    space = HomSp(BaseSp("A", 2), BangSp(BaseSp("A", 2)))
    one = Scalar(Fraction(1))  # never looked at: the space is refused first
    _refused(lambda: values_agree(one, one, space), UnsupportedSpace,
             r"^cannot compare values over Hom\(A, !A\)$")


def test_the_zero_map_of_a_space_with_no_matrix_has_no_coordinates():
    # a one-argument ket's counit is zero, so the weakened numeral's value
    # is the zero of int_A, which has no matrix to read coordinates from
    p = mk_weak(church(2, A), 0, Bang(A))
    V = BaseSp("A", 2)
    h = den_apply(p, ket(Vect(V, (1, 2)), [Vect(V, (1, 0))]), ASG)
    space = den_formula(int_type(A), ASG)
    for read in (force, flatten):
        _refused(lambda: read(h, space), UnsupportedSpace,
                 r"^no coordinates over Hom\(!Hom\(A, A\), Hom\(A, A\)\)$")


def test_the_empty_combination_of_a_finite_hom_space_is_its_zero():
    zero = Suspended(E_SPACE, ())
    assert force(zero, E_SPACE) == Vect(E_SPACE, (Fraction(0),) * 4)
    assert apply_hom(zero, basis_vec(BaseSp("A", 2), 1)) == Vect(BaseSp("A", 2), (0, 0))


# ---------------------------------------------------------------------------
# The in-place jet kernels against the arithmetic they replaced, kept in
# `tests/_semref.py`.  Monomials range over four variables, so that
# terms overlap and products land on shared monomials; entries are
# small, of both signs, sometimes Fractions and often zero, so that sums
# cancel; a term drawn dense has no zero.

_ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
_NONZERO = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def _jets(draw, width):
    """A jet of ``width`` coordinates, maybe empty: distinct monomials
    over t₁…t₄, no pair all zero."""
    out = []
    for k in draw(st.lists(st.integers(0, 15), max_size=4, unique=True)):
        entries = draw(st.sampled_from([_ENTRIES, _NONZERO]))
        y = tuple(draw(st.lists(entries, min_size=width, max_size=width)))
        if any(y):
            out.append((k, y))
    return tuple(out)


def _outer(x, y):
    return tuple([a * b for a in x for b in y])


def _negated(jet):
    return tuple((k, tuple([-c for c in y])) for k, y in jet)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(data=st.data())
def test_the_jet_kernels_match_the_reference_arithmetic(data):
    # vectors of 8 coordinates half the time, the longest the CLI grid runs
    d = data.draw(st.one_of(st.integers(1, 8), st.just(8)))
    n = data.draw(st.integers(1, 8))
    m, x, y = data.draw(_jets(n * d)), data.draw(_jets(d)), data.draw(_jets(d))
    c = data.draw(_jets(1))
    # a jet plus the negation of its first term: that monomial cancels
    pairs = x + y + _negated(x[:1])
    cases = [
        (_matrix_times(m, x), _semref._bilinear(_semref._matvec, m, x)),
        (_tensor(x, m), _semref._bilinear(_outer, x, m)),
        (_times(c, x), _semref._bilinear(_outer, c, x)),
        (_collect(pairs), _semref._collect(pairs)),
        (_total([x, y, _negated(y)]), _semref._collect(x + y + _negated(y))),
    ]
    for got, want in cases:
        assert got == want
        assert all(any(z) for _k, z in got)  # no pair all zero


# ---------------------------------------------------------------------------
# Seeded materialization against the per-column reference in
# `tests/_semref.py`: one evaluation on Σⱼ uⱼeⱼ gives every column.  The
# closures' contexts hold seeded dense entries, and in the last cases
# the t-variables of a ket, which the column variables must stay above.


def _dense_jet(rng, n):
    """A constant jet of ``n`` coordinates, none zero."""
    return ((0, tuple(rng.choice([1, -1, 2, -3, Fraction(1, 2)]) for _ in range(n))),)


_MATRIX_ON_ARG = "(lolli-r (lolli-l 0 (ax A) (ax A)))"
_SWAP = "(lolli-r (tensor-l 0 (ex 0 (tensor-r (ax A) (ax {})))))"
_UNIT_ARG = "(lolli-r (one-l 0 (ax A)))"
_NESTED = "(lolli-r (lolli-r (lolli-r (lolli-l 0 (lolli-l 0 (ax A) (ax A)) (ax A)))))"

#: (proof text, assignment, widths of the context's constant jets): the
#: argument a base space of dimension 1 to 4 applied to a matrix; a
#: tensor split by tensor-l, on square and non-square factors; the unit,
#: taken by one-l; a hom space whose values are abstractions, nested once
_SEEDED = {
    **{f"base-{d}": (_MATRIX_ON_ARG, {"A": d}, (d * d,)) for d in (1, 2, 3, 4)},
    **{f"tensor-{d}": (_SWAP.format("A"), {"A": d}, ()) for d in (1, 2, 3)},
    "tensor-2x3": (_SWAP.format("B"), {"A": 2, "B": 3}, ()),
    **{f"unit-{d}": (_UNIT_ARG, {"A": d}, (d,)) for d in (1, 3)},
    **{f"hom-{d}": (_NESTED, {"A": d}, ()) for d in (1, 2)},
}


@pytest.mark.parametrize("text, asg, widths", _SEEDED.values(), ids=_SEEDED)
def test_seeded_materialization_matches_one_evaluation_per_column(text, asg, widths):
    p = parse_proof(text)
    assert validate(p) == []
    rng = random.Random(text + repr(asg))
    env = tuple(_dense_jet(rng, n) for n in widths)
    v = _eval(p, env, _asg_key(asg))
    assert type(v) is Suspended
    want = _semref.materialize_per_column(v)
    assert dict(_materialize(v)) == dict(want)
    assert want and all(any(y) for _k, y in want)


@pytest.mark.parametrize("n, dim", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_seeded_materialization_stays_above_a_kets_variables(n, dim):
    # a numeral's body on the group-like element of a two-argument ket:
    # its closures hold the ket's t-variables
    asg = {"A": dim}
    space = den_formula(endo(A), asg)
    rng = random.Random(n * 10 + dim)
    point = [rng.choice([1, -1, 2, Fraction(1, 3)]) for _ in range(dim * dim)]
    x = ket(Vect(space, tuple(point)), [basis_vec(space, 0), basis_vec(space, dim * dim - 1)])
    g, top = _bang_in(x, space, 0)
    v = _eval(church_body(n, A), (g,), _asg_key(asg))
    assert top and _support(v) & top
    want = _semref.materialize_per_column(v)
    assert dict(_materialize(v)) == dict(want)
    assert any(k & top for k, _y in want)


def test_a_body_that_drops_its_argument_is_refused():
    # a forged, unvalidated abstraction ⊢ A ⊸ 1 whose body is (one-r):
    # its output carries no column variable, so no column is written
    node = Proof(LolliR(), (mk_one_r(),), Sequent((), Lolli(A, One())))
    space = HomSp(BaseSp("A", 2), UnitSp())
    forged = Suspended(space, ((Closure(node, (), _asg_key(ASG)), ((0, (1,)),)),))
    with pytest.raises(SemanticsError, match="does not use its argument exactly once"):
        force(forged, space)


# ---------------------------------------------------------------------------
# The ⊸L product against the column-slicing kernel it replaced, kept in
# `tests/_semref.py`, on seeded jets.  `_matrix_times` lists a matrix
# jet's nonzero entries once and keeps the last jet's list, by identity.

#: (rows, columns) of the hom spaces the seeded jets live in
_HOM_SHAPES = [(1, 1), (1, 3), (3, 1), (2, 2), (4, 4), (8, 8)]


def _seeded_jet(rng, monomials, width):
    """A jet over ``monomials`` of ``width`` coordinates: about half of
    them zero, the rest small ints and Fractions of both signs; a term
    that comes out all zero is left out."""
    values = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    terms = ((k, tuple(rng.choice(values) for _ in range(width))) for k in monomials)
    return tuple((k, y) for k, y in terms if any(y))


def _cancelling(rng, n, d):
    """A matrix jet and a vector jet whose products on monomial t₁ cancel:
    a·y from (1, t₁) and (-a)·y from (t₁, 1)."""
    a = tuple(rng.choice([1, -2, Fraction(3, 4)]) for _ in range(n * d))
    y = tuple(rng.choice([1, -1, Fraction(-1, 3)]) for _ in range(d))
    return ((0, a), (1, tuple(-e for e in a))), ((1, y), (0, y))


@pytest.mark.parametrize("n, d", _HOM_SHAPES)
def test_the_matrix_kernel_matches_the_column_reference(n, d):
    rng = random.Random(f"matrix-times-{n}x{d}")
    # monomials over t₁…t₄: some pairs share a variable, some do not;
    # one matrix after another, most with as many terms as the last
    cases = [
        (_seeded_jet(rng, rng.sample(range(16), 3), n * d),
         _seeded_jet(rng, rng.sample(range(16), 3), d))
        for _ in range(8)
    ]
    cases += [(cases[0][0], ()), ((), cases[0][1])]
    m, x = _cancelling(rng, n, d)
    cases.append((m, x))
    for m, x in cases:
        got = _matrix_times(m, x)
        assert got == _semref.matrix_times_by_column(m, x)
        assert all(any(z) for _k, z in got)
    # the two products on t₁ cancel, so t₁ is dropped
    assert 1 not in dict(_matrix_times(m, x))
    assert _matrix_times(m, ()) == ()


def test_the_matrix_kernel_keeps_only_the_last_matrix_by_identity():
    rng = random.Random("matrix-times-cache")
    m1 = ((0, (1, 0, 2, -3)), (2, (0, Fraction(1, 2), 0, 1)))
    m2 = ((0, (0, 5, -1, 1)), (2, (Fraction(-2, 3), 0, 4, 0)))
    x = ((0, (1, 2)), (1, (0, -1)), (2, (3, 0)))
    ref = _semref.matrix_times_by_column
    # the same number of terms and entries, interleaved
    for m in (m1, m2, m1, m2):
        assert _matrix_times(m, x) == ref(m, x)
    # equal but distinct jets, and a hit returns the listed entries
    twin = tuple(list(m1))
    assert twin == m1 and twin is not m1
    assert _matrix_times(m1, x) == _matrix_times(twin, x) == ref(m1, x)
    assert _entries(twin, 2) is _entries(twin, 2)
    # one jet against vector jets of other supports: disjoint from m1's
    # monomials, overlapping them, and all of them taken
    for monomials in ([4, 8], [1, 2, 3], [2], [15, 0]):
        y = _seeded_jet(rng, monomials, 2) or ((monomials[0], (1, 1)),)
        assert _matrix_times(m1, y) == ref(m1, y)
    assert _matrix_times(m1, ((2, (1, 1)),)) == ((2, (1, -1)),)
    # the same jet read as a 2×2 and as a 1×4 matrix
    x4 = ((1, (1, 1, 1, 1)),)
    for m, v in ((m1, x), (m1, x4), (m1, x)):
        assert _matrix_times(m, v) == ref(m, v)


# ---------------------------------------------------------------------------
# Closures carry the variables of their captured contexts; `_support`
# ORs them with the coefficients' monomials instead of walking every
# context.  Each value's support must equal the walk kept in
# `tests/_semref.py`, and so must each shifted copy's.

E = endo(A)


def _seeded_ket(rng, dim, n_args):
    space = den_formula(E, {"A": dim})
    point = Vect(space, tuple(Fraction(rng.choice([1, -1, 2, 3])) for _ in range(dim * dim)))
    args = [basis_vec(space, rng.randrange(dim * dim)) for _ in range(n_args)]
    return ket(point, args)


def _assert_support_is_the_walk(v):
    assert type(v) is Suspended
    assert _support(v) == _semref.support_walk(v)
    for k in (1, 5):
        w = _shifted(v, k)
        assert _support(w) == _semref.support_walk(w) == _support(v) << k


def _support_values():
    """Suspended values whose captured contexts hold every kind of value,
    by name."""
    rng = random.Random("closure-support")
    key = _asg_key(ASG)
    g, top = _bang_in(_seeded_ket(rng, 2, 2), den_formula(E, ASG), 0)
    h = _eval(church_body(2, A), (g,), key)  # contexts of derelicted jets
    # λh₂.λh₁.λx. h₂(h₁(x)) applied twice: nested closures in a context
    nested = _eval(parse_proof(_NESTED), (), key)
    g2, _top = _bang_in(_seeded_ket(rng, 2, 1), den_formula(E, ASG), top)
    h2 = _eval(church_body(1, A), (g2,), key)
    once = _call(nested, h)
    out = {"numeral": h, "closed": nested, "once": once, "twice": _call(once, h2)}
    # a λ over a context of one of each value: a jet, the empty jet, a
    # BangJet whose points and coefficients hold variables, a Suspended,
    # an empty Suspended.  The ⊸R branch captures its context as it is.
    lam = parse_proof("(lolli-r (ax A))")
    bang = BangJet(g.space, g.terms + ((((0, (1, 2, 3, 4)),), ((64, (2,)),)),))
    ctx = {
        "jet": ((8, (1, 0)), (0, (0, 3))),
        "empty-jet": (),
        "bang": bang,
        "suspended": h2,
        "empty-suspended": Suspended(E_SPACE, ()),
    }
    out["all"] = _eval(lam, tuple(ctx.values()), key)
    out["none"] = _eval(lam, (), key)
    for name, x in ctx.items():
        out[name] = _eval(lam, (x,), key)
    return out


def test_a_closure_carries_the_support_of_its_captured_context():
    values = _support_values()
    for v in values.values():
        _assert_support_is_the_walk(v)
    empty = {"closed", "none", "empty-jet", "empty-suspended"}
    assert {name for name, v in values.items() if not _support(v)} == empty


def test_closures_entered_above_a_nonzero_top_carry_shifted_supports():
    # ψ = λh. f∘h at the one-argument ket |ν⟩_P is λh. ν∘h; its argument
    # α at |μ⟩_Q is μ, entered above ψ's variables
    rng = random.Random("shifted-support")
    psi_proof = mk_der(mk_lolli_r(comp(A)), 0)
    alpha_proof = church_body(1, A)
    assert validate(psi_proof) == [] and validate(alpha_proof) == []
    k1, k2 = _seeded_ket(rng, 2, 1), _seeded_ket(rng, 2, 1)
    psi, alpha = den_apply(psi_proof, k1, ASG), den_apply(alpha_proof, k2, ASG)
    assert psi.top and alpha.top
    _assert_support_is_the_walk(psi)
    _assert_support_is_the_walk(alpha)
    out = apply_hom(psi, alpha)
    _assert_support_is_the_walk(out)
    nu, mu = (_as_rows(dereliction(k)) for k in (k1, k2))
    assert _as_rows(out) == _matmul(nu, mu)


def test_multi_branch_abstractions_carry_each_branchs_support():
    # λg. f₂∘f₁ with g dropped, on two ket pairs: the value of an infinite
    # hom space keeps both branches' closures unapplied
    p = mk_lolli_r(mk_weak(mk_der(mk_der(comp(A), 0), 1), 0, Bang(E)))
    assert validate(p) == []
    rng = random.Random("branch-support")
    space = den_formula(Bang(E), ASG)
    descs = [_seeded_ket(rng, 2, s).terms[0][0] for s in (1, 2, 0, 1)]
    x = tensor_from_terms((space, space), {tuple(descs[:2]): Fraction(1), tuple(descs[2:]): 2})
    v = den_apply(p, x, ASG)
    assert type(v) is Suspended and len(v.terms) == 2
    _assert_support_is_the_walk(v)
    assert v.top and not v.top & ~_support(v)


# ---------------------------------------------------------------------------
# nl and tangent on one group-like element: g(P), or g(P + t·Q) read off at
# t, evaluated once.  `tests/_semref.py` keeps the path they replaced, the
# direction expanded into one basis ket per nonzero entry, as the reference.


def _drawn_matrix(rng, rows, cols, density, fractions):
    """A seeded matrix (a list when ``rows`` is None) whose entries are
    nonzero with probability ``density``, non-integral about half the
    time when ``fractions``."""

    def entry():
        if rng.random() >= density:
            return 0
        if fractions and rng.random() < 0.5:
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 5))
        return rng.choice((-1, 1)) * rng.randint(1, 4)

    if rows is None:
        return [entry() for _ in range(cols)]
    return [[entry() for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("k", [2, 4, 8])
def test_a_dense_tangent_multiplies_once_per_composition(k, monkeypatch):
    # Q rides in one variable whatever its support, so each of the k
    # compositions of the numeral is one matrix product
    rng = random.Random(f"dense-tangent-{k}")
    P, Q = (_drawn_matrix(rng, 8, 8, 1, fractions=False) for _ in range(2))
    calls = []

    def counted(m, x):
        calls.append(m)
        return _matrix_times(m, x)

    monkeypatch.setattr("linlog.semantics._matrix_times", counted)
    got = tangent(church(k, A), P, Q, {"A": 8})
    assert len(calls) == k
    # d/dt (P + tQ)^k at t = 0 is the sum of P^i Q P^(k−1−i)
    powers = [[[Fraction(int(i == j)) for j in range(8)] for i in range(8)]]
    for _ in range(k):
        powers.append(_matmul(powers[-1], P))
    slope = [[Fraction(0)] * 8 for _ in range(8)]
    for i in range(k):
        slope = _mat_add(slope, _matmul(_matmul(powers[i], Q), powers[k - 1 - i]))
    assert [list(r) for r in got.rows] == slope


def _nonlinear_cases():
    """(proof, assignment, points) for the differential of `nl` and
    `tangent`, drawn from a seeded generator: curried numerals, numeral
    bodies, a mult cut before and after normalization, the weakened
    numeral; A = 1..3; int and non-integral entries, sparse, dense and
    zero directions, and now and then a malformed point or direction."""
    rng = random.Random("nonlinear-by-kets")
    proofs = [church(n, A) for n in range(6)] + [church_body(n, A) for n in range(1, 5)]
    proofs += [mult_cut(2, 2, A), normalize(mult_cut(2, 2, A)).proof]
    proofs.append(mk_weak(church(2, A), 0, Bang(A)))  # !A ⊢ int_A
    cases = []
    for p in proofs:
        matrix_point = p.conclusion.context != (Bang(A),)
        for d in (1, 2, 3):
            for _ in range(6):
                fractions = rng.random() < 0.5
                rows = d if matrix_point else None
                P = _drawn_matrix(rng, rows, d, rng.choice((1, 0.4)), fractions)
                Q = _drawn_matrix(rng, rows, d, rng.choice((1, 0.4, 0)), fractions)
                if rng.random() < 0.1:
                    P = P + P[:1]  # one entry or row too many
                if rng.random() < 0.1:
                    Q = [0.5] * d  # a float
                cases.append((p, {"A": d}, (P,)))
                cases.append((p, {"A": d}, (P, Q)))
    # the shape is refused before the assignment, the assignment before
    # the point, and the point before the direction
    cases.append((mk_axiom(A), {}, ([1], [1])))
    cases.append((church(2, A), {"A": 0}, ([[1]], [1.5])))
    cases.append((church(2, A), {}, ([[1]], [[1]])))
    cases.append((church(2, A), {"A": 2}, ([[1, 2]], [0.5])))
    return cases


def _answer(call):
    """What ``call`` returns, or the type and message of the
    SemanticsError it raises."""
    try:
        return call()
    except SemanticsError as e:
        return type(e), str(e)


def test_nl_and_tangent_match_the_ket_expansion():
    # One answer differs, and only in its message.  The weakened numeral's
    # tangent is ε(|Q⟩_P)·2 = 0, the zero of int_A, which has no
    # coordinates.  The expansion gives each nonzero entry of Q its own
    # variable and each ket the monomial of the others as coefficient;
    # with two or more, the counit's jet holds every variable, though not
    # in the read-off monomial, so the zero stayed an unapplied numeral
    # and `force` failed to materialize it instead.
    zero_map = (UnsupportedSpace, "no coordinates over Hom(!Hom(A, A), Hom(A, A))")
    unapplied = (
        UnsupportedSpace,
        "materializing an abstraction needs a finite space, got !Hom(A, A)",
    )
    kinds, diverged = set(), 0
    for p, asg, points in _nonlinear_cases():
        want = _answer(lambda: _semref.nonlinear_by_kets(p, points, asg))
        one = nl if len(points) == 1 else tangent
        got = _answer(lambda: one(p, *points, asg))
        if got != want and want == unapplied and one is tangent:
            assert p.conclusion.context == (Bang(A),) and len([q for q in points[1] if q]) > 1
            want, diverged = zero_map, diverged + 1
        assert got == want, (p.conclusion, asg, points)
        if type(got) is tuple:
            kinds.add(got[0].__name__)
        elif any(got.coords):
            kinds.add(one.__name__)
    assert kinds == {"nl", "tangent", "SemanticsError", "UnsupportedSpace"}
    assert diverged
