"""The end-to-end acceptance suite: ten numbered checks, one test and
one printed verdict line each.

Everything here is exact rational arithmetic — no tolerances.  Where a
check needs an expected value that the package itself could be wrong
about, the expected side is computed by an independent oracle defined
at the top of this file (plain matrix products and powers, a truncated
polynomial expansion, hand-spelled lifting formulas) rather than by the
code under test.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from functools import lru_cache

from linlog.coalgebra import (
    BangElem,
    BaseSp,
    HomSp,
    Vect,
    bang_add,
    bang_from_terms,
    coproduct,
    counit,
    ket,
    lift,
    set_partitions,
    tensor_from_terms,
    vacuum,
    vec_add,
    vec_scale,
    zero_vec,
)
from linlog.encodings import (
    add_cut,
    church,
    church2,
    church_body,
    exp_cut,
    hypexp_cut,
    library,
    mult_cut,
)
from linlog.formula import Bang, Lolli, One, Tensor, Var
from linlog.proof import (
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
    proof_eq,
)
from linlog.rewrite import exchange_normalize, is_cut_free, normalize
from linlog.semantics import (
    Scalar,
    apply_hom,
    den_apply,
    den_formula,
    flatten,
    force,
    nl,
    probe_inputs,
    standard_probes,
    tangent,
    values_agree,
)

import _kernelref
from _stepref import step

A = Var("A")
ASG = {"A": 2}
E_SPACE = HomSp(BaseSp("A", 2), BaseSp("A", 2))


def _criterion(label: str):
    """Print one verdict line for the wrapped check, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# Independent oracles (defined before anything that is checked against them)


def _matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_pow(a, k):
    out = [[Fraction(1 if i == j else 0) for j in range(len(a))] for i in range(len(a))]
    for _ in range(k):
        out = _matmul(out, a)
    return out


def _poly_mul(p, q):
    """Product of two matrix polynomials in t, as lists of coefficient
    matrices by degree."""
    zero = [[Fraction(0)] * len(p[0][0]) for _ in range(len(p[0]))]
    out = [zero for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = _mat_add(out[i + j], _matmul(a, b))
    return out


def _rand_mat(rng, n=2):
    return [
        [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)]
        for _ in range(n)
    ]


def _rand_vec(rng, space):
    return Vect(
        space, tuple(Fraction(rng.randint(-2, 2)) for _ in range(space.dim))
    )


def _rand_linear_phi(rng, cod):
    """A linear map out of a bang space, drawn lazily per ket basis key."""
    images = {}

    def phi(x: BangElem):
        out = zero_vec(cod)
        for key, c in x.terms:
            if key not in images:
                images[key] = _rand_vec(rng, cod)
            out = vec_add(out, vec_scale(c, images[key]))
        return out

    return phi


def _mat_vect(rows):
    return Vect(E_SPACE, tuple(c for row in rows for c in row))


def _as_rows(v):
    m = force(v, E_SPACE)
    assert type(m) is Vect and isinstance(m.space, HomSp)
    return [list(r) for r in m.rows]


# ---------------------------------------------------------------------------
# 01 — two times two


@lru_cache(maxsize=1)
def _two_times_two():
    return normalize(mult_cut(2, 2, A), max_steps=10000)


@_criterion("01 two-times-two normalizes to four")
def test_01_two_times_two_normalizes_to_four():
    res = _two_times_two()
    assert not res.exhausted
    assert is_cut_free(res.proof)
    assert len(res.trace.steps) < 10000
    assert exchange_normalize(res.proof) == church(4, A)
    alpha = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    assert _as_rows(nl(res.proof, alpha, ASG)) == _mat_pow(alpha, 4)


@_criterion("02 opening rewrites of the two-times-two trace")
def test_02_opening_rewrites_of_the_two_times_two_trace():
    first = [s.rule_id for s in _two_times_two().trace.steps[:4]]
    expected = ["lolli-r-commute", "lolli-l-principal", "prom-ctr", "prom-der"]
    it = iter(first)
    assert all(any(got == want for got in it) for want in expected)


# ---------------------------------------------------------------------------
# 03 — the ket table of the numeral two


@_criterion("03 numeral-two ket table on random triples")
def test_03_numeral_two_ket_table():
    body = church_body(2, A)
    rng = random.Random(34)
    for _ in range(20):
        al, nu, mu = (_rand_mat(rng) for _ in range(3))
        base = _mat_vect(al)
        on_vac = den_apply(body, vacuum(base), ASG)
        assert _as_rows(on_vac) == _matmul(al, al)
        on_one = den_apply(body, ket(base, [_mat_vect(nu)]), ASG)
        assert _as_rows(on_one) == _mat_add(_matmul(nu, al), _matmul(al, nu))
        on_two = den_apply(
            body, ket(base, [_mat_vect(nu), _mat_vect(mu)]), ASG
        )
        assert _as_rows(on_two) == _mat_add(_matmul(nu, mu), _matmul(mu, nu))


# ---------------------------------------------------------------------------
# 04 — the lifting table, spelled out term by term


@_criterion("04 lifting table and partition counts")
def test_04_lifting_table_and_partition_counts():
    assert [len(set_partitions(s)) for s in range(5)] == [1, 1, 2, 5, 15]

    rng = random.Random(4)
    W, V = BaseSp("B", 2), BaseSp("A", 2)
    for _ in range(6):
        phi = _rand_linear_phi(rng, V)
        p = _rand_vec(rng, W)
        nu, mu, th = (_rand_vec(rng, W) for _ in range(3))
        f = lambda args: phi(ket(p, args))  # noqa: E731 — φ on a ket at p
        q = f([])  # the lifted base point

        assert lift(phi, vacuum(p), out_space=V) == vacuum(q)
        assert lift(phi, ket(p, [nu]), out_space=V) == ket(q, [f([nu])])
        assert lift(phi, ket(p, [nu, mu]), out_space=V) == bang_add(
            ket(q, [f([nu, mu])]),
            ket(q, [f([nu]), f([mu])]),
        )
        three = lift(phi, ket(p, [nu, mu, th]), out_space=V)
        terms = [
            ket(q, [f([nu, mu, th])]),
            ket(q, [f([nu, mu]), f([th])]),
            ket(q, [f([nu, th]), f([mu])]),
            ket(q, [f([mu, th]), f([nu])]),
            ket(q, [f([nu]), f([mu]), f([th])]),
        ]
        assert three == functools.reduce(bang_add, terms)


# ---------------------------------------------------------------------------
# 05 — coalgebra laws on random kets


def _pure(space, key):
    return BangElem(space, ((key, Fraction(1)),))


def _tensor2(a: BangElem, b: BangElem):
    acc = {}
    for ka, ca in a.terms:
        for kb, cb in b.terms:
            acc[(ka, kb)] = acc.get((ka, kb), Fraction(0)) + ca * cb
    return tensor_from_terms((a.space, b.space), acc)  # spaces only label


@_criterion("05 coalgebra laws on 100 random kets")
def test_05_coalgebra_laws_on_random_kets():
    rng = random.Random(55)
    for _ in range(100):
        d = rng.randint(1, 3)
        V = BaseSp("A", d)
        s = rng.randint(0, 4)
        x = ket(_rand_vec(rng, V), [_rand_vec(rng, V) for _ in range(s)])
        t = coproduct(x)

        # counit laws: contracting either side with ε gives x back
        left, right = {}, {}
        for (kl, kr), c in t.terms:
            if not kl[1]:
                left[kr] = left.get(kr, Fraction(0)) + c
            if not kr[1]:
                right[kl] = right.get(kl, Fraction(0)) + c
        assert bang_from_terms(V, left) == x
        assert bang_from_terms(V, right) == x

        # cocommutativity
        swapped = {(kr, kl): c for (kl, kr), c in t.terms}
        assert t == tensor_from_terms(t.factors, swapped)

        # coassociativity
        lhs, rhs = {}, {}
        for (kl, kr), c in t.terms:
            for (k1, k2), c2 in coproduct(_pure(V, kl)).terms:
                key = (k1, k2, kr)
                lhs[key] = lhs.get(key, Fraction(0)) + c * c2
            for (k2, k3), c2 in coproduct(_pure(V, kr)).terms:
                key = (kl, k2, k3)
                rhs[key] = rhs.get(key, Fraction(0)) + c * c2
        assert {k: v for k, v in lhs.items() if v} == {
            k: v for k, v in rhs.items() if v
        }

        # the lifting of a linear map is a morphism of coalgebras
        cod = BaseSp("A", rng.randint(1, 3))
        phi = _rand_linear_phi(rng, cod)
        lifted = lift(phi, x, out_space=cod)
        assert counit(lifted) == counit(x)
        acc = {}
        for (kl, kr), c in t.terms:
            fl = lift(phi, _pure(V, kl), out_space=cod)
            fr = lift(phi, _pure(V, kr), out_space=cod)
            for key, c2 in _tensor2(fl, fr).terms:
                acc[key] = acc.get(key, Fraction(0)) + c * c2
        got = coproduct(lifted)
        assert got == tensor_from_terms(got.factors, acc)


# ---------------------------------------------------------------------------
# 06 — rewrite soundness over a generated corpus of single-cut proofs


_B = Var("B")
_ATOMS = (A, _B, One())
_ASG6 = {"A": 2, "B": 2}
_PROBE_CAP = 120  # skip corpus samples whose probe grid would be huge


def _rand_formula(rng, depth):
    if depth == 0 or rng.random() < 0.5:
        return rng.choice(_ATOMS)
    l, r = _rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1)
    return Tensor(l, r) if rng.random() < 0.5 else Lolli(l, r)


def _prove(rng, f):
    """Some cut-free proof concluding f (context varies)."""
    if isinstance(f, One) and rng.random() < 0.7:
        return mk_one_r()
    if isinstance(f, Tensor) and rng.random() < 0.7:
        return mk_tensor_r(_prove(rng, f.left), _prove(rng, f.right))
    if isinstance(f, Lolli) and f.ante == f.cons and rng.random() < 0.6:
        return mk_lolli_r(mk_axiom(f.ante))
    return mk_axiom(f)


def _decorate(rng, p, t, bang_ok, rounds=None):
    """Apply random structural rules on top of p, keeping track of where
    context position t moves (t = -1 tracks nothing)."""
    for _ in range(rng.randint(0, 3) if rounds is None else rounds):
        n = len(p.conclusion.context)
        ops = ["one_l"]
        if n >= 2:
            ops.append("ex")
        if bang_ok:
            ops.append("weak")
        if t >= 1:
            ops.append("lolli_r")
        pairs = [i for i in range(n - 1) if i != t and i + 1 != t]
        if pairs:
            ops.append("tensor_l")
        op = rng.choice(ops)
        if op == "one_l":
            i = rng.randint(0, n)
            p = mk_one_l(p, i)
            t = t + 1 if 0 <= t and i <= t else t
        elif op == "ex":
            i = rng.randint(0, n - 2)
            p = mk_exchange(p, i)
            if i == t:
                t += 1
            elif i + 1 == t:
                t -= 1
        elif op == "weak":
            i = rng.randint(0, n)
            p = mk_weak(p, i, Bang(rng.choice((A, _B))))
            t = t + 1 if 0 <= t and i <= t else t
            bang_ok = False
        elif op == "lolli_r":
            p = mk_lolli_r(p)
            t -= 1
        else:
            i = rng.choice(pairs)
            p = mk_tensor_l(p, i)
            if i + 1 < t:
                t -= 1
    return p, t, bang_ok


def _corpus(rng):
    """≥200 valid single-cut proofs over !-free and one-bang formulas."""
    out = []

    # plain cuts over random formulas, decorated on both sides
    attempts = 0
    while len(out) < 110 and attempts < 2000:
        attempts += 1
        f = _rand_formula(rng, 2)
        right, t, _ = _decorate(rng, mk_axiom(f), 0, bang_ok=rng.random() < 0.35)
        left = _prove(rng, f)
        if rng.random() < 0.5:
            left, _, _ = _decorate(rng, left, -1, bang_ok=False, rounds=1)
        out.append(mk_cut(left, right, t))

    # principal arrow cuts: an abstraction meeting an application
    for _ in range(30):
        x = rng.choice(_ATOMS)
        sub = _prove(rng, x)
        right = mk_lolli_l(sub, mk_axiom(x), 0)
        t = len(sub.conclusion.context)
        right, t, _ = _decorate(rng, right, t, bang_ok=False)
        out.append(mk_cut(mk_lolli_r(mk_axiom(x)), right, t))

    # one-bang cuts: a box against each of the four !-consumers
    bodies = [One(), Lolli(A, A), Lolli(_B, _B)]
    for body, shape, _rep in itertools.product(
        bodies, ("der", "weak", "ctr", "prom"), range(5)
    ):
        closed = mk_one_r() if isinstance(body, One) else mk_lolli_r(mk_axiom(body.ante))
        left = mk_prom(closed)
        bang = Bang(body)
        if shape == "der":
            q, t, _ = _decorate(rng, mk_axiom(body), 0, bang_ok=False)
            right = mk_der(q, t)
        elif shape == "weak":
            q, _, _ = _decorate(rng, mk_axiom(rng.choice((A, _B))), -1, False)
            t = rng.randint(0, len(q.conclusion.context))
            right = mk_weak(q, t, bang)
        elif shape == "ctr":
            q, _, _ = _decorate(rng, mk_axiom(rng.choice((A, _B))), -1, False)
            t = rng.randint(0, len(q.conclusion.context))
            right = mk_ctr(mk_weak(mk_weak(q, t, bang), t, bang), t)
        else:
            right = mk_prom(mk_der(mk_axiom(body), 0))
            t = 0
        if rng.random() < 0.5:
            right, t, _ = _decorate(rng, right, t, bang_ok=False, rounds=1)
        out.append(mk_cut(left, right, t))

    # cuts landing beside (not on) a pairing or application on the right
    for _ in range(20):
        x, g = rng.choice(_ATOMS), rng.choice(_ATOMS)
        if rng.random() < 0.5:
            right = mk_tensor_r(mk_axiom(x), mk_axiom(g))
            t = rng.choice([0, 1])
            f = (x, g)[t]
        else:
            # context here is (x, x ⊸ g): cut either into the argument
            # slot or against the arrow itself
            right = mk_lolli_l(mk_axiom(x), mk_axiom(g), 0)
            t = rng.choice([0, 1])
            f = x if t == 0 else Lolli(x, g)
        out.append(mk_cut(_prove(rng, f), right, t))

    # the remaining principal pairs and bang bookkeeping off the cut path
    for _ in range(25):
        x, g = rng.choice(_ATOMS), rng.choice(_ATOMS)
        kind = rng.randrange(6)
        if kind == 0:  # pairing meets unpairing
            left = mk_tensor_r(_prove(rng, x), _prove(rng, g))
            right = mk_tensor_l(mk_tensor_r(mk_axiom(x), mk_axiom(g)), 0)
            out.append(mk_cut(left, right, 0))
        elif kind == 1:  # unit introduction meets unit elimination
            q, _, _ = _decorate(rng, mk_axiom(x), -1, False)
            i = rng.randint(0, len(q.conclusion.context))
            out.append(mk_cut(mk_one_r(), mk_one_l(q, i), i))
        elif kind == 2:  # an unboxing beside the cut slot
            f = Tensor(x, g)
            left = mk_tensor_r(mk_axiom(x), mk_axiom(g))
            q = mk_tensor_r(mk_axiom(rng.choice((A, _B))), mk_axiom(f))
            out.append(mk_cut(left, mk_der(q, 0), 1))
        elif kind == 3:  # a duplication beside the cut slot
            f = Tensor(x, g)
            left = mk_tensor_r(mk_axiom(x), mk_axiom(g))
            bang = Bang(rng.choice((A, _B)))
            q = mk_weak(mk_weak(mk_axiom(f), 0, bang), 0, bang)
            out.append(mk_cut(left, mk_ctr(q, 0), 1))
        elif kind == 4:  # the left premise ends in an unboxing
            left = mk_der(mk_one_l(mk_axiom(x), 0), 0)
            right, t, _ = _decorate(rng, mk_axiom(x), 0, False, rounds=1)
            out.append(mk_cut(left, right, t))
        else:  # the left premise ends in a duplication
            bang = Bang(rng.choice((A, _B)))
            left = mk_ctr(mk_weak(mk_weak(_prove(rng, x), 0, bang), 0, bang), 0)
            right, t, _ = _decorate(rng, mk_axiom(x), 0, False, rounds=1)
            out.append(mk_cut(left, right, t))

    return out


def _mentions_bang(f):
    if isinstance(f, Bang):
        return True
    if isinstance(f, (Tensor, Lolli)):
        return _mentions_bang(f.left if isinstance(f, Tensor) else f.ante) or (
            _mentions_bang(f.right if isinstance(f, Tensor) else f.cons)
        )
    return False


def _all_formulas(p):
    stack, out = [p], []
    while stack:
        node = stack.pop()
        out.extend(node.conclusion.context)
        out.append(node.conclusion.conclusion)
        stack.extend(node.premises)
    return out


@_criterion("06 every rewrite step is sound on a 200-proof corpus")
def test_06_rewrite_soundness_on_a_generated_corpus():
    rng = random.Random(66)
    corpus = _corpus(rng)

    checked = 0
    bang_cuts = 0
    for p0 in corpus:
        assert _kernelref.validate(p0) == []
        assert p0.cut_count == 1
        inputs = probe_inputs(p0, _ASG6)
        if len(inputs) > _PROBE_CAP:
            continue
        if any(_mentions_bang(f) for f in _all_formulas(p0)):
            bang_cuts += 1
        cspace = den_formula(p0.conclusion.conclusion, _ASG6)
        baseline = [den_apply(p0, v, _ASG6) for v in inputs]
        cur = p0
        while True:
            nxt = step(cur)
            if nxt is None:
                break
            cur, _info = nxt
            assert cur.conclusion == p0.conclusion
            for v, want in zip(inputs, baseline):
                assert values_agree(den_apply(cur, v, _ASG6), want, cspace)
        assert is_cut_free(cur)
        checked += 1
    assert checked >= 200
    assert bang_cuts >= 50  # both flavors are well represented
    assert checked - bang_cuts >= 100


# ---------------------------------------------------------------------------
# 07 — the addition and multiplication grid


_GRID = [
    (m, n)
    for m in range(9)
    for n in range(9)
    if m + n <= 8 and m * n <= 12
]


def _numeral_probe_kets():
    return standard_probes(E_SPACE)


def _numeral_table(p):
    h = den_apply(p, Scalar(Fraction(1)), ASG)
    return [
        tuple(flatten(force(apply_hom(h, k), E_SPACE), E_SPACE))
        for k in _numeral_probe_kets()
    ]


@lru_cache(maxsize=None)
def _church_table(k: int):
    return _numeral_table(church(k, A))


@_criterion("07 addition and multiplication across the whole grid")
def test_07_addition_and_multiplication_grid():
    assert len(_GRID) == 42
    rng = random.Random(7)
    for m, n in _GRID:
        for make, k in ((add_cut, m + n), (mult_cut, m * n)):
            res = normalize(make(m, n, A))
            assert not res.exhausted and is_cut_free(res.proof)
            assert res.proof.conclusion == church(k, A).conclusion
            assert _numeral_table(res.proof) == _church_table(k)
            al = _rand_mat(rng)
            assert _as_rows(nl(res.proof, al, ASG)) == _mat_pow(al, k)


# ---------------------------------------------------------------------------
# 08 — exponentials and the tower


@_criterion("08 exponential towers normalize to the right numerals")
def test_08_exponential_and_tower():
    rng = random.Random(8)
    for n in range(4):
        res = normalize(exp_cut(2, n, A))
        assert not res.exhausted and is_cut_free(res.proof)
        al = _rand_mat(rng)
        assert _as_rows(nl(res.proof, al, ASG)) == _mat_pow(al, 2**n)
    for n, e in ((0, 1), (1, 2), (2, 4)):
        res = normalize(hypexp_cut(n))
        assert not res.exhausted and is_cut_free(res.proof)
        assert proof_eq(exchange_normalize(res.proof), church2(e))


# ---------------------------------------------------------------------------
# 09 — the tangent of squaring is the anticommutator


@_criterion("09 tangent of squaring is the anticommutator")
def test_09_tangent_of_the_squaring_map():
    body = church_body(2, A)
    rng = random.Random(9)
    for _ in range(20):
        al, nu = _rand_mat(rng), _rand_mat(rng)
        got = _as_rows(tangent(body, al, nu, ASG))
        # oracle: the t-linear coefficient of (α + tν)²
        expansion = _poly_mul([al, nu], [al, nu])
        assert got == expansion[1]
        assert got == _mat_add(_matmul(nu, al), _matmul(al, nu))


# ---------------------------------------------------------------------------
# 10 — axioms are identities for cut


@_criterion("10 axiom cuts are identities across the library")
def test_10_axiom_cuts_are_identities():
    for _name, pi in library().items():
        seq = pi.conclusion
        res = normalize(mk_cut(pi, mk_axiom(seq.conclusion), 0))
        assert len(res.trace.steps) == 1
        assert res.proof == pi
        if seq.context:
            res2 = normalize(mk_cut(mk_axiom(seq.context[0]), pi, 0))
            assert len(res2.trace.steps) == 1
            assert res2.proof == pi
