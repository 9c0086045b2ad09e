"""The ket-branching evaluator, kept as the reference for the tests.

`linlog.semantics` evaluates a ket |ν₁…ν_s⟩_P as the t₁⋯t_s
coefficient of the group-like element at P + Σ tᵢνᵢ.  These are the
plans it replaced: a ! slot holds canonical kets (`BangElem`),
contraction runs its body once per term of the coproduct, dereliction
and weakening read the kets' arguments, and promotion merges the
context, lifts φ over the merged ket by set partitions (`lift`) and
splits each pure ket back into the context (`split`).  Inside these
plans a finite value is a flat tuple of exact rationals.

`den_apply`, `apply_hom` and `force` mirror the public functions of the
same name; the tests check that the jet evaluator gives what they give.
Their Suspended and ZeroMap values are this module's own.

`_bilinear` and `_collect` are the jet arithmetic the evaluator used
before it summed its products in place: ``_bilinear(_matvec, m, x)`` is
the reference for a matrix jet on a vector jet, and `_collect` for a
sum of (monomial, coordinates) pairs.

`materialize_per_column` is the jet evaluator's materialization before
it seeded every column at once: the body of a `linlog.semantics`
abstraction evaluated once per basis vector of its domain.

`matrix_times_by_column` is the jet evaluator's ⊸L product before it
listed each matrix jet's nonzero entries once: it slices a column of
the matrix per coordinate of the vector and tests every entry for zero.
`support_walk` is its `_support` before each closure carried the
variables of its captured context: a walk over every captured context,
nested closures included.

`nonlinear_by_kets` is `nl` and `tangent` before they entered the
group-like element g(P + t·Q) directly: the direction expanded by
`coalgebra.ket` into one basis ket per nonzero entry, each its own
variable, through the public `den_apply`, `apply_hom` and `force`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import Callable

from linlog.coalgebra import (
    BangElem,
    BangSp,
    HomSp,
    TensorElem,
    Vect,
    bang_add,
    bang_scale,
    coproduct,
    counit,
    exact,
    ket,
    lift,
    merge,
    space_dim,
    split,
    zero_bang,
)
from linlog.formula import Bang, Lolli, fold
from linlog.proof import (
    Axiom,
    Contraction,
    Cut,
    Dereliction,
    Exchange,
    ForallL,
    ForallR,
    LolliL,
    LolliR,
    OneL,
    OneR,
    Promotion,
    TensorL,
    TensorR,
    Weakening,
)
from linlog import semantics
from linlog.semantics import SemanticsError, UnsupportedSpace, _asg_key, _den_formula


@dataclass(frozen=True)
class Suspended:
    node: object
    env: tuple
    asg: tuple
    plan: Callable = field(compare=False, repr=False)


@dataclass(frozen=True)
class ZeroMap:
    space: HomSp


def _basis(space):
    d = space_dim(space)
    if d is None:
        raise UnsupportedSpace("basis enumeration needs a finite space")
    return tuple(tuple(int(i == k) for i in range(d)) for k in range(d))


def _zero(space):
    if isinstance(space, BangSp):
        return zero_bang(space.inner)
    d = space_dim(space)
    if d is not None:
        return (0,) * d
    if isinstance(space, HomSp):
        return ZeroMap(space)
    raise UnsupportedSpace("zero value needs a finite space")


def _matvec(m, x):
    """m·x for a hom value m (flat, rows first) and coordinates x."""
    dd = len(x)
    return tuple([sum(map(mul, m[i : i + dd], x)) for i in range(0, len(m), dd)])


def _collect(pairs):
    """The jet of a sum of (monomial, coordinates) pairs."""
    acc = {}
    for k, z in pairs:
        prev = acc.get(k)
        acc[k] = z if prev is None else tuple(map(add, prev, z))
    return tuple([(k, z) for k, z in acc.items() if any(z)])


def _bilinear(f, a, b):
    """The bilinear map ``f`` on coordinates, extended to jets: products
    of monomials that share a variable vanish, since tᵢ² = 0."""
    return _collect((ma | mb, f(x, y)) for ma, x in a for mb, y in b if not ma & mb)


def _apply(psi, a, dom_of):
    if type(psi) is Suspended:
        return psi.plan((a,) + psi.env)
    if type(psi) is ZeroMap:
        return _zero(psi.space.cod)
    return _matvec(psi, a if type(a) is tuple else _flat(a, dom_of()))


def _materialize(v, space):
    if not isinstance(space, HomSp) or space_dim(space) is None:
        raise UnsupportedSpace("materializing an abstraction needs a finite space")
    cols = [_flat(v.plan((e,) + v.env), space.cod) for e in _basis(space.dom)]
    return tuple(itertools.chain.from_iterable(zip(*cols)))


def _flat(v, space):
    if type(v) is tuple:
        return v
    if type(v) is Suspended:
        return _materialize(v, space)
    raise UnsupportedSpace("no coordinates")


def _scale(c, v, space):
    if c == 0:
        return _zero(space)
    if type(v) is BangElem:
        return bang_scale(c, v)
    if type(v) is ZeroMap:
        return v
    return tuple([c * x for x in _flat(v, space)])


def _add(a, b, space):
    if type(a) is BangElem:
        return bang_add(a, b)
    if type(a) is ZeroMap:
        return b
    if type(b) is ZeroMap:
        return a
    return tuple(map(add, _flat(a, space), _flat(b, space)))


def _acc(out, c, r, space_of):
    if c != 1:
        r = _scale(c, r, space_of())
    return r if out is None else _add(out, r, space_of())


_PLANS: dict = {}


def _plan(p, asg):
    key = (p, asg)
    if key not in _PLANS:
        _PLANS[key] = fold(p, lambda q, subs: _compile(q, asg, subs))
    return _PLANS[key]


def _compile(p, asg, subs):
    rule, premises = p.rule, p.premises
    kind = type(rule)
    body = subs[0] if subs else None
    at = getattr(rule, "at", None)
    n = len(premises[0].conclusion.context) if premises else 0

    def cs():
        return _den_formula(p.conclusion.conclusion, asg)

    if kind is Axiom:
        return lambda env: env[0]
    if kind is OneR:
        return lambda env: (1,)
    if kind in (ForallR, ForallL):

        def second_order(env):
            raise UnsupportedSpace("second-order proofs have no finite denotation")

        return second_order
    if kind is LolliR:
        return lambda env: Suspended(p, env, asg, body)
    if kind is Exchange:
        return lambda env: body(env[:at] + (env[at + 1], env[at]) + env[at + 2 :])
    if kind is Cut:
        left, right = subs
        return lambda env: right(env[:at] + (left(env[at : at + n]),) + env[at + n :])
    if kind is LolliL:
        left, right = subs

        def lolli_l(env):
            dom = lambda: _den_formula(premises[0].conclusion.conclusion, asg)
            b = _apply(env[at + n], left(env[at : at + n]), dom)
            if type(b) is tuple and not any(b):
                return _zero(cs())
            return right(env[:at] + (b,) + env[at + n + 1 :])

        return lolli_l
    if kind is Dereliction:

        def derelict(env):
            basis = _basis(_den_formula(premises[0].conclusion.context[at], asg))
            w = None
            for (base, args), c in env[at].terms:
                if len(args) < 2:
                    v = basis[args[0]] if args else base
                    v = tuple([c * t for t in v])
                    w = v if w is None else tuple(map(add, w, v))
            if w is None or not any(w):
                return _zero(cs())
            return body(env[:at] + (w,) + env[at + 1 :])

        return derelict
    if kind is Contraction:

        def contract(env):
            x = env[at]
            out = None
            for (kl, kr), c in coproduct(x).terms:
                pair = (BangElem(x.space, ((kl, 1),)), BangElem(x.space, ((kr, 1),)))
                out = _acc(out, c, body(env[:at] + pair + env[at + 1 :]), cs)
            return _zero(cs()) if out is None else out

        return contract
    if kind in (Weakening, OneL):
        weight = counit if kind is Weakening else lambda v: v[0]

        def drop(env):
            c = weight(env[at])
            r = body(env[:at] + env[at + 1 :])
            return r if c == 1 else _scale(c, r, cs())

        return drop
    if kind is TensorR:
        left, right = subs

        def pair(env):
            space = cs()
            if space_dim(space) is None:
                raise UnsupportedSpace("a tensor-pairing value needs a finite space")
            xa = _flat(left(env[:n]), space.left)
            xb = _flat(right(env[n:]), space.right)
            return tuple([a * b for a in xa for b in xb])

        return pair
    if kind is TensorL:

        def unpair(env):
            space = _den_formula(p.conclusion.context[at], asg)
            if space_dim(space) is None:
                raise UnsupportedSpace("splitting a tensor hypothesis needs a finite space")
            left, right = _basis(space.left), _basis(space.right)
            out = None
            for idx, c in enumerate(env[at]):
                if c:
                    i, j = divmod(idx, len(right))
                    r = body(env[:at] + (left[i], right[j]) + env[at + 1 :])
                    out = _acc(out, c, r, cs)
            return _zero(cs()) if out is None else out

        return unpair
    if kind is Promotion:
        boxed = premises[0].conclusion.conclusion

        def promote(env):
            inner = _den_formula(boxed, asg)
            if space_dim(inner) is None:
                raise UnsupportedSpace("boxing a proof needs a finite space")

            def phi(x):
                return Vect(inner, _flat(body(split(x)), inner))

            return lift(phi, merge(env), out_space=inner)

        return promote
    raise TypeError(f"unknown rule {rule!r}")


# ---------------------------------------------------------------------------
# The boundary


def _in(v, space):
    if type(v) is BangElem:
        terms = tuple(((tuple(map(exact, b)), a), exact(c)) for (b, a), c in v.terms)
        return BangElem(v.space, terms)
    if type(v) in (Suspended, ZeroMap):
        return v
    return tuple(map(exact, v.coords))


def _slot(desc, space):
    if isinstance(space, BangSp):
        return BangElem(space.inner, ((desc, 1),))
    return _basis(space)[desc]


def den_apply(p, input, asg):
    """⟦p⟧ on one element of ⟦context⟧, in this module's values: a flat
    tuple, a BangElem, a Suspended or a ZeroMap."""
    key = _asg_key(asg)
    ctx = p.conclusion.context
    spaces = [_den_formula(f, key) for f in ctx]
    if not ctx:
        branches = [(exact(input.coords[0]), ())]
    elif type(input) is TensorElem:
        branches = [
            (exact(c), tuple(_slot(d, s) for d, s in zip(k, spaces))) for k, c in input.terms
        ]
    else:
        branches = [(1, (_in(input, spaces[0]),))]
    cs = lambda: _den_formula(p.conclusion.conclusion, key)
    out = None
    for c, env in branches:
        out = _acc(out, c, _plan(p, key)(env), cs)
    return _zero(cs()) if out is None else out


def apply_hom(psi, a, hom):
    """ψ(a) for ψ a value of this module (or a public hom `Vect`) in ``hom``."""
    if type(psi) is Vect:
        psi = _in(psi, hom)
    return _apply(psi, _in(a, hom.dom), lambda: hom.dom)


def force(v, space):
    """A value of this module as a public value: a `Vect` of Fractions
    over a finite space, a `BangElem` of Fractions over !V."""
    if type(v) is BangElem:
        terms = (((tuple(map(Fraction, b)), a), Fraction(c)) for (b, a), c in v.terms)
        return BangElem(v.space, tuple(terms))
    if isinstance(space, HomSp) and space_dim(space) is None:
        raise SemanticsError("an infinite hom value has no coordinates")
    return Vect(space, tuple(map(Fraction, _flat(v, space))))


def materialize_per_column(v: semantics.Suspended) -> tuple:
    """The matrix jet of a `linlog.semantics` Suspended value: column j
    is the body evaluated on the constant basis vector eⱼ, and each
    output monomial's row interleaves its columns."""
    space = v.space
    cols = [
        semantics._flat(semantics._call(v, ((0, e),)))
        for e in semantics._basis(space.dom)
    ]
    dd = len(cols)
    rows: dict[int, list] = {}
    for j, col in enumerate(cols):
        for k, y in col:
            row = rows.get(k)
            if row is None:
                row = rows[k] = [0] * (len(y) * dd)
            row[j::dd] = y
    return tuple([(k, tuple(row)) for k, row in rows.items()])


def matrix_times_by_column(m: tuple, x: tuple) -> tuple:
    """m·x for a jet m of a hom space (flat, rows first) and a jet x of
    its domain.  Only terms whose monomials share no variable meet, and
    their products are summed in place, column by column: over the
    nonzero coordinates of x and the nonzero entries of m."""
    if not x:
        return ()
    d = len(x[0][1])
    acc: dict[int, list] = {}
    for ma, a in m:
        n = len(a) // d
        for mb, y in x:
            if ma & mb:
                continue
            k = ma | mb
            z = acc.get(k)
            if z is None:
                z = acc[k] = [0] * n
            for j, yj in enumerate(y):
                if yj:
                    i = 0
                    for aij in a[j::d]:
                        if aij:
                            z[i] += aij * yj
                        i += 1
    return semantics._jet(acc)


def support_walk(v: semantics.Suspended) -> int:
    """The variables the closures' captured contexts and coefficients hold."""
    mask, stack = 0, [v]
    while stack:
        x = stack.pop()
        if type(x) is tuple:
            for m, _y in x:
                mask |= m
        elif type(x) is semantics.Closure:
            stack.extend(x.env)
        else:  # an R-combination
            stack.extend(j for term in x.terms for j in term)
    return mask


def nonlinear_by_kets(p, points, asg):
    """``nl(p, P, asg)`` for the points (P,), ``tangent(p, P, Q, asg)``
    for (P, Q): ⟦p⟧ on ``ket(P, [Q])``, or on the vacuum ``ket(P, [])``,
    through `den_apply` (and `apply_hom` for a proof of ⊢ !B ⊸ C), then
    `force` over C."""
    seq = p.conclusion
    if len(seq.context) == 1 and isinstance(seq.context[0], Bang):
        body, cons = seq.context[0].body, seq.conclusion
    elif not seq.context and isinstance(seq.conclusion, Lolli) and isinstance(
        seq.conclusion.ante, Bang
    ):
        body, cons = seq.conclusion.ante.body, seq.conclusion.cons
    else:
        raise SemanticsError("expected a proof of !B ⊢ C or of ⊢ !B -o C")
    space = semantics.den_formula(body, asg)
    base, *args = (Vect(space, semantics._point_coords(x, space)) for x in points)
    x = ket(base, args)
    if seq.context:
        out = semantics.den_apply(p, x, asg)
    else:
        out = semantics.apply_hom(semantics.den_apply(p, semantics.Scalar(Fraction(1)), asg), x)
    return semantics.force(out, semantics.den_formula(cons, asg))
