"""Evaluation of proofs in finite-dimensional vector-space semantics.

A formula denotes a space: variables get chosen finite dimensions, `1`
the ground field, `*` a tensor product, `-o` a hom space, `!` the
cofree coalgebra from `coalgebra`.  A proof of A₁, …, A_g ⊢ C denotes a
linear map ⟦A₁⟧ ⊗ … ⊗ ⟦A_g⟧ → ⟦C⟧; `den_apply` evaluates that map on
one explicit element, exactly.

Staged evaluation.  `_plan(p, asg)` compiles a proof once per sorted
dimension assignment, bottom-up and without recursion, turning each
node into a closure over its static facts: its rule's position, its
premises' plans, and the spaces of its conclusion and of the slots it
touches, with their dimensions, zeros and bases.  Those spaces are resolved on first use, so a missing
dimension or a quantified formula raises exactly where evaluation
needs it.  A plan maps a context tuple (one value per slot) to the
value of the node's conclusion, and restores multilinearity by
branching: contraction over the coproduct's terms, tensor-left over
coordinates, `den_apply` over the pure terms of a `Pair`.  A zero slot
value makes the result zero, so those branches are pruned.

Inside plans a value's representation is fixed by its static space:

  tuple[Rational, ...]  element of a finite space (the unit, a base or
                        tensor space, a materialized hom), flat over
                        the standard basis; a hom is rows first, rows
                        indexed by the codomain.  A Rational is exact:
                        an `int` when integral, else a `Fraction`
  BangElem              element of !V, V finite (canonical kets)
  Suspended             element of a hom space as an unapplied
                        abstraction: the ⊸R node, its captured context,
                        the assignment and the plan of its body;
                        materialized to a tuple only when a finite hom
                        value is added, scaled or read as coordinates
  ZeroMap               the zero of a hom space that has no matrix

The public functions (`den_apply`, `apply_hom`, `force`, `flatten`,
`den_matrix`, `nl`, `tangent`, `probe_equal`) take and return
`SemValue`s, checking each input against its slot's space.  Numbers
come in as `int`s or `Fraction`s (anything else, a float say, is a
`SemanticsError`) and go out as `Fraction`s:

  Scalar     element of the ground field
  Vector     element of a finite base/tensor space (explicit coords)
  Matrix     element of a finite hom space (rows indexed by codomain)
  BangVal    element of !V, V finite (canonical ket combination)
  Pair       element of a product of context slots (sum of pure terms)
  Suspended, ZeroMap  as above

There are no floats and no tolerances anywhere.

Limits, enforced honestly with `UnsupportedSpace`: quantified formulas
denote nothing here (second-order proofs are syntax/rewriting only),
and no ket may be based in an infinite space, so promotion requires a
finite boxed space.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Callable, Mapping, Sequence, TypeVar
from weakref import WeakKeyDictionary

from .coalgebra import (
    BangElem,
    BangSp,
    BaseSp,
    HomSp,
    Rational,
    Space,
    TensorSp,
    UnitSp,
    Vect,
    bang_add,
    bang_scale,
    coproduct,
    counit,
    exact,
    is_finite,
    ket,
    lift,
    merge,
    space_dim,
    space_label,
    split,
    tensor_from_terms,
    TensorElem,
    vacuum,
    zero_bang,
)
from .formula import Bang as BangF
from .formula import Forall, Formula, Lolli, One, Sequent, Tensor, Var, children, fold
from .proof import (
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
    Proof,
    TensorL,
    TensorR,
    Weakening,
)
from .sexpr import format_coords, format_fraction, format_ket


class SemanticsError(Exception):
    pass


class UnsupportedSpace(SemanticsError):
    """Raised when evaluation would need an infinite-dimensional basis
    (a ket based in an infinite space, a second-order formula, …)."""


#: A dimension assignment in sorted, hashable form.
AsgKey = tuple[tuple[str, int], ...]


def _asg_key(asg: Mapping[str, int]) -> AsgKey:
    return tuple(sorted(asg.items()))


# ---------------------------------------------------------------------------
# Spaces of formulas


def den_formula(a: Formula, asg: Mapping[str, int]) -> Space:
    """The space of a formula under a dimension assignment."""
    return _den_formula(a, _asg_key(asg))


#: The space each connective builds from the spaces of its operands.
_SPACE_OF = {One: UnitSp, Tensor: TensorSp, Lolli: HomSp, BangF: BangSp}


#: Each formula's spaces by assignment, weak in the formula as
#: ``formula._FREE`` is, so that remembering one keeps no formula alive.
_SPACES: WeakKeyDictionary = WeakKeyDictionary()


def _den_formula(a: Formula, asg: AsgKey) -> Space:
    known = _SPACES.get(a)
    if known is not None and asg in known:
        return known[asg]

    def space(b: Formula, parts: list[Space]) -> Space:
        if type(b) is Var:
            for name, dim in asg:
                if name == b.name:
                    return BaseSp(b.name, dim)
            raise SemanticsError(f"no dimension assigned to variable {b.name}")
        if type(b) is Forall:
            raise UnsupportedSpace("quantified formulas have no finite denotation")
        return _SPACE_OF[type(b)](*parts)

    # left to right, and never into a quantifier's body
    out = fold(a, space, lambda b: () if type(b) is Forall else children(b))
    _SPACES.setdefault(a, {})[asg] = out
    return out


def _require_finite(space: Space, what: str) -> int:
    d = space_dim(space)
    if d is None:
        raise UnsupportedSpace(f"{what} needs a finite space, got {space_label(space)}")
    return d


@lru_cache(maxsize=1024)
def _basis(space: Space) -> tuple[tuple[int, ...], ...]:
    """The standard basis of a finite space, as flat coordinate tuples."""
    d = _require_finite(space, "basis enumeration")
    return tuple(tuple(int(i == k) for i in range(d)) for k in range(d))


@lru_cache(maxsize=1024)
def _zero(space: Space) -> Value:
    if isinstance(space, BangSp):
        return zero_bang(space.inner)
    d = space_dim(space)
    if d is not None:
        return (0,) * d
    if isinstance(space, HomSp):
        return ZeroMap(space)
    raise UnsupportedSpace(f"zero value needs a finite space, got {space_label(space)}")


# ---------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class Scalar:
    value: Fraction


@dataclass(frozen=True)
class Vector:
    vec: Vect


@dataclass(frozen=True)
class Matrix:
    space: HomSp
    rows: tuple[tuple[Fraction, ...], ...]  # rows[i][j]: cod index i, dom index j


@dataclass(frozen=True)
class BangVal:
    elem: BangElem


@dataclass(frozen=True)
class Pair:
    elem: TensorElem


@dataclass(frozen=True)
class Suspended:
    """An unapplied abstraction.  Two closures over the same node and
    context differ when their assignments do; the plan is derived from
    the node and the assignment, so it takes no part in equality."""

    node: Proof  # a validated abstraction (⊸R) node
    env: tuple["Value", ...]  # the captured context, in plan representation
    asg: AsgKey
    plan: Callable[[tuple], "Value"] = field(compare=False, repr=False)


@dataclass(frozen=True)
class ZeroMap:
    """The zero of a hom space that has no matrix (an infinite one):
    applied to anything, it gives the zero of the codomain."""

    space: HomSp


SemValue = Scalar | Vector | Matrix | BangVal | Pair | Suspended | ZeroMap
#: A value inside the plans (see the module docstring).
Value = tuple | BangElem | Suspended | ZeroMap


def matrix(space: HomSp, rows: Sequence[Sequence]) -> Matrix:
    return Matrix(space, tuple(tuple(Fraction(c) for c in row) for row in rows))


def unflatten(coords: Sequence[Fraction], space: Space) -> SemValue:
    if isinstance(space, UnitSp):
        return Scalar(coords[0])
    if isinstance(space, HomSp):
        dd = space_dim(space.dom)
        rows = tuple(
            tuple(coords[i * dd : (i + 1) * dd]) for i in range(space_dim(space.cod))
        )
        return Matrix(space, rows)
    return Vector(Vect(space, tuple(coords)))


# ---------------------------------------------------------------------------
# Arithmetic on plan values


def _matvec(m: tuple[Rational, ...], x: tuple[Rational, ...]) -> tuple[Rational, ...]:
    """m·x for a hom value m (flat, rows first) and coordinates x."""
    dd = len(x)
    return tuple([sum(map(mul, m[i : i + dd], x)) for i in range(0, len(m), dd)])


def _apply(psi: Value, a: Value, dom_of: Callable[[], Space]) -> Value:
    """ψ(a) for a value ψ of a hom space; its domain is resolved only to
    materialize an abstraction passed as the argument of a matrix."""
    if type(psi) is Suspended:
        return psi.plan((a,) + psi.env)
    if type(psi) is ZeroMap:
        return _zero(psi.space.cod)
    return _matvec(psi, a if type(a) is tuple else _flat(a, dom_of()))


def _materialize(v: Suspended, space: Space) -> tuple[Rational, ...]:
    if not isinstance(space, HomSp):
        raise SemanticsError("abstraction value in a non-hom space")
    _require_finite(space.dom, "materializing an abstraction")
    _require_finite(space.cod, "materializing an abstraction")
    cols = [_flat(v.plan((e,) + v.env), space.cod) for e in _basis(space.dom)]
    return tuple(itertools.chain.from_iterable(zip(*cols)))


def _flat(v: Value, space: Space) -> tuple[Rational, ...]:
    """Coordinates of a plan value over the standard basis of ``space``."""
    if type(v) is tuple:
        return v
    if type(v) is Suspended:
        return _materialize(v, space)
    raise UnsupportedSpace(f"no coordinates over {space_label(space)}")


def _scale(c: Rational, v: Value, space: Space) -> Value:
    if c == 0:
        return _zero(space)
    if type(v) is BangElem:
        return bang_scale(c, v)
    if type(v) is ZeroMap:
        return v
    return tuple([c * x for x in _flat(v, space)])


def _add(a: Value, b: Value, space: Space) -> Value:
    if type(a) is BangElem:
        return bang_add(a, b)
    if type(a) is ZeroMap:
        return b
    if type(b) is ZeroMap:
        return a
    return tuple(map(add, _flat(a, space), _flat(b, space)))


def _acc(out: Value | None, c: Rational, r: Value, space_of: Callable[[], Space]) -> Value:
    """out + c·r, where out is None before the first term; the space is
    resolved only when a sum or a scaling needs it."""
    if c != 1:
        r = _scale(c, r, space_of())
    return r if out is None else _add(out, r, space_of())


# ---------------------------------------------------------------------------
# Plans


Plan = Callable[[tuple], Value]


T = TypeVar("T")


def _once(f: Callable[[], T]) -> Callable[[], T]:
    """``f``, called on first use and remembered; an error is raised
    again on every call.  (Cheaper to build than `functools.cache`,
    which matters because every compiled node builds a few.)"""
    box: list = []

    def get() -> T:
        if not box:
            box.append(f())
        return box[0]

    return get


def _finite(space: Space, what: str) -> Space:
    _require_finite(space, what)
    return space


def _first(env: tuple) -> Value:
    return env[0]


def _second_order(env: tuple) -> Value:
    raise UnsupportedSpace("second-order proofs have no finite denotation")


# One entry per proof a public function evaluates.  The bench workloads
# keep 6 to 17 such proofs in use and the acceptance arithmetic grid 58,
# so 256 evicts none of them and still bounds the plans kept alive.
@lru_cache(maxsize=256)
def _plan(p: Proof, asg: AsgKey) -> Plan:
    """The plan of a proof under one assignment (see the module
    docstring), compiled by :func:`fold`, so compiling takes no
    recursion however deep the proof is; a shared subproof is compiled
    once."""
    return fold(p, lambda q, subs: _compile(q, asg, subs))


def _compile(p: Proof, asg: AsgKey, subs: list[Plan]) -> Plan:
    """Compile one node, given its premises' plans.

    Static facts are `_once` functions, resolved on first use."""
    rule, premises = p.rule, p.premises
    kind = type(rule)
    body = subs[0] if subs else None
    at = getattr(rule, "at", None)
    n = len(premises[0].conclusion.context) if premises else 0
    cs = _once(lambda: _den_formula(p.conclusion.conclusion, asg))
    zero = _once(lambda: _zero(cs()))

    if kind is Axiom:
        return _first
    if kind is OneR:
        return lambda env: (1,)
    if kind in (ForallR, ForallL):
        return _second_order
    if kind is LolliR:
        return lambda env: Suspended(p, env, asg, body)
    if kind is Exchange:
        return lambda env: body(env[:at] + (env[at + 1], env[at]) + env[at + 2 :])
    if kind is Cut:
        left, right = subs
        return lambda env: right(env[:at] + (left(env[at : at + n]),) + env[at + n :])
    if kind is LolliL:
        left, right = subs
        dom = _once(lambda: _den_formula(premises[0].conclusion.conclusion, asg))

        def lolli_l(env):
            b = _apply(env[at + n], left(env[at : at + n]), dom)
            if type(b) is tuple and not any(b):
                return zero()
            return right(env[:at] + (b,) + env[at + n + 1 :])

        return lolli_l
    if kind is Dereliction:
        basis = _once(lambda: _basis(_den_formula(premises[0].conclusion.context[at], asg)))

        def derelict(env):
            # d|o⟩_P = P, d|ν⟩_P = ν, kets with two or more arguments ↦ 0
            w = None
            for (base, args), c in env[at].terms:
                if len(args) < 2:
                    v = basis()[args[0]] if args else base
                    if c != 1:
                        v = tuple([c * t for t in v])
                    w = v if w is None else tuple(map(add, w, v))
            if w is None or not any(w):
                return zero()
            return body(env[:at] + (w,) + env[at + 1 :])

        return derelict
    if kind is Contraction:

        def contract(env):
            x = env[at]
            head, tail = env[:at], env[at + 1 :]
            out = None
            for (kl, kr), c in coproduct(x).terms:
                pair = (BangElem(x.space, ((kl, 1),)), BangElem(x.space, ((kr, 1),)))
                out = _acc(out, c, body(head + pair + tail), cs)
            return zero() if out is None else out

        return contract
    if kind in (Weakening, OneL):
        # the counit of a ! slot, the coordinate of a unit slot
        weight = counit if kind is Weakening else lambda v: v[0]

        def drop(env):
            c = weight(env[at])
            r = body(env[:at] + env[at + 1 :])
            return r if c == 1 else _scale(c, r, cs())

        return drop
    if kind is TensorR:
        left, right = subs
        space = _once(lambda: _finite(cs(), "a tensor-pairing value"))

        def pair(env):
            xa = _flat(left(env[:n]), space().left)
            xb = _flat(right(env[n:]), space().right)
            return tuple([a * b for a in xa for b in xb])

        return pair
    if kind is TensorL:

        @_once
        def bases():
            space = _den_formula(p.conclusion.context[at], asg)
            space = _finite(space, "splitting a tensor hypothesis")
            return _basis(space.left), _basis(space.right)

        def unpair(env):
            left, right = bases()
            head, tail = env[:at], env[at + 1 :]
            out = None
            for idx, c in enumerate(env[at]):
                if c:
                    i, j = divmod(idx, len(right))
                    out = _acc(out, c, body(head + (left[i], right[j]) + tail), cs)
            return zero() if out is None else out

        return unpair
    if kind is Promotion:
        boxed = premises[0].conclusion.conclusion
        inner = _once(lambda: _finite(_den_formula(boxed, asg), "boxing a proof"))

        def phi(x: BangElem) -> Vect:
            # lift hands φ one pure ket, which split cuts into the context
            return Vect(inner(), _flat(body(split(x)), inner()))

        return lambda env: lift(phi, merge(env), out_space=inner())
    raise TypeError(f"unknown rule {rule!r}")


def _den_env(p: Proof, env: tuple, asg: AsgKey) -> Value:
    """⟦p⟧ on one context tuple in plan representation: the entry from
    the public functions into the compiled plans."""
    return _plan(p, asg)(env)


# ---------------------------------------------------------------------------
# The public boundary


def _bang_terms(x: BangElem, num: Callable) -> tuple:
    """x's terms, with ``num`` applied to each base coordinate and coefficient."""
    return tuple(((tuple(map(num, base)), args), num(c)) for (base, args), c in x.terms)


def _exact_in(q: object) -> Rational:
    """An input number in plan form; anything but an `int` or a
    `Fraction` (a float, say) is a SemanticsError."""
    if not isinstance(q, (int, Fraction)):
        raise SemanticsError(f"{q!r} is not an exact rational (an int or a Fraction)")
    return exact(q)


def _bang_in(x: BangElem, inner: Space) -> BangElem:
    d = space_dim(inner)
    for (base, args), _c in x.terms:
        if d is None:
            raise UnsupportedSpace(f"no ket may be based in {space_label(inner)}")
        if len(base) != d or any(not 0 <= i < d for i in args):
            raise SemanticsError(f"ket does not live over {space_label(inner)}")
    return BangElem(inner, _bang_terms(x, _exact_in))


def _coordinates(n: int) -> str:
    return f"{n} coordinate" if n == 1 else f"{n} coordinates"


def _internal(v: SemValue, space: Space) -> Value:
    """The plan representation of a public value in a slot of ``space``."""
    if type(v) is BangVal and isinstance(space, BangSp):
        return _bang_in(v.elem, space.inner)
    if type(v) in (Suspended, ZeroMap) and isinstance(space, HomSp):
        return v
    if type(v) is Scalar:
        coords: tuple = (v.value,)
    elif type(v) is Vector:
        coords = v.vec.coords
    elif type(v) is Matrix:
        coords = tuple(itertools.chain.from_iterable(v.rows))
    else:
        raise SemanticsError(f"a {type(v).__name__} is not an element of {space_label(space)}")
    d = _require_finite(space, "an explicit value")
    if len(coords) != d:
        raise SemanticsError(
            f"value has {_coordinates(len(coords))} but {space_label(space)} has dimension {d}"
        )
    return tuple(map(_exact_in, coords))


def _public(v: Value, space_of: Callable[[], Space]) -> SemValue:
    if type(v) is tuple:
        return unflatten(tuple(map(Fraction, v)), space_of())
    if type(v) is BangElem:
        return BangVal(BangElem(v.space, _bang_terms(v, Fraction)))
    return v


def _desc_value(desc, space: Space) -> Value:
    """The slot value a `Pair` term descriptor names: a basis vector, or
    a ket on a ! slot."""
    if isinstance(space, BangSp):
        return _bang_in(BangElem(space.inner, ((desc, 1),)), space.inner)
    basis = _basis(space)
    if not 0 <= desc < len(basis):
        raise SemanticsError(f"basis index {desc} out of range for dimension {len(basis)}")
    return basis[desc]


def _hom_space(psi: SemValue) -> HomSp:
    if type(psi) is Suspended:
        return _den_formula(psi.node.conclusion.conclusion, psi.asg)
    if type(psi) in (ZeroMap, Matrix):
        return psi.space
    if type(psi) is Vector and isinstance(psi.vec.space, HomSp):
        return psi.vec.space
    raise SemanticsError(f"cannot apply a {type(psi).__name__} as a hom value")


def force(v: SemValue, space: Space) -> SemValue:
    """Canonical representative of a value in its space: Scalar for the
    unit, Vector for base/tensor, Matrix for finite homs, BangVal for
    !V.  Materializes a Suspended abstraction; in an infinite hom space
    that raises UnsupportedSpace."""
    x = _internal(v, space)
    if type(x) is not BangElem:
        x = _flat(x, space)
    return _public(x, lambda: space)


def flatten(v: SemValue, space: Space) -> tuple[Fraction, ...]:
    """Coordinates of a value over the standard basis of a finite space."""
    return tuple(map(Fraction, _flat(_internal(v, space), space)))


def apply_hom(psi: SemValue, a: SemValue) -> SemValue:
    """Evaluation v ⊗ ψ ↦ ψ(v) of a hom-space value on an argument."""
    hom = _hom_space(psi)
    out = _apply(_internal(psi, hom), _internal(a, hom.dom), lambda: hom.dom)
    return _public(out, lambda: hom.cod)


def _ctx_spaces(seq: Sequent, asg: AsgKey) -> list[Space]:
    return [_den_formula(f, asg) for f in seq.context]


def den_apply(p: Proof, input: SemValue, asg: Mapping[str, int]) -> SemValue:
    """Evaluate ⟦p⟧ on one element of ⟦context⟧.

    For an empty context pass a Scalar; for a single hypothesis, the
    bare value; for several, a Pair whose terms span the slots.
    """
    key = _asg_key(asg)
    ctx = p.conclusion.context
    branches: list[tuple[Rational, tuple]]
    if len(ctx) == 0:
        if type(input) is not Scalar:
            raise SemanticsError("empty context takes a Scalar input")
        branches = [(_exact_in(input.value), ())]
    elif type(input) is Pair:
        spaces = _ctx_spaces(p.conclusion, key)
        if len(input.elem.factors) != len(ctx):
            raise SemanticsError("input arity does not match the context")
        branches = [
            (_exact_in(c), tuple(_desc_value(d, s) for d, s in zip(k, spaces)))
            for k, c in input.elem.terms
        ]
    elif len(ctx) == 1:
        branches = [(1, (_internal(input, _den_formula(ctx[0], key)),))]
    else:
        raise SemanticsError("multi-hypothesis contexts take a Pair input")
    cs = _once(lambda: _den_formula(p.conclusion.conclusion, key))
    out = None
    for c, env in branches:
        out = _acc(out, c, _den_env(p, env, key), cs)
    return _public(_zero(cs()) if out is None else out, cs)


# ---------------------------------------------------------------------------
# Derived entry points


def den_matrix(p: Proof, asg: Mapping[str, int]) -> list[list[Fraction]]:
    """⟦p⟧ as an exact matrix over the standard bases (finite spaces only).

    Rows index the conclusion's basis; columns index the context's
    product basis, first hypothesis slowest.
    """
    key = _asg_key(asg)
    spaces = _ctx_spaces(p.conclusion, key)
    for s in spaces:
        _require_finite(s, "materializing a denotation")
    cspace = _den_formula(p.conclusion.conclusion, key)
    _require_finite(cspace, "materializing a denotation")
    cols = [
        _flat(_den_env(p, env, key), cspace)
        for env in itertools.product(*[_basis(s) for s in spaces])
    ]
    return [list(map(Fraction, row)) for row in zip(*cols)]


def _bang_hypothesis_space(p: Proof, asg: Mapping[str, int]) -> tuple[Space, bool]:
    """The !-hypothesis space of a proof shaped !B ⊢ C or ⊢ !B ⊸ C.

    Returns (⟦B⟧, curried?).
    """
    seq = p.conclusion
    if len(seq.context) == 1 and isinstance(seq.context[0], BangF):
        return den_formula(seq.context[0].body, asg), False
    if (
        len(seq.context) == 0
        and isinstance(seq.conclusion, Lolli)
        and isinstance(seq.conclusion.ante, BangF)
    ):
        return den_formula(seq.conclusion.ante.body, asg), True
    raise SemanticsError("expected a proof of !B ⊢ C or of ⊢ !B -o C")


def _apply_bang(p: Proof, x: BangElem, asg: Mapping[str, int], curried: bool) -> SemValue:
    if curried:
        h = den_apply(p, Scalar(Fraction(1)), asg)
        out = apply_hom(h, BangVal(x))
        space = den_formula(p.conclusion.conclusion.cons, asg)
    else:
        out = den_apply(p, BangVal(x), asg)
        space = den_formula(p.conclusion.conclusion, asg)
    return force(out, space)


def _point_coords(point: object, space: Space) -> tuple[Fraction, ...]:
    """Coordinates of a point given either as a semantic value or as a
    raw rational / sequence / matrix of rationals.  A matrix is read
    only on a hom space, as :func:`unflatten` writes one: dim cod rows
    of dim dom entries each."""
    if isinstance(point, (Scalar, Vector, Matrix, BangVal, Pair, Suspended, ZeroMap)):
        return flatten(point, space)
    seq = (list, tuple)
    rows = point if isinstance(point, seq) else [point]
    coords = tuple(
        Fraction(_exact_in(x)) for row in rows for x in (row if isinstance(row, seq) else (row,))
    )
    d = _require_finite(space, "a point")
    if any(isinstance(r, seq) for r in rows):
        if not isinstance(space, HomSp):
            raise SemanticsError(f"a matrix point needs a hom space, not {space_label(space)}")
        n, m = space_dim(space.cod), space_dim(space.dom)
        if len(rows) != n or any(not isinstance(r, seq) or len(r) != m for r in rows):
            raise SemanticsError(f"point on {space_label(space)} is not a {n} by {m} matrix")
    if len(coords) != d:
        raise SemanticsError(
            f"point has {_coordinates(len(coords))} but {space_label(space)} "
            f"has dimension {space_dim(space)}"
        )
    return coords


def nl(p: Proof, point: object, asg: Mapping[str, int]) -> SemValue:
    """The nonlinear denotation: evaluate ⟦p⟧ on the vacuum at a point."""
    space, curried = _bang_hypothesis_space(p, asg)
    base = Vect(space, _point_coords(point, space))
    return _apply_bang(p, vacuum(base), asg, curried)


def tangent(rho: Proof, base: object, q: object, asg: Mapping[str, int]) -> SemValue:
    """The differential of the nonlinear denotation at ``base`` in the
    direction ``q``: evaluate ⟦rho⟧ on the one-argument ket |q⟩_base."""
    space, curried = _bang_hypothesis_space(rho, asg)
    b = Vect(space, _point_coords(base, space))
    v = Vect(space, _point_coords(q, space))
    return _apply_bang(rho, ket(b, [v]), asg, curried)


# ---------------------------------------------------------------------------
# Probes


#: The probe kets' base points: how many, and the seed that draws them.
PROBE_POINTS = 5
PROBE_SEED = 0


def standard_probes(space: Space, depth: int = 2) -> list[BangElem]:
    """Deterministic probe kets over !space: for each of `PROBE_POINTS`
    seeded rational base points, every ket of at most ``depth`` standard
    basis arguments (with repetition, order-free)."""
    d = _require_finite(space, "probing")
    rng = random.Random(PROBE_SEED)
    out = []
    for _ in range(PROBE_POINTS):
        base = Vect(space, tuple(Fraction(rng.randint(-3, 3)) for _ in range(d)))
        for s in range(depth + 1):
            for args in itertools.combinations_with_replacement(range(d), s):
                out.append(BangElem(space, (((base.coords, args), Fraction(1)),)))
    return out


def probe_inputs(p: Proof, asg: Mapping[str, int], depth: int = 2) -> list[SemValue]:
    """The standard probe set for ⟦context⟧: full standard bases on
    finite slots, `standard_probes` kets on bang slots, combined
    slot-wise into Pair inputs."""
    spaces = _ctx_spaces(p.conclusion, _asg_key(asg))
    if not spaces:
        return [Scalar(Fraction(1))]
    per_slot: list[list] = []
    for s in spaces:
        if isinstance(s, BangSp):
            per_slot.append([e.terms[0][0] for e in standard_probes(s.inner, depth)])
        else:
            per_slot.append(list(range(_require_finite(s, "probing"))))
    values = []
    for combo in itertools.product(*per_slot):
        if len(spaces) == 1:
            values.append(_public(_desc_value(combo[0], spaces[0]), lambda: spaces[0]))
        else:
            values.append(Pair(tensor_from_terms(tuple(spaces), {combo: Fraction(1)})))
    return values


def values_agree(a: SemValue, b: SemValue, space: Space, depth: int = 2) -> bool:
    """Exact equality of two values; elements of an infinite hom space
    are compared by applying both to the standard probe kets."""
    if is_finite(space) or isinstance(space, BangSp):
        return force(a, space) == force(b, space)
    if isinstance(space, HomSp) and isinstance(space.dom, BangSp):
        for e in standard_probes(space.dom.inner, depth):
            ra = apply_hom(a, BangVal(e))
            rb = apply_hom(b, BangVal(e))
            if not values_agree(ra, rb, space.cod, depth):
                return False
        return True
    raise UnsupportedSpace(f"cannot compare values over {space_label(space)}")


def probe_equal(p: Proof, q: Proof, asg: Mapping[str, int], depth: int = 2) -> bool:
    """Exact agreement of two proofs' denotations on the standard probe
    set (conclusions must match; contexts must already agree)."""
    if p.conclusion != q.conclusion:
        return False
    cspace = den_formula(p.conclusion.conclusion, asg)
    for v in probe_inputs(p, asg, depth):
        a = den_apply(p, v, asg)
        b = den_apply(q, v, asg)
        if not values_agree(a, b, cspace, depth):
            return False
    return True


# ---------------------------------------------------------------------------
# Rendering, in the value-literal syntax of `sexpr`


def value_literal(v: SemValue) -> str:
    if isinstance(v, Scalar):
        return format_fraction(v.value)
    if isinstance(v, Vector):
        return format_coords(v.vec.coords)
    if isinstance(v, Matrix):
        return format_coords(v.rows)
    if isinstance(v, BangVal):
        terms = [format_ket(c, base, args) for (base, args), c in v.elem.terms]
        return " + ".join(terms) or format_fraction(Fraction(0))
    raise SemanticsError(f"no literal rendering for {type(v).__name__}")
