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
touches, with their dimensions, zeros and bases.  Those spaces are
resolved on first use, so a missing dimension or a quantified formula
raises exactly where evaluation needs it.  A plan maps a context tuple
(one value per slot) to the value of the node's conclusion.

Plans compute over R = ℚ[t₁, t₂, …]/(t₁², t₂², …), on group-like
elements (see `coalgebra`).  A ket |ν₁…ν_s⟩_P is the t₁⋯t_s coefficient
of the group-like element g(P + Σ tᵢνᵢ), so `den_apply` enters it as
that element, with fresh variables, evaluates once and reads off the
coefficient of the top monomial.  On group-like elements contraction
hands the same element to both slots, dereliction returns its point,
weakening scales by the sum of the coefficients, and promotion maps
g(x) to g(φ(g(x))): no rule branches over kets.  Tensor-left still
branches over coordinates, and `den_apply` over the pure terms of a
`TensorElem`.  A zero slot value makes the result zero, so those
branches are pruned.

Inside plans a value's representation is fixed by its static space:

  jet          element of a finite space over R (the unit, a base or
               tensor space, a materialized hom): a tuple of
               (monomial, coordinates) pairs, the monomial a bitmask of
               variables, the coordinates flat over the standard basis
               (a hom rows first, rows indexed by the codomain), no
               pair all zero.  A Rational is exact: an `int` when
               integral, else a `Fraction`.  A scalar is a jet over
               the unit space
  BangJet      element of !V over R, V finite: Σ c·g(x) over pairs of a
               point x (a jet) and a coefficient c (a scalar jet)
  Suspended    element of a hom space as an unapplied abstraction: the
               ⊸R node, its captured context, the assignment and the
               plan of its body, times a scalar jet, plus the
               abstractions added to it.  In a finite hom space it is
               materialized to a jet when it is scaled, added or read
               as coordinates; a space with no matrix keeps sums and
               multiples unapplied
  ZeroMap      the zero of a hom space that has no matrix

The public functions (`den_apply`, `apply_hom`, `force`, `flatten`,
`den_matrix`, `nl`, `tangent`, `probe_equal`) take and return
`coalgebra`'s values and the two last above, checking each input's
space against its slot's.  Numbers come in as `int`s or `Fraction`s
(anything else, a float say, is a `SemanticsError`) and go out as
`Fraction`s:

  Vect        element of a finite space: the unit, a base, tensor or
              hom space (a hom rows first, as `Vect.rows` reads it)
  BangElem    element of !V, V finite (canonical ket combination); an
              output is read back from group-like elements by set
              partitions (`coalgebra.grouplike_kets`), the one place
              they remain
  TensorElem  element of a product of context slots (sum of pure terms)
  Suspended   as above, standing for the coefficient of one monomial,
              its ``top``: `apply_hom` puts its argument's variables
              above that monomial, and `force` materializes it once
  ZeroMap     as above

There are no floats and no tolerances anywhere.

Limits, enforced honestly with `UnsupportedSpace`: quantified formulas
denote nothing here (second-order proofs are syntax/rewriting only),
and no ket may be based in an infinite space, so promotion requires a
finite boxed space.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar
from weakref import WeakKeyDictionary

from .coalgebra import (
    BangElem,
    BangSp,
    BaseSp,
    HomSp,
    Rational,
    Space,
    SumSp,
    TensorSp,
    UnitSp,
    Vect,
    coordinates,
    exact,
    grouplike_kets,
    is_finite,
    ket,
    space_dim,
    space_label,
    tensor_from_terms,
    TensorElem,
    vacuum,
)

# The evaluator no longer calls these; they stay bound here because the
# benchmark's tracer wraps them by name (see ROADMAP).
from .coalgebra import coproduct, merge, split  # noqa: F401
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
def _basis_jets(space: Space) -> tuple[Jet, ...]:
    """The standard basis of a finite space, as constant jets."""
    return tuple(((0, e),) for e in _basis(space))


@lru_cache(maxsize=1024)
def _zero(space: Space) -> Value:
    if isinstance(space, BangSp):
        return BangJet(space.inner, ())
    if is_finite(space):
        return ()
    if isinstance(space, HomSp):
        return ZeroMap(space)
    raise UnsupportedSpace(f"zero value needs a finite space, got {space_label(space)}")


# ---------------------------------------------------------------------------
# Values


#: An element of a finite space over R (see the module docstring).
Jet = tuple[tuple[int, tuple[Rational, ...]], ...]

#: The scalar 1 of R.
_ONE: Jet = ((0, (1,)),)


class BangJet(NamedTuple):
    """Σ c·g(x): an R-combination of group-like elements of !space."""

    space: Space  # the underlying V (inside `lift`, the sum of a box's context)
    terms: tuple[tuple[object, Jet], ...]  # (point, coefficient) pairs


@dataclass(frozen=True)
class Suspended:
    """An unapplied abstraction: scale·λa.body(a, env), plus the
    abstractions in ``more``.  A hom space with no matrix scales and
    adds its values so, unapplied; a finite one materializes them.  Two
    closures over the same node and context differ when their
    assignments do; the plan is derived from the node and the
    assignment, so it takes no part in equality.  A public value stands
    for the coefficient of the monomial ``top``, whose variables its
    context holds."""

    node: Proof  # a validated abstraction (⊸R) node
    env: tuple["Value", ...]  # the captured context, in plan representation
    asg: AsgKey
    plan: Callable[[tuple], "Value"] = field(compare=False, repr=False)
    top: int = 0
    scale: Jet = _ONE
    more: tuple["Suspended", ...] = ()


@dataclass(frozen=True)
class ZeroMap:
    """The zero of a hom space that has no matrix (an infinite one):
    applied to anything, it gives the zero of the codomain."""

    space: HomSp


SemValue = Vect | BangElem | TensorElem | Suspended | ZeroMap
#: A value inside the plans (see the module docstring).
Value = tuple | BangJet | Suspended | ZeroMap


def Scalar(q: Rational) -> Vect:
    """``q`` as an element of the ground field."""
    return Vect(UnitSp(), (q,))


def matrix(space: HomSp, rows: Sequence[Sequence]) -> Vect:
    """The element of a hom space with these rows (indexed by the codomain)."""
    return Vect(space, tuple(Fraction(c) for row in rows for c in row))


def BangVal(x: BangElem) -> BangElem:
    """``x`` itself.  Kept only because the benchmark's workloads still
    wrap their kets in it; it goes when they stop (see ROADMAP)."""
    return x


# ---------------------------------------------------------------------------
# Arithmetic over R


def _collect(pairs: Iterable[tuple[int, tuple[Rational, ...]]]) -> Jet:
    """The jet of a sum of (monomial, coordinates) pairs."""
    acc: dict[int, tuple] = {}
    for k, z in pairs:
        prev = acc.get(k)
        acc[k] = z if prev is None else tuple(map(add, prev, z))
    return tuple([(k, z) for k, z in acc.items() if any(z)])


def _total(jets: Iterable[Jet]) -> Jet:
    """The sum of some jets."""
    jets = list(jets)
    return jets[0] if len(jets) == 1 else _collect(pair for jet in jets for pair in jet)


def _bilinear(f: Callable, a: Jet, b: Jet) -> Jet:
    """The bilinear map ``f`` on coordinates, extended to jets: products
    of monomials that share a variable vanish, since tᵢ² = 0."""
    return _collect((ma | mb, f(x, y)) for ma, x in a for mb, y in b if not ma & mb)


def _matvec(m: tuple[Rational, ...], x: tuple[Rational, ...]) -> tuple[Rational, ...]:
    """m·x for a hom value m (flat, rows first) and coordinates x."""
    dd = len(x)
    return tuple([sum(map(mul, m[i : i + dd], x)) for i in range(0, len(m), dd)])


def _outer(x: tuple[Rational, ...], y: tuple[Rational, ...]) -> tuple[Rational, ...]:
    return tuple([a * b for a in x for b in y])


def _times(c: Jet, v: Jet) -> Jet:
    """The product of a scalar jet and a jet."""
    return v if c == _ONE else _bilinear(lambda a, y: tuple([a[0] * b for b in y]), c, v)


def _coords(v: Jet, top: int, d: int) -> tuple[Rational, ...]:
    """The coordinates of the t^top coefficient of a jet."""
    for k, y in v:
        if k == top:
            return y
    return (0,) * d


def _call(f: Suspended, a: Value) -> Value:
    """f(a): the body's plan on a and the captured context, scaled, plus
    the abstractions added to f on a."""
    out = f.plan((a,) + f.env)
    if f.scale == _ONE and not f.more:
        return out
    cod = _hom_space(f).cod
    out = _scale(f.scale, out, cod)
    for g in f.more:
        out = _add(out, _call(g, a), cod)
    return out


def _apply(psi: Value, a: Value, dom_of: Callable[[], Space]) -> Value:
    """ψ(a) for a value ψ of a hom space; its domain is resolved only to
    materialize an abstraction passed as the argument of a matrix."""
    if type(psi) is Suspended:
        return _call(psi, a)
    if type(psi) is ZeroMap:
        return _zero(psi.space.cod)
    return _bilinear(_matvec, psi, a if type(a) is tuple else _flat(a, dom_of()))


def _materialize(v: Suspended, space: Space) -> Jet:
    if not isinstance(space, HomSp):
        raise SemanticsError("abstraction value in a non-hom space")
    _require_finite(space.dom, "materializing an abstraction")
    _require_finite(space.cod, "materializing an abstraction")
    cols = [_flat(_call(v, e), space.cod) for e in _basis_jets(space.dom)]
    dd = len(cols)
    rows: dict[int, list] = {}
    for j, col in enumerate(cols):
        for k, y in col:
            row = rows.get(k)
            if row is None:
                row = rows[k] = [0] * (len(y) * dd)
            row[j::dd] = y
    return tuple([(k, tuple(row)) for k, row in rows.items()])


def _flat(v: Value, space: Space) -> Jet:
    """A plan value of a finite ``space`` as a jet."""
    if type(v) is tuple:
        return v
    if type(v) is Suspended:
        return _materialize(v, space)
    raise UnsupportedSpace(f"no coordinates over {space_label(space)}")


def _scale(c: Jet, v: Value, space: Space) -> Value:
    """c·v for a scalar jet c (see `Suspended` for abstractions)."""
    if c == _ONE or type(v) is ZeroMap:
        return v
    if type(v) is BangJet:
        terms = ((x, _times(c, k)) for x, k in v.terms)
        return BangJet(v.space, tuple([(x, k) for x, k in terms if k]))
    if type(v) is Suspended and not is_finite(space):
        more = tuple(_scale(c, g, space) for g in v.more)
        return replace(v, scale=_times(c, v.scale), more=more)
    return _times(c, _flat(v, space))


def _add(a: Value, b: Value, space: Space) -> Value:
    if type(a) is BangJet:
        return BangJet(a.space, a.terms + b.terms)
    if type(a) is ZeroMap:
        return b
    if type(b) is ZeroMap:
        return a
    if type(a) is Suspended and not is_finite(space):
        return replace(a, more=a.more + (b,))
    return _collect(_flat(a, space) + _flat(b, space))


def lift(phi: Callable[[BangJet], Jet], x: BangJet, out_space: Space) -> BangJet:
    """The coalgebra morphism over φ on group-like elements: it maps
    g(x) to g(φ(g(x))), so Σ c·g(x) goes to Σ c·g(φ(g(x))), with one φ
    call per term."""
    return BangJet(out_space, tuple((phi(BangJet(x.space, ((p, _ONE),))), c) for p, c in x.terms))


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
        return lambda env: _ONE
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
            if b == ():
                return zero()
            return right(env[:at] + (b,) + env[at + n + 1 :])

        return lolli_l
    if kind is Dereliction:

        def derelict(env):
            # d(Σ c·g(x)) = Σ c·x
            w = _total(_times(c, x) for x, c in env[at].terms)
            if not w:
                return zero()
            return body(env[:at] + (w,) + env[at + 1 :])

        return derelict
    if kind is Contraction:

        def contract(env):
            # Δ(c·g(x)) = c·g(x) ⊗ g(x)
            x = env[at]
            head, tail = env[:at], env[at + 1 :]
            out = None
            for point, c in x.terms:
                pair = (BangJet(x.space, ((point, c),)), BangJet(x.space, ((point, _ONE),)))
                r = body(head + pair + tail)
                out = r if out is None else _add(out, r, cs())
            return zero() if out is None else out

        return contract
    if kind in (Weakening, OneL):

        def weight(v):
            # the counit of a ! slot, ε(Σ c·g(x)) = Σ c; a unit slot's scalar
            return _total(c for _x, c in v.terms) if kind is Weakening else v

        def drop(env):
            c = weight(env[at])
            r = body(env[:at] + env[at + 1 :])
            return _scale(c, r, cs()) if c else zero()

        return drop
    if kind is TensorR:
        left, right = subs
        space = _once(lambda: _finite(cs(), "a tensor-pairing value"))

        def pair(env):
            xa = _flat(left(env[:n]), space().left)
            xb = _flat(right(env[n:]), space().right)
            return _bilinear(_outer, xa, xb)

        return pair
    if kind is TensorL:

        @_once
        def bases():
            space = _den_formula(p.conclusion.context[at], asg)
            space = _finite(space, "splitting a tensor hypothesis")
            return _basis_jets(space.left), _basis_jets(space.right)

        def unpair(env):
            left, right = bases()
            head, tail = env[:at], env[at + 1 :]
            out = None
            for k, y in env[at]:
                for idx, c in enumerate(y):
                    if c:
                        i, j = divmod(idx, len(right))
                        r = body(head + (left[i], right[j]) + tail)
                        r = _scale(((k, (c,)),), r, cs())
                        out = r if out is None else _add(out, r, cs())
            return zero() if out is None else out

        return unpair
    if kind is Promotion:
        boxed = premises[0].conclusion.conclusion
        inner = _once(lambda: _finite(_den_formula(boxed, asg), "boxing a proof"))

        def phi(x: BangJet) -> Jet:
            # one group-like element of the context's sum: a point per slot
            ((points, _c),) = x.terms
            ctx = tuple(BangJet(s, ((q, _ONE),)) for s, q in zip(x.space.parts, points))
            return _flat(body(ctx), inner())

        def promote(env):
            # g(x₁) ⊗ … ⊗ g(x_g) is the group-like element at x₁ ⊕ … ⊕ x_g
            terms = [((), _ONE)]
            for x in env:
                products = ((ps + (q,), _times(c, k)) for ps, c in terms for q, k in x.terms)
                terms = [(ps, c) for ps, c in products if c]
            whole = BangJet(SumSp(tuple(x.space for x in env)), tuple(terms))
            return lift(phi, whole, out_space=inner())

        return promote
    raise TypeError(f"unknown rule {rule!r}")


def _den_env(p: Proof, env: tuple, asg: AsgKey) -> Value:
    """⟦p⟧ on one context tuple in plan representation: the entry from
    the public functions into the compiled plans."""
    return _plan(p, asg)(env)


# ---------------------------------------------------------------------------
# The public boundary


def _exact_in(q: object) -> Rational:
    """An input number in plan form; anything but an `int` or a
    `Fraction` (a float, say) is a SemanticsError."""
    if not isinstance(q, (int, Fraction)):
        raise SemanticsError(f"{q!r} is not an exact rational (an int or a Fraction)")
    return exact(q)


def _jet_in(coords: Sequence) -> Jet:
    """Input coordinates as a constant jet."""
    y = tuple(map(_exact_in, coords))
    return ((0, y),) if any(y) else ()


def _bang_in(x: BangElem, inner: Space, top: int) -> tuple[BangJet, int]:
    """A ket combination as group-like elements: term j's arguments
    become fresh variables V_j above ``top``, and its coefficient c_j
    is multiplied by the monomial of the combination's other variables,
    so that the top monomial's coefficient is Σ c_j·(term j's ket)."""
    d = space_dim(inner)
    if x.terms and d is None:
        raise UnsupportedSpace(f"no ket may be based in {space_label(inner)}")
    if x.space != inner or any(
        len(base) != d or any(not 0 <= i < d for i in args) for (base, args), _c in x.terms
    ):
        raise SemanticsError(f"ket does not live over {space_label(inner)}")
    basis = _basis(inner) if x.terms else ()
    lo = nxt = top.bit_length()
    points = []
    for (base, args), c in x.terms:
        point = list(_jet_in(base))
        first = nxt
        for i in args:
            point.append((1 << nxt, basis[i]))
            nxt += 1
        own = (1 << nxt) - (1 << first)
        points.append((tuple(point), own, _exact_in(c)))
    mine = (1 << nxt) - (1 << lo)
    terms = tuple((point, ((mine ^ own, (c,)),)) for point, own, c in points if c)
    return BangJet(inner, terms), top | mine


def _shifted(v: Value, k: int) -> Value:
    """``v`` with each variable tᵢ renamed t_{i+k}."""
    if type(v) is tuple:
        return tuple([(m << k, y) for m, y in v])
    if type(v) is BangJet:
        return BangJet(v.space, tuple((_shifted(x, k), _shifted(c, k)) for x, c in v.terms))
    if type(v) is Suspended:
        env = tuple(_shifted(x, k) for x in v.env)
        more = tuple(_shifted(g, k) for g in v.more)
        return replace(v, env=env, top=v.top << k, scale=_shifted(v.scale, k), more=more)
    return v


def _enter(v: SemValue, space: Space, top: int) -> tuple[Value, int]:
    """The plan value of a public value in a slot of ``space``, its
    variables above those of ``top``; returns it with the new top."""
    if type(v) is BangElem and isinstance(space, BangSp):
        return _bang_in(v, space.inner, top)
    if type(v) in (Suspended, ZeroMap) and isinstance(space, HomSp):
        if _hom_space(v) != space:
            raise SemanticsError(
                f"a value of {space_label(_hom_space(v))} is not an element of {space_label(space)}"
            )
        if type(v) is ZeroMap or not v.top:
            return v, top
        if top:
            v = _shifted(v, top.bit_length())
        return v, top | v.top
    if type(v) is not Vect:
        raise SemanticsError(f"a {type(v).__name__} is not an element of {space_label(space)}")
    d = _require_finite(space, "an explicit value")
    if len(v.coords) != d:
        raise SemanticsError(
            f"value has {coordinates(len(v.coords))} but {space_label(space)} has dimension {d}"
        )
    if v.space != space:
        raise SemanticsError(
            f"a value of {space_label(v.space)} is not an element of {space_label(space)}"
        )
    return _jet_in(v.coords), top


def _support(v: Suspended) -> int:
    """The variables a closure's captured context and scale hold."""
    mask, stack = 0, [v]
    while stack:
        x = stack.pop()
        if type(x) is Suspended:
            stack.extend((*x.env, x.scale, *x.more))
        elif type(x) is BangJet:
            stack.extend(j for term in x.terms for j in term)
        elif type(x) is tuple:
            for m, _y in x:
                mask |= m
    return mask


def _extract(v: Value, top: int, space_of: Callable[[], Space]) -> SemValue:
    """The t^top coefficient of a plan value, as a public value; the
    space is resolved only for a vector or a zero.  A closure whose
    context lacks some of those variables has a zero coefficient."""
    if type(v) is tuple:
        space = space_of()
        return Vect(space, tuple(map(Fraction, _coords(v, top, space_dim(space)))))
    if type(v) is BangJet:
        x = grouplike_kets(v.space, v.terms, top)
        terms = (((tuple(map(Fraction, b)), a), Fraction(c)) for (b, a), c in x.terms)
        return BangElem(x.space, tuple(terms))
    if type(v) is Suspended:
        if top & ~_support(v):
            return _extract(_zero(space_of()), 0, space_of)
        return replace(v, top=top)
    return v


def _desc_value(desc, space: Space) -> SemValue:
    """The slot value a `TensorElem` term descriptor names: a basis
    vector, or a ket on a ! slot."""
    if isinstance(space, BangSp):
        return BangElem(space.inner, ((desc, Fraction(1)),))
    basis = _basis(space)
    if not 0 <= desc < len(basis):
        raise SemanticsError(f"basis index {desc} out of range for dimension {len(basis)}")
    return Vect(space, tuple(map(Fraction, basis[desc])))


def _hom_space(psi: SemValue) -> HomSp:
    if type(psi) is Suspended:
        return _den_formula(psi.node.conclusion.conclusion, psi.asg)
    if type(psi) in (Vect, ZeroMap) and isinstance(psi.space, HomSp):
        return psi.space
    raise SemanticsError(f"cannot apply a {type(psi).__name__} as a hom value")


def force(v: SemValue, space: Space) -> SemValue:
    """Canonical representative of a value in its space: a `Vect` over
    ``space`` when it is finite, a `BangElem` for !V.  Materializes a
    Suspended abstraction; in an infinite hom space that raises
    UnsupportedSpace."""
    x, top = _enter(v, space, 0)
    return _extract(x if type(x) is BangJet else _flat(x, space), top, lambda: space)


def flatten(v: SemValue, space: Space) -> tuple[Fraction, ...]:
    """Coordinates of a value over the standard basis of a finite space."""
    x, top = _enter(v, space, 0)
    return tuple(map(Fraction, _coords(_flat(x, space), top, space_dim(space))))


def apply_hom(psi: SemValue, a: SemValue) -> SemValue:
    """Evaluation v ⊗ ψ ↦ ψ(v) of a hom-space value on an argument."""
    hom = _hom_space(psi)
    f, top = _enter(psi, hom, 0)
    x, top = _enter(a, hom.dom, top)
    return _extract(_apply(f, x, lambda: hom.dom), top, lambda: hom.cod)


def _ctx_spaces(seq: Sequent, asg: AsgKey) -> list[Space]:
    return [_den_formula(f, asg) for f in seq.context]


def den_apply(p: Proof, input: SemValue, asg: Mapping[str, int]) -> SemValue:
    """Evaluate ⟦p⟧ on one element of ⟦context⟧.

    For an empty context pass a `Scalar`; for a single hypothesis, the
    bare value; for several, a `TensorElem` whose terms span the slots.
    Each term of a `TensorElem` is evaluated once, and a single value
    once, whatever its number of kets.
    """
    key = _asg_key(asg)
    ctx = p.conclusion.context
    slots: list[tuple[Rational, tuple]]
    spaces: list[Space] = []
    if len(ctx) == 0:
        if type(input) is not Vect or type(input.space) is not UnitSp:
            raise SemanticsError("empty context takes a Scalar input")
        slots = [(_exact_in(input.coords[0]), ())]
    elif type(input) is TensorElem:
        spaces = _ctx_spaces(p.conclusion, key)
        if len(input.factors) != len(ctx):
            raise SemanticsError("input arity does not match the context")
        if input.factors != tuple(spaces):
            raise SemanticsError("input factors do not match the context's spaces")
        slots = [
            (_exact_in(c), tuple(_desc_value(d, s) for d, s in zip(k, spaces)))
            for k, c in input.terms
        ]
    elif len(ctx) == 1:
        spaces = [_den_formula(ctx[0], key)]
        slots = [(1, (input,))]
    else:
        raise SemanticsError("multi-hypothesis contexts take a TensorElem input")
    # every branch gets its own variables, and its coefficient is
    # multiplied by the monomial of all the others' variables, so that
    # the sum of the branches is read off once
    branches, top = [], 0
    for c, values in slots:
        env, first = [], top
        for v, s in zip(values, spaces):
            x, top = _enter(v, s, top)
            env.append(x)
        branches.append((c, tuple(env), top ^ first))
    cs = _once(lambda: _den_formula(p.conclusion.conclusion, key))
    out = None
    for c, env, own in branches:
        r = _den_env(p, env, key)
        k = ((top ^ own, (c,)),)
        if k != _ONE:
            r = _scale(k, r, cs())
        out = r if out is None else _add(out, r, cs())
    return _extract(_zero(cs()) if out is None else out, top, cs)


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
    d = space_dim(cspace)
    cols = [
        _coords(_flat(_den_env(p, env, key), cspace), 0, d)
        for env in itertools.product(*[_basis_jets(s) for s in spaces])
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
        out = apply_hom(h, x)
        space = den_formula(p.conclusion.conclusion.cons, asg)
    else:
        out = den_apply(p, x, asg)
        space = den_formula(p.conclusion.conclusion, asg)
    return force(out, space)


def _point_coords(point: object, space: Space) -> tuple[Fraction, ...]:
    """Coordinates of a point given either as a semantic value or as a
    raw rational / sequence / matrix of rationals.  A matrix is read
    only on a hom space, as `Vect.rows` writes one: dim cod rows of dim
    dom entries each."""
    if isinstance(point, SemValue):
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
            f"point has {coordinates(len(coords))} but {space_label(space)} has dimension {d}"
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
    slot-wise into `TensorElem` inputs."""
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
            values.append(_desc_value(combo[0], spaces[0]))
        else:
            values.append(tensor_from_terms(tuple(spaces), {combo: Fraction(1)}))
    return values


def values_agree(a: SemValue, b: SemValue, space: Space, depth: int = 2) -> bool:
    """Exact equality of two values; elements of an infinite hom space
    are compared by applying both to the standard probe kets."""
    if is_finite(space) or isinstance(space, BangSp):
        return force(a, space) == force(b, space)
    if isinstance(space, HomSp) and isinstance(space.dom, BangSp):
        for e in standard_probes(space.dom.inner, depth):
            ra = apply_hom(a, e)
            rb = apply_hom(b, e)
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
    if type(v) is Vect and type(v.space) is UnitSp:
        return format_fraction(v.coords[0])
    if type(v) is Vect:
        return format_coords(v.rows if type(v.space) is HomSp else v.coords)
    if type(v) is BangElem:
        terms = [format_ket(c, base, args) for (base, args), c in v.terms]
        return " + ".join(terms) or format_fraction(Fraction(0))
    raise SemanticsError(f"no literal rendering for {type(v).__name__}")
