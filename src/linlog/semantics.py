"""Evaluation of proofs in finite-dimensional vector-space semantics.

A formula denotes a space: variables get chosen finite dimensions, `1`
the ground field, `*` a tensor product, `-o` a hom space, `!` the
cofree coalgebra from `coalgebra`.  A proof of A₁, …, A_g ⊢ C denotes a
linear map ⟦A₁⟧ ⊗ … ⊗ ⟦A_g⟧ → ⟦C⟧; `den_apply` evaluates that map on
one explicit element, exactly.

Direct evaluation.  A proof is the algorithm that builds its map, so
`_eval(p, env, asg)` runs it as it stands: it maps a context tuple (one
value per slot) to the value of the node's conclusion, with one branch
per rule, and evaluates a premise by calling itself, one Python frame
per node.  A space is resolved, through the memo of `_den_formula`, at
the rule that needs it, so a missing dimension or a quantified formula
raises exactly where evaluation reaches it.

The interpreter computes over R = ℚ[t₁, t₂, …]/(t₁², t₂², …), on group-like
elements (see `coalgebra`).  A ket |ν₁…ν_s⟩_P is the t₁⋯t_s coefficient
of the group-like element g(P + Σ tᵢνᵢ), so `den_apply` enters it as
that element, with fresh variables, evaluates once and reads off the
coefficient of the top monomial.  `nl` and `tangent` enter one
group-like element themselves: g(P), or g(P + t·Q) with one variable t
for the direction whatever its support, read off at 1 or at t
(forward-mode Taylor propagation: Griewank and Walther, "Evaluating
Derivatives", 2nd ed., 2008, ch. 13).  On group-like elements
contraction hands the same element to both slots, dereliction returns
its point, weakening scales by the sum of the coefficients, and
promotion maps g(x) to g(φ(g(x))): no rule branches over kets.
Tensor-left still branches over coordinates, and `den_apply` over the
pure terms of a `TensorElem`.  A zero slot value makes the result zero,
so those branches are pruned.

An abstraction in a finite hom space is materialized by one evaluation
on Σⱼ uⱼeⱼ, one fresh variable per column (vector-mode forward seeding:
Griewank and Walther, "Evaluating Derivatives", 2nd ed., 2008, ch. 3).

Arithmetic over R.  A product of two jets (a matrix on a vector in ⊸L,
a tensor pairing, a scalar multiple) is a subset convolution over the
monomials' bitmasks: only pairs of terms whose monomials share no
variable meet, since tᵢ² = 0.  Products and sums are added in place
into one list of running coordinates per monomial, and a monomial whose
sum comes to zero is dropped.  Zero coordinates and zero matrix entries
are skipped, which the probe kets make common: a dereliction yields
P + Σ tᵢνᵢ with sparse νᵢ, and a materialization's seed Σⱼ uⱼeⱼ has
one nonzero coordinate per monomial.  A matrix jet's nonzero entries
are listed once, as (row, column, entry) triples, and its products
walk those (the sparse forward mode: Griewank and Walther, ch. 7).
Contraction hands the same point to every copy, so a chain of ⊸L
nodes multiplies by one jet again and again: the last matrix jet's
list is kept, with the jet itself, and found again by identity.

Inside the interpreter a value's representation is fixed by its space:

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
  Suspended    element of a hom space as unapplied abstractions: Σ c·f
               over pairs of a `Closure` f (a ⊸R node, its captured
               context, the assignment and the variables that context
               holds) and a coefficient c (a scalar jet), the zero
               having no pairs.
               In a finite hom space it is materialized to a jet when
               it is scaled, added or read as coordinates; a space with
               no matrix keeps sums and multiples unapplied

The public functions (`den_apply`, `apply_hom`, `force`, `flatten`,
`den_matrix`, `nl`, `tangent`, `probe_equal`) take and return
`coalgebra`'s values and the last above, checking each input's
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

There are no floats and no tolerances anywhere.

Limits, enforced honestly with `UnsupportedSpace`: quantified formulas
denote nothing here (second-order proofs are syntax/rewriting only),
and no ket may be based in an infinite space, so promotion requires a
finite boxed space.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence
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
    space_dim,
    space_label,
    tensor_from_terms,
    TensorElem,
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
from . import SemanticsError


class UnsupportedSpace(SemanticsError):
    """Raised when evaluation would need an infinite-dimensional basis
    (a ket based in an infinite space, a second-order formula, …)."""


#: A dimension assignment in sorted, hashable form.
AsgKey = tuple[tuple[str, int], ...]


def _asg_key(asg: Mapping[str, int]) -> AsgKey:
    """``asg`` sorted; a dimension that is not an ``int`` of at least 1 is
    a SemanticsError that names its variable."""
    for name, dim in asg.items():
        if type(dim) is not int or dim < 1:
            raise SemanticsError(f"the dimension of {name} must be an int >= 1, not {dim!r}")
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
    out = None if known is None else known.get(asg)
    if out is not None:
        return out

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


def _basis(space: Space) -> tuple[tuple[int, ...], ...]:
    """The standard basis of a finite space, as flat coordinate tuples."""
    return _identity(_require_finite(space, "basis enumeration"))


@lru_cache(maxsize=64)
def _identity(d: int) -> tuple[tuple[int, ...], ...]:
    """The d × d identity, cached by d: a cache keyed by space would keep the space alive."""
    return tuple(tuple(int(i == k) for i in range(d)) for k in range(d))


def _zero(space: Space) -> Value:
    if type(space) is BangSp:
        return BangJet(space.inner, ())
    if is_finite(space):
        return ()
    if type(space) is HomSp:
        return Suspended(space, ())
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


class Closure(NamedTuple):
    """λa.body(a, env), unapplied: `_call` evaluates the node's premise
    on a and the captured context.  Two closures over the same node and
    context differ when their assignments do.  ``support`` is the mask of
    the variables the captured context holds, nested closures included:
    ⊸R computes it once, from the context's values (`_holds`), and
    `_shifted` renames it with the context."""

    node: Proof  # a validated abstraction (⊸R) node
    env: tuple["Value", ...]  # the captured context, in interpreter representation
    asg: AsgKey
    support: int = 0


class Suspended(NamedTuple):
    """Σ c·f: an R-combination of closures, an element of the hom space
    ``space``.  A hom space with no matrix scales and adds its values
    so, unapplied; a finite one materializes them.  A public value
    stands for the coefficient of the monomial ``top``, whose variables
    its closures' contexts and coefficients hold."""

    space: HomSp
    terms: tuple[tuple[Closure, Jet], ...]  # (closure, coefficient) pairs
    top: int = 0


SemValue = Vect | BangElem | TensorElem | Suspended
#: A value inside the interpreter (see the module docstring).
Value = tuple | BangJet | Suspended


#: The ground field's space, held for good: spaces are interned weakly,
#: and a caller's scalars would otherwise each build it anew.
_UNIT = UnitSp()


def Scalar(q: Rational) -> Vect:
    """``q`` as an element of the ground field."""
    return Vect(_UNIT, (q,))


def matrix(space: HomSp, rows: Sequence[Sequence]) -> Vect:
    """The element of a hom space with these rows (indexed by the codomain)."""
    return Vect(space, tuple(Fraction(c) for row in rows for c in row))


def BangVal(x: BangElem) -> BangElem:
    """``x`` itself.  Kept only because the benchmark's workloads still
    wrap their kets in it; it goes when they stop (see ROADMAP)."""
    return x


# ---------------------------------------------------------------------------
# Arithmetic over R


#: Sums of jets are formed in place, in a dict from each monomial to the
#: list of its running coordinates; `_jet` reads one back, dropping the
#: monomials whose sum came to zero.
Sums = dict[int, list]


def _jet(acc: Sums) -> Jet:
    """The jet of some running sums, without the all-zero ones."""
    return tuple([(k, tuple(z)) for k, z in acc.items() if any(z)])


def _collect(pairs: Iterable[tuple[int, tuple[Rational, ...]]]) -> Jet:
    """The jet of a sum of (monomial, coordinates) pairs."""
    acc: Sums = {}
    for k, y in pairs:
        z = acc.get(k)
        if z is None:
            acc[k] = list(y)
            continue
        for i, yi in enumerate(y):
            if yi:
                z[i] += yi
    return _jet(acc)


def _total(jets: Iterable[Jet]) -> Jet:
    """The sum of some jets."""
    jets = list(jets)
    return jets[0] if len(jets) == 1 else _collect(pair for jet in jets for pair in jet)


def _tensor(a: Jet, b: Jet) -> Jet:
    """a ⊗ b for jets, the coordinates of a slowest: products of terms
    whose monomials share a variable vanish, since tᵢ² = 0, and zero
    coordinates are skipped."""
    acc: Sums = {}
    for ma, x in a:
        for mb, y in b:
            if ma & mb:
                continue
            k, n = ma | mb, len(y)
            z = acc.get(k)
            if z is None:
                z = acc[k] = [0] * (len(x) * n)
            for at, xi in enumerate(x):
                if xi:
                    for i, yi in enumerate(y, at * n):
                        if yi:
                            z[i] += xi * yi
    return _jet(acc)


def _times(c: Jet, v: Jet) -> Jet:
    """The product of a scalar jet and a jet: c ⊗ v, the unit space's
    one coordinate being the slowest."""
    return v if c == _ONE else _tensor(c, v)


#: The last matrix jet `_matrix_times` was given, the width of its rows
#: (its entries' columns depend on it), and its entries.  One slot, and
#: it holds the jet itself, so that an identity hit is never stale.
_LAST_MATRIX: list = [None, 0, ()]


def _entries(m: Jet, d: int) -> tuple:
    """Each term of a matrix jet m with rows of d entries, as its
    monomial, its number of rows and the (row, column, entry) triples of
    its nonzero entries; the last jet's are kept."""
    last = _LAST_MATRIX
    if last[0] is m and last[1] == d:
        return last[2]
    terms = tuple(
        (ma, len(a) // d, [(*divmod(j, d), aij) for j, aij in enumerate(a) if aij])
        for ma, a in m
    )
    last[:] = m, d, terms
    return terms


def _matrix_times(m: Jet, x: Jet) -> Jet:
    """m·x for a jet m of a hom space (flat, rows first) and a jet x of
    its domain.  Only terms whose monomials share no variable meet, and
    their products are summed in place: over the nonzero entries of m,
    listed once by `_entries`, and the nonzero coordinates of x."""
    if not x:
        return ()
    acc: Sums = {}
    for ma, n, triples in _entries(m, len(x[0][1])):
        for mb, y in x:
            if ma & mb:
                continue
            k = ma | mb
            z = acc.get(k)
            if z is None:
                z = acc[k] = [0] * n
            for i, j, aij in triples:
                yj = y[j]
                if yj:
                    z[i] += aij * yj
    return _jet(acc)


def _coords(v: Jet, top: int, d: int) -> tuple[Rational, ...]:
    """The coordinates of the t^top coefficient of a jet."""
    for k, y in v:
        if k == top:
            return y
    return (0,) * d


def _call(f: Suspended, a: Value) -> Value:
    """f(a) = Σ c·body(a, env) over f's terms: each closure's body
    evaluated on a and its captured context, scaled."""
    out = None
    for g, c in f.terms:
        r = _scale(c, _eval(g.node.premises[0], (a,) + g.env, g.asg))
        out = r if out is None else _add(out, r)
    return _zero(f.space.cod) if out is None else out


def _materialize(v: Suspended) -> Jet:
    """The matrix of ``v`` from one evaluation on Σⱼ uⱼeⱼ, a fresh variable
    uⱼ per basis vector eⱼ of the domain, above ``v``'s variables.  A finite
    domain is no ! space, so the body uses its argument exactly once: each
    output monomial holds one uⱼ, and without it is a monomial of column j."""
    space = v.space
    dd = _require_finite(space.dom, "materializing an abstraction")
    _require_finite(space.cod, "materializing an abstraction")
    lo = _support(v).bit_length()
    seed = tuple([(1 << j << lo, e) for j, e in enumerate(_basis(space.dom))])
    rows: dict[int, list] = {}
    for k, y in _flat(_call(v, seed)):
        col = k >> lo  # uⱼ alone, shifted down to 1 << j
        if not col or col & (col - 1):
            raise SemanticsError("an abstraction's body does not use its argument exactly once")
        rows.setdefault(k ^ col << lo, [0] * (len(y) * dd))[col.bit_length() - 1 :: dd] = y
    return tuple([(k, tuple(row)) for k, row in rows.items()])


def _flat(v: Value) -> Jet:
    """An interpreter value of a finite space as a jet."""
    if type(v) is tuple:
        return v
    if type(v) is Suspended and (v.terms or is_finite(v.space)):
        return _materialize(v)
    space = BangSp(v.space) if type(v) is BangJet else v.space
    raise UnsupportedSpace(f"no coordinates over {space_label(space)}")


def _scale(c: Jet, v: Value) -> Value:
    """c·v for a scalar jet c; an R-combination scales its coefficients."""
    if c == _ONE:
        return v
    if type(v) is BangJet or type(v) is Suspended and not is_finite(v.space):
        terms = ((x, _times(c, k)) for x, k in v.terms)
        return v._replace(terms=tuple([(x, k) for x, k in terms if k]))
    return _times(c, _flat(v))


def _add(a: Value, b: Value) -> Value:
    if type(a) is BangJet or type(a) is Suspended and not is_finite(a.space):
        return a._replace(terms=a.terms + b.terms)
    return _collect(_flat(a) + _flat(b))


def lift(phi: Callable[[BangJet], Jet], x: BangJet, out_space: Space) -> BangJet:
    """The coalgebra morphism over φ on group-like elements: it maps
    g(x) to g(φ(g(x))), so Σ c·g(x) goes to Σ c·g(φ(g(x))), with one φ
    call per term."""
    return BangJet(out_space, tuple((phi(BangJet(x.space, ((p, _ONE),))), c) for p, c in x.terms))


# ---------------------------------------------------------------------------
# The interpreter


def _eval(p: Proof, env: tuple, asg: AsgKey) -> Value:
    """⟦p⟧ on one context tuple (one value per slot), one branch per
    rule.  A premise is evaluated by a call of `_eval` itself, so a
    proof costs one Python frame per node on the path being evaluated."""
    rule = p.rule
    kind = type(rule)
    if kind is Axiom:
        return env[0]
    if kind is LolliL:
        at = rule.at
        left, right = p.premises
        if type(left.rule) is Axiom:
            a, n = env[at], 1
        else:
            n = len(left.conclusion.context)
            a = _eval(left, env[at : at + n], asg)
        psi = env[at + n]
        b = _call(psi, a) if type(psi) is Suspended else _matrix_times(psi, _flat(a))
        if b == ():
            return _zero(_den_formula(p.conclusion.conclusion, asg))
        return _eval(right, env[:at] + (b,) + env[at + n + 1 :], asg)
    if kind is Dereliction:
        # d(Σ c·g(x)) = Σ c·x
        at = rule.at
        w = _total(_times(c, x) for x, c in env[at].terms)
        if not w:
            return _zero(_den_formula(p.conclusion.conclusion, asg))
        return _eval(p.premises[0], env[:at] + (w,) + env[at + 1 :], asg)
    if kind is Contraction:
        # Δ(c·g(x)) = c·g(x) ⊗ g(x)
        at = rule.at
        x = env[at]
        head, tail = env[:at], env[at + 1 :]
        out = None
        for point, c in x.terms:
            pair = (BangJet(x.space, ((point, c),)), BangJet(x.space, ((point, _ONE),)))
            r = _eval(p.premises[0], head + pair + tail, asg)
            out = r if out is None else _add(out, r)
        return _zero(_den_formula(p.conclusion.conclusion, asg)) if out is None else out
    if kind is LolliR:
        cs = _den_formula(p.conclusion.conclusion, asg)
        support = 0
        for x in env:
            support |= _holds(x)
        return Suspended(cs, ((Closure(p, env, asg, support), _ONE),))
    if kind is Cut:
        at = rule.at
        left, right = p.premises
        n = len(left.conclusion.context)
        a = _eval(left, env[at : at + n], asg)
        return _eval(right, env[:at] + (a,) + env[at + n :], asg)
    if kind is Promotion:
        return _promote(p, env, asg)
    if kind is Exchange:
        at = rule.at
        return _eval(p.premises[0], env[:at] + (env[at + 1], env[at]) + env[at + 2 :], asg)
    if kind is Weakening or kind is OneL:
        at = rule.at
        v = env[at]
        # the counit of a ! slot, ε(Σ c·g(x)) = Σ c; a unit slot's scalar
        c = _total(k for _x, k in v.terms) if kind is Weakening else v
        r = _eval(p.premises[0], env[:at] + env[at + 1 :], asg)
        return _scale(c, r) if c else _zero(_den_formula(p.conclusion.conclusion, asg))
    if kind is OneR:
        return _ONE
    if kind is TensorR:
        left, right = p.premises
        n = len(left.conclusion.context)
        a = _eval(left, env[:n], asg)
        _require_finite(_den_formula(p.conclusion.conclusion, asg), "a tensor-pairing value")
        return _tensor(_flat(a), _flat(_eval(right, env[n:], asg)))
    if kind is TensorL:
        at = rule.at
        space = _den_formula(p.conclusion.context[at], asg)
        _require_finite(space, "splitting a tensor hypothesis")
        left, right = _basis(space.left), _basis(space.right)
        head, tail = env[:at], env[at + 1 :]
        out = None
        for k, y in env[at]:
            for idx, c in enumerate(y):
                if c:
                    i, j = divmod(idx, len(right))
                    pair = (((0, left[i]),), ((0, right[j]),))
                    r = _scale(((k, (c,)),), _eval(p.premises[0], head + pair + tail, asg))
                    out = r if out is None else _add(out, r)
        return _zero(_den_formula(p.conclusion.conclusion, asg)) if out is None else out
    if kind is ForallR or kind is ForallL:
        raise UnsupportedSpace("second-order proofs have no finite denotation")
    raise SemanticsError(f"unknown rule {rule!r}")


def _promote(p: Proof, env: tuple, asg: AsgKey) -> BangJet:
    """A promotion node: ``lift`` of φ, the boxed body, over the
    group-like element g(x₁) ⊗ … ⊗ g(x_g) of its context, which is the
    one at x₁ ⊕ … ⊕ x_g."""
    body = p.premises[0]
    terms = [((), _ONE)]
    for x in env:
        products = ((ps + (q,), _times(c, k)) for ps, c in terms for q, k in x.terms)
        terms = [(ps, c) for ps, c in products if c]
    whole = BangJet(SumSp(tuple(x.space for x in env)), tuple(terms))
    inner = _den_formula(body.conclusion.conclusion, asg)
    _require_finite(inner, "boxing a proof")

    def phi(x: BangJet) -> Jet:
        # one group-like element of the context's sum: a point per slot
        ((points, _c),) = x.terms
        ctx = tuple(BangJet(s, ((q, _ONE),)) for s, q in zip(x.space.parts, points))
        return _flat(_eval(body, ctx, asg))

    return lift(phi, whole, out_space=inner)


def _den_env(p: Proof, env: tuple, asg: AsgKey) -> Value:
    """⟦p⟧ on one context tuple: the entry from the public functions
    into the interpreter, called once per evaluation, since `_eval`
    recurses into itself."""
    return _eval(p, env, asg)


# ---------------------------------------------------------------------------
# The public boundary


def _exact_in(q: object) -> Rational:
    """An input number in interpreter form; anything but an `int` or a
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
    if type(v) is Closure:
        return v._replace(env=tuple(_shifted(x, k) for x in v.env), support=v.support << k)
    v = v._replace(terms=tuple((_shifted(x, k), _shifted(c, k)) for x, c in v.terms))
    return v._replace(top=v.top << k) if type(v) is Suspended else v


def _enter(v: SemValue, space: Space, top: int) -> tuple[Value, int]:
    """The interpreter value of a public value in a slot of ``space``, its
    variables above those of ``top``; returns it with the new top."""
    if type(v) is BangElem and isinstance(space, BangSp):
        return _bang_in(v, space.inner, top)
    if type(v) is Suspended and isinstance(space, HomSp):
        if v.space != space:
            raise SemanticsError(
                f"a value of {space_label(v.space)} is not an element of {space_label(space)}"
            )
        if top and v.top:
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
    """The variables the closures' captured contexts and coefficients
    hold: each closure carries its context's, so no context is walked."""
    mask = 0
    for g, c in v.terms:
        mask |= g.support | _holds(c)
    return mask


def _holds(x: Value) -> int:
    """The variables a value in a captured context holds: a jet's
    monomials, a BangJet's points and coefficients, a Suspended's
    support.  `_promote`'s BangJet over a sum of spaces, whose points are
    tuples of jets, goes only to `lift`, and no context captures it."""
    if type(x) is Suspended:
        return _support(x)
    jets = (j for term in x.terms for j in term) if type(x) is BangJet else (x,)
    mask = 0
    for jet in jets:
        for m, _y in jet:
            mask |= m
    return mask


def _extract(v: Value, top: int, space_of: Callable[[], Space]) -> SemValue:
    """The t^top coefficient of an interpreter value, as a public value; the
    space is resolved only for a vector or a zero.  A combination whose
    closures and coefficients lack some of those variables has a zero
    coefficient."""
    if type(v) is tuple:
        space = space_of()
        return Vect(space, tuple(map(Fraction, _coords(v, top, space_dim(space)))))
    if type(v) is BangJet:
        x = grouplike_kets(v.space, v.terms, top)
        terms = (((tuple(map(Fraction, b)), a), Fraction(c)) for (b, a), c in x.terms)
        return BangElem(x.space, tuple(terms))
    if top & ~_support(v):
        return _extract(_zero(space_of()), 0, space_of)
    return v._replace(top=top)


def _desc_value(desc, space: Space) -> SemValue:
    """The slot value a `TensorElem` term descriptor names: a basis
    vector, or a ket on a ! slot."""
    if isinstance(space, BangSp):
        if type(desc) is not tuple or len(desc) != 2 or any(type(d) is not tuple for d in desc):
            raise SemanticsError(
                f"a ! slot takes a (base point, argument indices) pair, not {desc!r}"
            )
        return BangElem(space.inner, ((desc, Fraction(1)),))
    basis = _basis(space)
    if not 0 <= desc < len(basis):
        raise SemanticsError(f"basis index {desc} out of range for dimension {len(basis)}")
    return Vect(space, tuple(map(Fraction, basis[desc])))


def _hom_space(psi: SemValue) -> HomSp:
    if type(psi) in (Vect, Suspended) and isinstance(psi.space, HomSp):
        return psi.space
    raise SemanticsError(f"cannot apply a {type(psi).__name__} as a hom value")


def force(v: SemValue, space: Space) -> SemValue:
    """Canonical representative of a value in its space: a `Vect` over
    ``space`` when it is finite, a `BangElem` for !V.  Materializes a
    Suspended abstraction; in an infinite hom space that raises
    UnsupportedSpace."""
    x, top = _enter(v, space, 0)
    return _extract(x if type(x) is BangJet else _flat(x), top, lambda: space)


def flatten(v: SemValue, space: Space) -> tuple[Fraction, ...]:
    """Coordinates of a value over the standard basis of a finite space."""
    x, top = _enter(v, space, 0)
    return tuple(map(Fraction, _coords(_flat(x), top, space_dim(space))))


def apply_hom(psi: SemValue, a: SemValue) -> SemValue:
    """Evaluation v ⊗ ψ ↦ ψ(v) of a hom-space value on an argument."""
    hom = _hom_space(psi)
    f, top = _enter(psi, hom, 0)
    x, top = _enter(a, hom.dom, top)
    y = _call(f, x) if type(f) is Suspended else _matrix_times(f, _flat(x))
    return _extract(y, top, lambda: hom.cod)


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
    cs = partial(_den_formula, p.conclusion.conclusion, key)
    out = None
    for c, env, own in branches:
        r = _den_env(p, env, key)
        k = ((top ^ own, (c,)),)
        r = _scale(k, r)
        out = r if out is None else _add(out, r)
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
        _coords(_flat(_den_env(p, env, key)), 0, d)
        for env in itertools.product(*[[((0, e),) for e in _basis(s)] for s in spaces])
    ]
    return [list(map(Fraction, row)) for row in zip(*cols)]


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


def _nonlinear(p: Proof, points: Sequence[object], asg: Mapping[str, int]) -> SemValue:
    """⟦p⟧, for p a proof of !B ⊢ C or of ⊢ !B ⊸ C, on one group-like
    element: g(P) for the points (P,), the vacuum at P, and g(P + t·Q)
    for (P, Q), read off at t, which is the one-argument ket |Q⟩_P."""
    ctx, c = p.conclusion.context, p.conclusion.conclusion
    if len(ctx) == 1 and isinstance(ctx[0], BangF):
        bang, cons = ctx[0], c
    elif not ctx and isinstance(c, Lolli) and isinstance(c.ante, BangF):
        bang, cons = c.ante, c.cons
    else:
        raise SemanticsError("expected a proof of !B ⊢ C or of ⊢ !B -o C")
    key = _asg_key(asg)
    space = _den_formula(bang.body, key)
    # P is the constant term, at monomial 0; Q is t's, at monomial 1
    coords = [tuple(map(exact, _point_coords(pt, space))) for pt in points]
    x = BangJet(space, ((tuple([(k, y) for k, y in enumerate(coords) if any(y)]), _ONE),))
    v = _eval(p, (x,), key) if ctx else _call(_eval(p, (), key), x)
    cs = partial(_den_formula, cons, key)
    return force(_extract(v, len(points) - 1, cs), cs())


def nl(p: Proof, point: object, asg: Mapping[str, int]) -> SemValue:
    """The nonlinear denotation: ⟦p⟧ on the vacuum at a point, which is
    the group-like element g(point)."""
    return _nonlinear(p, (point,), asg)


def tangent(rho: Proof, base: object, q: object, asg: Mapping[str, int]) -> SemValue:
    """The differential of the nonlinear denotation at ``base`` in the
    direction ``q``: ⟦rho⟧ on the one-argument ket |q⟩_base, which is
    the t coefficient of g(base + t·q), one variable t whatever the
    support of ``q``."""
    return _nonlinear(rho, (base, q), asg)


# ---------------------------------------------------------------------------
# Probes


#: The probe kets: how many base points, their seed, the most arguments.
PROBE_POINTS = 5
PROBE_SEED = 0
PROBE_DEPTH = 2


def standard_probes(space: Space) -> list[BangElem]:
    """Deterministic probe kets over !space: for each of `PROBE_POINTS`
    seeded rational base points, every ket of at most `PROBE_DEPTH`
    standard basis arguments (with repetition, order-free)."""
    d = _require_finite(space, "probing")
    rng = random.Random(PROBE_SEED)
    out = []
    for _ in range(PROBE_POINTS):
        base = Vect(space, tuple(Fraction(rng.randint(-3, 3)) for _ in range(d)))
        for s in range(PROBE_DEPTH + 1):
            for args in itertools.combinations_with_replacement(range(d), s):
                out.append(BangElem(space, (((base.coords, args), Fraction(1)),)))
    return out


def probe_inputs(p: Proof, asg: Mapping[str, int]) -> list[SemValue]:
    """The standard probe set for ⟦context⟧: full standard bases on
    finite slots, `standard_probes` kets on bang slots, combined
    slot-wise into `TensorElem` inputs."""
    spaces = _ctx_spaces(p.conclusion, _asg_key(asg))
    if not spaces:
        return [Scalar(Fraction(1))]
    per_slot: list[list] = []
    for s in spaces:
        if isinstance(s, BangSp):
            per_slot.append([e.terms[0][0] for e in standard_probes(s.inner)])
        else:
            per_slot.append(list(range(_require_finite(s, "probing"))))
    values = []
    for combo in itertools.product(*per_slot):
        if len(spaces) == 1:
            values.append(_desc_value(combo[0], spaces[0]))
        else:
            values.append(tensor_from_terms(tuple(spaces), {combo: Fraction(1)}))
    return values


def values_agree(a: SemValue, b: SemValue, space: Space) -> bool:
    """Exact equality of two values; elements of an infinite hom space
    are compared by applying both to the standard probe kets."""
    if is_finite(space) or isinstance(space, BangSp):
        return force(a, space) == force(b, space)
    if isinstance(space, HomSp) and isinstance(space.dom, BangSp):
        for e in standard_probes(space.dom.inner):
            ra = apply_hom(a, e)
            rb = apply_hom(b, e)
            if not values_agree(ra, rb, space.cod):
                return False
        return True
    raise UnsupportedSpace(f"cannot compare values over {space_label(space)}")


def probe_equal(p: Proof, q: Proof, asg: Mapping[str, int]) -> bool:
    """Exact agreement of two proofs' denotations on the standard probe
    set (conclusions must match; contexts must already agree)."""
    if p.conclusion != q.conclusion:
        return False
    cspace = den_formula(p.conclusion.conclusion, asg)
    for v in probe_inputs(p, asg):
        a = den_apply(p, v, asg)
        b = den_apply(q, v, asg)
        if not values_agree(a, b, cspace):
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
