"""Exact symbolic model of the cofree cocommutative coalgebra !V.

For a finite-dimensional space V, !V decomposes as a direct sum over
"base points" P ∈ V of symmetric tensor algebras.  We write its
elements with ket notation:

    |ν₁, …, ν_s⟩_P      s vectors of V riding on the point P,

where the empty ket |o⟩_P (the *vacuum* at P) marks the point itself.
Kets are symmetric in their arguments, and |ν⟩_P is linear in ν but
emphatically *not* in P — two vacua at different points are linearly
independent, and |ν⟩_P with ν = 0 is the zero vector, which is distinct
from |o⟩_P.

The canonical form stores each term as an exact base point (a tuple of
rationals, never expanded) plus a sorted multiset of *basis indices*
(ket arguments are expanded multilinearly over the standard basis, so
symmetry and linearity in the arguments hold by construction).  Two
elements are equal iff their canonical term maps are equal.  Numbers
are exact rationals, an `int` when integral and else a `Fraction`,
never a float: mixed arithmetic stays exact and an integral `Fraction`
equals and hashes like its `int`, so equality is decidable and exact.

The structure maps implemented here:

* `counit`      — 1 on vacua, 0 on everything else;
* `coproduct`   — Δ|ν₁…ν_s⟩_P = Σ_{I} |ν_I⟩_P ⊗ |ν_{I^c}⟩_P over all
  2^s index subsets;
* `dereliction` — d|o⟩_P = P, d|ν⟩_P = ν, longer kets ↦ 0;
* `lift`        — the unique coalgebra morphism !W → !V over a linear
  φ : !W → V, computed as a sum over *set partitions* of the ket
  arguments: each partition contributes the ket whose arguments are
  the φ-images of its blocks, based at φ|o⟩_P;
* `merge`/`split` — the isomorphism !W₁ ⊗ … ⊗ !W_g ≅ !(W₁ ⊕ … ⊕ W_g):
  `merge` embeds a tuple of elements, and `split` is its inverse on
  one ket.

Set partitions are enumerated by restricted-growth strings in
lexicographic order, so summand order is deterministic (handy when
debugging; canonicalization collapses it anyway).

Group-like elements.  Over the ring R = ℚ[t₁, t₂, …]/(t₁², t₂², …) a
ket is a coefficient: with g(x) the group-like element at an R-point x
(Δg = g ⊗ g, ε(g) = 1, d(g) = x),

    g(P + Σᵢ tᵢνᵢ) = Σ_S t^S |ν_S⟩_P     over the subsets S of the tᵢ,

so |ν₁, …, ν_s⟩_P is the t₁⋯t_s coefficient of g(P + Σ tᵢνᵢ): the s-th
mixed derivative at P.  An element of V over R is a *jet*: a tuple of
(monomial, coordinates) pairs, the monomial a bitmask of variables,
with no pair whose coordinates are all zero.  `semantics` evaluates
proofs on group-like elements, where contraction copies, weakening
counts 1, dereliction reads the point, and the lift over φ maps g(x) to
g(φ(g(x))) (Sweedler, *Hopf Algebras*, 1969; Ehrhard and Regnier, "The
differential lambda-calculus", 2003).  The evaluator meets set
partitions in one place only, `grouplike_kets`, which reads an
R-combination of group-like elements back as kets: for x = P + n, the
t^S coefficient of g(x) sums |n_{B₁}, …, n_{B_l}⟩_P over the set
partitions of S whose blocks B₁ … B_l are all monomials of n.  The
ket-level maps above (`coproduct`, `lift`, `merge`, `split`) are what
the tests check it against.

Spaces are hash-consed as formulas are (`formula._Interning`), so their
``==`` and ``hash`` are identity.  Those hashes differ between runs, so
nothing that reaches output may iterate over a set or dict of spaces.
`space_dim` and `space_label` walk a space's `space_children` on the
explicit stacks of `formula.fold` and `formula.emit`, and `space_dim`
remembers each space's dimension weakly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence
from weakref import WeakKeyDictionary

from .formula import _Interned, emit, field_values, fold


# ---------------------------------------------------------------------------
# Spaces


class BaseSp(_Interned):
    label: str
    dim: int


class UnitSp(_Interned):
    pass


class TensorSp(_Interned):
    left: Space
    right: Space


class HomSp(_Interned):
    dom: Space
    cod: Space


class BangSp(_Interned):
    inner: Space


class SumSp(_Interned):
    parts: tuple[Space, ...]


Space = BaseSp | UnitSp | TensorSp | HomSp | BangSp | SumSp


def space_children(s: Space) -> tuple[Space, ...]:
    """The spaces ``s`` is built from, left to right: what ``formula.fold``
    and ``formula.emit`` walk, as ``formula.children`` is for formulas."""
    kind = type(s)
    if kind is TensorSp or kind is HomSp or kind is BangSp:
        return field_values(s)  # every field of theirs is a space
    if kind is SumSp:
        return s.parts
    if kind is BaseSp or kind is UnitSp:
        return ()
    raise TypeError(f"not a space: {s!r}")


#: Space -> its dimension, for as long as the space is alive.
_DIMS: WeakKeyDictionary = WeakKeyDictionary()


def space_dim(s: Space) -> int | None:
    """Dimension of a finite space, None where infinite (under !)."""
    try:
        return _DIMS[s]
    except (KeyError, TypeError):  # TypeError: not weakly referable, so no space
        # a ! space is infinite whatever it is over, so the walk stops there
        d = _DIMS[s] = fold(s, _dim_node, lambda t: () if type(t) is BangSp else space_children(t))
        return d


def _dim_node(s: Space, dims: list[int | None]) -> int | None:
    kind = type(s)
    if kind is BaseSp:
        return s.dim
    if kind is BangSp or None in dims:
        return None
    return sum(dims) if kind is SumSp else prod(dims)  # the unit space: the empty product


def is_finite(s: Space) -> bool:
    return space_dim(s) is not None


#: The text of a compound space's label before, between and after its parts'.
_LABELS = {
    UnitSp: ("k", "", ""),
    TensorSp: ("(", " (x) ", ")"),
    HomSp: ("Hom(", ", ", ")"),
    BangSp: ("!", "", ""),
    SumSp: ("(", " (+) ", ")"),
}


def space_label(s: Space) -> str:
    return "".join(emit((s,), _label))


def _label(s: Space) -> list:
    """Expands ``s`` for ``formula.emit`` into its text around its parts."""
    parts = space_children(s)
    if type(s) is BaseSp:
        return [s.label]
    head, between, tail = _LABELS[type(s)]
    return [head, *[x for part in parts for x in (between, (part,))][1:], tail]


# ---------------------------------------------------------------------------
# Vectors

#: An exact rational: an `int` when integral, else a `Fraction`.
Rational = int | Fraction


def exact(q: Rational) -> Rational:
    """``q`` as an `int` when it is integral, else as it is."""
    return q.numerator if q.denominator == 1 else q


def coordinates(n: int) -> str:
    """``n`` coordinates, counted in words: "1 coordinate", "2 coordinates"."""
    return f"{n} coordinate" if n == 1 else f"{n} coordinates"


class Vect(NamedTuple("Vect", [("space", Space), ("coords", tuple[Rational, ...])])):
    """An element of a finite space, flat over its standard basis; an
    element of a hom space is its matrix, rows first (see `rows`)."""

    __slots__ = ()

    def __new__(cls, space: Space, coords: tuple[Rational, ...]) -> Vect:
        d = space_dim(space)
        if d is None:
            raise ValueError(f"vectors need a finite space, got {space_label(space)}")
        if len(coords) != d:
            raise ValueError(f"{coordinates(len(coords))} for a {d}-dimensional space")
        return tuple.__new__(cls, (space, coords))

    @property
    def rows(self) -> tuple[tuple[Rational, ...], ...]:
        """A hom-space element's matrix: ``rows[i][j]`` is at codomain index i, domain index j."""
        dd = space_dim(self.space.dom)
        return tuple(self.coords[i : i + dd] for i in range(0, len(self.coords), dd))


def vect(space: Space, coords: Iterable) -> Vect:
    return Vect(space, tuple(Fraction(c) for c in coords))


def zero_vec(space: Space) -> Vect:
    return Vect(space, (Fraction(0),) * space_dim(space))


def basis_vec(space: Space, i: int) -> Vect:
    d = space_dim(space)
    return Vect(space, tuple(Fraction(1 if j == i else 0) for j in range(d)))


def vec_add(a: Vect, b: Vect) -> Vect:
    if a.space != b.space:
        raise ValueError("adding vectors of different spaces")
    return Vect(a.space, tuple(x + y for x, y in zip(a.coords, b.coords)))


def vec_scale(c: Rational, a: Vect) -> Vect:
    return Vect(a.space, tuple(c * x for x in a.coords))


def vec_is_zero(a: Vect) -> bool:
    return all(x == 0 for x in a.coords)


# ---------------------------------------------------------------------------
# Bang elements

#: Canonical key of one ket term: (exact base point coords, sorted basis indices).
BangKey = tuple[tuple[Rational, ...], tuple[int, ...]]


class BangElem(NamedTuple):
    """A finite linear combination of basis kets over !space."""

    space: Space  # the underlying V, not !V
    terms: tuple[tuple[BangKey, Rational], ...]  # sorted, no zero coeffs

    def is_zero(self) -> bool:
        return not self.terms


def bang_from_terms(space: Space, acc: dict[BangKey, Rational]) -> BangElem:
    cleaned = {k: c for k, c in acc.items() if c != 0}
    return BangElem(space, tuple(sorted(cleaned.items())))


def zero_bang(space: Space) -> BangElem:
    return BangElem(space, ())


def vacuum(base: Vect) -> BangElem:
    """|o⟩_P — the vacuum marking the point P."""
    return BangElem(base.space, (((base.coords, ()), 1),))


def _pure_ket(space: Space, base: tuple[Rational, ...], args: tuple[int, ...]) -> BangElem:
    return BangElem(space, (((base, tuple(sorted(args))), 1),))


def ket(base: Vect, args: Sequence[Vect]) -> BangElem:
    """|ν₁, …, ν_s⟩_P expanded multilinearly over the standard basis."""
    acc: dict[BangKey, Rational] = {}
    choices = []
    for v in args:
        if v.space != base.space:
            raise ValueError("ket arguments must live in the base point's space")
        choices.append([(i, c) for i, c in enumerate(v.coords) if c != 0])
    for combo in itertools.product(*choices):
        coeff = 1
        for _, c in combo:
            coeff *= c
        key = (base.coords, tuple(sorted(i for i, _ in combo)))
        acc[key] = acc.get(key, 0) + coeff
    return bang_from_terms(base.space, acc)


def bang_add(a: BangElem, b: BangElem) -> BangElem:
    if a.space != b.space:
        raise ValueError("adding bang elements of different spaces")
    acc = dict(a.terms)
    for k, c in b.terms:
        acc[k] = acc.get(k, 0) + c
    return bang_from_terms(a.space, acc)


def bang_scale(c: Rational, a: BangElem) -> BangElem:
    if c == 0:
        return zero_bang(a.space)
    return BangElem(a.space, tuple((k, c * x) for k, x in a.terms))


# ---------------------------------------------------------------------------
# Tensor elements (elements of products of spaces, e.g. !V ⊗ !V)

#: A factor descriptor: a basis index for a finite factor, or a BangKey
#: for a ! factor; one kind per position, so terms sort as plain tuples.
Descriptor = int | BangKey


class TensorElem(NamedTuple):
    factors: tuple[Space, ...]
    terms: tuple[tuple[tuple[Descriptor, ...], Rational], ...]


def tensor_from_terms(
    factors: tuple[Space, ...], acc: dict[tuple[Descriptor, ...], Rational]
) -> TensorElem:
    cleaned = {k: c for k, c in acc.items() if c != 0}
    return TensorElem(factors, tuple(sorted(cleaned.items())))


# ---------------------------------------------------------------------------
# Structure maps


def counit(x: BangElem) -> Rational:
    """1 on each vacuum, 0 on longer kets, extended linearly."""
    total = 0
    for (_, args), c in x.terms:
        if not args:
            total += c
    return total


def dereliction(x: BangElem) -> Vect:
    """d|o⟩_P = P, d|ν⟩_P = ν, kets with two or more arguments ↦ 0."""
    out = zero_vec(x.space)
    for (base, args), c in x.terms:
        if len(args) == 0:
            out = vec_add(out, vec_scale(c, Vect(x.space, base)))
        elif len(args) == 1:
            out = vec_add(out, vec_scale(c, basis_vec(x.space, args[0])))
    return out


def coproduct(x: BangElem) -> TensorElem:
    """Δ|ν₁…ν_s⟩_P = Σ over index subsets I of |ν_I⟩_P ⊗ |ν_{I^c}⟩_P."""
    V = x.space
    acc: dict[tuple[Descriptor, ...], Rational] = {}
    for (base, args), c in x.terms:
        s = len(args)
        for mask in range(1 << s):
            left = tuple(args[i] for i in range(s) if mask >> i & 1)
            right = tuple(args[i] for i in range(s) if not mask >> i & 1)
            key = ((base, left), (base, right))
            acc[key] = acc.get(key, 0) + c
    return tensor_from_terms((BangSp(V), BangSp(V)), acc)


def set_partitions(s: int) -> list[tuple[tuple[int, ...], ...]]:
    """All partitions of {0, …, s−1} into blocks, in restricted-growth
    lexicographic order; blocks are ordered by first appearance."""
    if s == 0:
        return [()]
    out: list[tuple[tuple[int, ...], ...]] = []
    labels = [0] * s

    def rec(i: int, mx: int) -> None:
        if i == s:
            blocks: list[list[int]] = [[] for _ in range(mx + 1)]
            for pos, lbl in enumerate(labels):
                blocks[lbl].append(pos)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for v in range(mx + 2):
            labels[i] = v
            rec(i + 1, max(mx, v))

    rec(1, 0)
    return out


def lift(phi: Callable[[BangElem], Vect], x: BangElem, out_space: Space) -> BangElem:
    """The coalgebra morphism over the linear map φ : !W → V.

    Per ket term, sums over all set partitions of the argument multiset:
    a partition with blocks C₁…C_l contributes the ket whose arguments
    are the φ-images φ|ν_{C₁}⟩_P, …, φ|ν_{C_l}⟩_P, based at φ|o⟩_P.
    φ is called only on pure kets (one term, coefficient 1), once per
    distinct (base point, sub-multiset of the arguments) within one
    call: a ket with s distinct arguments has 2^s − 1 distinct blocks
    across its B(s) partitions, plus its vacuum.  The result is over
    ``out_space``, V.
    """
    acc: dict[BangKey, Rational] = {}
    # per base point: the φ-image of each sub-multiset met so far
    images: dict[tuple[Rational, ...], dict[tuple[int, ...], Vect]] = {}
    for (base, args), c in x.terms:
        at_base = images.get(base)
        if at_base is None:
            at_base = images[base] = {(): phi(_pure_ket(x.space, base, ()))}
        Q = at_base[()]
        for blocks in set_partitions(len(args)):
            block_images = []
            for block in blocks:
                sub = tuple(args[i] for i in block)  # sorted, as args are
                if sub not in at_base:
                    at_base[sub] = phi(_pure_ket(x.space, base, sub))
                block_images.append(at_base[sub])
            for key, c2 in ket(Q, block_images).terms:
                acc[key] = acc.get(key, 0) + c * c2
    return bang_from_terms(out_space, acc)


def _monomial_partitions(rest: int, monomials: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The set partitions of the variables of ``rest`` into blocks that
    are all among ``monomials``; each block is the one that holds the
    lowest variable still uncovered."""
    if not rest:
        yield ()
        return
    low = rest & -rest
    for m in monomials:
        if m & low and m & rest == m:
            for more in _monomial_partitions(rest ^ m, monomials):
                yield (m,) + more


def grouplike_kets(space: Space, terms: Iterable[tuple], top: int) -> BangElem:
    """The t^top coefficient of Σ c·g(x) over the (jet x, scalar jet c)
    pairs in ``terms``, as canonical kets over ``space`` (see the module
    docstring); a scalar jet is a jet over the unit space."""
    acc: dict[BangKey, Rational] = {}
    for point, coef in terms:
        parts = dict(point)
        base = Vect(space, parts.pop(0, (0,) * space_dim(space)))
        for mc, (c,) in coef:
            if mc & top != mc:
                continue
            for blocks in _monomial_partitions(top ^ mc, parts):
                for key, c2 in ket(base, [Vect(space, parts[m]) for m in blocks]).terms:
                    acc[key] = acc.get(key, 0) + c * c2
    return bang_from_terms(space, acc)


# ---------------------------------------------------------------------------
# Merge / split


def _sum_offsets(parts: tuple[Space, ...]) -> list[int]:
    offsets = [0]
    for p in parts:
        d = space_dim(p)
        if d is None:
            raise ValueError(f"cannot merge over infinite factor {space_label(p)}")
        offsets.append(offsets[-1] + d)
    return offsets


def merge(xs: Sequence[BangElem]) -> BangElem:
    """!W₁ ⊗ … ⊗ !W_g → !(W₁ ⊕ … ⊕ W_g) on canonical terms.

    Base points concatenate; ket arguments embed with offset-shifted
    basis indices.  ``merge([])`` is the vacuum over the zero space,
    which is what boxing a hypothesis-free proof consumes.
    """
    parts = tuple(x.space for x in xs)
    offsets = _sum_offsets(parts)
    total = SumSp(parts)
    acc: dict[BangKey, Rational] = {}
    for combo in itertools.product(*[x.terms for x in xs]) if xs else [()]:
        coeff = 1
        base: tuple[Rational, ...] = ()
        args: tuple[int, ...] = ()
        for i, ((b, a), c) in enumerate(combo):
            coeff *= c
            base += b
            args += tuple(offsets[i] + j for j in a)
        acc[(base, args)] = acc.get((base, args), 0) + coeff
    return bang_from_terms(total, acc)


def split(x: BangElem) -> tuple[BangElem, ...]:
    """Inverse of `merge` on one ket: the base point and the shifted
    arguments sliced per factor, the coefficient on the first factor.

    Raises ValueError on anything but one ket over a direct sum (over
    the empty sum, only the vacuum ``merge([])`` itself).
    """
    if not isinstance(x.space, SumSp) or len(x.terms) != 1:
        raise ValueError("split expects one ket over a direct sum")
    parts = x.space.parts
    ((base, args), c), = x.terms
    if not parts and c != 1:
        raise ValueError("split of the empty sum's vacuum takes coefficient 1")
    offsets = _sum_offsets(parts)
    keys = [
        (base[lo:hi], tuple(j - lo for j in args if lo <= j < hi))
        for lo, hi in zip(offsets, offsets[1:])
    ]
    return tuple(
        BangElem(p, ((k, c if i == 0 else 1),)) for i, (p, k) in enumerate(zip(parts, keys))
    )
