"""Formula syntax: ASTs, free variables, substitution, alpha-equivalence.

Formulas follow the grammar

    A ::= x | 1 | A * B | A -o B | !A | (all x. A)

with ``*`` the multiplicative product, ``-o`` linear implication (right
associative), ``!`` the exponential and ``all`` universal quantification
over propositional variables.  Everything is immutable.

Formulas are hash-consed: the constructors look each (class, children)
key up in a weak intern table, so structurally equal formulas are one
object for as long as any of them is alive.  Plain ``==`` is therefore
structural *by identity*, and ``==`` and ``hash`` cost O(1) whatever the
size of the formula.  It still distinguishes ``(all x. x -o x)`` from
``(all y. y -o y)``; comparison up to renaming of bound variables goes
through :func:`alpha_eq`, or equivalently through string equality of
:func:`canonical_print`.  Hashes are identity-based and differ between
runs, so nothing that reaches output may iterate over a set or dict of
formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable
from weakref import WeakValueDictionary

#: (class, *fields) -> the one live formula with those fields.  The key
#: holds the children, which the formula holds anyway; the entry goes
#: away with the formula.
_INTERNED: WeakValueDictionary = WeakValueDictionary()


def _intern(cls, *fields):
    key = (cls, *fields)
    node = _INTERNED.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        _INTERNED[key] = node
    return node


class _Interned:
    """Identity equality and hashing; copies and pickles re-intern."""

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


@dataclass(frozen=True, eq=False, init=False)
class Var(_Interned):
    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str) -> Var:
        return _intern(cls, name)


@dataclass(frozen=True, eq=False, init=False)
class One(_Interned):
    __slots__ = ()

    def __new__(cls) -> One:
        return _intern(cls)


@dataclass(frozen=True, eq=False, init=False)
class Tensor(_Interned):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula

    def __new__(cls, left: Formula, right: Formula) -> Tensor:
        return _intern(cls, left, right)


@dataclass(frozen=True, eq=False, init=False)
class Lolli(_Interned):
    __slots__ = ("ante", "cons")
    ante: Formula
    cons: Formula

    def __new__(cls, ante: Formula, cons: Formula) -> Lolli:
        return _intern(cls, ante, cons)


@dataclass(frozen=True, eq=False, init=False)
class Bang(_Interned):
    __slots__ = ("body",)
    body: Formula

    def __new__(cls, body: Formula) -> Bang:
        return _intern(cls, body)


@dataclass(frozen=True, eq=False, init=False)
class Forall(_Interned):
    __slots__ = ("binder", "body")
    binder: str
    body: Formula

    def __new__(cls, binder: str, body: Formula) -> Forall:
        return _intern(cls, binder, body)


Formula = Var | One | Tensor | Lolli | Bang | Forall


def free_vars(a: Formula) -> frozenset[str]:
    """The free propositional variables of ``a``."""
    if isinstance(a, Var):
        return frozenset((a.name,))
    if isinstance(a, One):
        return frozenset()
    if isinstance(a, Tensor):
        return free_vars(a.left) | free_vars(a.right)
    if isinstance(a, Lolli):
        return free_vars(a.ante) | free_vars(a.cons)
    if isinstance(a, Bang):
        return free_vars(a.body)
    if isinstance(a, Forall):
        return free_vars(a.body) - {a.binder}
    raise TypeError(f"not a formula: {a!r}")


def fresh_name(stem: str, avoid: Iterable[str]) -> str:
    """A name not in ``avoid``, derived from ``stem`` by priming."""
    avoid = set(avoid)
    name = stem
    while name in avoid:
        name += "'"
    return name


def substitute(a: Formula, x: str, b: Formula) -> Formula:
    """Capture-avoiding substitution of ``b`` for free occurrences of ``x``.

    Binders of ``a`` that would capture a free variable of ``b`` are
    renamed (with primes) before descending.
    """
    if isinstance(a, Var):
        return b if a.name == x else a
    if isinstance(a, One):
        return a
    if isinstance(a, Tensor):
        return Tensor(substitute(a.left, x, b), substitute(a.right, x, b))
    if isinstance(a, Lolli):
        return Lolli(substitute(a.ante, x, b), substitute(a.cons, x, b))
    if isinstance(a, Bang):
        return Bang(substitute(a.body, x, b))
    if isinstance(a, Forall):
        if a.binder == x:
            return a
        if x not in free_vars(a.body):
            return a
        if a.binder in free_vars(b):
            fresh = fresh_name(a.binder, free_vars(b) | free_vars(a.body) | {x})
            renamed = substitute(a.body, a.binder, Var(fresh))
            return Forall(fresh, substitute(renamed, x, b))
        return Forall(a.binder, substitute(a.body, x, b))
    raise TypeError(f"not a formula: {a!r}")


def alpha_eq(a: Formula, b: Formula) -> bool:
    """True iff ``a`` and ``b`` differ only by consistent binder renaming."""
    return a is b or _alpha(a, b, {}, {}, 0)


def _alpha(
    a: Formula, b: Formula, enva: dict[str, int], envb: dict[str, int], depth: int
) -> bool:
    """Alpha-equality with names pre-bound to levels below ``depth``.

    Used by clients that bind variables outside the formulas themselves
    (quantifier rules bind a name across a whole proof subtree).
    """
    if a is b and not enva and not envb:
        return True
    if isinstance(a, Var) and isinstance(b, Var):
        return enva.get(a.name, a.name) == envb.get(b.name, b.name)
    if isinstance(a, One) and isinstance(b, One):
        return True
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        return _alpha(a.left, b.left, enva, envb, depth) and _alpha(
            a.right, b.right, enva, envb, depth
        )
    if isinstance(a, Lolli) and isinstance(b, Lolli):
        return _alpha(a.ante, b.ante, enva, envb, depth) and _alpha(
            a.cons, b.cons, enva, envb, depth
        )
    if isinstance(a, Bang) and isinstance(b, Bang):
        return _alpha(a.body, b.body, enva, envb, depth)
    if isinstance(a, Forall) and isinstance(b, Forall):
        return _alpha(
            a.body,
            b.body,
            {**enva, a.binder: depth},
            {**envb, b.binder: depth},
            depth + 1,
        )
    return False


def canonical_print(a: Formula) -> str:
    """Injective rendering of the alpha-class of ``a``.

    Binders are dropped and bound occurrences printed as ``#level``
    (a spelling no parseable identifier can collide with), so two
    formulas have equal canonical prints iff they are alpha-equal.
    """
    return _canon(a, {}, 0)


def _canon(a, env, depth):
    if isinstance(a, Var):
        level = env.get(a.name)
        return a.name if level is None else f"#{level}"
    if isinstance(a, One):
        return "1"
    if isinstance(a, Tensor):
        return f"(* {_canon(a.left, env, depth)} {_canon(a.right, env, depth)})"
    if isinstance(a, Lolli):
        return f"(-o {_canon(a.ante, env, depth)} {_canon(a.cons, env, depth)})"
    if isinstance(a, Bang):
        return f"(! {_canon(a.body, env, depth)})"
    if isinstance(a, Forall):
        return f"(all {_canon(a.body, {**env, a.binder: depth}, depth + 1)})"
    raise TypeError(f"not a formula: {a!r}")


def format_formula(a: Formula) -> str:
    """Surface rendering: bare at top level, compound subterms parenthesized.

    >>> format_formula(int_type(Var("A")))
    '!(A -o A) -o (A -o A)'
    """
    return _fmt(a, True)


def _fmt(a, top):
    if isinstance(a, Var):
        return a.name
    if isinstance(a, One):
        return "1"
    if isinstance(a, Bang):
        return "!" + _fmt(a.body, False)
    if isinstance(a, Forall):
        return f"(all {a.binder}. {_fmt(a.body, True)})"
    if isinstance(a, Tensor):
        body = f"{_fmt(a.left, False)} * {_fmt(a.right, False)}"
    elif isinstance(a, Lolli):
        body = f"{_fmt(a.ante, False)} -o {_fmt(a.cons, False)}"
    else:
        raise TypeError(f"not a formula: {a!r}")
    return body if top else f"({body})"


@dataclass(frozen=True)
class Sequent:
    """An ordered hypothesis list and a single conclusion formula."""

    context: tuple[Formula, ...]
    conclusion: Formula

    def __post_init__(self) -> None:
        # hashed once: proof nodes hash their conclusion on construction
        object.__setattr__(self, "_hash", hash((self.context, self.conclusion)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return format_sequent(self)


def format_sequent(s: Sequent) -> str:
    ctx = ", ".join(format_formula(a) for a in s.context)
    turnstile = "⊢" if not ctx else ctx + " ⊢"
    return f"{turnstile} {format_formula(s.conclusion)}"


def sequent_alpha_eq(s: Sequent, t: Sequent) -> bool:
    return s == t or (
        len(s.context) == len(t.context)
        and all(alpha_eq(a, b) for a, b in zip(s.context, t.context))
        and alpha_eq(s.conclusion, t.conclusion)
    )


def endo(a: Formula) -> Formula:
    """The endomorphism type ``a -o a``."""
    return Lolli(a, a)


def int_type(a: Formula) -> Formula:
    """The iterator type ``!(a -o a) -o (a -o a)`` over a fixed ``a``."""
    return Lolli(Bang(endo(a)), endo(a))


#: The polymorphic iterator type ``(all x. !(x -o x) -o (x -o x))``.
INT: Formula = Forall("x", int_type(Var("x")))
