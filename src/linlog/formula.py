"""Formula syntax: ASTs, free variables, substitution, alpha-equivalence.

Formulas follow the grammar

    A ::= x | 1 | A * B | A -o B | !A | (all x. A)

with ``*`` the multiplicative product, ``-o`` linear implication (right
associative), ``!`` the exponential and ``all`` universal quantification
over propositional variables.  Everything is immutable.  No walk over
a formula recurses: :func:`fold`, the one bottom-up walk over proofs and
formulas, and :func:`emit`, the formula printers' top-down walk, keep
their nodes on explicit stacks.

Formulas are hash-consed, as the ``coalgebra`` spaces and the ``proof``
rule tags are, all by one metaclass: a class states its fields as
annotations, and calling it looks its fields up in the class's weak
table of live nodes, so structurally equal formulas are one object for
as long as any of them is alive.  Plain ``==`` is therefore
structural *by identity*, and ``==`` and ``hash`` cost O(1) whatever the
size of the formula.  It still distinguishes ``(all x. x -o x)`` from
``(all y. y -o y)``; comparison up to renaming of bound variables goes
through :func:`alpha_eq`.  Hashes are identity-based and differ between
runs, so nothing that reaches output may iterate over a set or dict of
formulas.
"""

from __future__ import annotations

from operator import attrgetter, eq
from typing import Callable, Iterable, Iterator, TypeVar
from weakref import KeyedRef, WeakKeyDictionary

T = TypeVar("T")

# What a node table gives for a missing key: like a dead reference, it
# returns None when called.
_dead = type(None)


class _Interning(type):
    """The metaclass of every hash-consed class: formulas, the ``coalgebra``
    spaces and the ``proof`` rule tags.  A class states only its fields, as
    annotations: they become its ``__slots__`` and its ``_names``, and
    :class:`_Interned` gives it a frozen record's behaviour, with identity
    ``==`` and ``hash``.  Calling it returns the one live node with those
    fields, given in order or by name: each class maps its fields to a weak
    reference to its node, whose callback drops the entry, so a hit is one
    dict lookup.  ``True == 1.0 == 1``: so a field annotated ``int`` takes
    exactly an ``int``, or ``Exchange(True)`` would answer for
    ``Exchange(1)``.  ``isinstance`` against an interned class is slow for
    a non-instance (it asks the metaclass), so hot paths test ``type(x) is C``."""

    def __new__(meta, name, bases, namespace):
        kinds = namespace.get("__annotations__", {})
        namespace.setdefault("__slots__", tuple(kinds))
        cls = super().__new__(meta, name, bases, namespace)
        cls._names = tuple(kinds)
        cls._ints = tuple(i for i, kind in enumerate(kinds.values()) if kind in ("int", int))
        cls._live = {}
        # one callback per class: it drops a dead node's entry, unless a
        # new node already holds that key
        cls._drop = lambda r: cls._live.pop(r.key) if cls._live.get(r.key) is r else None
        return cls

    def __call__(cls, *args, **kwargs):
        if kwargs:  # fields given by name follow those given in order
            args += tuple([kwargs.pop(name) for name in cls._names[len(args) :] if name in kwargs])
            if kwargs:
                raise TypeError(f"{cls.__name__} has no field {next(iter(kwargs))!r} left to set")
        for i in cls._ints:  # True == 1.0 == 1, so they must not reach the lookup
            if len(args) > i and type(args[i]) is not int:
                kind = type(args[i]).__name__
                raise TypeError(f"{cls.__name__}'s {cls._names[i]} must be an int, not {kind}")
        node = cls._live.get(args, _dead)()
        if node is None:  # a key of the wrong length is never stored
            if len(args) != len(cls._names):
                raise TypeError(f"{cls.__name__} takes the fields ({', '.join(cls._names)})")
            node = object.__new__(cls)
            for name, value in zip(cls._names, args):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_key", args)
            cls._live[args] = KeyedRef(node, cls._drop, args)
        return node


class _Interned(metaclass=_Interning):
    """A hash-consed node, frozen.  Its ``repr``, ``Lolli(ante=…, cons=…)``,
    is written by :func:`emit`; its copies and pickles are the node."""

    __slots__ = ("__weakref__", "_key")

    def __setattr__(self, name: str, *value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return "".join(emit((self,), _shown))

    def __deepcopy__(self, memo: dict) -> _Interned:
        return self

    def __reduce__(self):
        return type(self), self._key


def _shown(v: object, names: tuple[str, ...] = ()) -> list:
    """Expands a value for :func:`emit` into its ``repr``: an interned node
    as its class's name and fields (named by ``names``), a tuple as Python shows it."""
    if type(type(v)) is _Interning:
        return [type(v).__name__, (v._key, v._names)]
    if type(v) is not tuple:
        return [repr(v)]
    shown = ["("]
    for i, x in enumerate(v):
        shown += [", " * (i > 0) + (f"{names[i]}=" if names else ""), (x,)]
    return shown + [",)" if len(v) == 1 and not names else ")"]


#: The fields of an interned node, in order: what its class was called with.
field_values: Callable[[_Interned], tuple] = attrgetter("_key")


class Var(_Interned):
    name: str


class One(_Interned):
    pass


class Tensor(_Interned):
    left: Formula
    right: Formula


class Lolli(_Interned):
    ante: Formula
    cons: Formula


class Bang(_Interned):
    body: Formula


class Forall(_Interned):
    binder: str
    body: Formula


Formula = Var | One | Tensor | Lolli | Bang | Forall


def children(a: Formula) -> tuple[Formula, ...]:
    """The formula-valued fields of ``a``, left to right: the accessor
    :func:`fold` walks formulas with."""
    kind = type(a)
    if kind is Var or kind is One:
        return ()
    return (a.body,) if kind is Forall else field_values(a)


def fold(
    p: object,
    f: Callable[[object, list[T]], T],
    premises: Callable[[object], tuple] = attrgetter("premises"),
) -> T:
    """The catamorphism over proofs and formulas: ``f(node, results)`` on
    each distinct node object of ``p``, where ``results`` holds what ``f``
    gave for each of ``premises(node)`` (a proof's premises by default;
    formulas pass :func:`children`), left to right and before the node;
    returns the root's result.  Nodes wait on an explicit stack, so depth
    costs no recursion, and a subtree shared by identity is visited once.
    ``premises`` may return fewer children than a node has, to keep the
    walk out of a subtree that ``f`` handles itself."""
    done: dict[int, T] = {}
    result = done.__getitem__
    stack: list = [p]
    waiting: list[tuple] = []  # None on the stack: waiting[-1]'s premises are done
    while stack:
        node = stack.pop()
        if node is None:
            node, below = waiting.pop()
            done[id(node)] = f(node, list(map(result, map(id, below))))
        elif id(node) not in done:
            below = premises(node)
            if not below:  # a leaf: nothing to wait for
                done[id(node)] = f(node, [])
                continue
            waiting.append((node, below))
            stack.append(None)
            stack.extend(reversed(below))
    return done[id(p)]


#: Formula -> its free variables, for as long as the formula is alive.
_FREE: WeakKeyDictionary = WeakKeyDictionary()


def free_vars(a: Formula) -> frozenset[str]:
    """The free propositional variables of ``a``, remembered per formula."""
    fv = _FREE.get(a)
    return fold(a, _free_node, lambda c: () if c in _FREE else children(c)) if fv is None else fv


def _free_node(a: Formula, parts: list[frozenset[str]]) -> frozenset[str]:
    if a not in _FREE:
        fv = frozenset((a.name,)) if type(a) is Var else frozenset().union(*parts)
        _FREE[a] = fv - {a.binder} if type(a) is Forall else fv
    return _FREE[a]


def fresh_name(stem: str, avoid: Iterable[str]) -> str:
    """A name not in ``avoid``, derived from ``stem`` by priming."""
    avoid = set(avoid)
    name = stem
    while name in avoid:
        name += "'"
    return name


def substitute(a: Formula, x: str, b: Formula) -> Formula:
    """Capture-avoiding substitution of ``b`` for free occurrences of ``x``.

    The fold enters only subformulas in which ``x`` is free, and not the
    body of a binder that would capture a free variable of ``b``: that
    binder is renamed (with primes) and its body substituted apart.
    """
    fv_b = free_vars(b)

    def enter(c: Formula) -> tuple[Formula, ...]:
        captures = type(c) is Forall and c.binder in fv_b
        return () if captures or x not in free_vars(c) else children(c)

    def node(c: Formula, parts: list[Formula]) -> Formula:
        if x not in free_vars(c):
            return c
        if type(c) is Var:
            return b
        if type(c) is not Forall:
            return type(c)(*parts)
        if c.binder not in fv_b:
            return Forall(c.binder, *parts)
        fresh = fresh_name(c.binder, fv_b | free_vars(c.body) | {x})
        renamed = substitute(c.body, c.binder, Var(fresh))
        return Forall(fresh, fold(renamed, node, enter))

    return fold(a, node, enter)


def alpha_eq(a: Formula, b: Formula) -> bool:
    """True iff ``a`` and ``b`` differ only by consistent binder renaming."""
    return a is b or _alpha(a, b, {}, {}, 0)


def _alpha(
    a: Formula, b: Formula, enva: dict[str, int], envb: dict[str, int], depth: int
) -> bool:
    """Alpha-equality with names pre-bound to levels below ``depth``: the
    two formulas' canonical sequences are equal.

    Used by clients that bind variables outside the formulas themselves
    (quantifier rules bind a name across a whole proof subtree).
    """
    if a is b and not enva and not envb:
        return True
    # canonical sequences are prefix-free, so zip may stop at the shorter
    return all(map(eq, emit((a, enva, depth), _canon), emit((b, envb, depth), _canon)))


def emit(root: tuple, expand: Callable[..., list]) -> Iterator:
    """The top-down walk behind the formula printers and alpha-equality,
    over an explicit stack: ``expand(*item)`` lists the output of an item
    (a node and its context, in a tuple) as tokens and further items, in
    order; yields the tokens."""
    stack = [root]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            stack.extend(reversed(expand(*item)))
        else:
            yield item


def _canon(a: Formula, env: dict[str, int], depth: int) -> list:
    """Expands ``a`` for :func:`emit` into its alpha-class as a flat list:
    a connective as its class, a bound variable as its binder's level (an
    ``int``), a free one as its name (a ``str``), ``None`` closing a
    compound.  ``env`` pre-binds names to levels below ``depth``."""
    kind = type(a)
    if kind is Var:
        return [env.get(a.name, a.name)]
    if kind is One:
        return [One]
    if kind is Forall:
        env, depth = {**env, a.binder: depth}, depth + 1
    return [kind, *[(c, env, depth) for c in children(a)], None]


_CANON_TEXT = {One: "1", Tensor: "(*", Lolli: "(-o", Bang: "(!", Forall: "(all", None: ")"}


def canonical_print(a: Formula) -> str:
    """Injective rendering of the alpha-class of ``a``.

    Binders are dropped and bound occurrences printed as ``#level``
    (a spelling no parseable identifier can collide with), so two
    parsed formulas have equal canonical prints iff they are alpha-equal.
    """
    out: list[str] = []
    for t in emit((a, {}, 0), _canon):
        if out and t is not None:
            out.append(" ")
        out.append(f"#{t}" if type(t) is int else _CANON_TEXT.get(t, t))
    return "".join(out)


def format_formula(a: Formula) -> str:
    """Surface rendering: bare at top level, compound subterms parenthesized.

    >>> format_formula(int_type(Var("A")))
    '!(A -o A) -o (A -o A)'
    """
    return "".join(emit((a, True), _surface))


def _surface(a: Formula, top: bool) -> list:
    kind = type(a)
    if kind is Var:
        return [a.name]
    if kind is One:
        return ["1"]
    if kind is Bang:
        return ["!", (a.body, False)]
    if kind is Forall:
        return [f"(all {a.binder}. ", (a.body, True), ")"]
    left, right = children(a)
    infix = [(left, False), " * " if kind is Tensor else " -o ", (right, False)]
    return infix if top else ["(", *infix, ")"]


class Sequent:
    """An ordered hypothesis list and a single conclusion formula.  ``==``
    compares the interned conclusions by identity, then the contexts; the
    hash is kept from the first ``hash()``.  Immutable by contract, as
    ``proof.Proof`` is: not frozen, so the constructor makes plain stores."""

    __slots__ = ("context", "conclusion", "_hash")

    def __init__(self, context: tuple[Formula, ...], conclusion: Formula) -> None:
        self.context = context
        self.conclusion = conclusion
        self._hash = None

    def __repr__(self) -> str:
        return f"Sequent(context={self.context!r}, conclusion={self.conclusion!r})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not Sequent:
            return NotImplemented
        return self.conclusion is other.conclusion and self.context == other.context

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.context, self.conclusion))
        return self._hash

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
