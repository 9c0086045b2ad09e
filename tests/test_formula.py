import copy
import dataclasses
import gc
import pickle
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _kernelref
from linlog import coalgebra, formula, proof
from linlog.coalgebra import BaseSp
from linlog.encodings import church
from linlog.formula import (
    INT,
    Bang,
    Forall,
    Lolli,
    One,
    Sequent,
    Tensor,
    Var,
    alpha_eq,
    canonical_print,
    endo,
    format_formula,
    format_sequent,
    free_vars,
    fresh_name,
    int_type,
    sequent_alpha_eq,
    substitute,
)
from linlog.semantics import den_formula
from linlog.sexpr import parse_formula

A = Var("A")
X = Var("x")
Y = Var("y")


def _random_formula(rng, depth, names=("x", "y", "z")):
    """Small random formula, possibly with binders."""
    if depth == 0:
        return rng.choice([One(), Var(rng.choice(names))])
    kind = rng.choice(["var", "one", "tensor", "lolli", "bang", "forall"])
    if kind == "var":
        return Var(rng.choice(names))
    if kind == "one":
        return One()
    if kind == "tensor":
        return Tensor(_random_formula(rng, depth - 1, names), _random_formula(rng, depth - 1, names))
    if kind == "lolli":
        return Lolli(_random_formula(rng, depth - 1, names), _random_formula(rng, depth - 1, names))
    if kind == "bang":
        return Bang(_random_formula(rng, depth - 1, names))
    return Forall(rng.choice(names), _random_formula(rng, depth - 1, names))


def _rename_binders(rng, a, suffix):
    """An alpha-equal copy of ``a`` with every binder renamed."""
    if isinstance(a, (Var, One)):
        return a
    if isinstance(a, Tensor):
        return Tensor(_rename_binders(rng, a.left, suffix), _rename_binders(rng, a.right, suffix))
    if isinstance(a, Lolli):
        return Lolli(_rename_binders(rng, a.ante, suffix), _rename_binders(rng, a.cons, suffix))
    if isinstance(a, Bang):
        return Bang(_rename_binders(rng, a.body, suffix))
    fresh = a.binder + suffix
    body = substitute(a.body, a.binder, Var(fresh))
    return Forall(fresh, _rename_binders(rng, body, suffix))


def test_free_vars():
    assert free_vars(INT) == frozenset()
    assert free_vars(Tensor(X, Y)) == {"x", "y"}
    assert free_vars(Forall("x", Lolli(X, Y))) == {"y"}
    assert free_vars(One()) == frozenset()


def test_substitute_builds_nested_iterator_type():
    assert substitute(int_type(X), "x", int_type(A)) == int_type(int_type(A))


def test_substitute_no_free_occurrence_is_identity():
    rng = random.Random(7)
    for _ in range(50):
        a = _random_formula(rng, 3)
        assert substitute(a, "w", Tensor(X, Y)) == a


def test_substitute_self_is_alpha_identity():
    rng = random.Random(8)
    for _ in range(50):
        a = _random_formula(rng, 3)
        assert alpha_eq(substitute(a, "x", X), a)


def test_substitute_avoids_capture():
    # (all y. x -o y)[y/x] must rename the binder, not capture.
    a = Forall("y", Lolli(X, Y))
    result = substitute(a, "x", Y)
    assert alpha_eq(result, Forall("z", Lolli(Y, Var("z"))))
    assert not alpha_eq(result, Forall("z", Lolli(Var("z"), Var("z"))))


def test_substitute_idempotent_when_var_gone():
    rng = random.Random(9)
    b = Lolli(Y, One())  # x not free in b
    for _ in range(50):
        a = _random_formula(rng, 3)
        once = substitute(a, "x", b)
        assert substitute(once, "x", b) == once


def test_alpha_eq_basics():
    assert alpha_eq(Forall("x", Lolli(X, X)), Forall("y", Lolli(Y, Y)))
    assert not alpha_eq(Lolli(X, X), Lolli(Y, Y))
    assert alpha_eq(INT, Forall("z", int_type(Var("z"))))
    assert Forall("x", Lolli(X, X)) != Forall("y", Lolli(Y, Y))


def test_alpha_eq_is_equivalence_and_matches_canonical_print():
    rng = random.Random(10)
    formulas = [_random_formula(rng, 3) for _ in range(40)]
    formulas += [_rename_binders(rng, a, "0") for a in formulas[:20]]
    for a in formulas:
        assert alpha_eq(a, a)
    for a in formulas:
        for b in formulas:
            assert alpha_eq(a, b) == (canonical_print(a) == canonical_print(b))


def test_renamed_binders_stay_alpha_equal():
    rng = random.Random(11)
    for _ in range(40):
        a = _random_formula(rng, 4)
        assert alpha_eq(a, _rename_binders(rng, a, "_r"))


def test_fresh_name_primes():
    assert fresh_name("x", {"x", "x'"}) == "x''"
    assert fresh_name("q", {"x"}) == "q"


def test_format_formula():
    assert format_formula(int_type(A)) == "!(A -o A) -o (A -o A)"
    assert format_formula(INT) == "(all x. !(x -o x) -o (x -o x))"
    assert format_formula(Tensor(Tensor(A, A), One())) == "(A * A) * 1"
    assert format_formula(Bang(Bang(A))) == "!!A"
    assert format_formula(endo(A)) == "A -o A"


def test_format_sequent():
    s = Sequent((endo(A), endo(A)), endo(A))
    assert format_sequent(s) == "A -o A, A -o A ⊢ A -o A"
    assert format_sequent(Sequent((), One())) == "⊢ 1"
    assert str(s) == "A -o A, A -o A ⊢ A -o A"


def test_sequent_alpha_eq():
    s = Sequent((Forall("x", Lolli(X, X)),), One())
    t = Sequent((Forall("y", Lolli(Y, Y)),), One())
    assert sequent_alpha_eq(s, t)
    assert not sequent_alpha_eq(s, Sequent((), One()))


def test_sequents_with_equal_contexts_and_other_conclusions_differ():
    ctx = (Bang(A), Lolli(A, A))
    assert Sequent(ctx, A) == Sequent(tuple(ctx), Var("A"))
    assert Sequent(ctx, A) != Sequent(ctx, Lolli(A, A))
    assert Sequent(ctx, A) != Sequent(ctx[:1], A)
    assert Sequent(ctx, A) != (ctx, A)
    assert Sequent(ctx, A).__eq__((ctx, A)) is NotImplemented


def test_formulas_are_interned():
    assert Var("A") is Var("A")
    assert One() is One()
    assert Lolli(Bang(endo(A)), endo(A)) is int_type(A)
    assert hash(Tensor(X, Y)) == hash(Tensor(Var("x"), Var("y")))
    # alpha-variants stay distinct objects: == is structural, not alpha
    renamed = Forall("y", Lolli(Y, Y))
    assert renamed != Forall("x", Lolli(X, X))
    assert alpha_eq(renamed, Forall("x", Lolli(X, X)))
    assert canonical_print(renamed) == canonical_print(Forall("x", Lolli(X, X)))


def test_parsed_formulas_are_the_constructed_ones():
    assert parse_formula("(all x. !(x -o x) -o (x -o x))") is INT
    assert parse_formula("!A * 1 -o A") is Lolli(Tensor(Bang(A), One()), A)


def test_intern_table_holds_formulas_weakly():
    a = Lolli(Var("only_here"), Tensor(One(), Var("only_here")))
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


def test_a_denoted_formula_is_still_held_weakly():
    # den_formula remembers the space, but neither the formula nor its parts
    gc.collect()
    before = len(Bang._live)
    tower = Var("only_in_this_tower")
    for _ in range(10_000):
        tower = Bang(tower)
    asg = {"only_in_this_tower": 1}
    assert den_formula(tower, asg) is den_formula(tower, asg)
    assert len(Bang._live) == before + 10_000
    del tower
    gc.collect()
    assert len(Bang._live) <= before


def test_copies_and_pickles_are_the_interned_formula():
    assert copy.copy(INT) is INT
    assert copy.deepcopy(INT) is INT
    assert pickle.loads(pickle.dumps(INT)) is INT


_SP = BaseSp("A", 2)

#: Every hash-consed class, with fields that build one of its nodes.
_NODES = [
    (Var, ("x",)),
    (One, ()),
    (Tensor, (A, X)),
    (Lolli, (A, X)),
    (Bang, (A,)),
    (Forall, ("x", X)),
    (BaseSp, ("A", 2)),
    (coalgebra.UnitSp, ()),
    (coalgebra.TensorSp, (_SP, _SP)),
    (coalgebra.HomSp, (_SP, _SP)),
    (coalgebra.BangSp, (_SP,)),
    (coalgebra.SumSp, ((_SP, _SP),)),
    (proof.Axiom, (A,)),
    (proof.Exchange, (0,)),
    (proof.Cut, (1,)),
    (proof.TensorR, ()),
    (proof.TensorL, (0,)),
    (proof.LolliR, ()),
    (proof.LolliL, (2,)),
    (proof.Promotion, ()),
    (proof.Dereliction, (0,)),
    (proof.Contraction, (0,)),
    (proof.Weakening, (1, Bang(A))),
    (proof.OneL, (0,)),
    (proof.OneR, ()),
    (proof.ForallR, ("x",)),
    (proof.ForallL, (0, INT, A)),
]


def test_every_interned_class_is_listed():
    assert len(_NODES) == 27
    assert {cls for cls, _ in _NODES} == set(formula._Interned.__subclasses__())


@pytest.mark.parametrize("cls, fields", _NODES, ids=[cls.__name__ for cls, _ in _NODES])
def test_an_interned_class_makes_one_frozen_node_per_fields(cls, fields, monkeypatch):
    # an empty table of its own, so that no other test holds the node
    monkeypatch.setattr(cls, "_live", {})
    node = cls(*fields)
    names = list(cls.__annotations__)
    assert cls(*fields) is node and cls(**dict(zip(names, fields))) is node
    assert formula.field_values(node) == fields
    assert node == cls(*fields) and hash(node) == object.__hash__(node)
    with pytest.raises(TypeError):
        cls(*fields, fields[-1] if fields else 0)
    if fields:
        with pytest.raises(TypeError):
            cls(*fields[:-1])
    for name in names or ["anything"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(node, name)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields))
    assert repr(node) == f"{cls.__name__}({shown})"
    assert copy.copy(node) is node and copy.deepcopy(node) is node
    assert pickle.loads(pickle.dumps(node)) is node
    held = weakref.ref(node)
    del node
    gc.collect()
    assert held() is None and cls._live == {}


def test_repr_and_deepcopy_take_deep_nodes():
    # repr walks with emit and deepcopy returns the node: neither recurses
    assert sys.getrecursionlimit() <= 1000
    tower, space = A, BaseSp("A", 2)
    for _ in range(3000):
        tower, space = Bang(tower), coalgebra.BangSp(space)
    assert repr(tower) == "Bang(body=" * 3000 + "Var(name='A')" + ")" * 3000
    assert repr(space) == "BangSp(inner=" * 3000 + "BaseSp(label='A', dim=2)" + ")" * 3000
    assert len(repr(tower)) == 33013 and len(repr(space)) == 42024
    assert copy.deepcopy(tower) is tower and copy.deepcopy(space) is space


def test_a_sequent_shows_its_fields():
    s = Sequent((A, Bang(X)), Lolli(A, X))
    assert repr(s) == (
        "Sequent(context=(Var(name='A'), Bang(body=Var(name='x'))), "
        "conclusion=Lolli(ante=Var(name='A'), cons=Var(name='x')))"
    )
    assert repr(Sequent((), One())) == "Sequent(context=(), conclusion=One())"


def test_a_constructor_takes_exactly_its_fields():
    for make in (lambda: Tensor(X), lambda: Var(), lambda: One(X), lambda: Bang(X, X)):
        with pytest.raises(TypeError):
            make()


def test_validate_of_a_numeral_never_compares_structurally(monkeypatch):
    calls = []
    real = formula._alpha

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(formula, "_alpha", counting)
    assert alpha_eq(Forall("x", X), Forall("y", Y))
    assert len(calls) > 0  # the patch sees the structural walk
    calls.clear()
    assert _kernelref.validate(church(300, A)) == []
    assert calls == []


# ---------------------------------------------------------------------------
# The formula walkers as they were written before they became folds and
# explicit-stack emitters: each recurses with the depth of the formula.
# They are kept here as the reference.


def _ref_free_vars(a):
    if isinstance(a, Var):
        return frozenset((a.name,))
    if isinstance(a, One):
        return frozenset()
    if isinstance(a, Tensor):
        return _ref_free_vars(a.left) | _ref_free_vars(a.right)
    if isinstance(a, Lolli):
        return _ref_free_vars(a.ante) | _ref_free_vars(a.cons)
    if isinstance(a, Bang):
        return _ref_free_vars(a.body)
    return _ref_free_vars(a.body) - {a.binder}


def _ref_substitute(a, x, b):
    if isinstance(a, Var):
        return b if a.name == x else a
    if isinstance(a, One):
        return a
    if isinstance(a, Tensor):
        return Tensor(_ref_substitute(a.left, x, b), _ref_substitute(a.right, x, b))
    if isinstance(a, Lolli):
        return Lolli(_ref_substitute(a.ante, x, b), _ref_substitute(a.cons, x, b))
    if isinstance(a, Bang):
        return Bang(_ref_substitute(a.body, x, b))
    if a.binder == x or x not in _ref_free_vars(a.body):
        return a
    if a.binder in _ref_free_vars(b):
        fresh = fresh_name(a.binder, _ref_free_vars(b) | _ref_free_vars(a.body) | {x})
        renamed = _ref_substitute(a.body, a.binder, Var(fresh))
        return Forall(fresh, _ref_substitute(renamed, x, b))
    return Forall(a.binder, _ref_substitute(a.body, x, b))


def _ref_alpha(a, b, enva, envb, depth):
    if isinstance(a, Var) and isinstance(b, Var):
        return enva.get(a.name, a.name) == envb.get(b.name, b.name)
    if isinstance(a, One) and isinstance(b, One):
        return True
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        return _ref_alpha(a.left, b.left, enva, envb, depth) and _ref_alpha(
            a.right, b.right, enva, envb, depth
        )
    if isinstance(a, Lolli) and isinstance(b, Lolli):
        return _ref_alpha(a.ante, b.ante, enva, envb, depth) and _ref_alpha(
            a.cons, b.cons, enva, envb, depth
        )
    if isinstance(a, Bang) and isinstance(b, Bang):
        return _ref_alpha(a.body, b.body, enva, envb, depth)
    if isinstance(a, Forall) and isinstance(b, Forall):
        return _ref_alpha(
            a.body, b.body, {**enva, a.binder: depth}, {**envb, b.binder: depth}, depth + 1
        )
    return False


def _ref_canon(a, env, depth):
    if isinstance(a, Var):
        level = env.get(a.name)
        return a.name if level is None else f"#{level}"
    if isinstance(a, One):
        return "1"
    if isinstance(a, Tensor):
        return f"(* {_ref_canon(a.left, env, depth)} {_ref_canon(a.right, env, depth)})"
    if isinstance(a, Lolli):
        return f"(-o {_ref_canon(a.ante, env, depth)} {_ref_canon(a.cons, env, depth)})"
    if isinstance(a, Bang):
        return f"(! {_ref_canon(a.body, env, depth)})"
    return f"(all {_ref_canon(a.body, {**env, a.binder: depth}, depth + 1)})"


def _ref_fmt(a, top=True):
    if isinstance(a, Var):
        return a.name
    if isinstance(a, One):
        return "1"
    if isinstance(a, Bang):
        return "!" + _ref_fmt(a.body, False)
    if isinstance(a, Forall):
        return f"(all {a.binder}. {_ref_fmt(a.body, True)})"
    if isinstance(a, Tensor):
        body = f"{_ref_fmt(a.left, False)} * {_ref_fmt(a.right, False)}"
    else:
        body = f"{_ref_fmt(a.ante, False)} -o {_ref_fmt(a.cons, False)}"
    return body if top else f"({body})"


_NAMES = st.sampled_from("xyz")
_FORMULAS = st.recursive(
    st.one_of(_NAMES.map(Var), st.just(One())),
    lambda sub: st.one_of(
        st.builds(Tensor, sub, sub),
        st.builds(Lolli, sub, sub),
        st.builds(Bang, sub),
        st.builds(Forall, _NAMES, sub),
    ),
    max_leaves=12,
)
_DIFFERENTIAL = settings(derandomize=True, max_examples=60, deadline=None)


@_DIFFERENTIAL
@given(_FORMULAS)
def test_printers_and_free_vars_match_the_recursive_reference(a):
    assert free_vars(a) == _ref_free_vars(a)
    assert canonical_print(a) == _ref_canon(a, {}, 0)
    assert format_formula(a) == _ref_fmt(a)
    assert parse_formula(format_formula(a)) is a


@_DIFFERENTIAL
@given(_FORMULAS, _NAMES, _FORMULAS)
def test_substitute_matches_the_recursive_reference(a, x, b):
    assert substitute(a, x, b) is _ref_substitute(a, x, b)
    # b's binder names as free variables: every binder of a captures
    for name in ("x", "y", "z"):
        assert substitute(a, x, Var(name)) is _ref_substitute(a, x, Var(name))


@_DIFFERENTIAL
@given(_FORMULAS, _FORMULAS, st.data())
def test_alpha_matches_the_recursive_reference(a, b, data):
    depth = data.draw(st.integers(0, 3))
    env = st.dictionaries(_NAMES, st.integers(0, depth - 1)) if depth else st.just({})
    enva, envb = data.draw(env), data.draw(env)
    for u, v in ((a, b), (a, a), (a, _rename_binders(random.Random(0), a, "0"))):
        assert formula._alpha(u, v, enva, envb, depth) == _ref_alpha(u, v, enva, envb, depth)
        assert formula._alpha(u, v, {}, {}, 0) == _ref_alpha(u, v, {}, {}, 0)


def test_a_free_name_never_stands_for_a_bound_level():
    # "#0" is no identifier the parser reads, but the API builds it
    assert not alpha_eq(Forall("x", X), Forall("x", Var("#0")))
    assert not formula._alpha(X, Var("#0"), {"x": 0}, {}, 1)
    assert not alpha_eq(One(), Var("1"))


def _nested_binders(v, n):
    """(all v. (all v. … (all v. z -o v) … -o v) -o v), n binders deep."""
    return f"(all {v}. " * n + "z" + f" -o {v})" * n


def test_deep_formulas_take_no_recursion():
    assert formula.fold is proof.fold
    assert sys.getrecursionlimit() <= 1000
    n = 5000
    tower = "!" * 100_000 + "A"
    cases = [  # text, an alpha-variant, the canonical print, the free variables
        (tower, None, "(! " * 100_000 + "A" + ")" * 100_000, {"A"}),
        (" -o ".join(["B"] * n + ["A"]), None, "(-o B " * n + "A" + ")" * n, {"A", "B"}),
        (
            "(" * n + "B" + " -o B)" * n + " -o A",
            None,
            "(-o " * (n + 1) + "B" + " B)" * n + " A)",
            {"A", "B"},
        ),
        ("(" * n + "A" + ")" * n, None, "A", {"A"}),
        (
            _nested_binders("x", n),
            _nested_binders("y", n),
            "(all (-o " * n + "z" + "".join(f" #{k}))" for k in reversed(range(n))),
            {"z"},
        ),
    ]
    for text, variant, canon, fv in cases:
        a = parse_formula(text)
        b = a if variant is None else parse_formula(variant)
        shown = format_formula(a)
        assert shown == text or parse_formula(shown) is a
        assert canonical_print(a) == canon
        assert free_vars(a) == fv
        x = min(fv)
        assert format_formula(substitute(a, x, Var("C"))) == shown.replace(x, "C")
        assert alpha_eq(a, b) and not alpha_eq(a, Bang(a))
        assert formula._alpha(a, b, {x: 0}, {x: 0}, 1)
        assert not formula._alpha(a, b, {x: 0}, {}, 1)
        if text is tower:
            space = den_formula(a, {"A": 1})
            for _ in range(100_000):
                space = space.inner
            assert space == BaseSp("A", 1)
