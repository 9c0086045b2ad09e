import copy
import gc
import pickle
import random
import weakref

from linlog import formula
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
from linlog.proof import validate
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


def test_sequent_alpha_eq():
    s = Sequent((Forall("x", Lolli(X, X)),), One())
    t = Sequent((Forall("y", Lolli(Y, Y)),), One())
    assert sequent_alpha_eq(s, t)
    assert not sequent_alpha_eq(s, Sequent((), One()))


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


def test_copies_and_pickles_are_the_interned_formula():
    assert copy.copy(INT) is INT
    assert copy.deepcopy(INT) is INT
    assert pickle.loads(pickle.dumps(INT)) is INT


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
    assert validate(church(300, A)) == []
    assert calls == []
