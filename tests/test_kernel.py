import time

import pytest

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
    endo,
    alpha_eq,
    free_vars,
    int_type,
    sequent_alpha_eq,
    substitute,
)
from linlog.proof import (
    Axiom,
    ForallL,
    Proof,
    ProofError,
    Weakening,
    fold,
    get_at,
    mk_axiom,
    mk_ctr,
    mk_cut,
    mk_der,
    mk_exchange,
    mk_forall_l,
    mk_forall_r,
    mk_lolli_l,
    mk_lolli_r,
    mk_one_l,
    mk_one_r,
    mk_prom,
    mk_tensor_l,
    mk_tensor_r,
    mk_weak,
    preorder,
    proof_eq,
    replace_at,
    subst_proof,
    validate,
)

A = Var("A")
B = Var("B")
X = Var("x")
E = endo(A)


def test_axiom():
    p = mk_axiom(A)
    assert p.conclusion == Sequent((A,), A)
    assert validate(p) == []
    assert p.size == 1 and p.cut_count == 0


def test_exchange_swaps_adjacent_pair():
    p = mk_tensor_r(mk_axiom(A), mk_axiom(B))
    assert p.conclusion == Sequent((A, B), Tensor(A, B))
    q = mk_exchange(p, 0)
    assert q.conclusion == Sequent((B, A), Tensor(A, B))
    with pytest.raises(ProofError):
        mk_exchange(p, 1)
    with pytest.raises(ProofError):
        mk_exchange(mk_axiom(A), 0)


def test_cut_splices_left_context_at_slot():
    lolli = mk_lolli_r(mk_axiom(A))  # ⊢ A -o A
    target = mk_lolli_l(mk_axiom(A), mk_axiom(A), 0)  # A, A -o A ⊢ A
    p = mk_cut(lolli, target, 1)
    assert p.conclusion == Sequent((A,), A)
    assert p.cut_count == 1
    with pytest.raises(ProofError):
        mk_cut(lolli, target, 0)  # slot holds A, not A -o A
    with pytest.raises(ProofError):
        mk_cut(lolli, target, 5)


def test_lolli_l_places_principal_after_left_context():
    # at indexes the consumed formula in the right premise; the new
    # implication lands after the spliced-in left context.
    p = mk_lolli_l(mk_axiom(A), mk_axiom(A), 0)
    assert p.conclusion == Sequent((A, Lolli(A, A)), A)
    q = mk_lolli_l(mk_axiom(A), p, 0)
    assert q.conclusion == Sequent((A, Lolli(A, A), Lolli(A, A)), A)


def test_lolli_r_abstracts_first_hypothesis():
    p = mk_lolli_l(mk_axiom(A), mk_axiom(A), 0)
    q = mk_lolli_r(p)
    assert q.conclusion == Sequent((Lolli(A, A),), Lolli(A, A))
    with pytest.raises(ProofError):
        mk_lolli_r(mk_one_r())  # nothing to abstract


def test_tensor_rules():
    pair = mk_tensor_r(mk_axiom(A), mk_axiom(B))
    merged = mk_tensor_l(pair, 0)
    assert merged.conclusion == Sequent((Tensor(A, B),), Tensor(A, B))
    with pytest.raises(ProofError):
        mk_tensor_l(mk_axiom(A), 0)


def test_promotion_requires_banged_context():
    body = mk_der(mk_axiom(A), 0)  # !A ⊢ A
    boxed = mk_prom(body)
    assert boxed.conclusion == Sequent((Bang(A),), Bang(A))
    with pytest.raises(ProofError):
        mk_prom(mk_axiom(A))
    # empty premise context is allowed
    scalar = mk_prom(mk_one_r())
    assert scalar.conclusion == Sequent((), Bang(One()))


def test_dereliction_contraction_weakening():
    p = mk_der(mk_axiom(A), 0)
    assert p.conclusion == Sequent((Bang(A),), A)
    doubled = mk_weak(p, 1, Bang(A))  # !A, !A ⊢ A via a spare copy
    assert doubled.conclusion == Sequent((Bang(A), Bang(A)), A)
    contracted = mk_ctr(doubled, 0)
    assert contracted.conclusion == Sequent((Bang(A),), A)
    with pytest.raises(ProofError):
        mk_ctr(mk_tensor_r(mk_der(mk_axiom(A), 0), mk_der(mk_axiom(B), 0)), 0)
    with pytest.raises(ProofError):
        mk_weak(p, 0, A)  # not banged
    end_insert = mk_weak(p, 1, Bang(B))
    assert end_insert.conclusion == Sequent((Bang(A), Bang(B)), A)


def test_one_rules():
    unit = mk_one_r()
    assert unit.conclusion == Sequent((), One())
    padded = mk_one_l(unit, 0)
    assert padded.conclusion == Sequent((One(),), One())


def test_forall_r_binds_and_checks_freeness():
    p = mk_forall_r(mk_lolli_r(mk_axiom(X)), "x")
    assert p.conclusion == Sequent((), Forall("x", Lolli(X, X)))
    with pytest.raises(ProofError):
        mk_forall_r(mk_axiom(X), "x")  # x free in the context


def test_forall_l_instantiates_witness():
    p = mk_forall_l(mk_axiom(int_type(A)), 0, INT, A)
    assert p.conclusion == Sequent((INT,), int_type(A))
    assert validate(p) == []
    with pytest.raises(ProofError):
        mk_forall_l(mk_axiom(int_type(A)), 0, INT, B)  # wrong witness
    with pytest.raises(ProofError):
        mk_forall_l(mk_axiom(A), 0, A, A)  # principal not quantified


def test_validate_flags_corrupted_nodes_with_paths():
    bogus = Proof(Axiom(), (), Sequent((A,), B))
    problems = validate(bogus)
    assert len(problems) == 1 and problems[0][0] == ()

    good = mk_tensor_r(mk_axiom(A), mk_axiom(B))
    nested = Proof(good.rule, (good.premises[0], bogus), good.conclusion)
    paths = [path for path, _ in validate(nested)]
    assert (1,) in paths


def test_validate_accepts_alpha_variant_conclusions():
    # Nested binders in a cached conclusion may be renamed freely; the
    # top binder of an all-r conclusion is pinned to the premise's
    # generic variable.
    inner = mk_forall_r(mk_lolli_r(mk_axiom(Var("z"))), "z")  # ⊢ (all z. z -o z)
    p = mk_forall_r(inner, "x")  # vacuous outer quantifier
    relabeled = Proof(
        p.rule,
        p.premises,
        Sequent((), Forall("x", Forall("w", Lolli(Var("w"), Var("w"))))),
    )
    assert validate(relabeled) == []
    crossed = Proof(
        p.rule, p.premises, Sequent((), Forall("y", Forall("z", Lolli(Var("z"), Var("z")))))
    )
    assert validate(crossed) == []  # outer binder vacuous on both sides

    q = mk_forall_r(mk_lolli_r(mk_axiom(X)), "x")
    relabeled_top = Proof(
        q.rule, q.premises, Sequent((), Forall("y", Lolli(Var("y"), Var("y"))))
    )
    assert validate(relabeled_top) != []  # premise's generic variable is x, not y


def test_proof_eq_up_to_binder_renaming():
    p = mk_forall_r(mk_lolli_r(mk_axiom(X)), "x")
    q = mk_forall_r(mk_lolli_r(mk_axiom(Var("y"))), "y")
    assert proof_eq(p, q)
    assert p != q
    assert not proof_eq(p, mk_lolli_r(mk_axiom(X)))


def test_proof_eq_compares_rule_formulas_up_to_renaming():
    bx, by = Bang(Forall("x", X)), Bang(Forall("y", Var("y")))
    p, q = mk_weak(mk_axiom(A), 0, bx), mk_weak(mk_axiom(A), 0, by)
    assert p.rule != q.rule and proof_eq(p, q)
    assert not proof_eq(p, mk_weak(mk_axiom(A), 0, Bang(Forall("x", A))))
    ident = Lolli(A, A)
    fx, fy = Forall("x", Lolli(X, X)), Forall("y", Lolli(Var("y"), Var("y")))
    p, q = mk_forall_l(mk_axiom(ident), 0, fx, A), mk_forall_l(mk_axiom(ident), 0, fy, A)
    assert p.rule != q.rule and proof_eq(p, q)
    other = mk_forall_l(mk_axiom(Lolli(B, B)), 0, fx, B)
    assert not proof_eq(p, other)


def test_validate_flags_a_rule_formula_that_disagrees_with_the_conclusion():
    # the weakened formula is the tag's, not read back from the conclusion
    good = mk_weak(mk_axiom(A), 0, Bang(A))
    bad = Proof(Weakening(0, Bang(B)), good.premises, good.conclusion)
    assert validate(good) == []
    [(path, msg)] = validate(bad)
    assert path == () and msg.startswith("cached conclusion")
    wrapped = mk_lolli_r(bad)
    assert [path for path, _ in validate(wrapped)] == [(0,)]
    inst = mk_forall_l(mk_axiom(Lolli(A, A)), 0, Forall("x", Lolli(X, X)), A)
    other = Proof(ForallL(0, Forall("x", Lolli(X, A)), A), inst.premises, inst.conclusion)
    assert [path for path, _ in validate(other)] == [()]


def test_subst_proof_instantiates_type_variables():
    p = mk_forall_l(mk_axiom(int_type(X)), 0, INT, X)
    q = subst_proof(p, "x", int_type(A))
    assert q.conclusion == Sequent((INT,), int_type(int_type(A)))
    assert validate(q) == []


def test_subst_proof_shadowed_binder_is_untouched():
    p = mk_forall_r(mk_lolli_r(mk_axiom(X)), "x")
    assert subst_proof(p, "x", A) is p


def test_subst_proof_renames_capturing_binder():
    p = mk_forall_r(mk_lolli_r(mk_axiom(X)), "x")
    inner = mk_forall_l(mk_axiom(Lolli(Var("y"), Var("y"))), 0, p.conclusion.conclusion, Var("y"))
    # inner: (all x. x -o x) ⊢ y -o y ; substituting y := x must not
    # let the witness get captured by the quantifier.
    q = subst_proof(inner, "y", X)
    assert validate(q) == []
    assert q.conclusion.conclusion == Lolli(X, X)
    assert sequent_alpha_eq(q.premises[0].conclusion, Sequent((Lolli(X, X),), Lolli(X, X)))


def test_subst_proof_skips_the_subtrees_it_would_throw_away():
    # sixteen nested binders that each capture the substituted variable:
    # substituting under one before renaming it would double the work
    p = mk_lolli_r(mk_axiom(X))
    for _ in range(16):
        p = mk_forall_r(p, "y")
    start = time.perf_counter()
    q = subst_proof(p, "x", Var("y"))
    assert time.perf_counter() - start < 0.05
    assert validate(q) == []
    want = substitute(p.conclusion.conclusion, "x", Var("y"))
    assert alpha_eq(q.conclusion.conclusion, want) and free_vars(want) == {"y"}


def test_subst_proof_remembers_free_variables_across_captures():
    # 400 nested binders that each capture the substituted variable:
    # finding each formula's free variables afresh at every capture
    # made this cubic in the nesting depth
    p = mk_lolli_r(mk_axiom(X))
    for _ in range(400):
        p = mk_forall_r(p, "y")
    start = time.perf_counter()
    q = subst_proof(p, "x", Var("y"))
    assert time.perf_counter() - start < 1.5
    assert validate(q) == []
    assert q.conclusion.conclusion.binder == "y'"


def test_deep_walkers_take_no_recursion():
    # church(2000) is about 4,000 rules deep, past the default recursion limit
    p = church(2000, A)
    q = subst_proof(p, "A", B)
    assert validate(q) == []
    assert q.conclusion == Sequent((), int_type(B))
    assert proof_eq(p, church(2000, A))
    assert not proof_eq(church(1500, A), church(1501, A))


def test_fold_visits_a_shared_subtree_once():
    shared = mk_axiom(A)
    p = mk_tensor_r(shared, shared)
    seen = []

    def count(node, results):
        seen.append(node)
        return 1 + sum(results)

    assert fold(p, count) == 3
    assert len(seen) == 2 and seen[0] is shared


def test_replace_and_get_at():
    p = mk_tensor_r(mk_axiom(A), mk_axiom(B))
    assert get_at(p, (0,)) == mk_axiom(A)
    swapped = replace_at(p, (1,), mk_axiom(B))
    assert swapped == p


def test_replace_at_splices_deep_paths_without_recursion():
    # the default recursion limit is about 1000 frames
    p = church(1500, A)
    path, leaf = max(preorder(p), key=lambda pn: len(pn[0]))
    assert len(path) > 1500
    fresh = Proof(leaf.rule, leaf.premises, leaf.conclusion)
    out = replace_at(p, path, fresh)
    assert get_at(out, path) is fresh
    assert out == p and out is not p
    # the spine is rebuilt; the subtrees beside it are shared
    parent, old = get_at(out, path[:-1]), get_at(p, path[:-1])
    assert parent is not old and path[-1] == 0
    assert parent.premises[1] is old.premises[1]
