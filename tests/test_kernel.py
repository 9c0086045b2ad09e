import copy
import gc
import pickle
import sys
import weakref
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _kernelref
from linlog import formula, proof
from linlog.encodings import add_cut, church, hypexp_cut, library, mult_cut
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
    format_formula,
    free_vars,
    int_type,
    sequent_alpha_eq,
    substitute,
)
from linlog.proof import (
    RULE_KEYWORDS,
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
    ProofError,
    RuleTag,
    TensorL,
    TensorR,
    Weakening,
    _moved,
    _rule_conclusion,
    fold,
    free_vars_proof,
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
    rule_arity,
    subst_proof,
    validate,
)
from linlog.sexpr import parse_proof, print_proof

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
    # the formula grammar refuses `all` as a binder name, and so does the schema
    with pytest.raises(ProofError, match=r"^'all' cannot be a binder name$"):
        mk_forall_r(mk_lolli_r(mk_axiom(A)), "all")


def test_forall_l_instantiates_witness():
    p = mk_forall_l(mk_axiom(int_type(A)), 0, INT, A)
    assert p.conclusion == Sequent((INT,), int_type(A))
    assert validate(p) == []
    with pytest.raises(ProofError):
        mk_forall_l(mk_axiom(int_type(A)), 0, INT, B)  # wrong witness
    with pytest.raises(ProofError):
        mk_forall_l(mk_axiom(A), 0, A, A)  # principal not quantified


def test_validate_flags_corrupted_nodes_with_paths():
    bogus = Proof(Axiom(B), (), Sequent((A,), B))
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
        ForallR("x"),
        p.premises,
        Sequent((), Forall("x", Forall("w", Lolli(Var("w"), Var("w"))))),
    )
    assert validate(relabeled) == []
    crossed = Proof(
        ForallR("y"), p.premises, Sequent((), Forall("y", Forall("z", Lolli(Var("z"), Var("z")))))
    )
    assert validate(crossed) == []  # outer binder vacuous on both sides

    q = mk_forall_r(mk_lolli_r(mk_axiom(X)), "x")
    relabeled_top = Proof(
        ForallR("y"), q.premises, Sequent((), Forall("y", Lolli(Var("y"), Var("y"))))
    )
    assert validate(relabeled_top) != []  # premise's generic variable is x, not y


def test_proof_eq_up_to_binder_renaming():
    p = mk_forall_r(mk_lolli_r(mk_axiom(X)), "x")
    q = mk_forall_r(mk_lolli_r(mk_axiom(Var("y"))), "y")
    assert proof_eq(p, q)
    assert p != q
    assert not proof_eq(p, mk_lolli_r(mk_axiom(X)))
    assert not proof_eq(mk_axiom(A), mk_axiom(B))
    # equal root tags, told apart by the conclusions
    assert not proof_eq(mk_lolli_r(mk_axiom(A)), mk_lolli_r(mk_axiom(B)))
    aaa = mk_tensor_r(mk_tensor_r(mk_axiom(A), mk_axiom(A)), mk_axiom(A))
    assert not proof_eq(mk_exchange(aaa, 0), mk_exchange(aaa, 1))  # one conclusion


def test_a_proof_is_never_equal_to_a_non_proof():
    p = church(1, A)
    assert p.__eq__(1) is NotImplemented
    assert (p == 1) is False and p != 1


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
    # under a binder that neither shadows nor captures
    y = Var("y")
    q = subst_proof(mk_forall_r(mk_lolli_r(mk_axiom(Tensor(y, A))), "y"), "A", B)
    assert validate(q) == [] and q.conclusion.conclusion == Forall("y", endo(Tensor(y, B)))


def test_free_vars_proof_counts_an_all_l_witness():
    # the witness C occurs in no conclusion, only in the tag
    p = mk_forall_l(mk_axiom(A), 0, Forall("x", A), Var("C"))
    assert free_vars_proof(p) == {"A", "C"}


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


def test_subst_proof_skips_the_subtrees_it_would_throw_away(monkeypatch):
    # sixteen nested binders that each capture the substituted variable:
    # substituting under one before renaming it would build every node
    # below it twice
    p = mk_lolli_r(mk_axiom(X))
    for _ in range(16):
        p = mk_forall_r(p, "y")
    made = _count_calls(monkeypatch, proof, "_make")
    q = subst_proof(p, "x", Var("y"))
    assert len(made) <= 16 + 4
    assert validate(q) == []
    want = substitute(p.conclusion.conclusion, "x", Var("y"))
    assert alpha_eq(q.conclusion.conclusion, want) and free_vars(want) == {"y"}


def test_subst_proof_remembers_free_variables_across_captures(monkeypatch):
    # 400 nested binders that each capture the substituted variable:
    # finding each formula's free variables afresh at every capture
    # made this cubic in the nesting depth
    p = mk_lolli_r(mk_axiom(X))
    for _ in range(400):
        p = mk_forall_r(p, "y")
    found = _count_calls(monkeypatch, formula, "_free_node")
    q = subst_proof(p, "x", Var("y"))
    assert len(found) <= 2 * 400
    assert validate(q) == []
    assert q.conclusion.conclusion.binder == "y'"


def _count_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record the first argument of each call,
    and return the record."""
    calls, fn = [], getattr(module, name)

    def counted(first, *rest, **kw):
        calls.append(first)
        return fn(first, *rest, **kw)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_deep_walkers_take_no_recursion():
    # church(2000) is about 4,000 rules deep, past the default recursion limit
    p = church(2000, A)
    q = subst_proof(p, "A", B)
    assert validate(q) == []
    assert q.conclusion == Sequent((), int_type(B))
    assert proof_eq(p, church(2000, A))
    assert not proof_eq(church(1500, A), church(1501, A))


def _raw_copy(p):
    """``p`` rebuilt node by node with ``Proof(...)``: equal, distinct,
    unchecked and not yet hashed."""
    return fold(p, lambda node, premises: Proof(node.rule, tuple(premises), node.conclusion))


def test_hash_and_eq_of_a_deep_fresh_tree_take_no_recursion():
    assert sys.getrecursionlimit() <= 1000
    p = church(2000, A)
    raw = _raw_copy(p)
    # neither tree has been hashed: the first hash() walks all 4,000 levels
    assert p._hash is None and raw._hash is None and not raw.checked
    assert hash(raw) == hash(p)
    assert raw == p and p == raw and raw is not p
    assert raw != church(1999, A)
    other = _raw_copy(church(2000, B))
    assert hash(other) != hash(p) and other != p


def test_a_tree_whose_shared_subtree_was_hashed_first_hashes_as_a_fresh_one():
    shared = church(3, A)
    hash(shared.premises[0])
    tree = mk_tensor_r(shared, shared)
    fresh = _raw_copy(mk_tensor_r(church(3, A), church(3, A)))
    assert tree._hash is None and shared._hash is None and fresh.premises[0]._hash is None
    assert hash(tree) == hash(fresh)
    assert tree == fresh


def test_a_foreign_tag_is_an_unknown_rule():
    @dataclass(frozen=True)
    class Foreign:
        at: int

    with pytest.raises(ProofError, match=r"^unknown rule .*Foreign\(at=0\)$"):
        _rule_conclusion(Foreign(0), (Sequent((A,), A),))


@dataclass(frozen=True)
class Foreign:
    """A rule tag of a class the kernel does not know."""


@pytest.mark.parametrize("arity", [0, 1, 2])
def test_a_foreign_node_of_any_arity_is_a_violation_and_has_a_repr(arity):
    node = Proof(Foreign(), (mk_axiom(A),) * arity, Sequent((A,), A))
    assert validate(node) == [((), "unknown rule Foreign()")]
    assert repr(node) == f"<Foreign() proof of A ⊢ A; {1 + arity} nodes>"
    with pytest.raises(ProofError, match=r"^unknown rule Foreign\(\)$"):
        print_proof(node)


@pytest.mark.parametrize("arity", [0, 1, 2])
def test_a_foreign_leaf_under_a_node_of_any_arity_is_a_violation(arity):
    leaf = Proof(Foreign(), (), Sequent((A,), A))
    node = {
        0: leaf,
        1: Proof(LolliR(), (leaf,), Sequent((), Lolli(A, A))),
        2: Proof(TensorR(), (mk_axiom(A), leaf), Sequent((A, A), Tensor(A, A))),
    }[arity]
    assert validate(node) == [((arity - 1,) if arity else (), "unknown rule Foreign()")]
    assert "proof of" in repr(node) and "proof of" in repr(leaf)


def test_a_tag_with_a_keyword_but_no_schema_is_an_unknown_rule(monkeypatch):
    # a rule class registered without a branch in the kernel is refused,
    # not given the conclusion of the last rule the kernel knows
    monkeypatch.setitem(RULE_KEYWORDS, Foreign, "foreign")
    with pytest.raises(ProofError, match=r"^unknown rule Foreign\(\)$"):
        _rule_conclusion(Foreign(), (Sequent((A,), A),))


def test_rule_tags_are_interned():
    assert Cut(3) is Cut(3)
    assert Cut(at=4) is Cut(4)
    assert Weakening(1, Bang(A)) is Weakening(at=1, formula=Bang(A))
    assert Weakening(1, Bang(A)) is Weakening(1, formula=Bang(A))
    assert TensorR() is TensorR() and Cut(3) is not Cut(4)
    # equality and hashing are identity, as for formulas
    assert Cut(3) == Cut(3) and hash(Cut(3)) == object.__hash__(Cut(3))
    assert ForallL(0, INT, A) != ForallL(0, INT, B)


def test_copies_and_pickles_of_a_tag_are_the_interned_tag():
    tag = ForallL(0, INT, A)
    assert copy.copy(tag) is tag and copy.deepcopy(tag) is tag
    assert pickle.loads(pickle.dumps(tag)) is tag
    p = church(3, A)
    assert pickle.loads(pickle.dumps(p)) == p


def test_a_tag_takes_exactly_its_fields():
    for make in (
        lambda: Cut(),
        lambda: Cut(1, 2),
        lambda: Cut(1, at=2),
        lambda: Cut(place=1),
        lambda: Weakening(at=1),
        lambda: TensorR(1),
    ):
        with pytest.raises(TypeError):
            make()


def test_a_tag_index_that_is_not_an_int_is_refused():
    # interning compares fields with ==, and True == 1 == 1.0: an index
    # of another type is refused whether or not an equal tag is alive
    def refused(at):
        for make in (
            lambda: Exchange(at),
            lambda: Exchange(at=at),
            lambda: Weakening(at, Bang(A)),
            lambda: ForallL(at, INT, A),
            lambda: Cut(at=at),
        ):
            with pytest.raises(TypeError, match="at must be an int"):
                make()

    gc.collect()
    assert (7919,) not in Exchange._live
    refused(7919.0)
    alive = [make(n) for make in (Exchange, Cut) for n in (0, 1, 7919)]
    alive += [Weakening(n, Bang(A)) for n in (0, 1)] + [ForallL(0, INT, A)]
    for at in (True, False, 1.0, 7919.0):
        refused(at)
    q = mk_weak(mk_weak(mk_axiom(A), 0, Bang(A)), 0, Bang(A))
    text = print_proof(mk_exchange(q, 1))
    assert text == "(ex 1 (weak 0 !A (weak 0 !A (ax A))))"
    assert parse_proof(text) == mk_exchange(q, 1) and Exchange(1) in alive


def test_a_tag_holds_its_formulas_only_while_it_lives():
    banged = Bang(Var("only_in_this_tag"))
    held = weakref.ref(banged)
    tag = Weakening(0, banged)
    del banged
    gc.collect()
    assert held() is tag.formula
    del tag
    gc.collect()
    assert held() is None


def test_fold_visits_a_shared_subtree_once():
    shared = mk_axiom(A)
    p = mk_tensor_r(shared, shared)
    seen = []

    def count(node, results):
        seen.append(node)
        return 1 + sum(results)

    assert fold(p, count) == 3
    assert len(seen) == 2 and seen[0] is shared


def test_a_proof_repr_names_its_last_rule_conclusion_and_size():
    assert repr(church(2, A)) == "<lolli-r proof of ⊢ !(A -o A) -o (A -o A); 10 nodes>"


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


# ---------------------------------------------------------------------------
# The rule schema as it was written before the nine indexed rules became
# one context edit each: a case per rule, each with its own range check
# and splice.  It is kept here as the reference.

_REF_TWO_PREMISE = (Cut, TensorR, LolliL)
_REF_ZERO_PREMISE = (Axiom, OneR)


def _ref_rule_arity(rule):
    if isinstance(rule, _REF_ZERO_PREMISE):
        return 0
    if isinstance(rule, _REF_TWO_PREMISE):
        return 2
    return 1


def _ref_rule_conclusion(rule: RuleTag, premises: tuple[Sequent, ...]) -> Sequent:
    want = _ref_rule_arity(rule)
    if len(premises) != want:
        raise ProofError(
            f"{RULE_KEYWORDS[type(rule)]} takes {want} premise(s), got {len(premises)}"
        )

    if isinstance(rule, Axiom):
        return Sequent((rule.formula,), rule.formula)

    if isinstance(rule, OneR):
        return Sequent((), One())

    if isinstance(rule, Exchange):
        (s,) = premises
        ctx = s.context
        if not 0 <= rule.at <= len(ctx) - 2:
            raise ProofError(
                f"exchange at {rule.at} needs adjacent formulas; context has {len(ctx)}"
            )
        swapped = (
            ctx[: rule.at] + (ctx[rule.at + 1], ctx[rule.at]) + ctx[rule.at + 2 :]
        )
        return Sequent(swapped, s.conclusion)

    if isinstance(rule, Cut):
        left, right = premises
        ctx = right.context
        if not 0 <= rule.at < len(ctx):
            raise ProofError(
                f"cut at {rule.at} outside right context of length {len(ctx)}"
            )
        if not alpha_eq(ctx[rule.at], left.conclusion):
            raise ProofError(
                f"cut formula mismatch: left proves {format_formula(left.conclusion)}, "
                f"right expects {format_formula(ctx[rule.at])} at {rule.at}"
            )
        return Sequent(
            ctx[: rule.at] + left.context + ctx[rule.at + 1 :], right.conclusion
        )

    if isinstance(rule, TensorR):
        left, right = premises
        return Sequent(
            left.context + right.context, Tensor(left.conclusion, right.conclusion)
        )

    if isinstance(rule, TensorL):
        (s,) = premises
        ctx = s.context
        if not 0 <= rule.at <= len(ctx) - 2:
            raise ProofError(
                f"tensor-l at {rule.at} needs two adjacent formulas; context has {len(ctx)}"
            )
        merged = Tensor(ctx[rule.at], ctx[rule.at + 1])
        return Sequent(
            ctx[: rule.at] + (merged,) + ctx[rule.at + 2 :], s.conclusion
        )

    if isinstance(rule, LolliR):
        (s,) = premises
        if not s.context:
            raise ProofError("lolli-r needs a leading hypothesis to abstract")
        return Sequent(s.context[1:], Lolli(s.context[0], s.conclusion))

    if isinstance(rule, LolliL):
        left, right = premises
        ctx = right.context
        if not 0 <= rule.at < len(ctx):
            raise ProofError(
                f"lolli-l at {rule.at} outside right context of length {len(ctx)}"
            )
        principal = Lolli(left.conclusion, ctx[rule.at])
        return Sequent(
            ctx[: rule.at] + left.context + (principal,) + ctx[rule.at + 1 :],
            right.conclusion,
        )

    if isinstance(rule, Promotion):
        (s,) = premises
        for i, f in enumerate(s.context):
            if not isinstance(f, Bang):
                raise ProofError(
                    f"promotion premise hypothesis {i} is {format_formula(f)}, not banged"
                )
        return Sequent(s.context, Bang(s.conclusion))

    if isinstance(rule, Dereliction):
        (s,) = premises
        ctx = s.context
        if not 0 <= rule.at < len(ctx):
            raise ProofError(
                f"dereliction at {rule.at} outside context of length {len(ctx)}"
            )
        return Sequent(
            ctx[: rule.at] + (Bang(ctx[rule.at]),) + ctx[rule.at + 1 :], s.conclusion
        )

    if isinstance(rule, Contraction):
        (s,) = premises
        ctx = s.context
        if not 0 <= rule.at <= len(ctx) - 2:
            raise ProofError(
                f"contraction at {rule.at} needs two adjacent copies; context has {len(ctx)}"
            )
        a, b = ctx[rule.at], ctx[rule.at + 1]
        if not isinstance(a, Bang):
            raise ProofError(f"contraction of {format_formula(a)}: not banged")
        if not alpha_eq(a, b):
            raise ProofError(
                f"contraction needs equal copies, got {format_formula(a)} and {format_formula(b)}"
            )
        return Sequent(ctx[: rule.at + 1] + ctx[rule.at + 2 :], s.conclusion)

    if isinstance(rule, Weakening):
        (s,) = premises
        weakened = rule.formula
        if not isinstance(weakened, Bang):
            raise ProofError(
                f"weakening of {format_formula(weakened)}: not banged"
            )
        ctx = s.context
        if not 0 <= rule.at <= len(ctx):
            raise ProofError(
                f"weakening at {rule.at} outside insertion range 0..{len(ctx)}"
            )
        return Sequent(
            ctx[: rule.at] + (weakened,) + ctx[rule.at :], s.conclusion
        )

    if isinstance(rule, OneL):
        (s,) = premises
        ctx = s.context
        if not 0 <= rule.at <= len(ctx):
            raise ProofError(
                f"one-l at {rule.at} outside insertion range 0..{len(ctx)}"
            )
        return Sequent(ctx[: rule.at] + (One(),) + ctx[rule.at :], s.conclusion)

    if isinstance(rule, ForallR):
        (s,) = premises
        binder = rule.binder
        if binder == "all":
            raise ProofError("'all' cannot be a binder name")
        for i, f in enumerate(s.context):
            if binder in free_vars(f):
                raise ProofError(
                    f"all-r binder {binder} occurs free in hypothesis {i} "
                    f"({format_formula(f)})"
                )
        return Sequent(s.context, Forall(binder, s.conclusion))

    if isinstance(rule, ForallL):
        (s,) = premises
        quantified = rule.quantified
        if not isinstance(quantified, Forall):
            raise ProofError(
                f"all-l principal formula {format_formula(quantified)} is not quantified"
            )
        ctx = s.context
        if not 0 <= rule.at < len(ctx):
            raise ProofError(
                f"all-l at {rule.at} outside context of length {len(ctx)}"
            )
        expected = substitute(quantified.body, quantified.binder, rule.witness)
        if not alpha_eq(ctx[rule.at], expected):
            raise ProofError(
                f"all-l instance mismatch: premise has {format_formula(ctx[rule.at])}, "
                f"expected {format_formula(expected)}"
            )
        return Sequent(
            ctx[: rule.at] + (quantified,) + ctx[rule.at + 1 :], s.conclusion
        )

    raise ProofError(f"unknown rule {rule!r}")


# formulas that make each side condition pass as well as fail: banged
# hypotheses and not, equal neighbours (alpha-equal ones too) and not,
# quantified formulas and not, with witnesses whose instances are
# hypotheses
_HYPS = st.sampled_from(
    [A, X, Bang(A), Bang(X), Bang(Forall("x", X)), Bang(Forall("y", Var("y")))]
)
_SEQUENTS = st.builds(Sequent, st.lists(_HYPS, max_size=4).map(tuple), _HYPS)
_FIELDS = {
    "formula": st.sampled_from([Bang(A), Bang(X), A]),
    "quantified": st.sampled_from([Forall("x", X), Forall("x", Bang(X)), A]),
    "witness": st.sampled_from([A, X, Tensor(A, B)]),
    "binder": st.sampled_from(["x", "y", "A", "all"]),
}


@st.composite
def _applications(draw, tag):
    """0-3 premises (mostly as many as ``tag`` takes) and the tag's
    formulas; the test tries every index in -1..len+1."""
    arity = draw(st.sampled_from([rule_arity(tag)] * 6 + [0, 1, 2, 3]))
    premises = tuple(draw(st.lists(_SEQUENTS, min_size=arity, max_size=arity)))
    formulas = {name: draw(_FIELDS[name]) for name in tag.__annotations__ if name != "at"}
    return premises, formulas


def _outcome(schema, rule, premises):
    try:
        return schema(rule, premises)
    except ProofError as err:
        return str(err)


@pytest.mark.parametrize("tag", list(RULE_KEYWORDS), ids=list(RULE_KEYWORDS.values()))
def test_rule_schema_matches_the_per_rule_reference(tag):
    indexed = "at" in tag.__annotations__

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(_applications(tag))
    def check(application):
        premises, formulas = application
        n = len(premises[-1].context) if premises else 0
        for at in range(-1, n + 2) if indexed else [None]:
            rule = tag(at, **formulas) if indexed else tag(**formulas)
            assert _outcome(_rule_conclusion, rule, premises) == _outcome(
                _ref_rule_conclusion, rule, premises
            )

    check()


def test_tag_conditions_are_checked_before_the_index():
    s = Sequent((A,), A)
    for schema in (_rule_conclusion, _ref_rule_conclusion):
        assert _outcome(schema, Weakening(5, B), (s,)) == "weakening of B: not banged"
        assert _outcome(schema, ForallL(5, B, A), (s,)) == (
            "all-l principal formula B is not quantified"
        )


def test_the_strict_builder_refuses_what_the_schema_table_refuses():
    # _make reads the table itself: a foreign tag and a wrong premise
    # count get the texts _rule_conclusion gives
    ax = mk_axiom(A)
    for rule, premises, want in (
        (Foreign(), (ax,), "unknown rule Foreign()"),
        (Cut(0), (ax,), "cut takes 2 premise(s), got 1"),
        (Axiom(A), (ax,), "ax takes 0 premise(s), got 1"),
        (TensorR(), (ax, ax, ax), "tensor-r takes 2 premise(s), got 3"),
    ):
        sequents = tuple(p.conclusion for p in premises)
        assert _outcome(_rule_conclusion, rule, sequents) == want
        with pytest.raises(ProofError) as err:
            proof._make(rule, *premises)
        assert str(err.value) == want


# ---------------------------------------------------------------------------
# The certificate: validate skips what the schemas derived, and reports
# what the full walk reports


def _forge(node, kind):
    """A node built past the schemas, to stand where ``node`` stood."""
    s = node.conclusion
    if kind == "at" and hasattr(node.rule, "at"):
        return Proof(_moved(node.rule, node.rule.at + 1), node.premises, s)
    if kind == "promotion":
        # a box over a premise with the unbanged hypothesis A
        body = mk_tensor_r(node, mk_axiom(A))
        t = body.conclusion
        return Proof(Promotion(), (body,), Sequent(t.context, Bang(t.conclusion)))
    if kind == "copy":  # valid, but not derived
        return Proof(node.rule, node.premises, s)
    return Proof(node.rule, node.premises, Sequent(s.context, Tensor(s.conclusion, B)))


_FORGERIES = ("at", "conclusion", "promotion", "copy")
_STRICT_TREES = [
    *library().values(),
    add_cut(1, 2, A),
    mult_cut(2, 2, A),
    hypexp_cut(1),
    mk_prom(mk_ctr(mk_weak(mk_der(mk_axiom(A), 0), 1, Bang(A)), 0)),
]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_validate_matches_the_full_walk_on_forged_trees(data):
    tree = data.draw(st.sampled_from(_STRICT_TREES))
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from([path for path, _ in preorder(tree)]))
        kind = data.draw(st.sampled_from(_FORGERIES))
        tree = replace_at(tree, path, _forge(get_at(tree, path), kind))
        if data.draw(st.booleans()):
            tree = mk_tensor_r(tree, mk_axiom(B))  # a strict node over forged premises
    want = _kernelref.validate(tree)
    assert validate(tree) == want
    assert tree.checked == (want == [])
    assert validate(tree) == want
    for _path, node in preorder(tree):
        if node.checked:
            assert _kernelref.validate(node) == []


def test_only_the_strict_constructors_certify_a_node():
    p = mk_lolli_r(mk_der(mk_axiom(A), 0))
    assert p.checked and all(q.checked for _, q in preorder(p))
    with pytest.raises(TypeError):
        Proof(p.rule, p.premises, p.conclusion, checked=True)
    bad = Proof(p.rule, p.premises, Sequent((), Lolli(Bang(A), B)))
    assert not bad.checked and bad.premises[0].checked
    assert validate(bad) == _kernelref.validate(bad) == [
        ((), "cached conclusion ⊢ !A -o B differs from rule result ⊢ !A -o A")
    ]
    assert not bad.checked
    raw = Proof(p.rule, p.premises, p.conclusion)
    assert not raw.checked and raw == p
    assert validate(raw) == [] and raw.checked
    # a strict node over an unchecked premise is unchecked
    over = mk_prom(mk_lolli_r(Proof(Axiom(A), (), Sequent((A,), A))))
    assert not over.checked
    assert validate(over) == [] and over.checked


def test_a_deep_copy_of_a_certified_tree_still_validates():
    p = church(3, A)
    copied = copy.deepcopy(p)
    assert copied is not p and copied == p
    assert validate(copied) == [] == _kernelref.validate(copied)


def test_a_certified_tree_is_not_derived_again(monkeypatch):
    p = church(40, A)

    def forbidden(node):
        raise AssertionError("a certified node was derived again")

    monkeypatch.setattr(proof, "_node_violation", forbidden)
    assert validate(p) == []
