"""Cut-elimination engine tests: catalog cases, strategy, traces."""

from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction

import pytest

import linlog.proof as proof
import linlog.rewrite as rewrite
from linlog.encodings import (
    add_cut,
    church,
    church2,
    church_body,
    comp,
    exp_cut,
    hypexp_cut,
    library,
    mult,
    mult_cut,
    plain_body,
)
from linlog.formula import Bang, Forall, Lolli, One, Sequent, Tensor, Var, endo
from linlog.proof import (
    Axiom,
    Contraction,
    Cut,
    Exchange,
    ForallL,
    LolliL,
    LolliR,
    Promotion,
    Proof,
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
    replace_at,
    validate,
)
from linlog.rewrite import (
    RewriteError,
    StepInfo,
    Trace,
    exchange_normalize,
    find_redex,
    is_cut_free,
    normalize,
    reduce_cut,
    replay,
)
from linlog.semantics import den_matrix, probe_equal

import _kernelref
from _stepref import apply_rule_at, step, step_violations

A = Var("A")
B = Var("B")
ASG = {"A": 2, "B": 2}


def test_axiom_cut_identities_across_library():
    for name, p in library().items():
        res = normalize(mk_cut(p, mk_axiom(p.conclusion.conclusion), 0))
        assert res.proof == p, f"cut against a right axiom did not vanish for {name}"
        assert len(res.trace.steps) == 1
        assert res.trace.steps[0].rule_id == "ax-right"
        if p.conclusion.context:
            res2 = normalize(mk_cut(mk_axiom(p.conclusion.context[0]), p, 0))
            assert res2.proof == p, f"cut against a left axiom did not vanish for {name}"
            assert res2.trace.steps[0].rule_id == "ax-left"


def test_two_times_two_golden_trace():
    res = normalize(mult_cut(2, 2, A))
    assert not res.exhausted
    assert is_cut_free(res.proof)
    assert _kernelref.validate(res.proof) == []
    ids = [s.rule_id for s in res.trace.steps]
    assert ids[:4] == ["lolli-r-commute", "lolli-l-principal", "prom-ctr", "prom-der"]
    assert len(res.trace.steps) == 27  # regression pin for the fixed strategy
    assert exchange_normalize(res.proof) == church(4, A)


def test_exchange_normalization_rebuilds_the_parent_of_a_changed_premise():
    base = mk_tensor_r(mk_axiom(A), mk_axiom(B))
    twice = mk_exchange(mk_exchange(base, 0), 0)
    assert exchange_normalize(mk_lolli_r(twice)) == mk_lolli_r(base)


def test_multiplication_by_one_gives_the_other_numeral():
    res = normalize(mult_cut(2, 1, A))
    assert exchange_normalize(res.proof) == church(2, A)


def test_addition_of_two_and_two():
    res = normalize(add_cut(2, 2, A))
    assert is_cut_free(res.proof)
    assert exchange_normalize(res.proof) == church(4, A)


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 2), (2, 4)])
def test_hyperexponential_tower(n, expected):
    res = normalize(hypexp_cut(n))
    assert not res.exhausted
    assert exchange_normalize(res.proof) == church2(expected)


def test_step_is_none_on_cut_free_proofs():
    assert step(church(3, A)) is None
    assert find_redex(comp(A)) is None


def test_innermost_cut_is_selected_first():
    inner = mk_cut(church(2, A), mk_axiom(church(2, A).conclusion.conclusion), 0)
    outer = mk_cut(inner, mk_axiom(inner.conclusion.conclusion), 0)
    assert find_redex(outer) == (0,)


def test_every_step_preserves_conclusion_and_validity():
    p = mult_cut(2, 3, A)
    want = p.conclusion
    seen = 0
    while True:
        nxt = step(p)
        if nxt is None:
            break
        p, info = nxt
        seen += 1
        assert p.conclusion == want
        assert _kernelref.validate(p) == []
    assert seen > 10 and is_cut_free(p)


def test_denotation_preserved_on_finite_cuts():
    # composition proof cut against an axiom chain, all spaces finite
    left = plain_body(2, A)  # E,E ⊢ E
    right = mk_one_l(mk_axiom(endo(A)), 0)  # 1,E ⊢ E
    p = mk_cut(left, right, 1)
    before = den_matrix(p, ASG)
    res = normalize(p)
    assert den_matrix(res.proof, ASG) == before


def test_tensor_principal_case():
    left = mk_tensor_r(mk_axiom(A), mk_axiom(B))
    right = mk_tensor_l(mk_tensor_r(mk_axiom(A), mk_axiom(B)), 0)
    p = mk_cut(left, right, 0)
    res = normalize(p)
    assert res.trace.steps[0].rule_id == "tensor-principal"
    assert den_matrix(res.proof, ASG) == den_matrix(p, ASG)


def test_one_principal_case():
    p = mk_cut(mk_one_r(), mk_one_l(mk_axiom(A), 0), 0)
    res = normalize(p)
    assert res.trace.steps[0].rule_id == "one-principal"
    assert res.proof == mk_axiom(A)


def test_promotion_weakening_case():
    left = mk_prom(mk_one_r())  # ⊢ !1
    right = mk_weak(mk_axiom(A), 0, Bang(One()))  # !1, A ⊢ A
    res = normalize(mk_cut(left, right, 0))
    assert res.trace.steps[0].rule_id == "prom-weak"
    assert res.proof == mk_axiom(A)


def test_promotion_promotion_case():
    left = mk_prom(mk_one_r())  # ⊢ !1
    right = mk_prom(mk_weak(mk_one_r(), 0, Bang(One())))  # !1 ⊢ !1
    p = mk_cut(left, right, 0)
    res = normalize(p)
    assert [s.rule_id for s in res.trace.steps] == ["prom-prom", "prom-weak"]
    assert res.proof == mk_prom(mk_one_r())
    assert res.proof.conclusion == p.conclusion


def test_exchange_commute_case():
    left = mk_lolli_r(mk_axiom(A))  # ⊢ A ⊸ A after abstracting the axiom
    right = mk_exchange(comp(A), 0)  # E,E ⊢ E with a swap on top
    p = mk_cut(left, right, 0)
    before = den_matrix(p, ASG)
    res = normalize(p)
    assert "ex-commute" in {s.rule_id for s in res.trace.steps}
    assert den_matrix(res.proof, ASG) == before


def _one_step(p):
    """The first step on the cut ``p`` (guarded), and its normal form."""
    out, info = apply_rule_at(p, ())
    assert out.conclusion == p.conclusion and _kernelref.validate(out) == []
    nf = normalize(p).proof
    assert is_cut_free(nf) and nf.conclusion == p.conclusion
    return info.rule_id, out, nf


def test_forall_l_commute_case():
    # ⊢ A ⊸ A cut into a ∀L of another slot: the ∀L moves below the cut,
    # one slot left when the cut was left of it (the cut's context is
    # empty), in place when it was right of it
    ident = mk_lolli_r(mk_axiom(A))
    prem = mk_tensor_r(mk_axiom(endo(A)), mk_axiom(endo(B)))  # A⊸A, B⊸B ⊢ …
    quantified = Forall("x", endo(Var("x")))
    right = mk_forall_l(prem, 1, quantified, B)  # A⊸A, ∀x.x⊸x ⊢ …
    p = mk_cut(ident, right, 0)
    rule_id, out, _ = _one_step(p)
    assert rule_id == "forall-l-commute"
    assert out.rule == ForallL(0, quantified, B)
    assert out.premises[0] == mk_cut(ident, prem, 0)
    right = mk_forall_l(prem, 0, quantified, A)  # ∀x.x⊸x, B⊸B ⊢ …
    p = mk_cut(mk_lolli_r(mk_axiom(B)), right, 1)
    rule_id, out, _ = _one_step(p)
    assert rule_id == "forall-l-commute"
    assert out.rule == ForallL(0, quantified, A)
    assert out.premises[0] == mk_cut(mk_lolli_r(mk_axiom(B)), prem, 1)


def test_lolli_l_commute_left_of_the_principal_slot():
    left = mk_tensor_r(mk_axiom(A), mk_axiom(B))  # A, B ⊢ A⊗B
    r2 = mk_tensor_r(mk_axiom(Tensor(A, B)), mk_axiom(B))  # A⊗B, B ⊢ (A⊗B)⊗B
    right = mk_lolli_l(mk_axiom(B), r2, 1)  # A⊗B, B, B⊸B ⊢ (A⊗B)⊗B
    p = mk_cut(left, right, 0)  # A, B, B, B⊸B ⊢ (A⊗B)⊗B
    rule_id, out, nf = _one_step(p)
    assert rule_id == "lolli-l-commute"
    assert out.rule == LolliL(2) and out.premises[1] == mk_cut(left, r2, 0)
    assert p.conclusion == Sequent((A, B, B, endo(B)), Tensor(Tensor(A, B), B))
    assert probe_equal(p, nf, ASG) and probe_equal(out, nf, ASG)


def test_promotion_contraction_interleaves_a_wide_box():
    # !A, !B ⊢ !(A⊗B) against a contraction: the two copies of the box's
    # context are interleaved to !A, !A, !B, !B and contracted pairwise
    box = mk_tensor_r(mk_der(mk_axiom(A), 0), mk_der(mk_axiom(B), 0))
    left = mk_prom(box)
    ab = Tensor(A, B)
    uses = mk_tensor_r(mk_der(mk_axiom(ab), 0), mk_der(mk_axiom(ab), 0))
    right = mk_ctr(uses, 0)  # !(A⊗B) ⊢ (A⊗B)⊗(A⊗B)
    p = mk_cut(left, right, 0)
    rule_id, out, nf = _one_step(p)
    assert rule_id == "prom-ctr"
    assert p.conclusion == Sequent((Bang(A), Bang(B)), Tensor(ab, ab))
    assert [type(q.rule) for _, q in preorder(out)][:4] == [
        Contraction, Contraction, Exchange, Cut
    ]
    swap = out.premises[0].premises[0]
    assert swap.premises[0].conclusion.context == (Bang(A), Bang(B), Bang(A), Bang(B))
    assert swap.conclusion.context == (Bang(A), Bang(A), Bang(B), Bang(B))
    assert probe_equal(p, nf, ASG, depth=2) and probe_equal(out, nf, ASG, depth=2)


def test_budget_exhaustion_reports_partial_trace():
    res = normalize(mult_cut(2, 2, A), max_steps=3)
    assert res.exhausted
    assert len(res.trace.steps) == 3
    assert not is_cut_free(res.proof)
    assert _kernelref.validate(res.proof) == []
    assert res.trace.terminal == res.proof


def test_replay_reproduces_the_terminal():
    p = mult_cut(2, 2, A)
    res = normalize(p)
    assert replay(p, res.trace) == res.proof


def test_replay_rejects_a_foreign_trace():
    res = normalize(mult_cut(2, 1, A))
    with pytest.raises(RewriteError):
        replay(add_cut(1, 1, A), res.trace)


@pytest.mark.parametrize(
    "edit",
    [
        lambda s: replace(s, size_after=s.size_after + 1),
        lambda s: replace(s, path=s.path + (0,)),
    ],
    ids=["size_after", "path"],
)
def test_replay_rejects_a_step_off_the_strategy(edit):
    # the same rule ids, and on the sizes edit the same terminal: only
    # the edited step differs from what the strategy records
    p = mult_cut(2, 2, A)
    res = normalize(p)
    k = next(i for i, s in enumerate(res.trace.steps) if s.path)
    steps = list(res.trace.steps)
    steps[k] = edit(steps[k])
    with pytest.raises(RewriteError, match=re.escape(f"replay diverged at {steps[k].path}: ")):
        replay(p, Trace(tuple(steps), res.trace.terminal))


def test_exchange_normalize_cancels_double_swaps():
    c = comp(A)
    assert exchange_normalize(mk_exchange(mk_exchange(c, 0), 0)) == c


def test_exchange_normalize_keeps_numerals_untouched():
    assert exchange_normalize(church(2, A)) == church(2, A)
    assert exchange_normalize(church(5, A)) == church(5, A)


def test_exchange_normalize_returns_a_deep_proof_without_exchanges_as_itself():
    p = church(2000, A)
    assert exchange_normalize(p) is p


def test_exchange_normalize_gives_one_word_per_permutation():
    base = plain_body(3, A)  # E,E,E ⊢ E
    # the same permutation spelled as two different braid words
    w1 = mk_exchange(mk_exchange(mk_exchange(base, 0), 1), 0)
    w2 = mk_exchange(mk_exchange(mk_exchange(base, 1), 0), 1)
    n1, n2 = exchange_normalize(w1), exchange_normalize(w2)
    assert n1 == n2
    assert n1.conclusion == w1.conclusion


def test_step_counts_are_recorded_per_step():
    p = mult_cut(2, 1, A)
    res = normalize(p)
    sizes = [(s.size_before, s.size_after) for s in res.trace.steps]
    assert sizes[0][0] == p.size
    for (b, a), s in zip(sizes, res.trace.steps):
        assert b > 0 and a > 0 and s.path == tuple(s.path)
    assert sizes[-1][1] == res.proof.size


# ---------------------------------------------------------------------------
# The per-step kernel guard


def _unguarded_steps(p):
    """(before, path, after) for each strategy step, spliced without the
    guard."""
    cur = p
    while (path := find_redex(cur)) is not None:
        _rule_id, replacement = reduce_cut(get_at(cur, path))
        out = replace_at(cur, path, replacement)
        yield cur, path, out
        cur = out


def _broken_premise(rep):
    """``rep`` with its first premise swapped for a bare axiom node that
    caches the premise's conclusion, which is no axiom sequent: the root
    still fits its schema, the new axiom does not."""
    first = rep.premises[0]
    bad = Proof(Axiom(), (), first.conclusion)
    return Proof(rep.rule, (bad,) + rep.premises[1:], rep.conclusion)


def test_guard_catches_a_bad_node_inside_a_replacement(monkeypatch):
    real = rewrite.reduce_cut

    def buggy(node):
        rule_id, rep = real(node)
        return rule_id, _broken_premise(rep)

    monkeypatch.setattr(rewrite, "reduce_cut", buggy)
    with pytest.raises(RewriteError, match="lolli-r-commute at \\(\\) broke validity"):
        normalize(mult_cut(2, 2, A))


def test_invalid_input_is_rejected_on_entry():
    bad = Proof(Axiom(), (), Sequent((A,), B))  # A ⊢ B by "axiom"
    p = mk_cut(bad, mk_axiom(B), 0)  # the cut itself fits its schema
    assert [where for where, _msg in validate(p)] == [(0,)]
    # the one step, ax-right, returns ``bad`` itself: only the entry
    # check can see it
    with pytest.raises(RewriteError, match="input proof is invalid"):
        normalize(p)
    with pytest.raises(RewriteError, match="input proof is invalid"):
        normalize(bad)
    trace = Trace((StepInfo("ax-right", (), p.size, bad.size),), bad)
    with pytest.raises(RewriteError, match="input proof is invalid"):
        replay(p, trace)


def test_alpha_variant_replacement_rechecks_the_ancestors(monkeypatch):
    x, y = Var("x"), Var("y")
    left = mk_lolli_r(mk_weak(mk_axiom(y), 1, Bang(x)))  # !x ⊢ y ⊸ y
    right = mk_forall_r(
        mk_tensor_r(mk_axiom(Lolli(y, y)), mk_lolli_r(mk_axiom(x))), "x"
    )  # y ⊸ y ⊢ ∀x. (y ⊸ y) ⊗ (x ⊸ x)
    p = mk_prom(mk_cut(left, right, 0))
    checked = []
    real = rewrite._node_violation

    def recording(node):
        checked.append(node)
        return real(node)

    monkeypatch.setattr(rewrite, "_node_violation", recording)
    res = normalize(p)
    ids = [s.rule_id for s in res.trace.steps]
    assert ids == ["forall-r-commute", "tensor-r-commute", "ax-right"]
    # the binder was renamed away from the free x of !x
    assert get_at(res.proof, (0,)).conclusion != get_at(p, (0,)).conclusion
    # the promotion is never part of a replacement: only the ancestor
    # re-check reaches it
    assert any(isinstance(n.rule, Promotion) for n in checked)
    assert _kernelref.validate(res.proof) == []
    # the guard leaves the ancestors it re-checked uncertified
    assert not res.proof.checked
    assert validate(res.proof) == [] and res.proof.checked
    assert res.proof.conclusion == p.conclusion


def test_a_forged_replacement_with_a_bad_conclusion_breaks_validity(monkeypatch):
    def forged(node):
        # an "axiom" caching the cut's conclusion, which is no axiom sequent
        return "forged", Proof(Axiom(), (), node.conclusion)

    monkeypatch.setattr(rewrite, "reduce_cut", forged)
    with pytest.raises(
        RewriteError, match=r"forged at \(\) broke validity: \[\(\(\), 'cached conclusion"
    ):
        normalize(mult_cut(2, 2, A))


def test_the_guard_derives_a_replacement_built_past_the_schemas(monkeypatch):
    want = normalize(exp_cut(2, 2, A))
    real = rewrite.reduce_cut
    derived = []
    real_violation = proof._node_violation

    def raw_copy(node):
        rule_id, rep = real(node)
        return rule_id, Proof(rep.rule, rep.premises, rep.conclusion)

    def recording(node):
        derived.append(node)
        return real_violation(node)

    monkeypatch.setattr(rewrite, "reduce_cut", raw_copy)
    monkeypatch.setattr(proof, "_node_violation", recording)
    res = normalize(exp_cut(2, 2, A))
    assert res.trace == want.trace
    # each step derives its raw root once; the strict nodes below it and
    # the raw roots of earlier steps are certified
    assert len(derived) == len(res.trace.steps)
    assert res.proof.checked


def test_normalize_derives_no_node_the_constructors_built(monkeypatch):
    def forbidden(node):
        raise AssertionError("a certified node was derived again")

    monkeypatch.setattr(rewrite, "_node_violation", forbidden)
    monkeypatch.setattr(proof, "_node_violation", forbidden)
    for p in (exp_cut(2, 3, A), hypexp_cut(2), add_cut(2, 3, A), mult_cut(3, 2, A)):
        res = normalize(p)
        assert res.proof.checked and validate(res.proof) == []
        assert exchange_normalize(res.proof).checked


def test_exchange_normalization_keeps_the_certificate():
    base = mk_tensor_r(mk_axiom(A), mk_axiom(B))
    twice = mk_exchange(mk_exchange(base, 0), 0)
    out = exchange_normalize(mk_lolli_r(twice))
    assert out == mk_lolli_r(base) and out.checked
    # a parent built past the schemas is not certified by the rebuild
    raw = Proof(LolliR(), (twice,), out.conclusion)
    out = exchange_normalize(raw)
    assert out == mk_lolli_r(base) and not out.checked
    assert validate(out) == [] and out.checked


def test_guard_agrees_with_full_validation_on_every_step():
    cases = [make(m, n, A) for make in (add_cut, mult_cut) for m in range(4) for n in range(4)]
    cases += [exp_cut(2, n, A) for n in range(1, 5)]
    cases += [hypexp_cut(n) for n in range(3)]
    checked = 0
    for p in cases:
        for before, path, after in _unguarded_steps(p):
            assert step_violations(before, path, after) == []
            assert _kernelref.validate(after) == []
            checked += 1
    assert checked > 1000


def test_guard_reports_a_corrupted_splice_like_validate():
    p = mult_cut(2, 2, A)
    path = find_redex(p)
    _rule_id, rep = reduce_cut(get_at(p, path))
    corrupted = replace_at(p, path, _broken_premise(rep))
    bad = step_violations(p, path, corrupted)
    assert [where for where, _msg in bad] == [path + (0,)]
    assert bad == _kernelref.validate(corrupted) == validate(corrupted)
    # a replacement proving another sequent breaks its parent instead
    before, path, _after = next(
        (b, q, a) for b, q, a in _unguarded_steps(p) if q
    )
    foreign = replace_at(before, path, mk_axiom(B))
    bad = step_violations(before, path, foreign)
    assert [where for where, _msg in bad] == [path[:-1]]
    assert bad == _kernelref.validate(foreign) == validate(foreign)
    # the same two splices at every step of three cuts: the certificate
    # walk skips the splice's certified nodes and reports what deriving
    # every node reports
    compared = 0
    for p in (mult_cut(2, 2, A), exp_cut(2, 2, A), hypexp_cut(1)):
        for before, path, after in _unguarded_steps(p):
            rep = get_at(after, path)
            splices = [_broken_premise(rep)] if rep.premises else []
            if path:
                splices.append(mk_axiom(B))
            for sub in splices:
                corrupted = replace_at(before, path, sub)
                want = _kernelref.validate(corrupted)
                assert step_violations(before, path, corrupted) == want
                assert validate(corrupted) == want
                compared += bool(want)
    assert compared > 100


# ---------------------------------------------------------------------------
# The zipper loop against the reference loop


def _reference(p, max_steps=None):
    """(steps, tree) of ``find_redex`` + ``apply_rule_at`` from the root,
    for at most ``max_steps`` steps."""
    steps, cur = [], p
    while len(steps) != max_steps and (path := find_redex(cur)) is not None:
        cur, info = apply_rule_at(cur, path)
        steps.append(info)
    return tuple(steps), cur


def test_normalize_matches_the_reference_loop():
    cases = [make(m, n, A) for make in (add_cut, mult_cut) for m in range(4) for n in range(4)]
    cases += [exp_cut(2, n, A) for n in range(1, 7)]
    cases += [hypexp_cut(n) for n in range(4)]
    # nodes with cuts in two premises: the left one goes first
    cases += [
        mk_tensor_r(mult_cut(2, 2, A), add_cut(1, 2, A)),
        mk_cut(add_cut(1, 1, A), mk_cut(mult(2, A), mult(3, A), 0), 0),
    ]
    for p in cases:
        res = normalize(p)
        steps, terminal = _reference(p)
        assert res.trace.steps == steps
        assert res.proof == terminal and res.trace.terminal is res.proof
        assert not res.exhausted and is_cut_free(res.proof)
        assert replay(p, res.trace) == res.proof


def test_an_exhausted_budget_stops_where_the_reference_loop_does():
    p = exp_cut(2, 2, A)
    total = len(normalize(p).trace.steps)
    for budget in (0, 1, 7, total // 2, total - 1, total):
        res = normalize(p, max_steps=budget)
        steps, tree = _reference(p, budget)
        assert res.trace.steps == steps
        assert res.proof == tree and res.exhausted == (budget < total)
        assert _kernelref.validate(res.proof) == []


def test_normalize_does_no_work_from_the_root(monkeypatch):
    want = normalize(exp_cut(2, 4, A))
    rebuilt = []
    real = rewrite._with_premise

    def forbidden(*args):
        raise AssertionError("normalize went back to the root")

    def counted(*args):
        rebuilt.append(args[1])
        return real(*args)

    monkeypatch.setattr(rewrite, "replace_at", forbidden)
    monkeypatch.setattr(rewrite, "find_redex", forbidden)
    monkeypatch.setattr(rewrite, "_with_premise", counted)
    res = normalize(exp_cut(2, 4, A))
    assert res.trace == want.trace and len(res.trace.steps) == 219
    # each ancestor is rebuilt as the cursor climbs past it, not each
    # step: climbing to the root after every step would rebuild thousands
    assert len(rebuilt) < len(res.trace.steps)


def test_a_deep_cut_normalizes_under_the_default_recursion_limit():
    # the cut commutes about 1,800 rules deep into the numeral
    p = add_cut(1, 600, A)
    res = normalize(p)
    assert len(res.trace.steps) == 3617
    assert max(len(s.path) for s in res.trace.steps) > 1800
    assert is_cut_free(res.proof) and not res.exhausted
    assert res.proof.conclusion == p.conclusion
