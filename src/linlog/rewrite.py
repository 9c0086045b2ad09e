"""Cut-elimination: local rewrite catalog, strategy, traces.

Every rewrite acts at one cut node and preserves that node's conclusion
sequent.  Writing L : Γ ⊢ A and R : Δ′, A, Δ ⊢ B for the premises (the
cut's ``at`` is |Δ′|), the catalog's priority at a selected node is:

1. either premise is an axiom — the cut evaporates;
2. L ends in an exchange or a left rule — the cut slides into L's
   premise (these dissolve application chains fed to a cut);
3. L ends in the right-introduction of the cut formula and R consumes
   it at position ``at`` — a principal step (⊗, ⊸, 1, ∀, and the four
   !-cases against promotion: dereliction opens the box, contraction
   duplicates it, weakening discards it, promotion absorbs it);
4. otherwise the cut slides into R's final rule (commuting step).

Cases 2 and 3 never overlap (a left-ending L is not a right-intro);
choosing left-commutes before right-commutes is this engine's pinned
order.  The strategy is leftmost-innermost: the first cut in preorder
whose subtrees are cut-free.  With that strategy no cut ever meets
another cut, so the catalog needs no cut-past-cut rules.

After each step a kernel guard checks that the replacement keeps the
redex's conclusion and that the new tree is valid.  It is a guard
against catalog bugs, not a proof obligation for callers.  Validity is
a property of each node alone: its rule, its cached conclusion and its
premises' cached conclusions.  :func:`normalize` validates its input
once, so after a step only two kinds of node can be invalid: the nodes
of the replacement that no schema derived, and the ancestors rebuilt
around it.  The catalog builds its replacements with the strict
constructors, which derive each node they build and certify it
(``Proof.checked``), so a replacement it builds has nothing left to
check; a node built any other way is unchecked.  An ancestor can break
only when the replacement's conclusion is an alpha-variant of the old
one rather than equal to it; otherwise it sees the premise conclusions
it saw before.  The guard (:func:`_guard`) checks the unchecked nodes
of the replacement, and all the ancestors after a step whose conclusion
came back only alpha-equal, so it proves what validating the whole tree
would.  It certifies the replacement's nodes it derived, but not those
ancestors: such a step is rare (none on the benchmark's cuts), and
:func:`validate` certifies them when asked.  A step whose replacement
is already certified and whose conclusion came back equal leaves the
guard nothing to check, so :func:`normalize` does not call it: that is
the common step, as the catalog builds through the strict constructors.

:func:`normalize` is the only code that steps a proof.  It keeps its
place as a zipper, seeks the cut :func:`find_redex` would pick from the
root, and rebuilds an ancestor only when it climbs past it;
:func:`replay` re-runs it against a recorded trace.
"""

from __future__ import annotations

from typing import NamedTuple

from .formula import Var, free_vars, fresh_name, sequent_alpha_eq
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
    _certify,
    _make,
    _moved,
    _node_violation,
    _walk_unchecked,
    _with_premise,
    fold,
    free_vars_proof,
    mk_ctr,
    mk_cut,
    mk_exchange,
    mk_forall_r,
    mk_lolli_l,
    mk_lolli_r,
    mk_prom,
    mk_tensor_r,
    mk_weak,
    preorder,
    replace_at,  # unused here; bench/tracing.py and a test patch rewrite.replace_at
    subst_proof,
    validate,
)

DEFAULT_MAX_STEPS = 100000


class RewriteError(Exception):
    """An internal engine failure (a rewrite broke validity or the
    conclusion) — this is a bug guard, not a user-facing condition."""


class StepInfo(NamedTuple):
    """One step of a trace: :func:`normalize` makes one per step."""

    rule_id: str
    path: tuple[int, ...]
    size_before: int
    size_after: int


class Trace(NamedTuple):
    steps: tuple[StepInfo, ...]
    terminal: Proof


class NormalizeResult(NamedTuple):
    proof: Proof
    trace: Trace
    exhausted: bool


def is_cut_free(p: Proof) -> bool:
    return p.cut_count == 0


# ---------------------------------------------------------------------------
# The catalog: reduce one cut node

# The one-premise left rules (and exchange), by the name their commuting
# steps' rule ids carry.
_COMMUTING = {
    Exchange: "ex",
    Dereliction: "der",
    Contraction: "ctr",
    Weakening: "weak",
    OneL: "one-l",
    TensorL: "tensor-l",
    ForallL: "forall-l",
}


def reduce_cut(node: Proof) -> tuple[str, Proof]:
    """One reduction of a cut node whose premises are cut-free.

    Returns (rule id, replacement subtree with the identical conclusion).
    """
    if type(node.rule) is not Cut:
        raise RewriteError("reduce_cut called on a non-cut node")
    left, right = node.premises
    at = node.rule.at
    ng = len(left.conclusion.context)

    if type(left.rule) is Axiom:
        return "ax-left", right
    if type(right.rule) is Axiom:
        return "ax-right", left

    if type(left.rule) in _COMMUTING or type(left.rule) is LolliL:
        return _commute_left(left, right, at)

    principal = _principal(left, right, at, ng)
    if principal is not None:
        return principal

    return _commute_right(left, right, at, ng)


def _commute_left(left: Proof, right: Proof, at: int) -> tuple[str, Proof]:
    """The cut slides into L's premise; L's rule moves below it, its
    index shifted by the cut's slot."""
    r = left.rule
    if type(r) is LolliL:
        sub_l, sub_r = left.premises
        inner = mk_cut(sub_r, right, at)
        return "lolli-l-commute-left", mk_lolli_l(sub_l, inner, at + r.at)
    inner = mk_cut(left.premises[0], right, at)
    return f"{_COMMUTING[type(r)]}-commute-left", _make(_moved(r, at + r.at), inner)


def _principal(left: Proof, right: Proof, at: int, ng: int) -> tuple[str, Proof] | None:
    lr, rr = left.rule, right.rule
    if type(lr) is TensorR and type(rr) is TensorL and rr.at == at:
        l1, l2 = left.premises
        n1 = len(l1.conclusion.context)
        inner = mk_cut(l1, right.premises[0], at)
        return "tensor-principal", mk_cut(l2, inner, at + n1)
    if type(lr) is LolliR and type(rr) is LolliL:
        r1, r2 = right.premises
        if rr.at + len(r1.conclusion.context) == at:
            first = mk_cut(r1, left.premises[0], 0)
            return "lolli-l-principal", mk_cut(first, r2, rr.at)
    if type(lr) is Promotion:
        if type(rr) is Dereliction and rr.at == at:
            return "prom-der", mk_cut(left.premises[0], right.premises[0], at)
        if type(rr) is Contraction and rr.at == at:
            return "prom-ctr", _prom_ctr(left, right, at, ng)
        if type(rr) is Weakening and rr.at == at:
            cur = right.premises[0]
            for f in reversed(left.conclusion.context):
                cur = mk_weak(cur, at, f)
            return "prom-weak", cur
        if type(rr) is Promotion:
            return "prom-prom", mk_prom(mk_cut(left, right.premises[0], at))
    if type(lr) is OneR and type(rr) is OneL and rr.at == at:
        return "one-principal", right.premises[0]
    if type(lr) is ForallR and type(rr) is ForallL and rr.at == at:
        instantiated = subst_proof(left.premises[0], lr.binder, rr.witness)
        return "forall-principal", mk_cut(instantiated, right.premises[0], at)
    return None


def _prom_ctr(left: Proof, right: Proof, at: int, ng: int) -> Proof:
    """Duplicate the promotion box, then interleave and contract the two
    copies of its (all-banged) context, pairwise."""
    inner = mk_cut(left, right.premises[0], at + 1)
    cur = mk_cut(left, inner, at)
    # context now reads Δ′ + Γ + Γ + Δ; interleave to Θ₁Θ₁…Θ_gΘ_g
    for i in range(ng):
        q = at + ng + i  # current slot of the second copy of Θ_{i+1}
        for pos in range(q - 1, at + 2 * i, -1):
            cur = mk_exchange(cur, pos)
    for i in range(ng - 1, -1, -1):
        cur = mk_ctr(cur, at + 2 * i)
    return cur


def _commute_right(left: Proof, right: Proof, at: int, ng: int) -> tuple[str, Proof]:
    r = right.rule
    shift = ng - 1  # context growth when the cut replaces one slot by Γ

    if type(r) is Exchange and at in (r.at, r.at + 1):
        # the cut formula is one of the two swapped: move Γ past the other
        j = r.at
        if at == j:
            cur = mk_cut(left, right.premises[0], j + 1)
            for pos in range(j, j + ng):
                cur = mk_exchange(cur, pos)
        else:
            cur = mk_cut(left, right.premises[0], j)
            for pos in range(j + ng - 1, j - 1, -1):
                cur = mk_exchange(cur, pos)
        return "ex-commute", cur
    if type(r) in _COMMUTING:
        # the cut slides into R's premise, where a slot right of the
        # rule's moves by the context length the rule adds or removes
        j = r.at
        premise = right.premises[0]
        growth = len(premise.conclusion.context) - len(right.conclusion.context)
        inner = mk_cut(left, premise, at if at < j else at + growth)
        outer = _moved(r, j + shift if at < j else j)
        return f"{_COMMUTING[type(r)]}-commute", _make(outer, inner)
    if type(r) is LolliR:
        inner = mk_cut(left, right.premises[0], at + 1)
        return "lolli-r-commute", mk_lolli_r(inner)
    if type(r) is TensorR:
        r1, r2 = right.premises
        n1 = len(r1.conclusion.context)
        if at < n1:
            return "tensor-r-commute", mk_tensor_r(mk_cut(left, r1, at), r2)
        return "tensor-r-commute", mk_tensor_r(r1, mk_cut(left, r2, at - n1))
    if type(r) is LolliL:
        r1, r2 = right.premises
        j = r.at
        ns = len(r1.conclusion.context)
        if at < j:
            inner = mk_cut(left, r2, at)
            return "lolli-l-commute", mk_lolli_l(r1, inner, j + shift)
        if at < j + ns:
            inner = mk_cut(left, r1, at - j)
            return "lolli-l-commute", mk_lolli_l(inner, r2, j)
        if at == j + ns:
            raise RewriteError("cut formula is the implication but the left premise is not its abstraction")
        inner = mk_cut(left, r2, at - ns)
        return "lolli-l-commute", mk_lolli_l(r1, inner, j)
    if type(r) is ForallR:
        binder = r.binder
        premise = right.premises[0]
        gamma_fv: set[str] = set()
        for f in left.conclusion.context:
            gamma_fv |= free_vars(f)
        if binder in gamma_fv:
            fresh = fresh_name(binder, gamma_fv | free_vars_proof(left) | free_vars_proof(right))
            premise = subst_proof(premise, binder, Var(fresh))
            binder = fresh
        inner = mk_cut(left, premise, at)
        return "forall-r-commute", mk_forall_r(inner, binder)
    raise RewriteError(f"no rule applies to cut against {type(r).__name__}")


# ---------------------------------------------------------------------------
# Strategy and the step loop


def find_redex(p: Proof) -> tuple[int, ...] | None:
    """Path of the leftmost-innermost cut: first in preorder whose own
    subtrees are cut-free."""
    for path, node in preorder(p):
        if type(node.rule) is Cut and node.cut_count == 1:
            return path
    return None


def _guard(
    ancestors: list[Proof], path: tuple[int, ...], replacement: Proof
) -> list[tuple[tuple[int, ...], str]]:
    """Violations, in preorder, among ``ancestors`` (the nodes above
    ``path``, root first) and the unchecked nodes of ``replacement``,
    the subtree now at ``path``.  With none, it certifies the nodes of
    ``replacement`` it checked; the ancestors stay unchecked."""
    out = []
    for depth, node in enumerate(ancestors):
        msg = _node_violation(node)
        if msg is not None:
            out.append((path[:depth], msg))
    bad, walked = _walk_unchecked(replacement, path)
    out += bad
    if not out:
        _certify(*walked)
    return out


def normalize(p: Proof, max_steps: int = DEFAULT_MAX_STEPS) -> NormalizeResult:
    """Validate ``p``, then run the strategy to a cut-free proof or to
    budget exhaustion.  Each step reduces the cut :func:`find_redex`
    would pick (:func:`reduce_cut`) under the kernel guard, from a
    zipper (Huet, "The Zipper", 1997): a cursor on the redex below a
    stack of (parent, premise index) frames, which seeks the next redex
    from where it is (:func:`_seek`).
    """
    bad = validate(p)
    if bad:
        raise RewriteError(f"input proof is invalid: {bad[:3]}")
    steps: list[StepInfo] = []
    parents: list[Proof] = []
    path: list[int] = []  # path[k] is the premise of parents[k] the cursor is in
    size = p.size
    cur = _seek(p, parents, path)
    while cur.cut_count and len(steps) < max_steps:
        rule_id, replacement = reduce_cut(cur)
        where = tuple(path)
        if replacement.conclusion != cur.conclusion:
            if not sequent_alpha_eq(replacement.conclusion, cur.conclusion):
                raise RewriteError(f"{rule_id} changed the conclusion at {where}")
            # the ancestors see a new premise conclusion: rebuild them now
            node = replacement
            for k in range(len(parents) - 1, -1, -1):
                node = parents[k] = _with_premise(parents[k], path[k], node)
            bad = _guard(parents, where, replacement)
        elif replacement.checked:
            bad = None  # certified, under ancestors that see what they saw
        else:
            bad = _guard([], where, replacement)
        if bad:
            raise RewriteError(f"{rule_id} at {where} broke validity: {bad[:3]}")
        after = size - cur.size + replacement.size
        steps.append(StepInfo(rule_id, where, size, after))
        size = after
        cur = _seek(replacement, parents, path)
    exhausted = cur.cut_count > 0
    while parents:
        cur = _with_premise(parents.pop(), path.pop(), cur)
    return NormalizeResult(cur, Trace(tuple(steps), cur), exhausted)


def _seek(cur: Proof, parents: list[Proof], path: list[int]) -> Proof:
    """Move the cursor from ``cur`` to the cut :func:`find_redex` would
    pick from the root, rebuilding the ancestors it climbs past; return
    that cut, or the cut-free root.  Subtrees left of the path are
    cut-free, so that cut is in ``cur`` or else in the nearest ancestor
    with cuts: the ancestor itself, or its first premise with cuts,
    which lies right of the path."""
    while not cur.cut_count and parents:
        cur = _with_premise(parents.pop(), path.pop(), cur)
    while cur.cut_count and not (type(cur.rule) is Cut and cur.cut_count == 1):
        i = 0 if cur.premises[0].cut_count else 1  # at most two premises
        parents.append(cur)
        path.append(i)
        cur = cur.premises[i]
    return cur


def replay(p: Proof, trace: Trace) -> Proof:
    """Re-run :func:`normalize` for as many steps as ``trace`` records:
    each step (rule id, path and sizes) and the terminal proof must be
    the recorded ones exactly."""
    res = normalize(p, max_steps=len(trace.steps))
    for got, want in zip(res.trace.steps, trace.steps):
        if got != want:
            raise RewriteError(f"replay diverged at {want.path}: {got} != {want}")
    if len(res.trace.steps) != len(trace.steps) or res.proof != trace.terminal:
        raise RewriteError("replay did not reproduce the terminal proof")
    return res.proof


# ---------------------------------------------------------------------------
# Exchange canonicalization


def exchange_normalize(p: Proof) -> Proof:
    """Collapse exchange chains to a canonical word (dropping identity
    permutations), bottom-up.  Cut-elimination's golden normal forms
    carry no exchanges at all, so structural comparisons are made after
    this pass.  A subtree that changes nothing comes back as itself."""
    return fold(p, _exchange_node)


def _exchange_node(p: Proof, premises: list[Proof]) -> Proof:
    """One node of :func:`exchange_normalize`, given its premises' results."""
    for i, q in enumerate(premises):
        p = _with_premise(p, i, q)
    if type(p.rule) is not Exchange:
        return p
    swaps: list[int] = []
    cur = p
    while type(cur.rule) is Exchange:
        swaps.append(cur.rule.at)
        cur = cur.premises[0]
    n = len(cur.conclusion.context)
    perm = list(range(n))
    for j in reversed(swaps):
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
    word = _canonical_word(perm)
    out = cur
    for k in word:
        out = mk_exchange(out, k)
    return out


def _canonical_word(perm: list[int]) -> list[int]:
    """A fixed adjacent-swap word realizing the permutation: select each
    target element in turn and bubble it left into place."""
    work = list(range(len(perm)))
    word: list[int] = []
    for i, want in enumerate(perm):
        j = work.index(want)
        for k in range(j - 1, i - 1, -1):
            work[k], work[k + 1] = work[k + 1], work[k]
            word.append(k)
    return word
