"""The root-splice stepping path, kept as the reference for the tests.

`linlog.rewrite.normalize` steps a proof from a zipper.  These are the
functions it replaced: `step` finds the redex from the root
(`find_redex`), and `apply_rule_at` reduces it, splices the result back
into the root (`replace_at`) and runs the kernel guard on the spliced
tree (`step_violations`).  The tests check that the zipper takes the
same steps, stops where this loop stops, and guards what it guards.
"""

from __future__ import annotations

from linlog.formula import sequent_alpha_eq
from linlog.proof import Proof, get_at, replace_at
from linlog.rewrite import RewriteError, StepInfo, _guard, find_redex, reduce_cut


def step_violations(
    before: Proof, path: tuple[int, ...], after: Proof
) -> list[tuple[tuple[int, ...], str]]:
    """Schema violations of ``after``, the valid tree ``before`` with the
    cut at ``path`` replaced, as (path-from-root, message).

    Runs :func:`_guard`, passing it the ancestors on ``path`` when the
    replacement's conclusion is not ``==`` to the redex's.  Given a valid
    ``before``, the result equals ``validate(after)``, in the same
    (preorder) order.
    """
    redex = get_at(before, path)
    replacement = get_at(after, path)
    ancestors = []
    if replacement.conclusion != redex.conclusion:
        node = after
        for i in path:
            ancestors.append(node)
            node = node.premises[i]
    return _guard(ancestors, path, replacement)


def apply_rule_at(p: Proof, path: tuple[int, ...]) -> tuple[Proof, StepInfo]:
    """Reduce the cut at ``path`` and splice the result back, with the
    kernel guard (validity + conclusion preservation) applied.

    ``p`` must be valid: the guard checks only the nodes the step
    changed (see :func:`step_violations`).  :func:`normalize` and
    :func:`replay` validate their input on entry."""
    node = get_at(p, path)
    rule_id, replacement = reduce_cut(node)
    if replacement.conclusion != node.conclusion and not sequent_alpha_eq(
        replacement.conclusion, node.conclusion
    ):
        raise RewriteError(f"{rule_id} changed the conclusion at {path}")
    out = replace_at(p, path, replacement)
    bad = step_violations(p, path, out)
    if bad:
        raise RewriteError(f"{rule_id} at {path} broke validity: {bad[:3]}")
    return out, StepInfo(rule_id, path, p.size, out.size)


def step(p: Proof) -> tuple[Proof, StepInfo] | None:
    """One strategy step on a valid proof (see :func:`apply_rule_at`);
    None when the proof is already cut-free."""
    path = find_redex(p)
    if path is None:
        return None
    return apply_rule_at(p, path)
