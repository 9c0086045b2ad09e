"""The full-walk validator, kept as the reference for the tests.

`linlog.proof.validate` does not enter a subtree whose certificate
(`Proof.checked`) says the rule schemas derived it.  This is the
validator it replaced: it derives every node of the tree again, in
preorder.  The tests check that both report the same violations, with
the same paths and messages, in the same order.
"""

from __future__ import annotations

from linlog.proof import Proof, _node_violation, preorder


def validate(p: Proof) -> list[tuple[tuple[int, ...], str]]:
    """All schema violations as (path-from-root, message); empty means ok."""
    out: list[tuple[tuple[int, ...], str]] = []
    for path, node in preorder(p):
        msg = _node_violation(node)
        if msg is not None:
            out.append((path, msg))
    return out
