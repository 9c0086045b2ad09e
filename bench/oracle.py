"""References the benchmark checks the engine against.

Nothing here calls into ``linlog``: proofs are walked through their
public fields (``rule``, ``premises``, ``conclusion``) and every
expected value is recomputed from the definitions.

* ``format_formula`` / ``print_llp`` spell the ``.llp`` text format
  (72-column layout, two-space indent).  The printer is iterative, so
  it also writes proofs deeper than the interpreter's recursion limit.
* ``ket_coefficient`` is the matrix-polynomial oracle for numerals on
  kets: the multilinear coefficient of t₁…t_s in (α + Σ tᵢ νᵢ)^k.
* ``NORMALIZE_STEPS`` pins the step counts of the cut-elimination
  strategy on the inputs of the ``normalize`` workload.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# Text format

_KEYWORDS = {
    "Axiom": "ax",
    "Exchange": "ex",
    "Cut": "cut",
    "TensorR": "tensor-r",
    "TensorL": "tensor-l",
    "LolliR": "lolli-r",
    "LolliL": "lolli-l",
    "Promotion": "prom",
    "Dereliction": "der",
    "Contraction": "ctr",
    "Weakening": "weak",
    "OneL": "one-l",
    "OneR": "one-r",
    "ForallR": "all-r",
    "ForallL": "all-l",
}
_WIDTH = 72


def format_formula(a, top: bool = True) -> str:
    """Surface syntax: bare at top level, compound subterms parenthesized."""
    kind = type(a).__name__
    if kind == "Var":
        return a.name
    if kind == "One":
        return "1"
    if kind == "Bang":
        return "!" + format_formula(a.body, False)
    if kind == "Forall":
        return f"(all {a.binder}. {format_formula(a.body, True)})"
    if kind == "Tensor":
        body = f"{format_formula(a.left, False)} * {format_formula(a.right, False)}"
    elif kind == "Lolli":
        body = f"{format_formula(a.ante, False)} -o {format_formula(a.cons, False)}"
    else:
        raise TypeError(f"not a formula: {a!r}")
    return body if top else f"({body})"


def _head(p) -> list[str]:
    kind = type(p.rule).__name__
    words = [_KEYWORDS[kind]]
    if kind == "Axiom":
        words.append(format_formula(p.conclusion.conclusion))
    elif kind == "Weakening":
        words += [str(p.rule.at), format_formula(p.conclusion.context[p.rule.at])]
    elif kind == "ForallR":
        words.append(p.conclusion.conclusion.binder)
    elif kind == "ForallL":
        words += [
            str(p.rule.at),
            format_formula(p.conclusion.context[p.rule.at]),
            format_formula(p.rule.witness),
        ]
    elif hasattr(p.rule, "at"):
        words.append(str(p.rule.at))
    return words


def _postorder(p):
    """Distinct nodes, every premise before its conclusion."""
    seen: set[int] = set()
    out = []
    stack = [(p, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            out.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((q, False) for q in node.premises)
    return out


def print_llp(p) -> str:
    """The canonical ``.llp`` text of a proof: a node goes on one line
    when it fits in 72 columns at its indent, otherwise its head opens
    a block and each premise follows on its own line, two deeper."""
    heads: dict[int, str] = {}
    width: dict[int, int] = {}
    for node in _postorder(p):
        head = "(" + " ".join(_head(node))
        heads[id(node)] = head
        width[id(node)] = len(head) + 1 + sum(1 + width[id(q)] for q in node.premises)
    inline: dict[int, str] = {}

    def flat(node) -> str:  # only called on nodes at most 72 wide
        key = id(node)
        if key not in inline:
            inline[key] = " ".join([heads[key], *map(flat, node.premises)]) + ")"
        return inline[key]

    out: list[str] = []
    stack: list = [(p, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, indent = item
        if not node.premises or indent + width[id(node)] <= _WIDTH:
            out.append(flat(node))
            continue
        out.append(heads[id(node)])
        stack.append(")")
        pad = "\n" + " " * (indent + 2)
        for q in reversed(node.premises):
            stack.append((q, indent + 2))
            stack.append(pad)
    return "".join(out)


def nodes(p):
    """Every node of the tree, a shared subtree once per use."""
    stack = [p]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.premises)


def proof_size(p) -> int:
    return sum(1 for _ in nodes(p))


def is_cut_free(p) -> bool:
    return all(type(node.rule).__name__ != "Cut" for node in nodes(p))


# ---------------------------------------------------------------------------
# Matrix-polynomial oracle


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def _matadd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def unit_matrix(n: int, idx: int):
    """The standard basis matrix number ``idx`` of n×n matrices, rows
    first (entry (idx // n, idx % n) is one)."""
    i, j = divmod(idx, n)
    return tuple(
        tuple(Fraction(1 if (r, c) == (i, j) else 0) for c in range(n)) for r in range(n)
    )


def ket_coefficient(k: int, alpha, nus):
    """Coefficient of t₁…t_s in (α + Σ tᵢ νᵢ)^k, as a tuple of rows.

    The expansion tracks, for every subset S of the tᵢ used so far, the
    sum of all products of the factors read so far that use exactly
    the tᵢ in S once each.
    """
    n = len(alpha)
    s = len(nus)
    zero = tuple((Fraction(0),) * n for _ in range(n))
    coef = [zero] * (1 << s)
    coef[0] = tuple(tuple(Fraction(1 if r == c else 0) for c in range(n)) for r in range(n))
    for _ in range(k):
        nxt = [zero] * (1 << s)
        for mask in range(1 << s):
            if coef[mask] is zero:
                continue
            nxt[mask] = _matadd(nxt[mask], _matmul(coef[mask], alpha))
            for i in range(s):
                if not mask >> i & 1:
                    grown = mask | 1 << i
                    nxt[grown] = _matadd(nxt[grown], _matmul(coef[mask], nus[i]))
        coef = nxt
    return coef[(1 << s) - 1]


# ---------------------------------------------------------------------------
# Pinned step counts of the leftmost-innermost strategy

#: (kind, m, n) → number of rewrite steps to the cut-free normal form:
#: add_cut(m, n), mult_cut(m, n), exp_cut(m, n) and hypexp_cut(n).
NORMALIZE_STEPS = {
    ("add", 1, 1): 23,
    ("add", 2, 2): 31,
    ("add", 3, 3): 39,
    ("add", 2, 5): 49,
    ("add", 5, 2): 37,
    ("add", 4, 3): 41,
    ("add", 1, 6): 53,
    ("add", 6, 1): 33,
    ("mult", 1, 1): 9,
    ("mult", 2, 2): 27,
    ("mult", 1, 4): 52,
    ("mult", 4, 1): 15,
    ("mult", 2, 3): 49,
    ("mult", 3, 2): 34,
    ("mult", 3, 3): 63,
    ("mult", 2, 5): 102,
    ("exp", 2, 1): 19,
    ("exp", 2, 2): 59,
    ("exp", 2, 3): 119,
    ("exp", 2, 4): 219,
    ("exp", 2, 5): 392,
    ("exp", 2, 6): 713,
    ("hypexp", 0, 0): 6,
    ("hypexp", 0, 1): 30,
    ("hypexp", 0, 2): 101,
    ("hypexp", 0, 3): 334,
}
