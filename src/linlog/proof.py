"""Proof trees and the deduction-rule checker.

A proof is a rooted tree of rule applications.  Each node caches its
conclusion sequent.  The ``mk_*`` constructors are the strict face of
the rule schemas: they raise :class:`ProofError` instead of building an
invalid node, so a tree assembled purely from constructors always
validates.  Such a tree carries a certificate, as a theorem does in
LCF (Gordon, Milner and Wadsworth, *Edinburgh LCF*, 1979): a node's
``checked`` flag says that every node of its subtree has been derived
by the schemas, so no one derives it again.  A node built any other
way (the parser's lenient nodes, a direct ``Proof(rule, premises,
conclusion)``) starts unchecked, and :func:`validate`
recomputes the conclusion of each unchecked node from the schemas,
reports the nodes whose cache does not match, and certifies the tree
when none does.  Each node is thus derived once, wherever it was built.
Nodes are immutable by contract, not by a frozen class: after the
constructor, only the certificate code (the strict constructors,
:func:`validate`, :func:`_with_premise` and the rewrite guard) stores
into a node, and only to set ``checked``.

A rule tag carries the rule's parameters in ``.llp`` argument order
(see ``sexpr``): the ``at`` index, and the data the premises do not
determine (the axiom's formula, the weakened formula, the all-r binder,
the all-l quantified formula and witness).  Tags are interned as
formulas are, by one metaclass: one live tag exists per class and
fields, so a proof's many ``Dereliction(0)`` are one object, and ``==``
and ``hash`` on tags are identity.  One table, keyed by tag class, gives
each rule its keyword, its number of premises and its schema;
:func:`_make` builds any node from its tag and premises through it.
``formula.fold`` (bottom-up, as over a formula) and :func:`preorder`
(top-down) are the two walks over a proof: the walkers that map or
summarize a tree (here, in ``rewrite``, ``sexpr`` and ``semantics``) are
node functions over ``fold``, and ``rewrite.find_redex`` reads ``preorder``.

Hypothesis positions are explicit.  Every rule that touches the context
carries the index ``at`` of the formula it touches, counting from zero
at the left end.  For the two-premise rules ``cut`` and ``lolli_l`` the
index locates the consumed formula in the *right* premise's context,
mirroring how the rules are written::

    Γ ⊢ A    Δ′, A, Δ ⊢ B                Γ ⊢ A    Δ′, B, Δ ⊢ C
    ---------------------- cut          -------------------------- lolli_l
        Δ′, Γ, Δ ⊢ B                     Δ′, Γ, A -o B, Δ ⊢ C

with ``at`` = the position of A (resp. B) in the right premise, i.e.
the length of Δ′.  In the ``lolli_l`` conclusion the new implication
therefore sits at position ``at + len(Γ)``.  Each of the nine rules
with an ``at`` (ex, cut, tensor-l, lolli-l, der, ctr, weak, one-l,
all-l) is one context edit: it consumes 0, 1 or 2 formulas at ``at``
and puts others in their place, so one range check and one splice
serve them all.

Comparisons of formulas inside schemas are alpha-equality throughout,
so validity is stable under renaming of bound type variables.
"""

from __future__ import annotations

from typing import Iterator

from .formula import (
    Bang,
    Forall,
    Formula,
    Lolli,
    One,
    Sequent,
    Tensor,
    Var,
    _Interned,
    _alpha,
    alpha_eq,
    field_values,
    fold,
    format_formula,
    format_sequent,
    free_vars,
    fresh_name,
    sequent_alpha_eq,
    substitute,
)


class ProofError(Exception):
    """A rule application that does not fit its schema."""


# ---------------------------------------------------------------------------
# Rule tags


def _moved(rule: RuleTag, at: int) -> RuleTag:
    """``rule`` with its index changed to ``at``: its class called with
    ``at`` and the rest of its fields, whatever those are."""
    return type(rule)(at, *field_values(rule)[1:])


class Axiom(_Interned):
    formula: Formula


class Exchange(_Interned):
    at: int


class Cut(_Interned):
    at: int


class TensorR(_Interned):
    pass


class TensorL(_Interned):
    at: int


class LolliR(_Interned):
    pass


class LolliL(_Interned):
    at: int


class Promotion(_Interned):
    pass


class Dereliction(_Interned):
    at: int


class Contraction(_Interned):
    at: int


class Weakening(_Interned):
    at: int
    formula: Formula


class OneL(_Interned):
    at: int


class OneR(_Interned):
    pass


class ForallR(_Interned):
    binder: str


class ForallL(_Interned):
    at: int
    quantified: Formula
    witness: Formula


RuleTag = (
    Axiom | Exchange | Cut | TensorR | TensorL | LolliR | LolliL | Promotion | Dereliction
    | Contraction | Weakening | OneL | OneR | ForallR | ForallL
)


# ---------------------------------------------------------------------------
# Proof nodes


class Proof:
    """One rule application; ``conclusion`` is cached.

    Immutable by contract: the class is not frozen, so that building a
    node costs plain slot stores, but after ``__init__`` only
    ``checked`` and the lazy ``_hash`` are ever stored.  ``checked`` is
    the certificate: every node of this subtree fits its schema (so
    every node below a checked one is checked too).  Only :func:`_make`,
    :func:`_with_premise`, :func:`validate` and the rewrite guard set
    it, each on a node it has derived or whose premises it knows to be
    derived; a new node starts unchecked.

    ``size`` and ``cut_count`` add up the (at most two) premises', and
    the hash waits for the first ``hash()`` (``_hash`` is None until
    then), which nothing on the rewrite path asks for.
    """

    __slots__ = ("rule", "premises", "conclusion", "size", "cut_count", "checked", "_hash")

    def __init__(self, rule: RuleTag, premises: tuple[Proof, ...], conclusion: Sequent) -> None:
        self.rule = rule
        self.premises = premises
        self.conclusion = conclusion
        size, cuts = 1, 1 if type(rule) is Cut else 0
        for p in premises:
            size += p.size
            cuts += p.cut_count
        self.size = size
        self.cut_count = cuts
        self.checked = False
        self._hash = None

    def __hash__(self) -> int:
        if self._hash is None:
            # each node of the tree is hashed once, its premises first
            fold(self, _hash_node, lambda q: [r for r in q.premises if r._hash is None])
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Proof):
            return NotImplemented
        # an explicit stack of node pairs, so depth costs no recursion
        stack = [(self, other)]
        while stack:
            p, q = stack.pop()
            if p is q:
                continue
            if (
                hash(p) != hash(q)
                or p.rule != q.rule
                or p.conclusion != q.conclusion
                or len(p.premises) != len(q.premises)
            ):
                return False
            stack.extend(zip(p.premises, q.premises))
        return True

    def __repr__(self) -> str:
        kw = RULE_KEYWORDS.get(type(self.rule)) or repr(self.rule)
        return f"<{kw} proof of {format_sequent(self.conclusion)}; {self.size} nodes>"


def _hash_node(node: Proof, _: list) -> None:
    node._hash = hash((node.rule, tuple([q._hash for q in node.premises]), node.conclusion))


# ---------------------------------------------------------------------------
# Rule schemas
#
# One table gives each tag class its keyword, its number of premises and
# its schema: the function from the tag and the premise sequents to the
# conclusion, which raises the rule's side-condition errors.  Nine rules
# act at one position ``at`` of the context of their (right) premise, and
# :func:`_edit` builds their schemas.


def _edit(used: int, message: str, put, check=None):
    """The schema of a rule that consumes ``used`` formulas at ``at`` in
    its (right) premise's context and puts ``put(tag, consumed, left
    premise)`` in their place; ``message`` reports an ``at`` that leaves no
    room for them.  ``check(tag)``, the side conditions that read only the
    tag, precedes that range check."""

    def schema(rule: RuleTag, premises: tuple[Sequent, ...]) -> Sequent:
        if check is not None:
            check(rule)
        at, s = rule.at, premises[-1]
        ctx = s.context
        if not 0 <= at <= len(ctx) - used:
            raise ProofError(message.format(at, len(ctx)))
        new = put(rule, ctx[at : at + used], premises[0])
        return Sequent(ctx[:at] + new + ctx[at + used :], s.conclusion)

    return schema


def _cut_in(rule: Cut, consumed: tuple, left: Sequent) -> tuple[Formula, ...]:
    if not alpha_eq(consumed[0], left.conclusion):
        raise ProofError(
            f"cut formula mismatch: left proves {format_formula(left.conclusion)}, "
            f"right expects {format_formula(consumed[0])} at {rule.at}"
        )
    return left.context


def _contract(rule: Contraction, consumed: tuple, left: Sequent) -> tuple[Formula, ...]:
    a, b = consumed
    if not isinstance(a, Bang):
        raise ProofError(f"contraction of {format_formula(a)}: not banged")
    if not alpha_eq(a, b):
        raise ProofError(
            f"contraction needs equal copies, got {format_formula(a)} and {format_formula(b)}"
        )
    return (a,)


def _banged(rule: Weakening) -> None:
    if not isinstance(rule.formula, Bang):
        raise ProofError(f"weakening of {format_formula(rule.formula)}: not banged")


def _quantified(rule: ForallL) -> None:
    if not isinstance(rule.quantified, Forall):
        raise ProofError(
            f"all-l principal formula {format_formula(rule.quantified)} is not quantified"
        )


def _instantiate(rule: ForallL, consumed: tuple, left: Sequent) -> tuple[Formula, ...]:
    quantified = rule.quantified
    expected = substitute(quantified.body, quantified.binder, rule.witness)
    if not alpha_eq(consumed[0], expected):
        raise ProofError(
            f"all-l instance mismatch: premise has {format_formula(consumed[0])}, "
            f"expected {format_formula(expected)}"
        )
    return (quantified,)


def _abstract(rule: LolliR, premises: tuple[Sequent]) -> Sequent:
    (s,) = premises
    if not s.context:
        raise ProofError("lolli-r needs a leading hypothesis to abstract")
    return Sequent(s.context[1:], Lolli(s.context[0], s.conclusion))


def _promote(rule: Promotion, premises: tuple[Sequent]) -> Sequent:
    (s,) = premises
    for i, f in enumerate(s.context):
        if not isinstance(f, Bang):
            raise ProofError(f"promotion premise hypothesis {i} is {format_formula(f)}, not banged")
    return Sequent(s.context, Bang(s.conclusion))


def _generalize(rule: ForallR, premises: tuple[Sequent]) -> Sequent:
    (s,) = premises
    binder = rule.binder
    if binder == "all":  # as the formula grammar says
        raise ProofError("'all' cannot be a binder name")
    for i, f in enumerate(s.context):
        if binder in free_vars(f):
            raise ProofError(
                f"all-r binder {binder} occurs free in hypothesis {i} ({format_formula(f)})"
            )
    return Sequent(s.context, Forall(binder, s.conclusion))


def _pair(rule: TensorR, premises: tuple[Sequent, Sequent]) -> Sequent:
    left, right = premises
    return Sequent(left.context + right.context, Tensor(left.conclusion, right.conclusion))


_SCHEMAS = {
    Axiom: ("ax", 0, lambda rule, _: Sequent((rule.formula,), rule.formula)),
    Exchange: ("ex", 1, _edit(2, "exchange at {} needs adjacent formulas; context has {}",
                              lambda rule, ab, left: ab[::-1])),
    Cut: ("cut", 2, _edit(1, "cut at {} outside right context of length {}", _cut_in)),
    TensorR: ("tensor-r", 2, _pair),
    TensorL: ("tensor-l", 1, _edit(2, "tensor-l at {} needs two adjacent formulas; context has {}",
                                   lambda rule, ab, left: (Tensor(*ab),))),
    LolliR: ("lolli-r", 1, _abstract),
    LolliL: ("lolli-l", 2, _edit(1, "lolli-l at {} outside right context of length {}",
                                 lambda rule, b, s: s.context + (Lolli(s.conclusion, b[0]),))),
    Promotion: ("prom", 1, _promote),
    Dereliction: ("der", 1, _edit(1, "dereliction at {} outside context of length {}",
                                  lambda rule, a, left: (Bang(a[0]),))),
    Contraction: ("ctr", 1, _edit(2, "contraction at {} needs two adjacent copies; context has {}",
                                  _contract)),
    Weakening: ("weak", 1, _edit(0, "weakening at {} outside insertion range 0..{}",
                                 lambda rule, _, left: (rule.formula,), _banged)),
    OneL: ("one-l", 1, _edit(0, "one-l at {} outside insertion range 0..{}",
                             lambda rule, _, left: (One(),))),
    OneR: ("one-r", 0, lambda rule, _: Sequent((), One())),
    ForallR: ("all-r", 1, _generalize),
    ForallL: ("all-l", 1, _edit(1, "all-l at {} outside context of length {}",
                                _instantiate, _quantified)),
}

RULE_KEYWORDS: dict[type, str] = {tag: keyword for tag, (keyword, _, _) in _SCHEMAS.items()}


def rule_arity(tag: type) -> int:
    """How many premises the rule with tag class ``tag`` takes."""
    return _SCHEMAS[tag][1]


def rule_keyword(rule: RuleTag) -> str:
    """The keyword of ``rule``'s class; ProofError for a class with none."""
    keyword = RULE_KEYWORDS.get(type(rule))
    if keyword is None:
        raise ProofError(f"unknown rule {rule!r}")
    return keyword


def _rule_conclusion(rule: RuleTag, premises: tuple[Sequent, ...]) -> Sequent:
    """Apply ``rule`` to premise sequents, raising ProofError on misuse."""
    entry = _SCHEMAS.get(type(rule))
    if entry is None:
        raise ProofError(f"unknown rule {rule!r}")
    keyword, want, schema = entry
    if len(premises) != want:
        raise ProofError(f"{keyword} takes {want} premise(s), got {len(premises)}")
    return schema(rule, premises)


# ---------------------------------------------------------------------------
# Strict constructors


def _make(rule: RuleTag, *premises: Proof) -> Proof:
    """The node ``rule`` over ``premises``, its conclusion from the schema,
    checked if its premises are."""
    # _rule_conclusion and _certify inlined, and a loop, not all(): every node pays this
    entry = _SCHEMAS.get(type(rule))
    if entry is None:
        raise ProofError(f"unknown rule {rule!r}")
    keyword, want, schema = entry
    if len(premises) != want:
        raise ProofError(f"{keyword} takes {want} premise(s), got {len(premises)}")
    node = Proof(rule, premises, schema(rule, tuple([p.conclusion for p in premises])))
    for p in premises:
        if not p.checked:
            return node
    node.checked = True
    return node


def _certify(*nodes: Proof) -> None:
    """Mark ``nodes`` checked: the caller has shown each subtree valid."""
    for node in nodes:
        node.checked = True


def mk_axiom(a: Formula) -> Proof:
    return _make(Axiom(a))


def mk_exchange(p: Proof, at: int) -> Proof:
    return _make(Exchange(at), p)


def mk_cut(left: Proof, right: Proof, at: int) -> Proof:
    return _make(Cut(at), left, right)


def mk_tensor_r(left: Proof, right: Proof) -> Proof:
    return _make(TensorR(), left, right)


def mk_tensor_l(p: Proof, at: int) -> Proof:
    return _make(TensorL(at), p)


def mk_lolli_r(p: Proof) -> Proof:
    return _make(LolliR(), p)


def mk_lolli_l(left: Proof, right: Proof, at: int) -> Proof:
    return _make(LolliL(at), left, right)


def mk_prom(p: Proof) -> Proof:
    return _make(Promotion(), p)


def mk_der(p: Proof, at: int) -> Proof:
    return _make(Dereliction(at), p)


def mk_ctr(p: Proof, at: int) -> Proof:
    return _make(Contraction(at), p)


def mk_weak(p: Proof, at: int, banged: Formula) -> Proof:
    return _make(Weakening(at, banged), p)


def mk_one_l(p: Proof, at: int) -> Proof:
    return _make(OneL(at), p)


def mk_one_r() -> Proof:
    return _make(OneR())


def mk_forall_r(p: Proof, binder: str) -> Proof:
    return _make(ForallR(binder), p)


def mk_forall_l(p: Proof, at: int, quantified: Formula, witness: Formula) -> Proof:
    return _make(ForallL(at, quantified, witness), p)


# ---------------------------------------------------------------------------
# Validation


def _node_violation(p: Proof) -> str | None:
    """The schema complaint for this node alone, or None if it fits."""
    try:
        expected = _rule_conclusion(p.rule, tuple([q.conclusion for q in p.premises]))
    except ProofError as err:
        return str(err)
    if not sequent_alpha_eq(expected, p.conclusion):
        return (
            f"cached conclusion {format_sequent(p.conclusion)} differs from "
            f"rule result {format_sequent(expected)}"
        )
    return None


def _walk_unchecked(
    p: Proof, at: tuple[int, ...] = ()
) -> tuple[list[tuple[tuple[int, ...], str]], list[Proof]]:
    """The schema violations among the unchecked nodes of ``p``, in
    preorder, as (``at`` + path-from-``p``, message), and those nodes.
    The walk does not enter checked subtrees, which have none."""
    out: list[tuple[tuple[int, ...], str]] = []
    walked: list[Proof] = []
    stack: list[tuple[tuple[int, ...], Proof]] = [(at, p)]
    while stack:
        path, node = stack.pop()
        if node.checked:
            continue
        msg = _node_violation(node)
        if msg is not None:
            out.append((path, msg))
        walked.append(node)
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((path + (i,), node.premises[i]))
    return out, walked


def validate(p: Proof) -> list[tuple[tuple[int, ...], str]]:
    """All schema violations as (path-from-root, message), in preorder;
    empty means ok.  It derives only the unchecked nodes, and certifies
    them when it finds no violation."""
    out, walked = _walk_unchecked(p)
    if not out:
        _certify(*walked)
    return out


# ---------------------------------------------------------------------------
# Tree plumbing


def preorder(p: Proof) -> Iterator[tuple[tuple[int, ...], Proof]]:
    """Yield (path, node) pairs, node before its premises."""
    stack: list[tuple[tuple[int, ...], Proof]] = [((), p)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((path + (i,), node.premises[i]))


def get_at(p: Proof, path: tuple[int, ...]) -> Proof:
    for i in path:
        p = p.premises[i]
    return p


def _with_premise(parent: Proof, i: int, sub: Proof) -> Proof:
    """``parent`` with premise ``i`` replaced by ``sub``, keeping its
    cached conclusion; ``parent`` itself if that premise is ``sub``.  It
    stays checked if ``parent`` was (so its other premises are) and
    ``sub`` is checked and concludes ``==`` what the premise it replaces
    did: the schema then sees the sequents it saw before."""
    prems = parent.premises
    old = prems[i]
    if old is sub:
        return parent
    node = Proof(parent.rule, prems[:i] + (sub,) + prems[i + 1 :], parent.conclusion)
    if parent.checked and sub.checked and sub.conclusion == old.conclusion:
        node.checked = True
    return node


def replace_at(p: Proof, path: tuple[int, ...], sub: Proof) -> Proof:
    """Splice ``sub`` in at ``path``, keeping every ancestor's cached
    conclusion (callers must only splice conclusion-preserving subtrees).
    Walks down to collect the spine, then rebuilds it bottom-up, so the
    depth of ``path`` costs no recursion."""
    spine = []
    for i in path:
        spine.append(p)
        p = p.premises[i]
    for parent, i in zip(reversed(spine), reversed(path)):
        sub = _with_premise(parent, i, sub)
    return sub


def proof_eq(p: Proof, q: Proof) -> bool:
    """Structural equality up to renaming of bound type variables.

    A quantifier-right node binds its variable across the whole subtree
    above it (the generic variable occurs free in premise sequents), so
    the comparison threads binding environments through the tree rather
    than comparing node conclusions in isolation.  Node pairs wait on an
    explicit stack with their environments, as in ``Proof.__eq__``.
    """
    stack = [(p, q, {}, {}, 0)]
    while stack:
        p, q, envp, envq, depth = stack.pop()
        if type(p.rule) is not type(q.rule) or len(p.premises) != len(q.premises):
            return False
        for u, v in zip(field_values(p.rule), field_values(q.rule)):
            # an all-r binder, a name, is compared through the environments below
            if isinstance(u, Formula) and not _alpha(u, v, envp, envq, depth):
                return False
            if type(u) is int and u != v:
                return False
        s, t = p.conclusion, q.conclusion
        if not (envp == envq and s == t) and not (
            len(s.context) == len(t.context)
            and all(
                _alpha(a, b, envp, envq, depth) for a, b in zip(s.context, t.context)
            )
            and _alpha(s.conclusion, t.conclusion, envp, envq, depth)
        ):
            return False
        if type(p.rule) is ForallR:
            envp = {**envp, p.rule.binder: depth}
            envq = {**envq, q.rule.binder: depth}
            depth += 1
        stack.extend((a, b, envp, envq, depth) for a, b in zip(p.premises, q.premises))
    return True


def free_vars_proof(p: Proof) -> frozenset[str]:
    """Type variables occurring free anywhere in the tree: in a node's
    conclusion or an all-l witness.  Formulas are interned, so each
    distinct one is collected once and its free variables found once."""
    formulas: set[Formula] = set()

    def collect(node: Proof, _: list) -> None:
        formulas.update(node.conclusion.context)
        formulas.add(node.conclusion.conclusion)
        if type(node.rule) is ForallL:
            formulas.add(node.rule.witness)

    fold(p, collect)
    return frozenset().union(*map(free_vars, formulas))


# ---------------------------------------------------------------------------
# Substitution into proofs


def subst_proof(p: Proof, x: str, b: Formula) -> Proof:
    """Substitute ``b`` for the type variable ``x`` throughout a proof.

    Substitutes in each tag's formulas and rebuilds every node through
    :func:`_make`, so the result validates whenever ``p`` does.
    Quantifier nodes that bind ``x`` shadow the substitution; binders
    that would capture a free variable of ``b`` are renamed first.  The
    fold does not enter either kind of quantifier node: a shadowing one
    is kept, and a capturing one folds its renamed premise itself.
    """
    fv_b = free_vars(b)

    def premises(node: Proof) -> tuple[Proof, ...]:
        rule = node.rule
        if type(rule) is ForallR and (rule.binder == x or rule.binder in fv_b):
            return ()
        return node.premises

    def node(q: Proof, subs: list[Proof]) -> Proof:
        rule = q.rule
        if type(rule) is ForallR and rule.binder == x:
            return q
        if type(rule) is ForallR and rule.binder in fv_b:
            fresh = fresh_name(rule.binder, free_vars_proof(q) | fv_b | {x})
            renamed = subst_proof(q.premises[0], rule.binder, Var(fresh))
            return mk_forall_r(fold(renamed, node, premises), fresh)
        fields = [substitute(v, x, b) if isinstance(v, Formula) else v for v in field_values(rule)]
        return _make(type(rule)(*fields), *subs)

    return fold(p, node, premises)
