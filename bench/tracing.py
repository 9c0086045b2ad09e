"""Spans and counters around linlog's layers, installed from outside.

A `Tracer` replaces a public function by a wrapper at the module
attribute its caller looks it up under (``linlog.rewrite.validate``
is what `apply_rule_at` calls, ``linlog.cli.validate`` what the CLI
calls), so nothing inside ``src/linlog`` changes.  A span records
(name, start, end, parent span, job id) in memory; a layer's self time
is its spans' durations minus the parts covered by their child spans.
Counters record work at the same boundaries.  Wrappers only record
while ``active`` is set, so set-up and output checks are not traced.

The program is single-threaded and has no queue, so no layer ever
waits for another; there is no waiting time to record.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import linlog.cli as cli
import linlog.coalgebra as coalgebra
import linlog.formula as formula
import linlog.proof as proof
import linlog.rewrite as rewrite
import linlog.semantics as semantics
import linlog.sexpr as sexpr

_MODULES = (cli, coalgebra, formula, proof, rewrite, semantics, sexpr)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.job = -1
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        """``fn`` recording one span per call; ``before(counts, args)``
        and ``after(counts, args, result)`` add counts outside the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer.counts, args)
            rec = [name, 0.0, 0.0, tracer._open[-1] if tracer._open else -1, tracer.job]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._open.pop()
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """``fn`` counting its calls under ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def patch_everywhere(self, fn, wrapper) -> None:
        """Replace ``fn`` in every linlog module that binds it by name."""
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- aggregation -------------------------------------------------------

    def take(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Self time and total time per span name, and the counters,
        since the last call; clears the recorded spans."""
        spans, self.spans = self.spans, []
        counts, self.counts = self.counts, Counter()
        covered = [0.0] * len(spans)
        for _name, start, end, parent, _job in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _job) in enumerate(spans):
            self_time[name] += end - start - covered[i]
            if parent < 0 or spans[parent][0] != name:
                total[name] += end - start
        return dict(self_time), dict(total), counts


def install(t: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""

    # cli: the entry point; its self time is argparse, JSON steps, stdout
    t.patch(cli, "main", t.span("cli", cli.main))

    # sexpr: the text format
    def parse_bytes(c, args, result):
        c["sexpr.parse_bytes"] += len(args[0].encode("utf-8"))

    def print_bytes(c, args, result):
        c["sexpr.print_bytes"] += len(result.encode("utf-8"))

    t.patch_everywhere(sexpr.parse_proof, t.span("sexpr.parse", sexpr.parse_proof, after=parse_bytes))
    t.patch_everywhere(
        sexpr.print_proof, t.span("sexpr.print", sexpr.print_proof, after=print_bytes)
    )

    # proof: the kernel; validate is timed apart when the rewrite guard calls it
    def validated(c, args):
        c["proof.validate_calls"] += 1
        c["proof.validate_nodes"] += args[0].size

    t.patch(cli, "validate", t.span("proof.validate", proof.validate, validated))
    t.patch(rewrite, "validate", t.span("rewrite.guard.validate", proof.validate, validated))
    t.patch(rewrite, "replace_at", t.span("proof.replace_at", proof.replace_at))

    # formula: the comparisons behind validation
    t.patch_everywhere(formula.alpha_eq, t.counter("formula.alpha_eq_calls", formula.alpha_eq))
    t.patch_everywhere(formula.substitute, t.counter("formula.substitute_calls", formula.substitute))
    seq_eq = formula.sequent_alpha_eq
    for module in (formula, proof):
        if getattr(module, "sequent_alpha_eq", None) is seq_eq:
            t.patch(module, "sequent_alpha_eq", t.counter("formula.sequent_alpha_eq_calls", seq_eq))

    def guard_conclusion(c, args):
        c["formula.sequent_alpha_eq_calls"] += 1

    t.patch(rewrite, "sequent_alpha_eq", t.span("rewrite.guard.conclusion", seq_eq, guard_conclusion))

    # rewrite: the strategy loop and the catalog
    def normalized(c, args, result):
        steps = result.trace.steps
        c["rewrite.steps"] += len(steps)
        peak = args[0].size
        for s in steps:
            c["rewrite.rule." + s.rule_id] += 1
            peak = max(peak, s.size_after)
        c["rewrite.peak_size"] = max(c["rewrite.peak_size"], peak)

    t.patch(cli, "normalize", t.span("rewrite.normalize", rewrite.normalize, after=normalized))
    t.patch(rewrite, "find_redex", t.span("rewrite.find_redex", rewrite.find_redex))
    t.patch(rewrite, "reduce_cut", t.span("rewrite.reduce_cut", rewrite.reduce_cut))

    # semantics: the denotation evaluator
    def applied(c, args):
        c["semantics.apply_hom_calls"] += 1

    def forced(c, args):
        if type(args[0]).__name__ == "Suspended":
            c["semantics.force_materialize_calls"] += 1

    t.patch(semantics, "_den_env", t.counter("semantics.den_env_calls", semantics._den_env))
    t.patch(semantics, "den_formula", t.counter("semantics.den_formula_calls", semantics.den_formula))
    t.patch(semantics, "apply_hom", t.span("semantics.apply_hom", semantics.apply_hom, applied))
    t.patch(semantics, "force", t.span("semantics.force", semantics.force, forced))

    # coalgebra: comonoid structure and liftings, as the evaluator calls them
    def fanned_out(c, args, result):
        c["coalgebra.coproduct_terms"] += len(result.terms)

    def partitioned(c, args, result):
        c["coalgebra.lift_partitions"] += len(result)

    t.patch(semantics, "coproduct", t.span("coalgebra.coproduct", semantics.coproduct, after=fanned_out))
    t.patch(semantics, "merge", t.span("coalgebra.merge_split", semantics.merge))
    t.patch(semantics, "split", t.span("coalgebra.merge_split", semantics.split))
    # lift looks up set_partitions in its own module; only lift calls it
    t.patch(coalgebra, "set_partitions", t.span("coalgebra.set_partitions", coalgebra.set_partitions, after=partitioned))
    lift_span = t.span("coalgebra.lift", semantics.lift)

    @functools.wraps(semantics.lift)
    def lift(phi, x, *args, **kwargs):
        if not t.active:
            return lift_span(phi, x, *args, **kwargs)
        phi_span = t.span("coalgebra.lift.phi", phi)
        seen: set = set()

        def counted_phi(arg):
            t.counts["coalgebra.lift_phi_calls"] += 1
            seen.update(key for key, _c in arg.terms)
            return phi_span(arg)

        t.counts["coalgebra.lift_calls"] += 1
        try:
            return lift_span(counted_phi, x, *args, **kwargs)
        finally:
            t.counts["coalgebra.lift_phi_distinct"] += len(seen)

    t.patch(semantics, "lift", lift)
