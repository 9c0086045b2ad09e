#!/usr/bin/env python3
"""linlog benchmark: one closed-loop client running one workload.

    python3 bench/run.py --workload normalize --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; linlog is imported from ``src/`` there
and nowhere else.  The client sends the next job only when the previous
one has finished.  After set-up (timed five times, median reported),
the run repeats whole passes of the workload's job mix until
``--seconds`` have passed and at least ``MIN_PASSES`` passes are done,
then checks every output against its reference.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` installs
the span and counter wrappers of ``tracing`` and reports the per-layer
metrics instead: per-pass self times (median over traced passes) and
per-pass counts (from the first traced pass, which the seed fixes).
Traced and untraced passes alternate, so the tracing overhead is
measured in the same run.

Times are given at a fixed reference speed.  The speed of a shared host
can drift by a factor of two within a minute, so the run interleaves a
fixed stdlib-only calibration block (Fraction arithmetic, tuples,
dicts, an integer loop; no linlog code) with the jobs, about every
``CALIBRATE_EVERY_S`` seconds, and scales the time of each job by
``REFERENCE_S`` / (median time of the blocks run around it).  Set-up is
scaled by the blocks run around it, span times by their pass's scale.
A reported millisecond is a millisecond on a host where one block takes
``REFERENCE_S``; the report prints the run's median scale.

A human-readable report goes to stdout first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  A job
fails if it raises, exits non-zero, or returns a wrong output.
``correct`` is false if any output is wrong or any job fails other than
the known failure of the deep ``syntax`` inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
#: p90 needs ten jobs beyond it; every workload reaches that in four passes.
MIN_PASSES = 4
#: Time of one calibration block at the reference speed, in seconds.
REFERENCE_S = 0.0033
CALIBRATE_EVERY_S = 0.05
#: A job is scaled by the median of the blocks run from this many seconds
#: before it starts to as long after it ends (by the whole pass's median,
#: if fewer than three).
CALIBRATION_WINDOW_S = 0.5

RULES = (
    "ax-left", "ax-right",
    "ex-commute-left", "der-commute-left", "ctr-commute-left", "weak-commute-left",
    "one-l-commute-left", "tensor-l-commute-left", "forall-l-commute-left",
    "lolli-l-commute-left",
    "tensor-principal", "lolli-l-principal", "prom-der", "prom-ctr", "prom-weak",
    "prom-prom", "one-principal", "forall-principal",
    "ex-commute", "der-commute", "ctr-commute", "weak-commute", "one-l-commute",
    "tensor-l-commute", "forall-l-commute", "lolli-r-commute", "tensor-r-commute",
    "lolli-l-commute", "forall-r-commute",
)
COUNTS = (
    "sexpr.parse_bytes", "sexpr.print_bytes",
    "proof.validate_calls", "proof.validate_nodes",
    "formula.alpha_eq_calls", "formula.sequent_alpha_eq_calls", "formula.substitute_calls",
    "rewrite.steps", "rewrite.peak_size",
    "semantics.den_env_calls", "semantics.apply_hom_calls",
    "semantics.force_materialize_calls", "semantics.den_formula_calls",
    "coalgebra.coproduct_terms", "coalgebra.lift_calls", "coalgebra.lift_partitions",
    "coalgebra.lift_phi_calls", "coalgebra.lift_phi_distinct",
) + tuple("rewrite.rule." + r for r in RULES)
#: per-layer time metric → the span names whose self time it sums
SELF_TIMES = {
    "cli.self_s": ("cli",),
    "sexpr.parse_s": ("sexpr.parse",),
    "sexpr.print_s": ("sexpr.print",),
    "proof.validate_s": ("proof.validate", "rewrite.guard.validate"),
    "proof.replace_at_s": ("proof.replace_at",),
    "rewrite.find_redex_s": ("rewrite.find_redex",),
    "rewrite.reduce_cut_s": ("rewrite.reduce_cut",),
    "rewrite.guard_s": ("rewrite.guard.validate", "rewrite.guard.conclusion"),
    "semantics.apply_hom_s": ("semantics.apply_hom",),
    "semantics.force_s": ("semantics.force",),
    "coalgebra.coproduct_s": ("coalgebra.coproduct",),
    "coalgebra.lift_s": ("coalgebra.lift", "coalgebra.set_partitions"),
    "coalgebra.lift_phi_s": ("coalgebra.lift.phi",),
    "coalgebra.merge_split_s": ("coalgebra.merge_split",),
}
#: layer → the self-time metrics that add up to its time
LAYER_SHARES = {
    "cli": ("cli.self_s",),
    "sexpr": ("sexpr.parse_s", "sexpr.print_s"),
    "proof": ("proof.validate_s", "proof.replace_at_s"),
    "rewrite": ("rewrite.find_redex_s", "rewrite.reduce_cut_s"),
    "semantics": ("semantics.apply_hom_s", "semantics.force_s", "coalgebra.lift_phi_s"),
    "coalgebra": ("coalgebra.coproduct_s", "coalgebra.lift_s", "coalgebra.merge_split_s"),
}
NOTES = (
    "closed loop, one client: the next job starts when the previous one ends",
    "no layer waits: the program is single-threaded and has no queue, so no waiting time is reported",
)


def import_linlog():
    """Import linlog from this checkout's src/, or exit with status 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import linlog
    except ImportError as e:
        sys.exit(f"bench: cannot import linlog from {src}: {e}")
    if Path(linlog.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: linlog was imported from {linlog.__file__}, not from {src}")


def calibration_block() -> float:
    """Seconds taken by a fixed piece of interpreter work."""
    t0 = perf_counter()
    x, seen = Fraction(1, 3), {}
    for i in range(300):
        x = (x * Fraction(i + 1, 7) + 1) % 5
        seen[(i, i % 7)] = (i, x)
    total = 0
    for i in range(5000):
        total += i * i % 7
    return perf_counter() - t0


class Run:
    """One measured run: passes of jobs, their latencies and verdicts."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.latencies: list[float] = []  # scaled seconds; failed jobs are inf
        self.pass_rates: list[float] = []  # correct jobs per scaled second, per pass
        self.busy: dict[bool, list[float]] = {False: [], True: []}  # scaled job time per pass, by traced
        self.scales: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # wrong outputs, or failures of jobs expected to work
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0  # over set-up and the first MIN_PASSES passes

    def one_pass(self, index: int, tracer=None) -> float:
        """Run and check one pass; returns its time scale (scaled job
        time ÷ measured job time)."""
        jobs = self.w.pass_jobs(index)
        results = []
        blocks: list[tuple[float, float]] = []  # (when, block seconds)

        def calibrate() -> None:
            blocks.append((perf_counter(), calibration_block()))

        calibrate()
        calibrate()
        for i, job in enumerate(jobs):
            if perf_counter() - blocks[-1][0] >= CALIBRATE_EVERY_S:
                calibrate()
            if tracer is not None:
                tracer.job, tracer.active = i, True
            t0 = perf_counter()
            try:
                out, err = job.run(), None
            except Exception as e:  # a crash of the program under test is a failed job
                out, err = None, e
            seconds = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            results.append((job, out, err, t0, seconds))
        calibrate()
        calibrate()
        whole_pass = statistics.median(b for _t, b in blocks)
        ok_jobs, raw, busy = 0, 0.0, 0.0
        for job, out, err, t0, seconds in results:
            near = [
                b for t, b in blocks
                if t0 - CALIBRATION_WINDOW_S <= t <= t0 + seconds + CALIBRATION_WINDOW_S
            ]
            seconds_scaled = seconds * REFERENCE_S / (statistics.median(near) if len(near) >= 3 else whole_pass)
            raw += seconds
            busy += seconds_scaled
            ok = err is None and self.verdict(job, out)
            self.attempted += 1
            if ok:
                ok_jobs += 1
                self.latencies.append(seconds_scaled)
                continue
            self.failed += 1
            self.latencies.append(math.inf)
            if not job.deep:
                self.wrong += 1
                what = f"raised {type(err).__name__}: {err}" if err else "wrong output"
                self.problems.append(f"{job.key}: {what}")
        self.pass_rates.append(ok_jobs / busy)
        self.busy[tracer is not None].append(busy)
        self.scales.append(busy / raw)
        if len(self.scales) == MIN_PASSES:
            # later passes depend on the host's speed; these do not
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return busy / raw

    def verdict(self, job, out) -> bool:
        try:
            return self.w.check(job.key, out)
        except Exception:  # an unparseable output is a wrong output
            return False

    def e2e(self, setup_s: float) -> dict:
        lat = sorted(self.latencies)

        def pct(q: float) -> float:  # nearest rank; failures rank above every success
            return lat[max(0, math.ceil(q * len(lat)) - 1)] * 1000

        return {
            "jobs_per_s": (statistics.median(self.pass_rates), "jobs/s"),
            "latency_ms.p50": (pct(0.5), "ms"),
            "latency_ms.p90": (pct(0.9), "ms"),
            "ok_frac": ((self.attempted - self.failed) / self.attempted, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def per_layer(passes: list, run: Run, encodings_s: float) -> dict:
    """Per-layer metrics from the traced passes, given as (time scale,
    self times, total times, counts): times are medians over passes,
    counts come from the first traced pass."""

    def median_time(pick) -> float:
        return statistics.median(scale * pick(selfs, total) for scale, selfs, total, _c in passes)

    out = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = (median_time(lambda selfs, _t, names=names: sum(selfs.get(n, 0.0) for n in names)), "s")
    first = passes[0][3]
    for name in COUNTS:
        out[name] = (first.get(name, 0), "count")
    normalize_s = median_time(lambda _s, total: total.get("rewrite.normalize", 0.0))
    out["rewrite.guard_share"] = (
        out["rewrite.guard_s"][0] / normalize_s if normalize_s else 0.0,
        "ratio",
    )
    out["rewrite.steps_per_s"] = (
        first.get("rewrite.steps", 0) / normalize_s if normalize_s else 0.0,
        "1/s",
    )
    calls = first.get("coalgebra.lift_phi_calls", 0)
    out["coalgebra.lift_phi_useful_ratio"] = (
        first.get("coalgebra.lift_phi_distinct", 0) / calls if calls else 0.0,
        "ratio",
    )
    out["semantics.force_incl_s"] = (median_time(lambda _s, total: total.get("semantics.force", 0.0)), "s")
    out["encodings.build_s"] = (encodings_s, "s")
    traced_s, plain_s = (statistics.median(run.busy[k]) for k in (True, False))
    out["trace.pass_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_linlog()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups, blocks = [], [calibration_block()]
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            t0 = perf_counter()
            workload = WORKLOADS[args.workload](args.seed, workdir)
            setups.append(perf_counter() - t0)
            blocks.append(calibration_block())
        setup_scale = REFERENCE_S / statistics.median(blocks)
        setup_s = statistics.median(setups) * setup_scale

        run = Run(workload)
        tracer = tracing.Tracer() if args.trace else None
        traced: list = []
        start = perf_counter()
        index = 0
        while index < MIN_PASSES or perf_counter() - start < args.seconds:
            if tracer is not None and index % 2:
                tracing.install(tracer)
                try:
                    scale = run.one_pass(index, tracer)
                finally:
                    tracer.uninstall()
                traced.append((scale, *tracer.take()))
            else:
                run.one_pass(index)
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass

    if tracer is not None:
        metrics = per_layer(traced, run, workload.encodings_s * setup_scale)
    else:
        metrics = run.e2e(setup_s)
    speed = statistics.median(run.scales)
    print(f"workload {args.workload}, seed {args.seed}: {index} passes, "
          f"{run.attempted} jobs attempted, {run.failed} failed "
          f"(failed_frac {run.failed / run.attempted:.4f})")
    print(f"times are scaled to the reference speed; this run's median scale was "
          f"{speed:.3f} (set-up {setup_scale:.3f}), so unscaled times are the "
          f"reported ones divided by it")
    for note in NOTES:
        print("note:", note)
    for problem in run.problems[:20]:
        print("FAILED:", problem)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    if tracer is not None:
        pass_s = metrics["trace.pass_s"][0]
        shares = ", ".join(
            f"{layer} {sum(metrics[m][0] for m in names) / pass_s:.1%}"
            for layer, names in LAYER_SHARES.items()
        )
        print(f"self time as a share of the traced pass ({pass_s:.3f} s): {shares}")
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
