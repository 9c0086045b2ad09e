#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on a tiny seed.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json briefly, untraced once and traced
twice with the same seed, and checks that:

* every end-to-end and per-layer metric appears with its unit;
* every run is correct, and no job fails on normalize, probe and lift;
* every count-type per-layer metric repeats exactly across the two
  traced runs;
* the traced runs separate the layers: rewrite work only on normalize,
  lift work only on lift, and sexpr plus proof self time making up most
  of the syntax pass;
* the strategy's step counts on exp_cut(2, 1..6) and hypexp_cut(0..3)
  are the pinned ones (this also covers exp_cut(2, 6), which is too
  slow for the timed normalize mix).

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
NO_FAILURES = ("normalize", "probe", "lift")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for w in (entry["name"] for entry in spec["workloads"]):
        plain, traced, again = run(w, 0), run(w, 1), run(w, 1)
        for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            expect(got == want, f"{w}: {kind} metrics and units are the declared ones")
        for result in (plain, traced, again):
            expect(result["correct"], f"{w}: every output matches its reference")
        if w in NO_FAILURES:
            expect(plain["failed"] == 0, f"{w}: failed_frac is 0 ({plain['failed']}/{plain['attempted']})")
        else:
            expect(0 < plain["failed"] < plain["attempted"] / 10,
                   f"{w}: deep inputs fail, under a tenth ({plain['failed']}/{plain['attempted']})")
        m1, m2 = traced["metrics"], again["metrics"]
        counts = [k for k, v in m1.items() if v["unit"] == "count"]
        differ = [k for k in counts if m1[k]["value"] != m2[k]["value"]]
        expect(not differ, f"{w}: {len(counts)} counts repeat across traced runs {differ}")

        def value(name: str) -> float:
            return m1[name]["value"]

        rewrite_work = value("rewrite.steps") + value("rewrite.find_redex_s")
        expect((rewrite_work > 0) == (w == "normalize"), f"{w}: rewrite.* non-zero only on normalize")
        lift_work = value("coalgebra.lift_calls") + value("coalgebra.lift_s")
        expect((lift_work > 0) == (w == "lift"), f"{w}: coalgebra.lift_* non-zero only on lift")
        if w == "syntax":
            share = sum(value(k) for k in ("sexpr.parse_s", "sexpr.print_s", "proof.validate_s"))
            share /= value("trace.pass_s")
            expect(share > 0.5, f"syntax: sexpr and proof self time is {share:.0%} of the pass")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from linlog.encodings import exp_cut, hypexp_cut
    from linlog.formula import Var
    from linlog.rewrite import normalize

    from oracle import NORMALIZE_STEPS

    for (kind, m, n), steps in NORMALIZE_STEPS.items():
        if kind in ("exp", "hypexp"):
            p = exp_cut(m, n, Var("A")) if kind == "exp" else hypexp_cut(n)
            got = len(normalize(p).trace.steps)
            expect(got == steps, f"{kind} n={n}: {got} steps, pinned {steps}")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
