"""The benchmark's tracer against the names it wraps.

`bench/tracing.py` replaces linlog functions by wrappers at the module
attributes their callers look them up under, so renaming or reshaping
one of those names silently takes a metric away.  This runs one
promotion, one `linlog normalize --trace` and one `linlog check`
through the installed tracer and checks that the wrapped names are
still the ones the evaluator, the rewrite engine and the CLI call.
"""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

from linlog import cli
from linlog.coalgebra import BangElem, BaseSp, HomSp
from linlog.encodings import church, mult_cut
from linlog.formula import Var
from linlog.semantics import BangVal, Scalar, apply_hom, den_apply, force
from linlog.sexpr import print_proof

A = Var("A")
ASG = {"A": 2}
E_SPACE = HomSp(BaseSp("A", 2), BaseSp("A", 2))


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lift_job():
    """A `lift` workload job: mult_cut(2, 1) on a three-argument ket."""
    h = den_apply(mult_cut(2, 1, A), Scalar(Fraction(1)), ASG)
    x = BangElem(E_SPACE, ((((1, 2, -1, 3), (0, 1, 3)), 1),))
    return force(apply_hom(h, BangVal(x)), E_SPACE)


def _traced(job):
    """(tracer, result) of ``job()`` run under the installed bench tracer;
    checks that uninstalling puts back every attribute it patched."""
    tracing = _load_tracing()
    t = tracing.Tracer()
    tracing.install(t)
    patched = list(t._patched)
    try:
        t.active = True
        got = job()
    finally:
        t.active = False
        t.uninstall()
    assert patched and all(getattr(m, attr) is fn for m, attr, fn in patched)
    return t, got


def test_the_bench_tracer_still_wraps_merge_split_and_lift():
    want = _lift_job()
    t, got = _traced(_lift_job)
    assert got == want
    # one lift, φ once per distinct block of three distinct arguments
    # (2³ with the vacuum), and one merge plus one split per φ call
    assert t.counts["coalgebra.lift_calls"] == 1
    assert t.counts["coalgebra.lift_phi_calls"] == 8
    assert [span[0] for span in t.spans].count("coalgebra.merge_split") == 9


def test_the_bench_tracer_still_wraps_the_normalize_job(tmp_path, capsys):
    f = tmp_path / "mult2x2.llp"
    f.write_text(print_proof(mult_cut(2, 2, A)) + "\n")
    # through the module attribute, which the tracer wraps too
    t, code = _traced(lambda: cli.main(["normalize", "--trace", str(f)]))
    assert code == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
    assert t.counts["rewrite.steps"] == len(printed) == 27
    names = [span[0] for span in t.spans]
    assert names.count("cli") == names.count("rewrite.normalize") == 1
    # one catalog call per step; the CLI and normalize validate the input once each
    assert names.count("rewrite.reduce_cut") == len(printed)
    assert names.count("proof.validate") == names.count("rewrite.guard.validate") == 1


def test_the_bench_tracer_still_wraps_the_check_job(tmp_path, capsys):
    f = tmp_path / "church7.llp"
    f.write_text(print_proof(church(7, A)) + "\n")
    t, code = _traced(lambda: cli.main(["check", str(f)]))
    assert code == 0
    assert json.loads(capsys.readouterr().out) == "⊢ !(A -o A) -o (A -o A)"
    assert t.counts["sexpr.parse_bytes"] == f.stat().st_size
    names = [span[0] for span in t.spans]
    assert names.count("cli") == names.count("sexpr.parse") == names.count("proof.validate") == 1
