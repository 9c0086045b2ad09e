"""The benchmark's tracer against the names it wraps.

`bench/tracing.py` replaces linlog functions by wrappers at the module
attributes their callers look them up under, so renaming or reshaping
one of those names silently takes a metric away.  This runs one
promotion through the installed tracer and checks that the wrapped
names are still the ones the evaluator calls.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

from linlog.coalgebra import BangElem, BaseSp, HomSp
from linlog.encodings import mult_cut
from linlog.formula import Var
from linlog.semantics import BangVal, Scalar, apply_hom, den_apply, force

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


def test_the_bench_tracer_still_wraps_merge_split_and_lift():
    tracing = _load_tracing()
    want = _lift_job()
    t = tracing.Tracer()
    tracing.install(t)
    patched = list(t._patched)
    try:
        t.active = True
        got = _lift_job()
    finally:
        t.active = False
        t.uninstall()
    assert patched and all(getattr(m, attr) is fn for m, attr, fn in patched)
    assert got == want
    # one lift, φ once per distinct block of three distinct arguments
    # (2³ with the vacuum), and one merge plus one split per φ call
    assert t.counts["coalgebra.lift_calls"] == 1
    assert t.counts["coalgebra.lift_phi_calls"] == 8
    assert [span[0] for span in t.spans].count("coalgebra.merge_split") == 9
