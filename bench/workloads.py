"""The four workloads: their inputs, their jobs and their checks.

Every workload draws its inputs from the seed and is cut into passes:
a pass is a fixed mix of jobs, so a run of whole passes always has the
same shape and its percentiles fall on the same kind of job.  A job
calls linlog only through its public entry points, looked up on the
module at call time so that the traced run sees the calls.  Each output
is checked after its pass against a reference from ``oracle``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import linlog.cli as cli
import linlog.encodings as encodings
import linlog.proof as proof
import linlog.rewrite as rewrite
import linlog.semantics as semantics
import linlog.sexpr as sexpr
from linlog.coalgebra import BangElem, BaseSp, HomSp
from linlog.formula import Var

import oracle

#: Names the seed picks the base type from ("x" is the binder of ∀-numerals).
ATOMS = ("A", "B", "C", "P", "Q", "R")


class Job:
    """One unit of work: ``run()`` returns an output for ``check``."""

    __slots__ = ("key", "run", "deep")

    def __init__(self, key, run, deep: bool = False) -> None:
        self.key = key
        self.run = run
        self.deep = deep  # past the recursion limits: failing is the known defect


def ket_value(p, x: BangElem, space, asg) -> tuple[Fraction, ...]:
    """⟦p⟧ of a closed numeral applied to the ket x, as flat matrix entries."""
    h = semantics.den_apply(p, semantics.Scalar(Fraction(1)), asg)
    out = semantics.force(semantics.apply_hom(h, semantics.BangVal(x)), space)
    return tuple(c for row in out.rows for c in row)


def expected_value(k: int, x: BangElem) -> tuple[Fraction, ...]:
    """The oracle's value of the numeral k at the ket x over 2×2 matrices."""
    ((base, args), _c), = x.terms
    alpha = (base[0:2], base[2:4])
    rows = oracle.ket_coefficient(k, alpha, [oracle.unit_matrix(2, i) for i in args])
    return tuple(c for row in rows for c in row)


def base_point(rng: random.Random) -> tuple[Fraction, ...]:
    """A seeded 2×2 matrix, rows first, with no zero entry: a zero entry
    lets the evaluator prune whole branches, which would make the cost
    of a pass depend on the seed."""
    return tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(4))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """Inputs built by the constructor (the timed set-up); jobs per pass."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.encodings_s = 0.0
        rng = random.Random(f"{type(self).__name__}:{seed}")
        self.atom = Var(rng.choice(ATOMS))
        self.build(rng)

    def encode(self, fn, *args):
        """Call an encodings constructor, adding its time to ``encodings_s``."""
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.encodings_s += perf_counter() - t0

    def write(self, name: str, p) -> str:
        path = self.workdir / f"{name}.llp"
        path.write_text(oracle.print_llp(p), encoding="utf-8")
        return str(path)

    def pass_jobs(self, index: int) -> list[Job]:
        jobs = self.jobs(index)
        random.Random(f"order:{self.seed}:{index}").shuffle(jobs)
        return jobs

    def warmup(self) -> None:
        """Run the cheapest job once, so first-call costs are set-up."""
        job = self.jobs(-1)[0]
        self.check(job.key, job.run())


# ---------------------------------------------------------------------------
# normalize: `linlog normalize FILE --trace` on cuts


class Normalize(Workload):
    """The rewrite loop and its kernel guard do nearly all the work.

    The check pins the step count, chains the sizes in the trace, and
    requires the printed proof to be canonical and cut-free.  A
    ∀-numeral must equal church2(e) after exchange normalization.  Other
    normal forms are compared by value, on a vacuum and a one-argument
    ket at a seeded point, with the oracle's α^k: add_cut(2, 5) contracts
    its hypotheses 2 | 5 where church(7) halves them 4 | 3, so equality
    with church(k) up to exchanges holds only on part of the grid.

    A pass is the whole exp_cut(2, 1..5) and hypexp_cut(0..3) ladder,
    with exp_cut(2, 4) twice, plus sixteen grid cuts.  With 26 jobs per
    pass the 90th percentile always lands among the exp_cut(2, 4) jobs:
    exp_cut(2, 5) and hypexp_cut(3) are the two slower ones, and two
    exp_cut(2, 4) per pass give the percentile twice the samples.
    exp_cut(2, 6) (713 steps, several seconds) is left out of the timed
    mix; the smoke test checks its step count.
    """

    GRID = (
        ("add", 1, 1), ("add", 2, 2), ("add", 3, 3), ("add", 2, 5),
        ("add", 5, 2), ("add", 4, 3), ("add", 1, 6), ("add", 6, 1),
        ("mult", 1, 1), ("mult", 2, 2), ("mult", 1, 4), ("mult", 4, 1),
        ("mult", 2, 3), ("mult", 3, 2), ("mult", 3, 3), ("mult", 2, 5),
    )
    TOWERS = (
        ("exp", 2, 1), ("exp", 2, 2), ("exp", 2, 3), ("exp", 2, 4), ("exp", 2, 4), ("exp", 2, 5),
        ("hypexp", 0, 0), ("hypexp", 0, 1), ("hypexp", 0, 2), ("hypexp", 0, 3),
    )

    def build(self, rng: random.Random) -> None:
        a = self.atom
        makers = {
            "add": lambda m, n: self.encode(encodings.add_cut, m, n, a),
            "mult": lambda m, n: self.encode(encodings.mult_cut, m, n, a),
            "exp": lambda m, n: self.encode(encodings.exp_cut, m, n, a),
            "hypexp": lambda m, n: self.encode(encodings.hypexp_cut, n),
        }
        tower = [1, 2, 4, 16]
        self.inputs = {}
        for kind, m, n in dict.fromkeys(self.TOWERS + self.GRID):
            p = makers[kind](m, n)
            if kind == "hypexp":
                expected = self.encode(encodings.church2, tower[n])
            else:
                expected = {"add": m + n, "mult": m * n, "exp": m**n}[kind]
            path = self.write(f"{kind}-{m}-{n}", p)
            self.inputs[(kind, m, n)] = (path, oracle.proof_size(p), expected)
        self.space = HomSp(BaseSp(a.name, 2), BaseSp(a.name, 2))
        base = base_point(rng)
        self.kets = [
            BangElem(self.space, (((base, args), Fraction(1)),)) for args in ((), (rng.randrange(4),))
        ]
        self.verified: dict = {}
        self.warmup()

    def jobs(self, index: int) -> list[Job]:
        keys = [("hypexp", 0, 0)] if index < 0 else list(self.TOWERS + self.GRID)
        return [self._job(key) for key in keys]

    def _job(self, key) -> Job:
        path = self.inputs[key][0]
        return Job(key, lambda: _run_cli(["normalize", path, "--trace"]))

    def check(self, key, output) -> bool:
        if self.verified.get(key) == output:
            return True
        code, text = output
        if code != 0:
            return False
        _path, size, expected = self.inputs[key]
        lines = text.split("\n")
        n = sum(line.startswith("{") for line in lines)
        if n != oracle.NORMALIZE_STEPS[key]:
            return False
        steps = [json.loads(line) for line in lines[:n]]
        before = [s["sizes"][0] for s in steps]
        after = [s["sizes"][1] for s in steps]
        # each step starts at the size the previous one ended at
        if before[0] != size or before[1:] != after[:-1]:
            return False
        printed = "\n".join(lines[n:])
        got = sexpr.parse_proof(printed)
        if printed != oracle.print_llp(got) + "\n" or oracle.proof_size(got) != after[-1]:
            return False
        if not oracle.is_cut_free(got):
            return False
        if key[0] == "hypexp":
            ok = proof.proof_eq(rewrite.exchange_normalize(got), expected)
        else:
            asg = {self.atom.name: 2}
            ok = all(
                ket_value(got, x, self.space, asg) == expected_value(expected, x)
                for x in self.kets
            )
        if ok:
            self.verified[key] = output
        return ok


# ---------------------------------------------------------------------------
# probe and lift: a numeral's denotation applied to one ket, forced to a matrix


class _KetWorkload(Workload):
    def build(self, rng: random.Random) -> None:
        a = self.atom.name
        self.asg = {a: 2}
        self.space = HomSp(BaseSp(a, 2), BaseSp(a, 2))
        self.proofs = self.build_proofs()  # [(label, proof, k)]
        self.expected: dict = {}
        self.warmup()

    def jobs(self, index: int) -> list[Job]:
        kets = self.kets(index)
        if index < 0:
            return [self._job(self.proofs[0], kets[0])]
        return [self._job(entry, x) for entry in self.proofs for x in kets]

    def _job(self, entry, x: BangElem) -> Job:
        label, p, k = entry
        space, asg = self.space, self.asg
        return Job((label, k, x), lambda: ket_value(p, x, space, asg))

    def check(self, key, output) -> bool:
        _label, k, x = key
        if (k, x) not in self.expected:
            self.expected[(k, x)] = expected_value(k, x)
        return output == self.expected[(k, x)]

    def kets(self, index: int) -> list[BangElem]:
        """The pass's kets, each at its own base point, so that a pass
        averages over many points."""
        rng = random.Random(f"points:{self.seed}:{index}")
        return [
            BangElem(self.space, (((base_point(rng), args), Fraction(1)),)) for args in self.ARGS
        ]


class Probe(_KetWorkload):
    """Cut-free numerals on probe kets: `force`, `den_formula`,
    `apply_hom` and `coproduct` do the work; promotion never runs.

    A pass is every proof against the fifteen kets of depth ≤ 2 that
    `standard_probes` builds over a base point (every multiset of at
    most two basis arguments), at fresh seeded base points every pass,
    so every pass meets the evaluator's caches as cold as the first.
    """

    ARGS = tuple(
        args for s in range(3) for args in itertools.combinations_with_replacement(range(4), s)
    )

    GRID = (("add", 2, 3), ("mult", 2, 3), ("add", 3, 4), ("mult", 2, 4), ("mult", 3, 3))

    def build_proofs(self):
        a = self.atom
        out = [(f"church-{k}", self.encode(encodings.church, k, a), k) for k in range(13)]
        for kind, m, n in self.GRID:
            maker = encodings.add_cut if kind == "add" else encodings.mult_cut
            cut = self.encode(maker, m, n, a)
            out.append((f"{kind}-{m}-{n}", rewrite.normalize(cut).proof, m + n if kind == "add" else m * n))
        return out


class Lift(_KetWorkload):
    """Unnormalized mult_cut(m, n) on kets with 3 or 4 arguments: the
    only workload where promotion runs, so `coalgebra.lift` and its
    set-partition sum dominate.  The reference is the same oracle as
    `probe` at k = m·n, since cut elimination preserves denotations.
    """

    CUTS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2))
    ARGS = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 2, 3), (0, 0, 1, 2), (1, 2, 3, 3))

    def build_proofs(self):
        a = self.atom
        return [
            (f"mult-{m}-{n}", self.encode(encodings.mult_cut, m, n, a), m * n)
            for m, n in self.CUTS
        ]


# ---------------------------------------------------------------------------
# syntax: `linlog check FILE` and `print_proof` on church(n)


class Syntax(Workload):
    """The text format and the kernel: `sexpr` and `proof.validate` do
    nearly all the work.  A pass reads and writes sixteen numerals with
    n from 10 to 70 plus one deep numeral (n ≥ 420) that is past the
    recursion limits of both the parser and the printer, so 1 job in 17
    fails until the walkers stop recursing.
    """

    LADDER = tuple(range(10, 71, 4))

    def build(self, rng: random.Random) -> None:
        a = self.atom.name
        numeral = f"!({a} -o {a}) -o ({a} -o {a})"
        self.conclusion = json.dumps(f"⊢ {numeral}", ensure_ascii=False) + "\n"
        sizes = [n + rng.randrange(2) for n in self.LADDER]
        deep = 420 + rng.randrange(5)
        self.inputs = {}  # n → (proof, path, text)
        for n in sizes + [deep]:
            p = self.encode(encodings.church, n, self.atom)
            path = self.write(f"church-{n}", p)
            self.inputs[n] = (p, path, Path(path).read_text(encoding="utf-8"))
        self.deep = deep
        self.warmup()

    def jobs(self, index: int) -> list[Job]:
        sizes = list(self.inputs)
        return [self._job(n) for n in (sizes[:1] if index < 0 else sizes)]

    def _job(self, n: int) -> Job:
        p, path, _text = self.inputs[n]

        def run():
            code, out = _run_cli(["check", path])
            return code, out, sexpr.print_proof(p)

        return Job(n, run, deep=n == self.deep)

    def check(self, key, output) -> bool:
        code, out, printed = output
        return code == 0 and out == self.conclusion and printed == self.inputs[key][2]


WORKLOADS = {"normalize": Normalize, "probe": Probe, "lift": Lift, "syntax": Syntax}
