"""The CLI's answers on a fixed grid of commands, for diffing two checkouts.

    python3 tools/cli_grid.py > grid.json

Run from the root of a checkout; linlog is imported from ``src/`` there
and nowhere else.  The script writes a fixed set of proofs to a
temporary directory and runs ``linlog.cli.main`` on each command of the
grid, in this one process.  It prints one JSON document: a list of
records of argv, exit code, stdout and stderr, with the temporary
directory written ``<tmp>``.  Two checkouts answer alike when their
documents are byte-identical.

The grid: every ``linlog encode`` entry, the dereliction ``(der 0 (ax
A))``, the numeral 2 under a weakening of ``!A``, and a cut on a
quantified formula; ``check`` on each; ``denote``, ``nl`` and
``tangent`` on each at A = 1 and 2, over `POINTS` and `DIRECTIONS`;
``denote`` on each at A = 3; ``nl`` and ``tangent`` on the numerals 2, 3
and 4 at A = 3, 4 and 8, over `dense_matrix` points and directions, so
that matrices larger than 2×2 and with no zero entry meet vectors with
none;
``normalize --trace`` on the exponentiation cuts 2^1 … 2^5, the tower
cuts ``hypexp_cut(0..3)``, the sixteen add/mult cuts of `GRID_CUTS`
and `ROOT_REDEX`; ``check`` on the numeral 421, about 840 rules deep;
``nl`` on the numeral 400 at A = 2, one evaluation about 800 rules deep;
``check`` on each of the `MALFORMED` texts; and ``check``, and
``denote`` at A = 1, 2 and 3, on each of the `ABSTRACTIONS`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from linlog import cli  # noqa: E402
from linlog.encodings import add_cut, church, exp_cut, hypexp_cut, library, mult_cut  # noqa: E402
from linlog.formula import Var  # noqa: E402
from linlog.sexpr import print_proof  # noqa: E402

#: Point literals: well-formed vectors and matrices of several shapes and
#: dimensions, so that each proof meets a right one, a wrong shape and a
#: wrong dimension, and malformed ones.
POINTS = (
    "[1]",
    "[1,2]",
    "[1/2,-3]",
    "[[2]]",
    "[[1,1],[0,1]]",
    "[[1/2,0],[3,-1]]",
    "[[1,2,3],[4,5,6]]",
    "[[1,2],[3]]",
    "[1,2,3,4]",
    "7",
    "[[1,1],[0,1]",
    "x",
)
#: Tangent directions, taken at every point.
DIRECTIONS = ("[1]", "[1,0]", "[[1]]", "[[0,0],[1,0]]", "[0,1")

#: The dimensions at which the numerals meet dense points and directions.
DENSE_DIMS = (3, 4, 8)


def dense_matrix(n: int, shift: int) -> str:
    """An n by n matrix literal with no zero entry: integers from -3 to
    3, and a fraction where the pattern puts a zero."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            v = (i * n + j + shift) % 7 - 3
            row.append(str(v) if v else f"-1/{i + 2}")
        rows.append("[" + ",".join(row) + "]")
    return "[" + ",".join(rows) + "]"


#: A cut whose cut formula is quantified: it checks, and has no denotation.
SECOND_ORDER_CUT = (
    "(cut 0 (lolli-r (ax (all x. x -o x))) (lolli-l 0 (all-r x (lolli-r (ax x)))"
    " (all-l 0 (all x. x -o x) A (ax (A -o A)))))"
)


#: The add/mult cuts the normalize benchmark runs, as (encoding, m, n).
GRID_CUTS = (
    (add_cut, 1, 1), (add_cut, 2, 2), (add_cut, 3, 3), (add_cut, 2, 5),
    (add_cut, 5, 2), (add_cut, 4, 3), (add_cut, 1, 6), (add_cut, 6, 1),
    (mult_cut, 1, 1), (mult_cut, 2, 2), (mult_cut, 1, 4), (mult_cut, 4, 1),
    (mult_cut, 2, 3), (mult_cut, 3, 2), (mult_cut, 3, 3), (mult_cut, 2, 5),
)

#: A cut whose one step, ax-left, is at the root: the trace's empty path.
ROOT_REDEX = "(cut 0 (ax A) (ax A))"

#: Malformed proof texts, for ``check``'s error paths, written as they
#: are here: a stray ASCII character; a stray non-ASCII one after a
#: comment with more, so that byte spans differ from character offsets;
#: an unknown keyword; an unclosed parenthesis; a context index too long
#: for ``int``; a grammar error before a stray character; a comment that
#: runs to the end of the file; the keyword ``ax`` as a formula; a
#: hyphenated keyword with a letter too many; an empty file; and two
#: texts that parse but do not validate: an all-r whose binder is free
#: in its hypothesis, and an all-r over the name ``all``.
MALFORMED = {
    "stray-ascii.llp": "(lolli-r (ax A) $)\n",
    "stray-non-ascii.llp": "; ⊢ A ⊸ A\n(lolli-r (ax A) ⊗)\n",
    "unknown-keyword.llp": "(lolli-r (axiom A))\n",
    "unclosed.llp": "(lolli-r (ax A)\n",
    "long-index.llp": f"(der {'9' * 5000} (ax !A))\n",
    "grammar-before-bad.llp": "(ax A B) $\n",
    "open-comment.llp": "(lolli-r (ax A) ; no newline",
    "ax-ax.llp": "(ax ax)\n",
    "lolli-rx.llp": "(lolli-rx (ax A))\n",
    "empty.llp": "",
    "all-r-free-binder.llp": "(all-r A (ax A))\n",
    "all-r-all.llp": "(all-r all (lolli-r (ax A)))\n",
}


#: Abstractions whose argument is a tensor (split by tensor-l), the unit
#: (taken by one-l), a hom space, and a hom space whose values are
#: abstractions themselves: ``denote`` materializes each.
ABSTRACTIONS = {
    "tensor-arg.llp": "(lolli-r (tensor-l 0 (ex 0 (tensor-r (ax A) (ax A)))))",
    "unit-arg.llp": "(lolli-r (one-l 0 (ax A)))",
    "hom-arg.llp": "(lolli-r (lolli-r (lolli-l 0 (ax A) (ax A))))",
    "nested-hom-arg.llp": (
        "(lolli-r (lolli-r (lolli-r (lolli-l 0 (lolli-l 0 (ax A) (ax A)) (ax A)))))"
    ),
}


def proofs() -> dict[str, str]:
    """The grid's proofs as text, by file name."""
    lib = library()
    out = {f"{name}.llp": print_proof(p) for name, p in lib.items()}
    out["der-ax.llp"] = "(der 0 (ax A))"
    out["weak-church-2.llp"] = f"(weak 0 !A {print_proof(lib['church-2'])})"
    out["second-order-cut.llp"] = SECOND_ORDER_CUT
    return out


def commands(files: list[str]) -> list[list[str]]:
    """The grid's argument lists, over proof files ``files``."""
    grid = [["check", f] for f in files]
    for f in files:
        for dim in ("1", "2"):
            asg = ["--assign", f"A={dim}"]
            grid.append(["denote", f, *asg])
            for point in POINTS:
                grid.append(["nl", f, *asg, "--point", point])
                for direction in DIRECTIONS:
                    grid.append(["tangent", f, *asg, "--point", point, "--direction", direction])
    grid += [["denote", f, "--assign", "A=3"] for f in files]
    numerals = ("church-2.llp", "church-3.llp", "church-4.llp")
    for f in [f for f in files if os.path.basename(f) in numerals]:
        for dim in DENSE_DIMS:
            asg = ["--assign", f"A={dim}"]
            for point in (dense_matrix(dim, 0), dense_matrix(dim, 3)):
                grid.append(["nl", f, *asg, "--point", point])
                for direction in (dense_matrix(dim, 1), dense_matrix(dim, 5)):
                    grid.append(["tangent", f, *asg, "--point", point, "--direction", direction])
    return grid


def run(argv: list[str]) -> tuple[int, str, str]:
    """``linlog argv`` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # a usage error exits from argparse
            code = e.code
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:

        def save(name: str, text: str, end: str = "\n") -> str:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + end)
            return path

        files = [save(name, text) for name, text in proofs().items()]
        a = Var("A")
        cuts = [save(f"exp-cut-2-{n}.llp", print_proof(exp_cut(2, n, a))) for n in range(1, 6)]
        cuts += [save(f"hypexp-cut-{n}.llp", print_proof(hypexp_cut(n))) for n in range(4)]
        cuts += [
            save(f"{f.__name__}-{m}-{n}.llp", print_proof(f(m, n, a))) for f, m, n in GRID_CUTS
        ]
        cuts.append(save("root-redex.llp", ROOT_REDEX))
        deep = save("church-421.llp", print_proof(church(421, a)))
        grid = commands(files) + [["normalize", f, "--trace"] for f in cuts] + [["check", deep]]
        deep = save("church-400.llp", print_proof(church(400, a)))
        grid.append(["nl", deep, "--assign", "A=2", "--point", "[[1,1],[0,1]]"])
        grid += [["check", save(name, text, end="")] for name, text in MALFORMED.items()]
        for f in [save(name, text) for name, text in ABSTRACTIONS.items()]:
            grid.append(["check", f])
            grid += [["denote", f, "--assign", f"A={dim}"] for dim in (1, 2, 3)]
        records = []
        for argv in grid:
            code, out, err = run(argv)
            records.append(
                {
                    "argv": [a.replace(tmp, "<tmp>") for a in argv],
                    "code": code,
                    "stdout": out.replace(tmp, "<tmp>"),
                    "stderr": err.replace(tmp, "<tmp>"),
                }
            )
    json.dump(records, sys.stdout, indent=1, ensure_ascii=False)
    print()


if __name__ == "__main__":
    main()
