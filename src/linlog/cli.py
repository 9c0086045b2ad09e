"""Command-line surface: check, normalize, denote, nl, tangent, encode.

Machine output (JSON values or a proof s-expression) goes to stdout;
every diagnostic goes to stderr.  Exit codes: 0 on success, 1 on a
domain error (unparseable or invalid input, failed evaluation, budget
exhaustion, an engine guard failure, input nested too deeply to walk,
a stdout closed by its reader), 2 on a usage error.  Identical inputs
and flags produce byte-identical output: the rewrite strategy is fixed
and nothing is drawn at random.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import SemanticsError
from .encodings import library
from .formula import format_sequent
from .proof import Proof, ProofError, validate
from .rewrite import DEFAULT_MAX_STEPS, RewriteError, normalize
from .sexpr import (
    ParseError,
    format_coords,
    parse_proof,
    parse_value_literal,
    print_proof,
)


class UsageError(Exception):
    pass


# a rule id as json.dumps quotes it, once per id the catalog has
_quoted = functools.cache(json.dumps)


@functools.cache  # one per process: argparse copies --assign's default list before appending
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="linlog",
        description="Proof checking, cut elimination, and exact denotations "
        "for intuitionistic linear logic.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, assign: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("file", help="proof file (.llp s-expression)")
        if assign:
            p.add_argument(
                "--assign",
                action="append",
                default=[],
                metavar="VAR=DIM",
                help="assign a dimension to a base-type variable (repeatable)",
            )
        return p

    command("check", "validate a proof and print its conclusion", assign=False)

    p_norm = command("normalize", "run cut elimination to a normal form", assign=False)
    p_norm.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS, metavar="N")
    p_norm.add_argument(
        "--trace",
        action="store_true",
        help="print one JSON object per rewrite step, once normalization "
        "has ended, before the output proof",
    )

    command("denote", "print the denotation as an exact matrix")

    p_nl = command("nl", "evaluate the nonlinear denotation at a point")
    p_nl.add_argument("--point", required=True, help='e.g. "[[1/1,1/1],[0/1,1/1]]"')

    p_tan = command("tangent", "evaluate the differential at a point")
    p_tan.add_argument("--point", required=True, help="base point matrix")
    p_tan.add_argument("--direction", required=True, help="tangent direction matrix")

    p_enc = sub.add_parser("encode", help="print a library encoding as a proof")
    p_enc.add_argument("name", help="encoding name, e.g. church-2, add, mult-2")
    return top


def _parse_assignment(pairs: list[str]) -> dict[str, int]:
    asg: dict[str, int] = {}
    for item in pairs:
        name, _, dim = item.partition("=")
        try:
            n = int(dim) if name and dim.isdigit() else 0
        except ValueError:  # a digit int() does not read ("²"), or too many
            n = 0
        if n <= 0:
            raise UsageError(f"bad --assign (want VAR=DIM with DIM >= 1): {item!r}")
        asg[name] = n
    return asg


def _load_proof(path: str) -> Proof:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SystemExit(_domain_error(f"cannot read {path}: {e.strerror}"))
    except UnicodeDecodeError as e:
        raise SystemExit(_domain_error(f"cannot read {path}: not UTF-8 ({e.reason})"))
    p = parse_proof(text)
    problems = validate(p)
    if problems:
        where, msg = problems[0]
        raise SystemExit(_domain_error(f"invalid proof at node {list(where)}: {msg}"))
    return p


def _domain_error(msg: str) -> int:
    print(f"linlog: {msg}", file=sys.stderr)
    return 1


def _parse_point(text: str) -> object:
    try:
        return parse_value_literal(text).rows
    except ValueError as e:
        raise UsageError(f"bad point literal {text!r}: {e}") from None


def _cmd_check(args: argparse.Namespace) -> int:
    p = _load_proof(args.file)
    print(json.dumps(format_sequent(p.conclusion), ensure_ascii=False))
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    if args.max_steps < 0:
        raise UsageError(f"--max-steps must be at least 0, got {args.max_steps}")
    p = _load_proof(args.file)
    res = normalize(p, max_steps=args.max_steps)
    if args.trace:
        # each line is json.dumps of the step's sexpr.step_json, one write each
        write = sys.stdout.write
        for s in res.trace.steps:
            write(f'{{"rule": {_quoted(s.rule_id)}, "path": {list(s.path)}, '
                  f'"sizes": [{s.size_before}, {s.size_after}]}}\n')
    if res.exhausted:
        return _domain_error(
            f"normalization ran out of budget after {args.max_steps} steps"
        )
    print(print_proof(res.proof))
    return 0


# The evaluator is imported by the commands that use it only, so that
# check, normalize and encode start without it.


def _cmd_denote(args: argparse.Namespace) -> int:
    from .semantics import den_matrix

    asg = _parse_assignment(args.assign)
    p = _load_proof(args.file)
    print(json.dumps(format_coords(den_matrix(p, asg))))
    return 0


def _cmd_nonlinear(args: argparse.Namespace) -> int:
    """``nl`` at the point, or ``tangent`` at the point in the direction."""
    from .semantics import nl, tangent, value_literal

    asg = _parse_assignment(args.assign)
    p = _load_proof(args.file)
    point = _parse_point(args.point)
    if args.command == "tangent":
        out = tangent(p, point, _parse_point(args.direction), asg)
    else:
        out = nl(p, point, asg)
    print(json.dumps(value_literal(out)))
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    lib = library()
    if args.name not in lib:
        return _domain_error(
            f"unknown encoding {args.name!r}; available: {', '.join(sorted(lib))}"
        )
    print(print_proof(lib[args.name]))
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "normalize": _cmd_normalize,
    "denote": _cmd_denote,
    "nl": _cmd_nonlinear,
    "tangent": _cmd_nonlinear,
    "encode": _cmd_encode,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except UsageError as e:
        parser.error(str(e))  # the exit: error raises SystemExit(2) itself
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 1
    except BrokenPipeError:
        # the reader is gone: drop what is still buffered, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, ProofError, RewriteError, SemanticsError) as e:
        return _domain_error(str(e))
    except RecursionError:
        return _domain_error("input is nested too deeply (maximum recursion depth exceeded)")


if __name__ == "__main__":
    sys.exit(main())
