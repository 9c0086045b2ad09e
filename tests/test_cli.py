"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _kernelref
from linlog import cli, proof, rewrite
from linlog.cli import main
from linlog.encodings import (
    add_cut,
    church,
    church2,
    comp,
    exp_cut,
    hypexp_cut,
    library,
    mult_cut,
    plain_body,
)
from linlog.formula import INT, Var, int_type
from linlog.proof import mk_axiom, mk_cut, mk_forall_l, proof_eq, validate
from linlog.rewrite import RewriteError, is_cut_free, normalize
from linlog.sexpr import parse_proof, print_proof, step_json

A = Var("A")


def _run(argv, **env):
    """`linlog ARGV` in a fresh interpreter; linlog comes from this tree."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return subprocess.run(
        [sys.executable, "-m", "linlog.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src, **env},
    )


@pytest.fixture
def church2_file(tmp_path):
    f = tmp_path / "church2.llp"
    f.write_text(print_proof(church(2, A)) + "\n")
    return str(f)


@pytest.fixture
def mult2x2_file(tmp_path):
    f = tmp_path / "mult2x2.llp"
    f.write_text(print_proof(mult_cut(2, 2, A)) + "\n")
    return str(f)


def test_proof_commands_start_without_the_evaluator(church2_file):
    # one fresh interpreter runs check, normalize and encode, and then has
    # imported neither the evaluator nor the coalgebra behind it
    script = (
        "import sys; from linlog import cli\n"
        f"codes = [cli.main(argv) for argv in (['check', {church2_file!r}], "
        f"['normalize', {church2_file!r}], ['encode', 'church-2'])]\n"
        "print(codes, [m for m in ('linlog.semantics', 'linlog.coalgebra') if m in sys.modules])"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_the_cli_starts_without_dataclasses_or_fractions(church2_file):
    # the proof commands read no rational, and neither the CLI nor the
    # evaluator builds a dataclass, so neither module is imported
    script = (
        "import sys; from linlog import cli\n"
        f"codes = [cli.main(argv) for argv in (['check', {church2_file!r}], "
        f"['normalize', {church2_file!r}], ['encode', 'church-2'])]\n"
        "print(codes, [m for m in ('fractions', 'decimal') if m in sys.modules])\n"
        "import linlog.semantics\n"
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == ["[0, 0, 0] []", "[]"]


def test_check_prints_the_conclusion_as_json(church2_file, capsys):
    assert main(["check", church2_file]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == "⊢ !(A -o A) -o (A -o A)"


def test_check_rejects_an_invalid_proof(tmp_path, capsys):
    f = tmp_path / "bad.llp"
    f.write_text("(cut 0 (ax A) (ax B))\n")
    assert main(["check", str(f)]) == 1
    err = capsys.readouterr()
    assert err.out == ""
    assert "invalid proof" in err.err


def test_check_reports_parse_errors(tmp_path, capsys):
    f = tmp_path / "trunc.llp"
    for text, message in (
        ("(ax A", "found end of input"),
        ("(ex " + "9" * 5000 + " (ax A))", "context index too long"),
    ):
        f.write_text(text)
        assert main(["check", str(f)]) == 1
        assert message in capsys.readouterr().err


def test_check_reports_missing_files(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nowhere.llp")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_normalize_emits_a_cut_free_proof(mult2x2_file, capsys):
    assert main(["normalize", mult2x2_file]) == 0
    out = capsys.readouterr().out
    result = parse_proof(out)
    assert is_cut_free(result)
    assert proof_eq(parse_proof(print_proof(result)), result)


def test_normalize_trace_streams_step_objects(mult2x2_file, capsys):
    assert main(["normalize", mult2x2_file, "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    steps = []
    while lines and lines[0].startswith("{"):
        steps.append(json.loads(lines.pop(0)))
    assert [s["rule"] for s in steps[:2]] == ["lolli-r-commute", "lolli-l-principal"]
    for prev, nxt in zip(steps, steps[1:]):
        assert prev["sizes"][1] == nxt["sizes"][0]
    assert set(steps[0]) == {"rule", "path", "sizes"}
    # what remains is the proof itself
    assert is_cut_free(parse_proof("\n".join(lines)))


#: The add/mult grid cuts the normalize benchmark runs, as (encoding, m, n).
_TRACE_GRID = (
    (add_cut, 1, 1), (add_cut, 2, 2), (add_cut, 3, 3), (add_cut, 2, 5),
    (add_cut, 5, 2), (add_cut, 4, 3), (add_cut, 1, 6), (add_cut, 6, 1),
    (mult_cut, 1, 1), (mult_cut, 2, 2), (mult_cut, 1, 4), (mult_cut, 4, 1),
    (mult_cut, 2, 3), (mult_cut, 3, 2), (mult_cut, 3, 3), (mult_cut, 2, 5),
)
_TRACE_INPUTS = {
    **{f"exp-2-{n}": print_proof(exp_cut(2, n, A)) for n in range(1, 6)},
    **{f"hypexp-{n}": print_proof(hypexp_cut(n)) for n in range(4)},
    **{f"{f.__name__}-{m}-{n}": print_proof(f(m, n, A)) for f, m, n in _TRACE_GRID},
    "root-redex": "(cut 0 (ax A) (ax A))",
}


@pytest.mark.parametrize("text", list(_TRACE_INPUTS.values()), ids=list(_TRACE_INPUTS))
def test_each_trace_line_is_the_json_of_its_step(text, tmp_path, capsys):
    f = tmp_path / "cut.llp"
    f.write_text(text + "\n")
    res = normalize(parse_proof(text))
    assert main(["normalize", str(f), "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    steps = res.trace.steps
    assert lines[: len(steps)] == [
        json.dumps(step_json(s.rule_id, s.path, s.size_before, s.size_after)) for s in steps
    ]
    assert "\n".join(lines[len(steps) :]) == print_proof(res.proof)


def test_a_redex_at_the_root_traces_an_empty_path(tmp_path, capsys):
    f = tmp_path / "cut.llp"
    f.write_text(_TRACE_INPUTS["root-redex"])
    assert main(["normalize", str(f), "--trace"]) == 0
    assert capsys.readouterr().out == '{"rule": "ax-left", "path": [], "sizes": [3, 1]}\n(ax A)\n'


def test_normalize_budget_exhaustion_is_a_domain_error(mult2x2_file, capsys):
    assert main(["normalize", mult2x2_file, "--max-steps", "3"]) == 1
    err = capsys.readouterr()
    assert err.out == ""
    assert "budget" in err.err


def test_nl_evaluates_a_numeral_at_a_matrix_point(church2_file, capsys):
    code = main(
        ["nl", church2_file, "--assign", "A=2", "--point", "[[1/1,1/1],[0/1,1/1]]"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out) == "[[1/1,2/1],[0/1,1/1]]"


def test_tangent_evaluates_the_product_rule(church2_file, capsys):
    code = main(
        [
            "tangent",
            church2_file,
            "--assign",
            "A=2",
            "--point",
            "[[1/1,1/1],[0/1,1/1]]",
            "--direction",
            "[[0/1,0/1],[1/1,0/1]]",
        ]
    )
    assert code == 0
    # να + αν at the chosen α, ν
    assert json.loads(capsys.readouterr().out) == "[[1/1,0/1],[2/1,1/1]]"


def test_tangent_refuses_the_zero_map_of_a_space_with_no_matrix(tmp_path, capsys):
    # the one-argument ket's counit is zero, so the weakened numeral gives
    # the zero of int_A, which has no coordinates
    f = tmp_path / "weak2.llp"
    f.write_text(f"(weak 0 !A {print_proof(church(2, A))})\n")
    argv = ["tangent", str(f), "--assign", "A=2", "--point", "[1,2]", "--direction", "[1,0]"]
    assert main(argv) == 1
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err == "linlog: no coordinates over Hom(!Hom(A, A), Hom(A, A))\n"


def test_denote_refuses_a_cut_on_a_quantified_formula(tmp_path, capsys):
    # the abstraction's space is resolved as it is built, and its
    # formula, the cut formula, is quantified
    f = tmp_path / "cut2.llp"
    f.write_text(
        "(cut 0 (lolli-r (ax (all x. x -o x))) (lolli-l 0 (all-r x (lolli-r (ax x)))"
        " (all-l 0 (all x. x -o x) A (ax (A -o A)))))\n"
    )
    assert main(["check", str(f)]) == 0
    capsys.readouterr()
    assert main(["denote", str(f), "--assign", "A=2"]) == 1
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err == "linlog: quantified formulas have no finite denotation\n"


def test_denote_prints_an_exact_matrix(tmp_path, capsys):
    f = tmp_path / "comp2.llp"
    f.write_text(print_proof(plain_body(2, A)) + "\n")
    assert main(["denote", str(f), "--assign", "A=1"]) == 0
    assert json.loads(capsys.readouterr().out) == "[[1/1]]"


def test_denote_refuses_infinite_spaces(mult2x2_file, capsys):
    assert main(["denote", mult2x2_file, "--assign", "A=1"]) == 1
    assert "finite" in capsys.readouterr().err


def test_encode_round_trips_through_the_parser(capsys):
    assert main(["encode", "church-2"]) == 0
    out = capsys.readouterr().out
    assert proof_eq(parse_proof(out), church(2, A))


def test_encode_knows_every_library_entry(capsys):
    for name in library():
        assert main(["encode", name]) == 0
    capsys.readouterr()


def test_encode_rejects_unknown_names(capsys):
    assert main(["encode", "nothere"]) == 1
    assert "available:" in capsys.readouterr().err


def test_bad_assignment_is_a_usage_error(church2_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["denote", church2_file, "--assign", "A=zero"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_a_digit_int_does_not_read_is_a_bad_assignment(tmp_path, capsys):
    f = tmp_path / "comp.llp"
    f.write_text(print_proof(comp(A)) + "\n")
    for dim in ("²", "9" * 5000):
        with pytest.raises(SystemExit) as exc:
            main(["denote", str(f), "--assign", f"A={dim}"])
        assert exc.value.code == 2
        assert "bad --assign" in capsys.readouterr().err


def test_a_zero_denominator_is_a_bad_point(church2_file, capsys):
    nl = ["nl", church2_file, "--assign", "A=2", "--point"]
    zero = "bad rational literal '1/0': zero denominator"
    for argv, message in (
        ([*nl, "[[1/0,1],[0,1]]"], zero),
        (["tangent", church2_file, "--assign", "A=2", "--point", "[[1,1],[0,1]]",
          "--direction", "[[0,0],[1/0,0]]"], zero),
        ([*nl, "[1/0,3]"], zero),
        ([*nl, "[x]"], "expected a rational at offset 1 in value literal '[x]'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"linlog: error: bad point literal {argv[-1]!r}: {message}\n")


def test_a_point_of_the_wrong_dimension_is_a_domain_error(tmp_path, capsys):
    f = tmp_path / "church-0.llp"
    f.write_text(print_proof(church(0, A)) + "\n")
    for point, count in (("[1]", "1 coordinate"), ("[1,2]", "2 coordinates")):
        assert main(["nl", str(f), "--assign", "A=2", "--point", point]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"linlog: point has {count} but Hom(A, A) has dimension 4\n"


def test_a_point_that_is_not_a_vector_or_matrix_is_a_bad_point(church2_file, capsys):
    for point in ("ket([1])", "2", "2 * [1] + [3]", "[[1,1,0],[1]]", "[[1,1],[0]]"):
        with pytest.raises(SystemExit) as exc:
            main(["nl", church2_file, "--assign", "A=2", "--point", point])
        assert exc.value.code == 2
        assert "bad point literal" in capsys.readouterr().err


def test_a_matrix_of_the_wrong_shape_is_a_domain_error(church2_file, capsys):
    # four coordinates, as Hom(A, A) has at A=2, but not as 2 rows of 2
    for argv in (
        ["nl", church2_file, "--assign", "A=2", "--point", "[[1],[1],[0],[1]]"],
        ["nl", church2_file, "--assign", "A=2", "--point", "[[1,1,0,1]]"],
        ["tangent", church2_file, "--assign", "A=2", "--point", "[[1,1],[0,1]]",
         "--direction", "[[0],[0],[1],[0]]"],
    ):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "linlog: point on Hom(A, A) is not a 2 by 2 matrix\n"
    # a flat vector is still read row by row
    assert main(["nl", church2_file, "--assign", "A=2", "--point", "[1,1,0,1]"]) == 0
    assert json.loads(capsys.readouterr().out) == "[[1/1,2/1],[0/1,1/1]]"


def test_a_matrix_point_on_a_space_that_is_not_hom_is_a_domain_error(tmp_path, capsys):
    # (der 0 (ax A)) has hypothesis space A: a point there is a vector
    f = tmp_path / "der.llp"
    f.write_text("(der 0 (ax A))\n")
    for argv in (
        ["nl", str(f), "--assign", "A=2", "--point", "[[1],[2]]"],
        ["nl", str(f), "--assign", "A=2", "--point", "[[1,2]]"],
        ["tangent", str(f), "--assign", "A=2", "--point", "[1,2]", "--direction", "[[0,1]]"],
    ):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "linlog: a matrix point needs a hom space, not A\n"
    assert main(["nl", str(f), "--assign", "A=2", "--point", "[1,2]"]) == 0
    assert json.loads(capsys.readouterr().out) == "[1/1,2/1]"


def test_calls_in_one_process_do_not_share_flags(church2_file, mult2x2_file, tmp_path, capsys):
    # the argument parser is built once per process
    assert cli._build_parser() is cli._build_parser()
    f = tmp_path / "ax.llp"
    f.write_text("(ax A)\n")
    assert main(["denote", str(f), "--assign", "A=2"]) == 0
    assert json.loads(capsys.readouterr().out) == "[[1/1,0/1],[0/1,1/1]]"
    assert main(["denote", str(f), "--assign", "B=1"]) == 1
    assert capsys.readouterr().err == "linlog: no dimension assigned to variable A\n"
    assert main(["normalize", mult2x2_file, "--max-steps", "3"]) == 1
    assert "after 3 steps" in capsys.readouterr().err
    assert main(["normalize", mult2x2_file]) == 0
    assert capsys.readouterr().err == ""
    for argv in (["normalize"], ["denote", church2_file, "--assign", "A=zero"]):
        errs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and errs[0].startswith("usage: linlog")


def test_a_negative_budget_is_a_usage_error(mult2x2_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["normalize", mult2x2_file, "--max-steps", "-3"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--max-steps" in out.err


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_stdout_exits_1_without_a_traceback(unbuffered):
    # the reading end is closed before linlog starts, so every write fails
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "linlog.cli", "encode", "church-2"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write)
    assert run.returncode == 1
    assert run.stderr == b""


def test_a_broken_pipe_drops_the_output_and_exits_1(monkeypatch, capsys):
    # in-process, so a line tracer over the suite sees the handler run;
    # it points the stream's own descriptor, not fd 1, at the null device
    read, write = os.pipe()
    os.close(read)
    closed = open(write, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", closed)
    try:
        assert main(["encode", "church-2"]) == 1
    finally:
        closed.close()
    assert capsys.readouterr().err == ""


def test_a_file_that_is_not_utf8_is_a_domain_error(tmp_path, capsys):
    f = tmp_path / "latin1.llp"
    f.write_bytes("(ax \u00c5)".encode("latin-1"))
    assert main(["check", str(f)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"linlog: cannot read {f}: not UTF-8") and out.err.count("\n") == 1


def test_a_parse_error_names_its_utf8_byte_range(tmp_path, capsys):
    f = tmp_path / "accent.llp"
    f.write_text("; é\n(ax @)\n", encoding="utf-8")
    assert main(["check", str(f)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "linlog: unexpected character '@' (bytes 9..10)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--max-steps", "3"],
        ["check", "--assign", "A=2"],
        ["normalize", "--assign", "A=2"],
        ["denote", "--max-steps", "3"],
        ["nl", "--point", "[[1]]", "--max-steps", "3"],
        ["tangent", "--point", "[[1]]", "--direction", "[[1]]", "--max-steps", "3"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(argv, church2_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], church2_file, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["check", "normalize", "denote", "nl", "tangent"]),
    data=st.one_of(st.none(), st.binary(max_size=64)),
    assign=st.one_of(st.just("A=2"), st.text(max_size=8)),
    point=st.one_of(st.text(max_size=16), st.text("[]0123456789/,- ", max_size=16)),
)
def test_no_input_escapes_the_exit_codes(tmp_path_factory, command, data, assign, point):
    # data None stands for a valid proof, and "A=2" for a valid
    # assignment, so the later arguments are parsed too
    f = tmp_path_factory.getbasetemp() / "fuzz.llp"
    f.write_bytes(print_proof(church(2, A)).encode() if data is None else data)
    argv = [command, str(f)]
    if command not in ("check", "normalize"):
        argv.append(f"--assign={assign}")
    if command in ("nl", "tangent"):
        argv.append(f"--point={point}")
    if command == "tangent":
        argv.append(f"--direction={point}")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)


def test_output_is_byte_deterministic(mult2x2_file):
    runs = [_run(["normalize", mult2x2_file, "--trace"]) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == b""


def test_deep_numeral_checks_and_round_trips(tmp_path, capsys):
    p = church(1200, A)
    text = print_proof(p)
    f = tmp_path / "church1200.llp"
    f.write_text(text + "\n")
    assert main(["check", str(f)]) == 0
    assert json.loads(capsys.readouterr().out) == "⊢ !(A -o A) -o (A -o A)"
    assert parse_proof(text) == p


def test_normalize_runs_a_deep_cut(tmp_path, capsys):
    # the cut commutes about 1,800 rules deep, past the default recursion limit
    p = add_cut(1, 600, A)
    f = tmp_path / "add-1-600.llp"
    f.write_text(print_proof(p) + "\n")
    assert main(["normalize", str(f)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    q = parse_proof(out.out)
    assert is_cut_free(q) and q.conclusion == p.conclusion


def test_normalize_instantiates_a_deep_generalized_numeral(tmp_path, capsys):
    # the all-principal step substitutes into church(400), whose depth is
    # past the default recursion limit
    cut = mk_cut(church2(400), mk_forall_l(mk_axiom(int_type(A)), 0, INT, A), 0)
    f = tmp_path / "inst-400.llp"
    f.write_text(print_proof(cut) + "\n")
    assert main(["normalize", str(f)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == print_proof(church(400, A)) + "\n"


def test_too_deep_formula_is_a_domain_error(tmp_path):
    f = tmp_path / "bangs.llp"
    f.write_text("(ax " + "!" * 5000 + "A)\n")
    run = _run(["check", str(f)])
    assert run.returncode == 0 and run.stderr == b""
    bangs = "!" * 5000 + "A"
    assert json.loads(run.stdout) == f"{bangs} ⊢ {bangs}"
    # the evaluator and its spaces are still recursive; !A has no
    # finite matrix either way
    run = _run(["denote", str(f), "--assign", "A=1"])
    assert run.returncode == 1
    assert run.stdout == b""
    err = run.stderr.decode()
    assert err.startswith("linlog: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_numeral_too_deep_to_evaluate_is_one_line_on_stderr(tmp_path, capsys):
    # the evaluator still recurses once per node: nl on church(1000)
    # exceeds the recursion limit, which the CLI reports as a domain error
    f = tmp_path / "church1000.llp"
    f.write_text(print_proof(church(1000, A)) + "\n")
    assert main(["nl", str(f), "--assign", "A=1", "--point", "[[1]]"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "linlog: input is nested too deeply (maximum recursion depth exceeded)\n"
    assert "Traceback" not in out.err


def test_check_and_normalize_take_a_deep_formula(tmp_path, capsys):
    bangs = "!" * 100_000 + "A"
    f = tmp_path / "tower.llp"
    f.write_text(f"(ax {bangs})\n")
    assert main(["check", str(f)]) == 0
    assert json.loads(capsys.readouterr().out) == f"{bangs} ⊢ {bangs}"
    assert main(["normalize", str(f)]) == 0
    assert capsys.readouterr().out == f"(ax {bangs})\n"


def test_rewrite_errors_are_domain_errors(mult2x2_file, monkeypatch, capsys):
    def broken(p, max_steps):
        raise RewriteError("guard tripped")

    monkeypatch.setattr(cli, "normalize", broken)
    assert main(["normalize", mult2x2_file]) == 1
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err == "linlog: guard tripped\n"


def test_output_does_not_depend_on_the_hash_seed(mult2x2_file):
    commands = (
        ["normalize", mult2x2_file, "--trace"],
        ["encode", "hypexp"],
        ["encode", "church2-2"],
    )
    for argv in commands:
        runs = [_run(argv, PYTHONHASHSEED=seed) for seed in ("0", "1", "4242")]
        assert all(r.returncode == 0 and r.stderr == b"" for r in runs)
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout


# Lenient parses: each names a rule application that does not fit its schema
_INVALID_FILES = (
    "(cut 0 (ax A) (ax B))",
    "(ex 5 (ax A))",
    "(prom (ax A))",
    "(weak 9 !A (ax A))",
    "(weak 0 A (ax A))",
    "(all-r x (ax x))",
    "(all-l 0 (all x. x -o x) B (ax A))",
    "(all-l 4 (all x. x) A (ax A))",
    "(lolli-r (tensor-r (ex 3 (ax A)) (prom (der 0 (ax B)))))",
    "(lolli-r (weak 7 !(A -o A) (all-l 2 (all x. !(x -o x) -o (x -o x)) "
    "(A -o A) (ax !(A -o A) -o (A -o A)))))",
    "(cut 0 (one-r) (tensor-l 0 (ctr 0 (ax !A))))",
)


def test_invalid_files_report_what_the_full_walk_reports(tmp_path, capsys):
    f = tmp_path / "bad.llp"
    for text in _INVALID_FILES:
        f.write_text(text + "\n")
        problems = _kernelref.validate(parse_proof(text))
        assert problems, text
        assert validate(parse_proof(text)) == problems
        where, msg = problems[0]
        for command in ("check", "normalize"):
            assert main([command, str(f)]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"linlog: invalid proof at node {list(where)}: {msg}\n"


def test_check_derives_no_node_of_a_parsed_file_again(church2_file, monkeypatch, capsys):
    def forbidden(node):
        raise AssertionError("a certified node was derived again")

    monkeypatch.setattr(proof, "_node_violation", forbidden)
    monkeypatch.setattr(rewrite, "_node_violation", forbidden)
    assert main(["check", church2_file]) == 0
    assert main(["normalize", church2_file]) == 0
    capsys.readouterr()
