"""linlog computes with exact rationals only: its source has no float
literal, no `float(...)` call and no true division `/` (division of
rationals is spelled `Fraction(a, b)`)."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "linlog"


def _float_sites(tree: ast.AST) -> list[tuple[int, str]]:
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            sites.append((node.lineno, "float literal"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            sites.append((node.lineno, "float() call"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append((node.lineno, "'/' operator"))
    return sites


def test_the_checker_finds_each_kind_of_site():
    tree = ast.parse("x = 1.5 / float(y)\nx /= 2\nz = a // b + 1e3")
    assert sorted(what for _, what in _float_sites(tree)) == [
        "'/' operator", "'/' operator", "float literal", "float literal", "float() call",
    ]


def test_the_engine_has_no_floats_and_no_true_division():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 8
    found = [
        f"{f.name}:{line}: {what}"
        for f in files
        for line, what in _float_sites(ast.parse(f.read_text(encoding="utf-8")))
    ]
    assert found == []
