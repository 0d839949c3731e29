"""Checks on the library source itself."""

import ast
from pathlib import Path

import cyclocomp

SOURCES = sorted(Path(cyclocomp.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


def test_no_assert_statements():
    # `python -O` strips assert statements, so internal invariants are
    # checked with explicit raises instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
