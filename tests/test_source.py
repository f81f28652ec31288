"""Checks on the library's source text."""

import ast
from pathlib import Path

import bdgame

SOURCES = sorted(Path(bdgame.__file__).parent.glob("*.py"))


def test_the_library_has_no_assert_statements():
    # ``python -O`` strips assert statements, so no check the library
    # relies on may be one; ``raise AssertionError`` survives ``-O``.
    assert len(SOURCES) >= 10
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
