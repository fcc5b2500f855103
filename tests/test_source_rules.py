"""Rules on the package source itself, checked by parsing it."""

import ast
from pathlib import Path

import adgac

SOURCES = sorted(Path(adgac.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "core.py", "oracles.py"}


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant checked by one
    # silently stops holding; raise a named error instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
