"""Checks over the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "meshslam"


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so a check written as one is not a
    # check; the library raises typed errors instead.
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
