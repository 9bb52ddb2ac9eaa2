"""No `assert` statement in the package: `python -O` strips them, so a
soundness check written as one would vanish.  Checks raise SoundnessError,
not AssertionError, and no module keeps mutable state behind `global`."""

import ast
from pathlib import Path

import qf2


def _find(matches):
    paths = sorted(Path(qf2.__file__).parent.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if matches(node)]
    return found


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    assert _find(lambda node: isinstance(node, ast.Assert)) == []


def test_no_raise_assertion_error():
    assert _find(_raises_assertion_error) == []


def test_no_global_statements():
    assert _find(lambda node: isinstance(node, ast.Global)) == []
