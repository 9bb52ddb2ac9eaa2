"""No `assert` statement in the package: `python -O` strips them, so a
soundness check written as one would vanish.  Checks raise SoundnessError."""

import ast
from pathlib import Path

import qf2


def test_no_assert_statements():
    paths = sorted(Path(qf2.__file__).parent.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
