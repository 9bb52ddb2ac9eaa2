"""No `assert` statement in the package: `python -O` strips them, so a
soundness check written as one would vanish.  Checks raise SoundnessError,
not AssertionError, and no module keeps mutable state behind `global`.
Only the field kernel reads an element's representation or builds a field
descriptor, only forms.py touches a form's memo, and every import of a qf2
module points down the layer order, at module level."""

import ast
from pathlib import Path

import qf2


def _find(matches, skip=()):
    paths = sorted(Path(qf2.__file__).parent.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        if path.name in skip:
            continue
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


def _reads_representation(node):
    """An element's raw data (`.data`), a descriptor's level ops (`._ops`),
    or the kernel's table lookups (`_gf`, `_ops_key`)."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("data", "_ops", "_gf", "_ops_key")
    if isinstance(node, ast.Name):
        return node.id in ("_gf", "_ops_key")
    if isinstance(node, ast.alias):
        return node.name in ("_gf", "_ops_key")
    return False


def test_only_the_kernel_reads_the_representation():
    assert _find(_reads_representation, skip=("_kernel.py",)) == []


def _builds_a_descriptor(node):
    """A direct call of `FieldDescriptor(...)`, not through `intern_field`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        func.id if isinstance(func, ast.Name) else None
    return name == "FieldDescriptor"


def test_only_the_kernel_builds_descriptors():
    """Every other module takes its descriptors from `intern_field`, so the
    operators' identity test on the field is the common case."""
    assert _find(_builds_a_descriptor, skip=("_kernel.py",)) == []


def _touches_the_memo(node):
    """A form's memo (`._facts`) or a weak reference (`import weakref`)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "_facts"
    if isinstance(node, ast.alias):
        return node.name.split(".")[0] == "weakref"
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "weakref"
    return False


def test_only_forms_touches_the_memo():
    assert _find(_touches_the_memo, skip=("forms.py",)) == []


# qf2's modules, lowest first: each imports only modules before it
LAYERS = ("errors", "_kernel", "fieldtower", "_linalg", "forms", "witt",
          "clifford", "pfister", "chow", "cli")


def _qf2_imports(tree):
    """(node, module) for each import of a qf2 module, relative or `qf2.…`;
    the module is "qf2" for the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qf2":
                    yield node, parts[1] if len(parts) > 1 else "qf2"
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level:
                parts = ["qf2"] + [m for m in parts if m]
            if parts[0] != "qf2":
                continue
            if len(parts) > 1:
                yield node, parts[1]
            else:
                for alias in node.names:
                    yield node, alias.name


def test_imports_point_down():
    """No qf2 import inside a function, and none of a module at or above
    the importer's layer: the kernel imports errors alone."""
    paths = sorted(Path(qf2.__file__).parent.glob("*.py"))
    assert {p.stem for p in paths} == set(LAYERS) | {"__init__"}
    found = []
    for path in paths:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        below = LAYERS[:LAYERS.index(path.stem)]
        found += [f"{path.name}:{node.lineno}"
                  for node, module in _qf2_imports(tree)
                  if node not in tree.body or module not in below]
    assert found == []
