"""Properties of the package source itself."""

import ast
import pathlib

import monhom

PACKAGE = pathlib.Path(monhom.__file__).parent


def test_no_bare_assert_in_the_package():
    # asserts vanish under python -O; invariants raise typed errors instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(PACKAGE.glob("*.py")), "package sources not found"
    assert not found, f"bare assert statements: {found}"
