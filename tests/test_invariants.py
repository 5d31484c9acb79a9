import ast
import pathlib

import groundedqa

SRC = pathlib.Path(groundedqa.__file__).parent


def test_no_assert_statements_in_the_package():
    """Invariants raise typed errors; `python -O` strips an `assert`."""
    paths = sorted(SRC.rglob("*.py"))
    assert "baselines.py" in {path.name for path in paths}
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
