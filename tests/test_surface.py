"""Guards on the package's public surface and on how it checks invariants."""

import ast
from pathlib import Path

import mincount

SOURCE = Path(mincount.__file__).parent


def test_every_exported_name_resolves_once():
    names = mincount.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(mincount, name), name


def test_at_most_forty_exported_names():
    assert len(mincount.__all__) <= 40


def test_no_assert_statement_in_the_package():
    # ``python -O`` strips assert statements, so an invariant checked by
    # one would silently stop being checked.
    paths = sorted(SOURCE.glob("*.py"))
    assert "counting.py" in [path.name for path in paths]
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
