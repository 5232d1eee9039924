"""Rules that every source file of the package and of the scripts keeps."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_statements():
    """Validation must not depend on ``assert``, which ``python -O`` strips."""
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("scripts/**/*.py")])
    assert paths
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
