"""Rules on the library source itself, checked by parsing it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gapsym"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so no runtime check may be one
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
