import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rgcodes"


def test_no_assert_statements_in_src():
    """Invariants must survive python -O, which strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")) and not found, found
