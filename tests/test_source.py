import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rgcodes"


def test_no_assert_statements_in_src():
    """Invariants must survive python -O, which strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")) and not found, found


def test_readme_library_example(capsys):
    """The README's library example runs and prints what its comment says."""
    section = (ROOT / "README.md").read_text().split("## Library entry points", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "256 8\n"
