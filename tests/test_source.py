import ast
from pathlib import Path

from rgcodes import selftest

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


def _imported_names(tree):
    """(line, name) of every name bound by an import, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, a.asname or a.name) for a in node.names)


def test_no_unused_imports_in_src():
    """Every imported name is read somewhere in its module (or listed in __all__)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {c.value for a in tree.body if isinstance(a, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in a.targets)
                 for c in ast.walk(a.value) if isinstance(c, ast.Constant)}
        found += [f"{path.name}:{line} {name}" for line, name in _imported_names(tree)
                  if name not in used]
    assert not found, found


def test_every_criterion_registered_once():
    """Each top-level criterion_* of selftest is in CRITERIA once, in source
    order: one without the decorator would drop out of selftest and tier-1."""
    tree = ast.parse((SRC / "selftest.py").read_text())
    defined = [node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("criterion_")]
    assert len(defined) == 9
    assert [c.__name__ for c in selftest.CRITERIA] == defined
