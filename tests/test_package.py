import ast
import pathlib

import perdec

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_public_names_resolve_once():
    names = perdec.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(perdec, name) is not None


def _unused_imports(tree: ast.Module):
    """Names a module imports but never reads; a name in `__all__` is
    read."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_an_unused_name():
    paths = sorted([*(ROOT / "src" / "perdec").glob("*.py"),
                    *(ROOT / "tests").glob("*.py")])
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in paths
             for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert found == []
