"""A guard, in place of a linter, that every name the package imports is
used by the module that imports it."""

import ast
from pathlib import Path

import anomvox

PACKAGE = Path(anomvox.__file__).parent


def _unused_imports(path: Path) -> list[str]:
    """Imports of `path` whose bound name the module never reads; a name
    listed in a literal __all__ counts as read."""
    tree = ast.parse(path.read_text(), str(path))
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return [f"{path.relative_to(PACKAGE)}:{line}: {name}" for name, line in imported if name not in used]


def test_every_import_is_used():
    unused = [site for path in sorted(PACKAGE.rglob("*.py")) for site in _unused_imports(path)]
    assert unused == [], "imported but never used:\n" + "\n".join(unused)
