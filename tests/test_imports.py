"""Guards, in place of a linter: every name the package imports is used by
the module that imports it, every private function, class and method and
every module-level constant is named somewhere in the package besides its
definition, every public module-level function and class is named by a
program caller (the package, the benchmark or the scripts), and no module
has a `global` statement."""

import ast
import re
from collections import Counter
from pathlib import Path

import anomvox

PACKAGE = Path(anomvox.__file__).parent
REPO = Path(__file__).resolve().parents[1]


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


def _named_only_where_defined(defs, sources) -> list[str]:
    """The (path, name, line) definitions whose name the package's text
    mentions no more often than the name is defined."""
    counts = Counter(name for _, name, _ in defs)
    return [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path, name, line in defs
        if sum(len(re.findall(rf"\b{name}\b", text)) for text in sources.values()) <= counts[name]
    ]


def _sources() -> dict[Path, str]:
    return {path: path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}


def test_every_private_definition_is_used():
    # A private (single-underscore) def whose name the package's text never
    # mentions beyond its definitions is dead: nothing can reach it.
    sources = _sources()
    defs = [
        (path, node.name, node.lineno)
        for path, text in sources.items()
        for node in ast.walk(ast.parse(text, str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    unused = _named_only_where_defined(defs, sources)
    assert unused == [], "defined but never named elsewhere:\n" + "\n".join(unused)


def test_every_public_definition_is_used():
    # A public module-level function or class that no program text names
    # beyond its definitions is reached only by tests.  Re-exports in
    # __init__.py files do not count as callers.
    sources = _sources()
    defs = [
        (path, node.name, node.lineno)
        for path, text in sources.items()
        for node in ast.parse(text, str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    callers = {path: text for path, text in sources.items() if path.name != "__init__.py"}
    for folder in ("perfbench", "scripts"):
        callers.update((path, path.read_text()) for path in sorted((REPO / folder).rglob("*.py")))
    unused = _named_only_where_defined(defs, callers)
    assert unused == [], "no program caller names:\n" + "\n".join(unused)


def test_every_module_constant_is_used():
    # A module-level UPPER_CASE constant that the package names only where it
    # is assigned is a setting nothing reads.
    sources = _sources()
    defs = [
        (path, target.id, node.lineno)
        for path, text in sources.items()
        for node in ast.parse(text, str(path)).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for top in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for target in ast.walk(top)
        if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
    ]
    unused = _named_only_where_defined(defs, sources)
    assert unused == [], "constants never read:\n" + "\n".join(unused)


def test_no_global_statement():
    # A `global` statement rebinds process-wide mutable state, which a
    # forked child or a second thread would share unnoticed.
    sites = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}: global {', '.join(node.names)}"
        for path, text in _sources().items()
        for node in ast.walk(ast.parse(text, str(path)))
        if isinstance(node, ast.Global)
    ]
    assert sites == [], "global statements:\n" + "\n".join(sites)
