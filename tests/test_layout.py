"""Source-layout gates over the ``rebac`` package."""

import ast
import re
from pathlib import Path

import pytest

import rebac

MODULES = sorted(p for p in Path(rebac.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    """Each name an import binds appears again in the module's text,
    string annotations included, once the import lines are blanked."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    imported: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
            for i in range(node.lineno - 1, node.end_lineno):
                lines[i] = ""
    rest = "\n".join(lines)
    unused = [name for name in imported
              if name != "annotations" and not re.search(rf"\b{re.escape(name)}\b", rest)]
    assert unused == [], f"{path.name} imports {unused} without using them"


PACKAGE = {p.stem: p for p in Path(rebac.__file__).parent.glob("*.py")}


def _parsed():
    return {name: ast.parse(path.read_text(encoding="utf-8"))
            for name, path in PACKAGE.items()}


def _relative_imports() -> dict[str, set[str]]:
    """Module -> the modules it imports relatively, at any nesting level;
    ``from . import x`` targets module x, or the package itself when x is
    not a module."""
    edges: dict[str, set[str]] = {}
    for name, tree in _parsed().items():
        targets = edges.setdefault(name, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
                targets |= {n.split(".")[0] if n.split(".")[0] in PACKAGE else "__init__"
                            for n in names}
    return edges


def test_relative_imports_form_no_cycle():
    """Modules that import nothing left, or that nothing left imports,
    are peeled off until none remain; the rest lie on a cycle."""
    edges = _relative_imports()
    while peel := [m for m, deps in edges.items()
                   if not deps & edges.keys() or not any(m in d for d in edges.values())]:
        for m in peel:
            del edges[m]
    assert edges == {}, f"import cycle among {sorted(edges)}"


def test_no_type_checking_imports():
    """An import deferred behind ``TYPE_CHECKING`` hides a dependency
    from the cycle gate above."""
    users = sorted({name for name, tree in _parsed().items() for node in ast.walk(tree)
                   if "TYPE_CHECKING" in (getattr(node, "id", None),
                                          getattr(node, "attr", None),
                                          getattr(node, "name", None))})
    assert users == [], f"{users} use TYPE_CHECKING"


def test_every_module_is_reachable_from_the_package_or_the_cli():
    """Code that only tests import does not belong in the package."""
    edges = _relative_imports()
    reached, todo = set(), ["__init__", "cli"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(edges[module])
    assert sorted(PACKAGE.keys() - reached) == []
