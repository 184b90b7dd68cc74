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
