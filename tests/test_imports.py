"""No package module imports a name it never uses.

No linter ships with the test dependencies, so this is the standard
library's stand-in for one: each module but __init__ (whose imports are its
exports) is parsed with ast, and every name an import binds must be read
somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).parents[1] / "src" / "vennlogic").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names bound by source's imports that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = "import os.path\nfrom math import fsum as f, prod\nimport re\nre.compile\nprod()\n"
    assert unused_imports(source) == ["os", "f"]
