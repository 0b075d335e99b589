"""Every module of the package uses each name it imports.

No linter ships with the project's toolchain, so this is its lint rule for
dead imports: parse each module with ``ast`` and report the names its
imports bind that the module never reads. ``__init__.py`` is left out, as
its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "randbo"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.sqrt(pi))\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_its_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
