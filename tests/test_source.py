"""Source hygiene: every name a module of `src/scmac` imports is used in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scmac"
# the imports of `__init__.py` are the package's public exports
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_check_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import inf, pi as PI\n"
        "def f(x: inf) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert _unused_imports(source) == ["PI", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []
