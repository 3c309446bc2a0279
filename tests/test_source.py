"""Source hygiene: every name a module of `src/scmac`, a test or a demo imports
is used in it, every module-level private name is read somewhere in the
package, and every public function and class serves the package, its
exports, the demos or the benchmark, not the tests alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scmac"
# the imports of `__init__.py` are the package's public exports; the package
# modules go by their file names, the tests and demos by their paths
IMPORTERS = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"} | {
    f"{folder}/{p.name}": p for folder in ("tests", "demos") for p in (ROOT / folder).glob("*.py")
}


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


@pytest.mark.parametrize("module", sorted(IMPORTERS))
def test_every_import_is_used(module):
    assert _unused_imports(IMPORTERS[module].read_text()) == []


def _private_names(source: str) -> set[str]:
    """Private (one leading underscore) names the module binds at its top level."""
    bound = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            stored = (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            bound.update(n.id for n in stored if isinstance(n.ctx, ast.Store))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name for alias in node.names)
    return {name for name in bound if name.startswith("_") and not name.startswith("__")}


def _read_names(source: str) -> set[str]:
    """Every name the module reads, as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    read = set().union(*(_read_names(source) for source in sources.values()))
    return sorted(
        f"{module}:{name}"
        for module, source in sources.items()
        for name in _private_names(source) - read
    )


def test_unread_private_name_check_finds_unread_names():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_UNUSED, _ALSO = 2, 3\n"
            "_ANNOTATED: int = 4\n"
            "def _helper():\n"
            "    return _USED\n"
            "class _Dead:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    return _helper\n"
        ),
        # read through an import and an attribute of another module
        "b.py": "from .a import _ALSO\nimport a\nx = a._ANNOTATED\n_SELF = 5\n",
    }
    assert _unread_private_names(sources) == ["a.py:_Dead", "a.py:_UNUSED", "b.py:_SELF"]


def test_every_private_name_is_read_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_names(sources) == []


# scalar models kept as oracles for the tests, which no program reads
TEST_ORACLES = {"lfsr.py:lfsr_outputs", "mac.py:baseline_voltage"}


def _unread_public_definitions(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Public module-level functions and classes of `sources` that neither
    `sources` nor `readers` read."""
    read = set().union(*(_read_names(source) for source in [*sources.values(), *readers]))
    return sorted(
        f"{module}:{node.name}"
        for module, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    )


def test_unread_public_definition_check_finds_unread_definitions():
    sources = {
        "a.py": "def used():\n    pass\ndef helper():\n    return used()\nclass Dead:\n    pass\n",
        # exported through an import, like `__init__.py`
        "__init__.py": "from .b import Exported\n",
        "b.py": "class Exported:\n    pass\ndef demo_only():\n    pass\nLATER = 1\n",
    }
    readers = ["import b\nb.demo_only()\n"]
    assert _unread_public_definitions(sources, readers) == ["a.py:Dead", "a.py:helper"]


def test_every_public_definition_is_read_outside_the_tests():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    folders = (ROOT / "demos", ROOT / "perfbench")
    readers = [p.read_text() for folder in folders for p in folder.glob("*.py")]
    assert set(_unread_public_definitions(sources, readers)) == TEST_ORACLES
