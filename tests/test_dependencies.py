"""Every module the package imports is the standard library's, the
package's own, or declared in ``pyproject.toml``'s ``dependencies``."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mec_bazaar"


def _declared() -> set:
    """The import names of the declared distributions: each name up to
    its version or marker, with ``-`` read as ``_``."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.\-]+", d).group().replace("-", "_")
            .lower() for d in deps}


def _imported() -> dict:
    """Each top-level module an absolute import of the package names,
    with a file that imports it."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], path.name)
    return found


def test_every_import_is_declared():
    imported = _imported()
    assert {"numpy", "orjson"} <= imported.keys()
    undeclared = {
        name: where for name, where in imported.items()
        if name not in sys.stdlib_module_names
        and name != PACKAGE.name and name.lower() not in _declared()}
    assert not undeclared, f"imported but not declared: {undeclared}"
