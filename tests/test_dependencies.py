"""The declared runtime dependencies are exactly the imported ones.

Every absolute ``import``/``from`` under ``src/repro`` is read with
``ast`` (conditional and function-local imports included); the
third-party top-level modules — neither standard library nor ``repro``
itself — must equal the distribution names in ``pyproject.toml``'s
``[project] dependencies``.  An unused declaration or an undeclared
import fails here, without installing anything.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def imported_top_level(package: Path) -> set[str]:
    """Top-level module names of every absolute import in ``package``."""
    names: set[str] = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_dependencies(pyproject: Path) -> set[str]:
    """Distribution names (version specifiers stripped) of
    ``[project] dependencies``."""
    project = tomllib.loads(pyproject.read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9_.\-]+", req).group(0).lower().replace("-", "_")
        for req in project["dependencies"]
    }


def test_declared_dependencies_match_imports():
    third_party = imported_top_level(PACKAGE) - set(sys.stdlib_module_names) - {"repro"}
    assert third_party == declared_dependencies(ROOT / "pyproject.toml")
