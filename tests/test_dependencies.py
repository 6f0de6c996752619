"""Every import in ``src/repro`` resolves with only the declared dependencies.

A module that imports an undeclared third-party package breaks
``import repro.<pkg>`` on a clean install of ``pyproject.toml``'s
``dependencies`` even when the developer's environment happens to carry it.
The scan is static (AST), so it also sees imports that no test reaches.
``pyproject.toml`` is read with a regex rather than ``tomllib``, which
Python 3.10 lacks.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def declared_dependencies() -> set[str]:
    """Import roots of ``[project] dependencies`` (``numpy>=1.24`` -> numpy)."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert block, "pyproject.toml declares no [project] dependencies"
    names = re.findall(r"[\"']\s*([A-Za-z0-9_.\-]+)", block.group(1))
    return {n.lower().replace("-", "_") for n in names}


def import_roots(path: Path) -> set[str]:
    """Top-level package of every absolute import in one source file."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_declared_dependencies_parsed():
    assert {"numpy", "scipy"} <= declared_dependencies()


def test_src_imports_only_stdlib_repro_or_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"} | declared_dependencies()
    undeclared = {}
    for path in sorted(SRC.rglob("*.py")):
        for root in import_roots(path) - allowed:
            undeclared.setdefault(root, []).append(
                str(path.relative_to(ROOT)))
    assert not undeclared, f"imports not declared in pyproject.toml: {undeclared}"
