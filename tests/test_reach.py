"""Reach check: every public def in ``src/repro`` is read outside ``tests/``.

A stdlib AST scan; nothing is imported or run.  It collects the public
functions, classes and methods (names without a leading ``_``) defined in
``src/repro``, and every name the program reads in ``src/``,
``benchmarks/`` and ``examples/``, test files excluded: loaded names,
attribute names, imported names and identifier-like string constants
(``getattr`` hooks, claims-table keys).  ``__all__`` lists and the
``from .x import y`` re-exports of ``__init__`` modules are not reads.

A def whose name nothing reads is unreached.  It fails the check unless
``ALLOWED`` names it with the reason it stays (a test oracle, an accessor
the tests assert through); an ``ALLOWED`` entry that is reached, or whose
def is gone, fails it too, so the list shrinks with the code.

Known gap: the scan matches names, not bindings.  A def counts as reached
when any read anywhere has its name: each ``forward`` is reached by
every other ``forward``, and a method named like a module by its
``import``.  Module
constants are not scanned.  Which defs a run actually executes (a profile
hook unioned across CI jobs) is not checked here.
"""
from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "benchmarks", "examples")

ALLOWED = {
    "core.inference.predict_tiled":
        "oracle: tests/serve/test_server.py checks served class maps "
        "against it",
    "comm.compression.SparseGradient.densify":
        "oracle: the top-k codec's decode",
    "comm.compression.QuantizedGradient.densify":
        "oracle: the int8 codec's decode",
    "core.distributed.DistributedTrainer.max_buffer_divergence":
        "oracle: replicas stay in lockstep",
    "comm.simmpi.TrafficStats.total_dropped":
        "accessor: message conservation under drop faults",
    "comm.simmpi.TrafficStats.total_duplicated":
        "accessor: message conservation under duplicate faults",
    "serve.fleet.hashring.HashRing.ownership":
        "oracle: ring balance across vnode counts",
    "climate.grid.Grid.lat_index":
        "accessor: storm-placement fixtures",
    "climate.grid.Grid.lon_index":
        "accessor: storm-placement fixtures",
}


def is_test_file(path: Path) -> bool:
    return (path.name.startswith("test_") or path.name == "conftest.py"
            or "tests" in path.parts)


def _is_all(node: ast.AST) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AugAssign) else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def names_read(paths) -> set[str]:
    """Every name the modules at ``paths`` read (see the module docstring)."""
    read: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        reexports = path.name == "__init__.py"
        skip = {id(n) for node in ast.walk(tree) if _is_all(node)
                for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Import):
                read.update(a.name.split(".")[-1] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not reexports:
                read.update(a.name for a in node.names)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                read.add(node.value)
    return read


def public_defs(package: Path):
    """``(qualname, name)`` of each public top-level def and method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, defs):
                continue
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, defs[:2])
                            and not sub.name.startswith("_")):
                        yield f"{module}.{node.name}.{sub.name}", sub.name


def unreached(root: Path) -> set[str]:
    program = [p for d in PROGRAM_DIRS for p in (root / d).rglob("*.py")
               if not is_test_file(p.relative_to(root))]
    read = names_read(program)
    return {q for q, name in public_defs(root / "src" / "repro")
            if name not in read}


@functools.cache
def repo_unreached() -> frozenset[str]:
    return frozenset(unreached(ROOT))


def test_every_public_def_is_reached_outside_tests():
    missing = sorted(repo_unreached() - set(ALLOWED))
    assert not missing, (
        "public defs that only tests reach; delete them, or add each to "
        f"ALLOWED with its reason: {missing}")


def test_allowlist_has_no_stale_entries():
    stale = sorted(set(ALLOWED) - repo_unreached())
    assert not stale, f"ALLOWED entries now reached or gone: {stale}"


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


class TestScanner:
    def test_unused_def_and_method_found(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/m.py": "class A:\n    def used(self): ...\n"
                              "    def idle(self): ...\n"
                              "def lone(): ...\ndef _private(): ...\n",
            "examples/e.py": "from repro.m import A\nA().used()\n",
        })
        assert unreached(root) == {"m.A.idle", "m.lone"}

    def test_test_files_and_reexports_do_not_reach(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/__init__.py": "from .m import f\n__all__ = ['f']\n",
            "src/repro/m.py": "def f(): ...\n",
            "benchmarks/test_m.py": "from repro.m import f\nf()\n",
            "tests/test_m.py": "from repro.m import f\nf()\n",
        })
        assert unreached(root) == {"m.f"}

    def test_string_and_import_reads_reach(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/m.py": "def hook(): ...\ndef keyed(): ...\n"
                              "def g(o):\n    getattr(o, 'hook')()\n",
            "benchmarks/b.py": "from repro.m import g, keyed\n",
        })
        assert unreached(root) == set()
