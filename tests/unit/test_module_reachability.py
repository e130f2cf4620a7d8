"""Every module under ``src/repro`` must be imported by the program itself.

A module that only its own unit tests import is dead weight: it is
maintained, documented and tested, yet no workload, example, benchmark or CLI
runs it.  This test parses the imports of ``src/``, ``e2e_bench/``,
``examples/`` and ``benchmarks/`` with :mod:`ast` and fails when a module is
reached by none of them.  Package ``__init__`` files do not count as
importers, but their re-exports are resolved, so
``from repro.ckpt import CheckpointSession`` reaches ``repro.ckpt.session``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
IMPORTER_DIRS = ("src", "e2e_bench", "examples", "benchmarks")
EXEMPT_LEAVES = {"__main__", "_version"}
#: Modules kept on purpose although only tests import them.
ALLOWLIST = {
    "repro.zero.zero3_engine": (
        "the functional ZeRO-3 baseline the engine tests compare against; "
        "the paper-scale baseline figures come from the simulator"
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
PACKAGES = {_module_name(p) for p in (SRC / "repro").rglob("__init__.py")}


def _imports(path: Path):
    """``(module, name)`` pairs imported by ``path``; ``name`` is None for ``import m``."""
    package = _module_name(path) if path.name == "__init__.py" else None
    if package is None and path.is_relative_to(SRC):
        package = _module_name(path).rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level and package is None:
                continue  # a relative import outside src/ cannot reach repro
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                base = f"{anchor}.{base}".rstrip(".")
            yield from ((base, alias.name) for alias in node.names)


def _resolve(module: str, name, seen=frozenset()):
    """The ``repro`` modules one import statement reaches."""
    if name is not None and f"{module}.{name}" in MODULES:
        return {f"{module}.{name}"}
    if module not in PACKAGES or name is None or (module, name) in seen:
        return {module} if module in MODULES else set()
    # A name re-exported by a package __init__: follow it to its source.
    reached = set()
    for source, imported in _imports(MODULES[module]):
        if imported == name or imported == "*":
            reached |= _resolve(source, imported, seen | {(module, name)})
    return reached


def reached_modules():
    reached = set()
    for directory in IMPORTER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            importer = _module_name(path) if path.is_relative_to(SRC) else None
            for module, name in _imports(path):
                reached |= _resolve(module, name) - {importer}
    return reached


def test_every_module_is_imported_outside_tests():
    unreached = sorted(
        name
        for name in set(MODULES) - PACKAGES - reached_modules()
        if name.rpartition(".")[2] not in EXEMPT_LEAVES
    )
    # A stale allowlist entry (the module gained a caller, or is gone) fails too.
    assert unreached == sorted(ALLOWLIST), (
        f"imported only by tests: {sorted(set(unreached) - set(ALLOWLIST))}; "
        f"stale allowlist entries: {sorted(set(ALLOWLIST) - set(unreached))}"
    )
