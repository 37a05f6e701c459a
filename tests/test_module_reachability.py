"""Every module under ``src/repro`` is used by something other than its package.

A module that only its own package's ``__init__.py`` re-exports, and that
only the tests import, is code no command, route, example or benchmark
runs.  The check is static: it parses (never imports) every ``import``
statement in ``src``, ``examples``, ``benchmarks`` and ``perfbench``,
skipping the package ``__init__.py`` files as importers, and follows
package re-exports back to the module that defines the name, so
``from repro.uncertainty import TemporalEnsembleRunner`` counts as a use of
``repro.uncertainty.temporal``.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORTER_DIRS = ("src", "examples", "benchmarks", "perfbench")


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path):
    """Yield ``(module, [(name, alias), ...])``; ``import X`` yields ``(X, [])``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module, [(a.name, a.asname or a.name) for a in node.names]


@functools.lru_cache(maxsize=None)
def _source_tree():
    """``(modules, packages, re-exports)`` of ``src``; re-exports map
    ``package -> {exported name: (source module, name there)}``."""
    modules, packages, reexports = set(), set(), {}
    for path in sorted(SRC.rglob("*.py")):
        name = _module_name(path)
        if path.stem == "__init__":
            packages.add(name)
            reexports[name] = {alias: (source, original)
                               for source, names in _imports(path)
                               for original, alias in names}
        elif path.stem != "__main__":
            modules.add(name)
    return frozenset(modules), frozenset(packages), reexports


def _resolve(module, name):
    """The module that defines what ``from module import name`` binds."""
    modules, packages, reexports = _source_tree()
    if f"{module}.{name}" in modules | packages:
        return f"{module}.{name}"
    if module in packages and name in reexports[module]:
        return _resolve(*reexports[module][name])
    return module


def _used_modules():
    used = set()
    for directory in IMPORTER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            if directory == "src" and path.stem == "__init__":
                continue
            for module, names in _imports(path):
                used.add(module)
                used.update(_resolve(module, name) for name, _ in names)
    return used


def test_every_module_is_reached_outside_its_package_and_the_tests():
    modules, _, _ = _source_tree()
    assert sorted(modules - _used_modules()) == []
