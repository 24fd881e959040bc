"""Static checks on the package source.  Invariants are explicit raises, so
they survive ``python -O``, which strips ``assert`` statements; no module
imports a name it never uses or a module outside the standard library; and
every function the benchmark's per-layer
metrics name still exists."""

import ast
import sys
from pathlib import Path

import pseudocube


def _package_trees():
    sources = sorted(Path(pseudocube.__file__).parent.glob("*.py"))
    assert sources
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in sources]


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_package_modules_use_every_name_they_import():
    # __init__ imports to re-export; __future__ imports switch on features
    unused = []
    for path, tree in _package_trees():
        if path.name == "__init__.py":
            continue
        imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_package_imports_only_the_standard_library():
    # the runtime is stdlib-only: an import is relative, of the package
    # itself, or of a standard-library module
    known = set(sys.stdlib_module_names) | {"pseudocube"}
    foreign = []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}"
                        for name in names if name.split(".")[0] not in known]
    assert not foreign, f"imports outside the standard library: {foreign}"


def test_benchmark_per_layer_metrics_name_existing_functions(monkeypatch):
    # perfbench wraps package functions by name, and a per-layer metric whose
    # function was deleted or renamed raises KeyError in its traced runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.run import layer_metrics
    from perfbench.tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install(pseudocube)
        layer_metrics(tracer, 1, 0.0, 0.0)
    finally:
        tracer.restore()
