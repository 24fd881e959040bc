"""Static checks on the package source.  Invariants are explicit raises, so
they survive ``python -O``, which strips ``assert`` statements; no module
imports a name it never uses or a module outside the standard library;
every function the benchmark's per-layer
metrics name still exists; and only the listed functions build classes
through ``_Frozen._of``, which skips the constructors' check, with a run
showing that the skip changes no result."""

import ast
import sys
from pathlib import Path

import pseudocube
from pseudocube import (ListClass, construct_q, ds_dimension, graph_dimension,
                        load_certificate, max_pseudocube_core, natarajan_dimension,
                        parse_class, parse_class_json, random_class, serialize_certificate,
                        serialize_class, serialize_class_json, shift_fixed_point)
from pseudocube.bounds import extremal_class
from pseudocube.classes import _Frozen

# (module, function) of every caller of ``_of``: each derives a class from
# one the package holds, or has just checked a class it read in full
UNCHECKED_BUILDERS = {
    ("classes", "project"), ("classes", "parse_class"), ("classes", "_parse_class_bulk"),
    ("classes", "_class_from_json"), ("dims", "max_pseudocube_core"),
    ("dims", "ListClass.from_hypothesis_class"), ("oig", "shift"), ("polycert", "_construct"),
}


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


def _of_callers(tree, module):
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "_of"):
                found.add((module, ".".join(scope)))
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_listed_functions_build_classes_unchecked():
    # a new caller of _of is a reviewed change: add it here with its reason
    found = set().union(*(_of_callers(tree, path.stem) for path, tree in _package_trees()))
    assert found == UNCHECKED_BUILDERS


def _unchecked_corpus():
    """Every result of the package paths that build through ``_of``, on
    seeded random and extremal classes."""
    results = []
    classes = [random_class(n, k, density, seed)
               for n, k, density, seed in ((3, 2, 0.6, 1), (4, 3, 0.3, 2), (4, 3, 0.7, 3),
                                           (5, 2, 0.5, 4), (3, 4, 0.4, 5))]
    classes += [extremal_class(5, 3, 1, 1), extremal_class(4, 3, 2, 2)]
    for h in classes:
        ds = [ds_dimension(h, ell) for ell in range(1, h.k)]
        results += ds
        results += [natarajan_dimension(h, ell) for ell in range(1, h.k)]
        results += [max_pseudocube_core(h, m) for m in range(1, h.k + 2)]
        results.append(shift_fixed_point(h))
        cert = construct_q(h, 1, ds[0].value)
        text = serialize_certificate(cert, h)
        results += [cert, text, load_certificate(text)]
        text = serialize_class(h)
        results += [parse_class(text), parse_class("# a comment\n" + text),
                    parse_class_json(serialize_class_json(h))]
        results.append(graph_dimension(ListClass.from_hypothesis_class(h)))
    return results


def test_building_through_the_constructors_changes_no_result(monkeypatch):
    unchecked = _unchecked_corpus()
    callers = set()

    def checked(cls, *values):
        frame = sys._getframe(1)
        callers.add((frame.f_globals["__name__"].rpartition(".")[2], frame.f_code.co_name))
        return cls(*values)

    monkeypatch.setattr(_Frozen, "_of", classmethod(checked))
    assert _unchecked_corpus() == unchecked
    # the corpus reaches every caller
    assert callers == {(module, name.rpartition(".")[2]) for module, name in UNCHECKED_BUILDERS}
