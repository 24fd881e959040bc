"""The package's public surface: every name it re-exports, resolved on first
access from its home module, and a bare import that loads no submodule."""

import importlib
import subprocess
import sys

import pytest

import pseudocube

# each home module and the names the package exports from it
EXPORTS = {
    "classes": ["CapExceeded", "ClassFormatError", "HypothesisClass", "Pattern",
                "iter_all_classes", "parse_class", "parse_class_json", "project",
                "random_class", "serialize_class", "serialize_class_json"],
    "dims": ["DimensionResult", "ListClass", "PseudoCubeReport", "ds_dimension",
             "ds_shattered", "exponential_dimension", "graph_dimension",
             "max_pseudocube_core", "natarajan_dimension", "natarajan_shattered"],
    "bounds": ["AppendixReport", "BoundReport", "BoundViolation", "appendix_check",
               "ds_sauer_bound", "extremal_class", "natarajan_sauer_bound",
               "turan_reference", "verify_sauer"],
    "oig": ["DegreeStats", "Edge", "ListOrientation", "OneInclusionGraph", "build_oig",
            "degree_stats", "is_downward_closed", "max_density_bruteforce",
            "orient_minmax", "outdegrees", "shift", "shift_fixed_point"],
    "polycert": ["Certificate", "PeelingError", "RationalPolynomial", "SpanReport",
                 "construct_q", "indicator_poly", "load_certificate", "monomial_set",
                 "peeling_order", "serialize_certificate", "spanning_certificate",
                 "verify_certificate"],
    "listlearn": ["ConceptTask", "ExperimentConfig", "ListPredictor", "LooReport",
                  "PacReport", "RealizabilityError", "UcReport", "list_provider",
                  "loo_experiment", "make_task", "pac_learn", "population_error",
                  "predict_one_inclusion", "theoretical_ell_prime", "uc_experiment",
                  "verify_projection_bound"],
    "cli": ["main"],
}
HOME = [(name, module) for module, names in EXPORTS.items() for name in names]


def home_object(name, module):
    return getattr(importlib.import_module(f"pseudocube.{module}"), name)


def test_all_lists_every_exported_name():
    assert pseudocube.__all__ == sorted(name for name, _ in HOME)


def test_each_name_is_the_object_of_its_home_module():
    for name, module in HOME:
        assert getattr(pseudocube, name) is home_object(name, module)


def test_dir_lists_every_exported_name():
    assert set(pseudocube.__all__) <= set(dir(pseudocube))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from pseudocube import *", namespace)
    for name, module in HOME:
        assert namespace[name] is home_object(name, module)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        pseudocube.no_such_name
    with pytest.raises(ImportError):
        from pseudocube import no_such_name  # noqa: F401


def test_submodules_are_attributes():
    for module in EXPORTS:
        assert getattr(pseudocube, module) is importlib.import_module(f"pseudocube.{module}")


def test_bare_import_loads_no_submodule():
    proc = subprocess.run([sys.executable, "-c", "import sys, pseudocube; "
                           "print(sorted(m for m in sys.modules if m.startswith('pseudocube.')))"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_first_access_loads_the_home_module_only():
    proc = subprocess.run([sys.executable, "-c", "import sys; from pseudocube import parse_class; "
                           "print(sorted(m for m in sys.modules if m.startswith('pseudocube.')))"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "['pseudocube.classes']\n"
