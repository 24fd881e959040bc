"""Exact combinatorial toolkit for finite multiclass hypothesis classes:
shattering dimensions, sharp size bounds with rational certificates,
one-inclusion graph orientations via integer flows, and desk-scale list
PAC learning experiments.

Importing the package loads none of its submodules.  Each public name in
``__all__`` is imported from its home module on first access (PEP 562), so
``from pseudocube import ds_dimension`` loads ``classes`` and ``dims`` only,
and ``python -m pseudocube`` pays for the modules its subcommand uses.  The
submodules themselves are attributes too: ``pseudocube.oig`` imports ``oig``.
"""

__version__ = "0.1.0"

# each submodule and the public names it exports through the package
_EXPORTS = {
    "classes": ("CapExceeded", "ClassFormatError", "HypothesisClass", "Pattern",
                "iter_all_classes", "parse_class", "parse_class_json", "project",
                "random_class", "serialize_class", "serialize_class_json"),
    "dims": ("DimensionResult", "ListClass", "PseudoCubeReport", "ds_dimension",
             "ds_shattered", "exponential_dimension", "graph_dimension",
             "max_pseudocube_core", "natarajan_dimension", "natarajan_shattered"),
    "bounds": ("AppendixReport", "BoundReport", "BoundViolation", "appendix_check",
               "ds_sauer_bound", "extremal_class", "natarajan_sauer_bound",
               "turan_reference", "verify_sauer"),
    "oig": ("DegreeStats", "Edge", "ListOrientation", "OneInclusionGraph",
            "build_oig", "degree_stats", "is_downward_closed",
            "max_density_bruteforce", "orient_minmax", "outdegrees", "shift",
            "shift_fixed_point"),
    "polycert": ("Certificate", "PeelingError", "RationalPolynomial", "SpanReport",
                 "construct_q", "indicator_poly", "load_certificate", "monomial_set",
                 "peeling_order", "serialize_certificate", "spanning_certificate",
                 "verify_certificate"),
    "listlearn": ("ConceptTask", "ExperimentConfig", "ListPredictor", "LooReport",
                  "PacReport", "RealizabilityError", "UcReport", "list_provider",
                  "loo_experiment", "make_task", "pac_learn", "population_error",
                  "predict_one_inclusion", "theoretical_ell_prime",
                  "uc_experiment", "verify_projection_bound"),
    "cli": ("main",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    from importlib import import_module
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
