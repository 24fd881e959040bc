"""Exact combinatorial toolkit for finite multiclass hypothesis classes:
shattering dimensions, sharp size bounds with rational certificates,
one-inclusion graph orientations via integer flows, and desk-scale list
PAC learning experiments."""

__version__ = "0.1.0"

from .classes import (CapExceeded, ClassFormatError, HypothesisClass, Pattern,
                      iter_all_classes, parse_class, parse_class_json, project,
                      random_class, serialize_class, serialize_class_json)
from .dims import (DimensionResult, ListClass, PseudoCubeReport, ds_dimension,
                   ds_shattered, exponential_dimension, graph_dimension,
                   max_pseudocube_core, natarajan_dimension, natarajan_shattered)
from .bounds import (AppendixReport, BoundReport, BoundViolation, appendix_check,
                     ds_sauer_bound, extremal_class, natarajan_sauer_bound,
                     turan_reference, verify_sauer)
from .oig import (DegreeStats, Edge, ListOrientation, OneInclusionGraph,
                  build_oig, degree_stats, is_downward_closed,
                  max_density_bruteforce, orient_minmax, outdegrees, shift,
                  shift_fixed_point)
from .polycert import (Certificate, PeelingError, RationalPolynomial,
                       SpanReport, construct_q, indicator_poly, load_certificate,
                       monomial_set, peeling_order, serialize_certificate,
                       spanning_certificate, verify_certificate)
from .listlearn import (ConceptTask, ExperimentConfig, ListPredictor, LooReport,
                        PacReport, RealizabilityError, UcReport, list_provider,
                        loo_experiment, make_task, pac_learn, population_error,
                        predict_one_inclusion, theoretical_ell_prime,
                        uc_experiment, verify_projection_bound)
