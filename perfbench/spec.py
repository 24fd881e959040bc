"""What the benchmark measures: workloads, metrics and the layer map.

Everything a reader needs to interpret a result lives here as data, so the
run record, the printed report and ``BENCHMARK.json`` are built from one
source (``selftest.py`` checks that ``BENCHMARK.json`` agrees with it).
"""

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20  # BENCHMARK.json's run_seconds

# One-sentence reasons, recorded with every run.
WORKLOAD_REASONS = {
    "dims_sparse": "Low-dimension permuted extremal classes make the downward "
                   "subset search test nearly every large subset, so project and "
                   "peel call counts set the time.",
    "sweep_dense": "Dense random classes have DS dimension near n, so the search "
                   "stops early and projection size, peel depth and per-class "
                   "overhead set the time.",
    "loo": "Leave-one-out cells where the sample forces most predictions (pattern "
           "rebuild) next to cells with n >> m where most are oriented (flow).",
    "cert": "Certificates three ways: span (big-integer elimination), replay "
            "(polynomial construction) and verify (re-evaluation) of the replayed files.",
}

# (name, unit, better, definition).  Every run with --trace 0 reports all of them.
END_TO_END = (
    ("wall_s", "s", "lower",
     "median over passes of the wall time of one pass over the workload's op list"),
    ("cpu_s", "s", "lower",
     "median over passes of the user+system CPU time of one pass (getrusage)"),
    ("op_p50_ms", "ms", "lower", "median op latency over all ops of the run"),
    ("op_tail_ms", "ms", "lower",
     "highest op-latency percentile with at least 10 ops beyond it"),
    ("setup_s", "s", "lower",
     "median over set-ups of importing pseudocube (fresh interpreter) plus "
     "generating and writing one pass's inputs"),
    ("peak_rss_mb", "MiB", "lower", "ru_maxrss of the run's process"),
)

# Printed with every untraced run but not gated: it is 0 whenever the run is
# correct, and a gated metric must never be 0.
FAIL_RATIO = ("fail_ratio", "1",
              "ops that exited nonzero or failed their output check / ops attempted")

# (name, unit, should move).  Per-layer values are per pass (run total /
# passes) and cover the set-up phase as well as the ops.
PER_LAYER = (
    ("classes.project.calls", "count",
     "wall_s/cpu_s on dims_sparse; no rise on sweep_dense"),
    ("classes.project.self_s", "s",
     "wall_s/cpu_s on dims_sparse; no rise on sweep_dense"),
    ("classes.HypothesisClass.constructed", "count",
     "wall_s on dims_sparse and sweep_dense"),
    ("classes.HypothesisClass.validated_patterns", "count",
     "wall_s on dims_sparse and sweep_dense"),
    ("classes.HypothesisClass.self_s", "s",
     "wall_s on dims_sparse and sweep_dense"),
    ("classes.parse_class.self_s", "s", "setup_s; wall_s on sweep_dense"),
    ("classes.random_class.self_s", "s", "setup_s; wall_s on sweep_dense"),
    ("dims.ds_dimension.calls", "count", "wall_s on dims_sparse"),
    ("dims.ds_dimension.self_s", "s", "wall_s on dims_sparse"),
    ("dims.natarajan_dimension.self_s", "s", "wall_s on dims_sparse"),
    ("dims.natarajan_shattered.calls", "count", "wall_s on dims_sparse"),
    ("dims.exponential_dimension.self_s", "s", "wall_s on dims_sparse"),
    ("dims.max_pseudocube_core.calls", "count",
     "wall_s on dims_sparse (call count) and sweep_dense (peel depth)"),
    ("dims.max_pseudocube_core.self_s", "s",
     "wall_s on dims_sparse (call count) and sweep_dense (peel depth)"),
    ("dims.max_pseudocube_core.patterns_in", "count",
     "wall_s on dims_sparse (call count) and sweep_dense (peel depth)"),
    ("dims.max_pseudocube_core.patterns_removed", "count",
     "wall_s on dims_sparse (call count) and sweep_dense (peel depth)"),
    ("bounds.verify_sauer.calls", "count", "wall_s on sweep_dense; setup_s"),
    ("bounds.verify_sauer.self_s", "s", "wall_s on sweep_dense; setup_s"),
    ("bounds.extremal_class.self_s", "s", "wall_s on sweep_dense; setup_s"),
    ("oig.min_max_orientation_indexed.calls", "count",
     "op_tail_ms and wall_s on loo, oriented cells only"),
    ("oig.min_max_orientation_indexed.self_s", "s",
     "op_tail_ms and wall_s on loo, oriented cells only"),
    ("oig.flow_networks", "count",
     "op_tail_ms and wall_s on loo, oriented cells only"),
    ("oig.flow_demand", "count",
     "op_tail_ms and wall_s on loo, oriented cells only"),
    ("listlearn.predict_one_inclusion.calls", "count",
     "wall_s and op_p50_ms on loo"),
    ("listlearn.predict_one_inclusion.self_s", "s",
     "wall_s and op_p50_ms on loo"),
    ("listlearn.predict.forced", "count", "wall_s and op_p50_ms on loo"),
    ("listlearn.predict.oriented_share", "1", "wall_s and op_p50_ms on loo"),
    ("listlearn.loo_experiment.self_s", "s", "wall_s and op_p50_ms on loo"),
    ("polycert.rank_bareiss.calls", "count", "op_tail_ms on cert"),
    ("polycert.rank_bareiss.self_s", "s", "op_tail_ms on cert"),
    ("polycert.rank_bareiss.cells", "count", "op_tail_ms on cert"),
    ("polycert.spanning_certificate.self_s", "s", "op_tail_ms on cert"),
    ("polycert.monomial_set.self_s", "s", "op_tail_ms on cert"),
    ("polycert.construct_q.self_s", "s", "wall_s and peak_rss_mb on cert"),
    ("polycert.RationalPolynomial.evaluate.calls", "count",
     "wall_s and peak_rss_mb on cert"),
    ("polycert.RationalPolynomial.evaluate.self_s", "s",
     "wall_s and peak_rss_mb on cert"),
    ("polycert.verify_certificate.self_s", "s", "wall_s and peak_rss_mb on cert"),
    ("polycert.load_certificate.self_s", "s", "wall_s and peak_rss_mb on cert"),
    ("polycert.serialize_certificate.self_s", "s",
     "wall_s and peak_rss_mb on cert"),
    ("cli.main.self_s", "s", "op_p50_ms on every workload"),
    ("trace.overhead_s", "s", "none; traced minus untraced wall_s"),
    ("trace.uncovered_s", "s",
     "none; op time outside every span, so harness time inside an op shows"),
)

# A time that reads 0 on every run of a workload cannot be told from a value
# that was never measured, so the final JSON line (and BENCHMARK.json) carries
# the counts and shares of every layer but only the times that every workload
# exercises.  The other times are printed and kept in the run record.
TIMES_ON_EVERY_WORKLOAD = frozenset((
    "classes.project.self_s", "classes.HypothesisClass.self_s",
    "dims.ds_dimension.self_s", "dims.max_pseudocube_core.self_s",
    "cli.main.self_s", "trace.overhead_s", "trace.uncovered_s",
))

JSON_PER_LAYER = tuple(m for m in PER_LAYER
                       if m[1] != "s" or m[0] in TIMES_ON_EVERY_WORKLOAD)
