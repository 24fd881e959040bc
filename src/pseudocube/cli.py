"""Command-line surface.

Subcommands: dim, bound, gen, oig, cert, learn, sweep, verify.  Every report
opens with the tool version and the fully resolved parameters, and identical
invocations (including seeds) produce byte-identical output.  Every report is
written by ``_report``, which alone decides between the ``# tool=pseudocube``
header line followed by the report's lines and, under --format json, one JSON
envelope; only class and certificate files (``gen``, ``oig shift`` and
``fixpoint``, ``cert replay`` without --output) are written without one.
Each call builds the parser for its own argv (``_build_parser``): when the
first word names a subcommand, only that subparser is registered, and
otherwise all eight are, for the top-level help and errors; the help, usage
and error text is the same either way.  Importing this module loads
``classes``, ``dims`` and ``bounds``, which ``dim``, ``bound``, ``gen``,
``sweep`` and ``verify`` use on every run, and not ``json``; ``oig``,
``polycert``, ``listlearn``, ``fractions`` and ``json`` are imported inside
the functions that use them (``json`` where a certificate, ``--format json``
or a JSON class file is read or written), so a run pays for no module it
never calls.  No command loads ``dataclasses`` or its ``inspect``.  Exit
status: 0 on success, 1 when a verified inequality fails (an implementation
bug, so it is reported loudly), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .classes import (CapExceeded, ClassFormatError, DEFAULT_ENUMERATION_CAP,
                      HypothesisClass, _check_random_class, iter_all_classes,
                      parse_class, random_class, serialize_class,
                      serialize_class_json)
from .dims import (GRAPH_DIM_BUDGET, ListClass, ds_dimension, exponential_dimension,
                   graph_dimension, max_pseudocube_core, natarajan_dimension)
from .bounds import (BoundViolation, appendix_check, ds_sauer_bound, extremal_class,
                     natarajan_sauer_bound, turan_reference, verify_sauer)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
_LEARN_M = 100  # the default sample size of learn loo and learn uc

# (command, action) pairs that print text only, although their subcommand
# takes --format
_TEXT_ONLY = {("oig", "shift"), ("oig", "fixpoint"), ("oig", "density"),
             ("oig", "orient"), ("learn", "uc")}


def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low``, else a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _emit(out, text: str) -> None:
    out.write(text if text.endswith("\n") else text + "\n")


def _report(args, out, result, *lines) -> None:
    """Write one report of ``args.command``: under --format json the envelope
    of ``result``, else the header line with every resolved parameter and
    then ``lines``.  Text-only reports pass None as ``result``."""
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "command") and v is not None}
    if getattr(args, "format", "text") == "json":
        import json
        out.write(json.dumps({"tool": "pseudocube", "version": __version__,
                              "command": args.command, "config": config, "result": result},
                             separators=(",", ":"), default=str) + "\n")
        return
    params = " ".join(f"{k}={v}" for k, v in config.items())
    _emit(out, f"# tool=pseudocube version={__version__} command={args.command} {params}")
    for line in lines:
        _emit(out, line)


def _read_class(path: str) -> HypothesisClass:
    if path == "-":
        return parse_class(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_class(fh.read())


# ---------------------------------------------------------------------------
# dim
# ---------------------------------------------------------------------------

def _cmd_dim(args, out) -> int:
    h = _read_class(args.input)
    if args.kind == "ds":
        res = ds_dimension(h, args.ell)
    elif args.kind == "nat":
        res = natarajan_dimension(h, args.ell)
    elif args.kind == "exp":
        res = exponential_dimension(h, args.ell)
    elif args.ell < 1:
        raise ValueError(f"ell must be >= 1, got {args.ell}")
    else:
        res = graph_dimension(ListClass.from_hypothesis_class(h), budget=args.cap)
    witness = ",".join(str(i) for i in res.witness)
    _report(args, out, {"value": res.value, "witness": list(res.witness)},
            f"value={res.value} witness=[{witness}]")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def _cmd_bound(args, out) -> int:
    fn = ds_sauer_bound if args.kind == "ds" else natarajan_sauer_bound
    value = fn(args.n, args.k, args.ell, args.d)
    _report(args, out, {"value": value}, f"value={value}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _cmd_gen(args, out) -> int:
    if args.kind == "extremal":
        h = extremal_class(args.n, args.k, args.ell, args.d, cap=args.cap)
    else:
        h = random_class(args.n, args.k, args.density, args.seed, cap=args.cap)
    text = serialize_class_json(h) if args.format == "json" else serialize_class(h)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oig
# ---------------------------------------------------------------------------

def _cmd_oig(args, out) -> int:
    from .oig import (build_oig, degree_stats, format_orientation, is_downward_closed,
                      max_density_bruteforce, orient_minmax, outdegrees, shift,
                      shift_fixed_point)
    h = _read_class(args.input)
    if args.action == "stats":
        g = build_oig(h)
        st = degree_stats(g, args.ell)
        sizes = sorted(len(e) for e in g.edges)
        top = max(st.degrees.values(), default=0)
        _report(args, out, {"vertices": len(g.vertices), "edges": len(g.edges),
                            "savd": str(st.savd), "avd": str(st.avd), "max_ell_degree": top},
                f"vertices={len(g.vertices)} edges={len(g.edges)} edge_sizes={sizes}",
                f"savd={st.savd} avd={st.avd} max_ell_degree={top}")
        return EXIT_OK
    if args.action == "shift":
        _emit(out, serialize_class(shift(h, args.dir)).rstrip("\n"))
        return EXIT_OK
    if args.action == "fixpoint":
        fixed = shift_fixed_point(h)
        _emit(out, serialize_class(fixed).rstrip("\n"))
        return EXIT_OK if is_downward_closed(fixed) else EXIT_VERIFY_FAILED
    if args.action == "density":
        md = max_density_bruteforce(h, args.ell, cap=args.cap)
        _report(args, out, None, f"max_density={md}")
        return EXIT_OK
    g = build_oig(h)
    sigma, cstar = orient_minmax(g, args.ell)
    _report(args, out, None, f"cstar={cstar} max_outdegree={max(outdegrees(g, sigma).values())}",
            format_orientation(g, sigma))
    return EXIT_OK


# ---------------------------------------------------------------------------
# cert
# ---------------------------------------------------------------------------

def _cmd_cert(args, out) -> int:
    from .polycert import (PeelingError, VerifyReport, construct_q, load_certificate,
                           serialize_certificate, spanning_certificate,
                           verify_certificate)
    if args.action == "verify":
        if args.cert is None:
            raise ValueError("cert verify needs --cert")
        with open(args.cert, "r", encoding="utf-8") as fh:
            cert, embedded = load_certificate(fh.read())
        h = _read_class(args.input) if args.input else embedded
        report = (verify_certificate(cert, h) if h == embedded else
                  VerifyReport(ok=False, failures=("certificate class differs from --input class",)))
        _report(args, out, None, f"ok={report.ok}",
                *(f"failure: {msg}" for msg in report.failures))
        return EXIT_OK if report.ok else EXIT_VERIFY_FAILED
    if args.input is None:
        raise ValueError(f"cert {args.action} needs --input")
    h = _read_class(args.input)
    if not 1 <= args.ell <= h.k:
        # before ds_dimension, which would warn about an ell past k first
        raise ValueError(f"need 1 <= ell <= k, got ell={args.ell}, k={h.k}")
    d = args.d if args.d is not None else ds_dimension(h, args.ell).value
    if args.action == "span":
        # a computed d is the DS dimension already; only a given one is checked
        rep = spanning_certificate(h, args.ell, d, check_dim=args.d is not None)
        _report(args, out, None, f"rank={rep.rank} class_size={rep.class_size} "
                                 f"monomials={rep.monomial_count} spans={rep.spans}")
        return EXIT_OK if rep.spans else EXIT_VERIFY_FAILED
    try:
        cert = construct_q(h, args.ell, d)
    except PeelingError as exc:
        # a --d below the DS dimension: main reports it as a usage error
        raise ValueError(str(exc)) from None
    text = serialize_certificate(cert, h)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _report(args, out, None, f"written={args.output} steps={len(cert.ordering)}")
    else:
        out.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

def _cmd_learn(args, out) -> int:
    from fractions import Fraction
    from .listlearn import (ExperimentConfig, loo_experiment, make_task, pac_learn,
                            pac_sample_plan, uc_experiment)
    h = _read_class(args.input)
    weights = [float(w) for w in args.weights.split(",")] if args.weights else None
    task = make_task(h, args.target_index, weights=weights)
    cfg = ExperimentConfig(epsilon=args.epsilon, delta=args.delta,
                           m=_LEARN_M if args.m is None else args.m,
                           trials=args.trials, seed=args.seed, ell=args.ell)
    if args.m is None and args.action == "pac":
        # the smallest sample the learner can partition: the provider keeps
        # every drawn label, and no list is wider than k
        p, chunk, val = pac_sample_plan(task, cfg, task.k)
        cfg = ExperimentConfig(cfg.epsilon, cfg.delta, p * chunk + val,
                               cfg.trials, cfg.seed, cfg.ell)
    args.m = cfg.m
    if args.action == "loo":
        rep = loo_experiment(task, cfg, provider_kind=args.provider,
                             keep_trials=args.verbose, jobs=args.jobs)
        ok = float(rep.empirical_error) <= rep.bound
        result = {"empirical_error": str(rep.empirical_error),
                  "bound": rep.bound, "d": rep.d_used,
                  "ell_prime": rep.ell_prime_used,
                  "ell_prime_theory": rep.ell_prime_theory,
                  "forced_share": str(Fraction(rep.forced_trials, rep.trials)),
                  "pass": ok}
        if args.verbose:
            result["per_trial"] = [int(x) for x in rep.per_trial]
        _report(args, out, result,
                "ell,d,ell_prime,m,trials,empirical_error,bound,pass",
                f"{rep.ell},{rep.d_used},{rep.ell_prime_used},{rep.m},"
                f"{rep.trials},{rep.empirical_error},{rep.bound:.6g},{ok}",
                f"# context: generic first-stage list width would be "
                f"{rep.ell_prime_theory:.6g}")
        return EXIT_OK if ok else EXIT_VERIFY_FAILED
    if args.action == "pac":
        rep = pac_learn(task, cfg, provider_kind=args.provider)
        ok = rep.test_error <= cfg.epsilon
        _report(args, out, {"test_error": rep.test_error,
                            "population_error": str(rep.population_error),
                            "chosen": rep.chosen, "chunks": rep.chunks,
                            "chunk_size": rep.chunk_size, "val_size": rep.val_size,
                            "pass": ok},
                "epsilon,delta,m,test_error,population_error,chosen,pass",
                f"{cfg.epsilon},{cfg.delta},{cfg.m},{rep.test_error:.6g},"
                f"{rep.population_error},{rep.chosen},{ok}")
        return EXIT_OK
    lc = ListClass.from_hypothesis_class(h)
    rep = uc_experiment(lc, task, cfg)
    _report(args, out, None, f"sup_deviation={rep.sup_deviation:.6g} graph_dim={rep.g_dim} "
                             f"m={rep.m} trials={rep.trials}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep and verify: one corpus, a check per class
# ---------------------------------------------------------------------------

def _check_ell(ell: int, k: int) -> None:
    if not 1 <= ell < k:
        raise ValueError(f"need 1 <= ell < k, got ell={ell}, k={k}")


def _corpus(args, grid: bool):
    """The (id, class) pairs of a run: every nonempty class over [k]^n
    numbered from 1, or the nonempty draws of --count seeds keyed by seed.
    The parameters are checked on the call, before anything is drawn."""
    if args.n < 1 or args.k < 2:
        raise ValueError(f"need n >= 1 and k >= 2, got n={args.n} k={args.k}")
    if grid:
        return enumerate(iter_all_classes(args.n, args.k), start=1)
    _check_random_class(args.n, args.k, args.density)
    return ((seed, h) for seed in range(args.seed, args.seed + args.count)
            for h in [random_class(args.n, args.k, args.density, seed)] if not h.is_empty)


def _sweep_row(idx, h, ell):
    try:
        rep = verify_sauer(h, ell)
    except BoundViolation as exc:
        rep = exc.report
    return (f"{idx},{h.n},{h.k},{ell},{rep.d_used},{rep.class_size},"
            f"{rep.ds_bound},{rep.nat_bound},{rep.slack},{rep.holds}", rep.holds)


def _cmd_sweep(args, out) -> int:
    corpus = _corpus(args, args.action == "exhaustive")
    _check_ell(args.ell, args.k)
    items = [(idx, h, args.ell) for idx, h in corpus]
    if args.jobs > 1:
        import multiprocessing
        # output order stays canonical: map preserves item order
        with multiprocessing.Pool(args.jobs) as pool:
            results = pool.starmap(_sweep_row, items, chunksize=64)
    else:
        results = [_sweep_row(*item) for item in items]
    _report(args, out, None, "id,n,k,ell,d,size,ds_bound,nat_bound,slack,holds",
            *(row for row, _ in results))
    return EXIT_OK if all(holds for _, holds in results) else EXIT_VERIFY_FAILED


def _sauer_checks(key, h, ell):
    # a failed inequality raises BoundViolation, which exits 1
    for j in range(1, h.k):
        verify_sauer(h, j)
    return h.k - 1, 0, 0


def _shiftlaws_checks(seed, h, ell):
    from .oig import build_oig, degree_stats, is_downward_closed, shift, shift_fixed_point
    # one check per class, at an ell and a direction the seed picks
    j = 1 + seed % (h.k - 1)
    shifted, fixed = shift(h, seed % h.n), shift_fixed_point(h)
    ok = (degree_stats(build_oig(shifted), j).savd >= degree_stats(build_oig(h), j).savd
          and exponential_dimension(shifted, j).value <= exponential_dimension(h, j).value
          and is_downward_closed(fixed) and len(fixed) == len(h))
    return 1, int(not ok), 0


def _corollary_checks(key, h, ell):
    # at every ell: exponential dimension <= 40 ell d max(log k, 1), d the DS dimension
    failures = sum(exponential_dimension(h, j).value
                   > 40 * j * ds_dimension(h, j).value * max(math.log(h.k), 1.0)
                   for j in range(1, h.k))
    return h.k - 1, failures, 0


def _appendix_checks(key, h, ell):
    # at n=2, degree peeling empties the bipartite graph iff the core is empty
    ells = range(1, h.k) if h.n == 2 else ()
    peeled = [j for j in ells if max_pseudocube_core(h, j + 1).core.is_empty]
    failures = sum(len(h) > j * (2 * h.k - j) for j in peeled)
    size = len(h) if ell in peeled else 0
    # grid classes are nonempty and the coordinate is the default, so the
    # only ValueError is the precondition: DS dimension above 1
    try:
        rep = appendix_check(h)
    except ValueError:
        return len(ells), failures, size
    return len(ells) + 1, failures + (not (rep.acyclic and rep.holds)), size


# A verify target checks one class: (id, class, --ell) -> (checks, failures,
# the size it offers appendix's largest_peelable_size_at_ell, else 0)
_CHECKS = {"sauer": _sauer_checks, "shiftlaws": _shiftlaws_checks,
           "corollary": _corollary_checks, "appendix": _appendix_checks}


def _verify_input(args, out) -> int:
    h = _read_class(args.input)
    _check_ell(args.ell, h.k)
    # an empty class or a wrong claimed d is rejected here, before the header
    verify_sauer(h, args.ell, claimed_d=args.d)
    # the header reports the class that was read, not the --n and --k defaults
    args.n, args.k = h.n, h.k
    _report(args, out, None, "sauer: ok")
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    # inputs are checked before the header, so a rejected run prints nothing
    if args.input is not None:
        if args.target != "sauer":
            raise ValueError(f"verify {args.target}: --input is read only by verify sauer")
        return _verify_input(args, out)
    if args.d is not None:
        raise ValueError(f"verify {args.target}: --d is read only by verify sauer --input")
    # sauer and appendix run on the grid, shiftlaws and corollary on random draws
    corpus = _corpus(args, args.target in ("sauer", "appendix"))
    if args.target == "appendix":
        _check_ell(args.ell, args.k)
    _report(args, out, None)
    checked = failures = largest = 0
    for key, h in corpus:
        c, f, size = _CHECKS[args.target](key, h, args.ell)
        checked, failures, largest = checked + c, failures + f, max(largest, size)
    _emit(out, f"sauer: ok checks={checked}" if args.target == "sauer" else
               f"{args.target}: checked={checked} failures={failures}")
    if args.target == "appendix" and args.n == 2:
        # descriptive scale comparison only, nothing asserted against it
        _emit(out, f"largest_peelable_size_at_ell={largest} "
                   f"turan_scale={turan_reference(args.k, args.ell):.6g}")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _common(p) -> None:
    p.add_argument("--input", required=True, help="class file path, or - for stdin")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")


def _dim_arguments(p) -> None:
    p.add_argument("kind", choices=("ds", "nat", "exp", "graph"))
    _common(p)
    p.add_argument("--cap", type=int, default=GRAPH_DIM_BUDGET,
                   help="graph dimension: pivot-search budget for each coordinate "
                        "set (reset per set, not a total)")
    p.set_defaults(func=_cmd_dim)


def _bound_arguments(p) -> None:
    p.add_argument("kind", choices=("ds", "nat"))
    for name in ("--n", "--k", "--ell", "--d"):
        p.add_argument(name, type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_bound)


def _gen_arguments(p) -> None:
    p.add_argument("kind", choices=("extremal", "random"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--output")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_gen)


def _oig_arguments(p) -> None:
    from .oig import DENSITY_BRUTEFORCE_CAP
    p.add_argument("action", choices=("stats", "shift", "fixpoint", "orient", "density"))
    _common(p)
    p.add_argument("--dir", type=int, default=0)
    p.add_argument("--cap", type=int, default=DENSITY_BRUTEFORCE_CAP)
    p.set_defaults(func=_cmd_oig)


def _cert_arguments(p) -> None:
    p.add_argument("action", choices=("span", "replay", "verify"))
    p.add_argument("--input")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--d", type=int)
    p.add_argument("--cert", help="certificate file (verify)")
    p.add_argument("--output", help="certificate file to write (replay)")
    # no --format: cert prints text only; the header still records it
    p.set_defaults(func=_cmd_cert, format="text")


def _learn_arguments(p) -> None:
    p.add_argument("action", choices=("loo", "pac", "uc"))
    _common(p)
    p.add_argument("--target-index", type=int, default=0)
    p.add_argument("--weights", help="comma-separated instance weights")
    p.add_argument("--provider", choices=("full-alphabet", "sample-support"),
                   default="full-alphabet")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--m", type=int)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_learn)


def _sweep_arguments(p) -> None:
    p.add_argument("action", choices=("exhaustive", "random"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--count", type=_int_at_least(0), default=100)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=_cmd_sweep)


def _verify_arguments(p) -> None:
    p.add_argument("target", choices=("sauer", "shiftlaws", "corollary", "appendix"))
    p.add_argument("--input")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--d", type=int)
    p.add_argument("--count", type=_int_at_least(0), default=200)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)


_SUBCOMMANDS = (
    ("dim", "compute a dimension of a class", _dim_arguments),
    ("bound", "evaluate a closed-form size bound", _bound_arguments),
    ("gen", "generate a class file", _gen_arguments),
    ("oig", "one-inclusion graph operations", _oig_arguments),
    ("cert", "size-bound certificates", _cert_arguments),
    ("learn", "list-learning experiments", _learn_arguments),
    ("sweep", "bound verification sweeps (CSV)", _sweep_arguments),
    ("verify", "verify the proved inequalities", _verify_arguments),
)


_NAMES = tuple(name for name, _, _ in _SUBCOMMANDS)
# every name in braces, as the usage line shows them when all eight subparsers
# are registered; a parser with one registered shows them through this metavar
_METAVAR = "{" + ",".join(_NAMES) + "}"


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``, with the arguments of the invoked subcommand
    only.  Top-level options come before the subcommand, so when ``argv[0]``
    names one, that subparser is the only one registered and the usage line
    lists the names through the metavar.  Otherwise every subparser is
    registered with its help string and no metavar, as the top-level help
    and the missing- or invalid-command errors print them, and the first
    word that is not an option gets its arguments if it names a subcommand."""
    parser = argparse.ArgumentParser(
        prog="pseudocube",
        description="Exact dimensions, sharp size bounds, orientations, and "
                    "list-learning experiments for finite multiclass classes.")
    parser.add_argument("--version", action="version", version=__version__)
    # the top-level options take no value, so the first word that is not an
    # option names the subcommand
    command = next((a for a in argv if not a.startswith("-")), None)
    alone = argv[:1] == [command] and command in _NAMES
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=_METAVAR if alone else None)
    for name, help_text, add_arguments in _SUBCOMMANDS:
        if alone and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        if name == command:
            add_arguments(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    args = parser.parse_args(argv)
    if (args.command, getattr(args, "action", None)) in _TEXT_ONLY and args.format == "json":
        parser.error(f"{args.command} {args.action} prints text only; "
                     "--format json is not supported")
    try:
        return args.func(args, sys.stdout)
    except BoundViolation as exc:
        print(f"VERIFICATION FAILURE: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ClassFormatError, CapExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
