"""Command-line surface.

Subcommands: dim, bound, gen, oig, cert, learn, sweep, verify.  Every report
opens with the tool version and the fully resolved parameters, and identical
invocations (including seeds) produce byte-identical output.  Exit status:
0 on success, 1 when a verified inequality fails (an implementation bug, so
it is reported loudly), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
from fractions import Fraction

from . import __version__
from .classes import (CapExceeded, ClassFormatError, DEFAULT_ENUMERATION_CAP,
                      HypothesisClass, iter_all_classes, parse_class,
                      random_class, serialize_class, serialize_class_json)
from .dims import (ListClass, ds_dimension, exponential_dimension,
                   graph_dimension, max_pseudocube_core, natarajan_dimension)
from .bounds import (BoundViolation, appendix_check, bipartite_peel,
                     ds_sauer_bound, extremal_class, natarajan_sauer_bound,
                     turan_reference, verify_sauer)
from .oig import (build_oig, degree_stats, format_orientation, is_downward_closed,
                  max_density_bruteforce, orient_minmax, outdegrees, shift,
                  shift_fixed_point)
from .polycert import (PeelingError, construct_q, load_certificate,
                       serialize_certificate, spanning_certificate,
                       verify_certificate)
from .listlearn import (ExperimentConfig, loo_experiment, make_task,
                        pac_learn, uc_experiment)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

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


def _resolved(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "command") and v is not None}


def _header(args, command: str) -> str:
    params = " ".join(f"{k}={v}" for k, v in _resolved(args).items())
    return f"# tool=pseudocube version={__version__} command={command} {params}"


def _json_report(args, command: str, result) -> str:
    return json.dumps({"tool": "pseudocube", "version": __version__,
                       "command": command, "config": _resolved(args), "result": result},
                      separators=(",", ":"), default=str) + "\n"


def _read_class(path: str) -> HypothesisClass:
    if path == "-":
        return parse_class(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_class(fh.read())


def _emit(out, text: str) -> None:
    out.write(text if text.endswith("\n") else text + "\n")


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
    if args.format == "json":
        _emit(out, _json_report(args, "dim",
                                {"value": res.value, "witness": list(res.witness)}))
    else:
        _emit(out, _header(args, "dim"))
        _emit(out, f"value={res.value} witness=[{witness}]")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def _cmd_bound(args, out) -> int:
    fn = ds_sauer_bound if args.kind == "ds" else natarajan_sauer_bound
    value = fn(args.n, args.k, args.ell, args.d)
    if args.format == "json":
        _emit(out, _json_report(args, "bound", {"value": value}))
    else:
        _emit(out, _header(args, "bound"))
        _emit(out, f"value={value}")
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
    h = _read_class(args.input)
    if args.action == "stats":
        g = build_oig(h)
        st = degree_stats(g, args.ell)
        sizes = sorted(len(e) for e in g.edges)
        if args.format == "json":
            _emit(out, _json_report(args, "oig", {
                "vertices": len(g.vertices), "edges": len(g.edges),
                "savd": str(st.savd), "avd": str(st.avd),
                "max_ell_degree": max(st.degrees.values(), default=0)}))
        else:
            _emit(out, _header(args, "oig"))
            _emit(out, f"vertices={len(g.vertices)} edges={len(g.edges)} "
                       f"edge_sizes={sizes}")
            _emit(out, f"savd={st.savd} avd={st.avd} "
                       f"max_ell_degree={max(st.degrees.values(), default=0)}")
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
        _emit(out, _header(args, "oig"))
        _emit(out, f"max_density={md}")
        return EXIT_OK
    g = build_oig(h)
    sigma, cstar = orient_minmax(g, args.ell)
    _emit(out, _header(args, "oig"))
    _emit(out, f"cstar={cstar} max_outdegree={max(outdegrees(g, sigma).values())}")
    out.write(format_orientation(g, sigma))
    return EXIT_OK


# ---------------------------------------------------------------------------
# cert
# ---------------------------------------------------------------------------

def _cmd_cert(args, out) -> int:
    if args.action == "verify":
        if args.cert is None:
            raise ValueError("cert verify needs --cert")
        with open(args.cert, "r", encoding="utf-8") as fh:
            cert, embedded = load_certificate(fh.read())
        h = _read_class(args.input) if args.input else embedded
        if args.input and h != embedded:
            _emit(out, "certificate class differs from --input class")
            return EXIT_VERIFY_FAILED
        report = verify_certificate(cert, h)
        _emit(out, _header(args, "cert"))
        _emit(out, f"ok={report.ok}")
        for msg in report.failures:
            _emit(out, f"failure: {msg}")
        return EXIT_OK if report.ok else EXIT_VERIFY_FAILED
    h = _read_class(args.input)
    d = args.d if args.d is not None else ds_dimension(h, args.ell).value
    if args.action == "span":
        # a computed d is the DS dimension already; only a given one is checked
        rep = spanning_certificate(h, args.ell, d, check_dim=args.d is not None)
        _emit(out, _header(args, "cert"))
        _emit(out, f"rank={rep.rank} class_size={rep.class_size} "
                   f"monomials={rep.monomial_count} spans={rep.spans}")
        return EXIT_OK if rep.spans else EXIT_VERIFY_FAILED
    cert = construct_q(h, args.ell, d)
    text = serialize_certificate(cert, h)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(out, _header(args, "cert"))
        _emit(out, f"written={args.output} steps={len(cert.ordering)}")
    else:
        out.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

def _cmd_learn(args, out) -> int:
    h = _read_class(args.input)
    weights = [float(w) for w in args.weights.split(",")] if args.weights else None
    task = make_task(h, args.target_index, weights=weights)
    cfg = ExperimentConfig(epsilon=args.epsilon, delta=args.delta, m=args.m,
                           trials=args.trials, seed=args.seed, ell=args.ell)
    if args.action == "loo":
        rep = loo_experiment(task, cfg, provider_kind=args.provider,
                             keep_trials=args.verbose, jobs=args.jobs)
        ok = float(rep.empirical_error) <= rep.bound
        if args.format == "json":
            result = {"empirical_error": str(rep.empirical_error),
                      "bound": rep.bound, "d": rep.d_used,
                      "ell_prime": rep.ell_prime_used,
                      "ell_prime_theory": rep.ell_prime_theory,
                      "forced_share": str(Fraction(rep.forced_trials, rep.trials)),
                      "pass": ok}
            if args.verbose:
                result["per_trial"] = [int(x) for x in rep.per_trial]
            _emit(out, _json_report(args, "learn", result))
        else:
            _emit(out, _header(args, "learn"))
            _emit(out, "ell,d,ell_prime,m,trials,empirical_error,bound,pass")
            _emit(out, f"{rep.ell},{rep.d_used},{rep.ell_prime_used},{rep.m},"
                       f"{rep.trials},{rep.empirical_error},{rep.bound:.6g},{ok}")
            _emit(out, f"# context: generic first-stage list width would be "
                       f"{rep.ell_prime_theory:.6g}")
        return EXIT_OK if ok else EXIT_VERIFY_FAILED
    if args.action == "pac":
        rep = pac_learn(task, cfg, provider_kind=args.provider)
        ok = rep.test_error <= cfg.epsilon
        if args.format == "json":
            _emit(out, _json_report(args, "learn", {
                "test_error": rep.test_error,
                "population_error": str(rep.population_error),
                "chosen": rep.chosen, "chunks": rep.chunks,
                "chunk_size": rep.chunk_size, "val_size": rep.val_size,
                "pass": ok}))
        else:
            _emit(out, _header(args, "learn"))
            _emit(out, "epsilon,delta,m,test_error,population_error,chosen,pass")
            _emit(out, f"{cfg.epsilon},{cfg.delta},{cfg.m},{rep.test_error:.6g},"
                       f"{rep.population_error},{rep.chosen},{ok}")
        return EXIT_OK
    lc = ListClass.from_hypothesis_class(h)
    rep = uc_experiment(lc, task, cfg)
    _emit(out, _header(args, "learn"))
    _emit(out, f"sup_deviation={rep.sup_deviation:.6g} graph_dim={rep.g_dim} "
               f"m={rep.m} trials={rep.trials}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_row(item):
    idx, h, ell = item
    try:
        rep = verify_sauer(h, ell)
        violated = False
    except BoundViolation as exc:
        rep = exc.report
        violated = True
    return (f"{idx},{h.n},{h.k},{ell},{rep.d_used},{rep.class_size},"
            f"{rep.ds_bound},{rep.nat_bound},{rep.slack},{rep.holds}", violated)


def _cmd_sweep(args, out) -> int:
    if args.action == "exhaustive":
        classes = list(enumerate(iter_all_classes(args.n, args.k), start=1))
    else:
        classes = [(seed, random_class(args.n, args.k, args.density, seed))
                   for seed in range(args.seed, args.seed + args.count)]
        classes = [(i, h) for i, h in classes if not h.is_empty]
    items = [(idx, h, args.ell) for idx, h in classes]
    if args.jobs > 1:
        # output order stays canonical: map preserves item order
        with multiprocessing.Pool(args.jobs) as pool:
            results = pool.map(_sweep_row, items, chunksize=64)
    else:
        results = [_sweep_row(item) for item in items]
    _emit(out, _header(args, "sweep"))
    _emit(out, "id,n,k,ell,d,size,ds_bound,nat_bound,slack,holds")
    violations = 0
    for row, violated in results:
        violations += violated
        _emit(out, row)
    return EXIT_VERIFY_FAILED if violations else EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args, out) -> int:
    _emit(out, _header(args, "verify"))
    failures = 0
    if args.target == "sauer":
        if args.input:
            verify_sauer(_read_class(args.input), args.ell, claimed_d=args.d)
            _emit(out, "sauer: ok")
        else:
            count = 0
            for h in iter_all_classes(args.n, args.k):
                for ell in range(1, args.k):
                    verify_sauer(h, ell)
                    count += 1
            _emit(out, f"sauer: ok checks={count}")
    elif args.target == "shiftlaws":
        checked = 0
        for seed in range(args.seed, args.seed + args.count):
            h = random_class(args.n, args.k, args.density, seed)
            if h.is_empty:
                continue
            ell = 1 + seed % (args.k - 1)
            i = seed % args.n
            savd_before = degree_stats(build_oig(h), ell).savd
            shifted = shift(h, i)
            savd_after = degree_stats(build_oig(shifted), ell).savd
            de_before = exponential_dimension(h, ell).value
            de_after = exponential_dimension(shifted, ell).value
            fixed = shift_fixed_point(h)
            ok = (savd_after >= savd_before and de_after <= de_before
                  and is_downward_closed(fixed) and len(fixed) == len(h))
            failures += not ok
            checked += 1
        _emit(out, f"shiftlaws: checked={checked} failures={failures}")
    elif args.target == "corollary":
        checked = 0
        for seed in range(args.seed, args.seed + args.count):
            h = random_class(args.n, args.k, args.density, seed)
            if h.is_empty:
                continue
            for ell in range(1, args.k):
                de = exponential_dimension(h, ell).value
                dds = ds_dimension(h, ell).value
                limit = 40 * ell * dds * max(math.log(args.k), 1.0)
                failures += not de <= limit
                checked += 1
        _emit(out, f"corollary: checked={checked} failures={failures}")
    else:
        checked = 0
        max_success_size = 0
        for h in iter_all_classes(args.n, args.k):
            if args.n == 2:
                for ell in range(1, args.k):
                    peel = bipartite_peel(h, ell)
                    core_empty = max_pseudocube_core(h, ell + 1).core.is_empty
                    ok = peel.success == core_empty
                    if peel.success:
                        ok = ok and len(h) <= ell * (2 * args.k - ell)
                        if ell == args.ell:
                            max_success_size = max(max_success_size, len(h))
                    failures += not ok
                    checked += 1
            if ds_dimension(h, 1).value <= 1:
                rep = appendix_check(h)
                failures += not (rep.acyclic and rep.holds)
                checked += 1
        _emit(out, f"appendix: checked={checked} failures={failures}")
        if args.n == 2:
            # descriptive scale comparison only, nothing asserted against it
            _emit(out, f"largest_peelable_size_at_ell={max_success_size} "
                       f"turan_scale={turan_reference(args.k, args.ell):.6g}")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudocube",
        description="Exact dimensions, sharp size bounds, orientations, and "
                    "list-learning experiments for finite multiclass classes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, input_required=True):
        p.add_argument("--input", required=input_required,
                       help="class file path, or - for stdin")
        p.add_argument("--ell", type=int, default=1)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("dim", help="compute a dimension of a class")
    p.add_argument("kind", choices=("ds", "nat", "exp", "graph"))
    common(p)
    p.add_argument("--cap", type=int, default=2 ** 22,
                   help="graph dimension: pivot-search budget for each coordinate "
                        "set (reset per set, not a total)")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("bound", help="evaluate a closed-form size bound")
    p.add_argument("kind", choices=("ds", "nat"))
    for name in ("--n", "--k", "--ell", "--d"):
        p.add_argument(name, type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("gen", help="generate a class file")
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

    p = sub.add_parser("oig", help="one-inclusion graph operations")
    p.add_argument("action", choices=("stats", "shift", "fixpoint", "orient", "density"))
    common(p)
    p.add_argument("--dir", type=int, default=0)
    p.add_argument("--cap", type=int, default=14)
    p.set_defaults(func=_cmd_oig)

    p = sub.add_parser("cert", help="size-bound certificates")
    p.add_argument("action", choices=("span", "replay", "verify"))
    p.add_argument("--input")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--d", type=int)
    p.add_argument("--cert", help="certificate file (verify)")
    p.add_argument("--output", help="certificate file to write (replay)")
    # no --format: cert prints text only; the header still records it
    p.set_defaults(func=_cmd_cert, format="text")

    p = sub.add_parser("learn", help="list-learning experiments")
    p.add_argument("action", choices=("loo", "pac", "uc"))
    common(p)
    p.add_argument("--target-index", type=int, default=0)
    p.add_argument("--weights", help="comma-separated instance weights")
    p.add_argument("--provider", choices=("full-alphabet", "sample-support"),
                   default="full-alphabet")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("sweep", help="bound verification sweeps (CSV)")
    p.add_argument("action", choices=("exhaustive", "random"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--count", type=_int_at_least(0), default=100)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="verify the proved inequalities")
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

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if (args.command, getattr(args, "action", None)) in _TEXT_ONLY and args.format == "json":
        parser.error(f"{args.command} {args.action} prints text only; "
                     "--format json is not supported")
    try:
        return args.func(args, sys.stdout)
    except BoundViolation as exc:
        print(f"VERIFICATION FAILURE: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ClassFormatError, CapExceeded, OSError, PeelingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
