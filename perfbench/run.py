#!/usr/bin/env python3
"""The pseudocube benchmark.

    python3 perfbench/run.py --workload dims_sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One process, one caller, closed loop: each op is one in-process call of
``pseudocube.cli.main(argv)`` with stdout captured, and the next op starts
when the previous one returns (``--jobs`` is never used).  A run makes a fixed
number of passes, ``round(seconds / nominal pass time)``; each pass generates
fresh inputs from the seed (set-up, untimed) and then runs the workload's op
list once (timed).  Every op's exit status and output are checked.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` every op runs under span tracing and the last line reports the
per-layer metrics.  A traced run then replays the same ops untraced in a fresh
process, requires byte-identical stdout, and reports the difference in wall
time as ``trace.overhead_s``.  ``--all`` runs every workload both ways, each
in its own process, and writes the combined run record.

Inputs are written under ``.perfbench_work/`` and removed at the end; run
records and span files go to ``.perfbench_out/``.  Both are relative to the
checkout root, which is the parent of this file's directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import spec, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
DIGESTS = ROOT / "perfbench" / "digests.json"
SUBPROCESS_TIMEOUT = 170
OVERRUN = 2.5  # stop starting passes after this many times --seconds
IMPORT_PROBE = ("import time; t = time.perf_counter(); import pseudocube.cli; "
                "print(time.perf_counter() - t)")


class ProgramMissing(RuntimeError):
    """The checkout holds no pseudocube sources to benchmark."""


def load_program():
    """Import pseudocube from the checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "pseudocube" / "__init__.py").is_file():
        raise ProgramMissing(f"no pseudocube sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import pseudocube
    import pseudocube.cli  # noqa: F401
    if Path(pseudocube.__file__).resolve().parent != (src / "pseudocube").resolve():
        raise ProgramMissing(f"pseudocube was imported from {pseudocube.__file__}, not {src}")
    return pseudocube


def import_seconds() -> float:
    """Time ``import pseudocube.cli`` in a fresh interpreter, as each CLI
    invocation pays it (interpreter start-up excluded)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=SUBPROCESS_TIMEOUT)
    return float(proc.stdout)


def run_op(cli, argv: list[str]):
    """One CLI invocation: (exit code, stdout, stderr, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed op, not the end of the run
        code = "crash"
        err.write(traceback.format_exc())
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return code, out.getvalue(), err.getvalue(), t1 - t0, cpu


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def stored_digests(workload: str, scale: str, seed: int):
    """Per-pass lists of stdout digests recorded for the default seed, or None."""
    if seed != spec.DEFAULT_SEED or not DIGESTS.is_file():
        return None
    store = json.loads(DIGESTS.read_text())
    return [line.split() for line in store.get(scale, {}).get(workload, [])] or None


def tail_latency(latencies: list[float]) -> tuple[float, int]:
    """Highest integer percentile with at least 10 ops beyond it (nearest
    rank): returns (value, percentile)."""
    n = len(latencies)
    if n <= 10:
        raise ValueError(f"a run needs at least 11 ops for a tail percentile, got {n}")
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(latencies)[rank - 1], pct


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"commit": commit_id(), "python": sys.version.split()[0],
            "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "standard", tamper=None) -> dict:
    """Run one workload; ``tamper(pass_index, ops)`` may alter the ops
    before they run (the self-test uses it to plant a wrong expectation)."""
    pc = load_program()
    workdir = os.path.join(WORK_DIR, f"{workload}-{scale}-s{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        result = _run_passes(pc, workload, seed, seconds, trace, scale, tamper, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)
    return result


def _run_passes(pc, workload, seed, seconds, trace, scale, tamper, workdir) -> dict:
    cli = sys.modules["pseudocube.cli"]
    planned = workloads.pass_count(workload, seconds, scale)
    stored = stored_digests(workload, scale, seed)
    rng = random.Random(f"{workload}/{scale}/{seed}")
    seen: set = set()
    tracer = Tracer()
    if trace:
        tracer.install(pc)
        tracer.recording = True
    log: list[dict] = []
    imports, gen_s, pass_wall, pass_cpu = [], [], [], []
    started = time.perf_counter()
    try:
        for p in range(planned):
            # the pass count is fixed by the arguments; this cap only binds on
            # a machine several times slower than the nominal pass times
            if p >= workloads.MIN_PASSES and time.perf_counter() - started > OVERRUN * seconds:
                break
            # one set-up per pass, spread over the run like the passes themselves
            if not trace:
                imports.append(import_seconds())
            gc.collect()
            tracer.op = -1
            t0 = time.perf_counter()
            ops = workloads.BUILDERS[workload](
                workloads.Pass(pc, rng, workdir, p, seen), scale)
            gen_s.append(time.perf_counter() - t0)
            if tamper is not None:
                tamper(p, ops)
            expected = stored[p] if stored is not None and p < len(stored) else None
            if expected is not None and len(expected) != len(ops):
                raise RuntimeError(f"stored digests of pass {p} do not match its op list")
            wall = cpu = 0.0
            for i, op in enumerate(ops):
                tracer.op = len(log)
                code, out, err, dt, dc = run_op(cli, op.argv)
                wall += dt
                cpu += dc
                failures = [] if code == 0 else [f"exit {code}: {err.strip()[-300:]}"]
                with tracer.paused():
                    try:
                        failures += op.check(op, out)
                    except Exception as exc:  # a malformed report fails the op
                        failures.append(f"check raised {exc!r}")
                digest = stdout_digest(out)
                if expected is not None and digest != expected[i]:
                    failures.append("stdout differs from the stored digest")
                log.append({"pass": p, "label": op.label, "argv": op.argv,
                            "wall_s": dt, "cpu_s": dc, "digest": digest,
                            "digest_checked": expected is not None,
                            "failures": failures})
            pass_wall.append(wall)
            pass_cpu.append(cpu)
    finally:
        tracer.recording = False
        tracer.restore()
    result = {"workload": workload, "seed": seed, "seconds": seconds, "scale": scale,
              "trace": int(trace), "passes": len(pass_wall), "planned_passes": planned,
              "ops": log, "reason": spec.WORKLOAD_REASONS[workload], **environment()}
    if trace:
        _finish_traced(result, tracer, workdir, pass_wall)
    else:
        _finish_untraced(result, imports, gen_s, pass_wall, pass_cpu)
    return result


def _finish_untraced(result, imports, gen_s, pass_wall, pass_cpu) -> None:
    latencies = [op["wall_s"] for op in result["ops"]]
    tail, pct = tail_latency(latencies)
    setups = [imp + gen for imp, gen in zip(imports, gen_s)]
    result["metrics"] = {
        "wall_s": statistics.median(pass_wall),
        "cpu_s": statistics.median(pass_cpu),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result["notes"] = {
        "wall_s": f"median of {len(pass_wall)} passes",
        "cpu_s": f"median of {len(pass_cpu)} passes",
        "op_p50_ms": f"median of {len(latencies)} ops",
        "op_tail_ms": f"p{pct} of {len(latencies)} ops, 10 or more beyond it",
        "setup_s": f"median of {len(setups)} set-ups, one per pass; import "
                   f"{statistics.median(imports):.4f} s + inputs {statistics.median(gen_s):.4f} s",
        "peak_rss_mb": "ru_maxrss of this process",
    }


def _finish_traced(result, tracer: Tracer, workdir: str, pass_wall) -> None:
    """Replay the ops untraced in a fresh process, require identical stdout,
    and derive the per-layer metrics."""
    ops = result["ops"]
    plan = os.path.join(workdir, "replay.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump([op["argv"] for op in ops], fh)
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--replay", plan],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced replay failed: {proc.stderr.strip()[-500:]}")
    replay = json.loads(proc.stdout.splitlines()[-1])
    untraced_wall = [0.0] * result["passes"]
    for op, (digest, wall) in zip(ops, replay):
        untraced_wall[op["pass"]] += wall
        if digest != op["digest"]:
            op["failures"].append("traced stdout differs from the untraced replay")
    passes = result["passes"]
    traced_op_ns = sum(op["wall_s"] for op in ops) * 1e9
    overhead = statistics.median(pass_wall) - statistics.median(untraced_wall)
    uncovered = (traced_op_ns - tracer.root_ns) / 1e9 / passes
    result["metrics"] = layer_metrics(tracer, passes, overhead, uncovered)
    result["notes"] = {"trace.overhead_s": f"traced {statistics.median(pass_wall):.4f} s "
                                           f"- untraced {statistics.median(untraced_wall):.4f} s "
                                           "median pass wall"}
    result["spans"] = len(tracer.span_start)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{result['workload']}-{result['scale']}.tsv"))


# Per-layer metric names that do not follow "<wrapped function>.calls|.self_s".
_LAYER_ALIASES = {
    "classes.HypothesisClass.constructed": ("calls", "classes.HypothesisClass.__post_init__"),
    "classes.HypothesisClass.self_s": ("self", "classes.HypothesisClass.__post_init__"),
    "oig.flow_networks": ("calls", "oig.FlowNetwork.__init__"),
}


def layer_metrics(tracer: Tracer, passes: int, overhead: float, uncovered: float) -> dict:
    """Per-layer metrics, per pass (run total / passes)."""
    values = {"trace.overhead_s": overhead, "trace.uncovered_s": uncovered}
    predictions = tracer.calls["listlearn.predict_one_inclusion"]
    forced = tracer.counters["listlearn.predict.forced"]
    values["listlearn.predict.oriented_share"] = (
        (predictions - forced) / predictions if predictions else 0.0)
    for name, unit, _ in spec.PER_LAYER:
        if name in values:
            continue
        kind, fn = _LAYER_ALIASES.get(name, (None, None))
        if kind is None and name.endswith(".calls"):
            kind, fn = "calls", name[:-len(".calls")]
        elif kind is None and name.endswith(".self_s"):
            kind, fn = "self", name[:-len(".self_s")]
        if kind is None:
            values[name] = tracer.counters[name] / passes
            continue
        if fn not in tracer.names:
            raise KeyError(f"per-layer metric {name} names no wrapped function {fn}")
        if kind == "calls":
            values[name] = tracer.calls[fn] / passes
        else:
            values[name] = tracer.self_ns[fn] / 1e9 / passes
    return {name: values[name] for name, _, _ in spec.PER_LAYER}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def report(result: dict) -> int:
    """Print the human-readable lines, write the run record, print the final
    JSON line; returns the exit code."""
    ops = result["ops"]
    failed = [op for op in ops if op["failures"]]
    print(f"# pseudocube benchmark workload={result['workload']} seed={result['seed']} "
          f"trace={result['trace']} scale={result['scale']} "
          f"passes={result['passes']}/{result['planned_passes']} "
          f"ops={len(ops)} digest_checked={sum(op['digest_checked'] for op in ops)}")
    print(f"# commit={result['commit']} python={result['python']} nproc={result['nproc']}")
    print(f"# why: {result['reason']}")
    notes = result["notes"]
    if result["trace"]:
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
        print(f"# spans recorded: {result['spans']}")
    else:
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    for name, value in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    name, unit, _ = spec.FAIL_RATIO
    print(f"{name} = {len(failed) / len(ops):.6g} {unit}  ({len(failed)} failed of {len(ops)})")
    for op in failed[:20]:
        print(f"FAILED pass {op['pass']} {op['label']}: {'; '.join(op['failures'])}")
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"record-{result['workload']}-{result['scale']}"
                                   f"-s{result['seed']}-t{result['trace']}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({**result, "fail_ratio": len(failed) / len(ops),
                   "layer_map": spec.PER_LAYER}, fh, indent=1)
    keep = spec.JSON_PER_LAYER if result["trace"] else spec.END_TO_END
    correct = not failed
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": {m[0]: {"value": result["metrics"][m[0]], "unit": m[1]}
                                  for m in keep}}))
    return 0 if correct else 1


def replay(plan: str) -> int:
    """Run the listed ops untraced; print [[stdout digest, wall s], ...]."""
    load_program()
    cli = sys.modules["pseudocube.cli"]
    with open(plan, encoding="utf-8") as fh:
        argvs = json.load(fh)
    rows = []
    for argv in argvs:
        _, out, _, dt, _ = run_op(cli, argv)
        rows.append([stdout_digest(out), dt])
    print(json.dumps(rows))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process; prints
    each run's report and writes the combined record."""
    record = {**environment(), "seed": seed, "seconds": seconds,
              "end_to_end": spec.END_TO_END, "layer_map": spec.PER_LAYER, "workloads": {}}
    ok = True
    for workload in workloads.WORKLOADS:
        entry = record["workloads"][workload] = {"reason": spec.WORKLOAD_REASONS[workload]}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT + 10)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            ok = ok and proc.returncode == 0
            if proc.stdout.strip():
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                entry["ops"] = last["attempted"]
                entry["traced" if trace else "untraced"] = last
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "record.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"# run record written to {path}; all correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads.WORKLOADS)
    mode.add_argument("--all", action="store_true", help="run every workload both ways")
    mode.add_argument("--replay", metavar="PLAN", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("standard", "tiny"), default="standard",
                        help="tiny: toy sizes for the self-test")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.replay:
            return replay(args.replay)
        if args.all:
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.scale)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return report(result)


if __name__ == "__main__":
    sys.exit(main())
