#!/usr/bin/env python3
"""Quick self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

Runs every workload at toy size both untraced and traced, and checks that
every metric is printed by name with its unit, that the default seed's
outputs match the stored digests, that a deliberately wrong expected value
raises fail_ratio above 0, that BENCHMARK.json agrees with spec.py, and that
the benchmark fails cleanly in a directory that holds only the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run, spec, workloads  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _metric_lines(stdout: str) -> dict[str, str]:
    """name -> unit for every 'name = value unit' line."""
    return {m.group(1): m.group(2)
            for m in re.finditer(r"^([\w.]+) = \S+ (\S+)", stdout, re.M)}


def check_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, sorted(bench)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert bench["run_seconds"] == spec.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(w, spec.WORKLOAD_REASONS[w]) for w in workloads.WORKLOADS]
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        [m[:3] for m in spec.END_TO_END]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [m[:2] for m in spec.JSON_PER_LAYER]


def check_workload(workload: str, trace: int) -> None:
    proc = subprocess.run(RUN + ["--workload", workload, "--scale", "tiny",
                                 "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, (workload, trace, proc.stdout[-2000:], proc.stderr[-2000:])
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 11, last
    printed = _metric_lines(proc.stdout)
    expected = spec.PER_LAYER if trace else spec.END_TO_END + (spec.FAIL_RATIO,)
    for name, unit, *_ in expected:
        assert printed.get(name) == unit, (workload, trace, name, unit, printed.get(name))
    keep = spec.JSON_PER_LAYER if trace else spec.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m[0]: m[1] for m in keep}
    for name in keep:
        value = last["metrics"][name[0]]["value"]
        assert isinstance(value, (int, float)), (name, value)
        if not trace or name[0] in spec.TIMES_ON_EVERY_WORKLOAD:
            assert value != 0, (workload, name[0])
    header = proc.stdout.splitlines()[0]
    assert f"digest_checked={last['attempted']}" in header, header


def check_gate_can_fail() -> None:
    """A wrong expected dimension must count as a failed op."""
    def plant(pass_index, ops):
        if pass_index == 0:
            ops[0].expect["value"] += 1

    result = run.run_workload("dims_sparse", spec.DEFAULT_SEED, spec.DEFAULT_SECONDS,
                              False, "tiny", tamper=plant)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.report(result)
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    fail_ratio = float(re.search(r"^fail_ratio = (\S+)", out.getvalue(), re.M).group(1))
    assert code == 1 and not last["correct"] and last["failed"] == 1, out.getvalue()[-1000:]
    assert fail_ratio > 0


def check_bare_directory() -> None:
    """With only BENCHMARK.json and perfbench/, the run must fail without a result."""
    bare = ROOT / run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "loo",
                               "--seed", "1", "--seconds", "20", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(ROOT / run.WORK_DIR)


def main() -> int:
    os.chdir(ROOT)
    check_benchmark_json()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_gate_can_fail()
    check_bare_directory()
    print("perfbench self-test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
