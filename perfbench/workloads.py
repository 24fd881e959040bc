"""Seeded workloads.

A workload is a fixed list of cells.  Each pass of a run instantiates every
cell afresh from the run's random stream (a new coordinate permutation, with
label permutations where they leave the cost alone, or a new seed range), so
no (command, input, parameters) triple recurs within a run: a cross-call memo in the program
cannot turn the benchmark's own repetition into a speed-up.  ``Pass.claim``
enforces that when the op list is built.

Every op carries the expected facts about its output, and ``check`` turns a
mismatch into a failure message; nothing is skipped.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

# Cell tables.  "standard" is what the benchmark measures; "tiny" is the same
# shape at toy sizes, for the quick self-test.
#
# dims_sparse: (kind, n, ell, d) on permuted extremal(n, 3, ell, d).  d = 2 at
# ell = 1 stops at n = 10 (n = 11 and 12 take 2.6 s and 7.7 s in dim ds, longer
# than a pass); n = 11 and 12 run at d = 1.  dim ds at n = 9, d = 2 runs three
# times per pass, each time on a fresh permutation, so that op_tail_ms, the
# 11th-slowest op of a run, falls inside its 18 ops rather than on the edge
# between two cells (see _LOO).
_DIMS = {
    "standard": [(kind, n, 1, 1) for n in (9, 10, 11, 12) for kind in ("ds", "nat", "exp")]
    + [(kind, n, 1, 2) for n in (9, 10) for kind in ("ds", "nat", "exp")]
    + [("ds", 9, 1, 2)] * 2
    + [(kind, n, 2, d) for n, d in ((6, 1), (6, 2), (7, 1))
       for kind in ("ds", "nat", "exp")],
    "tiny": [(kind, n, ell, 1) for n, ell in ((4, 1), (4, 2)) for kind in ("ds", "nat", "exp")],
}

# sweep_dense: (command, n, k, density, ell, count).
_SWEEP = {
    "standard": [
        ("sweep", 5, 3, 0.4, 1, 10), ("sweep", 6, 3, 0.5, 1, 5),
        ("sweep", 7, 3, 0.4, 1, 3), ("sweep", 8, 3, 0.3, 1, 1),
        ("sweep", 5, 4, 0.4, 1, 6), ("sweep", 6, 4, 0.3, 1, 3),
        ("sweep", 6, 4, 0.3, 2, 3),
        ("corollary", 6, 3, 0.4, None, 5), ("corollary", 7, 3, 0.3, None, 2),
        ("corollary", 5, 4, 0.5, None, 5),
    ],
    "tiny": [("sweep", 4, 3, 0.4, 1, 2), ("sweep", 3, 4, 0.5, 2, 2),
             ("corollary", 4, 3, 0.4, None, 2)],
}

# loo: (n, ell, d, m, trials) on permuted extremal(n, 3, ell, d).  The n = 6
# cells are acceptance cells (nearly every prediction forced); the rest have
# n >> m, so a quarter or more of the predictions are oriented.  Trials are set
# so the one ds_dimension call per op stays under a tenth of the op.
# The cells come in two tiers of similar cost: seven small ones (30 to 250 ms)
# and four large ones (0.7 to 0.9 s).  op_p50_ms then falls inside the upper
# three small cells and op_tail_ms, the 11th-slowest op of a run, inside the
# 20 large ops.  A rank that falls between two cells of different cost moves
# with a few draws.
_LOO = {
    "standard": [(6, 1, 1, 20, 300), (6, 1, 1, 50, 300), (6, 1, 1, 100, 300),
                 (6, 1, 2, 20, 600), (6, 1, 2, 50, 600), (6, 1, 2, 100, 600),
                 (8, 1, 1, 6, 400),
                 (6, 2, 1, 50, 670), (6, 2, 2, 20, 345), (7, 1, 2, 8, 800),
                 (10, 1, 1, 10, 3000)],
    "tiny": [(5, 1, 1, 20, 20), (6, 1, 1, 3, 20), (4, 2, 1, 10, 10)],
}

# cert: (action, n, density, size_lo, size_hi, reps).  Cell i certifies
# coordinate permutations of one base class over k = 3: the first
# random_class(n, 3, density, s) with s >= 1000 * i whose size lies in
# [size_lo, size_hi], ``reps`` fresh permutations per pass.  Fresh random
# classes per op would let the class draw, not the program, set the time:
# replay of n = 5 classes of size 28..47 took 0.9 to 3.7 s, and even one
# n = 5 base of size 25 took 0.55 to 0.95 s across permutations, so replay
# stays at n = 4.  The n = 6 span cell runs three times per pass so that
# op_tail_ms lands inside its distribution (see _LOO), and the first span
# cell twice, which makes 13 ops a pass: op_p50_ms then falls on the middle
# op of the first replay cell rather than between two cells.  Replay at n = 4
# has only 24 coordinate permutations, one per pass up to --seconds 60.
# Every replay is followed by a verify of the file it wrote.
_CERT = {
    "standard": [("span", 5, 0.2, 44, 50, 2), ("span", 5, 0.2, 44, 50, 1),
                 ("span", 5, 0.37, 85, 95, 1), ("span", 6, 0.13, 85, 92, 3),
                 ("replay", 4, 0.35, 25, 32, 1), ("replay", 4, 0.35, 25, 32, 1),
                 ("replay", 4, 0.5, 40, 45, 1)],
    "tiny": [("span", 4, 0.3, 18, 26, 1), ("span", 3, 0.5, 10, 16, 1),
             ("replay", 3, 0.4, 8, 12, 1), ("replay", 3, 0.5, 12, 16, 1)],
}

# Nominal seconds of one standard pass on a 2-core x86-64 box (Python 3.11);
# a run makes round(seconds / this) passes, so the op list of a run depends
# only on its arguments.
PASS_SECONDS = {"dims_sparse": 3.5, "sweep_dense": 2.5, "loo": 3.9, "cert": 2.8}
MIN_PASSES = 3
TINY_PASSES = 4

WORKLOADS = ("dims_sparse", "sweep_dense", "loo", "cert")


def pass_count(workload: str, seconds: float, scale: str) -> int:
    if scale == "tiny":
        return TINY_PASSES
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


@dataclass
class Op:
    """One CLI invocation, with the facts its output must show."""

    argv: list[str]
    label: str
    expect: dict
    check: Callable[["Op", str], list[str]]


class Pass:
    """Builds the ops of one pass; owns the run-wide distinctness registry."""

    def __init__(self, pc, rng, workdir: str, index: int, seen: set):
        self.pc = pc
        self.rng = rng
        self.workdir = workdir
        self.index = index
        self.seen = seen
        self._files = 0

    def claim(self, identity) -> bool:
        """Register an op identity; False if it already occurred in this run."""
        if identity in self.seen:
            return False
        self.seen.add(identity)
        return True

    def path(self, suffix: str) -> str:
        self._files += 1
        return os.path.join(self.workdir, f"p{self.index}-{self._files}{suffix}")

    def class_file(self, draw: Callable, command: tuple, params: tuple):
        """Draw classes until (command, content, params) is new; write it."""
        for _ in range(100):
            h = draw()
            text = self.pc.serialize_class(h)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.claim((command, digest, params)):
                path = self.path(".cls")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                return h, path
        raise RuntimeError(f"could not draw a fresh input for {command} {params}")

    def permuted(self, base, relabel: bool = True):
        """``base`` under a random coordinate permutation and, if ``relabel``,
        per-coordinate label permutations (all dimensions are invariant)."""
        n, k = base.n, base.k
        coords = list(range(n))
        self.rng.shuffle(coords)
        labels = []
        for _ in range(n):
            perm = list(range(k))
            if relabel:
                self.rng.shuffle(perm)
            labels.append(perm)
        pats = frozenset(tuple(labels[j][p[coords[j]]] for j in range(n))
                         for p in base.patterns)
        return self.pc.HypothesisClass(n, k, pats)


# ---------------------------------------------------------------------------
# Independent expectations (closed forms, not the program's own code)
# ---------------------------------------------------------------------------

def sauer_bound(n: int, k: int, ell: int, d: int) -> int:
    """sum_{i<=d} C(n,i) (k-ell)^i ell^(n-i): the size of extremal(n,k,ell,d)."""
    return sum(math.comb(n, i) * (k - ell) ** i * ell ** (n - i) for i in range(d + 1))


def extremal_exp_dimension(n: int, k: int, ell: int, d: int) -> int:
    """Largest e <= n whose e-coordinate projection of extremal(n,k,ell,d),
    itself extremal(e,k,ell,d), has at least (ell+1)^e patterns."""
    return max((e for e in range(1, n + 1)
                if sauer_bound(e, k, ell, min(d, e)) >= (ell + 1) ** e), default=0)


# ---------------------------------------------------------------------------
# Output checks.  Each returns failure messages; empty means the op passed.
# ---------------------------------------------------------------------------

_DIM_LINE = re.compile(r"^value=(\d+) witness=\[([\d,]*)\]$", re.M)


def _check_dim(pc, op: Op, out: str) -> list[str]:
    match = _DIM_LINE.search(out)
    if not match:
        return ["no value/witness line"]
    value = int(match.group(1))
    witness = tuple(int(c) for c in match.group(2).split(",") if c)
    exp = op.expect
    if value != exp["value"]:
        return [f"value {value}, expected {exp['value']}"]
    if len(witness) != value:
        return [f"witness {witness} has size {len(witness)}, value {value}"]
    h, ell = exp["class"], exp["ell"]
    if exp["kind"] == "ds" and not pc.ds_shattered(h, witness, ell):
        return [f"witness {witness} is not DS-shattered"]
    if exp["kind"] == "nat" and pc.natarajan_shattered(h, witness, ell) is None:
        return [f"witness {witness} is not Natarajan-shattered"]
    if exp["kind"] == "exp" and len(pc.project(h, witness)) < (ell + 1) ** value:
        return [f"witness {witness} projects to fewer than {(ell + 1) ** value} patterns"]
    return []


def _check_sweep(op: Op, out: str) -> list[str]:
    exp = op.expect
    rows = [r.split(",") for r in out.splitlines()[2:]]
    if len(rows) != exp["rows"]:
        return [f"{len(rows)} rows, expected {exp['rows']}"]
    failures = []
    for r in rows:
        # id,n,k,ell,d,size,ds_bound,nat_bound,slack,holds
        n, k, ell, d, size, ds_b, _, slack = (int(v) for v in r[1:9])
        consistent = ((n, k, ell) == (exp["n"], exp["k"], exp["ell"])
                      and ds_b == sauer_bound(n, k, ell, d)
                      and size <= ds_b and slack == ds_b - size)
        if r[9] != "True":
            failures.append(f"row {r[0]}: holds={r[9]}")
        elif not consistent:
            failures.append(f"row {r[0]}: inconsistent {','.join(r)}")
    return failures


def _check_corollary(op: Op, out: str) -> list[str]:
    line = f"corollary: checked={op.expect['checked']} failures=0"
    return [] if line in out.splitlines() else [f"missing {line!r}"]


def _check_loo(op: Op, out: str) -> list[str]:
    # ell,d,ell_prime,m,trials,empirical_error,bound,pass
    fields = out.splitlines()[2].split(",")
    exp = op.expect
    got = (int(fields[0]), int(fields[1]), int(fields[2]), int(fields[3]), int(fields[4]))
    want = (exp["ell"], exp["d"], exp["k"], exp["m"], exp["trials"])
    if got != want:
        return [f"ell,d,ell_prime,m,trials = {got}, expected {want}"]
    return [] if fields[7] == "True" else [f"pass={fields[7]}"]


def _check_span(op: Op, out: str) -> list[str]:
    size = op.expect["size"]
    match = re.search(r"^rank=(\d+) class_size=(\d+) monomials=\d+ spans=(\w+)$", out, re.M)
    if not match:
        return ["no span report line"]
    if (int(match.group(1)), int(match.group(2)), match.group(3)) != (size, size, "True"):
        return [f"span report {match.group(0)!r}, expected rank=class_size={size} spans=True"]
    return []


def _check_replay(op: Op, out: str) -> list[str]:
    line = f"written={op.expect['output']} steps={op.expect['size']}"
    if line not in out.splitlines():
        return [f"missing {line!r}"]
    return [] if os.path.isfile(op.expect["output"]) else ["certificate file missing"]


def _check_verify(op: Op, out: str) -> list[str]:
    return [] if "ok=True" in out.splitlines() else ["no ok=True line"]


# ---------------------------------------------------------------------------
# Pass builders
# ---------------------------------------------------------------------------

def _build_dims_sparse(ps: Pass, scale: str) -> list[Op]:
    ops = []
    for kind, n, ell, d in _DIMS[scale]:
        command = ("dim", kind)
        extremal = ps.pc.extremal_class(n, 3, ell, d)
        h, path = ps.class_file(lambda: ps.permuted(extremal), command, (ell,))
        value = extremal_exp_dimension(n, 3, ell, d) if kind == "exp" else d
        ops.append(Op(["dim", kind, "--input", path, "--ell", str(ell)],
                      f"dim {kind} n={n} ell={ell} d={d}",
                      {"kind": kind, "value": value, "class": h, "ell": ell},
                      partial(_check_dim, ps.pc)))
    return ops


def _build_sweep_dense(ps: Pass, scale: str) -> list[Op]:
    ops = []
    for command, n, k, density, ell, count in _SWEEP[scale]:
        # a class is (n, k, density, seed): claim every class so none recurs,
        # whichever command runs it
        for _ in range(100):
            start = ps.rng.randrange(2 ** 31)
            seeds = range(start, start + count)
            if all((n, k, density, s) not in ps.seen for s in seeds):
                break
        else:
            raise RuntimeError("could not draw a fresh seed range")
        for s in seeds:
            ps.claim((n, k, density, s))
        common = ["--n", str(n), "--k", str(k), "--density", str(density),
                  "--count", str(count), "--seed", str(start)]
        if command == "sweep":
            ops.append(Op(["sweep", "random", *common, "--ell", str(ell)],
                          f"sweep random n={n} k={k} ell={ell}",
                          {"rows": count, "n": n, "k": k, "ell": ell}, _check_sweep))
        else:
            ops.append(Op(["verify", "corollary", *common],
                          f"verify corollary n={n} k={k}",
                          {"checked": count * (k - 1)}, _check_corollary))
    return ops


def _build_loo(ps: Pass, scale: str) -> list[Op]:
    ops = []
    for n, ell, d, m, trials in _LOO[scale]:
        command = ("learn", "loo")
        extremal = ps.pc.extremal_class(n, 3, ell, d)
        h, path = ps.class_file(lambda: ps.permuted(extremal), command, (ell, m, trials))
        target = ps.rng.randrange(len(h))
        seed = ps.rng.randrange(2 ** 31)
        ops.append(Op(["learn", "loo", "--input", path, "--ell", str(ell), "--m", str(m),
                       "--trials", str(trials), "--target-index", str(target),
                       "--seed", str(seed)],
                      f"learn loo n={n} ell={ell} d={d} m={m}",
                      {"ell": ell, "d": d, "k": 3, "m": m, "trials": trials}, _check_loo))
    return ops


def _build_cert(ps: Pass, scale: str) -> list[Op]:
    ops = []
    for i, (action, n, density, lo, hi, reps) in enumerate(_CERT[scale]):
        command = ("cert", action)
        base = next(h for h in (ps.pc.random_class(n, 3, density, s)
                                for s in range(1000 * i, 1000 * (i + 1)))
                    if lo <= len(h) <= hi)
        for _ in range(reps):
            # coordinate permutations only: relabelling changes the evaluated
            # monomial values and with them the elimination and replay cost
            h, path = ps.class_file(lambda: ps.permuted(base, relabel=False), command, (1,))
            if action == "span":
                ops.append(Op(["cert", "span", "--input", path, "--ell", "1"],
                              f"cert span n={n} |H|={len(h)}", {"size": len(h)}, _check_span))
                continue
            out = ps.path(".json")
            ops.append(Op(["cert", "replay", "--input", path, "--ell", "1", "--output", out],
                          f"cert replay n={n} |H|={len(h)}", {"size": len(h), "output": out},
                          _check_replay))
            # the certificate is a function of the fresh replay input, so it is fresh too
            ops.append(Op(["cert", "verify", "--cert", out],
                          f"cert verify n={n} |H|={len(h)}", {}, _check_verify))
    return ops


BUILDERS = {"dims_sparse": _build_dims_sparse, "sweep_dense": _build_sweep_dense,
            "loo": _build_loo, "cert": _build_cert}
