"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  Combinatorial criteria are exact (integer or
rational equality); the two statistical criteria state their margins inline
(three binomial standard errors for the leave-one-out bound, an 85% success
floor for the PAC run).  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math

import pseudocube as pc
from pseudocube.listlearn import ExperimentConfig, pac_sample_plan

from conftest import all_classes, random_corpus
from oracles import (brute_min_max_outdegree, degree_peel_empties, max_flow_value,
                     verify_projection_bound)


def report(num, name, ok, detail=""):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_theorem_exhaustive():
    """All 511 nonempty classes over a 3x3 grid of cells, both list sizes:
    class size <= the closed-form bound at the exactly computed dimension."""
    checks = 0
    for h in all_classes(2, 3):
        for ell in (1, 2):
            rep = pc.verify_sauer(h, ell)  # raises BoundViolation on failure
            assert rep.holds
            checks += 1
    report(1, "size bound, exhaustive n=2 k=3", checks == 1022, f"{checks} checks")


def test_02_tightness():
    """Extremal classes meet the bound with equality and realize dimension d,
    for every n <= 5, k <= 5, ell < k, d <= n.  Exact."""
    ok = True
    count = 0
    for n in range(1, 6):
        for k in range(2, 6):
            for ell in range(1, k):
                for d in range(n + 1):
                    h = pc.extremal_class(n, k, ell, d)
                    ok &= len(h) == pc.ds_sauer_bound(n, k, ell, d)
                    ok &= pc.ds_dimension(h, ell).value == d
                    count += 1
    report(2, "extremal tightness sweep", ok, f"{count} parameter tuples")


def test_03_spanning_certificate():
    """Monomial family spans (rational rank == |H|) on the exhaustive sweep
    and on 500 random classes at n=3, k=3.  Exact arithmetic."""
    ok = True
    for h in all_classes(2, 3):
        for ell in (1, 2):
            d = pc.ds_dimension(h, ell).value
            ok &= pc.spanning_certificate(h, ell, d, check_dim=False).spans
    count = 0
    for idx, h in enumerate(random_corpus(500, 3, 3, 0.5, seed0=42000)):
        ell = 1 + idx % 2
        d = pc.ds_dimension(h, ell).value
        ok &= pc.spanning_certificate(h, ell, d, check_dim=False).spans
        count += 1
    report(3, "spanning certificates", ok, f"1022 exhaustive + {count} random")


def test_04_proof_replay():
    """Recursive polynomial construction yields an exactly unit-triangular
    evaluation matrix on 100 random classes (n <= 4, k <= 3, |H| <= 20)."""
    ok = True
    corpus = (random_corpus(60, 4, 3, 0.22, seed0=50000, max_size=20, min_size=2)
              + random_corpus(25, 3, 3, 0.5, seed0=51000, max_size=20, min_size=2)
              + random_corpus(15, 2, 3, 0.7, seed0=52000, max_size=9, min_size=2))
    for idx, h in enumerate(corpus):
        ell = 1 + idx % 2
        d = pc.ds_dimension(h, ell).value
        cert = pc.construct_q(h, ell, d)  # asserts triangularity internally
        ok &= pc.verify_certificate(cert, h).ok
    report(4, "proof replay", ok, f"{len(corpus)} certificates")


def test_05_shifting_laws():
    """savd never drops and the exponential dimension never grows under a
    shift, savd stays below the exponential dimension, and the fixed point is
    downward closed and size-preserving, on 1000 random (class, direction,
    ell) triples.  Exact comparisons."""
    ok = True
    for idx, h in enumerate(random_corpus(1000, 4, 4, 0.4, seed0=60000)):
        ell = 1 + idx % 3
        i = idx % h.n
        savd = pc.degree_stats(pc.build_oig(h), ell).savd
        d_exp = pc.exponential_dimension(h, ell).value
        shifted = pc.shift(h, i)
        ok &= pc.degree_stats(pc.build_oig(shifted), ell).savd >= savd
        ok &= pc.exponential_dimension(shifted, ell).value <= d_exp
        ok &= savd <= d_exp
        fixed = pc.shift_fixed_point(h)
        ok &= pc.is_downward_closed(fixed) and len(fixed) == len(h)
    report(5, "shifting laws", ok, "1000 triples")


def test_06_flow_lemmas():
    """At sink budget ceil(MD) the max flow saturates the total edge demand;
    the flow orientation optimum matches brute force for |H| <= 8 and its
    outdegrees respect the optimum.  Exact."""
    ok = True
    c12 = (random_corpus(30, 2, 3, 0.5, seed0=70000, max_size=12)
           + random_corpus(20, 3, 3, 0.25, seed0=71000, max_size=12)
           + random_corpus(10, 2, 4, 0.4, seed0=72000, max_size=12))
    for h in c12:
        for ell in (1, 2):
            g = pc.build_oig(h)
            c = math.ceil(pc.max_density_bruteforce(h, ell))
            demand = sum(max(len(e) - ell, 0) for e in g.edges)
            ok &= max_flow_value(g, ell, c) == demand
    c8 = (random_corpus(25, 2, 3, 0.45, seed0=73000, max_size=8)
          + random_corpus(15, 3, 3, 0.18, seed0=74000, max_size=8)
          + random_corpus(10, 2, 4, 0.3, seed0=75000, max_size=8))
    for h in c8:
        for ell in (1, 2):
            g = pc.build_oig(h)
            sigma, cstar = pc.orient_minmax(g, ell)
            index = {v: i for i, v in enumerate(g.vertices)}
            edges = [tuple(index[v] for v in e.members) for e in g.edges]
            ok &= cstar == brute_min_max_outdegree(len(g.vertices), edges, ell)
            ok &= max(pc.outdegrees(g, sigma).values()) <= cstar
    report(6, "flow lemmas", ok, f"{len(c12) * 2} saturation + {len(c8) * 2} optima")


def test_07_corollary():
    """Exponential dimension <= 40 * ell * DS dimension * max(log k, 1), on
    the exhaustive sweep and 1000 random classes at n=4, k=4.  Exact bound
    arithmetic (the log factor is a float upper-bounded quantity)."""
    ok = True
    checks = 0
    for h in all_classes(2, 3):
        for ell in (1, 2):
            de = pc.exponential_dimension(h, ell).value
            dd = pc.ds_dimension(h, ell).value
            ok &= de <= 40 * ell * dd * max(math.log(3), 1.0)
            checks += 1
    for h in random_corpus(1000, 4, 4, 0.5, seed0=80000):
        for ell in (1, 2, 3):
            de = pc.exponential_dimension(h, ell).value
            dd = pc.ds_dimension(h, ell).value
            ok &= de <= 40 * ell * dd * max(math.log(4), 1.0)
            checks += 1
    report(7, "exp-vs-DS corollary", ok, f"{checks} checks")


def test_08_appendix():
    """Every ell=1, DS <= 1 class in the exhaustive sweep has an acyclic
    extension graph and size <= 1 + n(k-1); every two-coordinate class up to
    k=4 peels empty vertex by vertex (the oracle) exactly when its heap core
    is empty, and peeling success certifies size <= ell(2k - ell).  Exact."""
    ok = True
    appendix_cases = 0
    for h in all_classes(2, 3):
        if pc.ds_dimension(h, 1).value <= 1:
            rep = pc.appendix_check(h)
            ok &= rep.acyclic and rep.holds
            appendix_cases += 1
    peel_cases = 0
    for k in (2, 3, 4):
        for h in all_classes(2, k):
            for ell in range(1, k):
                success = degree_peel_empties(h, ell)
                core_empty = pc.max_pseudocube_core(h, ell + 1).core.is_empty
                ok &= success == core_empty
                if success:
                    ok &= len(h) <= ell * (2 * k - ell)
                peel_cases += 1
    report(8, "acyclic extension + degree peeling", ok,
           f"{appendix_cases} appendix + {peel_cases} peel cases")


def test_09_loo_bound():
    """Statistical: on the d/ell/m grid with the full-alphabet provider and
    10^4 trials per cell, the empirical leave-one-out error plus three
    binomial standard errors stays below 40*ell*d*max(log ell',1)/m."""
    ok = True
    details = []
    trials = 10 ** 4
    for d in (1, 2):
        for ell in (1, 2):
            task = pc.make_task(pc.extremal_class(6, 3, ell, d), 0)
            for m in (20, 50, 100):
                cfg = ExperimentConfig(m=m, trials=trials, seed=90000 + d * 100
                                       + ell * 10 + m, ell=ell)
                rep = pc.loo_experiment(task, cfg)
                p_hat = float(rep.empirical_error)
                margin = 3 * math.sqrt(p_hat * (1 - p_hat) / trials)
                ok &= p_hat + margin <= rep.bound
                details.append(f"d{d}l{ell}m{m}:{p_hat:.4f}+{margin:.4f}<={rep.bound:.3f}")
    report(9, "leave-one-out bound", ok, " ".join(details))


def test_10_pac_end_to_end():
    """Statistical: the epsilon=0.2, delta=0.1 reference task reaches held-out
    error <= epsilon in at least 85% of 200 macro-trials."""
    task = pc.make_task(pc.extremal_class(3, 3, 1, 1), 3)
    base = ExperimentConfig(epsilon=0.2, delta=0.1, ell=1)
    p, chunk, val = pac_sample_plan(task, base, ell_prime=3)
    need = p * chunk + val
    successes = 0
    trials = 200
    for t in range(trials):
        cfg = ExperimentConfig(epsilon=0.2, delta=0.1, m=need + 100, trials=1,
                               seed=100000 + t, ell=1, test_size=1000)
        rep = pc.pac_learn(task, cfg)
        successes += rep.test_error <= cfg.epsilon
    ok = successes >= math.ceil(0.85 * trials)
    report(10, "PAC end to end", ok, f"{successes}/{trials} within epsilon")


def test_11_projection_lower_bound():
    """The union of realizable label tuples of graph-shattering witnesses
    meets the (2 ell)^g ell^g / (4 (2 ell - 1)^g) lower bound on every
    certified instance of the generated suite (g <= 2, ell <= 2, k <= 4)."""
    import random as stdrandom
    suite: list[pc.ListClass] = []
    # handcrafted shattering instances
    suite.append(pc.ListClass(1, 2, 1, frozenset({(frozenset({0}),),
                                                  (frozenset({1}),)})))
    suite.append(pc.ListClass(1, 4, 2, frozenset({(frozenset({0, 1}),),
                                                  (frozenset({2, 3}),)})))
    flip = [(frozenset({0, 1} if b0 else {2, 3}), frozenset({0, 1} if b1 else {2, 3}))
            for b0 in (0, 1) for b1 in (0, 1)]
    suite.append(pc.ListClass(2, 4, 2, frozenset(flip)))
    # singleton views of small classes
    for h in random_corpus(10, 2, 3, 0.6, seed0=110000):
        suite.append(pc.ListClass.from_hypothesis_class(h))
    # random list classes
    rng = stdrandom.Random(2024)
    for _ in range(25):
        n, k, ell = rng.choice(((2, 3, 2), (2, 4, 2), (3, 4, 2), (2, 2, 1)))
        members = set()
        for _ in range(rng.randrange(2, 9)):
            members.add(tuple(frozenset(rng.sample(range(k), rng.randrange(1, ell + 1)))
                              for _ in range(n)))
        suite.append(pc.ListClass(n, k, ell, frozenset(members)))
    ok = True
    certified = 0
    for c in suite:
        res = pc.graph_dimension(c)
        if res.value == 0:
            continue
        pivot, witnesses = res.witness_structure
        rep = verify_projection_bound(c, res.witness, pivot, witnesses)
        ok &= rep.holds
        certified += 1
    ok &= certified >= 10
    report(11, "projection lower bound", ok, f"{certified} certified instances")
