"""Independent brute-force oracles.

These deliberately avoid the package's accelerated code paths (peeling,
flows, modular and fraction-free elimination, common-denominator
evaluation) so that agreement is meaningful.  The slow one-inclusion
predictor is the exception: it keeps the path that rebuilds the restricted
patterns on every call, which the bitmask index of ``listlearn`` replaced,
and shares the flow orientation with it, so it checks everything in front of
the flow.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

from pseudocube import HypothesisClass, RealizabilityError, is_pseudocube
from pseudocube.classes import lines
from pseudocube.oig import min_max_orientation_indexed


def brute_max_pseudocube(p: HypothesisClass, m: int) -> frozenset:
    """Union of all m-pseudo-cube subsets, by full subset enumeration."""
    pats = sorted(p.patterns)
    union: set = set()
    for r in range(1, len(pats) + 1):
        for subset in combinations(pats, r):
            cand = HypothesisClass(p.n, p.k, frozenset(subset))
            if is_pseudocube(cand, m):
                union.update(subset)
    return frozenset(union)


def brute_contains_pseudocube(p: HypothesisClass, m: int) -> bool:
    pats = sorted(p.patterns)
    for r in range(1, len(pats) + 1):
        for subset in combinations(pats, r):
            if is_pseudocube(HypothesisClass(p.n, p.k, frozenset(subset)), m):
                return True
    return False


def brute_ds_dimension(h: HypothesisClass, ell: int) -> int:
    """DS dimension straight from the definition: largest coordinate subset
    whose projection has a subset that is an (ell+1)-pseudo-cube."""
    from pseudocube import project
    best = 0
    for d in range(1, h.n + 1):
        for coords in combinations(range(h.n), d):
            if brute_contains_pseudocube(project(h, coords), ell + 1):
                best = d
    return best


def first_shattered(n: int, shattered, zero=None):
    """(size, coords, structure) of the first nonempty coordinate set, by size
    descending and then lexicographically, that ``shattered`` maps to a
    structure other than None; (0, (), zero) when there is none.  Every
    subset is walked, with no bound on its size from the class size."""
    subsets = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 2 ** n)]
    for coords in sorted(subsets, key=lambda s: (-len(s), s)):
        found = shattered(coords)
        if found is not None:
            return len(coords), coords, found
    return 0, (), zero


def sample_realizable(concepts: HypothesisClass, sample) -> bool:
    """Does some concept match every labeled pair?"""
    return any(all(c[x] == y for x, y in sample) for c in concepts.patterns)


def restriction_class(concepts: HypothesisClass, mu, points) -> HypothesisClass:
    """The full restriction the one-inclusion predictor reasons about: the
    distinct patterns of the class on the point sequence whose entries lie in
    mu's lists.  Prediction itself runs on a reduced form of it."""
    out = set()
    for c in concepts.patterns:
        r = tuple(c[u] for u in points)
        if all(v in mu(u) for v, u in zip(r, points)):
            out.add(r)
    return HypothesisClass(len(points), concepts.k, frozenset(out))


def slow_predict_one_inclusion(concepts: HypothesisClass, mu, sample, x: int,
                               ell: int) -> frozenset:
    """The one-inclusion list prediction rebuilt from the patterns on every
    call: the slow path that the bitmask index of ``listlearn`` replaced."""
    verts, edges, star, star_edge, xs = slow_reduced_problem(concepts, mu, sample, x)
    if star_edge is None:
        # the test instance was sampled: its value is forced by the labels
        return frozenset(v[xs] for v in star)
    selection, _ = min_max_orientation_indexed(len(verts), edges, ell)
    return frozenset(verts[j][xs] for j in selection[star_edge])


def slow_reduced_problem(concepts: HypothesisClass, mu, sample, x: int):
    """Vertices (reduced patterns over the distinct instances), orientable
    edges, the label-consistent patterns, the index of their edge in the test
    direction (None when the test instance was itself sampled, which forces
    the prediction), and the test slot."""
    seq = [x_i for x_i, _ in sample] + [x]
    distinct = sorted(set(seq))
    slot = {u: t for t, u in enumerate(distinct)}
    mult = Counter(seq)
    allowed = [mu(u) for u in distinct]
    reduced = set()
    for c in concepts.patterns:
        r = tuple(c[u] for u in distinct)
        if all(v in a for v, a in zip(r, allowed)):
            reduced.add(r)
    if not reduced:
        raise RealizabilityError("no pattern is consistent with the class and the list")
    required = {}
    for x_i, y_i in sample:
        prior = required.setdefault(x_i, y_i)
        if prior != y_i:
            raise RealizabilityError(f"contradictory labels for instance {x_i}")
    verts = sorted(reduced)
    star = [v for v in verts
            if all(v[slot[u]] == y for u, y in required.items())]
    if not star:
        raise RealizabilityError("no pattern is consistent with the sample labels")
    xs = slot[x]
    if mult[x] >= 2:
        return verts, [], star, None, xs
    index = {v: j for j, v in enumerate(verts)}
    # repeated instances are left out: every edge in their direction is a singleton
    once = [slot[u] for u in distinct if mult[u] == 1]
    star_key = (xs, star[0][:xs] + star[0][xs + 1:])
    edges = []
    star_edge = None
    for key, members in sorted(lines(verts, once).items()):
        if key == star_key:
            star_edge = len(edges)
        edges.append(tuple(index[v] for v in members))
    if star_edge is None:
        raise AssertionError("the test direction must hold the label-consistent edge")
    return verts, edges, star, star_edge, xs


def version_space_lists(concepts: HypothesisClass, sample) -> tuple:
    """Sample-support lists from their definition: the labels seen at a
    sampled instance, and elsewhere the labels that the patterns matching
    every labeled pair take there."""
    consistent = [c for c in concepts.patterns if all(c[x] == y for x, y in sample)]
    seen = {x for x, _ in sample}
    return tuple(frozenset(y for x, y in sample if x == u) if u in seen
                 else frozenset(c[u] for c in consistent)
                 for u in range(concepts.n))


def brute_min_max_outdegree(num_vertices: int, edges: list[tuple[int, ...]],
                            ell: int) -> int:
    """Exact minimum over all list orientations of the maximum ell-outdegree,
    by exhaustive search over charged-vertex choices with pruning."""
    demanding = [(e, len(e) - ell) for e in edges if len(e) > ell]
    if not demanding:
        return 0
    deg = [0] * num_vertices
    for e, _ in demanding:
        for v in e:
            deg[v] += 1
    best = max(deg)  # charging every incident vertex is one valid orientation
    counts = [0] * num_vertices

    def rec(idx: int, cur_max: int) -> None:
        nonlocal best
        if cur_max >= best:
            return
        if idx == len(demanding):
            best = cur_max
            return
        e, demand = demanding[idx]
        for charged in combinations(e, demand):
            for v in charged:
                counts[v] += 1
            rec(idx + 1, max(cur_max, max(counts[v] for v in charged)))
            for v in charged:
                counts[v] -= 1

    rec(0, 0)
    return best


def rank_fraction_pivot(rows: list[list[int]]) -> int:
    """Rank over exact rationals with largest-absolute-value pivoting; an
    elimination strategy independent of the fraction-free one."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        pivot = max(range(rank, nrows), key=lambda i: abs(m[i][c]), default=None)
        if pivot is None or m[pivot][c] == 0:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        for i in range(rank + 1, nrows):
            factor = m[i][c] * inv
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def fraction_evaluate(poly, point) -> Fraction:
    """Value of a ``RationalPolynomial`` at ``point`` as a plain sum of
    ``Fraction`` terms, with no common denominator."""
    total = Fraction(0)
    for exp, coeff in poly.terms:
        value = 1
        for x, e in zip(point, exp):
            if e:
                value *= x ** e
        total += coeff * value
    return total
