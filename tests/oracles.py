"""Independent brute-force oracles.

These deliberately avoid the package's accelerated code paths (peeling,
flows, modular and fraction-free elimination, common-denominator
evaluation) so that agreement is meaningful.  Three are exceptions.  The
slow one-inclusion predictor keeps the path that rebuilds the restricted
patterns on every call, which the class's label masks
(``HypothesisClass.label_masks``) replaced in ``listlearn``, and shares the
flow orientation with it, so it checks everything in front of the flow.  The bisecting orientation and ``max_flow_value`` share the flow
network, so they check the budget search and the flow lemmas.  The lex
standard monomials use the package's exact rank.

``rank_mod_prime`` is modular elimination, but column by column over all
rows at once, so it shares no step with the package's one row-by-row
kernel, the sparse echelon form of ``rank_mod_p``, which it is the
reference for.

Two references keep code that a faster form replaced: the CLI parser with
every subparser registered, and the JSON class reader's row-by-row check.

Two helpers only build or test inputs: ``is_pseudocube`` reads the
definition off the line index, and ``poly_from_dict`` writes rational
coefficients in the package's polynomial form.

``verify_projection_bound`` checks a fact about graph-shattered list
classes, the projection lower bound of acceptance 11, that no package code
relies on.
"""

import argparse
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from pseudocube import (CapExceeded, ClassFormatError, HypothesisClass, ListClass,
                        RationalPolynomial, RealizabilityError, __version__, cli)
from pseudocube.classes import lines
from pseudocube.oig import (FlowNetwork, is_downward_closed, min_max_orientation_indexed,
                            shift)
from pseudocube.polycert import exact_rank


def validate_patterns(n: int, k: int, patterns) -> None:
    """``HypothesisClass``'s check of its patterns, one pattern and one label
    at a time: the reference for its bulk acceptance."""
    for p in patterns:
        if len(p) != n:
            raise ValueError(f"pattern {p} has length {len(p)}, expected {n}")
        for v in p:
            if type(v) is not int or not (0 <= v < k):
                raise ValueError(f"label {v} out of range [0,{k}) in pattern {p}")


def all_subcommands_parser(argv) -> argparse.ArgumentParser:
    """The CLI parser with all eight subparsers registered on every call, the
    arguments of the first word of ``argv`` that is not an option only: the
    reference for ``cli._build_parser``."""
    command = next((a for a in argv if not a.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="pseudocube",
        description="Exact dimensions, sharp size bounds, orientations, and "
                    "list-learning experiments for finite multiclass classes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments in cli._SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        if command == name:
            add_arguments(p)
    return parser


def json_rows_class(n: int, k: int, rows: list) -> HypothesisClass:
    """The class of a JSON class object's rows, checked one row and one label
    at a time: the reference for the bulk check in ``parse_class_json``."""
    patterns = set()
    for row in rows:
        t = tuple(row)
        if len(t) != n:
            raise ClassFormatError(1, f"pattern {t} has length {len(t)}, expected {n}")
        for v in t:
            if type(v) is not int or not (0 <= v < k):
                raise ClassFormatError(1, f"label {v!r} out of range [0,{k})")
        if t in patterns:
            raise ClassFormatError(1, f"duplicate pattern {t}")
        patterns.add(t)
    return HypothesisClass(n, k, frozenset(patterns))


def is_pseudocube(b: HypothesisClass, m: int) -> bool:
    """True iff every pattern of ``b`` has >= m-1 neighbors in every direction."""
    if b.is_empty:
        raise ValueError("the empty class is not a pseudo-cube of any order")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return all(len(members) >= m for members in lines(b.patterns, range(b.n)).values())


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


def degree_peel_empties(h: HypothesisClass, ell: int) -> bool:
    """View an n=2 class as a bipartite graph (coordinate 0 on the left,
    coordinate 1 on the right, patterns as edges) and delete every vertex of
    degree <= ell, round after round.  True iff the graph empties, which
    certifies |H| <= ell(2k - ell)."""
    if h.n != 2:
        raise ValueError(f"degree peeling needs n=2, got n={h.n}")
    edges = set(h.patterns)
    while edges:
        degree = Counter((side, p[side]) for p in edges for side in (0, 1))
        low = {v for v, deg in degree.items() if deg <= ell}
        if not low:
            return False
        edges = {p for p in edges if (0, p[0]) not in low and (1, p[1]) not in low}
    return True


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


def shift_path_exists(h: HypothesisClass, dimension) -> bool:
    """Does some sequence of down-shifts ``oig.shift(g, i)`` lead from ``h`` to
    a downward-closed class through classes g with ``dimension(g)`` at most
    ``dimension(h)``?  A depth-first search over the classes so reachable."""
    limit = dimension(h)
    seen = {h.patterns}
    stack = [h]
    while stack:
        g = stack.pop()
        if is_downward_closed(g):
            return True
        for i in range(g.n):
            nxt = shift(g, i)
            if nxt.patterns not in seen and dimension(nxt) <= limit:
                seen.add(nxt.patterns)
                stack.append(nxt)
    return False


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


def cube_mask(h: HypothesisClass, coords) -> int:
    """The projection of ``h`` onto ``coords`` as one int, bit sum_j p_j k^j
    for each projected pattern p: the cube mask that ``dims._label_walk``
    builds from the label masks, read here off the patterns."""
    cells = {sum(p[c] * h.k ** j for j, c in enumerate(coords)) for p in h.patterns}
    return sum(1 << cell for cell in cells)


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


PROJECTION_ENUM_CAP = 2 ** 22


class ProjectionBoundReport(NamedTuple):
    lhs: int
    rhs: Fraction
    holds: bool


def verify_projection_bound(c: ListClass, coords, pivot, witnesses: dict,
                            cap: int = PROJECTION_ENUM_CAP) -> ProjectionBoundReport:
    """Check the size of the union of realizable label tuples against
    (2*ell)^g / (4 * (2*ell-1)^g) * ell^g for a certified graph-shattered
    coordinate set of size g.

    The certificate is validated first: every sign vector b needs a member
    whose lists contain pivot_i exactly when b_i = 1.
    """
    coords = tuple(coords)
    pivot = tuple(pivot)
    g = len(coords)
    if len(pivot) != g:
        raise ValueError(f"pivot length {len(pivot)} differs from |S| = {g}")
    for bits in product((0, 1), repeat=g):
        member = witnesses.get(bits)
        if member is None:
            raise ValueError(f"certification fails: no witness for sign pattern {bits}")
        if member not in c.members:
            raise ValueError(f"certification fails: witness for {bits} is not a member")
        for j, i in enumerate(coords):
            if (pivot[j] in member[i]) != bool(bits[j]):
                raise ValueError(f"certification fails: witness for {bits} has wrong "
                                 f"sign at coordinate {i}")
    union: set[tuple[int, ...]] = set()
    budget = cap
    for bits in product((0, 1), repeat=g):
        member = witnesses[bits]
        lists = [sorted(member[i]) for i in coords]
        count = math.prod(len(s) for s in lists)
        budget -= count
        if budget < 0:
            raise CapExceeded(f"projection enumeration exceeds cap {cap}")
        union.update(product(*lists))
    ell = c.ell
    rhs = Fraction((2 * ell) ** g * ell ** g, 4 * (2 * ell - 1) ** g)
    return ProjectionBoundReport(lhs=len(union), rhs=rhs, holds=len(union) >= rhs)


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


def max_flow_value(g, ell: int, c: int) -> int:
    """Maximum flow through the network over the demanding edges (|e| > ell)
    of the one-inclusion graph ``g`` at the uniform sink budget c."""
    index = {v: j for j, v in enumerate(g.vertices)}
    demanding = [e for e in g.edges if len(e) > ell]
    return FlowNetwork(len(g.vertices), [tuple(index[v] for v in e.members) for e in demanding],
                       [len(e) - ell for e in demanding], c).max_flow()


def bisect_min_max_orientation(num_vertices: int, edges: list[tuple[int, ...]],
                               ell: int) -> tuple[list[frozenset[int]], int]:
    """The min-max orientation by bisection: the budget c is searched in
    [1, largest ell-degree], which is always feasible, on a fresh network per
    probe, and the selection is read off the flow of the last feasible probe,
    which is at the optimum."""
    demands = [max(len(e) - ell, 0) for e in edges]
    total = sum(demands)
    if total == 0:
        return [frozenset(e) for e in edges], 0
    incidence = [e for e, d in zip(edges, demands) if d > 0]
    positive = [d for d in demands if d > 0]
    deg = Counter(v for e in incidence for v in e)

    def charged_at(c: int):
        net = FlowNetwork(num_vertices, incidence, positive, c)
        return net.charged() if net.max_flow() == total else None

    lo, hi = 1, max(deg.values())
    best = charged_at(hi)
    if best is None:
        raise AssertionError("max ell-degree budget must admit a saturating flow")
    while lo < hi:
        mid = (lo + hi) // 2
        charged = charged_at(mid)
        if charged is None:
            lo = mid + 1
        else:
            hi, best = mid, charged
    it = iter(best)
    return [frozenset(e) if d == 0 else frozenset(e) - set(next(it))
            for e, d in zip(edges, demands)], lo


def lex_standard_monomials(h: HypothesisClass, order) -> list[tuple[int, ...]]:
    """Exponent vectors of the lex standard monomials of the point set ``h``.

    Greedy elimination: walk the exponent vectors below k in ascending lex
    order, with ``order`` listing the coordinates from the most significant
    to the least, and keep each one whose evaluation row on ``h`` raises the
    rank of the rows kept so far."""
    pats = sorted(h.patterns)
    kept: list[tuple[int, ...]] = []
    rows: list[list[int]] = []
    for e in sorted(product(range(h.k), repeat=h.n),
                    key=lambda e: tuple(e[i] for i in order)):
        row = [math.prod(x ** a for x, a in zip(p, e)) for p in pats]
        if exact_rank(rows + [row]) > len(rows):
            kept.append(e)
            rows.append(row)
    return kept


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


def rank_mod_prime(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by elimination column by column, first nonzero pivot."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            factor = m[i][c] * inv % p
            if factor:
                m[i] = [(a - factor * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def fraction_evaluate(poly, point) -> Fraction:
    """Value of a ``RationalPolynomial`` at ``point`` as a plain sum of
    ``Fraction`` terms, each its numerator over ``poly.den``."""
    total = Fraction(0)
    for exp, numerator in poly.terms:
        value = 1
        for x, e in zip(point, exp):
            if e:
                value *= x ** e
        total += Fraction(numerator, poly.den) * value
    return total


def poly_from_dict(n: int, terms: dict) -> RationalPolynomial:
    """The ``RationalPolynomial`` with rational (or integer) coefficients
    ``terms``, exponent vector -> coefficient."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return RationalPolynomial._over(n, ((e, c.numerator * den // c.denominator)
                                        for e, c in terms.items()), den)


def polynomial_failures(cert, h: HypothesisClass) -> tuple[str, ...]:
    """The polynomial part of a ``verify_certificate`` report by the
    verifier's original loops: the count check, each poly's first term
    outside the basis read off its definition, then one
    ``RationalPolynomial.evaluate`` per entry (t, s) with s <= t, in the
    order of t and then s."""
    failures = []
    if len(cert.q_polys) != len(cert.ordering):
        failures.append("polynomial count differs from ordering length")
    for s, q in enumerate(cert.q_polys):
        for exp, _ in q.terms:
            if not (len(exp) == h.n and all(0 <= e < h.k for e in exp)
                    and sum(e >= cert.ell for e in exp) <= cert.d):
                failures.append(f"poly {s}: monomial {exp} outside the basis")
                break
    for t, p in enumerate(cert.ordering):
        for s, q in enumerate(cert.q_polys[:t + 1]):
            value = q.evaluate(p)
            if t == s and value != 1:
                failures.append(f"diagonal ({t},{s}) is {value}, expected 1")
            if t > s and value != 0:
                failures.append(f"entry ({t},{s}) is {value}, expected 0")
    return tuple(failures)
