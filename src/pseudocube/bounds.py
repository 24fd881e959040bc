"""Closed-form Sauer-type size bounds, extremal generators, and the
small-case combinatorial checks (acyclic extension graphs at ell = 1, and
degree peeling for two-coordinate classes).

All bound arithmetic is exact big-integer; no floating point enters here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Iterator, NamedTuple

from .classes import (CapExceeded, DEFAULT_ENUMERATION_CAP, HypothesisClass, Pattern,
                      lines)
from .dims import ds_dimension


class BoundViolation(AssertionError):
    """A verified size bound failed; this signals an implementation bug and is
    raised loudly rather than returned."""

    def __init__(self, report: "BoundReport"):
        super().__init__(f"size {report.class_size} exceeds bound {report.ds_bound} "
                         f"at d={report.d_used}, ell={report.ell}")
        self.report = report


def ds_sauer_bound(n: int, k: int, ell: int, d: int) -> int:
    """sum_{i=0}^{d} C(n,i) (k-ell)^i ell^(n-i), exactly."""
    _check_params(n, k, ell, d)
    return sum(comb(n, i) * (k - ell) ** i * ell ** (n - i) for i in range(d + 1))


def natarajan_sauer_bound(n: int, k: int, ell: int, d: int) -> int:
    """ell^(n-d) * sum_{i=0}^{d} C(n,i) C(k,ell+1)^i, exactly."""
    _check_params(n, k, ell, d)
    if ell + 1 > k:
        raise ValueError(f"need ell+1 <= k, got ell={ell}, k={k}")
    return ell ** (n - d) * sum(comb(n, i) * comb(k, ell + 1) ** i for i in range(d + 1))


def _check_params(n: int, k: int, ell: int, d: int) -> None:
    if n < 1 or k < 2:
        raise ValueError(f"need n >= 1 and k >= 2, got n={n} k={k}")
    if not (0 <= d <= n):
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    if not (1 <= ell <= k):
        raise ValueError(f"need 1 <= ell <= k, got ell={ell}, k={k}")


def iter_bounded_high_vectors(n: int, k: int, ell: int, d: int) -> Iterator[Pattern]:
    """All vectors in {0..k-1}^n with at most d coordinates >= ell, in
    lexicographic order.  Shared by the extremal class and the monomial
    basis, which have identical index sets."""
    yield from sorted(
        vector
        for r in range(d + 1)
        for high in combinations(range(n), r)
        for vector in product(*(range(ell, k) if i in high else range(ell)
                                for i in range(n))))


def extremal_class(n: int, k: int, ell: int, d: int,
                   cap: int = DEFAULT_ENUMERATION_CAP) -> HypothesisClass:
    """The class of all patterns taking values >= ell on at most d coordinates.

    Its size meets ds_sauer_bound(n, k, ell, d) exactly, which makes it the
    tightness witness for that bound.
    """
    _check_params(n, k, ell, d)
    size = ds_sauer_bound(n, k, ell, d)
    if size > cap:
        raise CapExceeded(f"extremal class size {size} exceeds cap {cap}")
    return HypothesisClass(n, k, frozenset(iter_bounded_high_vectors(n, k, ell, d)))


@dataclass(frozen=True)
class BoundReport:
    class_size: int
    ds_bound: int
    nat_bound: int
    d_used: int
    ell: int
    holds: bool
    slack: int


def verify_sauer(h: HypothesisClass, ell: int, claimed_d: int | None = None) -> BoundReport:
    """Compute the exact DS dimension of ``h`` and check its size against both
    bounds evaluated there.

    ``holds`` must come out true on every input; a false result raises
    BoundViolation instead of being returned silently.  When ``claimed_d`` is
    given it is verified against the computed dimension first.
    """
    if h.is_empty:
        raise ValueError("cannot verify bounds for the empty class")
    if ell >= h.k:
        raise ValueError(f"need ell < k, got ell={ell}, k={h.k}")
    d = ds_dimension(h, ell).value
    if claimed_d is not None and claimed_d != d:
        raise ValueError(f"claimed dimension {claimed_d} differs from computed {d}")
    ds_b = ds_sauer_bound(h.n, h.k, ell, d)
    nat_b = natarajan_sauer_bound(h.n, h.k, ell, d)
    report = BoundReport(class_size=len(h), ds_bound=ds_b, nat_bound=nat_b,
                         d_used=d, ell=ell, holds=len(h) <= ds_b,
                         slack=ds_b - len(h))
    if not report.holds:
        raise BoundViolation(report)
    return report


# ---------------------------------------------------------------------------
# Extension graph (the d = ell = 1 combinatorial argument)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionGraph:
    """Bipartite graph of a chosen coordinate: left vertices are the off-
    coordinate prefixes with >= 2 extensions, right vertices the labels,
    edges the class members through those prefixes."""

    left: tuple[Pattern, ...]
    right: tuple[int, ...]
    edges: tuple[tuple[Pattern, int], ...]


class AppendixReport(NamedTuple):
    acyclic: bool
    bound: int
    holds: bool


def build_extension_graph(h: HypothesisClass, coordinate: int | None = None) -> ExtensionGraph:
    """Group patterns by their values off ``coordinate`` (default: the last
    one) and keep only prefixes extended by >= 2 labels."""
    i = h.n - 1 if coordinate is None else coordinate
    if not (0 <= i < h.n):
        raise ValueError(f"coordinate {i} out of range [0,{h.n})")
    extensions = {u: sorted(p[i] for p in members)
                  for (_, u), members in lines(h.patterns, (i,)).items()}
    left = tuple(sorted(u for u, exts in extensions.items() if len(exts) >= 2))
    edges = tuple((u, a) for u in left for a in extensions[u])
    return ExtensionGraph(left=left, right=tuple(range(h.k)), edges=edges)


def appendix_check(h: HypothesisClass, coordinate: int | None = None) -> AppendixReport:
    """For a class of 1-DS dimension <= 1: the extension graph is acyclic and
    |H| <= 1 + n(k-1).

    Raises if the dimension precondition fails.  The induction in the
    underlying argument fixes the last coordinate; any other may be chosen.
    """
    if h.is_empty:
        raise ValueError("cannot check the empty class")
    d = ds_dimension(h, 1).value
    if d > 1:
        raise ValueError(f"precondition violated: 1-DS dimension is {d} > 1")
    graph = build_extension_graph(h, coordinate)
    acyclic = _is_acyclic(graph)
    bound = 1 + h.n * (h.k - 1)
    return AppendixReport(acyclic=acyclic, bound=bound, holds=len(h) <= bound)


def _is_acyclic(graph: ExtensionGraph) -> bool:
    parent: dict[object, object] = {}

    def find(x):
        while parent.get(x, x) is not x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for u, a in graph.edges:
        ru, ra = find(("L", u)), find(("R", a))
        if ru == ra:
            return False
        parent[ru] = ra
    return True


# ---------------------------------------------------------------------------
# Two-coordinate degree peeling
# ---------------------------------------------------------------------------

class PeelReport(NamedTuple):
    edges_removed: int
    success: bool
    order: tuple[tuple[int, int], ...]


def turan_reference(k: int, ell: int) -> float:
    """The k^(2 - 1/(ell+1)) edge-count scale for two-coordinate classes
    avoiding a complete (ell+1) x (ell+1) product.  Descriptive only: it is
    reported next to peel results but never asserted, since its tightness
    beyond small ell is an open problem."""
    return float(k) ** (2.0 - 1.0 / (ell + 1))


def bipartite_peel(h: HypothesisClass, ell: int) -> PeelReport:
    """View an n=2 class as a bipartite graph (coordinate 0 on the left,
    coordinate 1 on the right, patterns as edges) and repeatedly peel a
    vertex of degree <= ell.

    Success (the graph empties) is equivalent to the class containing no
    (ell+1)-pseudo-cube, and certifies |H| <= ell(2k - ell).  The order lists
    peeled vertices as (side, value) with side 0 = left.
    """
    if h.n != 2:
        raise ValueError(f"degree peeling needs n=2, got n={h.n}")
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    adj: dict[tuple[int, int], set[Pattern]] = {}
    for (a, b) in h.patterns:
        adj.setdefault((0, a), set()).add((a, b))
        adj.setdefault((1, b), set()).add((a, b))
    alive_edges = set(h.patterns)
    order: list[tuple[int, int]] = []
    peeled: set[tuple[int, int]] = set()
    heap = [v for v, edges in adj.items() if len(edges) <= ell]
    heapq.heapify(heap)
    while heap:
        v = heapq.heappop(heap)
        if v in peeled:
            continue
        # degrees only drop, so v is still peelable
        peeled.add(v)
        order.append(v)
        for edge in list(adj[v]):
            alive_edges.discard(edge)
            a, b = edge
            for w in ((0, a), (1, b)):
                if w != v:
                    adj[w].discard(edge)
                    if len(adj[w]) == ell and w not in peeled:
                        heapq.heappush(heap, w)
        adj[v].clear()
    return PeelReport(edges_removed=len(h) - len(alive_edges),
                      success=not alive_edges,
                      order=tuple(order))
