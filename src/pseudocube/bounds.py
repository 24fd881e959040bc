"""Closed-form Sauer-type size bounds, extremal generators, and the
small-case combinatorial check of acyclic extension graphs at ell = 1.

The small cases run on the shared primitives.  The extension graph is read off
the line index, ``classes.lines``.  The other small case, degree peeling of a
two-coordinate class, is the heap peel: at n = 2 a line is a vertex of the
bipartite graph and its size that vertex's degree, so the graph peels empty
exactly when ``dims.max_pseudocube_core(h, ell + 1)`` is empty, which
certifies |H| <= ell(2k - ell).

All bound arithmetic is exact big-integer; no floating point enters here.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from typing import Iterable, Iterator, NamedTuple

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


class BoundReport(NamedTuple):
    """The size of a class against both Sauer bounds at its DS dimension
    ``d_used``; ``slack`` is the DS bound minus the size."""

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
# The small-case checks
# ---------------------------------------------------------------------------

class AppendixReport(NamedTuple):
    acyclic: bool
    bound: int
    holds: bool


def appendix_check(h: HypothesisClass, coordinate: int | None = None) -> AppendixReport:
    """For a class of 1-DS dimension <= 1: the extension graph is acyclic and
    |H| <= 1 + n(k-1).

    The extension graph of a coordinate i (default: the last one) is read off
    the line index in direction i: a left vertex per line with >= 2 patterns
    (the values off i they share), a right vertex per label, and an edge from
    each line to the label its patterns take at i.  Raises if the dimension
    precondition fails.  The induction in the underlying argument fixes the
    last coordinate; any other may be chosen.
    """
    if h.is_empty:
        raise ValueError("cannot check the empty class")
    d = ds_dimension(h, 1).value
    if d > 1:
        raise ValueError(f"precondition violated: 1-DS dimension is {d} > 1")
    i = h.n - 1 if coordinate is None else coordinate
    if not (0 <= i < h.n):
        raise ValueError(f"coordinate {i} out of range [0,{h.n})")
    edges = ((u, p[i]) for (_, u), members in lines(h.patterns, (i,)).items()
             if len(members) >= 2 for p in members)
    bound = 1 + h.n * (h.k - 1)
    return AppendixReport(acyclic=_is_acyclic(edges), bound=bound, holds=len(h) <= bound)


def _is_acyclic(edges: Iterable[tuple[object, int]]) -> bool:
    """Is the bipartite graph with these (left, right) edges a forest?"""
    parent: dict[object, object] = {}

    def find(x):
        while parent.get(x, x) is not x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for u, a in edges:
        ru, ra = find(("L", u)), find(("R", a))
        if ru == ra:
            return False
        parent[ru] = ra
    return True


def turan_reference(k: int, ell: int) -> float:
    """The k^(2 - 1/(ell+1)) edge-count scale for two-coordinate classes
    avoiding a complete (ell+1) x (ell+1) product.  Descriptive only: it is
    reported next to the largest class whose bipartite graph peels empty, read
    from the heap as an empty (ell+1)-core, but never asserted, since its
    tightness beyond small ell is an open problem."""
    return float(k) ** (2.0 - 1.0 / (ell + 1))
