"""Exact shattering dimensions of finite classes, by brute force over
coordinate subsets with peeling accelerations.

Conventions used throughout:

* An m-pseudo-cube is a nonempty set in which every pattern has at least
  m-1 neighbors (patterns differing in exactly one coordinate) in every
  coordinate direction.  Equivalently, every line of the set (maximal group
  of patterns agreeing outside one coordinate) has size >= m.
* A coordinate set S is shattered at list size ell when the projection onto
  S contains an (ell+1)-pseudo-cube (DS flavor) or an (ell+1)-cube, i.e. a
  Cartesian product of (ell+1)-subsets (Natarajan flavor).
* For ell >= k no projection can offer ell+1 distinct values per line, so
  the DS and Natarajan dimensions degenerate to 0; a warning is emitted.

All four dimensions run one subset search, ``_search``, with the shattering
test of their kind; the first hit, largest size first and then lexicographic,
is the witness.  It tests sizes downward, which is cheap when the dimension is
near n (dense classes).  The DS and Natarajan searches also count the
coordinates they read against a budget from the sharp Sauer bound
|H| <= sum_{i<=d} C(n,i) (k-ell)^i ell^(n-i): its least such d is a lower
bound L on the DS dimension, and the budget is what a level-wise (Apriori)
search reads to reach size L+1.  Where refuting every size above L downward
reads more than twice the budget, a level-wise search joins in once the
budget is spent, and the two take turns, the one that has read less going
next, so a dimension near L (sparse classes) is found from below and one far
above L still from above.  DS and Natarajan shattering are closed under taking
subsets, so the answer, witness and structure are those of the downward
search.  On the permuted extremal classes of the benchmark, whose DS
dimension is L, this cut the time of a ``dims_sparse`` pass from 3.7 s to
1.4 s; dense random classes find their dimension within the budget and test
the same sets as before.

Lines come from the one line index, ``classes.lines``.  ``max_pseudocube_core``
is the one peel engine: the peeling orders of the certificates in
``polycert`` are its traces.
"""

from __future__ import annotations

import heapq
import warnings
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Iterable

from .classes import CapExceeded, Coords, HypothesisClass, Pattern, lines, project

GRAPH_DIM_BUDGET = 2 ** 22


@dataclass(frozen=True)
class PseudoCubeReport:
    """Result of deficiency peeling: the unique maximal m-pseudo-cube subset.

    ``peel_trace`` lists removals as (pattern, deficient direction) in the
    order they happened; trace length plus core size equals the input size.
    """

    core: HypothesisClass
    is_pseudo_cube: bool
    peel_trace: tuple[tuple[Pattern, int], ...]


@dataclass(frozen=True)
class DimensionResult:
    """A dimension value with its witnessing coordinate set and structure.

    ``witness_structure`` depends on the dimension kind: the pseudo-cube core
    (DS), the factor sets (Natarajan), the projection cardinality
    (exponential), or a (pivot, sign-pattern -> member) pair (graph).
    """

    value: int
    witness: Coords
    witness_structure: object = None


def is_pseudocube(b: HypothesisClass, m: int) -> bool:
    """True iff every pattern of ``b`` has >= m-1 neighbors in every direction."""
    if b.is_empty:
        raise ValueError("the empty class is not a pseudo-cube of any order")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return all(len(members) >= m for members in lines(b.patterns, range(b.n)).values())


def max_pseudocube_core(p: HypothesisClass, m: int) -> PseudoCubeReport:
    """Peel deficient patterns until the maximal m-pseudo-cube subset remains.

    Pseudo-cubes are closed under union, so the maximal one exists and equals
    the fixed point of deleting any pattern with fewer than m-1 neighbors in
    some direction.  Removals are ordered by smallest (pattern, direction)
    among the currently deficient, for reproducibility.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    alive = set(p.patterns)
    n = p.n
    members = lines(alive, range(n))
    size = {key: len(pats) for key, pats in members.items()}
    heap = [(q, i) for (i, _), pats in members.items() if len(pats) < m for q in pats]
    heapq.heapify(heap)
    trace: list[tuple[Pattern, int]] = []
    while heap:
        q, i = heapq.heappop(heap)
        if q not in alive:
            continue
        # a line once deficient only shrinks further, so (q, i) is still valid
        alive.remove(q)
        trace.append((q, i))
        for j in range(n):
            key = (j, q[:j] + q[j + 1:])
            size[key] -= 1
            if size[key] == m - 1:
                for r in members[key]:
                    if r in alive:
                        heapq.heappush(heap, (r, j))
    core = HypothesisClass(p.n, p.k, frozenset(alive))
    return PseudoCubeReport(core=core,
                            is_pseudo_cube=bool(p.patterns) and not trace,
                            peel_trace=tuple(trace))


def _preconditions(h, ell: int, degenerate: str | None = None) -> bool:
    """Reject an empty class and ell < 1; with ``degenerate`` given and
    ell >= k, warn and return True (the dimension is 0 by convention)."""
    if not len(h):
        raise ValueError("dimension of the empty class is undefined")
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if degenerate is None or ell < h.k:
        return False
    warnings.warn(f"ell={ell} >= k={h.k}: {degenerate}dimension is 0 by convention")
    return True


def _search(n: int, size: int, base: int, shattered,
            zero: DimensionResult = DimensionResult(0, ()),
            lower: int | None = None) -> DimensionResult:
    """Sizes d from the largest with base^d <= size (a shattered d-set forces
    base^d distinct projected patterns) down to 1, each in ``combinations``
    order; the first set that ``shattered`` maps to a structure, not None,
    is the witness, so ties go to the lexicographically smallest set.

    With ``lower`` given, each tested set costs its size, and once the next
    test would take the total past B = sum_{j=1}^{lower+1} j C(n,j), what an
    ``_Upward`` search reads to reach size lower+1, that search joins in;
    but only when refuting every size above ``lower`` downward would read
    more than 2B, because a dimension of ``lower`` costs the two searches
    up to B each.  From then on the side that has read less goes next: the
    upward search finishes a size whenever that keeps it within the downward
    total plus the pending test.  The downward search skips any set that has
    an unshattered subset of the size the upward search last finished.  The
    answer is the downward search's first hit, or the upward one's once it
    meets an empty size or reaches the current downward size d, since every
    size above d is refuted.

    Only subset-closed shattering may pass ``lower``.  Exponential
    "shattering" is not: {(0,0),(0,1),(0,2),(0,3)} (n=2, k=4, ell=1) has 4
    patterns on (0, 1) but 1 < 2 on (0,).  ``graph_dimension`` stays
    downward too, so that the sets whose pivot search can raise
    ``CapExceeded`` under its per-set budget do not change."""
    top = max(d for d in range(n + 1) if base ** d <= size)
    budget = None
    if lower is not None:
        budget = sum(j * comb(n, j) for j in range(1, lower + 2))
        if sum(j * comb(n, j) for j in range(lower + 1, top + 1)) <= 2 * budget:
            budget = None
    spent, up = 0, None
    for d in range(top, 0, -1):
        if up is not None and up.size == d:
            return up.result
        for coords in combinations(range(n), d):
            if budget is not None and spent + d > budget:
                up = up or _Upward(n, shattered, zero)
                while up.spent + up.next_cost <= spent + d:
                    up.step()
                    if up.done or up.size == d:
                        return up.result
                if any(s not in up.level for s in combinations(coords, up.size)):
                    continue
            spent += d
            found = shattered(coords)
            if found is not None:
                return DimensionResult(d, coords, found)
    return zero


class _Upward:
    """Level-wise (Apriori) search for a subset-closed ``shattered``, one size
    at a time: size j+1 tests, in lexicographic order, only the sets whose
    j-subsets were all shattered.  ``result`` is the first shattered set of
    the last finished size, the witness the downward search would find if
    that size is the dimension; ``done`` is set when a size has none."""

    def __init__(self, n: int, shattered, zero: DimensionResult):
        self.n, self.shattered, self.result = n, shattered, zero
        self.size, self.spent, self.done = 0, 0, False
        self.level: dict[Coords, None] = {(): None}
        self._plan()

    def _plan(self) -> None:
        j = self.size
        self.candidates = [s + (c,) for s in self.level
                           for c in range(s[-1] + 1 if s else 0, self.n)
                           if all(s[:i] + s[i + 1:] + (c,) in self.level for i in range(j))]
        self.next_cost = (j + 1) * len(self.candidates)

    def step(self) -> None:
        nxt: dict[Coords, None] = {}
        for coords in self.candidates:
            found = self.shattered(coords)
            if found is not None:
                if not nxt:
                    first = DimensionResult(len(coords), coords, found)
                nxt[coords] = None
        self.spent += self.next_cost
        if not nxt:
            self.done = True
            return
        self.size, self.level, self.result = self.size + 1, nxt, first
        self._plan()


def _sauer_lower(n: int, k: int, ell: int, size: int) -> int:
    """The least e with sum_{i<=e} C(n,i) (k-ell)^i ell^(n-i) >= size, a lower
    bound on the DS dimension of a class of that size (the closed form of
    ``bounds.ds_sauer_bound``, which cannot be imported here: ``bounds``
    imports this module)."""
    total = 0
    for e in range(n + 1):
        total += comb(n, e) * (k - ell) ** e * ell ** (n - e)
        if total >= size:
            return e
    return n


def ds_shattered(h: HypothesisClass, coords: Coords, ell: int):
    """The maximal (ell+1)-pseudo-cube inside the projection onto ``coords``,
    or None when the projection contains no (ell+1)-pseudo-cube."""
    core = max_pseudocube_core(project(h, coords), ell + 1).core
    return None if core.is_empty else core


def ds_dimension(h: HypothesisClass, ell: int) -> DimensionResult:
    """Largest coordinate set whose projection contains an (ell+1)-pseudo-cube.

    Searches subset sizes downward from min(n, log_{ell+1}|H|), joined where
    it pays by a level-wise search once the Sauer budget is spent; ties
    among witnesses break toward the lexicographically smallest coordinate
    set.
    """
    if _preconditions(h, ell, f"no line can hold {ell + 1} distinct values, "):
        return DimensionResult(0, ())
    return _search(h.n, len(h), ell + 1, lambda coords: ds_shattered(h, coords, ell),
                   lower=_sauer_lower(h.n, h.k, ell, len(h)))


def _cube_factors(by_value: dict[int, set[Pattern]], d: int, ell1: int):
    """Search for factor sets Y_1 x ... x Y_d inside a projection, given the
    suffix sets of each first-coordinate value.  Returns the factors or None."""
    for ys in combinations(sorted(by_value), ell1):
        common: set[Pattern] = set.intersection(*(by_value[y] for y in ys))
        if len(common) < ell1 ** (d - 1):
            continue
        if d == 1:
            return (frozenset(ys),)
        rest = _cube_factors(_group_suffixes(common), d - 1, ell1)
        if rest is not None:
            return (frozenset(ys),) + rest
    return None


def _group_suffixes(patterns: Iterable[Pattern]) -> dict[int, set[Pattern]]:
    by_value: dict[int, set[Pattern]] = defaultdict(set)
    for p in patterns:
        by_value[p[0]].add(p[1:])
    return by_value


def natarajan_shattered(h: HypothesisClass, coords: Coords, ell: int):
    """Factor sets of an (ell+1)-cube inside the projection, or None."""
    pats = project(h, coords).patterns
    return _cube_factors(_group_suffixes(pats), len(coords), ell + 1)


def natarajan_dimension(h: HypothesisClass, ell: int) -> DimensionResult:
    """Largest coordinate set whose projection contains an (ell+1)-cube."""
    if _preconditions(h, ell, ""):
        return DimensionResult(0, ())
    return _search(h.n, len(h), ell + 1,
                   lambda coords: natarajan_shattered(h, coords, ell),
                   lower=_sauer_lower(h.n, h.k, ell, len(h)))


def exponential_dimension(h: HypothesisClass, ell: int) -> DimensionResult:
    """Largest d such that some d-coordinate projection has >= (ell+1)^d patterns.

    Coordinate subsets only: repeating a coordinate never increases the
    projection count, so subsets witness the same maximum at desk scale.
    """
    _preconditions(h, ell)

    def count(coords):
        found = len(project(h, coords).patterns)
        return found if found >= (ell + 1) ** len(coords) else None

    return _search(h.n, len(h), ell + 1, count, DimensionResult(0, (), 1))


# ---------------------------------------------------------------------------
# List classes and the graph dimension
# ---------------------------------------------------------------------------

ListMember = tuple[frozenset[int], ...]


@dataclass(frozen=True)
class ListClass:
    """A finite set of list predictors: maps from {0..n-1} to label sets of
    size between 1 and ell."""

    n: int
    k: int
    ell: int
    members: frozenset[ListMember]

    def __post_init__(self):
        if self.n < 1 or self.k < 2 or self.ell < 1:
            raise ValueError("need n >= 1, k >= 2, ell >= 1")
        for c in self.members:
            if len(c) != self.n:
                raise ValueError(f"member {c} has length {len(c)}, expected {self.n}")
            for s in c:
                if not (1 <= len(s) <= self.ell):
                    raise ValueError(f"list {set(s)} has size {len(s)}, expected 1..{self.ell}")
                if any(not (0 <= v < self.k) for v in s):
                    raise ValueError(f"label out of range in list {set(s)}")

    @classmethod
    def from_hypothesis_class(cls, h: HypothesisClass) -> "ListClass":
        """The singleton-list (ell = 1) view of an ordinary class."""
        members = frozenset(tuple(frozenset((v,)) for v in p) for p in h.patterns)
        return cls(h.n, h.k, 1, members)

    def sorted_members(self) -> list[ListMember]:
        return sorted(self.members, key=lambda c: tuple(tuple(sorted(s)) for s in c))

    def __len__(self) -> int:
        return len(self.members)


def graph_shattered(c: ListClass, coords: Coords, budget: int = GRAPH_DIM_BUDGET):
    """Search for a pivot realizing all 2^d membership sign patterns on
    ``coords``.  Returns (pivot, sign -> member) or None."""
    d = len(coords)
    members = c.sorted_members()
    # a pivot value must be inside some list and outside another to flip its bit
    candidates: list[list[int]] = []
    for i in coords:
        vals = [v for v in range(c.k)
                if any(v in m[i] for m in members) and any(v not in m[i] for m in members)]
        if not vals:
            return None
        candidates.append(vals)
    full = 2 ** d
    work = len(members) * full
    for pivot in product(*candidates):
        budget -= work
        if budget < 0:
            raise CapExceeded("graph-dimension search budget exceeded")
        seen: dict[tuple[int, ...], ListMember] = {}
        for m in members:
            sign = tuple(1 if pivot[j] in m[i] else 0 for j, i in enumerate(coords))
            if sign not in seen:
                seen[sign] = m
                if len(seen) == full:
                    return pivot, seen
    return None


def graph_dimension(c: ListClass, budget: int = GRAPH_DIM_BUDGET) -> DimensionResult:
    """Largest coordinate set admitting a pivot whose membership sign patterns
    are fully shattered (all 2^d realized by members of ``c``).

    ``budget`` caps the pivot search of each coordinate set: every call to
    ``graph_shattered`` starts from the full budget, so the total work of the
    search is not bounded by it."""
    _preconditions(c, c.ell)
    return _search(c.n, len(c), 2, lambda coords: graph_shattered(c, coords, budget))
