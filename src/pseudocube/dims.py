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
is the witness.  The exponential and graph searches test sizes downward.  DS
and Natarajan shattering are closed under taking subsets (pseudo-cubes
project to pseudo-cubes), so their searches probe sizes upward instead and
stop at the first size with no hit.  The least d that the sharp Sauer bound
|H| <= sum_{i<=d} C(n,i) (k-ell)^i ell^(n-i) allows is a lower bound L on the
DS dimension; the probe starts at L+1 and goes downward from L only when size
L+1 has no hit, so L orders the work but does not decide the answer.  They
also leave out every coordinate that takes at most ell values, which is in no
shattered set.

The DS and the Natarajan search are one driver, ``_closed_dimension``, which
takes the kernel and the set path of its kind.  It asks the cube-mask kernel
of each coordinate set S, which gets proj_S(H) as one int, a bit per cell of
[k]^d.  For DS it clears the deficient lines of one direction at a time
with bit-sliced line counts until no direction changes: the fixed point is
the maximal (ell+1)-pseudo-cube as a set of cells.  For Natarajan it slices
the int by the values of one digit at a time and ANDs ell+1 slices, which
intersects the suffix sets of ell+1 values, looking for the factor sets of
an (ell+1)-cube.  Its work follows k^d where the set path's follows |H| d, so
the driver sends a set with k^d > 1024 |H| to the set path, ``ds_shattered``
or ``natarajan_shattered``.  The kernel's cube masks come from
``_label_walk``, the package's only cube-mask builder, which ANDs the
class's ``label_masks`` one coordinate at a time and keeps the nodes of the
previous set's prefixes, shared by sets in ``combinations`` order.  On
``extremal_class(300, 3, 1, 1)``, whose search tests all 44,850 pairs, this
took ``ds_dimension`` from 3.7-4.8 s (one pass over the columns per set) to
0.43 s on a 2-core x86-64 box, Python 3.11.  The mask read off the patterns
is kept as the tests' oracle for the walk (``tests/oracles.py``).  The
driver ends with one set-path call on the witness, which must agree with
the kernel, else it raises.
``max_pseudocube_core``, the heap behind ``ds_shattered``, stays the one
peel engine and the only source of peel traces: the peeling orders of the
certificates in ``polycert`` are its traces, and the DS witness structure
is its core.  Lines come from the one line index, ``classes.lines``.
"""

from __future__ import annotations

import heapq
import warnings
from collections import defaultdict
from itertools import combinations, product
from operator import mul
from typing import Iterable, NamedTuple

from .classes import (CapExceeded, Coords, HypothesisClass, Pattern, _Frozen, lines,
                      project)

GRAPH_DIM_BUDGET = 2 ** 22


class PseudoCubeReport(NamedTuple):
    """Result of deficiency peeling: the unique maximal m-pseudo-cube subset.

    ``peel_trace`` lists removals as (pattern, deficient direction) in the
    order they happened; trace length plus core size equals the input size.
    A named tuple, like the other result records of ``dims`` and ``bounds``.
    """

    core: HypothesisClass
    is_pseudo_cube: bool
    peel_trace: tuple[tuple[Pattern, int], ...]


class DimensionResult(NamedTuple):
    """A dimension value with its witnessing coordinate set and structure.

    ``witness_structure`` depends on the dimension kind: the pseudo-cube core
    (DS), the factor sets (Natarajan), the projection cardinality
    (exponential), or a (pivot, sign-pattern -> member) pair (graph).
    """

    value: int
    witness: Coords
    witness_structure: object = None


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
    core = HypothesisClass._of(p.n, p.k, frozenset(alive))
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


def _first(coords, d: int, shattered) -> DimensionResult | None:
    """The first d-subset of ``coords``, in ``combinations`` order, that
    ``shattered`` maps to a structure, not None; None when there is none."""
    for s in combinations(coords, d):
        found = shattered(s)
        if found is not None:
            return DimensionResult(d, s, found)
    return None


def _search(coords, size: int, base: int, shattered,
            zero: DimensionResult = DimensionResult(0, ()),
            lower: int | None = None) -> DimensionResult:
    """The largest subset of ``coords`` (increasing) that ``shattered`` maps
    to a structure, ties going to the first in ``combinations`` order, so to
    the lexicographically smallest set; ``zero`` when there is none.  Sizes
    run up to the largest d with base^d <= size: a shattered d-set forces
    base^d distinct projected patterns.

    Without ``lower``, sizes are tried downward and the first hit is the
    answer.  With ``lower``, sizes lower+1, lower+2, ... are probed upward,
    each up to its first hit, and the answer is the hit of the last size
    before the first empty one; if lower+1 is already empty, the downward
    search runs from ``lower``.  This is exact because the shattering is
    closed under subsets: every size up to the dimension has a hit, none
    above it, and the first hit of the dimension's size is the downward
    search's answer.  So ``lower`` only orders the work; a wrong one costs
    time, never the answer.

    Only subset-closed shattering may pass ``lower``.  Exponential
    "shattering" is not: {(0,0),(0,1),(0,2),(0,3)} (n=2, k=4, ell=1) has 4
    patterns on (0, 1) but 1 < 2 on (0,).  ``graph_dimension`` stays
    downward too, so that the sets whose pivot search can raise
    ``CapExceeded`` under its per-set budget do not change."""
    top = max(d for d in range(len(coords) + 1) if base ** d <= size)
    if lower is not None and lower < top:
        best = None
        for d in range(lower + 1, top + 1):
            hit = _first(coords, d, shattered)
            if hit is None:
                break
            best = hit
        if best is not None:
            return best
        top = lower
    for d in range(top, 0, -1):
        hit = _first(coords, d, shattered)
        if hit is not None:
            return hit
    return zero


def _sauer_lower(n: int, k: int, ell: int, size: int) -> int:
    """The least e with ``bounds.ds_sauer_bound(n, k, ell, e) >= size``, a
    lower bound on the DS dimension of a class of that size; n when there is
    none."""
    from .bounds import ds_sauer_bound  # bounds imports this module
    return next((e for e in range(n + 1) if ds_sauer_bound(n, k, ell, e) >= size), n)


def _live(cols, ell: int) -> list[int]:
    """The coordinates whose column takes more than ell values.  A line along
    a coordinate with at most ell values holds at most ell patterns, so no set
    holding one is DS or Natarajan shattered, and leaving it out keeps the
    lexicographic order of every other set."""
    return [c for c, col in enumerate(cols) if len(set(col)) > ell]


def ds_shattered(h: HypothesisClass, coords: Coords, ell: int):
    """The maximal (ell+1)-pseudo-cube inside the projection onto ``coords``,
    or None when the projection contains no (ell+1)-pseudo-cube.

    It runs the heap, ``max_pseudocube_core``, which stays the one peel engine
    and the only source of peel traces.  ``ds_dimension`` calls it once after
    its search, for the witness; the search itself asks the cube-mask kernel,
    and asks this only of sets with k^d > 1024 |H|."""
    core = max_pseudocube_core(project(h, coords), ell + 1).core
    return None if core.is_empty else core


# Above this many cells per class pattern, k^d > _KERNEL_CELLS_PER_PATTERN * |H|,
# a projection is tested by the heap: the kernel's work follows k^d, the heap's
# |H| d.  Per set at k=8 and |H|=1000 (Xeon, Python 3.11), the kernel took
# 14 ms against the heap's 29 ms at d=7 (k^d = 2,097 |H|), and 83 ms against
# 28 ms at d=8 (16,777 |H|).
_KERNEL_CELLS_PER_PATTERN = 1024


def _digit_zero(k: int, d: int) -> tuple[int, ...]:
    """For each digit j < d, the cells of [k]^d whose digit j is 0."""
    # most significant bit first, each run of k^(j+1) cells ends in k^j ones
    return tuple(int(("0" * ((k - 1) * k ** j) + "1" * k ** j) * k ** (d - 1 - j), 2)
                 for j in range(d))


def _cube_core(cells: int, k: int, zero: tuple[int, ...], m: int) -> int:
    """The maximal m-pseudo-cube inside the cell set ``cells`` of [k]^d (see
    ``_label_walk``), as a cell set; 0 when there is none.  ``zero`` is
    ``_digit_zero(k, d)``.

    Each step takes one direction j and keeps the cells of the lines in
    direction j that hold at least m cells: the k slices of digit j are
    shifted onto digit 0 and counted bit-sliced, ``at[t]`` marking the lines
    with at least t cells among the slices seen.  A line deficient in the
    current set is deficient in the core too, so no core cell is lost, and
    the steps cycle over the directions until d in a row keep every cell:
    the fixed point is an m-pseudo-cube, hence the core."""
    d = len(zero)
    settled, j = 0, 0
    while cells and settled < d:
        stride, z = k ** j, zero[j]
        at = [0] * (m + 1)
        for v in range(k):
            line = cells >> v * stride & z
            for t in range(m, 1, -1):
                at[t] |= at[t - 1] & line
            at[1] |= line
        full = at[m]
        keep = full
        for v in range(1, k):
            keep |= full << v * stride
        # after a change, direction j itself holds only full lines
        settled = settled + 1 if cells & keep == cells else 1
        cells &= keep
        j = (j + 1) % d
    return cells


def _label_walk(masks: tuple[tuple[int, ...], ...], k: int, size: int):
    """A function from a coordinate set to its cube mask, the projection onto
    it as one int with bit sum_j p_j k^j set for each projected pattern p,
    read off ``masks``, the ``label_masks`` of a class of ``size`` patterns.

    A node is a (cell, pattern mask) pair, its cell held as the one-bit int
    2^cell; the walk starts from (0, every pattern), splits each node at
    coordinate j by ANDing it with that coordinate's k label masks, drops the
    empty results, and at the last coordinate sets bit cell + y k^(d-1) for
    every nonempty AND.  The nodes of the previous set's prefixes are kept,
    one list per depth, and the walk restarts from the first coordinate that
    differs: sets in ``combinations`` order share their leading coordinates.
    A level holds at most min(k^j, |H|) nodes, each ANDed with k masks of |H|
    bits, so time and memory can grow as |H|^2 on dense classes: on
    ``random_class(9, 4, 0.2, 1)`` (52,759 patterns) ``ds_dimension`` peaked at
    320 MiB of traced allocations, against 12 MiB with one pass over the
    columns per set."""
    stack = [[(1, (1 << size) - 1)]]
    last: list[int] = []

    def cells(coords: Coords) -> int:
        d, j = len(coords), 0
        top = min(len(stack), d) - 1
        while j < top and last[j] == coords[j]:
            j += 1
        del stack[j + 1:]
        for j in range(j, d - 1):
            stack.append([(bit << step, both)
                          for step, label in zip(range(0, k ** (j + 1), k ** j), masks[coords[j]])
                          for bit, nodes in stack[j] if (both := nodes & label)])
        last[:] = coords
        # the cells set here are distinct, so their sum is their union
        return sum([bit << step
                    for step, label in zip(range(0, k ** d, k ** (d - 1)), masks[coords[-1]])
                    for bit, nodes in stack[-1] if nodes & label])

    return cells


def _closed_dimension(h: HypothesisClass, ell: int, kernel, set_path) -> DimensionResult:
    """The search that DS and Natarajan shattering share, both being closed
    under subsets: sizes of the live coordinates are probed upward from the
    Sauer lower bound (see ``_search``), ties going to the lexicographically
    smallest set.

    A d-set with k^d <= 1024 |H| is tested by ``kernel(cells, k, zero, ell + 1)``
    on its cube mask, ``zero`` being ``_digit_zero(k, d)``; a larger one by
    ``set_path(h, coords, ell)``.  The cube masks come from ``_label_walk``,
    built on the first set the kernel tests, which reuses the nodes of the
    previous set's shared prefix.  A falsy kernel answer, an empty cell set,
    counts as no hit.  After the search, one
    ``set_path`` call on the witness gives the witness structure.  It must
    agree with the kernel's answer, compared as cells when that answer is a
    cell set (DS), else this raises ``RuntimeError``."""
    k, size = h.k, len(h)
    cap = _KERNEL_CELLS_PER_PATTERN * size
    walk = None
    zero: dict[int, tuple[int, ...]] = {}

    def shattered(coords):
        nonlocal walk
        d = len(coords)
        if k ** d > cap:
            return set_path(h, coords, ell)
        if walk is None:
            walk = _label_walk(h.label_masks, k, size)
        if d not in zero:
            zero[d] = _digit_zero(k, d)
        return kernel(walk(coords), k, zero[d], ell + 1) or None

    res = _search(_live(h.columns, ell), size, ell + 1, shattered,
                  lower=_sauer_lower(h.n, k, ell, size))
    if not res.value:
        return res
    found = seen = set_path(h, res.witness, ell)
    if found is not None and isinstance(res.witness_structure, int):
        # bit sum_j p_j k^j per core pattern; distinct cells, so the sum is the union
        weights = [k ** j for j in range(res.value)]
        seen = sum([1 << sum(map(mul, p, weights)) for p in found.patterns])
    if seen != res.witness_structure:
        raise RuntimeError(f"the set path and the cube-mask kernel disagree on the "
                           f"projection onto {res.witness}")
    return DimensionResult(res.value, res.witness, found)


def ds_dimension(h: HypothesisClass, ell: int) -> DimensionResult:
    """Largest coordinate set whose projection contains an (ell+1)-pseudo-cube.

    The search is ``_closed_dimension``'s, with the cube-mask kernel
    ``_cube_core`` and the heap ``ds_shattered`` as the set path.  The heap
    stays the one peel engine and the only source of peel traces: the witness
    structure is its core of the witness projection, which must agree with
    the kernel cell for cell, else this raises.
    """
    if _preconditions(h, ell, f"no line can hold {ell + 1} distinct values, "):
        return DimensionResult(0, ())
    return _closed_dimension(h, ell, _cube_core, ds_shattered)


def _cube_factors(patterns: Iterable[Pattern], d: int, ell1: int):
    """Search for factor sets Y_1 x ... x Y_d inside a projection by grouping
    its patterns into the suffix sets of each first-coordinate value.  Returns
    the factors or None."""
    by_value: dict[int, set[Pattern]] = defaultdict(set)
    for p in patterns:
        by_value[p[0]].add(p[1:])
    for ys in combinations(sorted(by_value), ell1):
        common: set[Pattern] = set.intersection(*(by_value[y] for y in ys))
        if len(common) < ell1 ** (d - 1):
            continue
        if d == 1:
            return (frozenset(ys),)
        rest = _cube_factors(common, d - 1, ell1)
        if rest is not None:
            return (frozenset(ys),) + rest
    return None


def _cube_mask_factors(cells: int, k: int, zero: tuple[int, ...], ell1: int, j: int = 0):
    """``_cube_factors`` on the cell set ``cells`` of [k]^d (see ``_label_walk``),
    from digit j on, every cell's digits below j being 0; ``zero`` is
    ``_digit_zero(k, d)``.

    The slice of value y at digit j, ``cells >> y * k**j & zero[j]``, is the
    set of suffixes that y extends, so ANDing slices intersects suffix sets,
    and the values and their combinations run in the same order as there.
    The shift subtracts a multiple of k^j from every cell, which keeps its
    digits below j, so ``zero[j]`` alone leaves the digits 0..j at 0."""
    d, stride = len(zero), k ** j
    slices = {y: s for y in range(k) if (s := cells >> y * stride & zero[j])}
    need = ell1 ** (d - j - 1)
    for ys in combinations(slices, ell1):
        common = slices[ys[0]]
        for y in ys[1:]:
            common &= slices[y]
        if common.bit_count() < need:
            continue
        if j == d - 1:
            return (frozenset(ys),)
        rest = _cube_mask_factors(common, k, zero, ell1, j + 1)
        if rest is not None:
            return (frozenset(ys),) + rest
    return None


def natarajan_shattered(h: HypothesisClass, coords: Coords, ell: int):
    """Factor sets of an (ell+1)-cube inside the projection, or None.

    ``natarajan_dimension`` calls it once after its search, for the witness;
    the search itself asks the cube-mask kernel, and asks this only of sets
    with k^d > 1024 |H|."""
    return _cube_factors(project(h, coords).patterns, len(coords), ell + 1)


def natarajan_dimension(h: HypothesisClass, ell: int) -> DimensionResult:
    """Largest coordinate set whose projection contains an (ell+1)-cube.

    The search is ``_closed_dimension``'s, with the cube-mask kernel
    ``_cube_mask_factors`` and ``natarajan_shattered`` as the set path, which
    must return the kernel's factors for the witness, else this raises."""
    if _preconditions(h, ell, ""):
        return DimensionResult(0, ())
    return _closed_dimension(h, ell, _cube_mask_factors, natarajan_shattered)


def exponential_dimension(h: HypothesisClass, ell: int) -> DimensionResult:
    """Largest d such that some d-coordinate projection has >= (ell+1)^d patterns.

    Coordinate subsets only: repeating a coordinate never increases the
    projection count, so subsets witness the same maximum at desk scale.
    """
    _preconditions(h, ell)
    cols = h.columns

    def count(coords):
        found = len(set(zip(*[cols[c] for c in coords])))
        return found if found >= (ell + 1) ** len(coords) else None

    return _search(range(h.n), len(h), ell + 1, count, DimensionResult(0, (), 1))


# ---------------------------------------------------------------------------
# List classes and the graph dimension
# ---------------------------------------------------------------------------

ListMember = tuple[frozenset[int], ...]


class ListClass(_Frozen):
    """A finite set of list predictors: maps from {0..n-1} to label sets of
    size between 1 and ell.  Immutable, and equal and hashed by its four
    fields, as ``HypothesisClass`` is."""

    __match_args__ = ("n", "k", "ell", "members")

    def __init__(self, n: int, k: int, ell: int, members: frozenset[ListMember]):
        self._set(n, k, ell, members)
        if self.n < 1 or self.k < 2 or self.ell < 1:
            raise ValueError("need n >= 1, k >= 2, ell >= 1")
        for c in self.members:
            if len(c) != self.n:
                raise ValueError(f"member {c} has length {len(c)}, expected {self.n}")
            for s in c:
                if not (1 <= len(s) <= self.ell):
                    raise ValueError(f"list {set(s)} has size {len(s)}, expected 1..{self.ell}")
                if any(type(v) is not int or not (0 <= v < self.k) for v in s):
                    raise ValueError(f"label out of range in list {set(s)}")

    @classmethod
    def from_hypothesis_class(cls, h: HypothesisClass) -> "ListClass":
        """The singleton-list (ell = 1) view of an ordinary class."""
        members = frozenset(tuple(frozenset((v,)) for v in p) for p in h.patterns)
        return cls._of(h.n, h.k, 1, members)

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
    return _search(range(c.n), len(c), 2, lambda coords: graph_shattered(c, coords, budget))
