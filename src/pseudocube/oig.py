"""One-inclusion hypergraphs: construction, degree statistics, shifting,
maximum density, and min-max list orientations via an integer flow network.

The one-inclusion graph of a class groups its patterns into hyperedges, one
per (direction i, assignment to the other coordinates): the patterns that
agree everywhere except possibly at i.  Every vertex lies in exactly n edges,
one per direction (its own line, possibly a singleton).  The hyperedges, the
shift and the density count all read their lines from ``classes.lines``.

A list orientation assigns to each edge at most ell of its own vertices; a
vertex pays one unit of ell-outdegree for every incident edge that does not
select it.  The least achievable maximum ell-outdegree equals the least
integer c for which a layered flow network (source -> edges -> vertices ->
sink, with capacities (|e|-ell)_+, 1, and c) carries a flow saturating the
source.  The outdegrees sum to the total demand, so c is at least its
ceiling average over the vertices, and feasibility only grows with c.  We
try c upward from that bound and read the orientation off the integral
maximum flow at the first feasible c, so the result is an exact optimum, not
an upper bound.

The maximum flow is Dinic's algorithm, and on this network its first phase
is a greedy pass: every augmenting path of the first level graph is source,
edge, vertex, sink and carries one unit, so the phase charges, edge by edge
and member by member, each vertex with budget left until the edge's demand
is met.  That pass runs without a network.  Only when it leaves demand
unmet is the network built, loaded with the greedy flow, and Dinic carried
on from its second phase, so every flow, and every selection read off one,
is the one a fresh network would give.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .classes import CapExceeded, HypothesisClass, Pattern, _Frozen, lines

DENSITY_BRUTEFORCE_CAP = 14


def _check_ell(ell: int) -> None:
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")


class Edge(_Frozen):
    """A hyperedge: the patterns agreeing with ``fixed`` off ``direction``."""

    __match_args__ = ("direction", "fixed", "members")

    def __init__(self, direction: int, fixed: Pattern, members: tuple[Pattern, ...]):
        self._set(direction, fixed, members)

    def __len__(self) -> int:
        return len(self.members)


class OneInclusionGraph(NamedTuple):
    n: int
    k: int
    vertices: tuple[Pattern, ...]
    edges: tuple[Edge, ...]


def build_oig(h: HypothesisClass) -> OneInclusionGraph:
    """Build the complete hyperedge set; total edge membership is n * |H|."""
    if h.is_empty:
        raise ValueError("the one-inclusion graph of the empty class is undefined")
    edges = tuple(Edge(direction=i, fixed=f, members=tuple(sorted(members)))
                  for (i, f), members in sorted(lines(h.patterns, range(h.n)).items()))
    return OneInclusionGraph(n=h.n, k=h.k, vertices=tuple(sorted(h.patterns)), edges=edges)


class DegreeStats(NamedTuple):
    """Per-vertex ell-degrees plus the two exact-rational averages.

    avd averages |e| over edges larger than ell; savd averages the overhangs
    (|e| - ell)_+ over all edges.  Always savd <= avd."""

    ell: int
    degrees: dict[Pattern, int]
    avd: Fraction
    savd: Fraction


def degree_stats(g: OneInclusionGraph, ell: int) -> DegreeStats:
    _check_ell(ell)
    degrees = {v: 0 for v in g.vertices}
    big_total = 0
    overhang = 0
    for e in g.edges:
        s = len(e)
        if s > ell:
            big_total += s
            overhang += s - ell
            for v in e.members:
                degrees[v] += 1
    nv = len(g.vertices)
    return DegreeStats(ell=ell, degrees=degrees,
                       avd=Fraction(big_total, nv), savd=Fraction(overhang, nv))


def shift(h: HypothesisClass, i: int) -> HypothesisClass:
    """Push every direction-i edge downward: an edge of size s is re-laid on
    the labels {0, ..., s-1}.  Size-preserving; labels are 0-based here."""
    if not (0 <= i < h.n):
        raise ValueError(f"direction {i} out of range [0,{h.n})")
    shifted = frozenset(f[:i] + (v,) + f[i:]
                        for (_, f), members in lines(h.patterns, (i,)).items()
                        for v in range(len(members)))
    return HypothesisClass._of(h.n, h.k, shifted)


def shift_fixed_point(h: HypothesisClass) -> HypothesisClass:
    """Apply shifts round-robin over directions until a full sweep is a no-op.

    Terminates because the total coordinate sum strictly drops on any change.
    The result is downward closed (verified before returning) and has the
    same cardinality as the input.
    """
    current = h
    changed = True
    while changed:
        changed = False
        for i in range(h.n):
            nxt = shift(current, i)
            if nxt.patterns != current.patterns:
                current = nxt
                changed = True
    if not is_downward_closed(current):
        raise AssertionError("shift fixed point must be downward closed")
    if len(current) != len(h):
        raise AssertionError("shifting must preserve cardinality")
    return current


def is_downward_closed(h: HypothesisClass) -> bool:
    """Every single-coordinate decrement of a member is a member."""
    pats = h.patterns
    for p in pats:
        for i, v in enumerate(p):
            if v > 0 and p[:i] + (v - 1,) + p[i + 1:] not in pats:
                return False
    return True


def max_density_bruteforce(h: HypothesisClass, ell: int,
                           cap: int = DENSITY_BRUTEFORCE_CAP) -> Fraction:
    """Exact maximum of savd over all nonempty sub-classes, by enumeration.

    Exponential in |H|; refuses inputs above ``cap``.
    """
    _check_ell(ell)
    if h.is_empty:
        raise ValueError("maximum density of the empty class is undefined")
    if len(h) > cap:
        raise CapExceeded(f"|H| = {len(h)} exceeds subset-enumeration cap {cap}")
    pats = sorted(h.patterns)
    best = Fraction(0)
    for r in range(1, len(pats) + 1):
        for subset in combinations(pats, r):
            overhang = sum(max(len(ms) - ell, 0) for ms in lines(subset, range(h.n)).values())
            best = max(best, Fraction(overhang, r))
    return best


# ---------------------------------------------------------------------------
# Integer flow network and min-max orientation
# ---------------------------------------------------------------------------

class FlowNetwork:
    """Layered network: source -> one node per demanding edge -> one node per
    vertex -> sink.  Source arcs carry the edge demands (|e|-ell)_+, middle
    arcs 1, sink arcs the uniform budget ``sink_capacity``.

    ``max_flow`` is Dinic's algorithm on integer capacities.  Arcs are added
    edge by edge (source arc, then its middle arcs), then the sink arcs, and
    augmentation follows that order, so flows are reproducible.

    ``min_max_orientation_indexed`` builds a network only for a budget at
    which ``_greedy_first_phase`` leaves demand unmet, and hands it that
    phase's flow through ``_load`` before calling ``max_flow``; a network
    built from scratch, as the test oracles build it, starts empty."""

    def __init__(self, num_vertices: int, incidence: list[tuple[int, ...]],
                 demands: list[int], sink_capacity: int):
        ne = len(demands)
        self.sink = 1 + ne + num_vertices
        self.adj: list[list[list[int]]] = [[] for _ in range(self.sink + 1)]
        self.incidence = incidence
        self.mid_arcs: list[list[list[int]]] = []
        for j, (demand, members) in enumerate(zip(demands, incidence)):
            self._add_arc(0, 1 + j, demand)
            self.mid_arcs.append([self._add_arc(1 + j, 1 + ne + v, 1) for v in members])
        for v in range(num_vertices):
            self._add_arc(1 + ne + v, self.sink, sink_capacity)

    def _add_arc(self, u: int, v: int, cap: int) -> list[int]:
        arc = [v, cap, len(self.adj[v])]
        rev = [u, 0, len(self.adj[u])]
        self.adj[u].append(arc)
        self.adj[v].append(rev)
        return arc

    def _load(self, charged: list[list[int]]) -> None:
        """Carry one unit source -> edge j -> v -> sink for every v in
        ``charged[j]``, as Dinic's first phase leaves the fresh network when
        ``charged`` is ``_greedy_first_phase``'s.  The members of an edge are
        distinct, so a vertex names its middle arc."""
        adj, ne = self.adj, len(self.mid_arcs)
        for source_arc, arcs, members, picked in zip(adj[0], self.mid_arcs,
                                                     self.incidence, charged):
            for arc, v in zip(arcs, members):
                if v in picked:
                    # the sink arc is the last one added at a vertex node
                    for a in (source_arc, arc, adj[1 + ne + v][-1]):
                        a[1] -= 1
                        adj[a[0]][a[2]][1] += 1

    def max_flow(self) -> int:
        """Augment from the source (node 0) to the sink until no path is
        left; returns the flow added to what the arcs carried before."""
        adj, t = self.adj, self.sink
        flow = 0
        while True:
            level = [-1] * len(adj)
            level[0] = 0
            queue = [0]
            for u in queue:
                for v, cap, _ in adj[u]:
                    if cap > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * len(adj)

            def dfs(u: int, limit: int) -> int:
                if u == t:
                    return limit
                while it[u] < len(adj[u]):
                    arc = adj[u][it[u]]
                    v, cap, rev = arc
                    if cap > 0 and level[v] == level[u] + 1:
                        pushed = dfs(v, min(limit, cap))
                        if pushed:
                            arc[1] -= pushed
                            adj[v][rev][1] += pushed
                            return pushed
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(0, 1 << 62)
                if not pushed:
                    break
                flow += pushed

    def charged(self) -> list[list[int]]:
        """Per demanding edge, the vertices whose middle arc carries flow."""
        return [[v for arc, v in zip(arcs, members) if arc[1] == 0]
                for arcs, members in zip(self.mid_arcs, self.incidence)]


def _greedy_first_phase(num_vertices: int, incidence: list[tuple[int, ...]],
                        demands: list[int], c: int) -> tuple[list[list[int]], int]:
    """Dinic's first phase on a fresh ``FlowNetwork(num_vertices, incidence,
    demands, c)``, without building it: per edge, the vertices it charges,
    and the flow.  The level graph runs source, edges, vertices, sink, and
    the depth-first search takes the source arcs in edge order and the
    middle arcs in member order.  At a vertex the reverse arcs fail the
    level test, and a full sink arc moves the search past the vertex for
    the rest of the phase, so a vertex takes units while its budget lasts."""
    budget = [c] * num_vertices
    charged = []
    flow = 0
    for demand, members in zip(demands, incidence):
        picked = []
        for v in members:
            if budget[v]:
                budget[v] -= 1
                picked.append(v)
                if len(picked) == demand:
                    break
        charged.append(picked)
        flow += len(picked)
    return charged, flow


class ListOrientation(NamedTuple):
    """Assignment of at most ell own vertices to every edge."""

    ell: int
    assignment: dict[Edge, frozenset[Pattern]]


def min_max_orientation_indexed(num_vertices: int, edges: list[tuple[int, ...]],
                                ell: int) -> tuple[list[frozenset[int]], int]:
    """Core routine on integer-indexed vertices.

    Returns per-edge selected vertex sets (each of size min(|e|, ell)) and the
    exact least achievable maximum ell-outdegree c*.  A budget c is feasible
    precisely when the flow saturates the total demand.  The outdegrees sum
    to the total demand, so c* >= ceil(total / |V|), and feasibility only
    grows with c; budgets are tried upward from that bound, so the first
    feasible one is c* and the selection is read off its flow.  At each
    budget the greedy first phase runs alone, and a network is built only
    when that phase leaves demand unmet.
    """
    demands = [max(len(e) - ell, 0) for e in edges]
    total = sum(demands)
    if total == 0:
        return [frozenset(e) for e in edges], 0
    incidence = [e for e, d in zip(edges, demands) if d > 0]
    positive = [d for d in demands if d > 0]
    c = -(-total // num_vertices)
    while True:
        charged, flow = _greedy_first_phase(num_vertices, incidence, positive, c)
        if flow < total:
            net = FlowNetwork(num_vertices, incidence, positive, c)
            net._load(charged)
            flow += net.max_flow()
            charged = net.charged()
        if flow == total:
            break
        if c >= len(incidence):
            raise AssertionError("a budget of one per demanding edge must admit a saturating flow")
        c += 1
    charged = iter(charged)
    selection = [frozenset(e) if d == 0 else frozenset(e).difference(next(charged))
                 for e, d in zip(edges, demands)]
    return selection, c


def orient_minmax(g: OneInclusionGraph, ell: int) -> tuple[ListOrientation, int]:
    """Exact min-max ell-outdegree orientation of ``g``.

    The selected set of every edge is its vertices that carry no flow; its
    size is min(|e|, ell).  The returned integer is the optimum over all
    list orientations.
    """
    _check_ell(ell)
    index = {v: j for j, v in enumerate(g.vertices)}
    indexed = [tuple(index[v] for v in e.members) for e in g.edges]
    selection, cstar = min_max_orientation_indexed(len(g.vertices), indexed, ell)
    assignment = {e: frozenset(g.vertices[j] for j in sel)
                  for e, sel in zip(g.edges, selection)}
    return ListOrientation(ell=ell, assignment=assignment), cstar


def outdegrees(g: OneInclusionGraph, sigma: ListOrientation) -> dict[Pattern, int]:
    """Per-vertex count of incident edges whose selection omits the vertex."""
    out = {v: 0 for v in g.vertices}
    for e in g.edges:
        chosen = sigma.assignment[e]
        for v in e.members:
            if v not in chosen:
                out[v] += 1
    return out


def format_orientation(g: OneInclusionGraph, sigma: ListOrientation) -> str:
    """Deterministic text dump: one line per edge, vertices as indices into
    the canonical vertex order."""
    index = {v: j for j, v in enumerate(g.vertices)}
    lines = []
    for e in g.edges:
        fixed = ",".join(str(v) for v in e.fixed)
        chosen = " ".join(str(index[v]) for v in sorted(sigma.assignment[e]))
        lines.append(f"dir={e.direction} fixed={fixed} list={chosen}")
    return "\n".join(lines) + "\n"
