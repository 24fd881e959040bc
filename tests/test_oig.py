import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pseudocube import (CapExceeded, HypothesisClass, build_oig, degree_stats,
                        exponential_dimension, is_downward_closed,
                        max_density_bruteforce, oig, orient_minmax, outdegrees,
                        shift, shift_fixed_point)
from pseudocube.oig import format_orientation, min_max_orientation_indexed

from conftest import random_corpus
from oracles import (bisect_min_max_orientation, brute_min_max_outdegree,
                     max_flow_value)

THREE = HypothesisClass.from_patterns(2, 2, [(0, 0), (0, 1), (1, 0)])


def make(n, k, pats):
    return HypothesisClass.from_patterns(n, k, pats)


def full_cube(n, k):
    return HypothesisClass(n, k, frozenset(product(range(k), repeat=n)))


class TestBuildOig:
    def test_three_corner_edges(self):
        g = build_oig(THREE)
        by_dir = {}
        for e in g.edges:
            by_dir.setdefault(e.direction, []).append(set(e.members))
        assert {frozenset(s) for s in map(frozenset, by_dir[0])} == \
            {frozenset({(0, 0), (1, 0)}), frozenset({(0, 1)})}
        assert {frozenset(s) for s in map(frozenset, by_dir[1])} == \
            {frozenset({(0, 0), (0, 1)}), frozenset({(1, 0)})}

    def test_singleton_class(self):
        g = build_oig(make(3, 2, [(0, 1, 0)]))
        assert len(g.edges) == 3 and all(len(e) == 1 for e in g.edges)

    def test_full_cube_edge_sizes(self):
        g = build_oig(full_cube(3, 3))
        assert all(len(e) == 3 for e in g.edges)

    def test_membership_count_is_n_times_size(self):
        for h in random_corpus(10, 3, 3, 0.4, seed0=10):
            g = build_oig(h)
            assert sum(len(e) for e in g.edges) == h.n * len(h)
            # each vertex lies in exactly one edge per direction
            for v in g.vertices:
                for i in range(h.n):
                    hits = [e for e in g.edges if e.direction == i and v in e.members]
                    assert len(hits) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_oig(make(2, 2, []))


class TestDegreeStats:
    def test_three_corners(self):
        st_ = degree_stats(build_oig(THREE), 1)
        assert st_.savd == Fraction(2, 3)
        assert st_.avd == Fraction(4, 3)

    def test_large_ell_zeroes_everything(self):
        st_ = degree_stats(build_oig(THREE), 5)
        assert st_.savd == 0 and st_.avd == 0
        assert all(v == 0 for v in st_.degrees.values())

    def test_full_binary_cube_closed_form(self):
        for n in (2, 3, 4):
            st_ = degree_stats(build_oig(full_cube(n, 2)), 1)
            assert st_.savd == Fraction(n, 2)

    def test_savd_at_most_avd_and_degrees_at_most_n(self):
        for h in random_corpus(15, 3, 3, 0.5, seed0=31):
            st_ = degree_stats(build_oig(h), 1)
            assert st_.savd <= st_.avd
            assert all(0 <= v <= h.n for v in st_.degrees.values())


class TestShift:
    def test_pushes_column_down(self):
        h = make(2, 2, [(1, 0), (1, 1)])
        assert shift(h, 0).patterns == {(0, 0), (0, 1)}

    def test_downward_closed_is_fixed(self):
        h = make(2, 3, [(0, 0), (0, 1), (1, 0)])
        for i in range(2):
            assert shift(h, i) == h

    def test_already_packed_direction_unchanged(self):
        assert shift(THREE, 0) == THREE

    def test_size_preserved(self):
        for h in random_corpus(20, 3, 3, 0.5, seed0=60):
            for i in range(h.n):
                assert len(shift(h, i)) == len(h)

    def test_direction_range(self):
        with pytest.raises(ValueError):
            shift(THREE, 2)


class TestShiftFixedPoint:
    def test_simple(self):
        assert shift_fixed_point(make(2, 2, [(1, 0), (1, 1)])).patterns == \
            {(0, 0), (0, 1)}

    def test_downward_closed_input_unchanged(self):
        h = make(2, 3, [(0, 0), (0, 1), (1, 0)])
        assert shift_fixed_point(h) == h

    def test_result_downward_closed_and_size_preserving(self):
        for h in random_corpus(25, 3, 4, 0.4, seed0=90):
            fixed = shift_fixed_point(h)
            assert is_downward_closed(fixed)
            assert len(fixed) == len(h)

    def test_shift_laws_on_random_corpus(self):
        for idx, h in enumerate(random_corpus(40, 3, 3, 0.5, seed0=130)):
            ell = 1 + idx % 2
            i = idx % h.n
            shifted = shift(h, i)
            assert degree_stats(build_oig(shifted), ell).savd >= \
                degree_stats(build_oig(h), ell).savd
            assert exponential_dimension(shifted, ell).value <= \
                exponential_dimension(h, ell).value


class TestMaxDensity:
    def test_three_corners(self):
        assert max_density_bruteforce(THREE, 1) == Fraction(2, 3)

    def test_singleton(self):
        assert max_density_bruteforce(make(2, 2, [(1, 1)]), 1) == 0

    def test_full_square(self):
        assert max_density_bruteforce(full_cube(2, 2), 1) == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            max_density_bruteforce(full_cube(2, 4), 1, cap=10)

    def test_savd_at_most_density_at_most_exponential(self):
        for h in random_corpus(12, 2, 3, 0.5, seed0=170, max_size=10):
            for ell in (1, 2):
                md = max_density_bruteforce(h, ell)
                assert degree_stats(build_oig(h), ell).savd <= md
                assert md <= exponential_dimension(h, ell).value


class TestFlowNetwork:
    def test_maxflow_at_density_ceiling_saturates(self):
        import math
        for h in random_corpus(12, 2, 3, 0.5, seed0=210, max_size=12):
            for ell in (1, 2):
                g = build_oig(h)
                md = max_density_bruteforce(h, ell)
                c = math.ceil(md)
                demand = sum(max(len(e) - ell, 0) for e in g.edges)
                assert max_flow_value(g, ell, c) == demand

    def test_undersized_budget_cannot_saturate(self):
        g = build_oig(full_cube(2, 2))
        assert max_flow_value(g, 1, 0) == 0


class TestOrientMinmax:
    def test_three_corners(self):
        g = build_oig(THREE)
        sigma, cstar = orient_minmax(g, 1)
        assert cstar == 1
        out = outdegrees(g, sigma)
        assert max(out.values()) <= 1
        assert sorted(out.values()) == [0, 1, 1]
        for e in g.edges:
            chosen = sigma.assignment[e]
            assert chosen <= set(e.members)
            assert len(chosen) == min(len(e), 1)

    def test_all_small_edges_keep_everything(self):
        h = make(2, 3, [(0, 0), (1, 1), (2, 2)])
        g = build_oig(h)
        sigma, cstar = orient_minmax(g, 1)
        assert cstar == 0
        assert all(sigma.assignment[e] == set(e.members) for e in g.edges)

    def test_cstar_at_most_density_ceiling(self):
        import math
        for h in random_corpus(12, 2, 3, 0.5, seed0=260, max_size=12):
            for ell in (1, 2):
                g = build_oig(h)
                _, cstar = orient_minmax(g, ell)
                assert cstar <= math.ceil(max_density_bruteforce(h, ell))

    def test_cstar_matches_bruteforce(self):
        for h in random_corpus(14, 2, 3, 0.5, seed0=300, max_size=8) + \
                random_corpus(8, 3, 2, 0.6, seed0=350, max_size=8):
            for ell in (1, 2):
                g = build_oig(h)
                sigma, cstar = orient_minmax(g, ell)
                index = {v: i for i, v in enumerate(g.vertices)}
                edges = [tuple(index[v] for v in e.members) for e in g.edges]
                assert cstar == brute_min_max_outdegree(len(g.vertices), edges, ell)
                assert max(outdegrees(g, sigma).values()) <= cstar

    def test_orientation_deterministic(self):
        g = build_oig(THREE)
        a = format_orientation(g, orient_minmax(g, 1)[0])
        b = format_orientation(g, orient_minmax(g, 1)[0])
        assert a == b
        assert a.startswith("dir=0 fixed=")


class TestIndexedOrientation:
    def test_degenerate_no_demand(self):
        sel, cstar = min_max_orientation_indexed(3, [(0,), (1, 2)], 2)
        assert cstar == 0 and sel == [frozenset({0}), frozenset({1, 2})]

    def test_two_overlapping_edges(self):
        sel, cstar = min_max_orientation_indexed(3, [(0, 1), (0, 2)], 1)
        assert cstar == 1
        for chosen, edge in zip(sel, [(0, 1), (0, 2)]):
            assert len(chosen) == 1 and chosen <= set(edge)


class TestGreedyFirstPhase:
    @staticmethod
    def _count_networks(monkeypatch):
        built = []
        init = oig.FlowNetwork.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(oig.FlowNetwork, "__init__", counting)
        return built

    def test_a_saturating_greedy_pass_builds_no_network(self, monkeypatch):
        built = self._count_networks(monkeypatch)
        sel, cstar = min_max_orientation_indexed(3, [(0, 1), (0, 2)], 1)
        assert built == [] and cstar == 1
        assert sel == [frozenset({1}), frozenset({0})]

    def test_a_stranded_edge_runs_the_second_phase(self, monkeypatch):
        # at c = 1 the greedy pass charges 0 and 1 to the first edge, and the
        # second edge finds both out of budget; the augmenting path
        # e2 -> 0 -> e1 -> 2 frees vertex 0 for it
        built = self._count_networks(monkeypatch)
        edges = [(0, 1, 2), (0, 1)]
        sel, cstar = min_max_orientation_indexed(3, edges, 1)
        assert len(built) == 1 and built[0][3] == 1
        assert cstar == 1
        assert (sel, cstar) == bisect_min_max_orientation(3, edges, 1)


@st.composite
def indexed_graphs(draw):
    """Vertex count and edges over it: some vertices isolated, edges of any
    size up to 6 (so also of size <= ell), some edges repeated."""
    nv = draw(st.integers(1, 12))
    edge = st.lists(st.integers(0, nv - 1), min_size=1, max_size=min(nv, 6),
                    unique=True).map(lambda e: tuple(sorted(e)))
    edges = draw(st.lists(edge, max_size=12))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return nv, draw(st.permutations(edges))


@settings(max_examples=400, deadline=None)
@given(indexed_graphs(), st.integers(1, 3))
def test_property_upward_scan_matches_bisection(graph, ell):
    nv, edges = graph
    selection, cstar = min_max_orientation_indexed(nv, edges, ell)
    assert (selection, cstar) == bisect_min_max_orientation(nv, edges, ell)
    choices = math.prod(math.comb(len(e), max(len(e) - ell, 0)) for e in edges)
    if choices <= 2000:
        assert cstar == brute_min_max_outdegree(nv, edges, ell)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 9 - 1), st.integers(1, 2))
def test_property_savd_shift_law_binary(mask, ell):
    cells = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    pats = [cells[j] for j in range(8) if mask >> j & 1] or [(0, 0, 0)]
    h = HypothesisClass.from_patterns(3, 2, pats)
    for i in range(3):
        assert degree_stats(build_oig(shift(h, i)), ell).savd >= \
            degree_stats(build_oig(h), ell).savd
