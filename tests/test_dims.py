import random

import pytest

from pseudocube import (CapExceeded, HypothesisClass, ListClass, ds_dimension,
                        ds_shattered, exponential_dimension, extremal_class,
                        graph_dimension, is_pseudocube, max_pseudocube_core,
                        natarajan_dimension, natarajan_shattered, project)
from pseudocube import dims, oig
from pseudocube.dims import graph_shattered

from conftest import all_classes, random_corpus
from oracles import brute_ds_dimension, brute_max_pseudocube, first_shattered

PAPER_CYCLE = HypothesisClass.from_patterns(
    2, 7, [(1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (1, 6)])


def make(n, k, pats):
    return HypothesisClass.from_patterns(n, k, pats)


class TestIsPseudocube:
    def test_six_cycle_is_a_2_pseudocube(self):
        assert is_pseudocube(PAPER_CYCLE, 2)
        assert not is_pseudocube(PAPER_CYCLE, 3)

    def test_singleton_at_m_1(self):
        assert is_pseudocube(make(3, 2, [(0, 1, 0)]), 1)

    def test_two_diagonal_points_fail_m_2(self):
        assert not is_pseudocube(make(2, 2, [(0, 0), (1, 1)]), 2)

    def test_full_cube(self):
        h = make(2, 3, [(a, b) for a in range(3) for b in range(3)])
        assert is_pseudocube(h, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_pseudocube(make(2, 2, []), 1)


class TestMaxPseudocubeCore:
    def test_square_plus_outlier(self):
        p = make(2, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
        rep = max_pseudocube_core(p, 2)
        assert rep.core.patterns == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert not rep.is_pseudo_cube
        assert len(rep.peel_trace) + len(rep.core) == len(p)

    def test_full_cube_is_its_own_core(self):
        p = make(2, 3, [(a, b) for a in range(3) for b in range(3)])
        for m in (1, 2, 3):
            rep = max_pseudocube_core(p, m)
            assert rep.core == p and rep.is_pseudo_cube

    def test_three_corner_class_has_empty_2_core(self):
        rep = max_pseudocube_core(make(2, 2, [(0, 0), (0, 1), (1, 0)]), 2)
        assert rep.core.is_empty
        assert len(rep.peel_trace) == 3

    def test_empty_input(self):
        rep = max_pseudocube_core(make(2, 2, []), 2)
        assert rep.core.is_empty and not rep.is_pseudo_cube

    def test_oracle_equivalence_exhaustive_tiny(self):
        for h in all_classes(2, 2):
            for m in (2, 3):
                assert max_pseudocube_core(h, m).core.patterns == \
                    brute_max_pseudocube(h, m)

    def test_oracle_equivalence_random(self):
        corpus = (random_corpus(8, 2, 3, 0.5, seed0=100, max_size=12)
                  + random_corpus(8, 3, 2, 0.5, seed0=200, max_size=12)
                  + random_corpus(4, 3, 3, 0.25, seed0=300, max_size=14)
                  + [PAPER_CYCLE])
        for h in corpus:
            for m in (2, 3):
                assert max_pseudocube_core(h, m).core.patterns == \
                    brute_max_pseudocube(h, m)

    def test_peel_trace_directions_are_deficient_at_removal(self):
        p = make(2, 3, [(0, 0), (0, 1), (1, 0), (2, 2)])
        rep = max_pseudocube_core(p, 2)
        alive = set(p.patterns)
        for pat, i in rep.peel_trace:
            line = [q for q in alive if q[:i] + q[i + 1:] == pat[:i] + pat[i + 1:]]
            assert len(line) < 2
            alive.remove(pat)


class TestDsDimension:
    def test_three_corner_class(self):
        res = ds_dimension(make(2, 2, [(0, 0), (0, 1), (1, 0)]), 1)
        assert res.value == 1 and res.witness == (0,)

    def test_full_cube(self):
        h = make(3, 3, [(a, b, c) for a in range(3) for b in range(3) for c in range(3)])
        assert ds_dimension(h, 1).value == 3
        assert ds_dimension(h, 2).value == 3

    def test_extremal_class_hits_d(self):
        for n in (2, 3, 4):
            for k in (2, 3):
                for ell in range(1, k):
                    for d in range(n + 1):
                        h = extremal_class(n, k, ell, d)
                        assert ds_dimension(h, ell).value == d, (n, k, ell, d)

    def test_cycle_class(self):
        assert ds_dimension(PAPER_CYCLE, 1).value == 2
        assert ds_dimension(PAPER_CYCLE, 2).value == 1

    def test_ell_at_least_k_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            assert ds_dimension(make(1, 2, [(0,), (1,)]), 2).value == 0

    def test_witness_reverifies(self):
        for h in random_corpus(10, 3, 3, 0.4, seed0=40):
            res = ds_dimension(h, 1)
            if res.value:
                assert ds_shattered(h, res.witness, 1)
                core = res.witness_structure
                assert is_pseudocube(core, 2)
                assert core.patterns <= project(h, res.witness).patterns

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ds_dimension(make(1, 2, []), 1)

    def test_matches_definition_oracle(self):
        # subset-enumeration oracle, no peeling shortcut involved
        corpus = (list(all_classes(2, 2))
                  + random_corpus(10, 2, 3, 0.5, seed0=4100, max_size=10)
                  + random_corpus(6, 3, 2, 0.5, seed0=4200, max_size=10)
                  + [PAPER_CYCLE])
        for h in corpus:
            for ell in range(1, h.k):
                assert ds_dimension(h, ell).value == brute_ds_dimension(h, ell)


class TestNatarajanDimension:
    def test_vc_case_three_corners(self):
        assert natarajan_dimension(make(2, 2, [(0, 0), (0, 1), (1, 0)]), 1).value == 1

    def test_full_cube(self):
        h = make(2, 4, [(a, b) for a in range(4) for b in range(4)])
        for ell in (1, 2, 3):
            assert natarajan_dimension(h, ell).value == 2

    def test_cycle_has_no_product_square(self):
        res = natarajan_dimension(PAPER_CYCLE, 1)
        assert res.value == 1

    def test_witness_factors_reverify(self):
        for h in random_corpus(10, 3, 3, 0.5, seed0=77):
            res = natarajan_dimension(h, 1)
            if res.value:
                factors = natarajan_shattered(h, res.witness, 1)
                assert factors is not None
                pats = project(h, res.witness).patterns
                from itertools import product as iproduct
                for combo in iproduct(*[sorted(f) for f in res.witness_structure]):
                    assert combo in pats

    def test_nat_at_most_ds(self):
        for h in all_classes(2, 3):
            for ell in (1, 2):
                assert natarajan_dimension(h, ell).value <= ds_dimension(h, ell).value

    def test_dimension_chain_on_large_random_corpus(self):
        # nat <= ds <= exp on 1000 random classes at n=4, k=4, all list sizes
        for h in random_corpus(1000, 4, 4, 0.5, seed0=80000):
            for ell in (1, 2, 3):
                nat = natarajan_dimension(h, ell).value
                ds = ds_dimension(h, ell).value
                exp = exponential_dimension(h, ell).value
                assert nat <= ds <= exp


class TestExponentialDimension:
    def test_small_alphabet_cube(self):
        h = make(3, 3, [(a, b, c) for a in range(2) for b in range(2) for c in range(2)])
        assert exponential_dimension(h, 1).value == 3

    def test_three_corners(self):
        assert exponential_dimension(make(2, 2, [(0, 0), (0, 1), (1, 0)]), 1).value == 1

    def test_singleton(self):
        assert exponential_dimension(make(2, 3, [(1, 2)]), 1).value == 0

    def test_ds_at_most_exponential(self):
        for h in all_classes(2, 3):
            for ell in (1, 2):
                assert ds_dimension(h, ell).value <= exponential_dimension(h, ell).value
        for h in random_corpus(50, 4, 4, 0.5, seed0=900):
            for ell in (1, 2, 3):
                assert ds_dimension(h, ell).value <= exponential_dimension(h, ell).value


from hypothesis import given, settings, strategies as st


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2 ** 9 - 1), st.integers(0, 2 ** 9 - 1), st.integers(1, 2))
def test_property_monotone_dimensions_under_subclass(mask, submask, ell):
    cells = [(a, b) for a in range(3) for b in range(3)]
    pats = [cells[j] for j in range(9) if mask >> j & 1]
    sub = [cells[j] for j in range(9) if mask >> j & 1 and submask >> j & 1]
    h = HypothesisClass.from_patterns(2, 3, pats)
    hsub = HypothesisClass.from_patterns(2, 3, sub or pats[:1])
    assert ds_dimension(hsub, ell).value <= ds_dimension(h, ell).value
    assert natarajan_dimension(hsub, ell).value <= natarajan_dimension(h, ell).value
    assert exponential_dimension(hsub, ell).value <= exponential_dimension(h, ell).value


class TestMonotonicity:
    def test_subclass_dimensions_do_not_grow(self):
        for h in random_corpus(12, 3, 3, 0.5, seed0=3000, min_size=3):
            pats = h.sorted_patterns()
            sub = HypothesisClass(h.n, h.k, frozenset(pats[: len(pats) // 2 + 1]))
            for ell in (1, 2):
                assert ds_dimension(sub, ell).value <= ds_dimension(h, ell).value
                assert natarajan_dimension(sub, ell).value <= natarajan_dimension(h, ell).value
                assert exponential_dimension(sub, ell).value <= exponential_dimension(h, ell).value


class TestGraphDimension:
    def test_singleton_view_of_three_corners(self):
        c = ListClass.from_hypothesis_class(make(2, 2, [(0, 0), (0, 1), (1, 0)]))
        assert graph_dimension(c).value == 1

    def test_single_member(self):
        c = ListClass.from_hypothesis_class(make(2, 2, [(0, 1)]))
        assert graph_dimension(c).value == 0

    def test_flip_pair_reaches_one(self):
        c = ListClass(1, 2, 1, frozenset({(frozenset({0}),), (frozenset({1}),)}))
        res = graph_dimension(c)
        assert res.value == 1

    def test_two_coordinate_shattering_with_lists(self):
        members = []
        for b0 in (0, 1):
            for b1 in (0, 1):
                members.append((frozenset({0, 1} if b0 else {2, 3}),
                                frozenset({0, 1} if b1 else {2, 3})))
        c = ListClass(2, 4, 2, frozenset(members))
        res = graph_dimension(c)
        assert res.value == 2
        pivot, witnesses = res.witness_structure
        assert len(witnesses) == 4

    def test_witness_reverifies(self):
        members = frozenset({
            (frozenset({0}), frozenset({1, 2})),
            (frozenset({1}), frozenset({0, 1})),
            (frozenset({0, 2}), frozenset({2})),
            (frozenset({1, 2}), frozenset({0})),
        })
        c = ListClass(2, 3, 2, members)
        res = graph_dimension(c)
        if res.value:
            assert graph_shattered(c, res.witness) is not None

    def test_budget_cap(self):
        h = extremal_class(4, 4, 2, 4)
        c = ListClass.from_hypothesis_class(h)
        with pytest.raises(CapExceeded):
            graph_dimension(c, budget=10)


class TestTieBreak:
    """Each dimension returns the first shattered set of a walk over every
    subset, largest first and then lexicographic, with the same structure."""

    @staticmethod
    def exponential_shattered(h, ell):
        def count(coords):
            found = len(project(h, coords).patterns)
            return found if found >= (ell + 1) ** len(coords) else None
        return count

    def test_first_set_of_a_brute_walk(self):
        corpus = (list(all_classes(2, 3))
                  + random_corpus(15, 3, 3, 0.5, seed0=6100)
                  + random_corpus(10, 4, 3, 0.5, seed0=6200)
                  + random_corpus(10, 4, 3, 0.2, seed0=6300)
                  + random_corpus(10, 4, 2, 0.4, seed0=6400))
        for h in corpus:
            c = ListClass.from_hypothesis_class(h)
            cases = [(graph_dimension(c), lambda s: graph_shattered(c, s), None)]
            for ell in range(1, h.k):
                cases += [
                    (ds_dimension(h, ell), lambda s, ell=ell: ds_shattered(h, s, ell), None),
                    (natarajan_dimension(h, ell),
                     lambda s, ell=ell: natarajan_shattered(h, s, ell), None),
                    (exponential_dimension(h, ell), self.exponential_shattered(h, ell), 1),
                ]
            for res, shattered, zero in cases:
                expected = first_shattered(h.n, shattered, zero)
                assert (res.value, res.witness, res.witness_structure) == expected, h

    @staticmethod
    def permuted(h, rng):
        order = list(range(h.n))
        rng.shuffle(order)
        return make(h.n, h.k, [tuple(p[i] for i in order) for p in h.patterns])

    def test_upward_phase_matches_the_brute_walk(self, monkeypatch):
        """Where the downward search hands over to the level-wise one, the
        value, witness and structure still match the brute walk, and each
        size tests, in lexicographic order, only sets whose one-smaller
        subsets were all shattered."""
        searches = []

        class Recording(dims._Upward):
            def __init__(self, n, shattered, zero):
                self.tested = []

                def logged(coords):
                    found = shattered(coords)
                    self.tested.append((coords, found is not None))
                    return found
                searches.append(self)
                super().__init__(n, logged, zero)

        monkeypatch.setattr(dims, "_Upward", Recording)
        rng = random.Random(8)
        corpus = [(self.permuted(extremal_class(n, 3, ell, d), rng), ell)
                  for n in range(5, 9) for ell in (1, 2) for d in (1, 2)]
        # a constant coordinate is a singleton that no size-2 set may extend
        corpus += [(self.permuted(make(n, 3, [p + (0,) for p in
                                          extremal_class(n - 1, 3, ell, d).patterns]), rng), ell)
                   for n in (6, 7) for ell in (1, 2) for d in (1, 2)]
        corpus += [(h, ell) for h in (random_corpus(10, 6, 3, 0.05, seed0=6500)
                                      + random_corpus(10, 5, 4, 0.1, seed0=6600)
                                      + random_corpus(4, 5, 4, 0.5, seed0=6700))
                   for ell in range(1, h.k)]
        answered_downward = 0
        for h, ell in corpus:
            for dimension, predicate in ((ds_dimension, ds_shattered),
                                         (natarajan_dimension, natarajan_shattered)):
                before = len(searches)
                res = dimension(h, ell)
                expected = first_shattered(h.n, lambda s: predicate(h, s, ell))
                assert (res.value, res.witness, res.witness_structure) == expected, (h, ell)
                answered_downward += any(up.size < res.value for up in searches[before:])
        assert len(searches) >= len(corpus) and answered_downward
        for up in searches:
            hits = {s for s, ok in up.tested if ok}
            order = [(len(s), s) for s, _ in up.tested]
            assert order == sorted(set(order))
            assert all(s[:i] + s[i + 1:] in hits
                       for s, _ in up.tested if len(s) > 1 for i in range(len(s)))

    def test_exponential_shattering_is_not_subset_closed(self):
        """Why exponential_dimension never hands over: its witness (0, 1) has a
        subset (0,) with fewer than ell+1 = 2 projected patterns."""
        h = make(2, 4, [(0, 0), (0, 1), (0, 2), (0, 3)])
        res = exponential_dimension(h, 1)
        assert (res.value, res.witness) == (2, (0, 1))
        assert len(project(h, (0,))) == 1


def test_shifting_can_raise_the_ds_dimension():
    """Down-shifting, which proves the VC case, can raise the DS dimension."""
    h = make(2, 3, [(0, 0), (0, 2), (1, 0), (1, 1)])
    shifted = oig.shift(h, 1)
    assert shifted.patterns == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert ds_dimension(h, 1).value == 1
    assert ds_dimension(shifted, 1).value == 2
