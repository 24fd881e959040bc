import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pseudocube import (CapExceeded, HypothesisClass, ListClass, ds_dimension,
                        ds_shattered, exponential_dimension, extremal_class,
                        graph_dimension, max_pseudocube_core, natarajan_dimension,
                        natarajan_shattered, project, random_class)
from pseudocube import dims, oig
from pseudocube.dims import graph_shattered

from conftest import all_classes, random_corpus
from oracles import (brute_ds_dimension, brute_max_pseudocube, cube_mask, first_shattered,
                     is_pseudocube, shift_path_exists)

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


class TestCubeKernel:
    """The cube-mask kernel that answers the DS search, against the heap peel
    it stands in for."""

    @staticmethod
    def cells(patterns, k):
        return {sum(v * k ** j for j, v in enumerate(p)) for p in patterns}

    @staticmethod
    def bits(mask):
        return {i for i in range(mask.bit_length()) if mask >> i & 1}

    def test_core_cells_equal_the_heap_core_on_every_coordinate_set(self):
        rng = random.Random(9100)
        tested = 0
        for seed in range(9100, 9260):
            n, k = rng.randint(1, 5), rng.randint(2, 4)
            h = random_class(n, k, rng.choice((0.2, 0.4, 0.6, 0.8)), seed)
            if h.is_empty:
                continue
            for ell in (1, 2, 3):
                for d in range(1, n + 1):
                    for coords in itertools.combinations(range(n), d):
                        mask = dims._cube_core(cube_mask(h, coords), k,
                                               dims._digit_zero(k, d), ell + 1)
                        heap = max_pseudocube_core(project(h, coords), ell + 1).core
                        assert self.bits(mask) == self.cells(heap.patterns, k), (h, coords, ell)
                        tested += bool(mask)
        assert tested > 500

    @staticmethod
    def heap_search(h, ell):
        return dims._search(range(h.n), len(h), ell + 1, lambda s: ds_shattered(h, s, ell),
                            lower=dims._sauer_lower(h.n, h.k, ell, len(h)))

    def test_same_result_as_the_heap_search_below_the_crossover(self):
        corpus = (random_corpus(12, 3, 3, 0.4, seed0=9300, max_size=12)
                  + random_corpus(8, 2, 4, 0.5, seed0=9400, max_size=10)
                  + random_corpus(8, 4, 2, 0.5, seed0=9500, max_size=12)
                  + [PAPER_CYCLE])
        for h in corpus:
            for ell in range(1, h.k):
                assert h.k ** h.n <= dims._KERNEL_CELLS_PER_PATTERN * len(h)
                res = ds_dimension(h, ell)
                assert res == self.heap_search(h, ell), (h, ell)
                assert res.value == brute_ds_dimension(h, ell), (h, ell)

    def test_same_result_as_the_heap_search_across_the_crossover(self):
        """At k=70 and |H|=8 the 3-sets go to the heap (70^3 > 1024 * 8) and
        smaller sets to the kernel.  The heap side needs (k/(ell+1))^d > 1024
        with (ell+1)^d <= |H|, so a large alphabet keeps |H| small enough for
        the definition oracle."""
        rng = random.Random(9600)
        corpus = []
        for _ in range(40):
            pats = rng.sample(sorted(itertools.product(range(3), repeat=3)), 7)
            corpus.append(make(3, 70, pats + [(rng.randrange(70), rng.randrange(70), 69)]))
        for _ in range(4):
            labels = [rng.sample(range(70), 2) for _ in range(3)]
            corpus.append(make(3, 70, [tuple(labels[j][b] for j, b in enumerate(p))
                                       for p in itertools.product((0, 1), repeat=3)]))
        values = []
        for h in corpus:
            assert 70 ** 3 > dims._KERNEL_CELLS_PER_PATTERN * len(h) >= 70 ** 2
            for ell in (1, 2):
                res = ds_dimension(h, ell)
                assert res == self.heap_search(h, ell), (h, ell)
                assert res.value == brute_ds_dimension(h, ell), (h, ell)
                values.append(res.value)
        assert {0, 1, 2, 3} <= set(values)

    def test_a_disagreeing_witness_peel_raises(self, monkeypatch):
        monkeypatch.setattr(dims, "ds_shattered", lambda h, coords, ell: None)
        with pytest.raises(RuntimeError, match="disagree"):
            ds_dimension(PAPER_CYCLE, 1)

    def test_a_kernel_core_missing_one_cell_raises(self, monkeypatch):
        # a nonempty core has at least (ell+1)^d >= 2 cells, so dropping its
        # lowest keeps every search answer and only the witness check sees it
        core = dims._cube_core

        def short(cells, k, zero, m):
            found = core(cells, k, zero, m)
            return found & (found - 1)

        monkeypatch.setattr(dims, "_cube_core", short)
        with pytest.raises(RuntimeError, match="disagree"):
            ds_dimension(PAPER_CYCLE, 1)


class TestLabelWalk:
    """The label-mask walk that builds the cube mask of every set the
    kernels test, against ``oracles.cube_mask``, which reads it off the
    patterns."""

    @staticmethod
    def corpus(seed0):
        rng = random.Random(seed0)
        out = []
        for seed in range(seed0, seed0 + 60):
            n, k = rng.randint(1, 6), rng.randint(2, 4)
            h = random_class(n, k, rng.choice((0.05, 0.15, 0.3, 0.6)), seed)
            if not h.is_empty:
                out += [h, TestTieBreak.permuted(h, rng)]
        return out

    @staticmethod
    def record_kernel_cells(monkeypatch):
        """(coords, cells) for every set the searches hand to a kernel."""
        seen, current = [], []
        search, core, factors = dims._search, dims._cube_core, dims._cube_mask_factors

        def recording(coords, size, base, shattered, *args, **kwargs):
            def logged(s):
                current[:] = [s]
                return shattered(s)
            return search(coords, size, base, logged, *args, **kwargs)

        def core_cells(cells, k, zero, m):
            seen.append((current[0], cells))
            return core(cells, k, zero, m)

        def factor_cells(cells, k, zero, ell1, j=0):
            if j == 0:
                seen.append((current[0], cells))
            return factors(cells, k, zero, ell1, j)

        monkeypatch.setattr(dims, "_search", recording)
        monkeypatch.setattr(dims, "_cube_core", core_cells)
        monkeypatch.setattr(dims, "_cube_mask_factors", factor_cells)
        return seen

    def test_the_kernels_receive_the_cube_mask_of_every_tested_set(self, monkeypatch):
        seen = self.record_kernel_cells(monkeypatch)
        tested = 0
        for h in self.corpus(9700):
            for ell in range(1, h.k):
                for dimension in (ds_dimension, natarajan_dimension):
                    seen.clear()
                    dimension(h, ell)
                    for coords, cells in seen:
                        assert cells == cube_mask(h, coords), (h, ell, coords)
                        tested += 1
        assert tested > 1000

    def test_any_order_of_sets_gives_the_cube_mask(self):
        """Sets of every size in a shuffled order, so the shared prefix
        changes at every depth and the walk also runs longer and shorter
        than the set before."""
        rng = random.Random(9800)
        for h in self.corpus(9800):
            sets = [s for d in range(1, h.n + 1) for s in itertools.combinations(range(h.n), d)]
            rng.shuffle(sets)
            walk = dims._label_walk(h.label_masks, h.k, len(h))
            for coords in sets + sets[::-1]:
                assert walk(coords) == cube_mask(h, coords), (h, coords)

    def test_values_and_witnesses_match_the_oracles(self):
        """Classes whose witness size and the size above it both go to the
        kernels, so both are walked."""
        rng = random.Random(9900)
        corpus = [TestTieBreak.permuted(extremal_class(n, k, ell, d), rng)
                  for n, k in ((5, 3), (6, 3), (4, 4), (5, 4)) for ell in range(1, k)
                  for d in (1, 2)]
        corpus += self.corpus(9900)
        cases, brute = {ds_dimension: 0, natarajan_dimension: 0}, 0
        for h in corpus:
            for ell in range(1, h.k):
                for dimension, predicate in ((ds_dimension, ds_shattered),
                                             (natarajan_dimension, natarajan_shattered)):
                    res = dimension(h, ell)
                    if h.k ** (res.value + 1) > dims._KERNEL_CELLS_PER_PATTERN * len(h):
                        continue
                    expected = first_shattered(h.n, lambda s: predicate(h, s, ell))
                    assert (res.value, res.witness, res.witness_structure) == expected, (h, ell)
                    if dimension is ds_dimension and len(h) <= 10:
                        assert res.value == brute_ds_dimension(h, ell), (h, ell)
                        brute += 1
                    cases[dimension] += res.value > 0
        assert min(cases.values()) > 30 and brute > 30, (cases, brute)

    @staticmethod
    def with_constant_coordinates(h, spots):
        """``h`` with a constant coordinate inserted at each of ``spots``."""
        def pad(p):
            it = iter(p)
            return tuple(0 if i in spots else next(it) for i in range(h.n + len(spots)))
        return make(h.n + len(spots), h.k, [pad(p) for p in h.patterns])

    def test_three_hundred_coordinates(self):
        """Every pair of 300 coordinates is tested and refuted: the search
        this walk was built for.  On a permuted copy padded with constant
        coordinates, the witness is the first live coordinate."""
        h = extremal_class(300, 3, 1, 1)
        padded = self.with_constant_coordinates(
            TestTieBreak.permuted(extremal_class(297, 3, 1, 1), random.Random(300)), {0, 1, 5})
        for g, first in ((h, 0), (padded, 2)):
            ds, nat = ds_dimension(g, 1), natarajan_dimension(g, 1)
            assert (ds.value, ds.witness, ds.witness_structure.patterns) == (
                1, (first,), {(0,), (1,), (2,)})
            assert (nat.value, nat.witness) == (1, (first,))


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


class TestNatarajanKernel:
    """The cube-mask kernel that answers the Natarajan search, against the set
    search it stands in for."""

    @staticmethod
    def record_kernel_sizes(monkeypatch):
        sizes = []
        kernel = dims._cube_mask_factors

        def recording(cells, k, zero, ell1, j=0):
            if j == 0:
                sizes.append(len(zero))
            return kernel(cells, k, zero, ell1, j)

        monkeypatch.setattr(dims, "_cube_mask_factors", recording)
        return sizes

    def test_above_the_cap_the_set_path_decides(self, monkeypatch):
        # 65^2 > 1024 * 4, so the 2-set goes to natarajan_shattered
        h = make(2, 65, [(a, b) for a in (3, 64) for b in (0, 40)])
        sizes = self.record_kernel_sizes(monkeypatch)
        res = natarajan_dimension(h, 1)
        assert res == dims.DimensionResult(2, (0, 1), (frozenset({3, 64}), frozenset({0, 40})))
        assert 2 not in sizes

    def test_below_the_cap_the_kernel_decides(self, monkeypatch):
        h = make(2, 4, [(a, b) for a in (0, 3) for b in (1, 2)])
        sizes = self.record_kernel_sizes(monkeypatch)
        assert natarajan_dimension(h, 1).value == 2
        assert 2 in sizes

    def test_a_disagreeing_kernel_raises(self, monkeypatch):
        monkeypatch.setattr(dims, "_cube_mask_factors",
                            lambda cells, k, zero, ell1, j=0: (frozenset({0, 1}),) * len(zero))
        with pytest.raises(RuntimeError, match="disagree"):
            natarajan_dimension(PAPER_CYCLE, 1)


@st.composite
def classes_with_cubes(draw):
    """A class with n <= 4 and k <= 5: random patterns, and often a product of
    random value sets on every coordinate, so that high dimensions occur."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    cell = st.tuples(*[st.integers(0, k - 1)] * n)
    pats = set(draw(st.lists(cell, min_size=1, max_size=30)))
    if draw(st.booleans()):
        factors = [draw(st.sets(st.integers(0, k - 1), min_size=1)) for _ in range(n)]
        pats |= set(itertools.product(*factors))
    return make(n, k, pats)


@settings(max_examples=300, deadline=None)
@given(classes_with_cubes())
def test_property_natarajan_kernel_matches_the_set_search(h):
    for ell in range(1, h.k):
        res = natarajan_dimension(h, ell)
        assert (res.value, res.witness, res.witness_structure) == first_shattered(
            h.n, lambda coords: natarajan_shattered(h, coords, ell)), ell


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


class TestValueSemantics:
    """``ListClass`` is an immutable value of its four fields, and the two
    result records are named tuples: construction, equality, repr and
    immutability as the frozen dataclasses they replaced had them."""

    MEMBERS = frozenset({(frozenset({0, 2}),), (frozenset({1}),)})

    def test_list_class_construction_equality_and_hash(self):
        c = ListClass(1, 3, 2, self.MEMBERS)
        assert ListClass(n=1, k=3, ell=2, members=self.MEMBERS) == c
        assert (c.n, c.k, c.ell, c.members) == (1, 3, 2, self.MEMBERS)
        same = ListClass(1, 3, 2, frozenset(self.MEMBERS))
        assert c == same and hash(c) == hash(same) == hash((1, 3, 2, self.MEMBERS))
        assert c != ListClass(1, 3, 3, self.MEMBERS) and c != ListClass(1, 4, 2, self.MEMBERS)
        assert c != (1, 3, 2, self.MEMBERS)
        # a class and a list class with equal n and k are different types
        h = make(1, 3, [(0,)])
        assert ListClass.from_hypothesis_class(h) != h

    def test_list_class_repr_and_immutability(self):
        c = ListClass(1, 3, 2, frozenset({(frozenset({0, 2}),)}))
        assert repr(c) == "ListClass(n=1, k=3, ell=2, members=frozenset({(frozenset({0, 2}),)}))"
        for name in ("n", "ell", "members", "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(c, name, 1)
            with pytest.raises(AttributeError):
                delattr(c, name)
        with pytest.raises(TypeError, match="not iterable"):
            iter(c)

    @pytest.mark.parametrize("args, message", [
        ((0, 3, 1, frozenset()), "need n >= 1, k >= 2, ell >= 1"),
        ((1, 1, 1, frozenset()), "need n >= 1, k >= 2, ell >= 1"),
        ((1, 3, 0, frozenset()), "need n >= 1, k >= 2, ell >= 1"),
        ((1, 3, 2, frozenset({(frozenset({0}), frozenset({1}))})),
         "member (frozenset({0}), frozenset({1})) has length 2, expected 1"),
        ((1, 3, 1, frozenset({(frozenset({0, 1}),)})), "list {0, 1} has size 2, expected 1..1"),
        ((1, 3, 2, frozenset({(frozenset(),)})), "list set() has size 0, expected 1..2"),
        ((1, 3, 2, frozenset({(frozenset({5}),)})), "label out of range in list {5}"),
        ((1, 3, 2, frozenset({(frozenset({1.5}),)})), "label out of range in list {1.5}"),
        ((1, 3, 2, frozenset({(frozenset({True}),)})), "label out of range in list {True}"),
        ((1, 3, 2, frozenset({(frozenset({"a"}),)})), "label out of range in list {'a'}")])
    def test_list_class_validation_messages(self, args, message):
        with pytest.raises(ValueError) as exc:
            ListClass(*args)
        assert str(exc.value) == message

    def test_dimension_result_defaults_equality_and_repr(self):
        assert dims.DimensionResult(0, ()) == dims.DimensionResult(value=0, witness=(),
                                                                   witness_structure=None)
        res = dims.DimensionResult(1, (0,), 3)
        assert res == dims.DimensionResult(1, witness=(0,), witness_structure=3)
        assert hash(res) == hash(dims.DimensionResult(1, (0,), 3))
        assert res != dims.DimensionResult(1, (0,), 4) and res != dims.DimensionResult(1, (1,), 3)
        assert repr(dims.DimensionResult(0, ())) == \
            "DimensionResult(value=0, witness=(), witness_structure=None)"
        assert repr(res) == "DimensionResult(value=1, witness=(0,), witness_structure=3)"
        for name in ("value", "witness_structure"):
            with pytest.raises(AttributeError):
                setattr(res, name, 2)
            with pytest.raises(AttributeError):
                delattr(res, name)
        with pytest.raises(AttributeError):
            res.other = 1

    def test_pseudo_cube_report_equality_and_repr(self):
        rep = max_pseudocube_core(make(1, 2, [(0,), (1,)]), 3)
        assert rep == dims.PseudoCubeReport(core=make(1, 2, []), is_pseudo_cube=False,
                                            peel_trace=(((0,), 0), ((1,), 0)))
        assert hash(rep) == hash(max_pseudocube_core(make(1, 2, [(0,), (1,)]), 3))
        assert rep != max_pseudocube_core(make(1, 2, [(0,), (1,)]), 2)
        assert repr(rep) == ("PseudoCubeReport(core=HypothesisClass(n=1, k=2, "
                             "patterns=frozenset()), is_pseudo_cube=False, "
                             "peel_trace=(((0,), 0), ((1,), 0)))")
        with pytest.raises(AttributeError):
            rep.core = make(1, 2, [])
        with pytest.raises(AttributeError):
            del rep.peel_trace


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

    @staticmethod
    def assert_matches_the_brute_walk(corpus):
        for h, ell in corpus:
            for dimension, predicate in ((ds_dimension, ds_shattered),
                                         (natarajan_dimension, natarajan_shattered)):
                res = dimension(h, ell)
                expected = first_shattered(h.n, lambda s: predicate(h, s, ell))
                assert (res.value, res.witness, res.witness_structure) == expected, (h, ell)

    def test_probe_matches_the_brute_walk(self):
        """Where the probe runs upward from the Sauer lower bound, the value,
        witness and structure still match the brute walk."""
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
        self.assert_matches_the_brute_walk(corpus)

    def test_exponential_shattering_is_not_subset_closed(self):
        """Why exponential_dimension never probes upward: its witness (0, 1) has a
        subset (0,) with fewer than ell+1 = 2 projected patterns."""
        h = make(2, 4, [(0, 0), (0, 1), (0, 2), (0, 3)])
        res = exponential_dimension(h, 1)
        assert (res.value, res.witness) == (2, (0, 1))
        assert len(project(h, (0,))) == 1



class TestProbe:
    """The DS and Natarajan searches probe sizes upward from the Sauer lower
    bound over the coordinates that take more than ell values."""

    @staticmethod
    def chain_times_cube(m, d, k):
        chain = [(1,) * j + (0,) * (m - j) for j in range(m + 1)]
        return make(m + d, k, [c + q for c in chain
                               for q in itertools.product(range(k), repeat=d)])

    @staticmethod
    def record_tests(monkeypatch):
        """Every coordinate set the dimension searches test, in order."""
        tested = []
        search = dims._search

        def recording(coords, size, base, shattered, *args, **kwargs):
            def logged(s):
                tested.append(s)
                return shattered(s)
            return search(coords, size, base, logged, *args, **kwargs)
        monkeypatch.setattr(dims, "_search", recording)
        return tested

    def test_matches_the_brute_walk_where_the_dimension_is_far_from_the_bound(self):
        """A chain times a cube, constant coordinates placed first, and dense
        classes whose dimension is far above the Sauer lower bound."""
        rng = random.Random(12)
        corpus = [(self.chain_times_cube(m, d, 3), ell)
                  for m, d in ((3, 2), (4, 2), (3, 3)) for ell in (1, 2)]
        corpus += [(TestTieBreak.permuted(self.chain_times_cube(4, 2, 3), rng), 1)]
        corpus += [(make(c + n, 3, [(0,) * c + p for p in extremal_class(n, 3, ell, d).patterns]),
                    ell)
                   for c in (1, 3) for n, d in ((4, 1), (4, 2)) for ell in (1, 2)]
        corpus += [(random_class(7, 4, 0.4, 0), 3), (random_class(6, 3, 0.7, 1), 1)]
        assert dims._sauer_lower(7, 4, 3, len(corpus[-2][0])) == 1
        assert ds_dimension(*corpus[-2]).value == 5
        TestTieBreak.assert_matches_the_brute_walk(corpus)

    @pytest.mark.parametrize("n, ell, d", [(n, 1, 1) for n in range(9, 13)]
                             + [(6, 2, 1), (6, 2, 2), (7, 2, 1)])
    def test_a_sparse_search_tests_each_set_one_past_the_bound_and_one_more(
            self, monkeypatch, n, ell, d):
        """On a permuted extremal class, whose DS dimension is its Sauer lower
        bound L = d, the search refutes every (L+1)-set and stops at the
        first L-set."""
        h = TestTieBreak.permuted(extremal_class(n, 3, ell, d), random.Random(n))
        tested = self.record_tests(monkeypatch)
        res = ds_dimension(h, ell)
        assert res.value == dims._sauer_lower(n, 3, ell, len(h)) == d
        assert len(tested) == math.comb(n, d + 1) + 1
        assert tested[-1] == res.witness == tuple(range(d))

    def test_no_tested_set_holds_a_coordinate_with_at_most_ell_values(self, monkeypatch):
        rng = random.Random(13)
        corpus = [TestTieBreak.permuted(make(n + 2, 3, [p + (0, v) for p in
                                                      extremal_class(n, 3, 1, d).patterns
                                                      for v in (0, 1)]), rng)
                  for n in (4, 5) for d in (1, 2)]
        corpus += [self.chain_times_cube(3, 2, 3)] + random_corpus(6, 5, 3, 0.1, seed0=13)
        tested = self.record_tests(monkeypatch)
        dead = {1: 0, 2: 0}
        for h in corpus:
            cols = list(zip(*h.patterns))
            for ell in (1, 2):
                dead[ell] += any(len(set(col)) <= ell for col in cols)
                for dimension in (ds_dimension, natarajan_dimension):
                    tested.clear()
                    dimension(h, ell)
                    assert tested and all(len(set(cols[c])) > ell for s in tested for c in s)
        assert dead == {1: 4, 2: 5}


def test_shifting_can_raise_the_ds_dimension():
    """Down-shifting, which proves the VC case, can raise the DS dimension."""
    h = make(2, 3, [(0, 0), (0, 2), (1, 0), (1, 1)])
    shifted = oig.shift(h, 1)
    assert shifted.patterns == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert ds_dimension(h, 1).value == 1
    assert ds_dimension(shifted, 1).value == 2


@pytest.mark.parametrize("n, k, ell, stuck", [(2, 3, 1, 36), (2, 3, 2, 0), (3, 2, 1, 0)])
def test_classes_that_no_dimension_keeping_shift_path_brings_down(n, k, ell, stuck):
    """Count the classes from which no sequence of down-shifts reaches a
    downward-closed class without passing a class of larger DS dimension.
    There are 36 at n=2, k=3, ell=1, the lex-game example of ``polycert``
    among them, and none at ell=2 or in the VC case n=3, k=2."""
    memo = {}

    def dimension(g):
        if g.patterns not in memo:
            memo[g.patterns] = ds_dimension(g, ell).value
        return memo[g.patterns]

    blocked = [h for h in all_classes(n, k) if not shift_path_exists(h, dimension)]
    assert len(blocked) == stuck
    if stuck:
        assert make(2, 3, [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]) in blocked
