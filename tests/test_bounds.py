import pytest

from pseudocube import (HypothesisClass, appendix_check, ds_dimension, ds_sauer_bound,
                        extremal_class, max_pseudocube_core, natarajan_sauer_bound,
                        verify_sauer)
from pseudocube.bounds import BoundReport, _is_acyclic

from conftest import all_classes, random_corpus
from oracles import degree_peel_empties

PAPER_CYCLE = HypothesisClass.from_patterns(
    2, 7, [(1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (1, 6)])


def make(n, k, pats):
    return HypothesisClass.from_patterns(n, k, pats)


class TestDsSauerBound:
    def test_two_coordinate_closed_form(self):
        # at n=2, d=1 the sum collapses to ell(2k - ell)
        for k in range(2, 11):
            for ell in range(1, k + 1):
                assert ds_sauer_bound(2, k, ell, 1) == ell * (2 * k - ell)

    def test_d_equals_n_collapses_to_kn(self):
        for n in range(1, 6):
            for k in (2, 3, 5):
                for ell in range(1, k + 1):
                    assert ds_sauer_bound(n, k, ell, n) == k ** n

    def test_direct_value(self):
        assert ds_sauer_bound(2, 3, 1, 1) == 5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ds_sauer_bound(2, 3, 1, 3)
        with pytest.raises(ValueError):
            ds_sauer_bound(2, 3, 4, 1)
        with pytest.raises(ValueError):
            ds_sauer_bound(2, 3, 0, 1)


class TestNatarajanSauerBound:
    def test_binary_case_matches_classic_value(self):
        assert natarajan_sauer_bound(2, 2, 1, 1) == 3

    def test_d_zero(self):
        for n in (1, 2, 4):
            for k in (3, 5):
                for ell in range(1, k):
                    assert natarajan_sauer_bound(n, k, ell, 0) == ell ** n

    def test_direct_value(self):
        assert natarajan_sauer_bound(2, 3, 1, 1) == 7

    def test_requires_ell_plus_one_labels(self):
        with pytest.raises(ValueError):
            natarajan_sauer_bound(2, 3, 3, 1)


class TestExtremalClass:
    def test_small_example(self):
        h = extremal_class(2, 3, 1, 1)
        assert h.patterns == {(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)}

    def test_d_equals_n_is_full_cube(self):
        assert len(extremal_class(2, 4, 2, 2)) == 16

    def test_ell_equals_k_is_full_cube(self):
        assert len(extremal_class(3, 3, 3, 0)) == 27

    def test_size_matches_bound(self):
        for n in range(1, 6):
            for k in range(2, 6):
                for ell in range(1, k + 1):
                    for d in range(n + 1):
                        assert len(extremal_class(n, k, ell, d)) == \
                            ds_sauer_bound(n, k, ell, d)


class TestVerifySauer:
    def test_extremal_is_tight(self):
        rep = verify_sauer(extremal_class(3, 3, 1, 1), 1)
        assert rep.holds and rep.slack == 0 and rep.d_used == 1

    def test_three_corners(self):
        rep = verify_sauer(make(2, 2, [(0, 0), (0, 1), (1, 0)]), 1)
        assert (rep.class_size, rep.d_used, rep.ds_bound, rep.slack) == (3, 1, 3, 0)

    def test_full_cube(self):
        h = make(2, 3, [(a, b) for a in range(3) for b in range(3)])
        for ell in (1, 2):
            rep = verify_sauer(h, ell)
            assert rep.d_used == 2 and rep.slack == 0

    def test_claimed_d_mismatch(self):
        with pytest.raises(ValueError, match="claimed"):
            verify_sauer(extremal_class(2, 3, 1, 1), 1, claimed_d=2)

    def test_nat_bound_dominates_ds_bound_at_same_d(self):
        # only at ell=1, the corpus's: the terms are C(n,i) (k-1)^i against
        # C(n,i) C(k,2)^i.  At ell >= 2 the Natarajan value can be the
        # smaller one: n=2, k=4, ell=3, d=1 gives 9 against 15
        for h in random_corpus(20, 3, 3, 0.5, seed0=500):
            rep = verify_sauer(h, 1)
            assert rep.ds_bound <= rep.nat_bound

    def test_report_is_an_immutable_value_of_its_fields(self):
        fields = dict(class_size=3, ds_bound=2, nat_bound=2, d_used=1, ell=1, holds=False,
                      slack=-1)
        rep = BoundReport(**fields)
        assert rep == BoundReport(3, 2, 2, 1, 1, False, -1)
        assert hash(rep) == hash(BoundReport(**fields))
        assert rep != BoundReport(**{**fields, "slack": 0})
        assert repr(rep) == ("BoundReport(class_size=3, ds_bound=2, nat_bound=2, d_used=1, "
                             "ell=1, holds=False, slack=-1)")
        assert verify_sauer(extremal_class(3, 3, 1, 1), 1) == BoundReport(
            class_size=7, ds_bound=7, nat_bound=10, d_used=1, ell=1, holds=True, slack=0)
        with pytest.raises(AttributeError):
            rep.holds = True
        with pytest.raises(AttributeError):
            del rep.slack


class TestAppendixCheck:
    def test_three_corners(self):
        rep = appendix_check(make(2, 2, [(0, 0), (0, 1), (1, 0)]))
        assert rep == (True, 3, True)

    def test_singleton(self):
        rep = appendix_check(make(3, 4, [(1, 2, 3)]))
        assert rep.acyclic and rep.bound == 1 + 3 * 3 and rep.holds

    def test_extremal_attains_bound(self):
        for n in (2, 3, 4):
            for k in (2, 3, 4):
                h = extremal_class(n, k, 1, 1)
                rep = appendix_check(h)
                assert rep.acyclic and rep.holds
                assert len(h) == rep.bound

    def test_precondition_enforced(self):
        h = make(2, 2, [(a, b) for a in range(2) for b in range(2)])
        with pytest.raises(ValueError, match="precondition"):
            appendix_check(h)

    def test_any_coordinate_choice(self):
        h = extremal_class(3, 3, 1, 1)
        for i in range(3):
            rep = appendix_check(h, coordinate=i)
            assert rep.acyclic and rep.holds

    def test_a_cycle_is_not_acyclic(self):
        edges = sorted(PAPER_CYCLE.patterns)
        assert not _is_acyclic(edges)
        assert _is_acyclic(edges[:-1])


def peels_empty(h, ell):
    """Degree peeling at list size ell empties the bipartite graph of an n=2
    class: a line is a vertex, its size the vertex's degree."""
    return max_pseudocube_core(h, ell + 1).core.is_empty


class TestBipartitePeel:
    def test_cycle_class_by_ell(self):
        assert peels_empty(PAPER_CYCLE, 2)        # every degree is 2
        assert not peels_empty(PAPER_CYCLE, 1)    # it is a 2-pseudo-cube

    def test_star_graph(self):
        for ell in (1, 2, 3):
            star = make(2, 5, [(0, b) for b in range(ell)])
            assert peels_empty(star, ell)

    def test_full_bipartite(self):
        k = 4
        full = make(2, k, [(a, b) for a in range(k) for b in range(k)])
        for ell in range(1, k):
            assert not peels_empty(full, ell)
        assert peels_empty(full, k)

    def test_success_iff_core_empty_exhaustive_k3(self):
        # the vertex peel of the oracle against the heap's line peel
        for h in all_classes(2, 3):
            for ell in (1, 2):
                report = max_pseudocube_core(h, ell + 1)
                assert degree_peel_empties(h, ell) == report.core.is_empty
                if report.core.is_empty:
                    assert len(h) <= ell * (2 * 3 - ell)
                    assert len(report.peel_trace) == len(h)

    def test_turan_reference_is_descriptive_scale(self):
        from pseudocube import turan_reference
        assert turan_reference(4, 1) == pytest.approx(4 ** 1.5)
        assert turan_reference(9, 2) == pytest.approx(9 ** (5 / 3))
        # monotone in k, and nothing is asserted against class sizes
        assert turan_reference(5, 1) < turan_reference(6, 1)


class TestSweepProperties:
    def test_theorem_holds_exhaustively_n2_k2(self):
        for h in all_classes(2, 2):
            verify_sauer(h, 1)  # raises BoundViolation on failure

    def test_theorem_holds_on_large_random_corpus(self):
        # 1000 random classes at n=4, k=4, every admissible list size
        for h in random_corpus(1000, 4, 4, 0.5, seed0=80000):
            for ell in (1, 2, 3):
                assert verify_sauer(h, ell).holds

    def test_appendix_on_exhaustive_sweep(self):
        for h in all_classes(2, 3):
            if ds_dimension(h, 1).value <= 1:
                rep = appendix_check(h)
                assert rep.acyclic and rep.holds
