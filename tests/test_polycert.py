import copy
import json
import math
import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pseudocube import (CapExceeded, ClassFormatError, HypothesisClass, PeelingError,
                        RationalPolynomial, construct_q, ds_dimension, ds_sauer_bound,
                        extremal_class, indicator_poly, load_certificate,
                        max_pseudocube_core, monomial_set, parse_class_json, peeling_order,
                        random_class, serialize_certificate, spanning_certificate,
                        verify_certificate)
from pseudocube import polycert
from pseudocube.polycert import (MODULUS, VerifyReport, exact_rank, rank_bareiss,
                                 rank_mod_p)

from conftest import all_classes, random_corpus
from oracles import (fraction_evaluate, lex_standard_monomials, poly_from_dict,
                     polynomial_failures, rank_fraction_pivot, rank_mod_prime)

THREE = HypothesisClass.from_patterns(2, 2, [(0, 0), (0, 1), (1, 0)])


def make(n, k, pats):
    return HypothesisClass.from_patterns(n, k, pats)


class TestMonomialSet:
    def test_small(self):
        ms = monomial_set(2, 2, 1, 1)
        assert set(ms) == {(0, 0), (1, 0), (0, 1)}

    def test_d_equals_n_gives_all(self):
        assert len(monomial_set(3, 3, 1, 3)) == 27

    def test_ell_equals_k_gives_all(self):
        assert len(monomial_set(3, 3, 3, 0)) == 27

    def test_cardinality_matches_bound(self):
        for n in range(1, 7):
            for k in range(2, 6):
                for ell in range(1, k + 1):
                    for d in range(n + 1):
                        assert len(monomial_set(n, k, ell, d)) == \
                            ds_sauer_bound(n, k, ell, d)


class TestIndicatorPoly:
    def test_univariate_ternary(self):
        q = indicator_poly((1,), 3)
        assert dict(q.terms) == {(1,): Fraction(2), (2,): Fraction(-1)}

    def test_binary_single_variable(self):
        q = indicator_poly((1,), 2)
        assert dict(q.terms) == {(1,): Fraction(1)}

    def test_binary_and_is_multilinear_product(self):
        q = indicator_poly((1, 1), 2)
        assert dict(q.terms) == {(1, 1): Fraction(1)}

    def test_kronecker_delta_exhaustive(self):
        for n, k in ((1, 5), (2, 4), (3, 3), (4, 2)):
            for h in product(range(k), repeat=n):
                q = indicator_poly(h, k)
                assert all(e <= k - 1 for exp, _ in q.terms for e in exp)
                for x in product(range(k), repeat=n):
                    assert q.evaluate(x) == (1 if x == h else 0)


@st.composite
def polynomials_and_points(draw):
    """A polynomial with mixed, often large, numerators and denominators (the
    term list may be empty) and a point whose coordinates are often zero."""
    n = draw(st.integers(0, 4))
    k = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, k - 1)] * n)
    coeffs = st.builds(Fraction, st.integers(-2 ** 130, 2 ** 130)
                       | st.integers(-3, 3), st.integers(1, 10 ** 12) | st.integers(1, 6))
    terms = draw(st.dictionaries(exps, coeffs, max_size=8))
    point = draw(st.tuples(*[st.integers(0, k - 1) | st.just(0)] * n))
    return poly_from_dict(n, terms), point


class TestEvaluate:
    @settings(max_examples=200, deadline=None)
    @given(polynomials_and_points())
    def test_matches_fraction_sum(self, case):
        poly, point = case
        assert poly.evaluate(point) == fraction_evaluate(poly, point)

    def test_empty_term_list_is_zero(self):
        assert poly_from_dict(2, {}).evaluate((0, 1)) == 0

    def test_zero_base_drops_only_terms_with_a_positive_exponent(self):
        poly = poly_from_dict(2, {(0, 0): Fraction(1, 3), (1, 0): Fraction(5, 2),
                                  (0, 2): Fraction(-7, 4)})
        assert poly.evaluate((0, 2)) == Fraction(1, 3) - 7
        assert poly.evaluate((0, 0)) == Fraction(1, 3)


@st.composite
def rational_term_dicts(draw):
    """(n, exponent -> Fraction coefficient, exponents outside it)."""
    n = draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80) | st.integers(-6, 6),
                       st.integers(1, 10 ** 9) | st.integers(1, 12))
    terms = draw(st.dictionaries(exps, coeffs, max_size=6))
    zeros = draw(st.sets(exps.filter(lambda e: e not in terms), max_size=3))
    return n, terms, zeros


def _in_lowest_terms(poly):
    numerators = [c for _, c in poly.terms]
    return (poly.den > 0 and math.gcd(poly.den, *numerators) == 1 and all(numerators)
            and list(poly.terms) == sorted(poly.terms))


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(rational_term_dicts(), st.integers(-10 ** 6, 10 ** 6).filter(bool))
    def test_every_way_of_writing_a_polynomial_gives_one_form(self, case, scale):
        n, terms, zeros = case
        poly = poly_from_dict(n, terms)
        common = math.lcm(*(c.denominator for c in terms.values()))
        forms = [
            # zero coefficients, as ints and as fractions
            poly_from_dict(n, {**terms, **{e: Fraction(0, 7) for e in zeros},
                               **{e: 0 for e in list(zeros)[:1]}}),
            # integer coefficients given as ints
            poly_from_dict(n, {e: c.numerator if c.denominator == 1 else c
                               for e, c in terms.items()}),
            # numerators over a scaled, possibly negative, denominator
            RationalPolynomial._over(n, [(e, int(c * common) * scale) for e, c in terms.items()]
                                     + [(e, 0) for e in zeros], common * scale),
        ]
        for form in [poly] + forms:
            assert form == poly and hash(form) == hash(poly)
            assert _in_lowest_terms(form)
        assert {e: Fraction(c, poly.den) for e, c in poly.terms} == \
            {e: c for e, c in terms.items() if c}

    def test_replayed_polynomials_are_in_lowest_terms(self):
        for h, ell, d in ((extremal_class(3, 3, 2, 1), 2, 1), (extremal_class(3, 4, 2, 1), 2, 1),
                          (extremal_class(2, 3, 1, 2), 1, 2)):
            polys = construct_q(h, ell, d).q_polys
            assert all(_in_lowest_terms(q) for q in polys)
            assert any(q.den > 1 for q in polys)


class TestRank:
    def test_rank_of_identity_like(self):
        assert rank_bareiss([[1, 1, 1], [0, 0, 1], [0, 1, 0]]) == 3

    def test_rank_deficient(self):
        assert rank_bareiss([[1, 2], [2, 4]]) == 1

    def test_empty_and_zero(self):
        assert rank_bareiss([]) == 0
        assert rank_bareiss([[0, 0], [0, 0]]) == 0

    def test_matches_independent_pivoting(self):
        import random
        rng = random.Random(17)
        for _ in range(40):
            rows = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]]
            cols = len(rows[0])
            for _ in range(rng.randint(0, 5)):
                rows.append([rng.randint(-4, 4) for _ in range(cols)])
            assert rank_bareiss(rows) == rank_fraction_pivot(rows)


ENTRIES = (st.integers(-4, 4) | st.integers(-2 ** 70, 2 ** 70)
           | st.sampled_from((MODULUS, -MODULUS, 2 * MODULUS)))
INT_MATRICES = st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(ENTRIES, min_size=cols, max_size=cols), max_size=7))


@st.composite
def _shaped_matrices(draw):
    """(ncols, rows): tall and wide shapes, a zero share of 0 to 9/10, whole
    zero rows, and rows that are integer combinations of earlier ones."""
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    zero_tenths = draw(st.sampled_from((0, 5, 9)))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("drawn", "drawn", "zero", "combination")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * u + b * v for u, v in zip(x, y)])
        else:
            rows.append([0 if draw(st.integers(0, 9)) < zero_tenths else draw(ENTRIES)
                         for _ in range(ncols)])
    return ncols, rows


SHAPED_MATRICES = _shaped_matrices()


class TestExactRank:
    @settings(max_examples=200, deadline=None)
    @given(INT_MATRICES, st.data())
    def test_matches_bareiss_and_fraction_pivoting(self, rows, data):
        if len(rows) >= 2 and data.draw(st.booleans()):
            # a dependent row: an integer combination of the first two
            a, b = data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))
            rows = rows + [[a * x + b * y for x, y in zip(rows[0], rows[1])]]
        rank = exact_rank(rows)
        assert rank == rank_bareiss(rows) == rank_fraction_pivot(rows)
        assert rank_mod_p(rows) <= rank
        # rows may come lazily
        assert exact_rank(iter(rows)) == rank
        assert rank_mod_p(iter(rows)) == rank_mod_p(rows)

    def test_reading_stops_at_the_column_count(self):
        rows = iter([[1, 0], [0, 1], [1, 1], [2, 3]])
        assert rank_mod_p(rows) == 2
        assert next(rows) == [1, 1]

    def test_multiple_of_the_modulus_forces_the_fallback(self):
        rows = [[MODULUS, 0], [0, 1]]
        assert rank_mod_p(rows) == 1
        assert exact_rank(rows) == 2 == rank_fraction_pivot(rows)

    def test_empty(self):
        assert exact_rank([]) == 0 == rank_mod_p([])
        assert exact_rank([[0, 0]]) == 0

    @pytest.mark.parametrize("kernel", [rank_mod_p], ids=["rank_mod_p"])
    @settings(max_examples=150, deadline=None)
    @given(SHAPED_MATRICES)
    def test_each_kernel_matches_the_oracles(self, kernel, matrix):
        """On lazily given rows: the rank mod p of the column-by-column
        oracle, read up to the first prefix whose rank is the column count
        and no further, and, inside ``exact_rank``, the rational rank of
        both oracles."""
        ncols, rows = matrix
        prefix_ranks = [rank_mod_prime(rows[:t], MODULUS) for t in range(1, len(rows) + 1)]
        stop = next((t for t, r in enumerate(prefix_ranks, 1) if r == ncols), len(rows))
        source = iter(rows)
        assert kernel(source) == (prefix_ranks[-1] if rows else 0)
        assert len(rows) - sum(1 for _ in source) == stop
        assert exact_rank(iter(rows)) == rank_bareiss(rows) == rank_fraction_pivot(rows)


def _no_bareiss(rows, bit_cap=None):
    raise AssertionError("rank_bareiss ran on a full-rank matrix")


@pytest.fixture
def rows_read(monkeypatch):
    """Spies on ``polycert.exact_rank``: per call, (rows read, rows left unread)."""
    counts = []

    def spy(rows):
        read = [0]

        def counted():
            for row in rows:
                read[0] += 1
                yield row

        rank = exact_rank(counted())
        counts.append((read[0], sum(1 for _ in rows)))
        return rank

    monkeypatch.setattr(polycert, "exact_rank", spy)
    return counts


def permuted(h, rng):
    order = list(range(h.n))
    rng.shuffle(order)
    return make(h.n, h.k, [tuple(p[i] for i in order) for p in h.patterns])


def plain_order_rank(h, ell, d):
    """The rank over the evaluation rows in ``monomial_set`` order, without
    the standard monomials read first."""
    pats = h.sorted_patterns()
    return exact_rank([math.prod(x ** e for x, e in zip(p, exp)) for p in pats]
                      for exp in monomial_set(h.n, h.k, ell, d))


def standard_first_reads(h, ell, d):
    """The rows the rank reads when the basis monomials that are lex
    standard on h come first and the points are in lex order."""
    pats, exps = h.sorted_patterns(), monomial_set(h.n, h.k, ell, d)
    standard = set(polycert.lex_standard_monomials(h))
    read = []
    exact_rank(read.append(exp) or [math.prod(x ** e for x, e in zip(p, exp)) for p in pats]
               for exp in sorted(exps, key=lambda e: e not in standard))
    return len(read)


def zero_free(n, k, size, seed):
    """``size`` points drawn from {1..k-1}^n: every monomial is nonzero on them."""
    points = list(product(range(1, k), repeat=n))
    return make(n, k, random.Random(seed).sample(points, size))


def rare_zero(h):
    """``h`` with labels 0 and the rarest label swapped at each coordinate
    (the smallest on ties, counting absent labels), so that 0 is rare."""
    swaps = []
    for column in zip(*h.patterns):
        rarest = min(range(h.k), key=column.count)
        swaps.append({0: rarest, rarest: 0})
    return make(h.n, h.k, [tuple(s.get(v, v) for s, v in zip(swaps, p)) for p in h.patterns])


class TestSpanningCertificate:
    def test_three_corners_hand_matrix(self):
        rep = spanning_certificate(THREE, 1, 1)
        assert rep.rank == 3 and rep.spans and rep.monomial_count == 3

    def test_extremal_square_invertible(self):
        for (n, k, ell, d) in ((2, 3, 1, 1), (3, 2, 1, 1), (3, 3, 2, 1), (2, 4, 2, 2)):
            h = extremal_class(n, k, ell, d)
            rep = spanning_certificate(h, ell, d)
            assert rep.spans and rep.monomial_count == rep.class_size

    def test_singleton_with_d0(self):
        rep = spanning_certificate(make(2, 3, [(1, 2)]), 1, 0)
        assert rep.rank == 1 and rep.spans

    def test_below_dimension_rejected(self):
        h = extremal_class(2, 3, 1, 1)
        with pytest.raises(ValueError, match="below the DS dimension"):
            spanning_certificate(h, 1, 0)

    def test_spans_on_random_classes_at_computed_dimension(self):
        for idx, h in enumerate(random_corpus(25, 3, 3, 0.5, seed0=700)):
            ell = 1 + idx % 2
            d = ds_dimension(h, ell).value
            rep = spanning_certificate(h, ell, d, check_dim=False)
            assert rep.spans

    def test_full_rank_never_runs_bareiss(self, monkeypatch):
        monkeypatch.setattr(polycert, "rank_bareiss", _no_bareiss)
        for idx, h in enumerate(random_corpus(20, 4, 3, 0.3, seed0=740, max_size=30)):
            ell = 1 + idx % 2
            assert spanning_certificate(h, ell, ds_dimension(h, ell).value).spans

    def test_rank_deficient_gets_the_bareiss_rank(self, monkeypatch):
        # {0,1}^2 inside k = 3 has DS dimension 2 at ell = 1.  At d = 1 the
        # rows 1, x, x^2, y, y^2 satisfy x^2 = x and y^2 = y on it: rank 3 < 4
        seen = []

        def spy(rows):
            seen.append(rank_bareiss(rows))
            return seen[-1]

        monkeypatch.setattr(polycert, "rank_bareiss", spy)
        h = make(2, 3, [(a, b) for a in range(2) for b in range(2)])
        rep = spanning_certificate(h, 1, 1, check_dim=False)
        assert seen == [3] and rep.rank == 3 and not rep.spans

    def test_elimination_growth_past_the_bit_cap_raises(self, monkeypatch):
        # the same rank-deficient {0,1}^2 runs fraction-free elimination,
        # whose entries stay in {-1, 0, 1}; at a cap of 0 bits the first
        # nonzero one raises
        monkeypatch.setattr(polycert, "ELIMINATION_BIT_CAP", 0)
        h = make(2, 3, [(a, b) for a in range(2) for b in range(2)])
        with pytest.raises(CapExceeded, match=r"^entry exceeded 0 bits during elimination$"):
            spanning_certificate(h, 1, 1, check_dim=False)

    def test_rows_past_full_rank_are_never_built(self, rows_read):
        # at n=5, d=3 there are 131 monomials against |H| = 42..56, and the
        # rank mod p reaches |H| after 85 or 99 rows
        for h in random_corpus(3, 5, 3, 0.2, seed0=0):
            rep = spanning_certificate(h, 1, 3)
            read, left = rows_read[-1]
            assert rep.spans and rep.rank == len(h)
            assert read < rep.monomial_count == read + left == 131

    def test_standard_rows_first_read_exactly_the_class_size(self, rows_read):
        """Whenever every lex standard monomial lies in the basis, the rank
        reads |H| rows and no more; either way it is the rank over the rows
        in plain ``monomial_set`` order."""
        rng = random.Random(28)
        bases = [(extremal_class(n, k, ell, d), ell)
                 for n, k, ell, d in ((2, 3, 1, 1), (3, 3, 2, 1), (4, 3, 1, 2),
                                      (4, 4, 2, 1), (5, 3, 1, 2))]
        bases += [(h, 1 + idx % 2) for idx, h in
                  enumerate(random_corpus(12, 4, 3, 0.3, seed0=2800)
                            + random_corpus(6, 5, 3, 0.2, seed0=2900))]
        fits = spills = 0
        for base, ell in bases:
            d = ds_dimension(base, ell).value
            for h in [base] + [permuted(base, rng) for _ in range(3)]:
                rep = spanning_certificate(h, ell, d, check_dim=False)
                read, _ = rows_read[-1]
                assert rep.spans and rep.rank == plain_order_rank(h, ell, d) == len(h)
                if set(polycert.lex_standard_monomials(h)) <= set(monomial_set(h.n, h.k, ell, d)):
                    fits += 1
                    assert read == len(h)
                else:
                    spills += 1
                    assert read > len(h)
        assert fits and spills

    def test_rank_deficient_rank_matches_the_plain_order(self, rows_read):
        h = make(2, 3, [(a, b) for a in range(2) for b in range(2)])
        rep = spanning_certificate(h, 1, 1, check_dim=False)
        assert rep.rank == plain_order_rank(h, 1, 1) == 3
        assert rows_read == [(5, 0)]

    def test_translation_keeps_the_rank_and_the_rows_read(self, rows_read):
        """At every ell < k and every d <= n, rank-deficient d included, the
        rank at the translated patterns is the rank of the untranslated rows
        in plain ``monomial_set`` order, and it reads the rows that the
        standard-first order reads at the patterns themselves."""
        corpus = []
        for n, k, size in ((2, 3, 6), (2, 5, 14), (3, 3, 14), (3, 4, 20), (3, 5, 24),
                           (4, 3, 24), (4, 4, 20)):
            drawn = random_corpus(2, n, k, size / k ** n, seed0=38 * n + k, min_size=2)
            corpus += drawn + [rare_zero(h) for h in drawn]
            corpus.append(zero_free(n, k, min(size, (k - 1) ** n), seed=n + k))
        deficient = 0
        for h in corpus:
            for ell in range(1, h.k):
                for d in range(h.n + 1):
                    rep = spanning_certificate(h, ell, d, check_dim=False)
                    assert rep.rank == plain_order_rank(h, ell, d)
                    assert rows_read[-1][0] == standard_first_reads(h, ell, d)
                    deficient += not rep.spans
        assert deficient

    def test_rows_are_evaluated_at_the_commonest_label_translated_to_0(self, monkeypatch):
        points = []

        class Spy(polycert._MonomialColumns):
            def __init__(self, pats, n):
                points.append(sorted(pats))
                super().__init__(pats, n)

        monkeypatch.setattr(polycert, "_MonomialColumns", Spy)
        # coordinate 0 has labels 1 and 2 twice each and 0 once: the tie goes
        # to 1; coordinate 1 has label 2 three times
        h = make(2, 3, [(0, 2), (1, 2), (1, 0), (2, 1), (2, 2)])
        assert spanning_certificate(h, 1, 2).spans
        assert points == [sorted([(-1, 0), (0, 0), (0, -2), (1, -1), (1, 0)])]

    def test_benchmark_n6_span_cell_reads_the_class_size(self, rows_read):
        # the base class of the n=6 span cell of the cert benchmark workload;
        # its lex standard monomials lie in the d=4 basis under all 720
        # coordinate orders
        base = next(h for h in (random_class(6, 3, 0.13, s) for s in range(3000, 4000))
                    if 85 <= len(h) <= 92)
        assert len(base) == 90 and ds_dimension(base, 1).value == 4
        rng = random.Random(6)
        for h in [base] + [permuted(base, rng) for _ in range(3)]:
            rep = spanning_certificate(h, 1, 4, check_dim=False)
            assert rep.spans and rows_read[-1] == (90, 473 - 90)

    def test_both_kernels_read_the_rows_the_standard_order_reads(self, rows_read):
        """On zero-free classes and classes with many zeros, the rank is the
        rank in plain ``monomial_set`` order, and the rows read at the
        translated patterns are the rows that reading the standard rows
        first, in ``monomial_set`` order and over the lex-ordered patterns
        themselves, reads."""
        cases = [(zero_free(n, k, 100, seed=n), 1, None) for n, k in ((4, 5), (5, 4), (7, 3))]
        cases += [(random_class(4, 6, 0.1, 9), 1, None),
                  (extremal_class(6, 3, 1, 3), 1, 3),
                  (extremal_class(5, 4, 2, 2), 2, 2)]
        for h, ell, d in cases:
            d = ds_dimension(h, ell).value if d is None else d
            rep = spanning_certificate(h, ell, d, check_dim=False)
            assert rep.spans and rep.rank == plain_order_rank(h, ell, d) == len(h)
            assert rows_read[-1][0] == standard_first_reads(h, ell, d)

    def test_no_recursion_at_1500_coordinates(self):
        h = make(1500, 2, [(0,) * 1500, (1,) * 1500])
        assert polycert.lex_standard_monomials(h) == [(0,) * 1500, (0,) * 1499 + (1,)]
        rep = spanning_certificate(h, 1, 1, check_dim=False)
        assert rep.rank == 2 and rep.spans

    def test_spans_at_full_grid_scale(self):
        corpus = (random_corpus(20, 4, 4, 0.15, seed0=720, max_size=40)
                  + random_corpus(20, 4, 3, 0.3, seed0=760, max_size=40))
        for idx, h in enumerate(corpus):
            ell = 1 + idx % 3 if h.k == 4 else 1 + idx % 2
            d = ds_dimension(h, ell).value
            assert spanning_certificate(h, ell, d, check_dim=False).spans


class TestPeelingOrder:
    def test_three_corners(self):
        cert = peeling_order(THREE, 1, 1)
        assert set(cert.ordering) == set(THREE.patterns)
        assert all(w is not None and len(w[1]) < 1 for w in cert.witnesses)
        assert verify_certificate(cert, THREE).ok

    def test_pseudocube_gets_stuck(self):
        cube = make(2, 2, [(a, b) for a in range(2) for b in range(2)])
        with pytest.raises(PeelingError):
            peeling_order(cube, 1, 1)

    def test_singleton(self):
        cert = peeling_order(make(2, 3, [(1, 2)]), 1, 1)
        assert cert.ordering == ((1, 2),)
        assert cert.witnesses[0][1] == ()

    def test_order_is_the_peel_engine_trace(self):
        for idx, h in enumerate(random_corpus(10, 4, 3, 0.3, seed0=820)):
            ell = 1 + idx % 2
            trace = max_pseudocube_core(h, ell + 1).peel_trace
            if len(trace) == len(h):
                cert = peeling_order(h, ell, 0)
                assert cert.ordering == tuple(p for p, _ in trace)
                assert tuple(w[0] for w in cert.witnesses) == tuple(i for _, i in trace)

    def test_per_step_deficiency_reverified(self):
        for idx, h in enumerate(random_corpus(10, 3, 3, 0.4, seed0=800)):
            ell = 1 + idx % 2
            d = ds_dimension(h, ell).value
            if d >= h.n:
                continue
            cert = peeling_order(h, ell, d)
            assert verify_certificate(cert, h).ok


class TestConstructQ:
    def test_three_corners_unit_triangular(self):
        cert = construct_q(THREE, 1, 1)
        for i, p in enumerate(cert.ordering):
            assert cert.q_polys[i].evaluate(p) == 1
            for j in range(i):
                assert cert.q_polys[j].evaluate(p) == 0

    def test_construction_fault_raises_the_verifier_failure(self, monkeypatch):
        lagrange, verify = polycert._lagrange_coeffs, polycert.verify_certificate
        reports = []

        def halved(value, exclude):
            coeffs, den = lagrange(value, exclude)
            return coeffs, 2 * den

        def recording(cert, h):
            reports.append(verify(cert, h))
            return reports[-1]

        monkeypatch.setattr(polycert, "_lagrange_coeffs", halved)
        monkeypatch.setattr(polycert, "verify_certificate", recording)
        with pytest.raises(AssertionError) as exc:
            construct_q(THREE, 1, 1)
        assert [r.ok for r in reports] == [False]
        assert str(exc.value) == f"replayed certificate fails: {reports[0].failures[0]}"
        assert reports[0].failures[0] == "diagonal (0,0) is 1/4, expected 1"

    def test_verify_evaluates_only_the_checked_entries(self, monkeypatch):
        h = extremal_class(3, 3, 2, 1)
        cert, loaded = load_certificate(serialize_certificate(construct_q(h, 2, 1), h))
        numerators, calls = polycert._MonomialColumns.numerators, []

        def recording(self, poly, lo, hi):
            calls.append((poly, lo, hi))
            return numerators(self, poly, lo, hi)

        monkeypatch.setattr(polycert._MonomialColumns, "numerators", recording)
        assert verify_certificate(cert, loaded).ok
        # poly s is computed at patterns s..|H|-1 only: on and below the diagonal
        assert calls == [(q, s, len(h)) for s, q in enumerate(cert.q_polys)]
        assert sum(hi - lo for _, lo, hi in calls) == len(h) * (len(h) + 1) // 2

    def test_lazy_values_equal_evaluate(self):
        """The columns above the diagonal that back substitution reads, on a
        replay whose projections are peeled again (n - d = 2)."""
        h, memo = extremal_class(5, 3, 1, 3), {}
        polycert._construct(h, 1, 3, memo, {})
        assert {key[0] for key in memo} == {4, 5}
        for ordering, _, polys, entries in memo.values():
            for s, q in enumerate(polys):
                assert entries[s] == [q.evaluate(p) for p in ordering[:s]]

    def test_base_case_indicators(self):
        h = make(2, 3, [(0, 1), (2, 2), (1, 0)])
        cert = construct_q(h, 1, 2)
        assert all(w is None for w in cert.witnesses)
        for i, p in enumerate(cert.ordering):
            for j, q in enumerate(cert.q_polys):
                assert q.evaluate(p) == (1 if i == j else 0)

    def test_degree_constraints(self):
        h = extremal_class(3, 3, 2, 1)
        cert = construct_q(h, 2, 1)
        for q, w in zip(cert.q_polys, cert.witnesses):
            assert all(e < 3 for exp, _ in q.terms for e in exp)
            if w is not None:
                # correction factor degree stays below ell
                assert all(exp[w[0]] < 2 for exp, _ in q.terms)

    def test_support_within_monomial_set(self):
        h = extremal_class(2, 4, 2, 1)
        cert = construct_q(h, 2, 1)
        allowed = set(monomial_set(2, 4, 2, 1))
        for q in cert.q_polys:
            assert {e for e, _ in q.terms} <= allowed

    def test_random_classes_at_computed_dimension(self):
        for idx, h in enumerate(random_corpus(12, 3, 3, 0.4, seed0=900, max_size=15)):
            ell = 1 + idx % 2
            d = ds_dimension(h, ell).value
            cert = construct_q(h, ell, d)
            assert verify_certificate(cert, h).ok

    def test_replay_and_verify_do_not_enumerate_the_basis(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("the monomial basis was enumerated")

        monkeypatch.setattr(polycert, "monomial_set", no_enumeration)
        for h, ell, d in ((extremal_class(3, 3, 2, 1), 2, 1),
                          (extremal_class(4, 2, 1, 2), 1, 2), (THREE, 1, 1)):
            cert = construct_q(h, ell, d)
            assert verify_certificate(cert, h).ok

    def test_verify_rejects_each_monomial_outside_the_basis(self):
        cert = construct_q(THREE, 1, 1)
        assert verify_certificate(cert, THREE).ok
        # two high exponents at d=1, an exponent equal to k, the wrong length,
        # a variable past the last coordinate, a negative exponent, a
        # non-integer exponent
        for exp in ((1, 1), (2, 0), (0,), (0, 0, 0), (0, 0, 1), (0, -1), (0.5, 0)):
            bad = poly_from_dict(2, {exp: Fraction(1)})
            rep = verify_certificate(cert._replace(q_polys=(bad,) + cert.q_polys[1:]), THREE)
            assert "poly 0: monomial" in rep.failures[0] and "outside the basis" in rep.failures[0]

    def test_stuck_when_budget_below_dimension(self):
        cube = make(2, 2, [(a, b) for a in range(2) for b in range(2)])
        with pytest.raises(PeelingError):
            construct_q(cube, 1, 1)


class TestSerialization:
    def test_round_trip_with_polys(self):
        cert = construct_q(THREE, 1, 1)
        text = serialize_certificate(cert, THREE)
        loaded, h = load_certificate(text)
        assert h == THREE
        assert loaded.ordering == cert.ordering
        assert loaded.witnesses == cert.witnesses
        assert loaded.q_polys == cert.q_polys
        assert verify_certificate(loaded, h).ok
        assert serialize_certificate(loaded, h) == text

    def test_verifier_catches_tampering(self):
        cert = construct_q(THREE, 1, 1)
        text = serialize_certificate(cert, THREE)
        loaded, h = load_certificate(text)
        bad = loaded.__class__(n=loaded.n, k=loaded.k, ell=loaded.ell, d=loaded.d,
                               ordering=loaded.ordering[::-1],
                               witnesses=loaded.witnesses,
                               q_polys=loaded.q_polys)
        assert not verify_certificate(bad, h).ok

    def test_ordering_only_certificate(self):
        cert = peeling_order(THREE, 1, 1)
        loaded, h = load_certificate(serialize_certificate(cert, THREE))
        assert loaded.q_polys is None
        assert verify_certificate(loaded, h).ok


def _paths(obj, prefix=()):
    """Every path into a JSON value, the root included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=9), children, max_size=4),
    max_leaves=8)

BASES = tuple(json.loads(serialize_certificate(cert, h)) for cert, h in (
    (construct_q(THREE, 1, 1), THREE),
    (construct_q(extremal_class(2, 3, 2, 1), 2, 1), extremal_class(2, 3, 2, 1)),
    (peeling_order(extremal_class(3, 3, 2, 1), 2, 1), extremal_class(3, 3, 2, 1))))


@st.composite
def mutated_certificates(draw):
    """A valid certificate's JSON with 1-3 edits (shift an integer, replace a
    value, delete a key or element, duplicate an element), its text sometimes
    cut short."""
    obj = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        value = draw(JSON_VALUES)
        if not path:
            obj = value
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(("shift", "replace", "delete", "duplicate")))
        if action == "shift" and type(parent[path[-1]]) is int:
            parent[path[-1]] += draw(st.integers(-2, 2))
        elif action == "replace":
            parent[path[-1]] = value
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))
    text = json.dumps(obj)
    if draw(st.integers(0, 7)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


ODD = st.sampled_from([True, 1.0, None, "1", [0]])
# terms of a poly over THREE: valid exponent vectors that often repeat, and
# denominators that are sometimes not positive
WELL_FORMED_TERMS = st.tuples(st.sampled_from([(0, 0), (0, 1), (1, 1)]).map(list),
                              st.integers(-2, 2), st.integers(-1, 3)).map(list)
MALFORMED_TERMS = st.one_of(
    st.tuples(st.lists(st.integers(-1, 2) | ODD, min_size=1, max_size=3) | ODD,
              st.integers(-2, 2) | ODD, st.integers(-1, 3) | ODD).map(list),
    st.lists(st.integers(0, 1), max_size=4), ODD)


@st.composite
def term_lists(draw):
    """A certificate poly's term list, with at most one malformed term."""
    terms = draw(st.lists(WELL_FORMED_TERMS, max_size=4))
    if draw(st.booleans()):
        terms.insert(draw(st.integers(0, len(terms))), draw(MALFORMED_TERMS))
    return terms


class TestCertificateFuzz:
    @settings(max_examples=200, deadline=None)
    @given(mutated_certificates())
    def test_mutation_gives_report_or_value_error(self, text):
        try:
            cert, h = load_certificate(text)
        except ValueError:
            return
        assert isinstance(verify_certificate(cert, h), VerifyReport)

    @settings(max_examples=200, deadline=None)
    @given(mutated_certificates())
    def test_polynomial_checks_match_the_evaluate_oracle(self, text):
        try:
            cert, h = load_certificate(text)
        except ValueError:
            return
        if cert.q_polys is not None:
            rest = verify_certificate(cert._replace(q_polys=None), h).failures
            assert verify_certificate(cert, h).failures == rest + polynomial_failures(cert, h)

    @settings(max_examples=200, deadline=None)
    @given(mutated_certificates())
    def test_embedded_class_is_checked_as_a_class_file(self, text):
        # the reference: the class file parser on the re-serialised class
        try:
            obj = json.loads(text)
            complete = obj.keys() >= {"class", "ell", "d", "ordering", "witnesses"}
        except (ValueError, AttributeError):
            return
        if not complete:
            return
        try:
            expected = parse_class_json(json.dumps(obj["class"]))
        except ClassFormatError as exc:
            expected = str(exc)
        try:
            got = load_certificate(text)[1]
        except ValueError as exc:
            got = str(exc)
        if isinstance(expected, str) or isinstance(got, HypothesisClass):
            assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2, 6) | st.sampled_from([True, False, 1.0, None, "1", [1]]),
                    max_size=6), st.integers(3, 5))
    def test_integer_lists_checked_in_bulk_match_the_per_value_check(self, values, hi):
        # exponent vectors, witness values and the ordering are read in bulk
        def outcome(read):
            try:
                return read()
            except ValueError as exc:
                return str(exc)

        assert (outcome(lambda: polycert._ints(values, hi))
                == outcome(lambda: tuple(polycert._int(v, 0, hi) for v in values)))

    @settings(max_examples=300, deadline=None)
    @given(term_lists())
    def test_terms_checked_in_bulk_match_the_per_term_check(self, terms):
        # the loader's per-term loop before the bulk check: the first bad
        # term is named, and a repeated vector comes before a bad denominator
        def per_term():
            parsed = {}
            for term in terms:
                if not (isinstance(term, list) and len(term) == 3 and type(term[1]) is int):
                    raise ValueError(f"term {term!r} is not [exponents, numerator, denominator]")
                exp = polycert._ints(term[0], THREE.k)
                if len(exp) != THREE.n or exp in parsed:
                    raise ValueError(f"exponent vector {exp} has the wrong length or repeats")
                parsed[exp] = term[1], polycert._int(term[2], 1)
            return list(parsed.items())

        def outcome(read):
            try:
                return read()
            except ValueError as exc:
                return str(exc)

        assert (outcome(lambda: list(polycert._terms(terms, THREE).items()))
                == outcome(per_term))

    @pytest.mark.parametrize("cls", [[], {"n": 2, "k": 2}, {"n": True, "k": 2, "patterns": []},
                                     {"n": 2, "k": 2, "patterns": "x"},
                                     {"n": 2, "k": 2, "patterns": [[0]]},
                                     {"n": 2, "k": 2, "patterns": [[0, 2]]},
                                     {"n": 2, "k": 2, "patterns": [[0, False]]},
                                     {"n": 2, "k": 2, "patterns": [[0, 0], [0, 0]]}])
    def test_malformed_embedded_class_reads_as_a_class_file_error(self, cls):
        with pytest.raises(ClassFormatError) as expected:
            parse_class_json(json.dumps(cls))
        with pytest.raises(ClassFormatError, match=f"^{re.escape(str(expected.value))}$"):
            load_certificate(json.dumps({**BASES[0], "class": cls}))

    def test_each_shifted_numerator_matches_the_evaluate_oracle(self):
        # a poly's values before its own pattern are free, so an edit of a
        # term that vanishes from there on still gives a valid certificate
        rejected = 0
        for obj in BASES:
            for s, terms in enumerate(obj.get("q_polys", ())):
                for j in range(len(terms)):
                    for shift in (-1, 1):
                        edited = copy.deepcopy(obj)
                        edited["q_polys"][s][j][1] += shift
                        cert, h = load_certificate(json.dumps(edited))
                        report = verify_certificate(cert, h)
                        assert report.failures == polynomial_failures(cert, h)
                        rejected += not report.ok
        assert rejected >= 60

    def test_bases_verify(self):
        for obj in BASES:
            assert verify_certificate(*load_certificate(json.dumps(obj))).ok


class TestExhaustiveSmall:
    def test_spanning_on_all_binary_two_coordinate_classes(self):
        for h in all_classes(2, 2):
            d = ds_dimension(h, 1).value
            assert spanning_certificate(h, 1, d, check_dim=False).spans


class TestLexStandardMonomials:
    """The fibre recursion against greedy exact elimination, ``oracles.lex_standard_monomials``."""

    @staticmethod
    def assert_matches_elimination(h):
        assert polycert.lex_standard_monomials(h) == lex_standard_monomials(h, range(h.n))

    def test_every_class_at_n2_k3(self):
        for h in all_classes(2, 3):
            self.assert_matches_elimination(h)

    def test_random_corpus(self):
        corpus = (random_corpus(20, 3, 3, 0.4, seed0=2810) + random_corpus(10, 3, 4, 0.3, seed0=2830)
                  + random_corpus(8, 4, 3, 0.3, seed0=2850)
                  + random_corpus(3, 4, 4, 0.1, seed0=2870, max_size=30))
        for h in corpus:
            self.assert_matches_elimination(h)

    def test_single_pattern_and_full_cube(self):
        for h in (make(4, 3, [(2, 0, 1, 2)]), make(2, 4, product(range(4), repeat=2)),
                  make(3, 3, product(range(3), repeat=3))):
            self.assert_matches_elimination(h)
        assert polycert.lex_standard_monomials(make(4, 3, [(2, 0, 1, 2)])) == [(0, 0, 0, 0)]
        cube = make(3, 4, product(range(4), repeat=3))
        assert polycert.lex_standard_monomials(cube) == list(product(range(4), repeat=3))


def test_lex_standard_monomials_can_leave_the_bounded_high_basis():
    """The lex game does not prove the bound: on a class that meets it with
    equality, the lex standard monomials under either coordinate order hold
    x0*x1, which has two exponents >= ell and so lies outside the d=1 basis
    that still spans."""
    h = make(2, 3, [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)])
    assert ds_dimension(h, 1).value == 1
    assert len(h) == ds_sauer_bound(2, 3, 1, 1) == 5
    assert spanning_certificate(h, 1, 1).spans
    basis = set(monomial_set(2, 3, 1, 1))
    assert (1, 1) not in basis
    assert lex_standard_monomials(h, (0, 1)) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    assert lex_standard_monomials(h, (1, 0)) == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
