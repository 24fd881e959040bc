import math
import random
from fractions import Fraction

import pytest

from pseudocube import (ExperimentConfig, HypothesisClass, ListClass,
                        ListPredictor, RealizabilityError, build_oig, extremal_class,
                        graph_dimension, list_provider, loo_experiment,
                        make_task, orient_minmax, pac_learn, population_error,
                        predict_one_inclusion, uc_experiment,
                        verify_projection_bound)
from pseudocube.listlearn import pac_sample_plan, _draw_pairs

from oracles import restriction_class, sample_realizable


def make(n, k, pats):
    return HypothesisClass.from_patterns(n, k, pats)


class TestMakeTask:
    def test_uniform_weights(self):
        task = make_task(extremal_class(3, 3, 1, 1), 0)
        assert task.probs == (Fraction(1, 3),) * 3

    def test_point_mass(self):
        task = make_task(extremal_class(3, 3, 1, 1), 2, weights=[0, 0, 5])
        assert task.probs == (0, 0, 1)

    def test_target_realizes_distribution(self):
        task = make_task(extremal_class(3, 3, 1, 1), 4)
        full = list_provider("full-alphabet", task)
        assert population_error(task, full) == 0
        target_lists = tuple(frozenset({task.target[x]}) for x in range(task.n))
        assert population_error(task, ListPredictor(1, target_lists)) == 0

    def test_bad_inputs(self):
        c = extremal_class(3, 3, 1, 1)
        with pytest.raises(ValueError):
            make_task(c, 99)
        with pytest.raises(ValueError):
            make_task(c, 0, weights=[0, 0, 0])
        with pytest.raises(ValueError):
            make_task(c, 0, weights=[1, -1, 1])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            make_task(extremal_class(3, 3, 1, 1), 0, weights=[1, bad, 1])


class TestListProvider:
    def test_full_alphabet(self):
        task = make_task(extremal_class(3, 3, 1, 1), 0)
        mu = list_provider("full-alphabet", task)
        assert mu.lists == (frozenset({0, 1, 2}),) * 3
        assert mu.ell == 3

    def test_sample_support(self):
        task = make_task(extremal_class(3, 3, 1, 1), 0)
        mu = list_provider("sample-support", task, sample=[(0, 0), (0, 2), (1, 1)])
        assert mu(0) == {0, 2} and mu(1) == {1} and mu(2) == frozenset()

    def test_full_alphabet_filter_is_identity(self):
        task = make_task(extremal_class(3, 3, 1, 2), 3)
        mu = list_provider("full-alphabet", task)
        rng = random.Random(1)
        sample = _draw_pairs(task, 30, rng)
        assert [(x, y) for x, y in sample if y in mu(x)] == sample

    def test_filtered_sample_stays_realizable(self):
        task = make_task(extremal_class(4, 3, 1, 1), 2)
        rng = random.Random(5)
        sample = _draw_pairs(task, 25, rng)
        mu = list_provider("sample-support", task, sample=sample[:10])
        filtered = [(x, y) for x, y in sample if y in mu(x)]
        assert sample_realizable(task.concepts, filtered)

    def test_user_supplied_validated(self):
        with pytest.raises(ValueError):
            ListPredictor(2, (frozenset({0, 1, 2}), frozenset({0}), frozenset({1})))


class TestPredictOneInclusion:
    def test_degenerate_empty_sample(self):
        concepts = make(1, 2, [(0,), (1,)])
        task = make_task(concepts, 0)
        mu = list_provider("full-alphabet", task)
        out = predict_one_inclusion(concepts, mu, [], 0, 1)
        assert len(out) == 1 and out <= {0, 1}

    def test_output_within_mu_and_ell(self):
        concepts = extremal_class(3, 3, 1, 1)
        task = make_task(concepts, 1)
        mu = list_provider("full-alphabet", task)
        rng = random.Random(11)
        for trial in range(30):
            sample = _draw_pairs(task, rng.randrange(0, 6), rng)
            x = rng.randrange(3)
            out = predict_one_inclusion(concepts, mu, sample, x, 1)
            assert len(out) <= 1 and out <= mu(x)

    def test_trained_instance_is_forced(self):
        concepts = extremal_class(3, 3, 1, 1)
        task = make_task(concepts, 2)
        mu = list_provider("full-alphabet", task)
        sample = [(0, task.target[0]), (1, task.target[1]), (0, task.target[0])]
        out = predict_one_inclusion(concepts, mu, sample, 0, 1)
        assert out == {task.target[0]}

    def test_contradictory_labels_raise(self):
        concepts = extremal_class(3, 3, 1, 1)
        task = make_task(concepts, 0)
        mu = list_provider("full-alphabet", task)
        with pytest.raises(RealizabilityError):
            predict_one_inclusion(concepts, mu, [(0, 0), (0, 1)], 1, 1)

    def test_inconsistent_sample_raises(self):
        concepts = make(2, 3, [(0, 0), (1, 1)])
        task = make_task(concepts, 0)
        mu = list_provider("full-alphabet", task)
        with pytest.raises(RealizabilityError):
            predict_one_inclusion(concepts, mu, [(0, 2)], 1, 1)

    def test_empty_mu_intersection_raises(self):
        concepts = make(2, 3, [(0, 0), (1, 1)])
        task = make_task(concepts, 0)
        mu = ListPredictor(1, (frozenset({2}), frozenset({2})))
        with pytest.raises(RealizabilityError):
            predict_one_inclusion(concepts, mu, [], 0, 1)

    def test_matches_full_graph_orientation_budget(self):
        # the reduced computation must agree with the generic machinery on
        # the full restriction class: same vertex count, same exact optimum
        from pseudocube.listlearn import _reduced_problem
        from pseudocube.oig import min_max_orientation_indexed
        concepts = extremal_class(3, 3, 1, 1)
        task = make_task(concepts, 3)
        mu = list_provider("full-alphabet", task)
        rng = random.Random(23)
        for ell in (1, 2):
            for _ in range(15):
                m = rng.randrange(0, 5)
                sample = _draw_pairs(task, m, rng)
                x = rng.randrange(3)
                points = [xi for xi, _ in sample] + [x]
                full = restriction_class(concepts, mu, points)
                _, cstar_full = orient_minmax(build_oig(full), ell)
                verts, edges, star, star_edge, xs = _reduced_problem(
                    concepts, mu, sample, x)
                assert len(verts) == len(full)
                if star_edge is not None:
                    _, cstar_fast = min_max_orientation_indexed(len(verts), edges, ell)
                    assert cstar_fast == cstar_full
                out = predict_one_inclusion(concepts, mu, sample, x, ell)
                consistent = [p for p in full.patterns
                              if all(p[i] == y for i, (_, y) in enumerate(sample))]
                assert out <= {p[m] for p in consistent}
                assert len(out) <= ell

    def test_sample_support_provider_path(self):
        concepts = extremal_class(3, 3, 1, 1)
        task = make_task(concepts, 1)
        sample = [(0, task.target[0]), (1, task.target[1]), (2, task.target[2])]
        mu = list_provider("sample-support", task, sample=sample)
        out = predict_one_inclusion(concepts, mu, sample, 1, 1)
        assert out == {task.target[1]}


class TestLooExperiment:
    def test_bound_value_matches_convention(self):
        task = make_task(extremal_class(3, 3, 1, 1), 0)
        cfg = ExperimentConfig(m=100, trials=10, seed=0, ell=1)
        rep = loo_experiment(task, cfg)
        assert rep.d_used == 1 and rep.ell_prime_used == 3
        assert rep.bound == pytest.approx(40 * math.log(3) / 100)

    def test_singleton_class_never_errs(self):
        concepts = make(3, 3, [(0, 1, 2)])
        task = make_task(concepts, 0)
        cfg = ExperimentConfig(m=5, trials=200, seed=4, ell=1)
        rep = loo_experiment(task, cfg)
        assert rep.empirical_error == 0

    def test_empirical_below_bound_small_grid(self):
        task = make_task(extremal_class(6, 3, 1, 1), 0)
        cfg = ExperimentConfig(m=50, trials=400, seed=7, ell=1)
        rep = loo_experiment(task, cfg)
        assert float(rep.empirical_error) <= rep.bound

    def test_deterministic_under_seed(self):
        task = make_task(extremal_class(4, 3, 1, 1), 1)
        cfg = ExperimentConfig(m=20, trials=100, seed=99, ell=1)
        a = loo_experiment(task, cfg)
        b = loo_experiment(task, cfg)
        assert a.empirical_error == b.empirical_error

    def test_error_trend_nonincreasing_in_m(self):
        task = make_task(extremal_class(6, 3, 1, 1), 0)
        errs = []
        for m in (10, 40, 160):
            cfg = ExperimentConfig(m=m, trials=600, seed=13, ell=1)
            errs.append(float(loo_experiment(task, cfg).empirical_error))
        assert errs[0] >= errs[2]

    def test_parallel_trials_match_sequential(self):
        task = make_task(extremal_class(6, 3, 1, 1), 0)
        cfg = ExperimentConfig(m=20, trials=300, seed=31, ell=1)
        seq = loo_experiment(task, cfg, keep_trials=True)
        par = loo_experiment(task, cfg, keep_trials=True, jobs=3)
        assert seq.empirical_error == par.empirical_error
        assert seq.per_trial == par.per_trial

    def test_theoretical_list_width_reported_not_asserted(self):
        from pseudocube import theoretical_ell_prime
        task = make_task(extremal_class(3, 3, 1, 1), 0)
        cfg = ExperimentConfig(m=50, trials=10, seed=0, ell=1)
        rep = loo_experiment(task, cfg)
        assert rep.ell_prime_theory == pytest.approx(
            theoretical_ell_prime(1, rep.d_used, 50))
        assert theoretical_ell_prime(1, 1, 50) == pytest.approx(
            math.e * math.log(100))
        assert theoretical_ell_prime(2, 0, 50) == 2.0


class TestPacLearn:
    def test_plan_uses_stated_constants(self):
        task = make_task(extremal_class(3, 3, 1, 1), 0)
        cfg = ExperimentConfig(epsilon=0.2, delta=0.1, m=10, trials=1, seed=0, ell=1)
        p, chunk, val = pac_sample_plan(task, cfg, ell_prime=3)
        assert p == math.ceil(math.log(2 / 0.1))
        assert chunk == math.ceil(160 * 1 * 1 * max(math.log(3), 1) / 0.2)
        assert val == math.ceil(32 * math.log(2 / 0.1) / 0.2 + math.log(p + 1))

    def test_too_small_sample_rejected(self):
        task = make_task(extremal_class(3, 3, 1, 1), 0)
        cfg = ExperimentConfig(epsilon=0.2, delta=0.1, m=10, trials=1, seed=0, ell=1)
        with pytest.raises(ValueError, match="too small"):
            pac_learn(task, cfg)

    def test_single_concept_trivial(self):
        concepts = make(3, 3, [(0, 1, 2)])
        task = make_task(concepts, 0)
        p, chunk, val = pac_sample_plan(
            task, ExperimentConfig(epsilon=0.5, delta=0.4, ell=1), 3)
        cfg = ExperimentConfig(epsilon=0.5, delta=0.4, m=p * chunk + val + 8,
                               trials=1, seed=0, ell=1, test_size=200)
        rep = pac_learn(task, cfg)
        assert rep.test_error == 0 and rep.population_error == 0

    def test_selection_minimizes_validation_error(self):
        task = make_task(extremal_class(3, 3, 1, 1), 2)
        cfg0 = ExperimentConfig(epsilon=0.25, delta=0.2, ell=1)
        p, chunk, val = pac_sample_plan(task, cfg0, 3)
        cfg = ExperimentConfig(epsilon=0.25, delta=0.2, m=p * chunk + val + 20,
                               trials=1, seed=21, ell=1, test_size=300)
        rep = pac_learn(task, cfg)
        assert rep.validation_errors[rep.chosen] == min(rep.validation_errors)
        assert rep.test_error <= cfg.epsilon

    def test_deterministic_under_seed(self):
        task = make_task(extremal_class(3, 3, 1, 1), 1)
        cfg0 = ExperimentConfig(epsilon=0.3, delta=0.2, ell=1)
        p, chunk, val = pac_sample_plan(task, cfg0, 3)
        cfg = ExperimentConfig(epsilon=0.3, delta=0.2, m=p * chunk + val + 5,
                               trials=1, seed=77, ell=1, test_size=100)
        a = pac_learn(task, cfg)
        b = pac_learn(task, cfg)
        assert a.predictor.lists == b.predictor.lists
        assert a.test_error == b.test_error


class TestProjectionBound:
    def _flip_class(self):
        members = []
        for b0 in (0, 1):
            for b1 in (0, 1):
                members.append((frozenset({0, 1} if b0 else {2, 3}),
                                frozenset({0, 1} if b1 else {2, 3})))
        return ListClass(2, 4, 2, frozenset(members)), members

    def test_single_coordinate_ell1(self):
        c = ListClass(1, 2, 1, frozenset({(frozenset({0}),), (frozenset({1}),)}))
        witnesses = {(1,): (frozenset({0}),), (0,): (frozenset({1}),)}
        rep = verify_projection_bound(c, (0,), (0,), witnesses)
        assert rep.rhs == Fraction(1, 2) and rep.lhs >= 1 and rep.holds

    def test_single_coordinate_ell2(self):
        c = ListClass(1, 4, 2, frozenset({(frozenset({0, 1}),), (frozenset({2, 3}),)}))
        witnesses = {(1,): (frozenset({0, 1}),), (0,): (frozenset({2, 3}),)}
        rep = verify_projection_bound(c, (0,), (0,), witnesses)
        assert rep.rhs == Fraction(2, 3) and rep.lhs == 4 and rep.holds

    def test_two_coordinates_ell2(self):
        c, members = self._flip_class()
        witnesses = {(b0, b1): members[2 * b0 + b1] for b0 in (0, 1) for b1 in (0, 1)}
        rep = verify_projection_bound(c, (0, 1), (0, 0), witnesses)
        assert rep.lhs == 16 and rep.rhs == Fraction(16 * 4, 4 * 9) and rep.holds

    def test_certification_failure_detected(self):
        c, members = self._flip_class()
        witnesses = {(b0, b1): members[0] for b0 in (0, 1) for b1 in (0, 1)}
        with pytest.raises(ValueError, match="certification fails"):
            verify_projection_bound(c, (0, 1), (0, 0), witnesses)

    def test_from_graph_dimension_witness(self):
        c, _ = self._flip_class()
        res = graph_dimension(c)
        pivot, witnesses = res.witness_structure
        rep = verify_projection_bound(c, res.witness, pivot, witnesses)
        assert rep.holds


class TestUcExperiment:
    def test_point_mass_has_zero_deviation(self):
        concepts = extremal_class(3, 3, 1, 1)
        task = make_task(concepts, 0, weights=[0, 0, 1])
        c = ListClass.from_hypothesis_class(concepts)
        rep = uc_experiment(c, task, ExperimentConfig(m=30, trials=50, seed=3))
        assert rep.sup_deviation == 0

    def test_single_member_concentrates(self):
        concepts = make(3, 3, [(0, 0, 0)])
        task = make_task(extremal_class(3, 3, 1, 1), 0)
        c = ListClass.from_hypothesis_class(concepts)
        small = uc_experiment(c, task, ExperimentConfig(m=400, trials=60, seed=5))
        assert small.sup_deviation < 0.06

    def test_sqrt_scaling_sanity(self):
        concepts = extremal_class(3, 3, 1, 1)
        task = make_task(concepts, 0)
        c = ListClass.from_hypothesis_class(concepts)
        dev_m = uc_experiment(c, task, ExperimentConfig(m=64, trials=300, seed=8))
        dev_4m = uc_experiment(c, task, ExperimentConfig(m=256, trials=300, seed=8))
        ratio = (dev_m.sup_deviation / 2) / dev_4m.sup_deviation
        assert 1 / 3 <= ratio <= 3
        assert dev_m.g_dim == graph_dimension(c).value
