import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pseudocube import (ExperimentConfig, HypothesisClass, ListClass,
                        ListPredictor, RealizabilityError, build_oig, extremal_class,
                        graph_dimension, list_provider, loo_experiment,
                        make_task, orient_minmax, outdegrees, pac_learn,
                        population_error, predict_one_inclusion, project,
                        random_class, uc_experiment, verify_projection_bound)
from pseudocube import listlearn
from pseudocube.listlearn import (pac_sample_plan, _allowed, _draw_pairs, _predict,
                                  _trial_seed)

from oracles import (restriction_class, sample_realizable, slow_predict_one_inclusion,
                     slow_reduced_problem, version_space_lists)


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

    def test_sample_support_unseen_instance_gets_version_space(self):
        # extremal(3,3,1,1) holds (0,0,0), (0,0,1), (0,0,2), (0,1,0), (0,2,0),
        # (1,0,0) and (2,0,0); the patterns with 0 at instance 0 take every
        # label at instances 1 and 2
        task = make_task(extremal_class(3, 3, 1, 1), 0)
        mu = list_provider("sample-support", task, sample=[(0, 0), (0, 0)])
        assert mu.lists == (frozenset({0}), frozenset({0, 1, 2}), frozenset({0, 1, 2}))
        assert mu.ell == 3
        mu = list_provider("sample-support", task, sample=[(1, 2)])
        assert mu.lists == (frozenset({0}), frozenset({2}), frozenset({0}))
        assert mu.ell == 1

    def test_sample_support_holds_target_label(self):
        task = make_task(extremal_class(5, 3, 1, 2), 7)
        rng = random.Random(3)
        for _ in range(20):
            sample = _draw_pairs(task, rng.randrange(0, 6), rng)
            mu = list_provider("sample-support", task, sample=sample)
            assert all(task.target[x] in mu(x) for x in range(task.n))
            assert mu.ell <= task.k

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
                verts, edges, star, star_edge, xs = slow_reduced_problem(
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


@st.composite
def prediction_cases(draw):
    """A small class over up to 13 labels, a list predictor (either provider,
    or hand-made lists that may hold -1 or k), a sample whose labels may
    repeat, contradict each other or leave [0, k), a test instance that may
    or may not be sampled, and ell.  The class takes at most three values
    per instance, so large alphabets still give edges to orient."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(2, 13))
    values = st.lists(st.integers(0, k - 1), min_size=1, max_size=3, unique=True)
    cells = list(product(*(draw(values) for _ in range(n))))
    concepts = make(n, k, draw(st.lists(st.sampled_from(cells), min_size=1, max_size=12)))
    target = draw(st.sampled_from(concepts.sorted_patterns()))
    pair = st.integers(0, n - 1).flatmap(lambda u: st.tuples(
        st.just(u), st.one_of(st.just(target[u]), st.integers(-1, k))))
    sample = draw(st.lists(pair, max_size=6))
    kind = draw(st.sampled_from(("full-alphabet", "sample-support", "hand")))
    if kind == "hand":
        label_sets = st.frozensets(st.integers(-1, k), max_size=k + 2)
        mu = ListPredictor(k + 2, tuple(draw(label_sets) for _ in range(n)))
    else:
        provider_sample = draw(st.one_of(st.just(sample), st.lists(pair, max_size=6)))
        task = make_task(concepts, concepts.sorted_patterns().index(target))
        mu = list_provider(kind, task, sample=provider_sample)
        if kind == "sample-support":
            assert mu.lists == version_space_lists(concepts, provider_sample)
    sampled = [u for u, _ in sample]
    x = draw(st.sampled_from(sampled) if sampled and draw(st.booleans())
             else st.integers(0, n - 1))
    return concepts, mu, sample, x, draw(st.integers(1, k))


def _outcome(predict, *args):
    try:
        return predict(*args)
    except Exception as exc:  # the two paths must fail alike too
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(prediction_cases())
def test_prediction_matches_slow_path(case):
    assert _outcome(predict_one_inclusion, *case) == _outcome(slow_predict_one_inclusion, *case)


def test_oriented_predictions_match_the_slow_path_past_base_ten(monkeypatch):
    """Alphabets up to 13, lists narrower than the alphabet and classes
    dense enough that the flow decides a fixed share of the predictions, so
    the reduced problem's integer codes run with digits above 9."""
    flows = []
    orient = listlearn.min_max_orientation_indexed
    monkeypatch.setattr(listlearn, "min_max_orientation_indexed",
                        lambda *args: flows.append(args) or orient(*args))
    rng = random.Random(2026)
    wide = narrowed = 0
    for _ in range(300):
        n, k = rng.randint(2, 5), rng.randint(2, 13)
        pools = [rng.sample(range(k), min(k, rng.randint(2, 3))) for _ in range(n)]
        concepts = make(n, k, {tuple(map(rng.choice, pools)) for _ in range(rng.randint(1, 30))})
        target = rng.choice(concepts.sorted_patterns())
        narrow = rng.random() < 0.5
        mu = ListPredictor(k, tuple(
            frozenset(y for y in range(k) if not narrow or rng.random() < 0.7) | {target[u]}
            for u in range(n)))
        sample = [(u, target[u]) for u in rng.choices(range(n), k=rng.randint(0, 4))]
        case = concepts, mu, sample, rng.randrange(n), rng.randint(1, 2)
        before = len(flows)
        assert _outcome(predict_one_inclusion, *case) == _outcome(slow_predict_one_inclusion, *case)
        if len(flows) > before:
            wide += k > 10
            narrowed += any(p[u] not in mu(u) for p in concepts.patterns for u in range(n))
    assert len(flows) >= 60 and wide >= 12 and narrowed >= 12


def test_leave_one_out_misses_equal_the_outdegree():
    """The one-inclusion identity, exactly: over the m+1 distinct instances
    S and a target h in H, the predictor trained on S minus x misses h(x)
    exactly when the orientation of the one-inclusion graph of proj_S(H)
    leaves h|S out of its direction-x edge.  So the misses over x in S equal
    the outdegree of h|S, which is at most c*.  A wrong selection read or a
    wrong star edge breaks the equality; a flow fault can pass it, because
    both sides share the flow, and the oracle tests of the flow cover that."""
    cells = ((extremal_class(8, 3, 1, 2), 1), (extremal_class(7, 3, 2, 2), 2),
             (random_class(7, 3, 0.05, 11), 1), (random_class(6, 4, 0.03, 5), 2),
             (extremal_class(10, 3, 1, 1), 1))
    with_patterns = [(h, ell, h.sorted_patterns()) for h, ell in cells]
    rng = random.Random(2024)
    oriented = 0
    for _ in range(150):
        h, ell, pats = rng.choice(with_patterns)
        allowed = _allowed(h, [frozenset(range(h.k))] * h.n)
        coords = sorted(rng.sample(range(h.n), rng.randint(2, min(7, h.n))))
        target = rng.choice(pats)
        misses = sum(target[x] not in _predict(h, allowed,
                                               [(u, target[u]) for u in coords if u != x],
                                               x, ell)
                     for x in coords)
        g = build_oig(project(h, coords))
        sigma, cstar = orient_minmax(g, ell)
        out = outdegrees(g, sigma)[tuple(target[u] for u in coords)]
        assert misses == out <= cstar, (h.n, h.k, ell, coords, target)
        oriented += out > 0
    # the draws reach edges the orientation cuts, not only forced answers
    assert oriented > 0


def test_reports_do_not_depend_on_the_pattern_order():
    # the class layout follows the patterns' iteration order, which two equal
    # classes need not share; no leave-one-out or PAC report may depend on it
    pats = sorted(extremal_class(8, 3, 1, 2).patterns)
    a, b = (HypothesisClass(8, 3, frozenset(order)) for order in (pats, pats[::-1]))
    assert a == b and list(a.patterns) != list(b.patterns)
    assert a.label_masks != b.label_masks
    loo_cfg = ExperimentConfig(m=6, trials=80, seed=3, ell=1)
    pac_cfg = ExperimentConfig(epsilon=0.5, delta=0.4, ell=1)
    p, chunk, val = pac_sample_plan(make_task(a, 7), pac_cfg, 3)
    pac_cfg = ExperimentConfig(epsilon=0.5, delta=0.4, m=p * chunk + val + 10,
                               trials=1, seed=9, ell=1, test_size=200)
    for provider in ("full-alphabet", "sample-support"):
        loo_a, loo_b = (loo_experiment(make_task(h, 7), loo_cfg, provider, keep_trials=True)
                        for h in (a, b))
        assert loo_a == loo_b and loo_a.forced_trials < loo_cfg.trials
        pac_a, pac_b = (pac_learn(make_task(h, 7), pac_cfg, provider) for h in (a, b))
        assert pac_a == pac_b


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

    def test_forced_trials_count_sampled_test_points(self):
        task = make_task(extremal_class(4, 3, 1, 1), 2)
        cfg = ExperimentConfig(m=3, trials=200, seed=17, ell=1)
        forced = 0
        for t in range(cfg.trials):
            pairs = _draw_pairs(task, cfg.m + 1, random.Random(_trial_seed(cfg.seed, t)))
            forced += pairs[-1] in pairs[:-1]
        rep = loo_experiment(task, cfg)
        assert rep.forced_trials == forced
        assert 0 < forced < cfg.trials

    def test_sample_support_realizable_at_unseen_points(self):
        # most test points are unseen at m=2; the sample-support list there
        # holds the labels of the sample-consistent patterns, the target's too
        task = make_task(extremal_class(6, 3, 1, 1), 4)
        cfg = ExperimentConfig(m=2, trials=300, seed=5, ell=1)
        rep = loo_experiment(task, cfg, provider_kind="sample-support")
        assert rep.forced_trials < cfg.trials // 2
        assert rep.ell_prime_used == 3

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
