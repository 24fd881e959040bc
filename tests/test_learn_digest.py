"""Learning-experiment outcomes are pinned.

A SHA-256 over small seeded cells of ``loo_experiment`` (every per-trial
outcome, for both list providers and for one and two worker processes),
``pac_learn`` (the chosen chunk, the validation errors, the winning lists and
the test error) and ``uc_experiment`` must stay fixed.  A refactor of the
provider plumbing or of the trial fan-out has to keep every outcome.
"""

import hashlib

from pseudocube import (ExperimentConfig, HypothesisClass, ListClass, RealizabilityError,
                        extremal_class, loo_experiment, make_task, pac_learn, uc_experiment)
from pseudocube.listlearn import pac_sample_plan

LEARN_SHA256 = "05a64cca536d68adf0dcf1cd50adf6790665945f5c727f34437f20264ab8fa16"

PROVIDERS = ("full-alphabet", "sample-support")

# (class, target index, weights, ell, m, trials, seed) of the leave-one-out
# cells.  A sample-support list is empty at an instance the training sample
# missed, so that provider raises ``RealizabilityError`` on a cell as soon as
# one test point is unseen; the error text is pinned then.
LOO_CELLS = ((extremal_class(4, 3, 1, 1), 2, None, 1, 6, 60, 11),
             (extremal_class(7, 3, 1, 2), 5, None, 1, 8, 40, 12),
             (extremal_class(4, 3, 2, 1), 3, None, 2, 5, 40, 13),
             (extremal_class(3, 3, 1, 1), 1, None, 1, 12, 50, 14),
             (extremal_class(5, 3, 1, 1), 1, [3, 0, 4, 2, 0], 1, 15, 50, 15))

# (class, target index, weights, epsilon, delta, extra points, seed) of the
# PAC cells; m is the plan's p * chunk + val plus the extra points.  A rare
# instance that a chunk can miss makes the chunks disagree.
PAC_CELLS = ((extremal_class(3, 3, 1, 1), 0, [176, 175, 1], 0.5, 0.01, 0, 24),
             (extremal_class(3, 3, 1, 1), 3, [176, 1, 175], 0.5, 0.01, 0, 24),
             (HypothesisClass.from_patterns(3, 3, [(0, 1, 2), (1, 1, 2), (2, 0, 0)]),
              1, None, 0.6, 0.4, 3, 22))

# (hypothesis class for the task, target index, list class, m, trials, seed)
_FLIP = ListClass(2, 4, 2, frozenset(
    (frozenset({0, 1} if b0 else {2, 3}), frozenset({0, 1} if b1 else {2, 3}))
    for b0 in (0, 1) for b1 in (0, 1)))
UC_CELLS = ((extremal_class(3, 3, 1, 1), 2, None, 40, 30, 31),
            (HypothesisClass.from_patterns(2, 4, [(0, 2), (1, 3), (3, 0)]), 1, _FLIP, 25, 30, 32))


def _loo_records():
    for h, target, weights, ell, m, trials, seed in LOO_CELLS:
        task = make_task(h, target, weights=weights)
        cfg = ExperimentConfig(m=m, trials=trials, seed=seed, ell=ell)
        for provider in PROVIDERS:
            for jobs in (1, 2):
                head = (f"loo {sorted(h.patterns)} target={target} weights={weights} "
                        f"m={m} trials={trials} seed={seed} ell={ell} "
                        f"provider={provider} jobs={jobs}")
                try:
                    rep = loo_experiment(task, cfg, provider_kind=provider,
                                         keep_trials=True, jobs=jobs)
                except RealizabilityError as exc:
                    yield f"{head} RealizabilityError: {exc}\n"
                    continue
                outcomes = "".join(str(int(miss)) for miss in rep.per_trial)
                yield (f"{head} error={rep.empirical_error} bound={rep.bound!r} "
                       f"d={rep.d_used} ell'={rep.ell_prime_used} "
                       f"theory={rep.ell_prime_theory!r} outcomes={outcomes}\n")


def _pac_records():
    for h, target, weights, eps, delta, extra, seed in PAC_CELLS:
        task = make_task(h, target, weights=weights)
        p, chunk, val = pac_sample_plan(task, ExperimentConfig(epsilon=eps, delta=delta),
                                        h.k)
        cfg = ExperimentConfig(epsilon=eps, delta=delta, m=p * chunk + val + extra,
                               trials=1, seed=seed, test_size=150)
        for provider in PROVIDERS:
            rep = pac_learn(task, cfg, provider_kind=provider)
            lists = [sorted(s) for s in rep.predictor.lists]
            yield (f"pac {sorted(h.patterns)} target={target} weights={weights} "
                   f"m={cfg.m} seed={seed} provider={provider} "
                   f"chosen={rep.chosen} val_errors={[str(e) for e in rep.validation_errors]} "
                   f"lists={lists} ell={rep.predictor.ell} test={rep.test_error!r} "
                   f"population={rep.population_error} chunks={rep.chunks} "
                   f"chunk={rep.chunk_size} val={rep.val_size} "
                   f"filtered={rep.filtered_size}\n")


def _uc_records():
    for h, target, lc, m, trials, seed in UC_CELLS:
        task = make_task(h, target)
        c = ListClass.from_hypothesis_class(h) if lc is None else lc
        rep = uc_experiment(c, task, ExperimentConfig(m=m, trials=trials, seed=seed))
        yield (f"uc {sorted(h.patterns)} target={target} ell={c.ell} "
               f"sup={rep.sup_deviation!r} g={rep.g_dim} trials={rep.trials} m={rep.m}\n")


def learn_digest() -> tuple[str, int]:
    """(hex digest, record count)."""
    sha = hashlib.sha256()
    records = 0
    for text in (*_loo_records(), *_pac_records(), *_uc_records()):
        sha.update(text.encode("utf-8"))
        records += 1
    return sha.hexdigest(), records


def test_learning_outcomes_unchanged():
    digest, records = learn_digest()
    assert records == 5 * 2 * 2 + 3 * 2 + 2
    assert digest == LEARN_SHA256
