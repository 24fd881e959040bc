"""Desk-scale list learners on finite instance spaces: the one-inclusion
list predictor, its leave-one-out experiment, the amplified PAC learner
(train several candidates on chunks, pick the validation minimizer), plus
the uniform-convergence experiment.

Instances are indices 0..n-1 into a finite set; concepts are the patterns of
a hypothesis class over those instances.  All randomness flows from one root
seed; trial t uses its own derived stream, so any trial is reproducible in
isolation and aggregation is order independent.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, compress
from typing import NamedTuple, Optional, Sequence

from .classes import HypothesisClass, Pattern, _Frozen
from .dims import ListClass, ds_dimension, graph_dimension
from .oig import min_max_orientation_indexed

LabeledPair = tuple[int, int]

# the amplified learner's chunk and validation constants (see pac_sample_plan)
CHUNK_FACTOR = 160
VAL_FACTOR = 32


class RealizabilityError(ValueError):
    """The sample cannot be explained jointly by the class and the list."""


def _llog(x: float) -> float:
    """Natural log clamped below at 1, the convention used by every bound here."""
    return max(math.log(x), 1.0)


def _trial_seed(seed: int, trial: int) -> int:
    return (seed << 32) + trial


def theoretical_ell_prime(ell: int, d: int, m: int) -> float:
    """The first-stage list width ell * (e*d)^sqrt(d) * log(2m) that an
    external wide-list learner would guarantee at sample size m.  Reported
    for context only; nothing is asserted against it since that learner is
    pluggable here."""
    if d == 0:
        return float(ell)
    return ell * (math.e * d) ** math.sqrt(d) * math.log(2 * m)


# ---------------------------------------------------------------------------
# Tasks and list providers
# ---------------------------------------------------------------------------

class ConceptTask(_Frozen):
    """A realizable distribution: instance x carries probability probs[x] and
    label target[x], so the target concept has zero loss by construction."""

    __match_args__ = ("concepts", "target", "probs")

    def __init__(self, concepts: HypothesisClass, target: Pattern,
                 probs: tuple[Fraction, ...]):
        self._set(concepts, target, probs)

    @property
    def n(self) -> int:
        return self.concepts.n

    @property
    def k(self) -> int:
        return self.concepts.k

    @cached_property
    def cum_weights(self) -> list[float]:
        """The running float sums of ``probs``, for ``random.choices``."""
        return list(accumulate(map(float, self.probs)))


def make_task(concepts: HypothesisClass, target_index: int,
              weights: Optional[Sequence] = None) -> ConceptTask:
    """Build a task whose distribution places weight w_x on (x, target(x)).

    ``target_index`` selects the target from the canonical pattern order.
    Weights default to uniform; they must be finite, nonnegative and not all
    zero.
    """
    pats = concepts.sorted_patterns()
    if not (0 <= target_index < len(pats)):
        raise ValueError(f"target index {target_index} out of range [0,{len(pats)})")
    target = pats[target_index]
    if weights is None:
        weights = [1] * concepts.n
    try:
        weights = [Fraction(w) for w in weights]
    except (OverflowError, ValueError):  # inf and nan, respectively
        raise ValueError(f"weights must be finite numbers, got {list(weights)}") from None
    if len(weights) != concepts.n:
        raise ValueError(f"need {concepts.n} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    total = sum(weights)
    if total == 0:
        raise ValueError("weights must not all be zero")
    return ConceptTask(concepts=concepts, target=target,
                       probs=tuple(w / total for w in weights))


class ListPredictor(_Frozen):
    """Per-instance label sets of size at most ell."""

    __match_args__ = ("ell", "lists")

    def __init__(self, ell: int, lists: tuple[frozenset[int], ...]):
        self._set(ell, lists)
        for s in self.lists:
            if len(s) > self.ell:
                raise ValueError(f"list of size {len(s)} exceeds ell={self.ell}")

    def __call__(self, x: int) -> frozenset[int]:
        return self.lists[x]


def list_provider(kind: str, task: ConceptTask,
                  sample: Optional[Sequence[LabeledPair]] = None) -> ListPredictor:
    """Produce the wide first-stage list the one-inclusion learner narrows.

    Kinds: ``full-alphabet`` (every label everywhere, always realizable, so
    ``ell`` is k) or ``sample-support`` (the labels observed at each instance
    in ``sample`` and, at an instance the sample missed, the labels that the
    sample-consistent patterns take there; ``ell`` is the largest list size,
    at least 1).
    """
    n, k = task.n, task.k
    if kind == "full-alphabet":
        return ListPredictor(ell=k, lists=(frozenset(range(k)),) * n)
    if kind == "sample-support":
        if sample is None:
            raise ValueError("sample-support provider needs a sample")
        lists = _sample_support(task.concepts, sample)
        return ListPredictor(ell=max([1, *map(len, lists)]), lists=lists)
    raise ValueError(f"unknown provider kind {kind!r}")


def population_error(task: ConceptTask, predictor: ListPredictor) -> Fraction:
    """Exact population loss of a predictor under the task distribution."""
    return sum((p for x, p in enumerate(task.probs) if task.target[x] not in predictor(x)),
               Fraction(0))


def _draw_pairs(task: ConceptTask, m: int, rng: random.Random) -> list[LabeledPair]:
    xs = rng.choices(range(task.n), cum_weights=task.cum_weights, k=m)
    target = task.target
    return [(x, target[x]) for x in xs]


# ---------------------------------------------------------------------------
# One-inclusion list prediction
# ---------------------------------------------------------------------------

def _label_mask(concepts: HypothesisClass, u: int, y: int) -> int:
    """The patterns with label y at u; none when y lies outside [0, k)."""
    masks = concepts.label_masks[u]
    return masks[y] if 0 <= y < len(masks) else 0


def _allowed(concepts: HypothesisClass, lists: Sequence[frozenset[int]]) -> tuple[int, ...]:
    """Per instance u, the patterns whose label at u lies in ``lists[u]``."""
    out = []
    for u, labels in enumerate(lists):
        mask = 0
        for y in labels:
            mask |= _label_mask(concepts, u, y)
        out.append(mask)
    return tuple(out)


def _sample_support(concepts: HypothesisClass,
                    sample: Sequence[LabeledPair]) -> tuple[frozenset[int], ...]:
    """The sample-support lists: the labels seen at each sampled instance and,
    elsewhere, the labels of the sample-consistent patterns (the target's
    among them, so a realizable sample keeps every list at most k wide and
    consistent with the target)."""
    n, masks = concepts.n, concepts.label_masks
    seen: dict[int, set[int]] = {x: set() for x in range(n)}
    for x, y in sample:
        seen[x].add(y)
    consistent = (1 << len(concepts)) - 1
    for x, labels in seen.items():
        for y in labels:
            consistent &= _label_mask(concepts, x, y)
    return tuple(frozenset(seen[u]) if seen[u] else
                 frozenset(y for y, mask in enumerate(masks[u]) if mask & consistent)
                 for u in range(n))


def predict_one_inclusion(concepts: HypothesisClass, mu: ListPredictor,
                          sample: Sequence[LabeledPair], x: int,
                          ell: int) -> frozenset[int]:
    """Predict a label set of size at most ell for instance ``x``.

    Restrict the class to the sample points plus x, keep the patterns whose
    entries all lie in mu's lists, orient the one-inclusion graph of that
    restriction with the least possible maximum ell-outdegree, and return
    the values the chosen orientation assigns to the edge consistent with
    the sample labels.

    The realizability checks run on the class's ``label_masks``, and
    then one of two paths gives the answer.  Forced: when x was itself
    sampled, the answer is its sampled label, and no restricted pattern is
    built.  Oriented: otherwise, if the label-consistent patterns take at
    most ell values at x, that edge has at most ell vertices, every
    orientation selects them all, and those values are the answer.  Else the
    orientation is computed.  The restricted patterns are then stored per
    distinct instance (restrictions to a point sequence are determined by
    their values on the distinct points), which keeps the cost linear in the
    sample length: directions of repeated instances contribute only
    singleton edges, so the orientation problem is decided entirely by the
    directions of once-sampled instances.  A restricted pattern is its
    big-endian base-k code over the distinct instances, so integer order is
    the patterns' lexicographic order, and a line of direction t is keyed by
    the code with digit t deleted.  Only the label-consistent edge and the
    edges of more than ell vertices go to the flow (smaller ones carry no
    demand, and the budget's lower bound counts every vertex), so the
    selection is the one the full graph gets.

    The checks raise ``RealizabilityError`` when no pattern lies in the
    lists, when an instance carries two labels, or when no such pattern
    matches the sample labels, in that order.  Labels outside [0, k) in the
    lists or the sample are taken by no pattern.
    """
    return _predict(concepts, _allowed(concepts, mu.lists), sample, x, ell)


def _predict(concepts: HypothesisClass, allowed: Sequence[int],
             sample: Sequence[LabeledPair], x: int, ell: int) -> frozenset[int]:
    """``predict_one_inclusion`` with ``allowed`` from ``_allowed`` of the
    provider lists."""
    required: dict[int, int] = {}
    conflict: Optional[int] = None
    for x_i, y_i in sample:
        if required.setdefault(x_i, y_i) != y_i and conflict is None:
            conflict = x_i
    listed = allowed[x]
    for u in required:
        listed &= allowed[u]
    if not listed:
        raise RealizabilityError("no pattern is consistent with the class and the list")
    if conflict is not None:
        raise RealizabilityError(f"contradictory labels for instance {conflict}")
    labeled = listed
    for u, y in required.items():
        labeled &= _label_mask(concepts, u, y)
    if not labeled:
        raise RealizabilityError("no pattern is consistent with the sample labels")
    if x in required:
        return frozenset((required[x],))
    # the label-consistent edge takes these values; an edge of at most ell
    # vertices selects all of them in every orientation
    free = frozenset(y for y, mask in enumerate(concepts.label_masks[x]) if mask & labeled)
    if len(free) <= ell:
        return free
    k, columns = concepts.k, concepts.columns
    distinct = sorted([*required, x])
    width = len(distinct)
    xs = distinct.index(x)
    # a restricted pattern is its big-endian base-k code over ``distinct``,
    # so integer order is the tuples' lexicographic order
    codes = columns[distinct[0]]
    for u in distinct[1:]:
        codes = [code * k + v for code, v in zip(codes, columns[u])]
    if listed != (1 << len(codes)) - 1:
        codes = compress(codes, map(int, reversed(f"{listed:0{len(codes)}b}")))
    verts = sorted(set(codes))
    star_key = 0
    for u in distinct:
        if u != x:
            star_key = star_key * k + required[u]
    # repeated instances are left out: every edge in their direction is a
    # singleton.  Edges of at most ell vertices carry no demand, so only the
    # larger ones, and the star edge, go to the flow.
    mult = Counter(x_i for x_i, _ in sample)
    edges: list[tuple[int, ...]] = []
    star_edge: Optional[int] = None
    for t, u in enumerate(distinct):
        if mult[u] > 1:
            continue
        # the line key is the code with digit t deleted
        low = k ** (width - 1 - t)
        high = low * k
        groups: dict[int, list[int]] = {}
        for j, v in enumerate(verts):
            groups.setdefault(v // high * low + v % low, []).append(j)
        for key in sorted(groups):
            members = groups[key]
            if t == xs and key == star_key:
                star_edge = len(edges)
            elif len(members) <= ell:
                continue
            edges.append(tuple(members))
    if star_edge is None:
        raise AssertionError("the test direction must hold the label-consistent edge")
    selection, _ = min_max_orientation_indexed(len(verts), edges, ell)
    low = k ** (width - 1 - xs)
    return frozenset(verts[j] // low % k for j in selection[star_edge])


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

class ExperimentConfig(_Frozen):
    __match_args__ = ("epsilon", "delta", "m", "trials", "seed", "ell", "test_size")

    def __init__(self, epsilon: float = 0.1, delta: float = 0.05, m: int = 100,
                 trials: int = 1000, seed: int = 0, ell: int = 1, test_size: int = 1000):
        self._set(epsilon, delta, m, trials, seed, ell, test_size)
        if not (0 < self.epsilon < 1) or not (0 < self.delta < 1):
            raise ValueError("epsilon and delta must lie in (0,1)")
        if self.m < 1 or self.trials < 1 or self.ell < 1:
            raise ValueError("need m >= 1, trials >= 1, ell >= 1")


class LooReport(NamedTuple):
    """Leave-one-out outcome against the orientation-degree bound
    40 * ell * d * max(log ell', 1) / m.  ``ell_prime_theory`` is the width a
    generic first-stage list learner would promise at this sample size; it is
    informational only."""

    empirical_error: Fraction
    bound: float
    d_used: int
    ell_prime_used: int
    ell_prime_theory: float
    trials: int
    m: int
    ell: int
    forced_trials: int
    per_trial: Optional[tuple[bool, ...]] = None


def _loo_trial(task: ConceptTask, cfg: ExperimentConfig,
               allowed: Optional[tuple[int, ...]], t: int) -> tuple[bool, bool]:
    """(whether trial t misses, whether its test instance was sampled, which
    forces the prediction).  The m+1 points, the last one the test, come from
    ``_draw_pairs`` on the trial's own counter-derived stream, so how trials
    are spread across workers cannot change it.  ``allowed`` is ``_allowed``
    of the fixed provider lists, or None for the sample-support lists of the
    trial's own training sample."""
    train = _draw_pairs(task, cfg.m + 1, random.Random(_trial_seed(cfg.seed, t)))
    x, y = train.pop()
    concepts = task.concepts
    if allowed is None:
        allowed = _allowed(concepts, _sample_support(concepts, train))
    # every label is the target's, so the pair was drawn exactly when x was
    return y not in _predict(concepts, allowed, train, x, cfg.ell), (x, y) in train


def loo_experiment(task: ConceptTask, cfg: ExperimentConfig,
                   provider_kind: str = "full-alphabet",
                   keep_trials: bool = False, jobs: int = 1) -> LooReport:
    """Repeatedly draw m+1 points, train on the first m, and test whether the
    held-out label lands in the predicted list.  ``jobs`` fans trials out
    across processes; the aggregate is identical for any fan-out.  Both
    providers' lists are at most k wide, so ell' is k.  The class's layout,
    the fixed provider's masks and the cumulative weights are built once,
    before the trials; worker processes receive them pickled in the task."""
    concepts = task.concepts
    # built here once, not in each trial or worker
    concepts.label_masks, task.cum_weights
    allowed = (None if provider_kind == "sample-support"
               else _allowed(concepts, list_provider(provider_kind, task).lists))
    d_used = ds_dimension(concepts, cfg.ell).value
    bound = 40.0 * cfg.ell * d_used * _llog(task.k) / cfg.m
    trial = partial(_loo_trial, task, cfg, allowed)
    if jobs > 1:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            outcomes = pool.map(trial, range(cfg.trials))
    else:
        outcomes = list(map(trial, range(cfg.trials)))
    misses = tuple(miss for miss, _ in outcomes)
    return LooReport(empirical_error=Fraction(sum(misses), cfg.trials), bound=bound,
                     d_used=d_used, ell_prime_used=task.k,
                     ell_prime_theory=theoretical_ell_prime(cfg.ell, d_used, cfg.m),
                     trials=cfg.trials, m=cfg.m, ell=cfg.ell,
                     forced_trials=sum(forced for _, forced in outcomes),
                     per_trial=misses if keep_trials else None)


def pac_sample_plan(task: ConceptTask, cfg: ExperimentConfig,
                    ell_prime: int) -> tuple[int, int, int]:
    """(number of chunks, chunk size, validation size) for the amplified
    learner: p = ceil(log(2/delta)) chunks of 160*ell*d*log(ell')/eps points
    each, and a validation split of 32*log(2/delta)/eps + log(p+1)."""
    d = ds_dimension(task.concepts, cfg.ell).value
    p = max(math.ceil(math.log(2.0 / cfg.delta)), 1)
    chunk = max(math.ceil(CHUNK_FACTOR * cfg.ell * max(d, 1) * _llog(ell_prime)
                          / cfg.epsilon), 1)
    val = math.ceil(VAL_FACTOR * math.log(2.0 / cfg.delta) / cfg.epsilon
                    + math.log(p + 1))
    return p, chunk, val


class PacReport(NamedTuple):
    predictor: ListPredictor
    test_error: float
    population_error: Fraction
    validation_errors: tuple[Fraction, ...]
    chosen: int
    chunks: int
    chunk_size: int
    val_size: int
    filtered_size: int


def pac_learn(task: ConceptTask, cfg: ExperimentConfig,
              provider_kind: str = "full-alphabet") -> PacReport:
    """Amplified list PAC learner.

    Draw cfg.m points, keep those whose labels the provider list retains,
    partition into chunks plus validation, train a one-inclusion predictor
    per chunk, and return the one with the smallest validation error (ties
    break toward the earlier chunk).  Reports the held-out error on fresh
    draws alongside the exact population error.
    """
    rng = random.Random(_trial_seed(cfg.seed, 0))
    sample = _draw_pairs(task, cfg.m, rng)
    mu = list_provider(provider_kind, task, sample)
    filtered = [(x, y) for x, y in sample if y in mu(x)]
    p, chunk, val = pac_sample_plan(task, cfg, mu.ell)
    needed = p * chunk + val
    if len(filtered) < needed:
        raise ValueError(f"sample too small to partition: have {len(filtered)} "
                         f"filtered points, need {needed} ({p} chunks of {chunk} "
                         f"plus {val} validation)")
    allowed = _allowed(task.concepts, mu.lists)
    candidates: list[ListPredictor] = []
    for i in range(p):
        part = filtered[i * chunk:(i + 1) * chunk]
        lists = tuple(_predict(task.concepts, allowed, part, x, cfg.ell)
                      for x in range(task.n))
        candidates.append(ListPredictor(ell=cfg.ell, lists=lists))
    val_set = filtered[p * chunk:]
    val_errors = tuple(
        Fraction(sum(y not in cand(x) for x, y in val_set), len(val_set))
        for cand in candidates)
    chosen = min(range(p), key=lambda i: (val_errors[i], i))
    winner = candidates[chosen]
    test_rng = random.Random(_trial_seed(cfg.seed, 1))
    fresh = _draw_pairs(task, cfg.test_size, test_rng)
    test_error = sum(y not in winner(x) for x, y in fresh) / cfg.test_size
    return PacReport(predictor=winner, test_error=test_error,
                     population_error=population_error(task, winner),
                     validation_errors=val_errors, chosen=chosen, chunks=p,
                     chunk_size=chunk, val_size=len(val_set),
                     filtered_size=len(filtered))


# ---------------------------------------------------------------------------
# Uniform convergence
# ---------------------------------------------------------------------------

class UcReport(NamedTuple):
    sup_deviation: float
    g_dim: int
    trials: int
    m: int


def uc_experiment(c: ListClass, task: ConceptTask, cfg: ExperimentConfig) -> UcReport:
    """Mean (over trials) of the largest gap between empirical and population
    loss across the members of ``c`` at sample size m, reported next to the
    graph dimension for qualitative rate comparison.  No inequality is
    asserted; the rate constants are asymptotic."""
    if c.n != task.n:
        raise ValueError(f"list class is over {c.n} instances, task over {task.n}")
    members = c.sorted_members()
    pop = [float(population_error(task, ListPredictor(c.ell, mem))) for mem in members]
    total = 0.0
    for t in range(cfg.trials):
        rng = random.Random(_trial_seed(cfg.seed, t))
        pairs = _draw_pairs(task, cfg.m, rng)
        worst = 0.0
        for mem, lp in zip(members, pop):
            emp = sum(y not in mem[x] for x, y in pairs) / cfg.m
            gap = abs(emp - lp)
            if gap > worst:
                worst = gap
        total += worst
    g = graph_dimension(c).value
    return UcReport(sup_deviation=total / cfg.trials, g_dim=g,
                    trials=cfg.trials, m=cfg.m)
