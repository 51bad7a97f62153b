"""Monte Carlo experiments for probabilistic digit retention.

Each trial is a branching process: every surviving interval at level k
independently spawns its two candidate children (digit positions 1 and
3 of a base-4 split, or biased variants) with the configured retention
probabilities.  Only survivor counts matter for the dimension estimate
log N_depth / (depth * log base), so levels advance by binomial draws.

Trials derive their generator state from (seed, trial index), making
runs reproducible and order-independent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import InputError, SubcriticalRetentionWarning
from .limits import MAX_BINOMIAL_COUNT, MAX_TRIAL_LEVELS, as_integer, check_work


def expected_dimension(p: float) -> float:
    """Predicted dimension log(2p)/log 4 for uniform retention probability p.

    Subcritical probabilities (2p <= 1) warn: the predicted value is not
    positive and the process dies out almost surely.
    """
    if not (0 < p <= 1):
        raise InputError("retention probability must be in (0, 1], got {p}", p=p)
    value = predicted_dimension((p, p), 4)
    if 2 * p <= 1:
        warnings.warn(SubcriticalRetentionWarning(value))
    return value


def predicted_dimension(probs: tuple[float, float], base: int) -> float | None:
    """Mean-offspring prediction log(p1 + p3)/log base; None when degenerate."""
    total = probs[0] + probs[1]
    if total == 0:
        return None
    return math.log2(total) / math.log2(base)


@dataclass(frozen=True)
class RetentionConfig:
    probs: tuple[float, float]  # per-position retention probabilities
    depth: int
    trials: int
    seed: int
    base: int = 4

    def __post_init__(self):
        for name in ("depth", "trials", "seed", "base"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if any(not (0 <= p <= 1) for p in self.probs):
            raise InputError("probabilities must lie in [0, 1], got {probs}", probs=self.probs)
        if self.depth < 1:
            raise InputError("depth must be >= 1, got {depth}", depth=self.depth)
        if self.trials < 1:
            raise InputError("trials must be >= 1, got {trials}", trials=self.trials)
        if self.base < 2:
            raise InputError("base must be >= 2, got {base}", base=self.base)
        if not (0 <= self.seed < 2**64):
            raise InputError("seed must be a 64-bit unsigned integer")

    @classmethod
    def uniform(cls, p: float, depth: int, trials: int, seed: int, base: int = 4):
        return cls(probs=(p, p), depth=depth, trials=trials, seed=seed, base=base)


@dataclass(frozen=True)
class TrialOutcome:
    survivor_counts: tuple[int, ...]  # N_0..N_depth
    extinct: bool
    dim_estimate: float | None  # None when extinct


@dataclass(frozen=True)
class TrialAggregate:
    extinction_rate: float
    mean_dim: float | None
    std_dim: float | None
    predicted_dim: float | None


@dataclass(frozen=True)
class TrialRun:
    config: RetentionConfig
    outcomes: tuple[TrialOutcome, ...]
    aggregate: TrialAggregate


def _single_trial(config: RetentionConfig, index: int) -> TrialOutcome:
    import numpy as np  # imported on first use: no other command needs numpy

    rng = np.random.default_rng((config.seed, index))
    p1, p3 = config.probs
    counts = [1]
    n = 1
    for level in range(config.depth):
        check_work(
            n, MAX_BINOMIAL_COUNT, "trial {index} has {amount} survivors at level {level}",
            index=index, level=level,
        )
        n = int(rng.binomial(n, p1)) + int(rng.binomial(n, p3))
        counts.append(n)
    extinct = counts[-1] == 0
    dim = None
    if not extinct:
        # log2 keeps the p = 1 case exact: log2(2^d) / (d * log2(4)) == 0.5
        dim = math.log2(counts[-1]) / (config.depth * math.log2(config.base))
    return TrialOutcome(
        survivor_counts=tuple(counts), extinct=extinct, dim_estimate=dim
    )


def run_trials(config: RetentionConfig) -> TrialRun:
    """Run the configured trials and aggregate survival-conditioned estimates.

    Raises ``CapacityError`` when ``trials * depth`` exceeds ``MAX_TRIAL_LEVELS``,
    or when a trial's survivor count outgrows ``MAX_BINOMIAL_COUNT``.
    """
    check_work(
        config.trials * config.depth, MAX_TRIAL_LEVELS, "{trials} trials of depth {depth} are {amount} levels",
        trials=config.trials, depth=config.depth,
    )
    import numpy as np

    outcomes = tuple(_single_trial(config, i) for i in range(config.trials))
    dims = [o.dim_estimate for o in outcomes if not o.extinct]
    extinct_count = sum(1 for o in outcomes if o.extinct)
    if dims:
        mean_dim = float(np.mean(dims))
        std_dim = float(np.std(dims))
    else:
        mean_dim = None
        std_dim = None
    aggregate = TrialAggregate(
        extinction_rate=extinct_count / config.trials,
        mean_dim=mean_dim,
        std_dim=std_dim,
        predicted_dim=predicted_dimension(config.probs, config.base),
    )
    return TrialRun(config=config, outcomes=outcomes, aggregate=aggregate)
