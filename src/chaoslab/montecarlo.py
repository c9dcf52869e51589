"""Large-n stochastic simulation and unbiased chaos-criterion estimators.

All bundled dynamics depend on particle values only, so simulation runs at
the occupancy level: O(k) work per collision event, which keeps n in the
millions feasible.  Replicas draw their RNG streams from a splittable
(master seed, replica index) scheme, so reductions are reproducible and
order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Distribution, StateSpace
from .errors import InvalidArgumentError
from .meanfield import PairRule, SumConservingRule, check_rate_and_time


@dataclass(frozen=True)
class ParticleState:
    """An n-particle configuration stored up to exchangeability."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(int(x) for x in self.counts)
        if any(c < 0 for c in counts):
            raise InvalidArgumentError("negative particle count")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return sum(self.counts)


@dataclass
class EstimatorResult:
    estimate: np.ndarray
    std_error: np.ndarray
    replicas: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "estimate": np.asarray(self.estimate).tolist(),
            "std_error": np.asarray(self.std_error).tolist(),
            "replicas": self.replicas,
            "seed": self.seed,
        }


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Private RNG stream for one replica of a seeded ensemble."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(replica,)))


def _as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _draw_value(counts, total, rng) -> int:
    r = int(rng.integers(total))
    for v, c in enumerate(counts):
        r -= c
        if r < 0:
            return v
    raise AssertionError("count bookkeeping out of sync")


def simulate_kac(
    start: ParticleState,
    lam: float,
    t: float,
    seed,
    pair_rule: Optional[PairRule] = None,
) -> ParticleState:
    """Run the Kac collision chain for time t from an occupancy state.

    Event count is Poisson(t * lam * (n-1) / 2); each event draws an
    unordered pair of distinct particles uniformly (two draws without
    replacement from the counts) and applies the pair rule.
    """
    n = start.n
    if n < 2:
        raise InvalidArgumentError("collisions need at least two particles")
    check_rate_and_time(lam, t)
    rng = _as_rng(seed)
    rule = pair_rule or SumConservingRule(len(start.counts))
    counts = list(start.counts)
    for _ in range(rng.poisson(t * lam * (n - 1) / 2.0)):
        u = _draw_value(counts, n, rng)
        counts[u] -= 1
        w = _draw_value(counts, n - 1, rng)
        counts[w] -= 1
        a, b = rule.sample(u, w, rng)
        counts[a] += 1
        counts[b] += 1
    return ParticleState(tuple(counts))


def iid_state(p: Distribution, n: int, rng) -> ParticleState:
    """Occupancy of n i.i.d. draws from p."""
    return ParticleState(tuple(int(x) for x in rng.multinomial(n, p.p)))


def pair_marginal_ustat(state: ParticleState) -> np.ndarray:
    """Law of two distinct uniformly chosen particles, from the occupancy.

    P(u, w) = m_u m_w / (n (n-1)) off the diagonal and
    m_u (m_u - 1) / (n (n-1)) on it; an unbiased estimate of the
    two-particle marginal of the underlying symmetric law.
    """
    n = state.n
    if n < 2:
        raise InvalidArgumentError("pair marginal needs at least two particles")
    m = np.array(state.counts, dtype=float)
    mat = np.outer(m, m) - np.diag(m)
    return mat / (n * (n - 1))


def estimate_pair_marginal(
    sampler: Callable[[np.random.Generator], ParticleState],
    replicas: int,
    seed: int,
) -> EstimatorResult:
    """Replica average of the two-particle U-statistic with standard errors."""
    if replicas < 2:
        raise InvalidArgumentError("need at least two replicas")
    draws = []
    for r in range(replicas):
        draws.append(pair_marginal_ustat(sampler(replica_rng(seed, r))))
    stack = np.stack(draws)
    mean = stack.mean(axis=0)
    stderr = stack.std(axis=0, ddof=1) / math.sqrt(replicas)
    return EstimatorResult(mean, stderr, replicas, seed)


def estimate_mean_empirical_tv(
    sampler: Callable[[np.random.Generator], ParticleState],
    p: Distribution,
    replicas: int,
    seed: int,
) -> EstimatorResult:
    """Replica average of tv(empirical measure, p) with a standard error."""
    if replicas < 2:
        raise InvalidArgumentError("need at least two replicas")
    vals = []
    for r in range(replicas):
        state = sampler(replica_rng(seed, r))
        n = state.n
        vals.append(0.5 * math.fsum(abs(c / n - pi) for c, pi in zip(state.counts, p.p)))
    arr = np.array(vals)
    mean = arr.mean()
    stderr = arr.std(ddof=1) / math.sqrt(replicas)
    return EstimatorResult(np.float64(mean), np.float64(stderr), replicas, seed)
