"""Large-n stochastic simulation and unbiased chaos-criterion estimators.

All bundled dynamics depend on particle values only, so simulation runs at
the occupancy level: O(k) work per collision event, which keeps n in the
millions feasible.  `simulate_kac` is the one simulator of the Kac chain:
the `kac` subcommand runs it per replica, and theorem-probe, through the Kac
kernel's sampler, per replica of each column.  Its event loop is inline Python:
it walks the counts to find each colliding particle's value and looks the
outcome up in the pair rule's compiled table (`PairRule.compiled`), one
bisection per event.  Replicas draw their RNG streams from a splittable
(master seed, replica index) scheme, so reductions are reproducible and
order-independent.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Distribution, as_int, as_rng
from .errors import InvalidArgumentError
from .meanfield import PairRule, check_rate_and_time, default_rule

# Most collision events whose draws simulate_kac makes in one set of vector calls.
EVENT_BLOCK = 2**16


@dataclass(frozen=True)
class ParticleState:
    """An n-particle configuration stored up to exchangeability."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(as_int(x) for x in self.counts)
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


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Private RNG stream for one replica of a seeded ensemble."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(replica,)))


def simulate_kac(
    start: ParticleState,
    lam: float,
    t: float,
    seed,
    pair_rule: Optional[PairRule] = None,
) -> ParticleState:
    """Run the Kac collision chain for time t from an occupancy state.

    Event count is Poisson(t * lam * (n-1) / 2); each event picks an
    unordered pair of distinct particles uniformly (particle i of n, then
    particle j of the other n - 1, each found by walking the counts value
    by value) and applies the pair rule at a uniform draw r, read from the
    rule's compiled table (default SumConservingRule(k)).  The draws are
    made in blocks of at most EVENT_BLOCK events, three vector calls per
    block, so memory stays bounded for any n * t.
    """
    n = start.n
    if n < 2:
        raise InvalidArgumentError("collisions need at least two particles")
    check_rate_and_time(lam, t)
    rng = as_rng(seed)
    k = len(start.counts)
    draws = (pair_rule or default_rule(k)).compiled(k).draws
    counts = list(start.counts)
    events = int(rng.poisson(t * lam * (n - 1) / 2.0))
    while events:
        block = min(events, EVENT_BLOCK)
        events -= block
        firsts = rng.integers(n, size=block).tolist()
        seconds = rng.integers(n - 1, size=block).tolist()
        for i, j, r in zip(firsts, seconds, rng.random(block).tolist()):
            u = 0
            i -= counts[0]
            while i >= 0:
                u += 1
                i -= counts[u]
            counts[u] -= 1
            w = 0
            j -= counts[0]
            while j >= 0:
                w += 1
                j -= counts[w]
            counts[w] -= 1
            cum, outs = draws[u][w]
            a, b = outs[bisect_right(cum, r)]
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
