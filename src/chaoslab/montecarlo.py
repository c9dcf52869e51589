"""Large-n stochastic simulation and unbiased chaos-criterion estimators.

All bundled dynamics depend on particle values only, so simulation runs at
the occupancy level: O(k) work per collision event, which keeps n in the
millions feasible.  `simulate_kac_stack` is the one event loop of the Kac
chain.  It runs an (R, k) stack of replicas in lockstep, one set of numpy
calls per collision step for all of them: the `kac` subcommand and
theorem-probe's columns run their replicas through the Kac kernel's
batched sampler, chunk by chunk in `replica_counts`, the one replica
loop.  `simulate_kac` is its one-row case.

The stack is exact replica by replica, not only in law: each row makes the
draws a lone run makes, on its own Generator and in the same order, and
applies them with integer lookups and exact float compares, so its end
counts and its Generator's final state do not depend on the stack it ran
in.  Memory is bounded whatever n, t and R are: at most STACK_WIDTH rows
step together (a wider stack runs in groups), holding one block of at most
EVENT_BLOCK events' draws per row, 24 or 32 bytes per event (2 MB at most),
and n is capped at MAX_N so that the row offsets STACK_WIDTH * n fit int64.
Replicas draw their RNG streams from a splittable (master seed, replica
index) scheme, so reductions are reproducible and order-independent.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Distribution, as_int, as_rng
from .errors import InvalidArgumentError
from .meanfield import CompiledRule, PairRule, check_rate_and_time, default_rule

# Most rows that one lockstep loop advances together; a wider stack runs in groups.
STACK_WIDTH = 256
# Most collision events per row whose draws are made in one set of vector calls.
EVENT_BLOCK = 2**8
# Most particles: the lockstep loop offsets row r's particle ranks by r * n in int64.
MAX_N = (2**63 - 1) // STACK_WIDTH
KAC_CHUNK = 1024  # most replicas per stack call: their Generators take about 1 KB each


def check_particle_count(n: int) -> None:
    if n > MAX_N:
        raise InvalidArgumentError(f"n={n} is more particles than MAX_N={MAX_N}, the most "
                                   f"whose lockstep offsets fit int64")


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


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Private RNG stream for one replica of a seeded ensemble."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(replica,)))


def simulate_kac_stack(
    starts,
    lam: float,
    t: float,
    rngs,
    pair_rule: Optional[PairRule] = None,
) -> np.ndarray:
    """Run the Kac collision chain for time t from each row of an (R, k)
    stack of occupancies that share one n, row r on the Generator rngs[r];
    returns the (R, k) int64 end counts.

    A row's event count is Poisson(t * lam * (n-1) / 2), its first draw; each
    event picks an unordered pair of distinct particles uniformly (particle
    i of n, then particle j of the other n - 1) and applies the pair rule
    (default SumConservingRule(k)) at a uniform draw r.  A row draws (i, j, r)
    in blocks of at most EVENT_BLOCK events, three vector calls per block.
    The rows are sorted by event count, so that the rows still running at
    each step are a prefix, and advanced in groups of at most STACK_WIDTH
    rows by `_lockstep`.
    """
    check_rate_and_time(lam, t)
    counts = np.asarray(starts)
    if counts.ndim != 2 or counts.dtype.kind not in "iu" or len(counts) != len(rngs):
        raise InvalidArgumentError("need an (R, k) integer stack of start counts and one "
                                   "Generator per row")
    sizes = set(map(sum, counts.tolist()))
    if len(sizes) != 1:
        raise InvalidArgumentError(f"the rows of a stack must share one n, got {sorted(sizes)}")
    n = sizes.pop()
    if n < 2:
        raise InvalidArgumentError("collisions need at least two particles")
    check_particle_count(n)
    if counts.min() < 0:
        raise InvalidArgumentError("negative particle count")
    k = counts.shape[1]
    table = (pair_rule or default_rule(k)).compiled(k)
    events = [int(rng.poisson(t * lam * (n - 1) / 2.0)) for rng in rngs]
    order = sorted(range(len(events)), key=events.__getitem__, reverse=True)
    out = counts.astype(np.int64)
    for first in range(0, len(order), STACK_WIDTH):
        rows = order[first:first + STACK_WIDTH]
        out[rows] = _lockstep(out[rows], [events[r] for r in rows], [rngs[r] for r in rows],
                              n, table)
    return out


def _lockstep(counts: np.ndarray, events: list, rngs: list, n: int,
              table: CompiledRule) -> np.ndarray:
    """The end counts of a (w, k) stack whose rows run events[r] events each,
    in descending order, on rngs[r].

    The state is the running sums of each row's counts, row r offset by
    r * n, in one flat nondecreasing array.  With the particles of a row
    ranked by value, one `searchsorted(..., 'right')` of r * n + i finds the
    value of the particle of rank i, offset by r * k.  Both lookups of an
    event read the state before it: once particle i is taken out, rank j of
    the other n - 1 is rank j + (j >= i) of the whole row, as particles of
    one value cannot be told apart.  The outcome of the pair (u, w) at draw
    r is one `searchsorted` of u*k + w + 1j*r in the compiled keys (complex
    numbers compare by real, then imaginary part), and that key's row of
    moves is the event's whole change to the state.
    """
    w, k = counts.shape
    # int32 where the offsets fit it: that halves the ranks' memory, and
    # searchsorted runs faster on it.
    dtype = np.int32 if w * n < 2**31 else np.int64
    offsets = n * np.arange(w, dtype=dtype)
    cum = np.cumsum(counts, axis=1, dtype=dtype) + offsets[:, None]
    flat = cum.reshape(-1)
    moves = table.moves.astype(dtype)
    running = [-e for e in events]  # bisect_left(running, -s): rows with more than s events
    # One block of draws per row, refilled for each block; the part of a
    # column past its row's last event is stale, and no step reads it.
    size = min(events[0], EVENT_BLOCK)
    ranks = np.zeros((size, 2, w), dtype=dtype)
    keys = np.zeros((size, w), dtype=complex)
    keys.real = -k * (k + 1) * np.arange(w)  # takes r * k(k+1) out of pos_u * k + pos_w
    for start in range(0, events[0], EVENT_BLOCK):
        live = bisect_left(running, -start)
        block = min(events[0] - start, EVENT_BLOCK)
        for r, rng in enumerate(rngs[:live]):
            m = min(events[r] - start, EVENT_BLOCK)
            ranks[:m, 0, r] = rng.integers(n, size=m) + offsets[r]
            ranks[:m, 1, r] = rng.integers(n - 1, size=m) + offsets[r]
            keys.imag[:m, r] = rng.random(m)
        firsts, seconds = ranks[:block, 0, :live], ranks[:block, 1, :live]
        seconds += seconds >= firsts
        # Array methods, not the numpy functions, whose wrappers add a few
        # microseconds per call to a step of a few tens.
        for step in range(block):
            a = bisect_left(running, -(start + step))
            pos = flat[:a * k].searchsorted(ranks[step, :, :a], "right")
            outcome = table.keys.searchsorted(pos[0] * k + pos[1] + keys[step, :a], "right")
            cum[:a] += moves.take(outcome, axis=0)
    return np.diff(cum, axis=1, prepend=offsets[:, None])


def simulate_kac(
    start: ParticleState,
    lam: float,
    t: float,
    seed,
    pair_rule: Optional[PairRule] = None,
) -> ParticleState:
    """Run the Kac collision chain for time t from one occupancy state: the
    one-row case of `simulate_kac_stack`, on the Generator `seed` or one
    seeded by it."""
    end = simulate_kac_stack([start.counts], lam, t, [as_rng(seed)], pair_rule)
    return ParticleState(tuple(end[0].tolist()))


def iid_state(p: Distribution, n: int, rng) -> ParticleState:
    """Occupancy of n i.i.d. draws from p; an n past MAX_N is
    InvalidArgumentError."""
    check_particle_count(n)
    return ParticleState(tuple(int(x) for x in rng.multinomial(n, p.p)))


def pair_marginal_ustat(counts) -> np.ndarray:
    """Law of two distinct uniformly chosen particles, from the occupancy,
    row by row of an (R, k) stack of counts: the (R, k, k) stack of

    P(u, w) = m_u m_w / (n (n-1)) off the diagonal and
    m_u (m_u - 1) / (n (n-1)) on it; an unbiased estimate of the
    two-particle marginal of the underlying symmetric law.
    """
    m = np.asarray(counts, dtype=float)
    n = m.sum(axis=1)[:, None, None]
    if not (n >= 2).all():
        raise InvalidArgumentError("pair marginal needs at least two particles")
    diagonal = np.arange(m.shape[1])
    mat = m[:, :, None] * m[:, None, :]
    mat[:, diagonal, diagonal] -= m
    return mat / (n * (n - 1))


def replica_counts(sampler: Callable[[list], np.ndarray], replicas: int, seed: int):
    """The sampler's end counts for replicas 0, ..., replicas - 1, in order:
    one (len, k) stack per call of `sampler(rngs)` on the Generators
    replica_rng(seed, r) of at most KAC_CHUNK replicas, which bounds the
    Generators held at once."""
    for first in range(0, replicas, KAC_CHUNK):
        last = min(first + KAC_CHUNK, replicas)
        yield sampler([replica_rng(seed, r) for r in range(first, last)])


def estimate_pair_marginal(
    sampler: Callable[[list], np.ndarray],
    replicas: int,
    seed: int,
) -> EstimatorResult:
    """Replica average of the two-particle U-statistic with standard errors,
    over the end counts of `replica_counts(sampler, replicas, seed)`."""
    if replicas < 2:
        raise InvalidArgumentError("need at least two replicas")
    stack = pair_marginal_ustat(np.concatenate(list(replica_counts(sampler, replicas, seed))))
    mean = stack.mean(axis=0)
    stderr = stack.std(axis=0, ddof=1) / math.sqrt(replicas)
    return EstimatorResult(mean, stderr)
