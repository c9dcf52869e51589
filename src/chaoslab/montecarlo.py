"""Large-n stochastic simulation and unbiased chaos-criterion estimators.

All bundled dynamics depend on particle values only, so simulation runs at
the occupancy level.  `simulate_kac_stack` is the one loop of the Kac
chain.  Its occupancy is itself a continuous-time Markov chain, whose
jumps are the class moves of the compiled pair rule (`CompiledRule`): the
loop draws only the collisions that change the occupancy, an exponential
wait and a pick among the moves per jump (Gillespie's direct method), so
its work is per jump, not per collision, whatever n is: one product per
nonzero coefficient of the move table and one sum per move.  It runs an
(R, k) stack of replicas in lockstep, held state-major as k rows of
counts, with one set of numpy calls on those rows per jump step for all
replicas: the `kac` subcommand and theorem-probe's columns run their
replicas through the Kac kernel's batched sampler, chunk by chunk in
`replica_counts`, the one replica loop.  `simulate_kac` is its one-row
case.

The stack is exact replica by replica, not only in law: each row makes the
draws a lone run makes, on its own Generator and in the same order, and
computes its rates elementwise, adding their terms one by one in a fixed
order, so its end counts and its Generator's final state do not depend on
the stack it ran in.  Memory is bounded whatever n, t and R are: at most
STACK_WIDTH rows step together (a wider stack runs in groups), each holding
one block of JUMP_BLOCK waits and JUMP_BLOCK picks, 16 bytes per jump
(128 KB at most), and its k counts and D move rates, 8 (k + D) bytes.
Replicas draw their RNG streams from a splittable (master seed, replica
index) scheme, so reductions are reproducible and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Distribution, as_int, as_rng
from .errors import InvalidArgumentError
from .meanfield import CompiledRule, PairRule, check_rate_and_time, default_rule

# Most rows that one lockstep loop advances together; a wider stack runs in groups.
STACK_WIDTH = 256
# Jumps per block of each row's draws: a row refills its block when it has spent it.
JUMP_BLOCK = 32
# Most particles: counts, and their sum n, are int64.
MAX_N = 2**63 - 1
KAC_CHUNK = 1024  # most replicas per stack call: their Generators take about 1 KB each
# Most jump steps per stack call, bounded before any draw: about 6 s at
# 30 us a step for one 3-state row (17 s at 85 us for STACK_WIDTH; 2-core VM).
MAX_JUMP_STEPS = 200_000


def check_particle_count(n: int) -> None:
    if n > MAX_N:
        raise InvalidArgumentError(f"n={n} is more particles than MAX_N={MAX_N}, the most "
                                   f"whose counts fit int64")


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

    Each ordered pair of distinct particles collides at rate lam / (2n) and
    is resampled by the pair rule (default SumConservingRule(k)), so the
    class moves by change d at rate lam / (2n) times its `move_weights`.
    A row is advanced jump by jump by `_jumps`, in groups of at most
    STACK_WIDTH rows; collisions that leave the class as it was are not
    drawn.  A row's expected jumps are at most lam t (n - 1) / 2 times
    c_max = max over uw of sum_d coeffs[d, uw]; a stack whose groups may
    step more than MAX_JUMP_STEPS times is InvalidArgumentError.
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
    # The chain's time in units of 2n / lam, the mean wait of one ordered pair.
    horizon = t * lam / (2.0 * n)
    if not math.isfinite(horizon):
        raise InvalidArgumentError(f"t * lam = {t} * {lam} overflows a float")
    table = (pair_rule or default_rule(counts.shape[1])).compiled(counts.shape[1])
    groups = -(-len(counts) // STACK_WIDTH)
    steps = t * lam * (n - 1) / 2 * table.coeffs.sum(axis=0).max() * groups
    if steps > MAX_JUMP_STEPS:
        raise InvalidArgumentError(f"n = {n}, t * lam = {t * lam:g} and {len(counts)} rows "
                                   f"may take {steps:.3g} jump steps in expectation, past "
                                   f"the budget of {MAX_JUMP_STEPS}")
    out = counts.astype(np.int64)
    if horizon > 0 and len(table.changes):  # else no row can jump, and none draws
        for first in range(0, len(out), STACK_WIDTH):
            rows = slice(first, first + STACK_WIDTH)
            out[rows] = _jumps(out[rows].T, rngs[rows], horizon, table).T
    return out


def _jumps(counts: np.ndarray, rngs: list, horizon: float, table: CompiledRule) -> np.ndarray:
    """The end counts of a state-major (k, w) stack whose column r, a
    replica, runs on rngs[r] until its clock passes `horizon`, in units of
    2n / lam.

    At class m a replica's cumulative weights are S_d = sum of
    move_weights(m) over the moves up to d, added in order along the (D, w)
    weights, and q = S_D its total.  A replica with q = 0 is absorbed and
    stops without a draw.  Otherwise its clock advances by E / q, E its
    next Exp(1) wait; once the clock is not below the horizon it stops, and
    else it moves by the first change d with S_d > U q, U its next uniform
    pick.  A replica draws its waits and picks in blocks of JUMP_BLOCK,
    `standard_exponential` then `random`, the first when it first needs a
    wait and each next one when it has spent the last.  A stopped
    replica's counts are written out and its column dropped from every
    live array.  The counts stay int64; move_weights reads them as floats
    at each step, so counts past 2^53 round as they would alone.
    """
    out = np.empty_like(counts)
    rows, m = np.arange(counts.shape[1]), counts.copy()
    clock = np.zeros(len(rows))
    draws = np.zeros((len(rows), 2, JUMP_BLOCK))
    moves = table.changes.T
    cum = np.add.accumulate(table.move_weights(m), axis=0)
    step = 0
    while len(rows):
        q = cum[-1]
        j = step % JUMP_BLOCK
        if j == 0:
            for i in np.flatnonzero(q).tolist():
                draws[i, 0] = rngs[rows[i]].standard_exponential(JUMP_BLOCK)
                draws[i, 1] = rngs[rows[i]].random(JUMP_BLOCK)
        # An absorbed replica waits forever.
        clock += np.divide(draws[:, 0, j], q, out=np.full(len(q), np.inf), where=q > 0)
        live = clock < horizon
        if not live.all():
            out[:, rows[~live]] = m[:, ~live]
            rows, clock, draws, q = (a[live] for a in (rows, clock, draws, q))
            m, cum = m[:, live], cum[:, live]
        # U < 1 keeps U q below q, so the pick reads the first D - 1 sums only.
        pick = (cum[:-1] <= draws[:, 1, j] * q).sum(axis=0)
        m += moves.take(pick, axis=1)
        cum = np.add.accumulate(table.move_weights(m), axis=0)
        step += 1
    return out


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


def iid_state(p: Distribution, n: int, rng) -> np.ndarray:
    """The (k,) int64 occupancy of n i.i.d. draws from p; an n past MAX_N
    is InvalidArgumentError."""
    check_particle_count(n)
    return rng.multinomial(n, p.p)


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
