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
replicas: the `kac` subcommand and theorem-probe's columns, all three in
one stack, run their replicas through the Kac kernel's batched sampler,
chunk by chunk in `replica_counts`, the one replica loop.  `simulate_kac`
is its one-row case.

The stack is exact replica by replica, not only in law: each row makes the
draws a lone run makes, on its own Generator and in the same order, and
computes its rates elementwise, adding their terms one by one in a fixed
order, so its end counts and its Generator's final state do not depend on
the stack it ran in.  Memory is per row: one block of JUMP_BLOCK waits and
JUMP_BLOCK picks, 16 bytes per jump (1 KB), and its k counts and D move
rates, 8 (k + D) bytes; `replica_counts` bounds the rows of a stack.
Replicas draw their RNG streams from a splittable (master seed, replica
index) scheme, so reductions are reproducible and order-independent:
`replica_rngs` builds a chunk's Generators, and any copies of them, in
one pass, each equal in state to numpy's own SeedSequence(master seed,
spawn_key=(replica,)).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import as_int, as_rng
from .errors import InvalidArgumentError
from .meanfield import CompiledRule, PairRule, check_rate_and_time, default_rule

# Jumps per block of each row's draws: a row refills its block when it has spent it.
JUMP_BLOCK = 64
# Most particles: counts, and their sum n, are int64.
MAX_N = 2**63 - 1
KAC_CHUNK = 1024  # most rows per stack call: each holds a 1 KB Generator and 1 KB of draws
# Most jump steps per stack call, bounded before any draw: about 4.4 s at
# 22 us a step for one 3-state row (5 s at 25 us for 200 rows, 11 s at 55 us
# for KAC_CHUNK rows; n = 200,000, 2-core VM).
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


class _StateWords:
    """A seed sequence that hands PCG64, which asks for 4 uint64 words, the
    four it was given."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hashes(h: int, mult: int):
    """SeedSequence's hash constants from h: per hash, the constant xored in
    and the next one, multiplied in."""
    while True:
        nxt = h * mult & 0xFFFFFFFF
        yield h, nxt
        h = nxt


# SeedSequence's hash and mix of 32-bit words, on ints or int64 arrays of
# words: an int64 product wraps mod 2^64, and & keeps its low 32 bits.
def _hash(value, consts):
    xor, mult = next(consts)
    value = (value ^ xor) * mult & 0xFFFFFFFF
    return value ^ value >> 16


def _mix(x, y):
    value = ((0xCA01F9DD * x & 0xFFFFFFFF) - 0x4973F715 * y) & 0xFFFFFFFF
    return value ^ value >> 16


@functools.cache
def _pcg64():
    """numpy's PCG64, once `_StateWords` is registered as a seed sequence it
    takes: done on first use, not at import, so that a run that draws no
    random number does not load numpy.random."""
    np.random.bit_generator.ISeedSequence.register(_StateWords)
    return np.random.PCG64


def replica_rngs(master_seed: int, first: int, last: int, copies: int = 1) -> list:
    """The private RNG streams of replicas first, ..., last - 1 < 2^63 of a
    seeded ensemble: replica r's Generator is, state for state,
    default_rng(SeedSequence(master_seed, spawn_key=(r,))).  The list holds
    `copies` lists of them, one after another, each copy its own Generator.

    SeedSequence's entropy assembly, pool mixing and generate_state(4,
    uint64) run here once for the whole range and every copy: the run
    entropy, the master seed's 32-bit words padded to 4, is mixed in ints,
    and the words of r (a second one from r = 2^32 on) on int64 columns,
    one entry per replica."""
    seed = operator.index(master_seed)
    if seed < 0 or first < 0:
        raise InvalidArgumentError(f"need a master seed and replicas >= 0, got {seed} "
                                   f"and {first}")
    run = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    run += [0] * (4 - len(run))
    keys = np.arange(first, last, dtype=np.int64)
    consts = _hashes(0x43B0D7E5, 0x931E8875)
    pool = [_hash(word, consts) for word in run[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    for word in run[4:] + [keys & 0xFFFFFFFF]:
        pool = [_mix(x, _hash(word, consts)) for x in pool]
    if last > 2**32:  # only the rows whose key has a second word mix it in
        high = keys >> 32
        pool = [np.where(high > 0, _mix(x, _hash(high, consts)), x) for x in pool]
    consts = _hashes(0x8B51F9DD, 0x58F38DED)
    state = [_hash(pool[i % 4], consts) for i in range(8)]
    words = np.stack([state[i] | state[i + 1] << 32 for i in range(0, 8, 2)], axis=1)
    seeds, pcg64 = [_StateWords(row) for row in words.view(np.uint64)], _pcg64()
    return [np.random.Generator(pcg64(row)) for _ in range(copies) for row in seeds]


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Private RNG stream for one replica of a seeded ensemble: the one-replica
    case of `replica_rngs`."""
    return replica_rngs(master_seed, replica, replica + 1)[0]


def simulate_kac_stack(
    starts,
    lam: float,
    t: float,
    rngs,
    pair_rule: Optional[PairRule] = None,
) -> np.ndarray:
    """Run the Kac collision chain for time t from each row of an (R, k)
    stack of occupancies that share one n, row r on the Generator rngs[r];
    returns the (R, k) int64 end counts in a new C-ordered array.

    Each ordered pair of distinct particles collides at rate lam / (2n) and
    is resampled by the pair rule (default SumConservingRule(k)), so the
    class moves by change d at rate lam / (2n) times its `move_weights`.
    The rows are advanced jump by jump, all in one `_jumps` call;
    collisions that leave the class as it was are not drawn.  A row's
    expected jumps are at most lam t (n - 1) / 2 times c_max = max over uw
    of sum_d coeffs[d, uw]; a stack that may step more than MAX_JUMP_STEPS
    times is InvalidArgumentError.
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
    steps = t * lam * (n - 1) / 2 * table.coeffs.sum(axis=0).max()
    if steps > MAX_JUMP_STEPS:
        raise InvalidArgumentError(f"n = {n} and t * lam = {t * lam:g} may take {steps:.3g} "
                                   f"jump steps a row in expectation, past the budget of "
                                   f"{MAX_JUMP_STEPS}")
    out = counts.astype(np.int64, order="C")
    if horizon > 0 and len(table.changes):  # else no row can jump, and none draws
        out[:] = _jumps(out.T, rngs, horizon, table).T
    return out


def _jumps(counts: np.ndarray, rngs: list, horizon: float, table: CompiledRule) -> np.ndarray:
    """The end counts of a state-major (k, w) stack whose column r, a
    replica, runs on rngs[r] until its clock passes `horizon`, in units of
    2n / lam.

    At class m a replica's cumulative weights are S_d = sum of
    move_weights(m) over the moves up to d, formed in place in the (D, w)
    weights as S_d = S_(d-1) + w_d, and q = S_D its total.  A replica with
    q = 0 is absorbed and stops without a draw.  Otherwise its clock
    advances by E / q, E its next Exp(1) wait; once the clock is not below
    the horizon it stops, and else it moves by the first change d with
    S_d > U q, U its next uniform pick.  A replica draws its waits and
    picks in blocks of JUMP_BLOCK, one `random` call of 2 JUMP_BLOCK
    uniforms, the waits' then the picks', the first when it first needs a
    wait and each next one when it has spent the last; one numpy call then
    maps the waits' uniforms U of every row just refilled to Exp(1) draws
    -log1p(-U), by inversion.  A stopped replica keeps its column: it is
    out of `live`, so it draws nothing more and its move is masked out.
    The counts stay int64; move_weights reads them as floats at each step,
    so counts past 2^53 round as they would alone.
    """
    m = counts.copy()
    live = np.ones(m.shape[1], dtype=bool)
    clock, dt = np.zeros(len(live)), np.zeros(len(live))
    draws = np.zeros((len(live), 2, JUMP_BLOCK))
    waits = draws[:, 0]
    moves = table.changes.T
    step = 0
    while live.any():
        cum = table.move_weights(m)
        for d in range(1, len(cum)):
            row = cum[d]  # a view: += adds in place
            row += cum[d - 1]
        q = cum[-1]
        live &= q > 0  # an absorbed replica stops without a draw
        j = step % JUMP_BLOCK
        if j == 0:
            rows = np.flatnonzero(live)
            for i in rows.tolist():
                rngs[i].random(out=draws[i])
            # Only the rows just refilled: a stale block, mapped again, can
            # hold waits past 1, where log1p(-x) is undefined.
            waits[rows] = -np.log1p(-waits[rows])
        clock += np.divide(waits[:, j], q, out=dt, where=live)
        live &= clock < horizon
        # U < 1 keeps U q below q, so the pick reads the first D - 1 sums only.
        pick = (cum[:-1] <= draws[:, 1, j] * q).sum(axis=0)
        np.add(m, moves.take(pick, axis=1), out=m, where=live)
        step += 1
    return m


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


def iid_state(p: np.ndarray, n: int, rng) -> np.ndarray:
    """The (k,) int64 occupancy of n i.i.d. draws from the (k,) float row p;
    an n past MAX_N is InvalidArgumentError."""
    check_particle_count(n)
    return rng.multinomial(n, p)


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


def replica_counts(sampler: Callable[[list], np.ndarray], replicas: int, seed: int,
                   columns: int = 1):
    """The sampler's end counts for replicas 0, ..., replicas - 1, in order:
    one stack per call of `sampler(rngs)` on a chunk of at most
    KAC_CHUNK // columns replicas (at least one), whose rngs are the
    `columns` copies of the chunk's Generators, replica_rngs(seed, first,
    last, columns), from one pass of the seed hashing.  So a stack has at
    most KAC_CHUNK rows (or `columns`, if more), its columns' runs column
    by column, each column on the same streams."""
    width = max(KAC_CHUNK // columns, 1)
    for first in range(0, replicas, width):
        yield sampler(replica_rngs(seed, first, min(first + width, replicas), columns))


def estimate_pair_marginals(
    sampler: Callable[[list], np.ndarray],
    replicas: int,
    seed: int,
    columns: int = 1,
) -> list:
    """Per column of the stacks of `replica_counts(sampler, replicas, seed,
    columns)`, the replica average of the two-particle U-statistic with
    standard errors."""
    if replicas < 2:
        raise InvalidArgumentError("need at least two replicas")
    chunks = [np.split(np.asarray(chunk), columns)
              for chunk in replica_counts(sampler, replicas, seed, columns)]
    results = []
    for column in range(columns):
        stack = pair_marginal_ustat(np.concatenate([parts[column] for parts in chunks]))
        stderr = stack.std(axis=0, ddof=1) / math.sqrt(replicas)
        results.append(EstimatorResult(stack.mean(axis=0), stderr))
    return results
