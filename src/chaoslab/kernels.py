"""Permutation-equivariant Markov kernels between finite product spaces.

A kernel K_n from S^n to T^n with K_n(pi.s, pi.A) = K_n(s, A) has a class
form: one row per source occupancy, a law over target occupancies.  As an
empirical measure is its class m <-> m/n, that is also the induced
transition on empirical measures.  Its forward action, `push`, mixes a
stack of symmetric laws (masses by class rank) through it in one
`np.bincount`; `propagate` is the one-law case.

Each constructor is the one spec of its dynamics: it also sets
`kernel.limit`, the one-particle map P(S) -> P(T) the kernel must propagate
chaos toward, from a (B, k) stack of laws to a new (B, k_target) stack.
`make_kernel` is the only parser of the kernel names.

A kernel's one computed form is its exact class matrix, `class_matrix()`,
the nonzero entries (src, dst, prob) over class ranks, from the
constructor's `matrix_builder`.  A kernel without one has only a `sampler`
of n-particle draws from a stack of source classes; `kernel.exact` says
which.  Identity, maps and the counterexample are each one class map given
to `_class_map_kernel`, which derives the class rows and the limit.  The
Kac chain's matrix, up to `KAC_EXACT_MAX_N`, is its uniformization (a
Poisson series in the one-collision matrix, then squarings, every term
nonnegative), run on the matrix's diagonal blocks, one per shell of
classes, scattered from the pair rule's class moves (`CompiledRule`), the
table that its sampler, `montecarlo.simulate_kac_stack`, reads.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .core import StateSpace, SymmetricLaw, class_index, enumerate_occupancies, occupancy_array
from .errors import CapacityError, InvalidArgumentError
from .meanfield import PairRule, _as_stack, check_rate_and_time, default_rule, kac_limit_evolve
from .montecarlo import simulate_kac_stack

# Largest n for which the exact Kac class matrix is built.
KAC_EXACT_MAX_N = 12
# Kac shells of fewer classes are zero-padded into one stack: numpy sums a
# row of under 8 entries left to right, so the pad leaves every bit.
PAD_BELOW = 8


class ExchangeableKernel:
    """A Markov transition from S^n to T^n commuting with permutations.

    Exact class matrix, or none and a sampler; its parts, any may be absent:
      matrix_builder() -> (src, dst, prob)            (exact)
      sampler(starts, rngs) -> (R, k_target) counts   (n-particle draws)

    It is `exact` when it has a matrix builder: fixed here, so reading
    `exact` builds nothing.  A sampler takes an (R, k) stack of source
    occupancies and one Generator per row, and draws row r's target
    occupancy on rngs[r].  Both work on occupancy classes, so the kernel is
    permutation-equivariant by construction.  `limit`, when set, is its
    one-particle limit map on a (B, S.k) stack of laws.
    """

    def __init__(
        self,
        source: StateSpace,
        target: StateSpace,
        n: int,
        name: str,
        sampler: Optional[Callable] = None,
        matrix_builder: Optional[Callable] = None,
        limit: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        if n < 1:
            raise InvalidArgumentError("particle count must be >= 1")
        self.source = source
        self.target = target
        self.n = n
        self.name = name
        self.sampler = sampler
        self.limit = limit
        self._matrix_builder = matrix_builder
        self._matrix = None

    @property
    def exact(self) -> bool:
        """Whether `class_matrix()` is exact, fixed when the kernel is built."""
        return self._matrix_builder is not None

    def class_matrix(self) -> tuple:
        """Nonzero entries (src, dst, prob) of the exact class matrix over class
        ranks, in source-rank order; built once and kept.  CapacityError if
        the kernel is not `exact`."""
        if not self.exact:
            raise CapacityError(f"kernel {self.name!r} has no exact class matrix at "
                                f"n={self.n}; its Monte Carlo estimate needs a seed")
        if self._matrix is None:
            self._matrix = self._matrix_builder()
        return self._matrix


def symmetrized_class_kernel(kernel: ExchangeableKernel) -> dict:
    """`kernel.class_matrix()` as a dict of rows,
    {source occupancy: {target occupancy: prob}}."""
    src, dst, prob = kernel.class_matrix()
    sources = enumerate_occupancies(kernel.source, kernel.n)
    targets = enumerate_occupancies(kernel.target, kernel.n)
    rows: dict = {m: {} for m in sources}
    for i, j, pr in zip(src.tolist(), dst.tolist(), prob.tolist()):
        rows[sources[i]][targets[j]] = pr
    return rows


def push(columns: np.ndarray, kernel: ExchangeableKernel) -> np.ndarray:
    """The (B, target classes) images of a (B, source classes) stack of laws,
    masses by rank; each target's terms are added in source-rank order."""
    src, dst, prob = kernel.class_matrix()
    size = len(occupancy_array(kernel.target.k, kernel.n))
    bins = dst + size * np.arange(len(columns))[:, None]
    return np.bincount(bins.ravel(), weights=(columns[:, src] * prob).ravel(),
                       minlength=size * len(columns)).reshape(-1, size)


def propagate(law: SymmetricLaw, kernel: ExchangeableKernel) -> SymmetricLaw:
    """The kernel's image of a symmetric law, by `push`."""
    if law.space != kernel.source or law.n != kernel.n:
        raise InvalidArgumentError("law and kernel dimensions do not match")
    occ = occupancy_array(kernel.target.k, kernel.n)
    return SymmetricLaw(kernel.target, kernel.n, occ, push(law.vector()[None], kernel)[0])


def _class_map_kernel(source: StateSpace, target: StateSpace, n: int, name: str,
                      image: Callable) -> ExchangeableKernel:
    """Deterministic kernel from its class map: `image(M, total)` sends a
    (B, source.k) stack of occupancies of `total` particles to their
    (B, target.k) images.  The row at class m is the point class image(m, n),
    and the limit, on a stack of laws, is image(P, 1.0)."""

    def build_matrix():
        dst = class_index(image(occupancy_array(source.k, n), n), n)
        return np.arange(len(dst)), dst, np.ones(len(dst))

    return ExchangeableKernel(source, target, n, name, matrix_builder=build_matrix,
                              limit=lambda P: image(_as_stack(P), 1.0))


def map_kernel(
    f, n: int, source: StateSpace, target: Optional[StateSpace] = None
) -> ExchangeableKernel:
    """Deterministic kernel applying the state map `f`, a sequence of target
    state indices, coordinatewise: each occupancy, and each law, is summed
    onto the images of its states."""
    target = target or source
    fmap = [int(f[s]) for s in range(source.k)]
    if any(not 0 <= t < target.k for t in fmap):
        raise InvalidArgumentError("state map leaves the target space")
    onto = np.zeros((source.k, target.k), dtype=np.int64)
    onto[np.arange(source.k), fmap] = 1
    spec = ",".join(str(t) for t in fmap)
    return _class_map_kernel(source, target, n, f"map:{spec}", lambda M, total: M @ onto)


def identity_kernel(space: StateSpace, n: int) -> ExchangeableKernel:
    return _class_map_kernel(space, space, n, "identity", lambda M, total: M)


def counterexample_kernel(n: int) -> ExchangeableKernel:
    """All-or-nothing kernel on S = {0, 1}.

    Sends the all-zero state to itself and every other state to all-ones;
    depends on s only through a symmetric predicate, so it is equivariant.
    Propagates product laws to chaotic outputs but destroys chaoticity of
    other delta_0-chaotic inputs.  Its limit sends delta_0 to itself and
    every other law to delta_1, so it is discontinuous at delta_0.
    """
    space = StateSpace.of_size(2)
    return _class_map_kernel(
        space, space, n, "counterexample",
        lambda M, total: np.where(M[:, :1] == total, [total, 0], [0, total]))


def _shell_stacks(k: int, n: int, rule: PairRule):
    """The one-collision class matrix by shells: stacks of the (B, w) ranks
    of B shells and their (B, w, w) diagonal blocks.  A shell's classes
    share a key, the label sum m @ range(k) when every change keeps it, else
    0, so no move leaves it; a stable sort keeps it in rank order.  Shells
    of under PAD_BELOW classes are one stack, zero-padded to the widest,
    pad slots ranked -1; larger ones are one stack per size.  Class m moves
    to m + d with probability w_d(m) / (n (n - 1)), w_d its `move_weights`,
    and keeps 1 minus its moves' probabilities added in change order (0 to
    a unit of roundoff, either side, where every collision moves it)."""
    occ = occupancy_array(k, n)
    table = rule.compiled(k)
    labels = np.arange(k)
    key = occ @ labels if not (table.changes @ labels).any() else np.zeros(len(occ), np.int64)
    prob = table.move_weights(occ.T) / (n * (n - 1))
    moves, rows = np.nonzero(prob)
    cols = class_index(occ[rows] + table.changes[moves], n)
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    sizes = np.diff(starts, append=len(occ))
    small = sizes < PAD_BELOW
    width = np.where(small, sizes[small].max(initial=0), sizes)
    # The blocks lie in one flat array, each width's shells one run of it.
    by_width = np.argsort(width, kind="stable")
    corner = np.empty_like(starts)
    corner[by_width] = np.cumsum(width[by_width] ** 2) - width[by_width] ** 2
    # Each class's place in its shell, and the flat offset of its block row.
    shell = np.repeat(np.arange(len(starts)), sizes)
    pos, row = np.empty_like(order), np.empty_like(order)
    pos[order] = np.arange(len(occ)) - starts[shell]
    row[order] = corner[shell] + pos[order] * width[shell]
    flat = np.zeros(int(width @ width))
    flat[row + pos] = 1.0 - sum(prob, np.zeros(len(occ)))
    flat[row[rows] + pos[cols]] = prob[moves, rows]
    ranks = np.append(order, -1)  # a slot past its shell's size reads -1
    for group in np.split(by_width, np.flatnonzero(np.diff(width[by_width])) + 1):
        size, first = int(width[group[0]]), corner[group[0]]
        P = flat[first:first + len(group) * size * size].reshape(-1, size, size)
        slot = np.arange(size)
        yield ranks[np.where(slot < sizes[group, None], starts[group, None] + slot, -1)], P


def _kac_rows(k: int, n: int, rule: PairRule, rate_time: float) -> tuple:
    """Entries > 0 (src, dst, prob) of exp(rate_time * (P - I)) in source-rank
    order, by uniformization on each stack of `_shell_stacks` blocks of P.

    With theta = rate_time / 2^s < 1, A = sum_j Pois(theta; j) P^j and the
    result is A^(2^s).  The series stops where the Poisson tail it leaves
    out is below 2^-(53 + s), so that the 2^s-th power loses less than one
    unit roundoff of row mass; each squaring's rows are renormalised, so
    that rounding does not double with each.  Every term and product is
    nonnegative: nothing needs clamping, and rate_time = 0 gives I exactly.
    Pad slots add exact zeros to the products, and their rows are dropped.
    """
    s = max(0, math.frexp(rate_time)[1])
    theta = math.ldexp(rate_time, -s)
    weights = [math.exp(-theta)]
    # The tail past term j is at most w_j * theta / (j + 1 - theta).
    while weights[-1] * theta / (len(weights) - theta) > math.ldexp(1.0, -53 - s):
        weights.append(weights[-1] * theta / len(weights))
    entries = []
    for members, P in _shell_stacks(k, n, rule):
        term = np.broadcast_to(np.eye(P.shape[-1]), P.shape)
        A = weights[0] * term
        for w in weights[1:]:
            term = term @ P
            A += w * term
        for _ in range(s):
            A = A @ A
            A /= A.sum(axis=2, keepdims=True)
        b, i, j = np.nonzero((A > 0) & (members >= 0)[:, :, None])
        entries.append((members[b, i], members[b, j], A[b, i, j]))
    src, dst, prob = map(np.concatenate, zip(*entries))
    order = np.argsort(src, kind="stable")
    return src[order], dst[order], prob[order]


def kac_collision_kernel(
    space: StateSpace,
    lam: float,
    t: float,
    n: int,
    pair_rule: Optional[PairRule] = None,
) -> ExchangeableKernel:
    """Kac-style random pairwise collision chain over time t.

    Uniformized continuous-time chain: with per-pair rate lam/n (total rate
    lam*(n-1)/2) a uniform unordered pair of particles collides and is
    resampled by the pair rule.  The kernel is `exact` for
    n <= KAC_EXACT_MAX_N: its class matrix is that chain's law at time t,
    sum_j Pois(total_rate * t; j) P^j over the one-collision class matrix P,
    computed as a Poisson series and squarings on P's blocks (`_kac_rows`),
    nonnegative term by term and kept where > 0.  Larger n has no class
    matrix, only the sampler, which runs `simulate_kac_stack` with the same
    pair rule.  The limit is the collision ODE of that pair rule run for
    time t.
    """
    check_rate_and_time(lam, t)
    if n < 2:
        raise InvalidArgumentError("collisions need at least two particles")
    rule = pair_rule or default_rule(space.k)
    total_rate = lam * (n - 1) / 2.0

    def sampler(starts, rngs):
        return simulate_kac_stack(starts, lam, t, rngs, rule)

    def build_matrix():
        return _kac_rows(space.k, n, rule, t * total_rate)

    return ExchangeableKernel(
        space,
        space,
        n,
        name=f"kac:{lam:g},{t:g}",
        sampler=sampler,
        matrix_builder=build_matrix if n <= KAC_EXACT_MAX_N else None,
        limit=lambda p: kac_limit_evolve(p, lam, t, rule=rule),
    )


def _spec_values(name: str, text: str, convert) -> list:
    try:
        return [convert(x) for x in text.split(",")]
    except ValueError:
        raise InvalidArgumentError(f"malformed kernel spec {name!r}") from None


def make_kernel(name: str, space: StateSpace, n: int) -> ExchangeableKernel:
    """Kernel registry: identity, map:<i,j,...>, counterexample, kac:<lam>,<t>.

    The only parser of these names; any malformed name raises
    InvalidArgumentError.  A map's target is the source space when every
    image fits in it, else the space of size max(image) + 1.
    """
    kind, _, spec = name.partition(":")
    if name == "identity":
        return identity_kernel(space, n)
    if name == "counterexample":
        if space.k != 2:
            raise InvalidArgumentError("counterexample kernel lives on a 2-state space")
        return counterexample_kernel(n)
    if kind == "map":
        fmap = _spec_values(name, spec, int)
        if len(fmap) != space.k:
            raise InvalidArgumentError("map spec length != k")
        target_k = max(fmap) + 1
        target = space if target_k <= space.k else StateSpace.of_size(target_k)
        return map_kernel(fmap, n, space, target)
    if kind == "kac":
        values = _spec_values(name, spec, float)
        if len(values) != 2:
            raise InvalidArgumentError(f"kac spec needs kac:<lam>,<t>, got {name!r}")
        lam, t = values
        return kac_collision_kernel(space, lam, t, n)
    raise InvalidArgumentError(f"unknown kernel name {name!r}")
