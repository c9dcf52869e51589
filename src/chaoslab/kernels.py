"""Permutation-equivariant Markov kernels between finite product spaces.

A kernel K_n from S^n to T^n with K_n(pi.s, pi.A) = K_n(s, A) has a
symmetrized class form: one row per source occupancy, each row a law over
target occupancies.  In occupancy form an empirical measure is its class
m <-> m/n, so that class matrix is also the induced transition on
empirical measures, and mixing a symmetric input law against it
(`propagate`) is the exact propagation step.

Each constructor here is the one spec of its dynamics: next to the
n-particle form it sets `kernel.limit`, the one-particle map P(S) -> P(T)
the kernel must propagate chaos toward.  `make_kernel` is the only parser
of the kernel names.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from .core import (
    Distribution,
    Occupancy,
    StateSpace,
    SymmetricLaw,
    enumerate_occupancies,
    occupancy_of,
)
from .errors import CapacityError, EquivarianceError, InvalidArgumentError
from .meanfield import (
    PairRule,
    SumConservingRule,
    check_rate_and_time,
    kac_limit_evolve,
    pushforward,
)

EXHAUSTIVE_STATE_LIMIT = 4096
EQUIVARIANCE_TOL = 1e-9
# Largest n for which the dense Kac class matrix exponential is built.
KAC_EXACT_MAX_N = 12
DEFAULT_SAMPLE_REPLICAS = 4000


class ExchangeableKernel:
    """A Markov transition from S^n to T^n commuting with permutations.

    Backends, any of which may be absent:
      ordered_law(s) -> dict ordered-tuple -> prob   (exact, small spaces)
      sample(s, rng) -> ordered tuple                (Monte Carlo)
      class matrix: occupancy -> law over occupancies (exact symmetrized form)

    `limit`, when set, is the one-particle limit map P(S) -> P(T) that the
    kernel propagates chaos toward.
    """

    def __init__(
        self,
        source: StateSpace,
        target: StateSpace,
        n: int,
        name: str,
        ordered_law: Optional[Callable] = None,
        sampler: Optional[Callable] = None,
        class_rows_builder: Optional[Callable] = None,
        validate: bool = True,
        limit: Optional[Callable[[Distribution], Distribution]] = None,
    ):
        if n < 1:
            raise InvalidArgumentError("particle count must be >= 1")
        self.source = source
        self.target = target
        self.n = n
        self.name = name
        self.ordered_law = ordered_law
        self.sampler = sampler
        self.limit = limit
        self._class_rows_builder = class_rows_builder
        self._class_rows = None
        if validate and ordered_law is not None:
            if source.k**n <= EXHAUSTIVE_STATE_LIMIT:
                report = check_equivariance(self, mode="exhaustive")
                if not report.passed:
                    raise EquivarianceError(
                        f"kernel {name!r} violates permutation equivariance "
                        f"(max violation {report.max_violation:g})"
                    )

    def class_rows(self) -> dict:
        if self._class_rows is None:
            if self._class_rows_builder is not None:
                self._class_rows = self._class_rows_builder()
            elif self.ordered_law is not None:
                self._class_rows = _rows_from_ordered_law(self)
            elif self.sampler is not None:
                raise CapacityError(
                    f"kernel {self.name!r} has no exact class form; use "
                    "symmetrized_class_kernel with a seed for sampled estimation"
                )
            else:
                raise CapacityError(f"kernel {self.name!r} has no usable backend")
        return self._class_rows


@dataclass
class EquivarianceReport:
    passed: bool
    max_violation: float
    mode: str
    checks: int


def class_representative(m: Occupancy) -> tuple:
    """The sorted ordered state with occupancy m."""
    out = []
    for state, count in enumerate(m):
        out.extend([state] * count)
    return tuple(out)


def _swap(s: tuple, i: int) -> tuple:
    out = list(s)
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def check_equivariance(
    kernel: ExchangeableKernel,
    mode: str = "exhaustive",
    seed: Optional[int] = None,
    samples: int = DEFAULT_SAMPLE_REPLICAS,
    trials: int = 5,
) -> EquivarianceReport:
    """Verify K_n(pi.s, pi.A) = K_n(s, A).

    Exhaustive mode checks every state against every adjacent transposition
    exactly; sampled mode compares Monte Carlo outcome frequencies from s
    and pi.s (pulled back through pi) within a 4-sigma binomial band.
    """
    n, k = kernel.n, kernel.source.k
    if mode == "exhaustive":
        if kernel.ordered_law is None:
            raise CapacityError("exhaustive equivariance check needs an exact backend")
        if k**n > EXHAUSTIVE_STATE_LIMIT:
            raise CapacityError(
                f"exhaustive equivariance check limited to {EXHAUSTIVE_STATE_LIMIT} states"
            )
        worst = 0.0
        checks = 0
        for s in itertools.product(range(k), repeat=n):
            law_s = kernel.ordered_law(s)
            for i in range(n - 1):
                law_sp = kernel.ordered_law(_swap(s, i))
                for t in set(law_s) | {_swap(t, i) for t in law_sp}:
                    diff = abs(law_s.get(t, 0.0) - law_sp.get(_swap(t, i), 0.0))
                    worst = max(worst, diff)
                    checks += 1
        return EquivarianceReport(worst <= EQUIVARIANCE_TOL, worst, "exhaustive", checks)

    if mode == "sampled":
        if kernel.sampler is None:
            raise InvalidArgumentError("sampled equivariance check needs a sampler")
        if seed is None:
            raise InvalidArgumentError("sampled equivariance check needs a seed")
        rng = np.random.default_rng(seed)
        passed = True
        worst = 0.0
        checks = 0
        for _ in range(trials):
            s = tuple(int(x) for x in rng.integers(0, k, size=n))
            perm = rng.permutation(n)
            inv = np.argsort(perm)
            s_perm = tuple(s[perm[i]] for i in range(n))
            freq1: dict = {}
            freq2: dict = {}
            for _ in range(samples):
                y = kernel.sampler(s, rng)
                freq1[y] = freq1.get(y, 0) + 1
                yp = kernel.sampler(s_perm, rng)
                y_back = tuple(yp[inv[i]] for i in range(n))
                freq2[y_back] = freq2.get(y_back, 0) + 1
            for t in set(freq1) | set(freq2):
                f1 = freq1.get(t, 0) / samples
                f2 = freq2.get(t, 0) / samples
                pooled = 0.5 * (f1 + f2)
                band = 4.0 * math.sqrt(max(pooled * (1 - pooled), 1e-12) * 2 / samples)
                worst = max(worst, abs(f1 - f2))
                checks += 1
                if abs(f1 - f2) > band:
                    passed = False
        return EquivarianceReport(passed, worst, "sampled", checks)

    raise InvalidArgumentError(f"unknown equivariance mode {mode!r}")


def _rows_from_ordered_law(kernel: ExchangeableKernel) -> dict:
    rows = {}
    for m in enumerate_occupancies(kernel.source, kernel.n):
        law = kernel.ordered_law(class_representative(m))
        row: dict = {}
        for t, pr in law.items():
            if pr > 0.0:
                c2 = occupancy_of(kernel.target, t)
                row[c2] = row.get(c2, 0.0) + pr
        rows[m] = row
    return rows


def _rows_from_sampler(kernel: ExchangeableKernel, seed: int, replicas: int) -> dict:
    rows = {}
    for idx, m in enumerate(enumerate_occupancies(kernel.source, kernel.n)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(idx,)))
        rep = class_representative(m)
        counts: dict = {}
        for _ in range(replicas):
            c2 = occupancy_of(kernel.target, kernel.sampler(rep, rng))
            counts[c2] = counts.get(c2, 0) + 1
        rows[m] = {c2: cnt / replicas for c2, cnt in counts.items()}
    return rows


def symmetrized_class_kernel(
    kernel: ExchangeableKernel,
    seed: Optional[int] = None,
    replicas: int = DEFAULT_SAMPLE_REPLICAS,
) -> dict:
    """The symmetrization of K_n(s, .) as a stochastic matrix over classes.

    By equivariance the row for a class does not depend on the chosen
    representative.  Falls back to seeded Monte Carlo estimation when no
    exact backend exists.
    """
    try:
        return kernel.class_rows()
    except CapacityError:
        if kernel.sampler is not None and seed is not None:
            if replicas < 1:
                raise InvalidArgumentError(f"need replicas >= 1, got {replicas}")
            return _rows_from_sampler(kernel, seed, replicas)
        raise


def propagate(law: SymmetricLaw, kernel: ExchangeableKernel, **kwargs) -> SymmetricLaw:
    """Mix a symmetric law through the kernel: the output law on T^n."""
    if law.space != kernel.source or law.n != kernel.n:
        raise InvalidArgumentError("law and kernel dimensions do not match")
    rows = symmetrized_class_kernel(kernel, **kwargs)
    out: dict = {}
    for m, mass in law.items():
        for m2, pr in rows[m].items():
            out[m2] = out.get(m2, 0.0) + mass * pr
    return SymmetricLaw(kernel.target, kernel.n, out)


def map_kernel(
    f, n: int, source: StateSpace, target: Optional[StateSpace] = None
) -> ExchangeableKernel:
    """Deterministic kernel applying a state map coordinatewise.

    `f` maps source state indices to target state indices (callable or
    sequence).  The class row is the occupancy pushforward and the limit
    the one-particle pushforward.
    """
    target = target or source
    fmap = [int(f(s)) if callable(f) else int(f[s]) for s in range(source.k)]
    if any(not 0 <= t < target.k for t in fmap):
        raise InvalidArgumentError("state map leaves the target space")

    def ordered_law(s):
        return {tuple(fmap[si] for si in s): 1.0}

    def sampler(s, rng):
        return tuple(fmap[si] for si in s)

    def build_rows():
        rows = {}
        for m in enumerate_occupancies(source, n):
            m2 = [0] * target.k
            for s, count in enumerate(m):
                m2[fmap[s]] += count
            rows[m] = {tuple(m2): 1.0}
        return rows

    spec = ",".join(str(t) for t in fmap)
    return ExchangeableKernel(
        source,
        target,
        n,
        name=f"map:{spec}",
        ordered_law=ordered_law,
        sampler=sampler,
        class_rows_builder=build_rows,
        validate=False,
        limit=lambda p: pushforward(p, fmap, target),
    )


def identity_kernel(space: StateSpace, n: int) -> ExchangeableKernel:
    kernel = map_kernel(lambda s: s, n, space)
    kernel.name = "identity"
    return kernel


def counterexample_kernel(n: int, t: float = 1.0) -> ExchangeableKernel:
    """All-or-nothing kernel on S = {0, 1}.

    Sends the all-zero state to itself and every other state to all-ones;
    depends on s only through a symmetric predicate, so it is equivariant.
    Propagates product laws to chaotic outputs but destroys chaoticity of
    other delta_0-chaotic inputs.  Its limit sends delta_0 to itself and
    every other law to delta_1, so it is discontinuous at delta_0.
    Time-homogeneous: t is ignored.
    """
    if n < 1:
        raise InvalidArgumentError("particle count must be >= 1")
    space = StateSpace.of_size(2)
    zeros = (0,) * n
    ones = (1,) * n
    delta0 = Distribution.point_mass(space, 0)
    delta1 = Distribution.point_mass(space, 1)

    def ordered_law(s):
        return {zeros if tuple(s) == zeros else ones: 1.0}

    def sampler(s, rng):
        return zeros if tuple(s) == zeros else ones

    def build_rows():
        rows = {}
        for m in enumerate_occupancies(space, n):
            rows[m] = {(n, 0): 1.0} if m == (n, 0) else {(0, n): 1.0}
        return rows

    return ExchangeableKernel(
        space,
        space,
        n,
        name="counterexample",
        ordered_law=ordered_law,
        sampler=sampler,
        class_rows_builder=build_rows,
        validate=False,
        limit=lambda p: delta0 if p.p[0] == 1.0 else delta1,
    )


def _kac_event_matrix(space, n, rule, occupancies, index):
    """One-collision transition matrix on occupancy classes."""
    k = space.k
    pairs_total = n * (n - 1) / 2.0
    P = np.zeros((len(occupancies), len(occupancies)))
    for i, m in enumerate(occupancies):
        for u in range(k):
            if not m[u]:
                continue
            for w in range(u, k):
                if u == w:
                    weight = m[u] * (m[u] - 1) / 2.0 / pairs_total
                else:
                    weight = m[u] * m[w] / pairs_total
                if weight == 0.0:
                    continue
                for (a, b), pr in rule.outcomes(u, w):
                    m2 = list(m)
                    m2[u] -= 1
                    m2[w] -= 1
                    m2[a] += 1
                    m2[b] += 1
                    P[i, index[tuple(m2)]] += weight * pr
    return P


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
    resampled by the pair rule.  The exact class matrix is the matrix
    exponential of the class-level generator, offered for
    n <= KAC_EXACT_MAX_N; larger n is Monte Carlo only.  The limit is the
    collision ODE of the same pair rule run for time t.
    """
    check_rate_and_time(lam, t)
    if n < 2:
        raise InvalidArgumentError("collisions need at least two particles")
    rule = pair_rule or SumConservingRule(space.k)
    total_rate = lam * (n - 1) / 2.0

    def sampler(s, rng):
        state = list(s)
        for _ in range(rng.poisson(t * total_rate)):
            i = int(rng.integers(n))
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            state[i], state[j] = rule.sample(state[i], state[j], rng)
        return tuple(state)

    def build_rows():
        if n > KAC_EXACT_MAX_N:
            raise CapacityError(
                f"exact Kac class matrix limited to n <= {KAC_EXACT_MAX_N}, got n={n}"
            )
        occupancies = enumerate_occupancies(space, n)
        index = {m: i for i, m in enumerate(occupancies)}
        P = _kac_event_matrix(space, n, rule, occupancies, index)
        M = expm(t * total_rate * (P - np.eye(len(occupancies))))
        rows = {}
        for i, m in enumerate(occupancies):
            row = {m2: float(M[i, j]) for j, m2 in enumerate(occupancies) if M[i, j] > 1e-300}
            rows[m] = {m2: v for m2, v in row.items() if v > 0.0}
        return rows

    return ExchangeableKernel(
        space,
        space,
        n,
        name=f"kac:{lam:g},{t:g}",
        sampler=sampler,
        class_rows_builder=build_rows,
        validate=False,
        limit=lambda p: kac_limit_evolve(p, lam, t, rule=rule),
    )


def orbit_sample(zeta: Occupancy, seed) -> tuple:
    """A uniformly random ordered state with occupancy zeta."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    state = list(class_representative(zeta))
    rng.shuffle(state)
    return tuple(state)


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
