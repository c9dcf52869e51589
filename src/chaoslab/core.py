"""Symmetric n-particle laws on finite state spaces, in occupancy form.

A symmetric law on S^n is constant on permutation orbits of ordered states,
so it can be stored as one mass per occupancy vector (type class).  This
compresses k^n ordered states down to C(n+k-1, k-1) classes, which is what
makes exact computations feasible for n in the hundreds.

A SymmetricLaw holds two read-only arrays: `occ`, the (S, k) occupancy
vectors of its support in canonical enumeration order, and `p`, their
positive masses.  Product laws, marginals and log-likelihoods are numpy
operations over these arrays.  Class sizes are doubles: products of
binomial coefficients from a cached Pascal triangle, exact below 2**53,
with a log-factorial fallback where they overflow.  Sums that feed gaps and
likelihoods use math.fsum.  A dense ordered representation and the exact
big-integer `class_size` are kept as small-n oracles.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, InvalidArgumentError

# Probability-mass bookkeeping tolerances.
MASS_TOL = 1e-12
NEG_CLAMP = -1e-15

# Dense ordered laws are permitted only while the flat index fits in 24 bits.
DENSE_INDEX_BITS = 24

# Largest n served by the Pascal table: C(1030, 515) exceeds the largest
# double, so beyond it the bulk of the class sizes overflow anyway and all
# rows take the log-factorial path.
PASCAL_ROWS = 1029

Occupancy = tuple  # tuple[int, ...] of per-state counts, summing to n


@dataclass(frozen=True)
class StateSpace:
    """An ordered finite set of particle states."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 1:
            raise InvalidArgumentError("state space needs at least one state")
        if len(set(labels)) != len(labels):
            raise InvalidArgumentError("state labels must be distinct")

    @property
    def k(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(str(label))

    @staticmethod
    def of_size(k: int) -> "StateSpace":
        return StateSpace(tuple(str(i) for i in range(k)))


@dataclass(frozen=True)
class Distribution:
    """A probability law on a StateSpace."""

    space: StateSpace
    p: tuple

    def __post_init__(self):
        p = tuple(float(x) for x in self.p)
        if len(p) != self.space.k:
            raise InvalidArgumentError("probability vector length != k")
        if not all(math.isfinite(x) for x in p):
            raise InvalidArgumentError("non-finite probability entry")
        if any(x < NEG_CLAMP for x in p):
            raise InvalidArgumentError("negative probability entry")
        p = tuple(0.0 if x < 0.0 else x for x in p)
        if abs(math.fsum(p) - 1.0) > MASS_TOL:
            raise InvalidArgumentError("probabilities do not sum to 1")
        object.__setattr__(self, "p", p)

    def as_array(self) -> np.ndarray:
        return np.array(self.p, dtype=float)

    @staticmethod
    def uniform(space: StateSpace) -> "Distribution":
        return Distribution(space, (1.0 / space.k,) * space.k)

    @staticmethod
    def point_mass(space: StateSpace, i: int) -> "Distribution":
        p = [0.0] * space.k
        p[i] = 1.0
        return Distribution(space, tuple(p))


@functools.lru_cache(maxsize=16)
def occupancy_array(k: int, n: int) -> np.ndarray:
    """All occupancy vectors of n particles over k states, one per row.

    Canonical order: first coordinate descending, then recursively the
    rest.  The result is cached and read-only.
    """
    # Each pass appends one coordinate: a row with r particles left expands
    # to r + 1 rows taking r, r - 1, ..., 0 of them; the last coordinate
    # takes whatever is left.
    first = np.arange(n, -1, -1, dtype=np.int64)
    cols, left = [first], n - first
    for _ in range(k - 2):
        counts = left + 1
        parent = np.repeat(np.arange(len(left)), counts)
        starts = np.cumsum(counts) - counts
        taken = left[parent] - (np.arange(len(parent)) - starts[parent])
        cols = [c[parent] for c in cols] + [taken]
        left = left[parent] - taken
    occ = np.stack(cols + [left], axis=1) if k > 1 else np.array([[n]], dtype=np.int64)
    occ.flags.writeable = False
    return occ


def enumerate_occupancies(space: StateSpace, n: int) -> list:
    """All occupancy vectors of n particles over the space, in canonical order."""
    if n < 1:
        raise InvalidArgumentError(f"particle count must be >= 1, got {n}")
    return [tuple(m) for m in occupancy_array(space.k, n).tolist()]


def occupancy_sort_key(m: Occupancy):
    """Sort key reproducing the enumeration order of enumerate_occupancies."""
    return tuple(-x for x in m)


def class_size(m: Occupancy) -> int:
    """Orbit size of the occupancy class under coordinate permutations.

    Exact multinomial coefficient n! / prod(m_i!), as a Python big integer.
    """
    n = sum(m)
    size = math.factorial(n)
    for mi in m:
        size //= math.factorial(mi)
    return size


def _build_pascal(rows: int) -> np.ndarray:
    table = np.zeros((rows + 1, rows + 1))
    table[:, 0] = 1.0
    for a in range(1, rows + 1):
        table[a, 1:a + 1] = table[a - 1, 1:a + 1] + table[a - 1, :a]
    table.flags.writeable = False
    return table


# One Pascal table serves every n up to its size; it is rebuilt only when a
# larger n asks, so a grid of n values holds one table, not one per n.
_pascal = _build_pascal(0)


def _binomials(n: int) -> np.ndarray:
    global _pascal
    if len(_pascal) <= n:
        _pascal = _build_pascal(n)
    return _pascal


def _class_sizes(occ: np.ndarray, n: int) -> np.ndarray:
    """n! / prod(m_i!) per row as doubles, inf where it may overflow.

    The multinomial is the product over i >= 1 of C(m_0 + ... + m_i, m_i),
    each binomial from Pascal's triangle, exact below 2**53.
    """
    if n > PASCAL_ROWS:
        return np.full(len(occ), np.inf)
    binom = _binomials(n)
    partial = np.cumsum(occ, axis=1)
    sizes = np.ones(len(occ))
    with np.errstate(over="ignore"):
        for i in range(1, occ.shape[1]):
            sizes *= binom[partial[:, i], occ[:, i]]
    return sizes


def _log_class_sizes(occ: np.ndarray, n: int) -> np.ndarray:
    """Natural log of the class sizes, via log-factorials where they overflow."""
    sizes = _class_sizes(occ, n)
    logs = np.log(sizes)
    big = np.isinf(sizes)
    if big.any():
        lf = np.array([math.lgamma(a + 1) for a in range(n + 1)])
        logs[big] = lf[n] - lf[occ[big]].sum(axis=1)
    return logs


def occupancy_of(space: StateSpace, s: Sequence) -> Occupancy:
    m = [0] * space.k
    for si in s:
        m[si] += 1
    return tuple(m)


def _check_dense_capacity(k: int, n: int) -> None:
    if n * math.log2(k if k > 1 else 2) > DENSE_INDEX_BITS:
        raise CapacityError(
            f"dense ordered law needs {n} * log2({k}) <= {DENSE_INDEX_BITS} index bits"
        )


class OrderedLaw:
    """Dense law on S^n indexed by ordered tuples; small-n oracle only.

    The flat index treats the first coordinate as most significant:
    index(s) = sum_i s_i * k^(n-1-i).
    """

    def __init__(self, space: StateSpace, n: int, probs):
        _check_dense_capacity(space.k, n)
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (space.k**n,):
            raise InvalidArgumentError("dense vector has wrong length")
        if probs.min() < NEG_CLAMP:
            raise InvalidArgumentError("negative dense probability")
        probs = np.where(probs < 0.0, 0.0, probs)
        if abs(math.fsum(probs.tolist()) - 1.0) > MASS_TOL:
            raise InvalidArgumentError("dense probabilities do not sum to 1")
        self.space = space
        self.n = n
        self.probs = probs

    def index(self, s: Sequence) -> int:
        idx = 0
        for si in s:
            idx = idx * self.space.k + si
        return idx

    def tuples(self) -> Iterator[tuple]:
        return itertools.product(range(self.space.k), repeat=self.n)


class SymmetricLaw:
    """A symmetric law on S^n stored as mass per occupancy class.

    `occ` is the (S, k) int array of support classes in canonical
    enumeration order and `p` the matching positive masses; both are
    read-only.  `classes`, `items()` and `mass()` are dict views built on
    first use.
    """

    def __init__(self, space: StateSpace, n: int, classes: dict):
        if n < 1:
            raise InvalidArgumentError("particle count must be >= 1")
        clean = {}
        for m, mass in classes.items():
            m = tuple(int(x) for x in m)
            if len(m) != space.k or any(x < 0 for x in m) or sum(m) != n:
                raise InvalidArgumentError(f"bad occupancy key {m} for n={n}, k={space.k}")
            mass = float(mass)
            if mass < NEG_CLAMP:
                raise InvalidArgumentError(f"negative class mass {mass} at {m}")
            if mass > 0.0:
                clean[m] = mass
        if abs(math.fsum(clean.values()) - 1.0) > MASS_TOL:
            raise InvalidArgumentError("class masses do not sum to 1")
        order = sorted(clean, key=occupancy_sort_key)
        self._set(space, n, np.array(order, dtype=np.int64),
                  np.array([clean[m] for m in order]))

    def _set(self, space, n, occ, p):
        occ.flags.writeable = False
        p.flags.writeable = False
        self.space, self.n, self.occ, self.p = space, n, occ, p

    @classmethod
    def from_arrays(cls, space: StateSpace, n: int, occ: np.ndarray, p: np.ndarray):
        """A law from distinct classes already in canonical order.

        Classes with zero mass are dropped; the masses must sum to 1.
        """
        keep = p > 0.0
        if not keep.all():
            occ, p = occ[keep], p[keep]
        if abs(float(np.sum(p)) - 1.0) > MASS_TOL:
            raise InvalidArgumentError("class masses do not sum to 1")
        law = cls.__new__(cls)
        law._set(space, n, occ, p)
        return law

    @functools.cached_property
    def classes(self) -> dict:
        return dict(zip(map(tuple, self.occ.tolist()), self.p.tolist()))

    def mass(self, m: Occupancy) -> float:
        return self.classes.get(tuple(m), 0.0)

    def items(self):
        return self.classes.items()

    @staticmethod
    def point_class(space: StateSpace, m: Occupancy) -> "SymmetricLaw":
        return SymmetricLaw(space, sum(m), {tuple(m): 1.0})

    @staticmethod
    def mixture(components) -> "SymmetricLaw":
        """Convex combination of symmetric laws on the same space and n."""
        components = list(components)
        space = components[0][0].space
        n = components[0][0].n
        out: dict = {}
        for law, weight in components:
            if law.space != space or law.n != n:
                raise InvalidArgumentError("mixture components live on different spaces")
            for m, mass in law.items():
                out[m] = out.get(m, 0.0) + weight * mass
        return SymmetricLaw(space, n, out)


def product_law(p: Distribution, n: int) -> SymmetricLaw:
    """The i.i.d. law p^(x)n in occupancy form: multinomial(n, p).

    Class size times prod p_i^m_i in doubles; rows where the class size
    overflows or a power underflows are redone in log space, and then the
    whole law is renormalised.
    """
    if n < 1:
        raise InvalidArgumentError("particle count must be >= 1")
    occ = occupancy_array(p.space.k, n)
    q = p.as_array()
    sizes = _class_sizes(occ, n)
    powers = np.prod(q ** occ, axis=1)
    possible = ~(occ[:, q == 0.0] > 0).any(axis=1)
    with np.errstate(invalid="ignore"):  # inf * 0 on impossible rows
        mass = np.where(possible, sizes * powers, 0.0)
    # Factors are <= 1, so a product of powers above the smallest normal
    # double never passed through a subnormal on the way.
    lost = possible & (np.isinf(sizes) | (powers < np.finfo(float).tiny))
    if lost.any():
        sub = occ[lost]
        with np.errstate(divide="ignore"):
            log_q = np.where(q > 0.0, np.log(q), 0.0)
        mass[lost] = np.exp(_log_class_sizes(sub, n) + sub @ log_q)
        mass /= math.fsum(mass.tolist())
    return SymmetricLaw.from_arrays(p.space, n, occ, mass)


def _uniform_on_classes(space: StateSpace, n: int, occ: np.ndarray) -> SymmetricLaw:
    """The uniform law on the ordered states of the given classes.

    `occ` holds distinct classes in canonical order; each gets mass
    proportional to its class size.
    """
    sizes = _class_sizes(occ, n)
    # Rescale in log space when a size, or only their sum, would overflow.
    if not sizes.max() <= np.finfo(float).max / len(sizes):
        logs = _log_class_sizes(occ, n)
        sizes = np.exp(logs - logs.max())
    return SymmetricLaw.from_arrays(space, n, occ, sizes / math.fsum(sizes.tolist()))


def symmetrize(dense: OrderedLaw) -> SymmetricLaw:
    """Aggregate a dense ordered law over permutation orbits.

    Equals averaging over all n! permutations and then grouping by class.
    """
    buckets: dict = {}
    for idx, s in enumerate(dense.tuples()):
        pr = dense.probs[idx]
        if pr == 0.0:
            continue
        buckets.setdefault(occupancy_of(dense.space, s), []).append(pr)
    classes = {m: math.fsum(v) for m, v in buckets.items()}
    return SymmetricLaw(dense.space, dense.n, classes)


def to_dense(law: SymmetricLaw) -> OrderedLaw:
    """Expand a symmetric law to the dense ordered oracle representation."""
    _check_dense_capacity(law.space.k, law.n)
    per_point = {m: mass / class_size(m) for m, mass in law.items()}
    probs = np.zeros(law.space.k**law.n)
    for idx, s in enumerate(itertools.product(range(law.space.k), repeat=law.n)):
        pr = per_point.get(occupancy_of(law.space, s))
        if pr is not None:
            probs[idx] = pr
    return OrderedLaw(law.space, law.n, probs)


def marginal(law: SymmetricLaw, j: int) -> SymmetricLaw:
    """Law of the first j coordinates, again in occupancy form.

    An ordered j-tuple with counts c has probability
        sum_m mass(m) * prod_i (m_i)_(c_i) / (n)_j,
    the chance of drawing that tuple without replacement from the class;
    each weight is a product of draw probabilities (m_i - t) / (n - g) <= 1.
    """
    n = law.n
    if not 1 <= j <= n:
        raise InvalidArgumentError(f"marginal order {j} out of range 1..{n}")
    if j == n:
        return law
    counts = law.occ.T.astype(float)
    cls = occupancy_array(law.space.k, j)
    ordered = np.empty(len(cls))
    for row, c in enumerate(cls.tolist()):
        w = law.p
        drawn = 0
        for i, ci in enumerate(c):
            for t in range(ci):
                w = w * ((counts[i] - t) / (n - drawn))
                drawn += 1
        ordered[row] = math.fsum(w.tolist())
    return SymmetricLaw.from_arrays(law.space, j, cls, ordered * _class_sizes(cls, j))


def tv_distance(a, b) -> float:
    """Total variation distance: half the L1 distance over ordered points.

    Accepts two Distributions or two SymmetricLaws on the same space (and n).
    For symmetric laws the class masses already aggregate orbits, so the
    ordered-point L1 equals the class-mass L1.
    """
    if isinstance(a, Distribution) and isinstance(b, Distribution):
        if a.space != b.space:
            raise InvalidArgumentError("distributions on different spaces")
        return 0.5 * math.fsum(abs(x - y) for x, y in zip(a.p, b.p))
    if isinstance(a, SymmetricLaw) and isinstance(b, SymmetricLaw):
        if a.space != b.space or a.n != b.n:
            raise InvalidArgumentError("laws on different spaces or particle counts")
        keys = set(a.classes) | set(b.classes)
        return 0.5 * math.fsum(abs(a.mass(m) - b.mass(m)) for m in keys)
    raise InvalidArgumentError("tv_distance needs two objects of the same kind")


def specific_loglik(law: SymmetricLaw) -> float:
    """(1/n) * sum over ordered points of rho log rho, with 0 log 0 = 0.

    In class form this is (1/n) * sum_m mass(m) log(mass(m) / class_size(m)).
    """
    terms = law.p * (np.log(law.p) - _log_class_sizes(law.occ, law.n))
    return math.fsum(terms.tolist()) / law.n


def mean_empirical_tv(law: SymmetricLaw, p: Distribution) -> float:
    """Expected TV distance between the empirical measure and p under the law."""
    if law.space != p.space:
        raise InvalidArgumentError("law and target on different spaces")
    dist = 0.5 * np.abs(law.occ / law.n - p.as_array()).sum(axis=1)
    return math.fsum((law.p * dist).tolist())


# JSON wire format for symmetric laws:
#   {"labels": [...], "n": N, "classes": [{"m": [...], "mass": x}, ...]}
# with classes in the canonical enumeration order and 17-significant-digit
# masses (so serialization round-trips doubles exactly).


def law_to_json(law: SymmetricLaw) -> str:
    labels = ",".join(f'"{x}"' for x in law.space.labels)
    rows = []
    for m, mass in law.items():
        rows.append('{"m":[%s],"mass":%.17g}' % (",".join(str(x) for x in m), mass))
    return '{"labels":[%s],"n":%d,"classes":[%s]}' % (labels, law.n, ",".join(rows))


def law_from_json(text: str) -> SymmetricLaw:
    import json

    doc = json.loads(text)
    space = StateSpace(tuple(doc["labels"]))
    classes = {tuple(row["m"]): float(row["mass"]) for row in doc["classes"]}
    return SymmetricLaw(space, int(doc["n"]), classes)
