import functools
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from chaoslab import (
    Distribution,
    OrderedLaw,
    StateSpace,
    SumConservingRule,
    SymmetricLaw,
    enumerate_occupancies,
    symmetrize,
    to_dense,
)


def random_distribution(space, rng):
    return Distribution(space, tuple(rng.dirichlet(np.ones(space.k))))


def random_symmetric_law(rng, n=None, k=None, max_n=6, max_k=3):
    """Random symmetric law via Dirichlet masses on the occupancy classes."""
    k = k or int(rng.integers(2, max_k + 1))
    n = n or int(rng.integers(2, max_n + 1))
    space = StateSpace.of_size(k)
    occs = enumerate_occupancies(space, n)
    masses = rng.dirichlet(np.ones(len(occs)))
    return SymmetricLaw(space, n, dict(zip(occs, masses)))


def dense_marginal_probs(dense: OrderedLaw, j: int) -> np.ndarray:
    """Brute-force marginal of the first j coordinates of a dense law."""
    k, n = dense.space.k, dense.n
    arr = dense.probs.reshape((k,) * n)
    return arr.sum(axis=tuple(range(j, n))).reshape(-1)


def dense_specific_loglik(dense: OrderedLaw) -> float:
    terms = [p * math.log(p) for p in dense.probs if p > 0.0]
    return math.fsum(terms) / dense.n


def ordered_probs_of_law(law: SymmetricLaw) -> dict:
    """Map ordered tuples to probabilities without going through to_dense."""
    from chaoslab.core import class_size, occupancy_of

    out = {}
    for s in itertools.product(range(law.space.k), repeat=law.n):
        m = occupancy_of(law.space, s)
        mass = law.mass(m)
        if mass:
            out[s] = mass / class_size(m)
    return out


def flat_index(s, k):
    """OrderedLaw's flat index: the first coordinate is most significant."""
    idx = 0
    for si in s:
        idx = idx * k + si
    return idx


def ordered_law_matrix(kernel) -> np.ndarray:
    """Dense transition matrix over ordered states from a kernel's ordered_law."""
    k, kt, n = kernel.source.k, kernel.target.k, kernel.n
    M = np.zeros((k**n, kt**n))
    for i, s in enumerate(itertools.product(range(k), repeat=n)):
        for t, pr in kernel.ordered_law(s).items():
            M[i, flat_index(t, kt)] += pr
    return M


@functools.lru_cache(maxsize=None)
def dense_kac_matrix(k, n, lam, t) -> np.ndarray:
    """Ordered-state oracle for the Kac chain with SumConservingRule(k).

    Each ordered pair i < j of particles collides at rate lam/n and is
    resampled by the pair rule; the transition matrix over time t is
    expm(t * Q) of that generator on all k^n ordered states.
    """
    rule = SumConservingRule(k)
    rate = lam / n
    Q = np.zeros((k**n, k**n))
    for idx, s in enumerate(itertools.product(range(k), repeat=n)):
        for i, j in itertools.combinations(range(n), 2):
            for (a, b), pr in rule.outcomes(s[i], s[j]):
                s2 = list(s)
                s2[i], s2[j] = a, b
                Q[idx, flat_index(s2, k)] += rate * pr
            Q[idx, idx] -= rate
    return expm(t * Q)


def propagate_dense(law: SymmetricLaw, target: StateSpace, M: np.ndarray) -> SymmetricLaw:
    """Oracle for propagate: expand the law, step it with an ordered matrix, symmetrize."""
    return symmetrize(OrderedLaw(target, law.n, to_dense(law).probs @ M))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# Dict and big-integer oracles for the array-backed operations: per-class
# loops returning {occupancy: mass} dicts in canonical enumeration order.
# Window membership in oracle_microcanonical is decided in exact rationals.


def oracle_compositions(n, k):
    # Canonical enumeration order: first coordinate descending, recursively.
    if k == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in oracle_compositions(n - first, k - 1):
            yield (first,) + rest


def oracle_product_law(p, n):
    from chaoslab.core import class_size

    out = {}
    for m in oracle_compositions(n, len(p)):
        mass = float(class_size(m))
        for pi, mi in zip(p, m):
            mass *= pi**mi
        if mass > 0.0:
            out[m] = mass
    return out


def oracle_marginal(classes, n, k, j):
    from chaoslab.core import class_size

    denom = math.perm(n, j)
    out = {}
    for c in oracle_compositions(j, k):
        terms = []
        for m, mass in classes.items():
            w = 1
            for mi, ci in zip(m, c):
                if ci > mi:
                    w = 0
                    break
                w *= math.perm(mi, ci)
            if w:
                terms.append(mass * (w / denom))
        ordered_prob = math.fsum(terms)
        if ordered_prob > 0.0:
            out[c] = ordered_prob * class_size(c)
    return out


def oracle_specific_loglik(classes, n):
    from chaoslab.core import class_size

    terms = [mass * (math.log(mass) - math.log(class_size(m))) for m, mass in classes.items()]
    return math.fsum(terms) / n


def oracle_mean_empirical_tv(classes, n, p):
    return math.fsum(
        mass * 0.5 * math.fsum(abs(mi / n - pi) for mi, pi in zip(m, p))
        for m, mass in classes.items()
    )


def oracle_tv_distance(a, b):
    return 0.5 * math.fsum(abs(a.get(m, 0.0) - b.get(m, 0.0)) for m in set(a) | set(b))


def oracle_microcanonical(H, E, delta, n):
    """Class masses of the microcanonical law, or None for an empty window."""
    from fractions import Fraction

    from chaoslab.core import class_size

    H = [Fraction(str(h)) for h in H]
    half = Fraction(str(delta)) / 2
    lo, hi = Fraction(str(E)) - half, Fraction(str(E)) + half
    sizes = {}
    for m in oracle_compositions(n, len(H)):
        if lo < sum(mi * h for mi, h in zip(m, H)) / n < hi:
            sizes[m] = class_size(m)
    if not sizes:
        return None
    total = sum(sizes.values())
    return {m: cs / total for m, cs in sizes.items()}
