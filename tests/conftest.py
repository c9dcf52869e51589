import functools
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from chaoslab import (
    Distribution,
    PairRule,
    StateSpace,
    SumConservingRule,
    SymmetricLaw,
    enumerate_occupancies,
)
from chaoslab.core import (
    MASS_TOL,
    NEG_CLAMP,
    PASCAL_ROWS,
    _sum,
    class_index,
    occupancy_array,
)
from chaoslab.errors import CapacityError, InvalidArgumentError
from chaoslab.meanfield import default_rule

# Brute-force oracles on ordered states, for small n only: the dense law
# on S^n, its orbit aggregation and expansion, and exact big-integer class
# sizes.  The array-backed code in chaoslab is checked against them.

# Dense ordered laws are permitted only while the flat index fits in 24 bits.
DENSE_INDEX_BITS = 24


def class_size(m) -> int:
    """Orbit size of the occupancy class under coordinate permutations.

    Exact multinomial coefficient n! / prod(m_i!), as a Python big integer.
    """
    n = sum(m)
    size = math.factorial(n)
    for mi in m:
        size //= math.factorial(mi)
    return size


def occupancy_of(space: StateSpace, s) -> tuple:
    """The occupancy class of the ordered state s."""
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
    """Dense law on S^n indexed by ordered tuples.

    The flat index (`flat_index`) treats the first coordinate as most
    significant: index(s) = sum_i s_i * k^(n-1-i).
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

    def tuples(self):
        return itertools.product(range(self.space.k), repeat=self.n)


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
    return SymmetricLaw(dense.space, dense.n, list(classes), list(classes.values()))


def to_dense(law: SymmetricLaw) -> OrderedLaw:
    """Expand a symmetric law to the dense ordered oracle representation."""
    _check_dense_capacity(law.space.k, law.n)
    per_point = {m: mass / class_size(m) for m, mass in law.classes.items()}
    probs = np.zeros(law.space.k**law.n)
    for idx, s in enumerate(itertools.product(range(law.space.k), repeat=law.n)):
        pr = per_point.get(occupancy_of(law.space, s))
        if pr is not None:
            probs[idx] = pr
    return OrderedLaw(law.space, law.n, probs)


def map_ordered_law(fmap):
    """The ordered spec of map_kernel(fmap, ...): state s goes to its image."""
    return lambda s: {tuple(fmap[si] for si in s): 1.0}


def pushforward(P, fmap, k: int) -> np.ndarray:
    """Image laws of the rows of the stack P under the state map fmap, on k
    states, summed state by state: the oracle of a map kernel's limit."""
    Q = np.zeros((len(P), k))
    for s, t in enumerate(fmap):
        Q[:, t] += np.asarray(P)[:, s]
    return Q


def counterexample_ordered_law(n):
    """The ordered spec of counterexample_kernel(n): the all-zero state stays,
    every other state goes to all-ones."""
    zeros, ones = (0,) * n, (1,) * n
    return lambda s: {zeros if tuple(s) == zeros else ones: 1.0}


def _rhs_from_tensor(P: np.ndarray, lam: float, kappa: np.ndarray) -> np.ndarray:
    out = np.einsum("vuw,bu,bw->bv", kappa, P, P)
    out -= P
    out *= lam
    return out


def oracle_collision_tensor(k: int, rule=None) -> np.ndarray:
    """kappa[v, u, w] summed straight from the outcome lists: each outcome
    (a, b) of the pair (u, w) puts half its probability on a and half on b."""
    rule = rule or default_rule(k)
    kappa = np.zeros((k, k, k))
    for u in range(k):
        for w in range(k):
            for (a, b), pr in rule.outcomes(u, w):
                kappa[a, u, w] += 0.5 * pr
                kappa[b, u, w] += 0.5 * pr
    return kappa


def kac_limit_rhs(p: Distribution, lam: float, rule=None) -> np.ndarray:
    """Right-hand side lam * (Q(p) - p) of the collision limit equation, for one law.

    Q(p)(v) = sum_{u,w} p(u) p(w) kappa(v | u, w); the output sums to zero.
    """
    kappa = oracle_collision_tensor(p.space.k, rule)
    return _rhs_from_tensor(p.as_array()[None, :], lam, kappa)[0]


def oracle_kac_limit_evolve(P, lam: float, t: float, dt: float = 1e-3, rule=None) -> np.ndarray:
    """The collision limit equation integrated by classic RK4 at fixed step
    dt, for a (B, k) stack of laws: after every step each row has its tiny
    negative entries clamped and is renormalised, and a row that leaves the
    simplex by more than 1e-6 fails an assertion."""
    P = np.asarray(P, dtype=float)
    kappa = oracle_collision_tensor(P.shape[1], rule)
    steps = max(1, int(math.ceil(t / dt)))
    h = t / steps
    for _ in range(steps):
        k1 = _rhs_from_tensor(P, lam, kappa)
        k2 = _rhs_from_tensor(P + 0.5 * h * k1, lam, kappa)
        k3 = _rhs_from_tensor(P + 0.5 * h * k2, lam, kappa)
        k4 = _rhs_from_tensor(P + h * k3, lam, kappa)
        P = P + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        total = P.sum(axis=1, keepdims=True)
        assert P.min() >= -1e-6 and np.abs(total - 1.0).max() <= 1e-6, "RK4 left the simplex"
        P = np.where(P < 0.0, 0.0, P)
        P /= P.sum(axis=1, keepdims=True)
    return P


class SwapRule(PairRule):
    """Colliding particles exchange states: the one-particle law never moves."""

    def outcomes(self, u, w):
        return [((w, u), 1.0)]


def random_distribution(space, rng):
    return Distribution(space, tuple(rng.dirichlet(np.ones(space.k))))


def random_symmetric_law(rng, n=None, k=None, max_n=6, max_k=3):
    """Random symmetric law via Dirichlet masses on the occupancy classes."""
    k = k or int(rng.integers(2, max_k + 1))
    n = n or int(rng.integers(2, max_n + 1))
    space = StateSpace.of_size(k)
    occs = enumerate_occupancies(space, n)
    masses = rng.dirichlet(np.ones(len(occs)))
    return SymmetricLaw(space, n, occs, masses)


def dense_marginal_probs(dense: OrderedLaw, j: int) -> np.ndarray:
    """Brute-force marginal of the first j coordinates of a dense law."""
    k, n = dense.space.k, dense.n
    arr = dense.probs.reshape((k,) * n)
    return arr.sum(axis=tuple(range(j, n))).reshape(-1)


def dense_specific_loglik(dense: OrderedLaw) -> float:
    terms = [p * math.log(p) for p in dense.probs if p > 0.0]
    return math.fsum(terms) / dense.n


def flat_index(s, k):
    """OrderedLaw's flat index: the first coordinate is most significant."""
    idx = 0
    for si in s:
        idx = idx * k + si
    return idx


def ordered_law_matrix(kernel, ordered_law) -> np.ndarray:
    """Dense transition matrix over ordered states from an ordered law on the
    kernel's spaces and n."""
    k, kt, n = kernel.source.k, kernel.target.k, kernel.n
    M = np.zeros((k**n, kt**n))
    for i, s in enumerate(itertools.product(range(k), repeat=n)):
        for t, pr in ordered_law(s).items():
            M[i, flat_index(t, kt)] += pr
    return M


def equivariance_violation(kernel, M) -> float:
    """Largest |K(pi.s, pi.t) - K(s, t)| over the adjacent transpositions pi,
    for a dense ordered matrix M on the kernel's spaces and n."""
    k, kt, n = kernel.source.k, kernel.target.k, kernel.n
    K = M.reshape((k,) * n + (kt,) * n)
    return max((np.abs(K - K.swapaxes(i, i + 1).swapaxes(n + i, n + i + 1)).max()
                for i in range(n - 1)), default=0.0)


def ordered_class_matrix(kernel, M) -> tuple:
    """The class matrix (src, dst, prob) of a dense ordered matrix M: the rows
    of the class representatives (each class's sorted state), with their
    columns summed by target class."""
    k, kt, n = kernel.source.k, kernel.target.k, kernel.n
    reps = [flat_index(np.repeat(np.arange(k), m), k) for m in occupancy_array(k, n)]
    states = np.indices((kt,) * n).reshape(n, -1).T  # ordered states in flat-index order
    cols = class_index((states[:, :, None] == np.arange(kt)).sum(axis=1), n)
    C = M[reps] @ np.eye(len(occupancy_array(kt, n)))[cols]
    src, dst = np.nonzero(C > 0)
    return src, dst, C[src, dst]


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
    out = {}
    for m in oracle_compositions(n, len(p)):
        mass = float(class_size(m))
        for pi, mi in zip(p, m):
            mass *= pi**mi
        if mass > 0.0:
            out[m] = mass
    return out


def oracle_marginal(classes, n, k, j):
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


def marginal_law(law: SymmetricLaw, j: int) -> SymmetricLaw:
    """The law of the first j <= n coordinates in occupancy form:
    oracle_marginal wrapped as a SymmetricLaw, for every order j."""
    classes = oracle_marginal(law.classes, law.n, law.space.k, j)
    return SymmetricLaw(law.space, j, list(classes), list(classes.values()))


def oracle_ordered_marginal(classes, n, k, j) -> np.ndarray:
    """oracle_marginal for j = 1 or 2 as the ordered (k,) or (k, k) array
    that `marginal` returns: the mass of the two-particle class of u and
    w != u goes half to (u, w) and half to (w, u)."""
    out = np.zeros((k,) * j)
    for c, mass in oracle_marginal(classes, n, k, j).items():
        drawn = tuple(np.repeat(np.arange(k), c))
        if len(set(drawn)) == 1:
            out[drawn] = mass
        else:
            out[drawn] = out[drawn[::-1]] = mass / 2
    return out


def oracle_specific_loglik(classes, n):
    terms = [mass * (math.log(mass) - math.log(class_size(m))) for m, mass in classes.items()]
    return math.fsum(terms) / n


def oracle_mean_empirical_tv(classes, n, p):
    return math.fsum(
        mass * 0.5 * math.fsum(abs(mi / n - pi) for mi, pi in zip(m, p))
        for m, mass in classes.items()
    )


def law_tv_distance(a: SymmetricLaw, b: SymmetricLaw) -> float:
    """Total variation distance of two symmetric laws on the same space and
    n: the class masses already aggregate orbits, so the ordered-point L1
    equals the class-mass L1."""
    if a.space != b.space or a.n != b.n:
        raise InvalidArgumentError("laws on different spaces or particle counts")
    return 0.5 * _sum(np.abs(a.vector() - b.vector()))


def oracle_tv_distance(a, b):
    return 0.5 * math.fsum(abs(a.get(m, 0.0) - b.get(m, 0.0)) for m in set(a) | set(b))


def oracle_propagate(classes, rows):
    """propagate as a dict merge: each source class in order adds mass * prob
    to every target class of its row, zeros dropped."""
    out = {}
    for m, mass in classes.items():
        for m2, pr in rows[m].items():
            out[m2] = out.get(m2, 0.0) + mass * pr
    return {m: x for m, x in out.items() if x > 0.0}


def oracle_class_moves(rule, k):
    """The rule's class moves merged from `rule.outcomes`: the sorted
    distinct nonzero changes of the occupancy made with positive
    probability, and per change a dict {(u, w): summed probability}."""
    moves = {}
    for u in range(k):
        for w in range(k):
            for (a, b), pr in rule.outcomes(u, w):
                change = [0] * k
                change[a] += 1
                change[b] += 1
                change[u] -= 1
                change[w] -= 1
                if pr > 0 and any(change):
                    row = moves.setdefault(tuple(change), {})
                    row[u, w] = row.get((u, w), 0.0) + pr
    return sorted(moves), moves


def oracle_move_weight(counts, coeffs):
    """sum_uw coeffs[u, w] m_u (m_w - [u == w]) over the counts, in (u, w) order."""
    k = len(counts)
    weight = 0.0
    for u in range(k):
        for w in range(k):
            weight += coeffs.get((u, w), 0.0) * (float(counts[u]) * (float(counts[w]) - (u == w)))
    return weight


def oracle_move_weights(table, M):
    """The (B, D) move weights of a (B, k) stack of occupancies in the dense
    form: every coefficient of the move table, zero or not, times the float
    pair count m_u (m_w - [u == w]), added along the k^2 (u, w) axis by
    np.add.accumulate."""
    M = np.asarray(M, dtype=float)
    B, k = M.shape
    pairs = M[:, :, None] * (M[:, None, :] - np.eye(k))
    return np.add.accumulate(table.coeffs * pairs.reshape(B, 1, k * k), axis=2)[:, :, -1]


def oracle_kac_event_matrix(k, n, rule):
    """One-collision class matrix by a per-class loop over a dict index.

    Each class m moves to m + d with probability weight / (n (n - 1)), the
    weight summed in (u, w) order, and keeps the rest, 1 minus its moves'
    probabilities added in change order, the order the vectorised builder
    adds them in, so the two agree bit for bit.
    """
    classes = list(oracle_compositions(n, k))
    index = {m: i for i, m in enumerate(classes)}
    changes, moves = oracle_class_moves(rule, k)
    P = np.zeros((len(classes), len(classes)))
    for i, m in enumerate(classes):
        moved = 0.0
        for d in changes:
            prob = oracle_move_weight(m, moves[d]) / (n * (n - 1))
            if prob > 0.0:
                P[i, index[tuple(a + b for a, b in zip(m, d))]] = prob
            moved += prob
        P[i, i] = 1.0 - moved
    return P


def oracle_blocks(P):
    """The classes of each diagonal block of P: the connected components of
    the graph with an edge wherever P > 0, in either direction, each as a
    sorted rank array.  Each class is labelled with the smallest rank
    joined to it, propagated along the edges and by jumping to the label's
    own label until nothing changes."""
    src, dst = np.nonzero(P)
    label = np.arange(len(P))
    while True:
        low = np.minimum(label[src], label[dst])
        joined = label.copy()
        np.minimum.at(joined, src, low)
        np.minimum.at(joined, dst, low)
        joined = joined[joined]
        if np.array_equal(joined, label):
            break
        label = joined
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def per_size_shell_stacks(k, n, rule):
    """The one-collision class matrix's shell blocks one stack per shell
    size, unpadded: per size, the (B, size) ranks of its B shells and their
    (B, size, size) blocks, each shell in rank order."""
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
    by_size = np.argsort(sizes, kind="stable")
    corner = np.empty_like(starts)
    corner[by_size] = np.cumsum(sizes[by_size] ** 2) - sizes[by_size] ** 2
    shell = np.repeat(np.arange(len(starts)), sizes)
    pos, row = np.empty_like(order), np.empty_like(order)
    pos[order] = np.arange(len(occ)) - starts[shell]
    row[order] = corner[shell] + pos[order] * sizes[shell]
    flat = np.zeros(int(sizes @ sizes))
    flat[row + pos] = 1.0 - sum(prob, np.zeros(len(occ)))
    flat[row[rows] + pos[cols]] = prob[moves, rows]
    for group in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
        size, first = int(sizes[group[0]]), corner[group[0]]
        P = flat[first:first + len(group) * size * size].reshape(-1, size, size)
        yield order[starts[group, None] + np.arange(size)], P


def per_size_kac_rows(k, n, rule, rate_time):
    """The exact Kac rows (src, dst, prob) by the same Poisson series and
    renormalised squarings as `kernels._kac_rows`, run once per shell size
    on the unpadded stacks of `per_size_shell_stacks`."""
    s = max(0, math.frexp(rate_time)[1])
    theta = math.ldexp(rate_time, -s)
    weights = [math.exp(-theta)]
    while weights[-1] * theta / (len(weights) - theta) > math.ldexp(1.0, -53 - s):
        weights.append(weights[-1] * theta / len(weights))
    entries = []
    for members, P in per_size_shell_stacks(k, n, rule):
        term = np.broadcast_to(np.eye(P.shape[-1]), P.shape)
        A = weights[0] * term
        for w in weights[1:]:
            term = term @ P
            A += w * term
        for _ in range(s):
            A = A @ A
            A /= A.sum(axis=2, keepdims=True)
        b, i, j = np.nonzero(A > 0)
        entries.append((members[b, i], members[b, j], A[b, i, j]))
    src, dst, prob = map(np.concatenate, zip(*entries))
    order = np.argsort(src, kind="stable")
    return src[order], dst[order], prob[order]


def point_class(space: StateSpace, m) -> SymmetricLaw:
    """The law with all its mass on the class m."""
    return SymmetricLaw(space, sum(m), [m], [1.0])


def mixture(components) -> SymmetricLaw:
    """Convex combination of symmetric laws on the same space and n, over
    the union of their supports: their rows and weighted masses given to
    the constructor, which sorts and merges them."""
    components = list(components)
    space, n = components[0][0].space, components[0][0].n
    if any(law.space != space or law.n != n for law, _ in components):
        raise InvalidArgumentError("mixture components live on different spaces")
    return SymmetricLaw(space, n, np.concatenate([law.occ for law, _ in components]),
                        np.concatenate([weight * law.p for law, weight in components]))


# Row-wise references of core's class arithmetic: each per-class quantity
# as an (S, k) array reduced along its k-wide axis, the form core computed
# them in before it read occupancy columns and per-count tables.  They read
# `occ` C-ordered, as every occupancy array of that code was, and
# test_differential requires core to give the same bits.


def rowwise_pascal(rows):
    """Pascal's triangle to row `rows`, row-major: C(a, b) at [a, b], 0 for b > a."""
    table = np.zeros((rows + 1, rows + 1))
    table[:, 0] = 1.0
    for a in range(1, rows + 1):
        table[a, 1:a + 1] = table[a - 1, 1:a + 1] + table[a - 1, :a]
    return table


def rowwise_class_sizes(occ, n):
    if n > PASCAL_ROWS:
        return np.full(len(occ), np.inf)
    occ = np.ascontiguousarray(occ)
    binom = rowwise_pascal(n)
    partial = np.cumsum(occ, axis=1)
    sizes = np.ones(len(occ))
    with np.errstate(over="ignore"):
        for i in range(1, occ.shape[1]):
            sizes *= binom[partial[:, i], occ[:, i]]
    return sizes


def rowwise_log_class_sizes(occ, n):
    occ = np.ascontiguousarray(occ)
    sizes = rowwise_class_sizes(occ, n)
    logs = np.log(sizes)
    big = np.isinf(sizes)
    if big.any():
        lf = np.array([math.lgamma(a + 1) for a in range(n + 1)])
        logs[big] = lf[n] - lf[occ[big]].sum(axis=1)
    return logs


def rowwise_product_law(p: Distribution, n: int) -> SymmetricLaw:
    occ = np.ascontiguousarray(occupancy_array(p.space.k, n))
    q = p.as_array()
    sizes = rowwise_class_sizes(occ, n)
    powers = np.prod(q ** occ, axis=1)
    possible = ~(occ[:, q == 0.0] > 0).any(axis=1)
    with np.errstate(invalid="ignore"):
        mass = np.where(possible, sizes * powers, 0.0)
    lost = possible & (np.isinf(sizes) | (powers < np.finfo(float).tiny))
    if lost.any():
        sub = occ[lost]
        with np.errstate(divide="ignore"):
            log_q = np.where(q > 0.0, np.log(q), 0.0)
        mass[lost] = np.exp(rowwise_log_class_sizes(sub, n) + sub @ log_q)
    mass /= _sum(mass)
    return SymmetricLaw(p.space, n, occ, mass)


def rowwise_mean_empirical_tv(law: SymmetricLaw, p: Distribution) -> float:
    dist = 0.5 * np.abs(np.ascontiguousarray(law.occ) / law.n - p.as_array()).sum(axis=1)
    return _sum(law.p * dist)


def rowwise_specific_loglik(law: SymmetricLaw) -> float:
    terms = law.p * (np.log(law.p) - rowwise_log_class_sizes(law.occ, law.n))
    return _sum(terms) / law.n


def oracle_mixture(components):
    out = {}
    for classes, weight in components:
        for m, mass in classes.items():
            out[m] = out.get(m, 0.0) + weight * mass
    return {m: x for m, x in out.items() if x > 0.0}


def oracle_law(rows, masses) -> dict:
    """The classes of a law given row by row, repeats allowed: each class's
    masses summed in input order, zero sums dropped, in canonical order:
    descending lexicographic order of the count tuples, in Python ints."""
    out = oracle_mixture([({tuple(m): mass}, 1.0) for m, mass in zip(rows, masses)])
    return dict(sorted(out.items(), reverse=True))


def oracle_microcanonical(H, E, delta, n):
    """Class masses of the microcanonical law, or None for an empty window."""
    from fractions import Fraction

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


def oracle_replica_rng(seed, r):
    """Replica r's stream as numpy seeds it: one SeedSequence with spawn key (r,)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))


def oracle_simulate_kac(start, lam, t, rng, rule):
    """The Kac chain's jumps, one particle state at a time: the draws of
    simulate_kac, with the class moves merged here from `rule.outcomes` and
    every rate a scalar sum in (d, u, w) order.  Returns the end counts."""
    from chaoslab import montecarlo

    counts = list(start.counts)
    n = sum(counts)
    changes, moves = oracle_class_moves(rule, len(counts))
    horizon = t * lam / (2.0 * n)
    clock, step = 0.0, 0
    while clock < horizon:
        cum, total = [], 0.0
        for d in changes:
            total += oracle_move_weight(counts, moves[d])
            cum.append(total)
        if not total > 0:
            break
        j = step % montecarlo.JUMP_BLOCK
        if j == 0:
            block = rng.random(2 * montecarlo.JUMP_BLOCK)
            waits = (-np.log1p(-block[:montecarlo.JUMP_BLOCK])).tolist()
            picks = block[montecarlo.JUMP_BLOCK:].tolist()
        clock += waits[j] / total
        if not clock < horizon:
            break
        # The first change whose running sum exceeds the pick, or the last.
        x = picks[j] * total
        d = next((d for d, c in zip(changes, cum) if c > x), changes[-1])
        counts = [c + e for c, e in zip(counts, d)]
        step += 1
    return tuple(counts)


def oracle_fit_gibbs(H, E):
    """fit_gibbs's bisection on BLAS dot products w @ H, the form the
    package replaced by fsum: (beta, gamma as an array)."""
    H = np.array(H, dtype=float)

    def weights(beta):
        w = np.exp(-beta * (H - H.min() if beta >= 0 else H - H.max()))
        return w / w.sum()

    lo, hi = -1.0, 1.0
    while weights(lo) @ H < E:
        lo *= 2.0
    while weights(hi) @ H > E:
        hi *= 2.0
    beta = 0.0
    for _ in range(200):
        beta = 0.5 * (lo + hi)
        mean = float(weights(beta) @ H)
        if abs(mean - E) < 1e-12:
            break
        if mean > E:
            lo = beta
        else:
            hi = beta
    return beta, weights(beta)
