"""Symmetric n-particle laws on finite state spaces, in occupancy form.

A symmetric law on S^n is constant on permutation orbits of ordered states,
so it can be stored as one mass per occupancy vector (type class).  This
compresses k^n ordered states down to C(n+k-1, k-1) classes, which is what
makes exact computations feasible for n in the hundreds.

A SymmetricLaw holds two read-only arrays: `occ`, the (S, k) occupancy
vectors of its support in canonical enumeration order, and `p`, their
positive masses.  Its one constructor takes such arrays in any row order,
checks them as whole arrays, and sorts and merges only rows that are not
already in canonical order, as the enumerations below build them.
`class_index` gives an occupancy its rank, its row in
`occupancy_array(k, n)`; `SymmetricLaw.vector()` scatters a law's masses
into the full rank-indexed vector that kernels act on.

Occupancies are enumerated state by state by one expansion step, each
prefix's children taking the counts of a per-prefix interval of the next
state.  `occupancy_array` takes every count left; `window_occupancies`
takes only those that can still reach an open window of integer energies,
so the microcanonical ensembles build their own classes and not the whole
class space.

Product laws and log-likelihoods read `occupancy_array`, stored
column-contiguous, one state's counts at a time: each per-class quantity
combines, left to right over the states, a function of one count m_i in
0..n, gathered from its table over 0..n by `_per_count`.  For k < 8 that
gives the bits of numpy's row-wise reduction of an (S, k) array (which
adds rows of 8 or more entries pairwise) without its temporaries.
Class sizes are doubles: products of binomial coefficients from a cached
Pascal table, exact below 2**53, with a log-factorial fallback where they
overflow.  The table is diagonal-major, C(i + j, j) at [i, j], so classes
that share their earlier counts read one table row.  A law carries its
sizes, `SymmetricLaw.class_sizes`, seeded by the builders that compute
them.  Sums over classes that feed gaps and likelihoods go through
`_sum`: numpy pairwise sums over blocks of SUM_BLOCK classes, then
math.fsum over the block partials, and plain math.fsum up to one block.
The one- and two-particle marginals are moments of the occupancy
columns, a (k,) vector and a (k, k) matrix.
The dense ordered and big-integer oracles that check these live with the
tests, not here.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidArgumentError

# Probability-mass bookkeeping tolerances.
MASS_TOL = 1e-12
NEG_CLAMP = -1e-15

# Largest n served by the Pascal table: C(1030, 515) exceeds the largest
# double, so beyond it the bulk of the class sizes overflow anyway and all
# rows take the log-factorial path.
PASCAL_ROWS = 1029

# Classes per pairwise-summed block in `_sum`: each block partial carries
# O(log SUM_BLOCK) unit roundoffs of its absolute sum, and math.fsum adds
# the partials with no growth in their number.
SUM_BLOCK = 256

# Most classes one enumeration step builds: each is an int64 entry of an array.
MAX_CLASSES = np.iinfo(np.intp).max // 8


def as_int(x) -> int:
    """x as an int: Python and numpy integers and integral floats pass;
    a bool or any other value raises InvalidArgumentError, so a count is
    never silently truncated."""
    if type(x) is int:
        return x
    if not isinstance(x, (bool, np.bool_)):
        if isinstance(x, numbers.Integral):
            return int(x)
        if isinstance(x, numbers.Real) and float(x).is_integer():
            return int(x)
    raise InvalidArgumentError(f"expected an integer, got {x!r}")


def as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


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

    @staticmethod
    def of_size(k: int) -> "StateSpace":
        return StateSpace(tuple(str(i) for i in range(k)))


def law_rows(P: np.ndarray) -> np.ndarray:
    """A copy of a (B, k) float array of one-particle laws, entries in
    [NEG_CLAMP, 0) read as 0, or InvalidArgumentError unless every entry is
    finite and >= NEG_CLAMP and each row's fsum is within MASS_TOL of 1."""
    if not np.isfinite(P).all():
        raise InvalidArgumentError("non-finite probability entry")
    if (P < NEG_CLAMP).any():
        raise InvalidArgumentError("negative probability entry")
    P = np.where(P < 0.0, 0.0, P)
    if any(abs(math.fsum(row) - 1.0) > MASS_TOL for row in P.tolist()):
        raise InvalidArgumentError("probabilities do not sum to 1")
    return P


@dataclass(frozen=True)
class Distribution:
    """A probability law on a StateSpace."""

    space: StateSpace
    p: tuple

    def __post_init__(self):
        p = tuple(float(x) for x in self.p)
        if len(p) != self.space.k:
            raise InvalidArgumentError("probability vector length != k")
        object.__setattr__(self, "p", tuple(law_rows(np.array([p]))[0].tolist()))

    def as_array(self) -> np.ndarray:
        return np.array(self.p, dtype=float)


def _expand(rows: list, c_lo, c_hi):
    """One more state's count for each prefix: prefix r, entry r of each
    array in `rows`, gets one child per count c_hi[r], c_hi[r] - 1, ...,
    c_lo[r], none where c_hi[r] < c_lo[r].  Returns the children's copies
    of `rows`, their counts, and how far each lies below its c_hi.
    CapacityError if there would be more than MAX_CLASSES children: counted
    in floats first, which do not wrap, so no int64 count is formed that
    wraps or that no array can hold."""
    children = np.maximum(c_hi - np.asarray(c_lo, dtype=float) + 1.0, 0.0).sum()
    if children > MAX_CLASSES:
        raise CapacityError(f"more than the {MAX_CLASSES} occupancy classes an array can hold")
    sizes = np.maximum(c_hi - c_lo + 1, 0)
    step = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return [np.repeat(x, sizes) for x in rows], np.repeat(c_hi, sizes) - step, step


def _frozen_columns(cols: list) -> np.ndarray:
    occ = np.array(cols, dtype=np.int64).T
    occ.flags.writeable = False
    return occ


@functools.lru_cache(maxsize=16)
def occupancy_array(k: int, n: int) -> np.ndarray:
    """All occupancy vectors of n particles over k states, one per row.

    Canonical order: first coordinate descending, then recursively the
    rest.  The result is cached, read-only and column-contiguous.
    """
    # Each pass appends one coordinate: a row with r particles left expands
    # to r + 1 rows taking r, r - 1, ..., 0 of them, which leave the step
    # below r for later states; the last coordinate takes whatever is left.
    cols, left = [], np.array([n], dtype=np.int64)
    for _ in range(k - 1):
        cols, col, left = _expand(cols, 0, left)
        cols.append(col)
    return _frozen_columns(cols + [left])


def _solve(s: int, r: np.ndarray, c_lo, c_hi):
    """Narrow the count intervals [c_lo, c_hi] to the integers c with
    s * c <= r.  The new ends stay within the old ones, or where an
    interval empties its upper end is c_lo - 1 (c_lo >= 0, so no int64
    wraps, as c_hi + 1 could), so they are int64 counts."""
    if s > 0:
        return c_lo, np.clip(r // s, c_lo - 1, c_hi).astype(np.int64, copy=False)
    if s < 0:
        least = -(r // -s)
        empty = least > c_hi
        return (np.where(empty, c_lo, np.maximum(least, c_lo)).astype(np.int64, copy=False),
                np.where(empty, c_lo - 1, c_hi))
    return c_lo, np.where(r >= 0, c_hi, c_lo - 1)


def window_occupancies(weights, lo: int, hi: int, n: int) -> np.ndarray:
    """The occupancies m of n particles with lo < m.weights < hi.

    Weights and bounds are integers, so the test is exact.  The rows are
    those of occupancy_array(k, n) inside the window, in the same
    canonical order, int64, read-only and column-contiguous, but only the
    window's classes are built: counts are chosen state by state, and a
    prefix of energy e with `left` particles still to place, taking c of
    state i, can reach the energies from e + a*left + (w_i - a)*c to
    e + b*left + (w_i - b)*c, with a and b the least and the greatest of
    the later weights; only the c whose range meets the window are kept.
    At the last free state a = b, so that range is one energy and the
    test exact.  Energies are int64 when every intermediate value stays
    below 2**62 in magnitude, and Python ints otherwise.
    """
    w = [int(x) for x in weights]
    k = len(w)
    fits = max(abs(lo), abs(hi)) + 2 * n * max(map(abs, w)) + 2 < 2**62
    dtype = np.int64 if fits else object
    least = [min(w[i:]) for i in range(k)]
    greatest = [max(w[i:]) for i in range(k)]
    # The root's own reach, which is the whole test when k = 1.
    left = np.array([n] if least[0] * n < hi and greatest[0] * n > lo else [], dtype=np.int64)
    energy, cols = np.zeros(len(left), dtype=dtype), []
    for i in range(k - 1):
        a, b = least[i + 1], greatest[i + 1]
        rest = left.astype(dtype, copy=False)
        # Lowest reachable energy below hi, highest above lo.
        c_lo, c_hi = _solve(w[i] - a, hi - 1 - energy - a * rest, 0, left)
        c_lo, c_hi = _solve(b - w[i], energy + b * rest - lo - 1, c_lo, c_hi)
        (*cols, energy, left), col, _ = _expand([*cols, energy, left], c_lo, c_hi)
        cols.append(col)
        left = left - col
        energy = energy + w[i] * col.astype(dtype, copy=False)
    return _frozen_columns(cols + [left])


def enumerate_occupancies(space: StateSpace, n: int) -> list:
    """All occupancy vectors of n particles over the space, in canonical order."""
    if n < 1:
        raise InvalidArgumentError(f"particle count must be >= 1, got {n}")
    return [tuple(m) for m in occupancy_array(space.k, n).tolist()]


def class_index(occ, n: int) -> np.ndarray:
    """Rank of each occupancy: its row in occupancy_array(k, n), as int64.

    Combinatorial number system: the classes before m agree with m up to a
    state i and hold more particles in it; with r particles in the states
    after i there are C(r + d - 1, d) of those, d = k - 1 - i.

    Ranks are int64 and unchecked: they would wrap past 2**63 classes, but
    no caller can form a wrapped one, since each first holds the whole
    class space.  The class-map kernels and `kernels._shell_stacks`
    enumerate occupancy_array(k, n), whose `_expand` raises CapacityError
    past MAX_CLASSES classes, and `SymmetricLaw.vector()` first allocates
    its C(n + k - 1, k - 1)-entry vector, which numpy refuses past
    MAX_CLASSES entries.
    """
    occ = np.asarray(occ, dtype=np.int64)
    k = occ.shape[-1]
    after = n - np.cumsum(occ, axis=-1)
    rank = np.zeros(occ.shape[:-1], dtype=np.int64)
    for i in range(k - 1):
        binom = np.ones_like(rank)
        for j in range(1, k - i):  # C(r + j - 1, j), exact in integers
            binom = binom * (after[..., i] + j - 1) // j
        rank += binom
    return rank


def _sum(x: np.ndarray) -> float:
    """Sum of a 1-d float array: exactly rounded (math.fsum) up to SUM_BLOCK
    entries; past that, math.fsum of numpy's pairwise sums over contiguous
    blocks of SUM_BLOCK entries and of the remainder."""
    if len(x) <= SUM_BLOCK:
        return math.fsum(x.tolist())
    whole = len(x) - len(x) % SUM_BLOCK
    blocks = x[:whole].reshape(-1, SUM_BLOCK).sum(axis=1)
    return math.fsum(blocks.tolist() + x[whole:].tolist())


def _build_pascal(rows: int, start: np.ndarray | None = None) -> np.ndarray:
    """Pascal's triangle to row `rows`, diagonal-major: C(i + j, j) at
    [i, j] for i + j <= rows and 0 past it, so triangle row a is the
    anti-diagonal i + j = a.  Those of the smaller table `start` are
    copied and the rest added, each entry from the same two doubles as in
    the row-major triangle, C(a - 1, j) + C(a - 1, j - 1): the same bits."""
    width = rows + 1
    table = np.zeros((width, width))
    done = 1 if start is None else len(start)
    if start is not None:
        table[:done, :done] = start
    table[0] = table[:, 0] = 1.0
    # Anti-diagonal a runs in the flat table from [0, a] to [a, 0] in steps
    # of width - 1; entry [i, j] inside it adds [i - 1, j] and [i, j - 1].
    flat, step = table.reshape(-1), width - 1
    for a in range(max(done, 2), width):
        np.add(flat[a - 1:(a - 1) * width:step], flat[a - 1 + step:(a - 1) * width + 1:step],
               out=flat[a + step:a * width:step])
    table.flags.writeable = False
    return table


# One Pascal table serves every n up to its size; a larger n grows it by
# the missing anti-diagonals only, so a grid of n values builds each once.
_pascal = _build_pascal(0)


def _binomials(n: int) -> np.ndarray:
    global _pascal
    if len(_pascal) <= n:
        _pascal = _build_pascal(n, _pascal)
    return _pascal


def _per_count(f, counts: np.ndarray, n: int) -> np.ndarray:
    """f(m) for each count m in a column of counts in 0..n, f elementwise in
    a float array.  A column of more than n entries gathers f from its
    table f(0), ..., f(n); a shorter one, such as a sparse law's at large
    n, applies f to the column itself.  Both do the same float operations
    on each count, so they give the same bits."""
    if len(counts) > n:
        return f(np.arange(n + 1.0))[counts]
    return f(counts.astype(float))


def _log_factorials(m: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(x + 1.0) for x in m.tolist()])


def _class_sizes(occ: np.ndarray, n: int) -> np.ndarray:
    """n! / prod(m_i!) per row as doubles, inf where it may overflow.

    The multinomial is the product, left to right over i >= 1, of the
    binomials C(m_0 + ... + m_i, m_i), exact below 2**53.  The Pascal
    table of width W holds that binomial at flat position
    (m_0 + ... + m_(i-1)) * W + m_i: one gather per state, in which a
    block of classes that share their earlier counts reads one table row.
    """
    if n > PASCAL_ROWS:
        return np.full(len(occ), np.inf)
    table = _binomials(n)
    flat, width = table.reshape(-1), len(table)
    partial = occ[:, 0].copy()
    at = np.empty_like(partial)
    sizes = np.ones(len(occ))
    with np.errstate(over="ignore"):
        for m in occ.T[1:]:
            np.multiply(partial, width, out=at)
            at += m
            sizes *= flat.take(at)
            partial += m
    return sizes


def _log_class_sizes(occ: np.ndarray, n: int, sizes: np.ndarray) -> np.ndarray:
    """Natural log of the class sizes `sizes` of the rows `occ`, via
    log-factorials where they overflow."""
    logs = np.log(sizes)
    big = np.isinf(sizes)
    if big.any():
        sub = occ[big]
        total = np.zeros(len(sub))  # sum_i log m_i!, added left to right
        for m in sub.T:
            total += _per_count(_log_factorials, m, n)
        logs[big] = math.lgamma(n + 1.0) - total
    return logs


class SymmetricLaw:
    """A symmetric law on S^n stored as mass per occupancy class.

    Its one constructor takes `occ`, an (S, k) integer array of classes of
    n particles, and their S masses `p`, finite and >= NEG_CLAMP.  Zero
    masses are dropped and the rest must sum to 1.  Rows not strictly
    decreasing in canonical order are sorted into it, a repeated class's
    masses added in input order.  The stored `occ` and `p` are read-only,
    copies of writeable inputs; `classes` is their dict view, built lazily.
    """

    def __init__(self, space: StateSpace, n: int, occ, p):
        if n < 1:
            raise InvalidArgumentError("particle count must be >= 1")
        occ, p = np.asarray(occ), np.asarray(p, dtype=float)
        if occ.ndim != 2 or p.shape != occ.shape[:1]:
            raise InvalidArgumentError(f"{occ.shape} occupancies for {p.shape} masses")
        bad = _bad_rows(occ, n, space.k)
        if bad.any():
            raise _bad_key(occ[bad.argmax()].tolist(), n, space.k)
        occ = occ.astype(np.int64, copy=False)
        least = p.min(initial=1.0)
        if not (least >= NEG_CLAMP and p.max(initial=0.0) < np.inf):
            i = (~(np.isfinite(p) & (p >= NEG_CLAMP))).argmax()
            raise InvalidArgumentError(f"negative or non-finite class mass {float(p[i])} "
                                       f"at {tuple(occ[i].tolist())}")
        if least <= 0.0:
            keep = p > 0.0
            occ, p = occ[keep], p[keep]
        if abs(float(p.sum()) - 1.0) > MASS_TOL:
            raise InvalidArgumentError("class masses do not sum to 1")
        if not _strictly_decreasing(occ):
            # Canonical order is descending lexicographic order, exact at any n.
            order = np.lexsort(-occ.T[::-1])
            occ, p = occ[order], p[order]
            new = np.ones(len(occ), dtype=bool)
            new[1:] = (occ[1:] != occ[:-1]).any(axis=1)
            occ, p = occ[new], np.bincount(np.cumsum(new) - 1, weights=p)
        occ, p = (x.copy() if x.flags.writeable else x for x in (occ, p))
        occ.flags.writeable = p.flags.writeable = False
        self.space, self.n, self.occ, self.p = space, n, occ, p

    def vector(self) -> np.ndarray:
        """The masses over every class of occupancy_array(k, n), by rank."""
        out = np.zeros(math.comb(self.n + self.space.k - 1, self.space.k - 1))
        out[class_index(self.occ, self.n)] = self.p
        return out

    @functools.cached_property
    def classes(self) -> dict:
        return dict(zip(map(tuple, self.occ.tolist()), self.p.tolist()))

    @functools.cached_property
    def class_sizes(self) -> np.ndarray:
        """`_class_sizes` of the classes, read-only."""
        sizes = _class_sizes(self.occ, self.n)
        sizes.flags.writeable = False
        return sizes


def _bad_key(m, n: int, k: int) -> InvalidArgumentError:
    return InvalidArgumentError(f"bad occupancy key {tuple(m)} for n={n}, k={k}")


def _bad_rows(occ: np.ndarray, n: int, k: int) -> np.ndarray:
    """Which rows of the 2-d `occ` are not k integer counts >= 0 adding to
    n.  Each count but the last is at most what its row has left of n, and
    the last is what is left, so no sum is formed that could wrap to n.
    As uint64 a negative count, or an unsigned one past 2**63 - 1 read as
    int64, is past any n."""
    if occ.dtype.kind not in "iu" or occ.shape[1] != k or n > np.iinfo(np.int64).max:
        return np.ones(len(occ), dtype=bool)
    cols = occ.astype(np.int64, copy=False).T
    left, bad = np.full(len(occ), n, dtype=np.int64), np.zeros(len(occ), dtype=bool)
    for m in cols[:-1]:
        bad |= m.view(np.uint64) > left.view(np.uint64)
        left -= m
    bad |= cols[-1] != left  # the last count takes what is left
    return bad


def _strictly_decreasing(occ: np.ndarray) -> bool:
    """Whether each row is before the next in canonical order: by its first
    k - 1 counts, which fix the last, in descending lexicographic order."""
    tie = np.ones(max(len(occ) - 1, 0), dtype=bool)  # rows equal so far
    for col in occ.T[:-1]:
        before, after = col[:-1], col[1:]
        if (tie & (after > before)).any():
            return False
        tie &= after == before
    return not tie.any()


def product_law(p: Distribution, n: int) -> SymmetricLaw:
    """The i.i.d. law p^(x)n in occupancy form: multinomial(n, p).

    Class size times prod p_i^m_i in doubles; rows where the class size
    overflows or a power underflows are redone in log space.  The whole law
    is then renormalised, which also takes out the (1 - d)^n mass defect of
    a p whose doubles sum to 1 - d.
    """
    if n < 1:
        raise InvalidArgumentError("particle count must be >= 1")
    occ = occupancy_array(p.space.k, n)
    q = p.as_array()
    sizes = _class_sizes(occ, n)
    mass = np.ones(len(occ))  # prod_i q_i^m_i, multiplied left to right, then sizes
    for qi, m in zip(q, occ.T):
        mass *= _per_count(lambda c: qi ** c, m, n)
    impossible = (occ[:, q == 0.0] > 0).any(axis=1)
    # Factors are <= 1, so a product of powers above the smallest normal
    # double never passed through a subnormal on the way.
    lost = ~impossible & (np.isinf(sizes) | (mass < np.finfo(float).tiny))
    with np.errstate(invalid="ignore"):  # inf * 0 on impossible rows
        mass *= sizes
    mass[impossible] = 0.0
    if lost.any():
        sub = occ[lost]
        with np.errstate(divide="ignore"):
            log_q = np.where(q > 0.0, np.log(q), 0.0)
        mass[lost] = np.exp(_log_class_sizes(sub, n, sizes[lost]) + sub @ log_q)
    mass /= _sum(mass)
    return _law_with_sizes(p.space, n, occ, mass, sizes)


def _uniform_on_classes(space: StateSpace, n: int, occ: np.ndarray) -> SymmetricLaw:
    """The uniform law on the ordered states of the given classes.

    `occ` holds distinct classes in canonical order; each gets mass
    proportional to its class size.
    """
    sizes = weights = _class_sizes(occ, n)
    # Rescale in log space when a size, or only their sum, would overflow.
    if not sizes.max() <= np.finfo(float).max / len(sizes):
        logs = _log_class_sizes(occ, n, sizes)
        weights = np.exp(logs - logs.max())
    return _law_with_sizes(space, n, occ, weights / _sum(weights), sizes)


def _law_with_sizes(space: StateSpace, n: int, occ: np.ndarray, mass: np.ndarray,
                    sizes: np.ndarray) -> SymmetricLaw:
    """The law of distinct canonical rows `occ` and a new `mass` array,
    kept without a copy, seeded with their class sizes when it keeps every
    row."""
    mass.flags.writeable = False
    law = SymmetricLaw(space, n, occ, mass)
    if len(law.p) == len(occ):
        sizes.flags.writeable = False
        law.class_sizes = sizes
    return law


def marginal(law: SymmetricLaw, j: int) -> np.ndarray:
    """Ordered law of the first j = 1 or 2 coordinates, as an array.

    j = 1: the (k,) vector sum_m mass(m) m_u / n.
    j = 2: the symmetric (k, k) matrix
        sum_m mass(m) m_u (m_w - [u = w]) / (n (n - 1)),
    the chance of drawing u then w without replacement from the class.
    Each entry is one class sum of the masses times exact integer column
    products, int64 while n(n - 1) < 2**63 and Python ints past that,
    divided by the exact count of ordered draws.
    """
    n, k = law.n, law.space.k
    if j not in (1, 2):
        raise InvalidArgumentError(f"marginal order {j} is not 1 or 2")
    if j > n:
        raise InvalidArgumentError(f"the {j}-particle marginal needs n >= {j}, got n={n}")
    cols = law.occ.T
    if j == 1:
        return np.array([_sum(law.p * m) for m in cols]) / n
    wide = n * (n - 1) >= 2**63
    if wide:
        cols = cols.astype(object)
    pair = np.empty((k, k))
    for u in range(k):
        for w in range(u, k):
            draws = cols[u] * (cols[w] - (u == w))
            terms = law.p * (draws.astype(float) if wide else draws)
            pair[u, w] = pair[w, u] = _sum(terms) / (n * (n - 1))
    return pair


def tv_distance(a: Distribution, b: Distribution) -> float:
    """Total variation distance between two Distributions on one space."""
    if not (isinstance(a, Distribution) and isinstance(b, Distribution) and a.space == b.space):
        raise InvalidArgumentError("tv_distance needs two Distributions on one space")
    return 0.5 * math.fsum(abs(x - y) for x, y in zip(a.p, b.p))


def specific_loglik(law: SymmetricLaw) -> float:
    """(1/n) * sum over ordered points of rho log rho, with 0 log 0 = 0.

    In class form this is (1/n) * sum_m mass(m) log(mass(m) / |m|), with
    |m| = n! / prod_i m_i! the number of ordered points in class m.
    """
    terms = np.log(law.p)
    terms -= _log_class_sizes(law.occ, law.n, law.class_sizes)
    terms *= law.p
    return _sum(terms) / law.n


def mean_empirical_tv(law: SymmetricLaw, p: Distribution) -> float:
    """Expected TV distance between the empirical measure and p under the law."""
    if law.space != p.space:
        raise InvalidArgumentError("law and target on different spaces")
    n = law.n
    dist = np.zeros(len(law.p))  # sum_i |m_i / n - p_i|, added left to right
    for pi, m in zip(p.as_array(), law.occ.T):
        dist += _per_count(lambda c: np.abs(c / n - pi), m, n)
    dist *= 0.5
    return _sum(law.p * dist)


# JSON wire format for symmetric laws:
#   {"labels": [...], "n": N, "classes": [{"m": [...], "mass": x}, ...]}
# with classes in the canonical enumeration order and 17-significant-digit
# masses (so serialization round-trips doubles exactly).


def law_to_json(law: SymmetricLaw) -> str:
    labels = ",".join(f'"{x}"' for x in law.space.labels)
    rows = ['{"m":[%s],"mass":%.17g}' % (",".join(map(str, m)), mass)
            for m, mass in zip(law.occ.tolist(), law.p.tolist())]
    return '{"labels":[%s],"n":%d,"classes":[%s]}' % (labels, law.n, ",".join(rows))


def law_from_json(text: str) -> SymmetricLaw:
    import json

    doc = json.loads(text)
    space = StateSpace(tuple(doc["labels"]))
    rows = [(tuple(row["m"]), row["mass"]) for row in doc["classes"]]
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for _, x in rows):
        raise InvalidArgumentError("a class mass must be a JSON number")
    classes = dict(rows)
    if len(classes) != len(rows):
        raise InvalidArgumentError("a class is listed more than once")
    n, occ = as_int(doc["n"]), [tuple(as_int(x) for x in m) for m in classes]
    for m in occ:
        if len(m) != space.k:
            raise _bad_key(m, n, space.k)
    try:
        occ = np.array(occ, dtype=np.int64).reshape(len(occ), space.k)
        return SymmetricLaw(space, n, occ, list(classes.values()))
    except OverflowError as exc:
        raise InvalidArgumentError(f"a class count or mass is out of range: {exc}") from exc
