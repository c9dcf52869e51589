"""Array-backed core, diagnostics and kernels against the dict/big-integer
oracles in conftest, and closed-form pins at n where no oracle can
enumerate."""

import math
import random
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from chaoslab import (
    EnergyModel,
    PairRule,
    ParticleState,
    StateSpace,
    SumConservingRule,
    SymmetricLaw,
    counterexample_kernel,
    fit_gibbs,
    identity_kernel,
    kac_collision_kernel,
    map_kernel,
    marginal,
    mean_empirical_tv,
    microcanonical,
    pair_gap,
    product_law,
    propagate,
    replica_rngs,
    simulate_kac,
    simulate_kac_stack,
    specific_loglik,
    symmetrized_class_kernel,
    tv_distance,
)
from chaoslab import core, montecarlo
from chaoslab.cli import column_laws, monte_carlo_pair_marginals
from chaoslab.core import (
    PASCAL_ROWS,
    SUM_BLOCK,
    _binomials,
    _build_pascal,
    _class_sizes,
    _sum,
    class_index,
    law_rows,
    occupancy_array,
    pair_marginals,
    window_occupancies,
)
from chaoslab.diagnostics import GIBBS_RESIDUAL_TOL, ZERO_GAP, _fit_slope
from chaoslab.errors import CapacityError, EmptyEnsembleError, InvalidArgumentError
from chaoslab.kernels import PAD_BELOW, _kac_rows, _shell_stacks
from chaoslab.meanfield import collision_marginal_tensor, default_rule

from conftest import (
    SwapRule,
    law_tv_distance,
    mixture,
    oracle_collision_tensor,
    oracle_compositions,
    oracle_fit_gibbs,
    oracle_blocks,
    oracle_kac_event_matrix,
    oracle_law,
    oracle_mean_empirical_tv,
    oracle_microcanonical,
    oracle_mixture,
    oracle_move_weights,
    oracle_ordered_marginal,
    oracle_product_law,
    oracle_propagate,
    oracle_replica_rng,
    oracle_simulate_kac,
    oracle_specific_loglik,
    oracle_tv_distance,
    per_size_kac_rows,
    per_size_shell_stacks,
    point_class,
    rowwise_class_sizes,
    rowwise_mean_empirical_tv,
    rowwise_pascal,
    rowwise_product_law,
    rowwise_specific_loglik,
)

TOL = 1e-12
# Largest n per k that keeps the oracles' class loops to a few thousand rows.
MAX_N = {1: 40, 2: 40, 3: 40, 4: 24, 5: 14}


@st.composite
def shapes(draw):
    k = draw(st.integers(1, 5))
    return k, draw(st.integers(1, MAX_N[k]))


def random_p(rng, k, zeros):
    """A random point of the simplex, with up to `zeros` entries set to 0."""
    p = rng.dirichlet(np.ones(k))
    p[rng.permutation(k)[:min(zeros, k - 1)]] = 0.0
    return tuple(p / p.sum())


def random_law(rng, k, n, sparse):
    """Dirichlet masses on all classes, or on a random half of them."""
    occs = list(oracle_compositions(n, k))
    if sparse and len(occs) > 1:
        occs = [occs[i] for i in sorted(rng.permutation(len(occs))[:len(occs) // 2 + 1])]
    return SymmetricLaw(StateSpace.of_size(k), n, occs, rng.dirichlet(np.ones(len(occs))))


def assert_same_classes(got: dict, want: dict):
    assert list(got) == list(want)  # same support, same enumeration order
    assert max(abs(got[m] - want[m]) for m in want) < TOL


@settings(max_examples=100, deadline=None)
@given(length=st.integers(0, 3 * SUM_BLOCK + 1), seed=st.integers(0, 2**32 - 1),
       zeros=st.floats(0.0, 0.5), signed=st.booleans())
def test_blocked_sum_is_fsum(length, seed, zeros, signed):
    # Magnitudes spread over 1e-300 to 1, some exact zeros, optional signs.
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-300.0, 0.0, length) * (rng.random(length) >= zeros)
    if signed:
        x *= rng.choice([-1.0, 1.0], length)
    got, want = _sum(x), math.fsum(x.tolist())
    if length <= SUM_BLOCK:
        assert got.hex() == want.hex()
    else:
        # A block's pairwise sum (numpy: 8 running sums of 16 terms per half
        # block, then 4 pairwise levels) is within about 20 unit roundoffs u
        # of the block's absolute sum; fsum of the partials adds u |sum|.
        u = 2.0**-53
        assert abs(got - want) <= 32 * u * math.fsum(np.abs(x).tolist())


@settings(max_examples=40, deadline=None)
@given(shape=shapes())
def test_enumeration_order(shape):
    k, n = shape
    assert occupancy_array(k, n).tolist() == [list(m) for m in oracle_compositions(n, k)]


def filtered_window(weights, lo, hi, n):
    """The rows of occupancy_array(k, n) with lo < m.weights < hi, each
    energy summed in Python ints."""
    occ = occupancy_array(len(weights), n)
    return occ[[lo < sum(m * w for m, w in zip(row, weights)) < hi for row in occ.tolist()]]


def assert_window(weights, lo, hi, n):
    got, want = window_occupancies(weights, lo, hi, n), filtered_window(weights, lo, hi, n)
    assert got.dtype == np.int64 and got.flags.f_contiguous and not got.flags.writeable
    assert got.shape == want.shape and np.array_equal(got, want)
    return got


def energy_dtypes(monkeypatch) -> list:
    """The dtype of the energies each window_occupancies level narrows by."""
    seen, solve = [], core._solve
    monkeypatch.setattr(core, "_solve", lambda s, r, *rest: seen.append(r.dtype) or solve(s, r, *rest))
    return seen


@settings(max_examples=300, deadline=None)
@given(shape=shapes(), data=st.data())
def test_window_occupancies_are_the_filtered_class_space(shape, data):
    """Random integer weights (ties, zeros, negatives; scaled past int64 for
    some draws) and windows whose ends sit on, or one off, a class energy."""
    k, n = shape
    scale = data.draw(st.sampled_from([1, 3, 2**40, 2**59, 2**70]))
    weights = [scale * w for w in data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))]
    energies = sorted({sum(m * w for m, w in zip(row, weights))
                       for row in occupancy_array(k, n).tolist()})
    lo, hi = (data.draw(st.sampled_from(energies)) + data.draw(st.integers(-1, 1))
              for _ in range(2))
    assert_window(weights, lo, hi, n)


@pytest.mark.parametrize("weights", [(5,), (0, 0, 0), (3, 3, 3, 3), (0, 1, 2), (2, 1, 0),
                                     (-2, 0, 5, -2, 1), (4, -1, 4, 0, -1)])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_window_occupancies_empty_and_full_windows(weights, n):
    low, high = n * min(weights), n * max(weights)
    assert len(assert_window(weights, low - 1, high + 1, n)) == math.comb(n + len(weights) - 1, n)
    assert len(assert_window(weights, high, high + 5, n)) == 0
    assert len(assert_window(weights, low - 5, low, n)) == 0
    assert len(assert_window(weights, low, low + 1, n)) == 0


def test_solve_at_the_int64_bound(monkeypatch):
    """Counts up to 2**63 - 1 narrow without wrapping: c >= -5 within
    [0, 2**63 - 1] keeps both ends (c_hi + 1 once wrapped the lower end to
    -2**63), and an interval that empties ends one below its lower end.
    microcanonical at that n is still refused by `_expand`, now given
    lower count bounds >= 0."""
    lo, hi = core._solve(-1, np.array([5]), np.array([0]), np.array([2**63 - 1]))
    assert lo.dtype == hi.dtype == np.int64
    assert lo.tolist() == [0] and hi.tolist() == [2**63 - 1]
    lo, hi = core._solve(-1, np.array([-9, -9]), np.array([2, 2]), np.array([2**63 - 1, 8]))
    assert lo.tolist() == [9, 2] and hi.tolist() == [2**63 - 1, 1]
    lows, expand = [], core._expand
    monkeypatch.setattr(core, "_expand",
                        lambda rows, lo, hi: lows.append(np.min(lo)) or expand(rows, lo, hi))
    with pytest.raises(CapacityError, match="occupancy classes an array can hold"):
        microcanonical(EnergyModel(StateSpace.of_size(3), (0, 1, 2), 0.8, 0.2), 2**63 - 1)
    assert lows and min(lows) >= 0


@pytest.mark.parametrize("offset, dtype", [(0, np.int64), (1, object)])
@pytest.mark.parametrize("weights", [(0, 1, 2), (2**57, 2**57 + 1, 2**57 + 3)])
def test_window_occupancies_on_each_side_of_int64(weights, offset, dtype, monkeypatch):
    """Energies are int64 while max(|lo|, |hi|) + 2n max|w| + 2 < 2**62 and
    Python ints from there on; both give the filtered rows."""
    n = 6
    seen = energy_dtypes(monkeypatch)
    edge = 2**62 - (2 * n * max(weights) + 2) - 1 + offset
    mid = n * weights[1]
    assert len(assert_window(weights, -edge, mid + 2, n)) > 0
    assert len(assert_window(weights, mid - 2, edge, n)) > 0
    assert set(seen) == {np.dtype(dtype)}


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), zeros=st.integers(0, 2))
def test_product_law(shape, seed, zeros):
    k, n = shape
    p = random_p(np.random.default_rng(seed), k, zeros)
    law = product_law(p, n)
    assert_same_classes(law.classes, oracle_product_law(p, n))


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), sparse=st.booleans(),
       j=st.integers(1, 2))
def test_marginal(shape, seed, sparse, j):
    k, n = shape
    law = random_law(np.random.default_rng(seed), k, n, sparse)
    j = min(j, n)
    got, want = marginal(law, j), oracle_ordered_marginal(law.classes, n, k, j)
    assert got.shape == want.shape and np.abs(got - want).max() < TOL


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 5), n=st.integers(2, 10**6), seed=st.integers(0, 2**32 - 1))
def test_point_class_marginals_are_exact_fractions(k, n, seed):
    # One exact integer product over an exact count of draws, rounded once.
    m = composition(np.random.default_rng(seed), k, n)
    law = point_class(StateSpace.of_size(k), m)
    assert marginal(law, 1).tolist() == [float(Fraction(mu, n)) for mu in m]
    assert marginal(law, 2).tolist() == [
        [float(Fraction(mu * (mw - (u == w)), n * (n - 1))) for w, mw in enumerate(m)]
        for u, mu in enumerate(m)]


def big_composition(rnd, k, n):
    cuts = sorted(rnd.randint(0, n) for _ in range(k - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))


# A marginal entry rounds at most five times: a count or count product to a
# double, its product with a mass, the class sum, the count of draws to a
# double and the division.  Its terms are >= 0, so nothing cancels.
MARGINAL_REL_ERR = (1 + Fraction(1, 2**53)) ** 5 - 1


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), classes=st.integers(1, 2),
       n=st.integers(2, 2**63 - 1) | st.sampled_from([3037000499, 3037000500, 3037000501]))
@example(k=3, seed=0, classes=2, n=2**63 - 1)
@example(k=2, seed=1, classes=1, n=4 * 10**9)
def test_marginals_are_fractions_to_int64_n(k, seed, classes, n):
    """A point class or a two-class mixture, against exact fractions of its
    masses, at n up to 2**63 - 1: past n(n - 1) = 2**63 the column
    products are Python ints, not wrapped int64."""
    rnd = random.Random(seed)
    w = rnd.random()
    law = SymmetricLaw(StateSpace.of_size(k), n, [big_composition(rnd, k, n) for _ in range(classes)],
                       [w, 1 - w][2 - classes:] if classes == 2 else [1.0])
    masses, cols = [Fraction(x) for x in law.p.tolist()], law.occ.T.tolist()
    want = [[sum(x * mu for x, mu in zip(masses, cols[u])) / n for u in range(k)],
            [sum(x * mu * (mw - (u == w)) for x, mu, mw in zip(masses, cols[u], cols[w]))
             / (n * (n - 1)) for u in range(k) for w in range(k)]]
    for j in (1, 2):
        for got, exact in zip(marginal(law, j).ravel().tolist(), want[j - 1]):
            assert abs(Fraction(got) - exact) <= MARGINAL_REL_ERR * exact


# Largest n per k for pair_marginals: class counts from 1 to past 2 SUM_BLOCK.
PAIR_MAX_N = {1: 30, 2: 600, 3: 34, 4: 14, 5: 9}


def mass_stack(rng, rows, size, zeros, layout):
    """`rows` laws over `size` classes: a share `zeros` of each row's masses
    0 or in [NEG_CLAMP, 0), which a law drops, and one row all but one class
    0; laid out C-contiguous, Fortran-ordered or as a strided view."""
    P = rng.dirichlet(np.ones(size), rows) * (rng.random((rows, size)) >= zeros)
    P[np.arange(rows), rng.integers(size, size=rows)] += 0.1
    P /= P.sum(axis=1, keepdims=True)
    P[-1] = np.eye(size)[rng.integers(size)]
    P[P == 0.0] = rng.choice([0.0, -0.0, core.NEG_CLAMP / 3], np.count_nonzero(P == 0.0))
    if layout == "F":
        return np.asfortranarray(P)
    if layout == "strided":
        wide = np.zeros((2 * rows, 2 * size))
        wide[::2, ::2] = P
        return wide[::2, ::2]
    return P


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 4), zeros=st.sampled_from([0.0, 0.3, 0.9]),
       layout=st.sampled_from(["C", "F", "strided"]))
def test_pair_marginals_are_the_per_law_marginals(k, data, seed, rows, zeros, layout):
    """Each row of pair_marginals == marginal(SymmetricLaw(...), 2) bit for
    bit: the law drops zero masses before `_sum` blocks them, so a row's
    blocks hold its classes of mass > 0 only."""
    n = data.draw(st.integers(2, PAIR_MAX_N[k]))
    occ = occupancy_array(k, n)
    rng = np.random.default_rng(seed)
    P = mass_stack(rng, rows, len(occ), zeros, layout)
    got = pair_marginals(occ, P, n)
    assert got.shape == (rows, k, k)
    for row, pair in zip(P, got):
        want = marginal(SymmetricLaw(StateSpace.of_size(k), n, occ, row), 2)
        assert pair.tobytes() == want.tobytes()


@pytest.mark.parametrize("k, n", [(2, 300), (3, 22), (3, 23), (4, 12), (5, 9)])
def test_pair_marginals_past_one_block(k, n):
    # Full-support rows beside rows with zero masses, past SUM_BLOCK classes.
    occ = occupancy_array(k, n)
    assert len(occ) > SUM_BLOCK
    rng = np.random.default_rng(n)
    P = np.vstack([mass_stack(rng, 2, len(occ), 0.0, "C"), mass_stack(rng, 2, len(occ), 0.5, "C")])
    for row, pair in zip(P, pair_marginals(occ, P, n)):
        want = marginal(SymmetricLaw(StateSpace.of_size(k), n, occ, row), 2)
        assert pair.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 5), n=st.integers(3037000500, 2**63 - 1), seed=st.integers(0, 2**32 - 1),
       classes=st.integers(1, 4), rows=st.integers(1, 3))
@example(k=3, n=2**63 - 1, seed=0, classes=4, rows=3)
def test_pair_marginals_on_the_python_int_path(k, n, seed, classes, rows):
    """Past n(n - 1) = 2**63 the column products are Python ints in both."""
    rnd = random.Random(seed)
    occ = np.array(sorted({big_composition(rnd, k, n) for _ in range(classes)}, reverse=True),
                   dtype=np.int64)
    P = mass_stack(np.random.default_rng(seed), rows, len(occ), 0.3, "C")
    for row, pair in zip(P, pair_marginals(occ, P, n)):
        want = marginal(SymmetricLaw(StateSpace.of_size(k), n, occ, row), 2)
        assert pair.tobytes() == want.tobytes()


@pytest.mark.parametrize("P, message", [
    ([[0.5, np.nan, 0.5]], "negative or non-finite class mass nan at (1, 1)"),
    ([[0.5, 0.5, 0.0], [0.6, 0.4, -1e-3]], "negative or non-finite class mass -0.001 at (0, 2)"),
    ([[0.5, 0.5, np.inf]], "negative or non-finite class mass inf at (0, 2)"),
    ([[1.0, 0.0, 0.0], [0.5, 0.5, 1e-9]], "class masses do not sum to 1"),
    ([[0.0, 0.0, 0.0]], "class masses do not sum to 1"),
    ([[0.5, 0.5, -2e-15]], "negative or non-finite class mass -2e-15 at (0, 2)"),
])
def test_pair_marginals_check_masses_as_the_constructor(P, message):
    occ = occupancy_array(2, 2)
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        pair_marginals(occ, P, 2)
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        SymmetricLaw(StateSpace.of_size(2), 2, occ, P[-1])


@pytest.mark.parametrize("occ, P, n", [
    (occupancy_array(2, 2), [0.5, 0.5, 0.0], 2),
    (occupancy_array(2, 2), [[0.5, 0.5]], 2),
    (occupancy_array(2, 2).astype(float), [[0.5, 0.5, 0.0]], 2),
    (occupancy_array(2, 1), [[0.5, 0.5]], 1),
])
def test_pair_marginals_refuse_bad_shapes(occ, P, n):
    with pytest.raises(InvalidArgumentError):
        pair_marginals(occ, P, n)


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_specific_loglik_and_mean_empirical_tv(shape, seed, sparse):
    k, n = shape
    rng = np.random.default_rng(seed)
    law = random_law(rng, k, n, sparse)
    p = random_p(rng, k, 0)
    assert abs(specific_loglik(law) - oracle_specific_loglik(law.classes, n)) < TOL
    assert abs(mean_empirical_tv(law, p)
               - oracle_mean_empirical_tv(law.classes, n, p)) < TOL


def composition(rng, k, n):
    return tuple(rng.multinomial(n, rng.dirichlet(np.ones(k))).tolist())


LAW_KINDS = ["product", "dict", "microcanonical", "point", "two-class"]


@st.composite
def class_laws(draw):
    """A law and a target p: a product law (column-contiguous classes), a
    dict-built law on all classes or half of them (C-ordered), a
    microcanonical law, a point class or a two-class mixture; the sparse
    kinds, and the product law at k <= 2, also at n past PASCAL_ROWS."""
    kind = draw(st.sampled_from(LAW_KINDS))
    k, n = draw(shapes())
    if kind in ("point", "two-class") and draw(st.booleans()):
        n = draw(st.integers(PASCAL_ROWS - 2, 10**6))
    elif kind == "product" and k <= 2 and draw(st.booleans()):
        n = draw(st.integers(PASCAL_ROWS - 2, PASCAL_ROWS + 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = StateSpace.of_size(k)
    p = np.array(random_p(rng, k, draw(st.integers(0, 2))))
    if kind == "product":
        law = product_law(p, n)
    elif kind == "dict":
        law = random_law(rng, k, n, draw(st.booleans()))
    elif kind == "microcanonical":
        H = tuple(float(h) for h in rng.integers(0, 4, k))
        E = float(np.dot(composition(rng, k, n), H)) / n
        law = microcanonical(EnergyModel(space, H, E, draw(st.floats(0.05, 2.0))), n)
    elif kind == "point":
        law = point_class(space, composition(rng, k, n))
    else:
        a, b, w = composition(rng, k, n), composition(rng, k, n), rng.random()
        law = SymmetricLaw(space, n, [a, b], [w, 1 - w])
    return law, p


def assert_same_law(got: SymmetricLaw, want: SymmetricLaw):
    assert np.array_equal(got.occ, want.occ) and np.array_equal(got.p, want.p)


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32 - 1),
       zeros=st.integers(0, 2), tiny=st.booleans())
def test_product_column_is_the_law_vector(k, data, seed, zeros, tiny):
    """theorem-probe's product column, from product_law's arithmetic alone,
    == product_law(p, n).vector() bit for bit: with zero entries of p,
    underflowing powers (tiny entries) and, at k <= 2, n past the Pascal
    table, where every class size takes the log path."""
    n = data.draw(st.integers(1, {1: 2000, 2: PASCAL_ROWS + 3, 3: 60, 4: 24, 5: 14}[k]))
    p = np.array(random_p(np.random.default_rng(seed), k, zeros))
    if tiny and k > 1:
        p[-1] = 1e-300
        p /= p.sum()
    rho = law_rows([p])[0]
    want = product_law(rho, n).vector()
    assert core._product_masses(rho, n)[0].tobytes() == want.tobytes()
    assert column_laws(rho, n)[1].tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), zeros=st.integers(0, 2))
def test_product_law_is_the_rowwise_form(shape, seed, zeros):
    k, n = shape
    p = np.array(random_p(np.random.default_rng(seed), k, zeros))
    assert_same_law(product_law(p, n), rowwise_product_law(p, n))


@pytest.mark.parametrize("k, n", [(2, PASCAL_ROWS + 1), (2, 5000), (3, PASCAL_ROWS + 1)])
@pytest.mark.parametrize("zeros", [0, 1])
def test_product_law_past_the_pascal_table_is_the_rowwise_form(k, n, zeros):
    # Every class size overflows the table's reach: the log-factorial path.
    p = np.array(random_p(np.random.default_rng(n), k, zeros))
    assert_same_law(product_law(p, n), rowwise_product_law(p, n))


@settings(max_examples=150, deadline=None)
@given(law_and_p=class_laws())
def test_class_arithmetic_is_the_rowwise_form(law_and_p):
    law, p = law_and_p
    assert np.array_equal(_class_sizes(law.occ, law.n), rowwise_class_sizes(law.occ, law.n))
    assert mean_empirical_tv(law, p) == rowwise_mean_empirical_tv(law, p)
    assert specific_loglik(law) == rowwise_specific_loglik(law)


@settings(max_examples=40, deadline=None)
@given(grid=st.lists(st.integers(0, 300), min_size=1, max_size=6))
def test_grown_pascal_table_is_the_built_one(grid):
    with mock.patch.object(core, "_pascal", _build_pascal(0)):
        for n in grid:
            table = _binomials(n)
            assert len(table) > n
            assert np.array_equal(table, _build_pascal(len(table) - 1))


def test_pascal_table_is_the_rowwise_triangle_on_its_anti_diagonals():
    table, triangle = _build_pascal(PASCAL_ROWS), rowwise_pascal(PASCAL_ROWS)
    i, j = np.indices(table.shape)
    inside = i + j <= PASCAL_ROWS
    assert np.array_equal(table[inside], triangle[(i + j)[inside], j[inside]])
    assert not table[~inside].any()


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 7), n=st.integers(1, PASCAL_ROWS + 1), seed=st.integers(0, 2**32 - 1))
@example(k=3, n=PASCAL_ROWS, seed=0)
@example(k=7, n=PASCAL_ROWS, seed=1)
def test_class_sizes_are_the_rowwise_form(k, n, seed):
    """Bit for bit on the whole class space where it fits, else on an
    energy window of it, and on row subsets of either and on random
    classes, up to the first n past the table."""
    rng = np.random.default_rng(seed)
    if math.comb(n + k - 1, k - 1) <= 50_000:
        occ = occupancy_array(k, n)
        w = rng.integers(-3, 4, k)
    else:
        # Mixed-radix weights, largest first so that each prefix can reach
        # few energies: each energy is at most one class.
        w = np.array([(n + 1) ** i for i in range(k - 2, -1, -1)] + [0])
    e = int(np.dot(composition(rng, k, n), w))
    window = window_occupancies(w, e - 400, e + 400, n)
    if math.comb(n + k - 1, k - 1) > 50_000:
        occ = window
    picked = occ[rng.random(len(occ)) < 0.3]
    drawn = np.array([composition(rng, k, n) for _ in range(200)])
    for rows in (occ, window, picked, occ[::3], drawn):
        assert np.array_equal(_class_sizes(rows, n), rowwise_class_sizes(rows, n))


def test_point_class_at_large_n_builds_no_count_array():
    # A table over the counts 0..n would take 8 MB at n = 10^6.
    law = point_class(S3, (400_000, 350_001, 249_999))
    rho = np.array([0.4, 0.35, 0.25])
    tracemalloc.start()
    try:
        values = (pair_gap(marginal(law, 2), rho), mean_empirical_tv(law, rho),
                  specific_loglik(law))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    assert values[1:] == (rowwise_mean_empirical_tv(law, rho), rowwise_specific_loglik(law))


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_tv_distance(shape, seed, sparse):
    k, n = shape
    rng = np.random.default_rng(seed)
    a, b = random_law(rng, k, n, sparse), random_law(rng, k, n, True)
    assert abs(law_tv_distance(a, b) - oracle_tv_distance(a.classes, b.classes)) < TOL
    p, q = (random_p(rng, k, zeros) for zeros in (0, 2))
    assert abs(tv_distance(p, q) - oracle_tv_distance(dict(enumerate(p)),
                                                      dict(enumerate(q)))) < TOL


def test_class_index_ranks_every_class():
    for k in range(1, 6):
        for n in range(1, 41):
            occ = occupancy_array(k, n)
            assert np.array_equal(class_index(occ, n), np.arange(len(occ)))


def canonical(classes: dict, n: int, k: int) -> list:
    """The keys of `classes` in canonical enumeration order."""
    return [m for m in oracle_compositions(n, k) if m in classes]


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_mixture(shape, seed, sparse):
    k, n = shape
    rng = np.random.default_rng(seed)
    a, b, w = random_law(rng, k, n, sparse), random_law(rng, k, n, True), rng.random()
    got = mixture([(a, w), (b, 1 - w)]).classes
    want = oracle_mixture([(a.classes, w), (b.classes, 1 - w)])
    assert got == want
    assert list(got) == canonical(want, n, k)


@settings(max_examples=60, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), ordered=st.booleans())
def test_constructor_sorts_and_merges_like_the_dict_oracle(shape, seed, ordered):
    """Rows in canonical order are kept as given; shuffled rows with repeats
    and zero masses give, bit for bit, the dict oracle's law."""
    k, n = shape
    rng = np.random.default_rng(seed)
    occ = occupancy_array(k, n)
    size = int(rng.integers(1, 12))
    if ordered:
        rows = occ[np.sort(rng.choice(len(occ), min(size, len(occ)), replace=False))]
    else:
        rows = occ[rng.integers(0, len(occ), size)]
    masses = rng.random(len(rows)) * (rng.random(len(rows)) < 0.8)
    masses[rng.integers(len(rows))] += 0.5
    masses /= masses.sum()
    law = SymmetricLaw(StateSpace.of_size(k), n, rows, masses)
    want = oracle_law(rows.tolist(), masses.tolist())
    assert law.occ.tolist() == [list(m) for m in want]
    assert law.p.tolist() == list(want.values())


def test_mixture_of_point_classes_at_large_n():
    # Summing full-class-space vectors would need C(10^6 + 2, 2) doubles, 3.64 TiB.
    n = 10**6
    a, b = (point_class(S3, m) for m in [(0, n, 0), (n - 2, 1, 1)])
    law = mixture([(a, 0.25), (b, 0.75)])
    assert law.classes == {(n - 2, 1, 1): 0.75, (0, n, 0): 0.25}
    assert list(law.classes) == [(n - 2, 1, 1), (0, n, 0)]


def test_mixture_of_point_classes_past_int64_ranks():
    """At n = 10^10, k = 3 class ranks reach 5e19, past int64, so a sort by
    `class_index` misordered a mixture of 2,000 point classes; the sort is
    by the counts, and repeated classes add their masses in input order."""
    n = 10**10
    rng = np.random.default_rng(29)
    first = rng.integers(0, n + 1, size=2000)
    second = rng.integers(0, n - first + 1)
    rows = np.column_stack([first, second, n - first - second])
    rows[1000:1100] = rows[:100]  # 100 classes twice
    masses = rng.random(len(rows))
    masses /= masses.sum()
    law = mixture([(point_class(S3, tuple(m)), mass)
                                for m, mass in zip(rows.tolist(), masses.tolist())])
    want = oracle_law(rows.tolist(), masses.tolist())
    assert len(want) == 1900
    assert law.occ.tolist() == [list(m) for m in want]
    assert law.p.tolist() == list(want.values())


def shell_matrix(k, n, rule):
    """The one-collision class matrix assembled from its shell blocks, after
    checking that the shells, each in rank order, hold every class once,
    and that pad slots (rank -1) close each shell and hold only zeros."""
    classes = len(occupancy_array(k, n))
    P, seen = np.zeros((classes, classes)), []
    for members, blocks in _shell_stacks(k, n, rule):
        assert blocks.shape == members.shape + members.shape[-1:]
        for shell, block in zip(members, blocks):
            size = int((shell >= 0).sum())
            assert (shell[size:] == -1).all() and (np.diff(shell[:size]) > 0).all()
            assert not block[size:].any() and not block[:, size:].any()
            P[shell[:size, None], shell[None, :size]] = block[:size, :size]
            seen.extend(shell[:size].tolist())
    assert sorted(seen) == list(range(classes))
    return P


@pytest.mark.parametrize("k, max_n", [(2, 12), (3, 12), (4, 8)])
def test_kac_event_matrix_is_the_class_loop(k, max_n):
    """The one-collision shell blocks == the per-class loop's entries, bit
    for bit, and the loop's matrix has no entry outside them."""
    for n in range(2, max_n + 1):
        rule = SumConservingRule(k)
        assert np.array_equal(shell_matrix(k, n, rule), oracle_kac_event_matrix(k, n, rule))


@pytest.mark.parametrize("k, max_n", [(3, 12), (4, 12), (5, 12), (6, 8)])
def test_label_sum_shells_are_the_components(k, max_n):
    """For the bundled rule the shells are the label-sum shells, they
    partition the class space, and each is one connected component of the
    one-collision matrix: the moves reach every class of a shell."""
    rule = default_rule(k)
    for n in range(2, max_n + 1):
        occ = occupancy_array(k, n)
        shells = [[r for r in m if r >= 0]
                  for members, _ in _shell_stacks(k, n, rule) for m in members.tolist()]
        assert sorted(r for m in shells for r in m) == list(range(len(occ)))
        sums = [set((occ[m] @ np.arange(k)).tolist()) for m in shells]
        assert all(len(s) == 1 for s in sums) and len(set.union(*sums)) == len(shells)
        components = oracle_blocks(oracle_kac_event_matrix(k, n, rule))
        assert sorted(shells) == sorted(c.tolist() for c in components)


def test_exact_kac_rows_build_no_class_by_class_array():
    """k = 5, n = 12 has 1,820 classes, so one dense classes x classes
    matrix takes 26.5 MB; the shell blocks' peak is held below 16 MB (a
    dense one-collision matrix and a dense result peaked at 51.5 MB)."""
    kernel = kac_collision_kernel(StateSpace.of_size(5), 1.0, 1.0, 12)
    tracemalloc.start()
    try:
        kernel.class_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


class ResampleRule(PairRule):
    """The pair becomes any ordered pair, uniformly: no invariant, so the
    class matrix is one block."""

    def __init__(self, k):
        self.k = k

    def outcomes(self, u, w):
        return [((a, b), 1.0 / self.k**2) for a in range(self.k) for b in range(self.k)]


def kac_matrix_and_expm(k, n, lam, t, rule=None):
    """The exact Kac class matrix as a dense array, its kept entries, and
    scipy's expm of the generator of the same one-collision matrix P."""
    src, dst, prob = kac_collision_kernel(StateSpace.of_size(k), lam, t, n,
                                          pair_rule=rule).class_matrix()
    P = oracle_kac_event_matrix(k, n, rule or default_rule(k))
    M = np.zeros_like(P)
    M[src, dst] = prob
    return M, prob, expm(t * (lam * (n - 1) / 2.0) * (P - np.eye(len(P))))


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([2, 3, 4]), n=st.integers(2, 12), rate_time=st.floats(0.0, 100.0),
       rule=st.sampled_from([None, ResampleRule]))
def test_uniformized_kac_matrix_is_expm(k, n, rate_time, rule):
    """Uniformization == expm(rate_time * (P - I)) to 1e-12 (at most 455
    classes), kept entries positive, rows summing to 1 within 1e-12."""
    t = rate_time / ((n - 1) / 2.0)
    M, prob, want = kac_matrix_and_expm(k, n, 1.0, t, rule and rule(k))
    assert np.abs(M - want).max() <= 1e-12
    assert (prob > 0).all()
    assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("k, n", [(2, 2), (3, 12), (4, 7)])
def test_uniformized_kac_matrix_at_time_zero_is_the_identity(k, n):
    src, dst, prob = kac_collision_kernel(StateSpace.of_size(k), 1.0, 0.0, n).class_matrix()
    classes = len(occupancy_array(k, n))
    assert np.array_equal(src, np.arange(classes)) and np.array_equal(dst, np.arange(classes))
    assert np.array_equal(prob, np.ones(classes))


def test_uniformized_kac_matrix_at_long_time():
    """Rate * time = 11000: 14 squarings keep it within 1e-9 of expm, and
    rows sum to 1 within 1e-13 (they were off by 5.2e-12 before each
    squaring renormalised them)."""
    M, prob, want = kac_matrix_and_expm(3, 12, 1.0, 2000.0)
    assert np.abs(M - want).max() <= 1e-9
    assert (prob > 0).all()
    assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-13


class ZeroFirstRule(SumConservingRule):
    """SumConservingRule behind an outcome (0, 0) of probability 0."""

    def outcomes(self, u, w):
        return [((0, 0), 0.0)] + super().outcomes(u, w)


class ShortRule(SumConservingRule):
    """Keep the pair with probability 1/2, else send it to (k-1, k-1); the
    probabilities sum to 1 - 1e-12, so a draw above that takes the fallback."""

    def outcomes(self, u, w):
        return [((u, w), 0.5), ((self.k - 1, self.k - 1), 0.5 - 1e-12)]


class EdgeDraws(np.random.Generator):
    """A Generator whose uniform picks land on cumulative-rate edges:
    multiples of 1/4, which hit the running sums of moves of equal rates
    (or of zero rate) exactly, and the largest double below 1.  The stream
    advances as a plain Generator's does."""

    def random(self, size=None, out=None):
        r = super().random(size, out=out)
        r[...] = np.where(r < 0.8, np.floor(r * 4) / 4, 1 - 2.0**-53)
        return r


class TenthsRule(PairRule):
    """Keep the pair with probability 0.1, swap it with 0.2, and send it to
    (0, (u + w) mod k) with 0.7: unordered outcomes that do not depend on
    the order of (u, w), and moves out of the pair's own sum."""

    def __init__(self, k):
        self.k = k

    def outcomes(self, u, w):
        return [((u, w), 0.1), ((w, u), 0.2), ((0, (u + w) % self.k), 0.7)]


# The pair rules of this file by name: several (u, w) pairs feed one change
# under "tenths" and "resample", whose moves leave the pair's label sum.
RULES = {"sum": SumConservingRule, "swap": lambda k: SwapRule(),
         "zero-first": ZeroFirstRule, "short": ShortRule, "tenths": TenthsRule,
         "resample": ResampleRule}


@pytest.mark.parametrize("rule", ["swap", "zero-first", "short", "tenths", "resample"])
def test_shell_blocks_of_other_rules(rule):
    """Shell blocks == the per-class loop's entries, bit for bit, for rules
    that keep the label sum (swap, zero-first), whose shells are label-sum
    shells, and for rules that leave it, whose one shell is every class."""
    for k, max_n in [(2, 8), (3, 8), (4, 5)]:
        for n in range(2, max_n + 1):
            table = RULES[rule](k)
            assert np.array_equal(shell_matrix(k, n, table), oracle_kac_event_matrix(k, n, table))
            shells = sum(len(members) for members, _ in _shell_stacks(k, n, table))
            assert shells == (1 if rule in ("short", "tenths", "resample") else n * (k - 1) + 1)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_padded_kac_rows_are_the_per_size_rows(k):
    """`_kac_rows`, its shells of fewer than PAD_BELOW classes padded into
    one stack, == the per-size stacks' rows bit for bit, for n <= 12, five
    rate times from 0 to 1000 (n - 1) / 2 and the rules sum, swap and
    zero-first (label-sum shells), and tenths (one shell) for k <= 3."""
    for rule in ["sum", "swap", "zero-first"] + (["tenths"] if k <= 3 else []):
        table = RULES[rule](k)
        for n in range(2, 13):
            for t in (0.0, 0.3, 1.0, 26.0, 1000.0):
                rate_time = t * (n - 1) / 2.0
                got = _kac_rows(k, n, table, rate_time)
                want = per_size_kac_rows(k, n, table, rate_time)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (rule, n, t)


def test_small_kac_shells_run_as_one_stack(monkeypatch):
    """k = 3, n <= 12: every label-sum shell has at most 7 classes, so the
    exact rows run one uniformization stack per n, where one stack per
    shell size ran n // 2 + 1 of them."""
    import chaoslab.kernels as kernels

    stacks, build = [], kernels._shell_stacks

    def counted(*args):
        for members, P in build(*args):
            stacks.append(len(members))
            yield members, P

    monkeypatch.setattr(kernels, "_shell_stacks", counted)
    for n in range(2, 13):
        stacks.clear()
        kac_collision_kernel(S3, 1.0, 1.0, n).class_matrix()
        assert stacks == [2 * n + 1]
        assert len(list(per_size_shell_stacks(3, n, default_rule(3)))) == n // 2 + 1


def test_zero_padding_keeps_sums_and_products():
    """The padded stack of `_kac_rows` has the per-size bits because numpy
    sums a float row of fewer than 8 entries left to right, so zeros
    appended up to 7 entries leave its sum's bits, and a stacked @ over
    zero-padded blocks only adds exact zeros.  A numpy or BLAS change that
    breaks either fails here, not in the last bits of the Kac rows."""
    rng = np.random.default_rng(33)
    for size in range(1, PAD_BELOW):
        for width in range(size, PAD_BELOW):
            # Spread magnitudes, so that another summation order shows.
            a, b = rng.random((2, 40, size, size)) * 10.0 ** rng.integers(-8, 9, (2, 40, 1, size))
            pa, pb = np.zeros((2, 40, width, width))
            pa[:, :size, :size], pb[:, :size, :size] = a, b
            assert np.array_equal(pa.sum(axis=2)[:, :size], a.sum(axis=2))
            for row, padded in zip(a[:, 0], pa[:, 0]):
                assert np.array_equal(padded.sum(), row.sum())
            assert np.array_equal((pa @ pb)[:, :size, :size], a @ b)
            inner = np.zeros((40, size, width))
            inner[:, :, :size] = a
            assert np.array_equal(inner @ pb[:, :, :size], a @ b)


@pytest.mark.parametrize("n", [2, 3, 12])
def test_swap_rule_rows_are_the_identity(n):
    """Swapping colliders never moves a class, so every row of its exact
    matrix is the row's own class."""
    src, dst, prob = kac_collision_kernel(S3, 1.0, 1.0, n, pair_rule=SwapRule()).class_matrix()
    classes = len(occupancy_array(3, n))
    assert np.array_equal(src, np.arange(classes)) and np.array_equal(dst, np.arange(classes))
    assert np.array_equal(prob, np.ones(classes))


@pytest.mark.parametrize("rule", sorted(RULES))
def test_every_change_has_a_term(rule):
    """The changes named in `terms`, in order, run through range(len(changes))
    with no gaps, so `move_weights` writes each row it allocates first and
    then adds to it; zero-first, whose zero-probability outcomes come
    first, would be the rule to break it."""
    for k in range(2, 8):
        table = RULES[rule](k).compiled(k)
        named = [d for d, _, _, _ in table.terms]
        assert sorted(set(named)) == list(range(len(table.changes))) and named == sorted(named)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 6), rule=st.sampled_from(sorted(RULES)), data=st.data())
def test_move_weights_are_the_dense_form(k, rule, data):
    """The sum over the rule's nonzero coefficients == the dense sum of
    every coefficient along the k^2 axis, value for value, with counts up
    to MAX_N, where the float pair counts round."""
    table = RULES[rule](k).compiled(k)
    count = st.integers(0, 40) | st.integers(0, montecarlo.MAX_N)
    stack = np.array(data.draw(st.lists(st.lists(count, min_size=k, max_size=k),
                                        min_size=1, max_size=8)), dtype=np.int64)
    got = table.move_weights(stack.T)
    assert got.shape == (len(table.changes), len(stack))
    assert (got == oracle_move_weights(table, stack).T).all()


@pytest.mark.parametrize("k, rule", [
    *[(k, SumConservingRule(k)) for k in range(2, 7)],
    (3, SwapRule()), (3, ResampleRule(3)), (4, ZeroFirstRule(4)), (4, TenthsRule(4)),
], ids=[*[f"sum-{k}" for k in range(2, 7)], "swap", "resample", "zero-first", "tenths"])
def test_collision_tensor_from_the_move_table(k, rule):
    """kappa read off (changes, coeffs) == kappa summed from the outcome
    lists, with no negative entry and columns that sum to 1."""
    kappa = collision_marginal_tensor(k, rule)
    assert np.abs(kappa - oracle_collision_tensor(k, rule)).max() <= 1e-15
    assert kappa.min() >= 0.0
    assert np.abs(kappa.sum(axis=0) - 1.0).max() <= 1e-15


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 5), data=st.data(), lam=st.floats(0.01, 3.0), t=st.floats(0.0, 1.0),
       rule=st.sampled_from(sorted(RULES)), block=st.sampled_from([2, montecarlo.JUMP_BLOCK]),
       edges=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_simulate_kac_is_the_scan_loop(k, data, lam, t, rule, block, edges, seed):
    """The vectorised jump loop == the scalar per-jump walk: same end
    counts, and the generator left in the same state."""
    counts = data.draw(st.lists(st.integers(0, 40 // k), min_size=k, max_size=k)
                       .filter(lambda c: sum(c) >= 2))
    rule = RULES[rule](k)
    make = EdgeDraws if edges else np.random.Generator
    got_rng, want_rng = make(np.random.PCG64(seed)), make(np.random.PCG64(seed))
    with mock.patch.object(montecarlo, "JUMP_BLOCK", block):
        got = simulate_kac(ParticleState(tuple(counts)), lam, t, got_rng, rule)
        want = oracle_simulate_kac(ParticleState(tuple(counts)), lam, t, want_rng, rule)
    assert got.counts == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 5), rows=st.integers(1, 12), data=st.data(), lam=st.floats(0.01, 3.0),
       t=st.floats(0.0, 1.0), rule=st.sampled_from(sorted(RULES)),
       block=st.sampled_from([2, montecarlo.JUMP_BLOCK]), edges=st.booleans(),
       big=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_simulate_kac_stack_is_the_scan_loop(k, rows, data, lam, t, rule, block, edges, big,
                                             seed):
    """Each row of the lockstep stack == the scalar per-jump walk on that
    row's Generator: same end counts, and the Generator left in the same
    state.  Rows stop at different steps (absorbed, or past t) beside rows
    still jumping; a big n takes counts past 2^53, where their floats
    round, with t scaled to about 40 collisions a row."""
    n = data.draw(st.integers(2**31, montecarlo.MAX_N) if big
                  else st.integers(2, 4) | st.integers(2, 30))
    if big:
        t *= 80.0 / (lam * n)
    starts = []
    for _ in range(rows):
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=k - 1, max_size=k - 1)))
        starts.append([b - a for a, b in zip([0, *cuts], [*cuts, n])])
    make = EdgeDraws if edges else np.random.Generator
    got_rngs = [make(np.random.PCG64([seed, r])) for r in range(rows)]
    want_rngs = [make(np.random.PCG64([seed, r])) for r in range(rows)]
    rule = RULES[rule](k)
    with mock.patch.object(montecarlo, "JUMP_BLOCK", block):
        got = simulate_kac_stack(np.array(starts), lam, t, got_rngs, rule)
        for r in range(rows):
            want = oracle_simulate_kac(ParticleState(tuple(starts[r])), lam, t, want_rngs[r], rule)
            assert tuple(got[r].tolist()) == want
            assert got_rngs[r].bit_generator.state == want_rngs[r].bit_generator.state


@pytest.mark.parametrize("rule, start, t", [
    ("sum", (4, 2, 2), 1.0),
    ("sum", (2, 1, 2, 1), 0.7),  # k = 4, n = 6
    ("sum", (5, 4, 3), 0.4),  # n = 12
    ("zero-first", (3, 2, 2, 1), 1.0),
    ("short", (3, 2, 1), 0.5),
    ("swap", (3, 2, 1), 1.0),  # no collision changes the class
    ("sum", (8, 0, 0), 1.0),  # absorbed: no collision moves it
    ("sum", (3, 3, 2), 0.0),
    ("sum", (1, 0, 1), 1.0),  # n = 2
])
def test_simulated_rows_have_the_exact_law(rule, start, t):
    """10^5 runs of the jump loop from one class against the exact
    uniformized row: each class's count within 4 sigma, and no numpy
    warning.  The runs are 100 stack calls on 1,000 fixed-seed Generators,
    each call going on with the streams the last one left."""
    k, n, runs = len(start), sum(start), 100_000
    rule = RULES[rule](k)
    src, dst, prob = kac_collision_kernel(StateSpace.of_size(k), 1.0, t, n,
                                          pair_rule=rule).class_matrix()
    mine = src == class_index(np.array([start]), n)[0]
    row = dict(zip(map(tuple, occupancy_array(k, n)[dst[mine]].tolist()), prob[mine].tolist()))
    rngs = [np.random.default_rng([5, r]) for r in range(1000)]
    counts = {}
    with np.errstate(all="raise"):
        for _ in range(runs // len(rngs)):
            ends = simulate_kac_stack([start] * len(rngs), 1.0, t, rngs, rule)
            for end in map(tuple, ends.tolist()):
                counts[end] = counts.get(end, 0) + 1
    for m in row.keys() | counts.keys():
        p = row.get(m, 0.0)
        sigma = math.sqrt(max(runs * p * (1 - p), 1e-12))
        assert abs(counts.get(m, 0) - runs * p) <= 4 * sigma, (m, counts.get(m, 0), runs * p)


def test_simulate_kac_stack_needs_one_n():
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(InvalidArgumentError, match="share one n"):
        simulate_kac_stack([(3, 2), (2, 2)], 1.0, 1.0, rngs)
    with pytest.raises(InvalidArgumentError, match="MAX_N"):
        simulate_kac_stack([(montecarlo.MAX_N, 1)] * 2, 1.0, 1.0, rngs)


def states(rngs) -> list:
    return [rng.bit_generator.state for rng in rngs]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(1, 8).flatmap(lambda words: st.integers(0, 2**(32 * words) - 1)),
       first=st.integers(0, 40) | st.integers(2**32 - 14, 2**32 + 2)
       | st.integers(0, 2**63 - 14),
       size=st.integers(0, 12), cut=st.integers(0, 12))
@example(seed=2**200 + 1, first=2**32 - 2, size=4, cut=2)
def test_replica_rngs_are_seed_sequence_streams(seed, first, size, cut):
    """One pass over replicas first, ..., last - 1 == one SeedSequence per
    replica, bit_generator state for state, for run entropy of 1 to 8
    words and keys of one word or two (from 2^32 on), and the range built
    in one pass == the range built in two."""
    last = first + size
    got = replica_rngs(seed, first, last)
    assert states(got) == states(oracle_replica_rng(seed, r) for r in range(first, last))
    mid = first + min(cut, size)
    assert states(replica_rngs(seed, first, mid) + replica_rngs(seed, mid, last)) == states(got)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64), first=st.integers(0, 40) | st.integers(2**32 - 4, 2**32 + 2),
       size=st.integers(0, 6), copies=st.integers(1, 4))
def test_replica_rng_copies_are_separate_calls(seed, first, size, copies):
    """replica_rngs(..., copies) == `copies` separate calls, state for
    state, and each Generator its own: drawing on one moves no other."""
    got = replica_rngs(seed, first, first + size, copies)
    assert states(got) == copies * states(replica_rngs(seed, first, first + size))
    assert len({id(rng.bit_generator) for rng in got}) == len(got)
    if got:
        got[0].random(3)
        assert states(got[1:]) == states(replica_rngs(seed, first, first + size, copies))[1:]


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 4), n=st.integers(2, 6), replicas=st.integers(2, 30),
       kind=st.sampled_from(["point", "product", "zeros"]), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_probe_starts_are_generator_choice(k, n, replicas, kind, seed, data):
    """theorem-probe's start classes == Generator.choice over the law's
    masses, run by run, and each run's Generator is left in the state
    choice leaves it in: for point classes, product laws and masses with
    zero entries (which a SymmetricLaw drops, so they come as bare arrays).
    The starts are drawn from the laws' masses over every class by rank."""
    space, occ = StateSpace.of_size(k), occupancy_array(k, n)
    if kind == "point":
        law = point_class(space, tuple(occ[data.draw(st.integers(0, len(occ) - 1))]))
    elif kind == "product":
        w = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
        law = product_law(w / w.sum(), n)
    else:
        w = np.array(data.draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0),
                                        min_size=len(occ), max_size=len(occ))))
        w[data.draw(st.integers(0, len(w) - 1))] += 1.0
        law = SimpleNamespace(occ=occ, p=w / w.sum())
    column = law.p if kind == "zeros" else law.vector()
    seen = []

    def sampler(starts, rngs):
        seen.append((starts, states(rngs)))
        return starts

    kernel = SimpleNamespace(sampler=sampler, source=space, n=n)
    monte_carlo_pair_marginals(column[None], kernel, replicas, seed)
    rngs = replica_rngs(seed, 0, replicas)
    want = law.occ[[rng.choice(len(law.p), p=law.p) for rng in rngs]]
    [(starts, after)] = seen
    assert (starts == want).all()
    assert after == states(rngs)


KERNEL_KINDS = ["identity", "map", "counterexample", "kac"]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(KERNEL_KINDS), k=st.integers(2, 3), n=st.integers(2, 7),
       seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_propagate_is_the_dict_merge(kind, k, n, seed, sparse):
    """propagate == the dict merge over symmetrized_class_kernel's rows, bit for bit."""
    rng = np.random.default_rng(seed)
    k = 2 if kind == "counterexample" else k
    space = StateSpace.of_size(k)
    law = random_law(rng, k, n, sparse)
    if kind == "identity":
        kernel = identity_kernel(space, n)
    elif kind == "map":
        fmap = rng.integers(0, k + 1, size=k).tolist()
        kernel = map_kernel(fmap, n, space, StateSpace.of_size(max(k, max(fmap) + 1)))
    elif kind == "counterexample":
        kernel = counterexample_kernel(n)
    else:
        kernel = kac_collision_kernel(space, float(rng.uniform(0.2, 2)),
                                      float(rng.uniform(0.1, 1.5)), n)
    got = propagate(law, kernel).classes
    want = oracle_propagate(law.classes, symmetrized_class_kernel(kernel))
    assert got == want
    assert list(got) == canonical(want, n, kernel.target.k)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 4), n=st.integers(1, 30),
       H=st.lists(st.integers(-20, 20), min_size=4, max_size=4),
       E=st.integers(-20, 20), delta=st.integers(1, 20))
def test_microcanonical(k, n, H, E, delta):
    H, E, delta = tuple(h / 10 for h in H[:k]), E / 10, delta / 10
    model = EnergyModel(StateSpace.of_size(k), H, E, delta)
    want = oracle_microcanonical(H, E, delta, n)
    if want is None:
        with pytest.raises(EmptyEnsembleError):
            microcanonical(model, n)
    else:
        assert_same_classes(microcanonical(model, n).classes, want)


def test_microcanonical_window_sweep():
    """Exact open-window membership over a grid full of boundary cases.

    Many window edges here are decimals that some class's mean energy hits
    exactly; deciding in floats puts 210 classes on the wrong side.
    """
    Hs = [(0, 0.1, 0.2), (0, 1, 2), (0, 0.3, 0.7), (0.1, 0.2, 0.3)]
    Es = [i / 10 for i in range(1, 11)]
    deltas = [0.05, 0.1, 0.2, 0.3]
    float_misses = 0
    for H in Hs:
        for E in Es:
            for delta in deltas:
                model = EnergyModel(StateSpace.of_size(3), H, E, delta)
                for n in (10, 20, 30):
                    want = oracle_microcanonical(H, E, delta, n)
                    lo, hi = E - delta / 2, E + delta / 2
                    float_support = [m for m in oracle_compositions(n, 3)
                                     if lo < math.fsum(mi * h for mi, h in zip(m, H)) / n < hi]
                    float_misses += len(set(float_support) ^ set(want or {}))
                    if want is None:
                        with pytest.raises(EmptyEnsembleError):
                            microcanonical(model, n)
                    else:
                        assert_same_classes(microcanonical(model, n).classes, want)
    assert float_misses == 210


@pytest.mark.parametrize("H, E, delta, dtype", [
    # Sixteen decimals: over 10**16 every weight and bound, and 2n times
    # the largest weight, stay below 2**62.
    pytest.param((0, 0.3333333333333333, 0.7071067811865476), 0.4, 0.1, np.int64,
                 id="H0-0.4-0.1"),
    # The weight 2 * 1234.5678901234567 * 10**16 alone does not fit in int64.
    pytest.param((0, 0.3333333333333333, 1234.5678901234567), 400.0, 100.0, object,
                 id="H1-400.0-100.0"),
    # No weight overflows int64, but 2n times the largest passes 2**62.
    pytest.param((0, 0.3333333333333333, 20.70710678118655), 5.0, 2.0, object,
                 id="H2-5.0-2.0"),
])
def test_microcanonical_big_integer_window(H, E, delta, dtype, monkeypatch):
    """Many-decimal inputs are exact on the int64 path and on its Python-int
    fallback."""
    seen = energy_dtypes(monkeypatch)
    model = EnergyModel(S3, H, E, delta)
    assert_same_classes(microcanonical(model, 40).classes,
                        oracle_microcanonical(H, E, delta, 40))
    assert set(seen) == {np.dtype(dtype)}


@pytest.mark.parametrize("k, n, E", [(2, 1025, 0.5), (3, 652, 1.0)])
def test_microcanonical_sizes_sum_past_largest_double(k, n, E):
    """Every class size is a finite double, but their sum overflows.

    Energies 0..k-1 and delta = 0.1, so the open window is
    (20E - 1) / 20 < energy / n < (20E + 1) / 20; the exact masses come
    from big-integer class sizes.
    """
    model = EnergyModel(StateSpace.of_size(k), tuple(range(k)), E, 0.1)
    mid = round(20 * E)
    sizes = {}
    for m in oracle_compositions(n, k):
        energy = sum(i * mi for i, mi in enumerate(m))
        if (mid - 1) * n < 20 * energy < (mid + 1) * n:
            rest, size = n, 1
            for mi in m:
                size *= math.comb(rest, mi)
                rest -= mi
            sizes[m] = size
    total = sum(sizes.values())
    assert max(sizes.values()) < 2**1024 <= total
    assert_same_classes(microcanonical(model, n).classes,
                        {m: size / total for m, size in sizes.items()})


# Closed-form pins at n = 1280, k = 3: 821,121 classes, past the Pascal
# table, so every class size takes the log-factorial path.
BIG_N = 1280
S3 = StateSpace.of_size(3)
P = np.array([0.2, 0.3, 0.5])


@pytest.fixture(scope="module")
def big_product():
    return product_law(P, BIG_N)


def test_big_n_class_count():
    assert len(occupancy_array(3, BIG_N)) == math.comb(BIG_N + 2, 2)


def test_window_occupancies_label_sum_shells():
    """Labels 0, 1, 2 at n = 2,000: label sum s holds
    floor(s/2) - max(0, s - n) + 1 classes."""
    n = 2000
    want = sum(s // 2 - max(0, s - n) + 1 for s in range(1401, 1800))
    assert want == 319_499
    assert len(window_occupancies((0, 1, 2), 1400, 1800, n)) == want


def test_big_n_class_index():
    last = math.comb(BIG_N + 2, 2) - 1
    assert class_index((0, 0, BIG_N), BIG_N) == last
    ranks = class_index(occupancy_array(3, BIG_N), BIG_N)
    assert ranks[-1] == last and np.array_equal(ranks, np.arange(last + 1))


@pytest.mark.parametrize("m", [(1280, 0, 0), (640, 640, 0), (400, 500, 380), (1, 2, 1277)])
def test_big_n_point_class_pair_gap(m):
    q = [mi / BIG_N for mi in m]
    want = (1 - math.fsum(x * x for x in q)) / (BIG_N - 1)
    assert abs(pair_gap(marginal(point_class(S3, m), 2), q) - want) < 1e-14


def test_big_n_product_pair_gap(big_product):
    assert pair_gap(marginal(big_product, 2), P) < 1e-14


def test_big_n_product_specific_loglik(big_product):
    want = math.fsum(x * math.log(x) for x in P.tolist())
    assert abs(specific_loglik(big_product) - want) < 1e-12


@st.composite
def slope_points(draw):
    """An increasing grid, each n at least 10% past the last as chaos grids
    are, and a gap per n: decades from 1e-13.5 to 1, or at most ZERO_GAP."""
    grid = [draw(st.integers(2, 200))]
    for _ in range(draw(st.integers(1, 7))):
        grid.append(grid[-1] + draw(st.integers(max(1, grid[-1] // 10), 2 * grid[-1])))
    gaps = [draw(st.one_of(st.floats(-13.5, 0.0).map(lambda e: 10.0 ** e),
                           st.sampled_from([0.0, 1e-16, ZERO_GAP])))
            for _ in grid]
    return grid, gaps


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points=slope_points())
def test_fit_slope_is_polyfit(points):
    grid, gaps = points
    kept = [(math.log(n), math.log(g)) for n, g in zip(grid, gaps) if g > ZERO_GAP]
    got = _fit_slope(grid, gaps)
    if len(kept) < 2:
        assert got is None
    else:
        want = float(np.polyfit(*zip(*kept), 1)[0])
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(levels=st.lists(st.integers(-5, 5), min_size=2, max_size=6).filter(
           lambda h: len(set(h)) > 1),
       scale=st.floats(0.25, 4.0), at=st.floats(0.05, 0.95))
def test_fit_gibbs_matches_the_dot_product_form(levels, scale, at):
    H = [scale * h for h in levels]
    E = min(H) + at * (max(H) - min(H))
    beta, gamma = fit_gibbs(EnergyModel(StateSpace.of_size(len(H)), H, E, 0.1))
    want_beta, want_gamma = oracle_fit_gibbs(H, E)
    assert abs(beta - want_beta) <= 1e-12
    assert np.abs(gamma - want_gamma).max() <= 1e-12
    assert abs(math.fsum(g * h for g, h in zip(gamma.tolist(), H)) - E) < GIBBS_RESIDUAL_TOL
