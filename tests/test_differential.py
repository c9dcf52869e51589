"""Array-backed core and diagnostics against the dict/big-integer oracles in
conftest, and closed-form pins at n where no oracle can enumerate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    Distribution,
    EnergyModel,
    StateSpace,
    SymmetricLaw,
    marginal,
    mean_empirical_tv,
    microcanonical,
    pair_gap,
    product_law,
    specific_loglik,
    tv_distance,
)
from chaoslab.core import occupancy_array
from chaoslab.errors import EmptyEnsembleError

from conftest import (
    oracle_compositions,
    oracle_marginal,
    oracle_mean_empirical_tv,
    oracle_microcanonical,
    oracle_product_law,
    oracle_specific_loglik,
    oracle_tv_distance,
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
    return SymmetricLaw(StateSpace.of_size(k), n, dict(zip(occs, rng.dirichlet(np.ones(len(occs))))))


def assert_same_classes(got: dict, want: dict):
    assert list(got) == list(want)  # same support, same enumeration order
    assert max(abs(got[m] - want[m]) for m in want) < TOL


@settings(max_examples=40, deadline=None)
@given(shape=shapes())
def test_enumeration_order(shape):
    k, n = shape
    assert occupancy_array(k, n).tolist() == [list(m) for m in oracle_compositions(n, k)]


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), zeros=st.integers(0, 2))
def test_product_law(shape, seed, zeros):
    k, n = shape
    p = random_p(np.random.default_rng(seed), k, zeros)
    law = product_law(Distribution(StateSpace.of_size(k), p), n)
    assert_same_classes(law.classes, oracle_product_law(p, n))


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), sparse=st.booleans(),
       j=st.integers(1, 4))
def test_marginal(shape, seed, sparse, j):
    k, n = shape
    law = random_law(np.random.default_rng(seed), k, n, sparse)
    j = min(j, n)
    assert_same_classes(marginal(law, j).classes, oracle_marginal(law.classes, n, k, j))


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_specific_loglik_and_mean_empirical_tv(shape, seed, sparse):
    k, n = shape
    rng = np.random.default_rng(seed)
    law = random_law(rng, k, n, sparse)
    p = random_p(rng, k, 0)
    assert abs(specific_loglik(law) - oracle_specific_loglik(law.classes, n)) < TOL
    assert abs(mean_empirical_tv(law, Distribution(law.space, p))
               - oracle_mean_empirical_tv(law.classes, n, p)) < TOL


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_tv_distance(shape, seed, sparse):
    k, n = shape
    rng = np.random.default_rng(seed)
    a, b = random_law(rng, k, n, sparse), random_law(rng, k, n, True)
    assert abs(tv_distance(a, b) - oracle_tv_distance(a.classes, b.classes)) < TOL


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


@pytest.mark.parametrize("H, E, delta", [
    # No weight overflows int64, but the conservative bound
    # n * n * |lo| * D = 40 * 40 * 0.35 * 10**16 passes 2**62.
    ((0, 0.3333333333333333, 0.7071067811865476), 0.4, 0.1),
    # The weight 1234.5678901234567 * 10**16 alone does not fit in int64.
    ((0, 0.3333333333333333, 1234.5678901234567), 400.0, 100.0),
])
def test_microcanonical_big_integer_window(H, E, delta):
    """Many-decimal inputs take the Python-int fallback of the window test."""
    model = EnergyModel(S3, H, E, delta)
    assert_same_classes(microcanonical(model, 40).classes,
                        oracle_microcanonical(H, E, delta, 40))


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
P = Distribution(S3, (0.2, 0.3, 0.5))


@pytest.fixture(scope="module")
def big_product():
    return product_law(P, BIG_N)


def test_big_n_class_count():
    assert len(occupancy_array(3, BIG_N)) == math.comb(BIG_N + 2, 2)


@pytest.mark.parametrize("m", [(1280, 0, 0), (640, 640, 0), (400, 500, 380), (1, 2, 1277)])
def test_big_n_point_class_pair_gap(m):
    q = Distribution(S3, tuple(mi / BIG_N for mi in m))
    want = (1 - math.fsum(x * x for x in q.p)) / (BIG_N - 1)
    assert abs(pair_gap(SymmetricLaw.point_class(S3, m), q) - want) < 1e-14


def test_big_n_product_pair_gap(big_product):
    assert pair_gap(big_product, P) < 1e-14


def test_big_n_product_specific_loglik(big_product):
    want = math.fsum(x * math.log(x) for x in P.p)
    assert abs(specific_loglik(big_product) - want) < 1e-12
