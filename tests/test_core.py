import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    Distribution,
    OrderedLaw,
    StateSpace,
    SymmetricLaw,
    class_size,
    enumerate_occupancies,
    law_from_json,
    law_to_json,
    marginal,
    mean_empirical_tv,
    product_law,
    specific_loglik,
    symmetrize,
    to_dense,
    tv_distance,
)
from chaoslab.errors import CapacityError, InvalidArgumentError

from conftest import (
    dense_marginal_probs,
    dense_specific_loglik,
    random_symmetric_law,
)

S2 = StateSpace.of_size(2)
S3 = StateSpace.of_size(3)
HALF = Distribution(S2, (0.5, 0.5))


class TestEnumerateOccupancies:
    def test_k2_n3(self):
        assert enumerate_occupancies(S2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]

    def test_k1_n5(self):
        assert enumerate_occupancies(StateSpace.of_size(1), 5) == [(5,)]

    def test_k3_n4_matches_bruteforce(self):
        occs = enumerate_occupancies(S3, 4)
        assert len(occs) == 15
        brute = set()
        for s in itertools.product(range(3), repeat=4):
            m = [0, 0, 0]
            for si in s:
                m[si] += 1
            brute.add(tuple(m))
        assert set(occs) == brute
        assert len(occs) == len(set(occs))

    def test_invalid_n(self):
        with pytest.raises(InvalidArgumentError):
            enumerate_occupancies(S2, 0)


class TestClassSize:
    def test_examples(self):
        assert class_size((2, 2)) == 6
        assert class_size((5, 0, 0)) == 1
        assert class_size((2, 1)) == 3

    def test_sum_is_k_pow_n_bigint(self):
        n, k = 20, 3
        total = sum(class_size(m) for m in enumerate_occupancies(S3, n))
        assert total == k**n


class TestProductLaw:
    def test_binomial_half(self):
        law = product_law(HALF, 2)
        assert law.classes == {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}

    def test_point_mass(self):
        law = product_law(Distribution(S2, (1.0, 0.0)), 5)
        assert law.classes == {(5, 0): 1.0}

    def test_two_thirds_vs_dense_oracle(self):
        p = Distribution(S2, (2 / 3, 1 / 3))
        law = product_law(p, 3)
        assert law.mass((2, 1)) == pytest.approx(4 / 9, abs=1e-15)
        dense = to_dense(law)
        for idx, s in enumerate(dense.tuples()):
            expected = math.prod(p.p[si] for si in s)
            assert dense.probs[idx] == pytest.approx(expected, abs=1e-15)


class TestSymmetrize:
    def test_point_mass_orbit(self):
        probs = np.zeros(8)
        probs[1] = 1.0  # ordered tuple (0, 0, 1)
        law = symmetrize(OrderedLaw(S2, 3, probs))
        assert law.classes == {(2, 1): 1.0}

    def test_idempotent_on_symmetric_input(self, rng):
        law = random_symmetric_law(rng, n=4, k=2)
        again = symmetrize(to_dense(law))
        assert tv_distance(law, again) < 1e-14

    def test_explicit_permutation_average(self):
        probs = np.zeros(4)
        probs[1] = 0.6  # (0, 1)
        probs[3] = 0.4  # (1, 1)
        law = symmetrize(OrderedLaw(S2, 2, probs))
        assert law.mass((1, 1)) == pytest.approx(0.6)
        assert law.mass((0, 2)) == pytest.approx(0.4)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            to_dense(product_law(HALF, 30))


class TestToDense:
    def test_uniform_on_orbit(self):
        dense = to_dense(SymmetricLaw(S2, 3, {(2, 1): 1.0}))
        expected = {(0, 0, 1): 1 / 3, (0, 1, 0): 1 / 3, (1, 0, 0): 1 / 3}
        for idx, s in enumerate(dense.tuples()):
            assert dense.probs[idx] == pytest.approx(expected.get(s, 0.0), abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip(self, seed):
        law = random_symmetric_law(np.random.default_rng(seed), max_n=6, max_k=3)
        assert tv_distance(symmetrize(to_dense(law)), law) < 1e-14


class TestMarginal:
    def test_product_marginal_is_product(self):
        p = Distribution(S3, (0.2, 0.3, 0.5))
        law = product_law(p, 7)
        for j in (1, 2, 3):
            assert tv_distance(marginal(law, j), product_law(p, j)) < 1e-13

    def test_point_class_pair_marginal(self):
        law = SymmetricLaw(S2, 3, {(2, 1): 1.0})
        pair = marginal(law, 2)
        # ordered probabilities 1/3, 1/3, 1/3, 0
        assert pair.mass((2, 0)) == pytest.approx(1 / 3)
        assert pair.mass((1, 1)) == pytest.approx(2 / 3)
        assert pair.mass((0, 2)) == 0.0

    def test_identity_marginal(self, rng):
        law = random_symmetric_law(rng, n=5, k=3)
        assert marginal(law, 5) is law

    def test_out_of_range(self, rng):
        law = random_symmetric_law(rng, n=3, k=2)
        with pytest.raises(InvalidArgumentError):
            marginal(law, 4)
        with pytest.raises(InvalidArgumentError):
            marginal(law, 0)

    def test_against_dense_oracle(self, rng):
        for _ in range(20):
            law = random_symmetric_law(rng)
            dense = to_dense(law)
            for j in range(1, law.n + 1):
                got = to_dense(marginal(law, j)).probs
                want = dense_marginal_probs(dense, j)
                assert np.abs(got - want).max() < 1e-12

    def test_tower_property(self, rng):
        for _ in range(10):
            law = random_symmetric_law(rng, n=6)
            for l in range(2, 6):
                for j in range(1, l):
                    a = marginal(marginal(law, l), j)
                    b = marginal(law, j)
                    assert tv_distance(a, b) < 1e-12

    def test_tv_contraction(self, rng):
        for _ in range(10):
            a = random_symmetric_law(rng, n=5, k=2)
            b = random_symmetric_law(rng, n=5, k=2)
            base = tv_distance(a, b)
            for j in range(1, 5):
                assert tv_distance(marginal(a, j), marginal(b, j)) <= base + 1e-12


class TestTvDistance:
    def test_disjoint_point_masses(self):
        a = Distribution(S2, (1.0, 0.0))
        b = Distribution(S2, (0.0, 1.0))
        assert tv_distance(a, b) == 1.0

    def test_identity(self, rng):
        law = random_symmetric_law(rng)
        assert tv_distance(law, law) == 0.0

    def test_pair_law_vs_product(self):
        pair = SymmetricLaw(S2, 2, {(2, 0): 0.5, (0, 2): 0.5})
        assert tv_distance(pair, product_law(HALF, 2)) == pytest.approx(0.5)

    def test_mismatched_spaces(self):
        with pytest.raises(InvalidArgumentError):
            tv_distance(Distribution(S2, (1, 0)), Distribution(S3, (1, 0, 0)))


class TestSpecificLoglik:
    def test_product_factorizes(self):
        p = Distribution(S3, (0.2, 0.3, 0.5))
        expected = math.fsum(x * math.log(x) for x in p.p)
        for n in (1, 3, 10, 40):
            assert specific_loglik(product_law(p, n)) == pytest.approx(expected, abs=1e-12)

    def test_uniform(self):
        uniform = product_law(HALF, 6)
        assert specific_loglik(uniform) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_single_class(self):
        law = SymmetricLaw(S2, 3, {(2, 1): 1.0})
        assert specific_loglik(law) == pytest.approx(math.log(1 / 3) / 3, abs=1e-12)

    def test_matches_dense(self, rng):
        for _ in range(10):
            law = random_symmetric_law(rng)
            assert specific_loglik(law) == pytest.approx(
                dense_specific_loglik(to_dense(law)), abs=1e-12
            )


class TestMeanEmpiricalTv:
    def test_binomial_exact(self):
        assert mean_empirical_tv(product_law(HALF, 4), HALF) == pytest.approx(
            3 / 16, abs=1e-15
        )

    def test_concentrated_at_target(self):
        law = SymmetricLaw(S2, 4, {(2, 2): 1.0})
        assert mean_empirical_tv(law, HALF) == 0.0

    def test_degenerate(self):
        point = Distribution(S2, (1.0, 0.0))
        for n in (1, 5, 17):
            assert mean_empirical_tv(product_law(point, n), point) == 0.0


class TestDistribution:
    @pytest.mark.parametrize("p", [(math.nan, 1.0), (math.inf, 1.0), (0.5, -math.inf),
                                   (1.0, 0.2), (-0.1, 1.1)])
    def test_rejects_bad_entries(self, p):
        with pytest.raises(InvalidArgumentError):
            Distribution(S2, p)


class TestMassConservation:
    def test_all_constructors(self, rng):
        laws = [
            product_law(Distribution(S3, (0.2, 0.3, 0.5)), 9),
            random_symmetric_law(rng),
        ]
        laws.append(marginal(laws[0], 4))
        laws.append(symmetrize(to_dense(laws[1])))
        for law in laws:
            assert abs(math.fsum(law.classes.values()) - 1.0) <= 1e-12
            assert all(mass >= 0.0 for mass in law.classes.values())


class TestJsonFormat:
    def test_round_trip(self, rng):
        law = random_symmetric_law(rng, n=4, k=3)
        again = law_from_json(law_to_json(law))
        assert again.n == law.n
        assert again.space == law.space
        assert tv_distance(law, again) == 0.0

    def test_shape(self):
        text = law_to_json(product_law(HALF, 2))
        assert text.startswith('{"labels":["0","1"],"n":2,"classes":[')
        assert '"m":[2,0]' in text

    def test_lexicographic_class_order(self, rng):
        import json

        law = random_symmetric_law(rng, n=5, k=3)
        doc = json.loads(law_to_json(law))
        ms = [tuple(row["m"]) for row in doc["classes"]]
        assert ms == sorted(ms, reverse=True)
