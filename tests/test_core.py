import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    Distribution,
    StateSpace,
    SymmetricLaw,
    enumerate_occupancies,
    law_from_json,
    law_to_json,
    marginal,
    mean_empirical_tv,
    pair_gap,
    product_law,
    specific_loglik,
    tv_distance,
)
from chaoslab.core import occupancy_array
from chaoslab.errors import CapacityError, InvalidArgumentError

from conftest import (
    OrderedLaw,
    class_size,
    dense_marginal_probs,
    dense_specific_loglik,
    law_tv_distance,
    marginal_law,
    random_symmetric_law,
    symmetrize,
    to_dense,
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

    def test_uniform_law_is_renormalised(self):
        # Three doubles 1/3 sum to 1 - 5.6e-17; left unnormalised, that defect
        # grows the pair gap with n, to 1.8e-14 at n = 640.
        u = 1 / 3
        p = Distribution(S3, (u, u, u))
        assert pair_gap(marginal(product_law(p, 640), 2), p) < 1e-14

    def test_two_thirds_vs_dense_oracle(self):
        p = Distribution(S2, (2 / 3, 1 / 3))
        law = product_law(p, 3)
        assert law.classes[(2, 1)] == pytest.approx(4 / 9, abs=1e-15)
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
        assert law_tv_distance(law, again) < 1e-14

    def test_explicit_permutation_average(self):
        probs = np.zeros(4)
        probs[1] = 0.6  # (0, 1)
        probs[3] = 0.4  # (1, 1)
        law = symmetrize(OrderedLaw(S2, 2, probs))
        assert law.classes[(1, 1)] == pytest.approx(0.6)
        assert law.classes[(0, 2)] == pytest.approx(0.4)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            to_dense(product_law(HALF, 30))


class TestToDense:
    def test_uniform_on_orbit(self):
        dense = to_dense(SymmetricLaw(S2, 3, [(2, 1)], [1.0]))
        expected = {(0, 0, 1): 1 / 3, (0, 1, 0): 1 / 3, (1, 0, 0): 1 / 3}
        for idx, s in enumerate(dense.tuples()):
            assert dense.probs[idx] == pytest.approx(expected.get(s, 0.0), abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip(self, seed):
        law = random_symmetric_law(np.random.default_rng(seed), max_n=6, max_k=3)
        assert law_tv_distance(symmetrize(to_dense(law)), law) < 1e-14


class TestMarginal:
    def test_product_marginal_is_product(self):
        p = Distribution(S3, (0.2, 0.3, 0.5))
        law = product_law(p, 7)
        q = p.as_array()
        assert np.abs(marginal(law, 1) - q).max() < 1e-13
        assert np.abs(marginal(law, 2) - np.outer(q, q)).max() < 1e-13
        assert law_tv_distance(marginal_law(law, 3), product_law(p, 3)) < 1e-13

    def test_point_class_pair_marginal(self):
        law = SymmetricLaw(S2, 3, [(2, 1)], [1.0])
        # ordered probabilities 1/3, 1/3, 1/3, 0
        assert marginal(law, 2).tolist() == [[1 / 3, 1 / 3], [1 / 3, 0.0]]
        assert marginal(law, 1).tolist() == [2 / 3, 1 / 3]

    def test_orders_other_than_one_and_two(self, rng):
        law = random_symmetric_law(rng, n=5, k=3)
        for j in (0, 3, 5, 6):
            with pytest.raises(InvalidArgumentError):
                marginal(law, j)

    def test_out_of_range(self, rng):
        law = random_symmetric_law(rng, n=3, k=2)
        with pytest.raises(InvalidArgumentError):
            marginal(law, 4)
        with pytest.raises(InvalidArgumentError):
            marginal(law, 0)

    def test_pair_marginal_of_one_particle(self):
        law = SymmetricLaw(S2, 1, [(1, 0)], [1.0])
        assert marginal(law, 1).tolist() == [1.0, 0.0]
        with pytest.raises(InvalidArgumentError, match=r"2-particle marginal needs n >= 2"):
            marginal(law, 2)

    def test_against_dense_oracle(self, rng):
        for _ in range(20):
            law = random_symmetric_law(rng)
            dense = to_dense(law)
            for j in range(1, law.n + 1):
                got = (marginal(law, j).ravel() if j <= 2
                       else to_dense(marginal_law(law, j)).probs)
                want = dense_marginal_probs(dense, j)
                assert np.abs(got - want).max() < 1e-12

    def test_tower_property(self, rng):
        for _ in range(10):
            law = random_symmetric_law(rng, n=6)
            for l in range(2, 6):
                for j in range(1, l):
                    a = marginal_law(marginal_law(law, l), j)
                    b = marginal_law(law, j)
                    assert law_tv_distance(a, b) < 1e-12

    def test_tv_contraction(self, rng):
        for _ in range(10):
            a = random_symmetric_law(rng, n=5, k=2)
            b = random_symmetric_law(rng, n=5, k=2)
            base = law_tv_distance(a, b)
            for j in range(1, 5):
                assert law_tv_distance(marginal_law(a, j), marginal_law(b, j)) <= base + 1e-12


class TestTvDistance:
    def test_disjoint_point_masses(self):
        a = Distribution(S2, (1.0, 0.0))
        b = Distribution(S2, (0.0, 1.0))
        assert tv_distance(a, b) == 1.0

    def test_identity(self, rng):
        p = Distribution(S3, tuple(rng.dirichlet(np.ones(3))))
        assert tv_distance(p, p) == 0.0

    def test_pair_law_vs_product(self):
        pair = SymmetricLaw(S2, 2, [(2, 0), (0, 2)], [0.5, 0.5])
        assert pair_gap(marginal(pair, 2), HALF) == pytest.approx(0.5)

    def test_mismatched_spaces(self):
        with pytest.raises(InvalidArgumentError):
            tv_distance(Distribution(S2, (1, 0)), Distribution(S3, (1, 0, 0)))

    def test_distributions_only(self, rng):
        law = random_symmetric_law(rng)
        with pytest.raises(InvalidArgumentError):
            tv_distance(law, law)


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
        law = SymmetricLaw(S2, 3, [(2, 1)], [1.0])
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
        law = SymmetricLaw(S2, 4, [(2, 2)], [1.0])
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
        laws.append(marginal_law(laws[0], 4))
        laws.append(symmetrize(to_dense(laws[1])))
        for law in laws:
            assert abs(math.fsum(law.classes.values()) - 1.0) <= 1e-12
            assert all(mass >= 0.0 for mass in law.classes.values())


class TestConstructorChecks:
    """The one constructor's rejections, with the messages the per-class
    checks of a dict of classes gave."""

    @pytest.mark.parametrize("n, occ, p, message", [
        (0, [(0, 0)], [1.0], "particle count must be >= 1"),
        (3, [(3, 0), (4, -1)], [0.5, 0.5], "bad occupancy key (4, -1) for n=3, k=2"),
        (3, [(3, 0), (2, 2)], [0.5, 0.5], "bad occupancy key (2, 2) for n=3, k=2"),
        (3, [(3,)], [1.0], "bad occupancy key (3,) for n=3, k=2"),
        (3, [(3, 0, 0)], [1.0], "bad occupancy key (3, 0, 0) for n=3, k=2"),
        (2, np.array([(True, True)]), [1.0], "bad occupancy key (True, True) for n=2, k=2"),
        (3, np.array([(2.0, 1.0)]), [1.0], "bad occupancy key (2.0, 1.0) for n=3, k=2"),
        (3, [(3, 0), (2, 1)], [1.0, math.nan], "negative or non-finite class mass nan at (2, 1)"),
        (3, [(3, 0), (2, 1)], [1.0, math.inf], "negative or non-finite class mass inf at (2, 1)"),
        (3, [(3, 0)], [-math.inf], "negative or non-finite class mass -inf at (3, 0)"),
        (3, [(3, 0), (2, 1)], [1.5, -0.5], "negative or non-finite class mass -0.5 at (2, 1)"),
        (3, [(3, 0), (0, 3)], [0.5, 0.4], "class masses do not sum to 1"),
        (3, np.zeros((0, 2), dtype=int), [], "class masses do not sum to 1"),
        (3, [(3, 0), (0, 3)], [1.0], "(2, 2) occupancies for (1,) masses"),
    ], ids=["zero-n", "negative-count", "wrong-total", "short-row", "long-row", "bool-counts",
            "float-counts", "nan-mass", "inf-mass", "minus-inf-mass", "negative-mass",
            "mass-sum", "empty", "shapes"])
    def test_rejection(self, n, occ, p, message):
        with pytest.raises(InvalidArgumentError) as exc:
            SymmetricLaw(S2, n, occ, p)
        assert str(exc.value) == message

    @pytest.mark.parametrize("space, n, occ", [
        # Three counts of 2**63 - 1 add up to n in int64.
        (StateSpace.of_size(3), 2**63 - 3, [[2**63 - 1] * 3]),
        # As int64 these uint64 counts are (-1, 3), which add up to n.
        (S2, 2, np.array([[2**64 - 1, 3]], dtype=np.uint64)),
    ], ids=["wrapping-sum", "wrapping-count"])
    def test_row_sums_are_exact(self, space, n, occ):
        with pytest.raises(InvalidArgumentError) as exc:
            SymmetricLaw(space, n, occ, [1.0])
        m = tuple(np.asarray(occ)[0].tolist())
        assert str(exc.value) == f"bad occupancy key {m} for n={n}, k={space.k}"

    def test_masses_down_to_the_clamp_are_dropped(self):
        law = SymmetricLaw(S2, 3, [(2, 1), (3, 0)], [-1e-16, 1.0])
        assert law.classes == {(3, 0): 1.0}

    def test_callers_arrays_stay_writeable(self):
        # The caller's own arrays used to be stored and set read-only, so
        # writing m[0] afterwards raised ValueError.
        occ, m = np.array([(2, 0), (1, 1)]), np.array([0.25, 0.75])
        law = SymmetricLaw(S2, 2, occ, m)
        occ[0], m[0] = (0, 2), 0.5
        assert law.occ.tolist() == [[2, 0], [1, 1]] and law.p.tolist() == [0.25, 0.75]
        assert not law.occ.flags.writeable and not law.p.flags.writeable

    def test_read_only_arrays_are_kept_as_they_are(self):
        occ, m = occupancy_array(2, 2), np.array([0.25, 0.25, 0.5])
        m.flags.writeable = False
        law = SymmetricLaw(S2, 2, occ, m)
        assert law.occ is occ and law.p is m


class TestJsonFormat:
    def test_round_trip(self, rng):
        law = random_symmetric_law(rng, n=4, k=3)
        again = law_from_json(law_to_json(law))
        assert again.n == law.n
        assert again.space == law.space
        assert law_tv_distance(law, again) == 0.0

    def test_shape(self):
        text = law_to_json(product_law(HALF, 2))
        assert text.startswith('{"labels":["0","1"],"n":2,"classes":[')
        assert '"m":[2,0]' in text

    def test_repeated_class_rejected(self):
        text = ('{"labels":["0","1"],"n":4,"classes":[{"m":[4,0],"mass":0.5},'
                '{"m":[4,0],"mass":0.5},{"m":[0,4],"mass":0.5}]}')
        with pytest.raises(InvalidArgumentError, match="more than once"):
            law_from_json(text)

    @pytest.mark.parametrize("mass", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_mass_rejected(self, mass):
        text = ('{"labels":["0","1"],"n":4,"classes":[{"m":[4,0],"mass":%s},'
                '{"m":[0,4],"mass":1.0}]}' % mass)
        with pytest.raises(InvalidArgumentError):
            law_from_json(text)

    # int() used to truncate these: the first was read as the class (4, 0).
    @pytest.mark.parametrize("n, m", [("4", "4.5,-0.5"), ("4", "true,3"), ("4.5", "4,0")])
    def test_non_integral_count_rejected(self, n, m):
        text = '{"labels":["0","1"],"n":%s,"classes":[{"m":[%s],"mass":1.0}]}' % (n, m)
        with pytest.raises(InvalidArgumentError, match="expected an integer"):
            law_from_json(text)

    @pytest.mark.parametrize("rows, message", [
        ('{"m":[4],"mass":1.0}', "bad occupancy key (4,) for n=4, k=2"),
        ('{"m":[4,0],"mass":0.5},{"m":[0,0,4],"mass":0.5}', "bad occupancy key (0, 0, 4) for n=4, k=2"),
        ('{"m":[4,0],"mass":1%s}' % ("0" * 400), "a class count or mass is out of range"),
    ], ids=["short-row", "ragged-rows", "overflowing-mass"])
    def test_bad_rows_rejected(self, rows, message):
        text = '{"labels":["0","1"],"n":4,"classes":[%s]}' % rows
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            law_from_json(text)

    def test_integral_counts_accepted(self):
        text = '{"labels":["0","1"],"n":4.0,"classes":[{"m":[3.0,1],"mass":1.0}]}'
        assert law_from_json(text).classes == {(3, 1): 1.0}
        law = SymmetricLaw(S2, 4, np.array([(3, 1)], dtype=np.int32), [1.0])
        assert law.classes == {(3, 1): 1.0}

    def test_lexicographic_class_order(self, rng):
        import json

        law = random_symmetric_law(rng, n=5, k=3)
        doc = json.loads(law_to_json(law))
        ms = [tuple(row["m"]) for row in doc["classes"]]
        assert ms == sorted(ms, reverse=True)
