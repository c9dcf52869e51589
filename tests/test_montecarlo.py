import math

import numpy as np
import pytest

from chaoslab import (
    Distribution,
    EstimatorResult,
    ParticleState,
    StateSpace,
    SymmetricLaw,
    estimate_mean_empirical_tv,
    estimate_pair_marginal,
    iid_state,
    kac_collision_kernel,
    marginal,
    pair_marginal_ustat,
    propagate,
    replica_rng,
    simulate_kac,
    to_dense,
)
from chaoslab.errors import InvalidArgumentError

S2 = StateSpace.of_size(2)
S3 = StateSpace.of_size(3)
HALF = Distribution(S2, (0.5, 0.5))


class TestSimulateKac:
    def test_time_zero_is_identity(self):
        start = ParticleState((4, 2, 2))
        assert simulate_kac(start, 1.0, 0.0, seed=0).counts == start.counts

    def test_ground_state_invariant(self):
        # All particles at label 0: every collision has sum 0 and must
        # resample to (0, 0).
        start = ParticleState((8, 0, 0))
        assert simulate_kac(start, 3.0, 5.0, seed=1).counts == start.counts

    def test_label_sum_conserved(self, rng):
        start = ParticleState((3, 4, 5))
        total = sum(v * c for v, c in enumerate(start.counts))
        for _ in range(50):
            end = simulate_kac(start, 2.0, 1.5, seed=rng)
            assert end.n == start.n
            assert sum(v * c for v, c in enumerate(end.counts)) == total

    def test_seed_reproducibility(self):
        start = ParticleState((10, 5, 5))
        a = simulate_kac(start, 1.0, 2.0, seed=42)
        b = simulate_kac(start, 1.0, 2.0, seed=42)
        assert a.counts == b.counts

    def test_too_few_particles(self):
        with pytest.raises(InvalidArgumentError):
            simulate_kac(ParticleState((1, 0)), 1.0, 1.0, seed=0)
        with pytest.raises(InvalidArgumentError):
            simulate_kac(ParticleState((2, 2)), -1.0, 1.0, seed=0)

    def test_non_finite_rate_or_time(self):
        for lam, t in [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]:
            with pytest.raises(InvalidArgumentError):
                simulate_kac(ParticleState((2, 2)), lam, t, seed=0)


class TestPairMarginalUstat:
    def test_constant_state(self):
        mat = pair_marginal_ustat(ParticleState((4, 0)))
        assert mat[0, 0] == 1.0
        assert mat.sum() == pytest.approx(1.0)

    def test_exact_small_case(self):
        # counts (2, 1): P(0,0) = 2*1/6, off-diagonal 2*1/6 each.
        mat = pair_marginal_ustat(ParticleState((2, 1)))
        assert mat == pytest.approx(np.array([[2, 2], [2, 0]]) / 6.0)

    def test_symmetric_and_normalized(self, rng):
        for _ in range(20):
            counts = tuple(int(x) for x in rng.integers(0, 10, size=3))
            if sum(counts) < 2:
                continue
            mat = pair_marginal_ustat(ParticleState(counts))
            assert np.allclose(mat, mat.T)
            assert mat.sum() == pytest.approx(1.0, abs=1e-12)
            assert mat.min() >= 0.0

    def test_needs_two(self):
        with pytest.raises(InvalidArgumentError):
            pair_marginal_ustat(ParticleState((1, 0)))


def _pair_matrix(law: SymmetricLaw) -> np.ndarray:
    dense = to_dense(marginal(law, 2))
    return dense.probs.reshape(law.space.k, law.space.k)


class TestEstimatePairMarginal:
    def test_constant_sampler_zero_error(self):
        res = estimate_pair_marginal(lambda rng: ParticleState((3, 3)), 10, seed=0)
        assert np.abs(res.std_error).max() < 1e-16
        assert res.estimate == pytest.approx(pair_marginal_ustat(ParticleState((3, 3))))

    def test_iid_unbiased(self):
        p = Distribution(S3, (0.5, 0.3, 0.2))
        res = estimate_pair_marginal(lambda rng: iid_state(p, 100, rng), 10_000, seed=7)
        truth = np.outer(p.p, p.p)
        z = np.abs(res.estimate - truth) / np.where(res.std_error > 0, res.std_error, 1.0)
        assert z.max() < 4.0

    def test_kac_matches_exact_marginal(self):
        n, lam, t = 6, 1.0, 0.8
        start = ParticleState((3, 2, 1))
        kernel = kac_collision_kernel(S3, lam, t, n)
        exact = _pair_matrix(
            propagate(SymmetricLaw(S3, n, {start.counts: 1.0}), kernel)
        )
        res = estimate_pair_marginal(
            lambda rng: simulate_kac(start, lam, t, seed=rng), 20_000, seed=11
        )
        z = np.abs(res.estimate - exact) / np.where(res.std_error > 0, res.std_error, 1.0)
        assert z.max() < 4.0

    def test_needs_replicas(self):
        with pytest.raises(InvalidArgumentError):
            estimate_pair_marginal(lambda rng: ParticleState((3, 3)), 1, seed=0)


class TestEstimateMeanEmpiricalTv:
    def test_binomial_reference_value(self):
        res = estimate_mean_empirical_tv(
            lambda rng: iid_state(HALF, 4, rng), HALF, 20_000, seed=5
        )
        assert abs(res.estimate - 3 / 16) < 4 * res.std_error
        assert res.std_error < 0.002

    def test_exact_occupancy_gives_zero(self):
        res = estimate_mean_empirical_tv(
            lambda rng: ParticleState((2, 2)), HALF, 5, seed=0
        )
        assert res.estimate == 0.0
        assert res.std_error == 0.0

    def test_sqrt_n_scaling(self):
        p = Distribution(S2, (0.5, 0.5))

        def mean_tv(n):
            return estimate_mean_empirical_tv(
                lambda rng: iid_state(p, n, rng), p, 8_000, seed=13
            ).estimate

        ratio = mean_tv(64) / mean_tv(256)
        assert 1.8 < ratio < 2.2

    def test_reproducible(self):
        a = estimate_mean_empirical_tv(
            lambda rng: iid_state(HALF, 10, rng), HALF, 200, seed=3
        )
        b = estimate_mean_empirical_tv(
            lambda rng: iid_state(HALF, 10, rng), HALF, 200, seed=3
        )
        assert float(a.estimate) == float(b.estimate)


class TestReplicaRng:
    def test_streams_are_stable_and_distinct(self):
        a = replica_rng(99, 0).integers(0, 2**31, size=4)
        a2 = replica_rng(99, 0).integers(0, 2**31, size=4)
        b = replica_rng(99, 1).integers(0, 2**31, size=4)
        assert (a == a2).all()
        assert (a != b).any()

    def test_result_serializes(self):
        res = EstimatorResult(np.float64(0.5), np.float64(0.1), 10, 3)
        doc = res.to_json_dict()
        assert doc == {"estimate": 0.5, "std_error": 0.1, "replicas": 10, "seed": 3}
