import math

import numpy as np
import pytest

from chaoslab import (
    Distribution,
    StateSpace,
    continuity_probe,
    kac_limit_evolve,
    kac_limit_rhs,
    make_kernel,
    pushforward,
    tv_distance,
)
from chaoslab.errors import InvalidArgumentError

S2 = StateSpace.of_size(2)
S3 = StateSpace.of_size(3)


class TestPushforward:
    def test_identity(self):
        p = Distribution(S3, (0.2, 0.3, 0.5))
        assert pushforward(p, [0, 1, 2]).p == p.p

    def test_constant(self):
        p = Distribution(S3, (0.2, 0.3, 0.5))
        assert pushforward(p, [1, 1, 1]).p == (0.0, 1.0, 0.0)

    def test_swap(self):
        p = Distribution(S2, (0.3, 0.7))
        assert pushforward(p, [1, 0]).p == (0.7, 0.3)


class TestKacLimitRhs:
    def test_point_mass_fixed(self):
        rhs = kac_limit_rhs(Distribution(S3, (1.0, 0.0, 0.0)), 1.0)
        assert np.abs(rhs).max() == 0.0

    def test_sums_to_zero(self, rng):
        for _ in range(200):
            p = Distribution(S3, tuple(rng.dirichlet(np.ones(3))))
            assert abs(kac_limit_rhs(p, 1.3).sum()) < 1e-14

    def test_mean_label_conserved(self, rng):
        labels = np.arange(3)
        for _ in range(100):
            p = Distribution(S3, tuple(rng.dirichlet(np.ones(3))))
            assert abs(labels @ kac_limit_rhs(p, 2.0)) < 1e-13


class TestKacLimitEvolve:
    def test_point_mass_stationary(self):
        p0 = Distribution(S3, (1.0, 0.0, 0.0))
        assert kac_limit_evolve(p0, 1.0, 2.0).p == pytest.approx(p0.p, abs=1e-12)

    def test_time_zero_identity(self):
        p0 = Distribution(S3, (0.6, 0.3, 0.1))
        assert kac_limit_evolve(p0, 1.0, 0.0) is p0

    def test_mean_label_conserved_over_time(self):
        p0 = Distribution(S3, (0.6, 0.3, 0.1))
        labels = np.arange(3)
        start = float(labels @ p0.as_array())
        for t in (0.5, 2.0, 5.0):
            pt = kac_limit_evolve(p0, 1.0, t)
            assert abs(float(labels @ pt.as_array()) - start) < 1e-9
            assert abs(math.fsum(pt.p) - 1.0) < 1e-12

    def test_richardson(self):
        p0 = Distribution(S3, (0.6, 0.3, 0.1))
        a = kac_limit_evolve(p0, 1.0, 1.0, dt=1e-3)
        b = kac_limit_evolve(p0, 1.0, 1.0, dt=5e-4)
        assert tv_distance(a, b) < 1e-8

    def test_bad_step(self):
        p0 = Distribution(S3, (0.6, 0.3, 0.1))
        with pytest.raises(InvalidArgumentError):
            kac_limit_evolve(p0, 1.0, 1.0, dt=0.0)

    def test_bad_rate_or_time(self):
        p0 = Distribution(S3, (0.6, 0.3, 0.1))
        for lam, t in [(0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, -1.0),
                       (1.0, math.nan), (1.0, math.inf)]:
            with pytest.raises(InvalidArgumentError):
                kac_limit_evolve(p0, lam, t)


class TestContinuityProbe:
    def test_identity_is_isometry(self):
        F = make_kernel("identity", S3, 2).limit
        p = Distribution(S3, (0.5, 0.3, 0.2))
        report = continuity_probe(F, p, radius=0.1, samples=100, seed=4)
        assert report.modulus <= 0.1 + 1e-12

    def test_constant_map(self):
        F = make_kernel("map:1,1,1", S3, 2).limit
        p = Distribution(S3, (0.5, 0.3, 0.2))
        report = continuity_probe(F, p, radius=0.5, samples=50, seed=4)
        assert report.modulus < 1e-15

    def test_kac_modulus_shrinks_with_radius(self):
        F = make_kernel("kac:1,1", S3, 2).limit
        p = Distribution(S3, (0.5, 0.3, 0.2))
        big = continuity_probe(F, p, radius=0.3, samples=40, seed=9)
        small = continuity_probe(F, p, radius=0.05, samples=40, seed=9)
        assert small.modulus < big.modulus
        assert big.modulus < 1.0

    def test_counterexample_discontinuous_at_delta0(self):
        F = make_kernel("counterexample", S2, 2).limit
        delta0 = Distribution(S2, (1.0, 0.0))
        report = continuity_probe(F, delta0, radius=0.01, samples=20, seed=2)
        assert report.modulus == 1.0

    def test_bad_radius(self):
        F = make_kernel("identity", S2, 2).limit
        with pytest.raises(InvalidArgumentError):
            continuity_probe(F, Distribution(S2, (0.5, 0.5)), 0.0, 10, 1)

