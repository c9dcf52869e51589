import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    EnergyModel,
    StateSpace,
    SymmetricLaw,
    chaos_verdict,
    entropy_convergence,
    fit_gibbs,
    marginal,
    mean_empirical_tv,
    microcanonical,
    pair_gap,
    product_law,
)
from chaoslab.diagnostics import _decimal, microcanonical_limit
from chaoslab.errors import (
    DegenerateModelError,
    EmptyEnsembleError,
    InfeasibleEnergyError,
    InvalidArgumentError,
)

from conftest import class_size, law_tv_distance, marginal_law, random_symmetric_law

S2 = StateSpace.of_size(2)
S3 = StateSpace.of_size(3)
HALF = np.array([0.5, 0.5])


def mixture_law(n):
    return SymmetricLaw(S2, n, [(n, 0), (0, n)], [0.5, 0.5])


class TestPairGap:
    def test_product_is_exact_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert pair_gap(marginal(product_law(p, 25), 2), p) < 1e-14

    def test_point_class(self):
        law = SymmetricLaw(S2, 3, [(2, 1)], [1.0])
        rho = np.array([2 / 3, 1 / 3])
        # pair marginal (1/3, 1/3, 1/3, 0) vs product (4/9, 2/9, 2/9, 1/9)
        assert pair_gap(marginal(law, 2), rho) == pytest.approx(2 / 9, abs=1e-14)

    def test_mixture_constant_half(self):
        for n in (2, 5, 30):
            assert pair_gap(marginal(mixture_law(n), 2), HALF) == pytest.approx(0.5, abs=1e-14)

    def test_needs_two_particles(self):
        law = SymmetricLaw(S2, 1, [(1, 0)], [1.0])
        with pytest.raises(InvalidArgumentError):
            marginal(law, 2)

    def test_rejects_a_pair_marginal_of_another_shape(self):
        for pair in (np.full((3, 3), 1 / 9), np.full(4, 0.25), np.full((2, 2, 2), 0.125)):
            with pytest.raises(InvalidArgumentError):
                pair_gap(pair, HALF)


class TestKGap:
    """The k-particle marginal gap TV(marginal(law, k), rho^(x)k), with the
    general-order marginal of the oracle."""

    def test_product_zero_for_all_k(self):
        p = np.array([0.3, 0.7])
        law = product_law(p, 8)
        for k in range(2, 9):
            assert law_tv_distance(marginal_law(law, k), product_law(p, k)) < 1e-13

    def test_k2_equals_pair_gap(self, rng):
        for _ in range(10):
            law = random_symmetric_law(rng)
            rho = rng.dirichlet(np.ones(law.space.k))
            want = law_tv_distance(marginal_law(law, 2), product_law(rho, 2))
            assert abs(pair_gap(marginal(law, 2), rho) - want) < 1e-15

    def test_nondecreasing_in_k(self, rng):
        for _ in range(10):
            law = random_symmetric_law(rng, max_n=6)
            rho = rng.dirichlet(np.ones(law.space.k))
            gaps = [law_tv_distance(marginal_law(law, k), product_law(rho, k))
                    for k in range(2, law.n + 1)]
            assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestChaosVerdict:
    def test_product_family_chaotic(self, rng):
        for _ in range(5):
            p = rng.dirichlet(np.ones(3))
            report = chaos_verdict(lambda n: product_law(p, n), p, [4, 8, 16])
            assert report.verdict == "chaotic"
            assert all(r.pair_gap < 1e-13 for r in report.rows)

    def test_mixture_family_not_chaotic(self):
        report = chaos_verdict(mixture_law, HALF, [4, 8, 16, 32])
        assert report.verdict == "not-chaotic"
        assert all(r.pair_gap == pytest.approx(0.5) for r in report.rows)
        assert report.slope == pytest.approx(0.0, abs=1e-9)

    def test_microcanonical_family_chaotic(self):
        model = EnergyModel(S3, (0, 1, 2), 0.8, 0.2)
        _, gamma = microcanonical_limit(model)
        report = chaos_verdict(
            lambda n: microcanonical(model, n), gamma, [20, 40, 80, 160], tol=0.05
        )
        assert report.verdict == "chaotic"
        gaps = [r.pair_gap for r in report.rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert report.slope < -0.2

    def test_slope_fit_drops_the_zero_gaps(self):
        family = lambda n: product_law(HALF, n) if n <= 8 else mixture_law(n)
        report = chaos_verdict(family, HALF, [4, 8, 16, 32])
        assert report.meta()["slope_dropped"] == [4, 8]
        assert report.slope == 0.0  # the two kept gaps are both 0.5

    def test_grid_validation(self):
        with pytest.raises(InvalidArgumentError):
            chaos_verdict(mixture_law, HALF, [4, 8])
        with pytest.raises(InvalidArgumentError):
            chaos_verdict(mixture_law, HALF, [4, 8, 8])

    def test_non_integral_grid_is_refused(self):
        # int() used to truncate each n: rows for n = 10, 20 and 40 from a
        # family called with 10.7, 20.2 and 40.9.
        with pytest.raises(InvalidArgumentError, match="expected an integer, got 10.7"):
            chaos_verdict(mixture_law, HALF, [10.7, 20.2, 40.9])
        report = chaos_verdict(mixture_law, (0.5, 0.5), [4.0, np.int64(8), 16])
        assert [r.n for r in report.rows] == [4, 8, 16]
        assert all(type(r.n) is int for r in report.rows)
        assert report.meta()["limit"] == [0.5, 0.5]

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -0.1])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(InvalidArgumentError, match="tol"):
            chaos_verdict(mixture_law, HALF, [4, 8, 16], tol=tol)

    def test_law_of_the_wrong_n(self):
        family = lambda n: product_law(HALF, 20 if n == 8 else n)
        with pytest.raises(InvalidArgumentError, match="n=20 at n=8"):
            chaos_verdict(family, HALF, [4, 8, 16])

    def test_generator_failure_propagates(self):
        # A family's own error reaches the caller as it is, so that the CLI
        # can turn a MemoryError into its capacity exit.
        def bad(n):
            raise MemoryError("boom")

        with pytest.raises(MemoryError, match="^boom$"):
            chaos_verdict(bad, HALF, [4, 8, 16])

    def test_criterion_co_movement(self):
        # (iii) <=> (v) on the bundled families: pair gap and concentration
        # gap agree on which side of the tolerance they fall.
        # tol is scaled to the grid endpoint: the concentration gap of a
        # genuinely chaotic family decays like 1/sqrt(n), not geometrically.
        tol = 0.05
        model = EnergyModel(S3, (0, 1, 2), 0.8, 0.2)
        _, gamma = microcanonical_limit(model)
        p = np.array([0.2, 0.3, 0.5])
        cases = [
            (lambda n: product_law(p, n), p),
            (mixture_law, HALF),
            (lambda n: microcanonical(model, n), gamma),
        ]
        for family, rho in cases:
            law = family(160)
            assert ((pair_gap(marginal(law, 2), rho) < tol)
                    == (mean_empirical_tv(law, rho) < 5 * tol))


class TestMicrocanonical:
    def test_explicit_window(self):
        model = EnergyModel(S2, (0, 1), 0.5, 0.6)
        law = microcanonical(model, 4)
        assert law.classes[(3, 1)] == pytest.approx(4 / 14)
        assert law.classes[(2, 2)] == pytest.approx(6 / 14)
        assert law.classes[(1, 3)] == pytest.approx(4 / 14)
        assert law.classes.get((4, 0), 0.0) == 0.0

    def test_wide_window_is_uniform(self):
        model = EnergyModel(S2, (0, 1), 0.5, 3.0)
        law = microcanonical(model, 5)
        for m, mass in law.classes.items():
            assert mass == pytest.approx(class_size(m) / 2**5)

    def test_empty_window(self):
        model = EnergyModel(S2, (0, 1), -2.0, 0.1)
        with pytest.raises(EmptyEnsembleError, match="n=4"):
            microcanonical(model, 4)

    @pytest.mark.parametrize("H, E, delta", [((0, 1), math.nan, 0.1),
                                             ((0, math.inf), 0.5, 0.1),
                                             ((0, 1), 0.5, math.inf)])
    def test_non_finite_model_rejected(self, H, E, delta):
        with pytest.raises(InvalidArgumentError, match="finite"):
            EnergyModel(S2, H, E, delta)

    def test_uniform_per_ordered_point(self):
        model = EnergyModel(S3, (0, 1, 2), 0.8, 0.2)
        law = microcanonical(model, 12)
        per_point = {mass / class_size(m) for m, mass in law.classes.items()}
        assert max(per_point) == pytest.approx(min(per_point), rel=1e-12)


def as_fraction(decimal):
    m, e = decimal
    return Fraction(m) * Fraction(10) ** e


class TestDecimal:
    """The window reads each input as the decimal it prints as; Fraction,
    the test oracle, parses the same text."""

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_floats(self, x):
        assert as_fraction(_decimal(x)) == Fraction(str(x))

    @pytest.mark.parametrize("x", [1e-05, 1.5e+16, -0.0, 5e-324, 1.7976931348623157e+308,
                                   0.8, -2.25, 100.0, 3, -17, 10**30, np.float64(0.1)])
    def test_fixed_cases(self, x):
        assert as_fraction(_decimal(x)) == Fraction(str(x))


class TestFitGibbs:
    def test_symmetric_midpoint(self):
        beta, gamma = fit_gibbs(EnergyModel(S2, (0, 1), 0.5, 0.1))
        assert beta == pytest.approx(0.0, abs=1e-9)
        assert gamma[0] == pytest.approx(0.5, abs=1e-10)

    def test_quarter(self):
        beta, gamma = fit_gibbs(EnergyModel(S2, (0, 1), 0.25, 0.1))
        assert beta == pytest.approx(math.log(3), abs=1e-9)
        assert gamma.tolist() == pytest.approx([0.75, 0.25], abs=1e-10)

    def test_three_state_residual(self):
        model = EnergyModel(S3, (0, 1, 2), 0.8, 0.2)
        beta, gamma = fit_gibbs(model)
        mean = math.fsum(g * h for g, h in zip(gamma.tolist(), model.H))
        assert abs(mean - 0.8) < 1e-10

    def test_beta_decreasing_in_E(self):
        betas = [
            fit_gibbs(EnergyModel(S3, (0, 1, 2), E, 0.1))[0]
            for E in np.linspace(0.2, 1.8, 9)
        ]
        assert all(b < a for a, b in zip(betas, betas[1:]))

    def test_errors(self):
        with pytest.raises(InfeasibleEnergyError):
            fit_gibbs(EnergyModel(S2, (0, 1), 1.5, 0.1))
        with pytest.raises(DegenerateModelError):
            fit_gibbs(EnergyModel(S2, (1, 1), 1.0, 0.1))

    def test_postcondition_raises_with_residual(self, monkeypatch):
        import chaoslab.diagnostics as diagnostics

        true_mean = diagnostics._gibbs_mean_energy
        monkeypatch.setattr(diagnostics, "_gibbs_mean_energy",
                            lambda H, beta: true_mean(H, beta) + 0.01)
        with pytest.raises(InfeasibleEnergyError, match="residual -0.01"):
            fit_gibbs(EnergyModel(S3, (0, 1, 2), 0.8, 0.2))


class TestMicrocanonicalLimit:
    def test_clips_to_window_edge(self):
        # Uniform mean energy 1.0 lies above the window (0.7, 0.9): the
        # entropy-maximizing energy pins at 0.9.
        model = EnergyModel(S3, (0, 1, 2), 0.8, 0.2)
        _, gamma = microcanonical_limit(model)
        mean = math.fsum(g * h for g, h in zip(gamma.tolist(), model.H))
        assert mean == pytest.approx(0.9, abs=1e-9)

    def test_interior_window_is_uniform(self):
        model = EnergyModel(S3, (0, 1, 2), 1.0, 0.5)
        beta, gamma = microcanonical_limit(model)
        assert beta == pytest.approx(0.0, abs=1e-9)
        assert gamma.tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-10)


class TestEntropyConvergence:
    def test_product_family_zero_deviation(self):
        p = np.array([0.3, 0.7])
        rows = entropy_convergence(lambda n: product_law(p, n), p, [2, 4, 8])
        assert all(dev < 1e-12 for _, _, dev in rows)

    def test_microcanonical_deviation_decreasing(self):
        model = EnergyModel(S3, (0, 1, 2), 0.8, 0.2)
        _, gamma = microcanonical_limit(model)
        rows = entropy_convergence(
            lambda n: microcanonical(model, n), gamma, [20, 40, 80, 160]
        )
        devs = [dev for _, _, dev in rows]
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_mixture_family_drifts_to_entropy_of_limit(self):
        # Specific log-likelihood of the two-atom mixture is log(1/2)/n -> 0,
        # so the deviation approaches |sum p log p|: the chaoticity
        # hypothesis of the entropy limit matters.
        rows = entropy_convergence(mixture_law, HALF, [4, 16, 64])
        for n, sll, dev in rows:
            assert sll == pytest.approx(math.log(0.5) / n, abs=1e-14)
        assert rows[-1][2] == pytest.approx(abs(math.log(0.5)), abs=0.02)

    def test_empty_grid(self):
        with pytest.raises(InvalidArgumentError):
            entropy_convergence(mixture_law, HALF, [])

    def test_non_integral_grid_is_refused(self):
        # int() used to truncate each n: rows for n = 2 and 4 from a family
        # called with 2.5 and 4.5.
        with pytest.raises(InvalidArgumentError, match="expected an integer, got 2.5"):
            entropy_convergence(lambda n: product_law(HALF, n), HALF, [2.5, 4.5])
        rows = entropy_convergence(lambda n: product_law(HALF, n), HALF, [2.0, np.int64(4)])
        assert [n for n, _, _ in rows] == [2, 4] and all(type(n) is int for n, _, _ in rows)
