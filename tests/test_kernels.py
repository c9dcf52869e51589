import itertools
import math

import numpy as np
import pytest

from chaoslab import (
    Distribution,
    PairRule,
    StateSpace,
    SymmetricLaw,
    check_equivariance,
    counterexample_kernel,
    enumerate_occupancies,
    identity_kernel,
    kac_collision_kernel,
    kac_limit_evolve,
    make_kernel,
    map_kernel,
    marginal,
    orbit_sample,
    product_law,
    propagate,
    pushforward,
    symmetrized_class_kernel,
    to_dense,
    tv_distance,
)
from chaoslab.errors import CapacityError, EquivarianceError, InvalidArgumentError
from chaoslab.kernels import ExchangeableKernel, SumConservingRule, _kac_event_matrix

from conftest import (
    dense_kac_matrix,
    ordered_law_matrix,
    propagate_dense,
    random_symmetric_law,
)

S2 = StateSpace.of_size(2)
S3 = StateSpace.of_size(3)


def noisy_relabel_kernel(n, flip=0.3):
    """Equivariant stochastic test kernel: flip each coordinate independently."""

    def ordered_law(s):
        out = {}
        for t in itertools.product(range(2), repeat=n):
            pr = 1.0
            for si, ti in zip(s, t):
                pr *= (1 - flip) if ti == si else flip
            out[t] = pr
        return out

    def sampler(s, rng):
        return tuple(1 - si if rng.random() < flip else si for si in s)

    return ExchangeableKernel(S2, S2, n, "noisy", ordered_law=ordered_law, sampler=sampler)


def broken_kernel(n):
    """Rewrites only the first coordinate: not equivariant."""

    def ordered_law(s):
        return {(1,) + tuple(s[1:]): 1.0}

    return ExchangeableKernel(
        S2, S2, n, "broken", ordered_law=ordered_law, validate=False
    )


class TestCheckEquivariance:
    def test_map_kernel_exact_zero(self):
        report = check_equivariance(map_kernel([1, 0], 4, S2), "exhaustive")
        assert report.passed and report.max_violation == 0.0

    def test_counterexample_passes(self):
        report = check_equivariance(counterexample_kernel(4), "exhaustive")
        assert report.passed and report.max_violation == 0.0

    def test_noisy_kernel_passes(self):
        report = check_equivariance(noisy_relabel_kernel(3), "exhaustive")
        assert report.passed and report.max_violation < 1e-12

    def test_broken_kernel_fails(self):
        report = check_equivariance(broken_kernel(2), "exhaustive")
        assert not report.passed
        assert report.max_violation >= 0.5

    def test_constructor_rejects_broken(self):
        with pytest.raises(EquivarianceError):
            ExchangeableKernel(
                S2, S2, 2, "broken",
                ordered_law=lambda s: {(1,) + tuple(s[1:]): 1.0},
            )

    def test_sampled_mode(self):
        good = check_equivariance(noisy_relabel_kernel(4), "sampled", seed=11)
        assert good.passed
        bad = broken_kernel(4)
        bad.sampler = lambda s, rng: (1,) + tuple(s[1:])
        report = check_equivariance(bad, "sampled", seed=11)
        assert not report.passed

    def test_sampled_needs_seed(self):
        with pytest.raises(InvalidArgumentError):
            check_equivariance(noisy_relabel_kernel(3), "sampled")


class TestSymmetrizedClassKernel:
    def test_identity_kernel_identity_rows(self):
        rows = symmetrized_class_kernel(identity_kernel(S3, 4))
        for m in enumerate_occupancies(S3, 4):
            assert rows[m] == {m: 1.0}

    def test_counterexample_rows(self):
        rows = symmetrized_class_kernel(counterexample_kernel(3))
        assert rows[(3, 0)] == {(3, 0): 1.0}
        for m in [(2, 1), (1, 2), (0, 3)]:
            assert rows[m] == {(0, 3): 1.0}

    def test_representative_independence(self):
        kernel = noisy_relabel_kernel(3)
        reference = None
        for rep in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            row = {}
            for t, pr in kernel.ordered_law(rep).items():
                m2 = (t.count(0), t.count(1))
                row[m2] = row.get(m2, 0.0) + pr
            if reference is None:
                reference = row
            else:
                assert all(abs(row[m] - reference[m]) < 1e-12 for m in row)
        exact = symmetrized_class_kernel(kernel)[(2, 1)]
        assert all(abs(exact[m] - reference[m]) < 1e-12 for m in reference)

    def test_sampled_estimation_close_to_exact(self):
        kernel = noisy_relabel_kernel(3)
        exact = symmetrized_class_kernel(kernel)
        kernel_mc = ExchangeableKernel(
            S2, S2, 3, "noisy-mc", sampler=kernel.sampler, validate=False
        )
        rows = symmetrized_class_kernel(kernel_mc, seed=5, replicas=20000)
        for m in exact:
            for m2, pr in exact[m].items():
                sigma = math.sqrt(pr * (1 - pr) / 20000)
                assert abs(rows[m].get(m2, 0.0) - pr) < 4 * sigma + 1e-9


class TestInducedTransition:
    """The class rows are the induced transition on empirical measures m/n."""

    def test_identity(self):
        rows = symmetrized_class_kernel(identity_kernel(S2, 3))
        for m in enumerate_occupancies(S2, 3):
            assert rows[m] == {m: 1.0}

    def test_counterexample(self):
        rows = symmetrized_class_kernel(counterexample_kernel(3))
        assert rows[(3, 0)] == {(3, 0): 1.0}
        assert rows[(1, 2)] == {(0, 3): 1.0}

    def test_kac_rows_stochastic(self):
        for n in (4, 8, 12):
            rows = symmetrized_class_kernel(kac_collision_kernel(S3, 1.0, 0.7, n))
            for m, row in rows.items():
                assert abs(math.fsum(row.values()) - 1.0) < 1e-12
                assert all(pr >= 0.0 for pr in row.values())


class TestPropagate:
    def test_map_kernel_preserves_products(self, rng):
        p = Distribution(S3, (0.5, 0.2, 0.3))
        fmap = [1, 1, 0]
        for n in (2, 4, 5):
            out = propagate(product_law(p, n), map_kernel(fmap, n, S3))
            want = product_law(pushforward(p, fmap), n)
            assert tv_distance(out, want) < 1e-13
            dense = to_dense(out)
            q = pushforward(p, fmap)
            for idx, s in enumerate(dense.tuples()):
                assert dense.probs[idx] == pytest.approx(
                    math.prod(q.p[si] for si in s), abs=1e-13
                )

    def test_counterexample_destroys_mixture(self):
        n = 6
        mix = SymmetricLaw(S2, n, {(n, 0): 0.5, (n - 1, 1): 0.5})
        out = propagate(mix, counterexample_kernel(n))
        assert out.mass((n, 0)) == pytest.approx(0.5)
        assert out.mass((0, n)) == pytest.approx(0.5)

    def test_counterexample_keeps_products_chaotic(self):
        p = Distribution(S2, (0.9, 0.1))
        for n in (3, 6):
            out = propagate(product_law(p, n), counterexample_kernel(n))
            assert out.mass((n, 0)) == pytest.approx(0.9**n)
            assert out.mass((0, n)) == pytest.approx(1 - 0.9**n)

    def test_identity_fixes_laws(self, rng):
        law = random_symmetric_law(rng, n=5, k=2)
        assert tv_distance(propagate(law, identity_kernel(S2, 5)), law) < 1e-14

    def test_affine_in_the_law(self, rng):
        kernel = kac_collision_kernel(S2, 1.0, 0.5, 4)
        a = random_symmetric_law(rng, n=4, k=2)
        b = random_symmetric_law(rng, n=4, k=2)
        alpha = 0.3
        mixed = propagate(SymmetricLaw.mixture([(a, alpha), (b, 1 - alpha)]), kernel)
        parts = SymmetricLaw.mixture(
            [(propagate(a, kernel), alpha), (propagate(b, kernel), 1 - alpha)]
        )
        assert tv_distance(mixed, parts) < 1e-12

    def test_dimension_mismatch(self, rng):
        law = random_symmetric_law(rng, n=4, k=2)
        with pytest.raises(InvalidArgumentError):
            propagate(law, identity_kernel(S2, 5))


class TestMapKernel:
    def test_identity_rows(self):
        rows = symmetrized_class_kernel(map_kernel([0, 1], 3, S2))
        for m in enumerate_occupancies(S2, 3):
            assert rows[m] == {m: 1.0}

    def test_constant_map(self):
        rows = symmetrized_class_kernel(map_kernel([1, 1], 3, S2))
        for m in enumerate_occupancies(S2, 3):
            assert rows[m] == {(0, 3): 1.0}

    def test_swap(self):
        rows = symmetrized_class_kernel(map_kernel([1, 0], 3, S2))
        assert rows[(2, 1)] == {(1, 2): 1.0}


class TestCounterexampleKernel:
    def test_all_zero_state(self):
        rows = symmetrized_class_kernel(counterexample_kernel(3))
        assert rows[(3, 0)] == {(3, 0): 1.0}

    def test_other_state(self):
        kernel = counterexample_kernel(3)
        assert kernel.ordered_law((1, 0, 0)) == {(1, 1, 1): 1.0}

    def test_time_argument_ignored(self):
        a = symmetrized_class_kernel(counterexample_kernel(3, t=0.5))
        b = symmetrized_class_kernel(counterexample_kernel(3, t=7.0))
        assert a == b


class TestKacKernel:
    def test_single_event_split(self):
        occs = enumerate_occupancies(S3, 2)
        index = {m: i for i, m in enumerate(occs)}
        P = _kac_event_matrix(S3, 2, SumConservingRule(3), occs, index)
        i = index[(1, 0, 1)]
        row = {occs[j]: P[i, j] for j in range(len(occs)) if P[i, j] > 0}
        assert row[(1, 0, 1)] == pytest.approx(2 / 3)
        assert row[(0, 2, 0)] == pytest.approx(1 / 3)

    def test_all_zero_invariant(self):
        kernel = kac_collision_kernel(S3, 2.0, 1.5, 5)
        rows = symmetrized_class_kernel(kernel)
        assert rows[(5, 0, 0)] == {(5, 0, 0): pytest.approx(1.0)}

    def test_label_sum_conserved(self):
        kernel = kac_collision_kernel(S3, 1.0, 1.0, 6)
        rows = symmetrized_class_kernel(kernel)
        for m, row in rows.items():
            total = sum(i * mi for i, mi in enumerate(m))
            for m2 in row:
                assert sum(i * mi for i, mi in enumerate(m2)) == total

    def test_capacity_limit(self):
        kernel = kac_collision_kernel(S3, 1.0, 1.0, 20)
        with pytest.raises(CapacityError):
            symmetrized_class_kernel(kernel)

    def test_invalid_rates(self):
        for lam, t in [(-1.0, 1.0), (1.0, -0.1), (math.nan, 1.0), (math.inf, 1.0),
                       (1.0, math.nan), (1.0, math.inf)]:
            with pytest.raises(InvalidArgumentError):
                kac_collision_kernel(S3, lam, t, 4)


class TestOrbitSample:
    def test_singleton_orbit(self):
        for seed in range(5):
            assert orbit_sample((4, 0), seed) == (0, 0, 0, 0)

    def test_uniform_over_orbit(self):
        rng = np.random.default_rng(3)
        counts = {}
        draws = 100_000
        for _ in range(draws):
            s = orbit_sample((2, 1), rng)
            counts[s] = counts.get(s, 0) + 1
        sigma = math.sqrt(draws * (1 / 3) * (2 / 3))
        for s, c in counts.items():
            assert abs(c - draws / 3) < 3 * sigma

    def test_counts_preserved(self, rng):
        for _ in range(20):
            zeta = tuple(rng.integers(0, 4, size=3))
            if sum(zeta) == 0:
                continue
            s = orbit_sample(zeta, rng)
            assert tuple(s.count(i) for i in range(3)) == zeta


class TestCommutingDiagram:
    """symmetrize(ordered kernel applied to to_dense(law)) == propagate(law, K)."""

    def kernels_for(self, space, n):
        fmap = list(range(1, space.k)) + [0]
        out = [identity_kernel(space, n), map_kernel(fmap, n, space)]
        if space.k == 2:
            out.append(counterexample_kernel(n))
        out = [(kernel, ordered_law_matrix(kernel)) for kernel in out]
        out.append((kac_collision_kernel(space, 1.0, 1.0, n),
                    dense_kac_matrix(space.k, n, 1.0, 1.0)))
        return out

    def test_pushforward_commutes(self, rng):
        for _ in range(8):
            law = random_symmetric_law(rng, max_n=6)
            for kernel, M in self.kernels_for(law.space, law.n):
                want = propagate_dense(law, kernel.target, M)
                assert tv_distance(propagate(law, kernel), want) < 1e-12


class TestRegistry:
    def test_names(self):
        assert make_kernel("identity", S3, 4).name == "identity"
        assert make_kernel("counterexample", S2, 4).name == "counterexample"
        assert make_kernel("map:1,0", S2, 3).name == "map:1,0"
        assert make_kernel("kac:1,0.5", S3, 4).name == "kac:1,0.5"

    def test_unknown(self):
        with pytest.raises(InvalidArgumentError):
            make_kernel("bogus", S2, 3)

    @pytest.mark.parametrize("name", ["kac:1", "kac:x,1", "kac:1,1,1", "kac:1,nan",
                                      "map:a,b", "map:-1,0", "map:0", "map:",
                                      "pushforward:1,0", "identity:1"])
    def test_malformed(self, name):
        with pytest.raises(InvalidArgumentError):
            make_kernel(name, S2, 3)

    @pytest.mark.parametrize("name, k", [("map:0,0", 2), ("map:0,2", 3)])
    def test_map_limit_lives_on_kernel_target(self, name, k):
        kernel = make_kernel(name, S2, 3)
        assert kernel.target.k == k
        assert kernel.limit(Distribution(S2, (0.6, 0.4))).space == kernel.target


class SwapRule(PairRule):
    """Colliding particles exchange states: the one-particle law never moves."""

    def outcomes(self, u, w):
        return [((w, u), 1.0)]


class TestLimit:
    P3 = Distribution(S3, (0.6, 0.3, 0.1))

    def test_map_limit_is_pushforward(self):
        kernel = make_kernel("map:1,1,0", S3, 4)
        assert kernel.limit(self.P3).p == pushforward(self.P3, [1, 1, 0]).p

    def test_counterexample_limit(self):
        limit = counterexample_kernel(4).limit
        assert limit(Distribution(S2, (1.0, 0.0))).p == (1.0, 0.0)
        assert limit(Distribution(S2, (0.999, 0.001))).p == (0.0, 1.0)

    def test_kac_limit_uses_the_kernels_pair_rule(self):
        default = kac_collision_kernel(S3, 1.0, 1.0, 4).limit(self.P3)
        assert default.p == kac_limit_evolve(self.P3, 1.0, 1.0).p
        assert tv_distance(default, self.P3) > 0.01
        swapped = kac_collision_kernel(S3, 1.0, 1.0, 4, pair_rule=SwapRule()).limit(self.P3)
        assert tv_distance(swapped, self.P3) < 1e-12
