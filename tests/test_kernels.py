import itertools
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from chaoslab import (
    Distribution,
    StateSpace,
    SumConservingRule,
    SymmetricLaw,
    counterexample_kernel,
    enumerate_occupancies,
    identity_kernel,
    kac_collision_kernel,
    kac_limit_evolve,
    make_kernel,
    map_kernel,
    marginal,
    product_law,
    propagate,
    symmetrized_class_kernel,
)
from chaoslab.cli import column_laws, monte_carlo_pair_marginals
from chaoslab.core import class_index, occupancy_array
from chaoslab.diagnostics import pair_gap
from chaoslab.errors import CapacityError, InvalidArgumentError
from chaoslab.kernels import KAC_EXACT_MAX_N, ExchangeableKernel

from conftest import (
    SwapRule,
    counterexample_ordered_law,
    dense_kac_matrix,
    equivariance_violation,
    law_tv_distance,
    map_ordered_law,
    mixture,
    oracle_kac_event_matrix,
    ordered_class_matrix,
    ordered_law_matrix,
    point_class,
    propagate_dense,
    pushforward,
    random_symmetric_law,
    to_dense,
)

S2 = StateSpace.of_size(2)
S3 = StateSpace.of_size(3)


def noisy_relabel_law(n, flip=0.3):
    """Ordered law of noisy_relabel_kernel: each coordinate flips independently."""

    def ordered_law(s):
        out = {}
        for t in itertools.product(range(2), repeat=n):
            pr = 1.0
            for si, ti in zip(s, t):
                pr *= (1 - flip) if ti == si else flip
            out[t] = pr
        return out

    return ordered_law


def noisy_relabel_kernel(n, flip=0.3):
    """Equivariant stochastic user kernel: its exact matrix is compiled from
    its dense ordered matrix, its sampler flips each state's particles."""

    def build_matrix():
        M = ordered_law_matrix(kernel, noisy_relabel_law(n, flip))
        return ordered_class_matrix(kernel, M)

    def sampler(starts, rngs):
        # Each state's particles flip independently: m_0 -> m_0 - x_0 + x_1.
        ends = []
        for m, rng in zip(starts, rngs):
            x0, x1 = (int(rng.binomial(c, flip)) for c in m)
            ends.append((m[0] - x0 + x1, m[1] - x1 + x0))
        return np.array(ends)

    kernel = ExchangeableKernel(S2, S2, n, "noisy", sampler=sampler,
                                matrix_builder=build_matrix)
    return kernel


def laws_of(columns, space, n):
    """The symmetric laws whose masses by class rank are the rows of `columns`."""
    return [SymmetricLaw(space, n, occupancy_array(space.k, n), row) for row in columns]


def assert_pair_marginals_close_to_exact(kernel, rho, replicas, seed):
    """theorem-probe's Monte Carlo pair marginal of each column law, from
    the kernel's sampler, lies within 4 standard errors per entry of the
    exact pair marginal of the law's image under the kernel's class matrix."""
    columns = column_laws(rho, kernel.n)
    laws = laws_of(columns, rho.space, kernel.n)
    for law, result in zip(laws, monte_carlo_pair_marginals(columns, kernel, replicas, seed)):
        exact = marginal(propagate(law, kernel), 2)
        assert np.all(np.abs(result.estimate - exact) < 4 * result.std_error + 1e-9)


class TestCheckEquivariance:
    """The ordered laws of the kernels, checked on their dense ordered matrices."""

    def violation(self, kernel, ordered_law):
        return equivariance_violation(kernel, ordered_law_matrix(kernel, ordered_law))

    def test_map_kernel_exact_zero(self):
        assert self.violation(map_kernel([1, 0], 4, S2), map_ordered_law([1, 0])) == 0.0

    def test_counterexample_passes(self):
        assert self.violation(counterexample_kernel(4), counterexample_ordered_law(4)) == 0.0

    def test_noisy_kernel_passes(self):
        assert self.violation(noisy_relabel_kernel(3), noisy_relabel_law(3)) < 1e-12

    def test_broken_kernel_fails(self):
        # Rewrites only the first coordinate: not equivariant.
        broken = lambda s: {(1,) + tuple(s[1:]): 1.0}
        assert self.violation(ExchangeableKernel(S2, S2, 2, "broken"), broken) >= 0.5


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
        kernel, ordered_law = noisy_relabel_kernel(3), noisy_relabel_law(3)
        reference = None
        for rep in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            row = {}
            for t, pr in ordered_law(rep).items():
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
        assert_pair_marginals_close_to_exact(kernel, Distribution(S2, (0.7, 0.3)), 8000, seed=5)

    def test_kac_sampled_rows_close_to_exact(self):
        kernel = kac_collision_kernel(S3, 1.0, 0.5, 5)
        assert_pair_marginals_close_to_exact(kernel, Distribution(S3, (0.5, 0.3, 0.2)), 3000,
                                             seed=9)

    def test_kac_sampler_uses_the_kernels_pair_rule(self):
        # Swapping colliders never changes an occupancy; the default
        # sum-conserving rule would.  So each run's pair U-statistic is its
        # start class's, and a point law's estimate spreads only by roundoff.
        n = KAC_EXACT_MAX_N + 1
        kernel = kac_collision_kernel(S3, 1.0, 1.0, n, pair_rule=SwapRule())
        for column in column_laws(Distribution(S3, (0.5, 0.3, 0.2)), n):
            [law] = laws_of([column], S3, n)
            [result] = monte_carlo_pair_marginals(column[None], kernel, 200, seed=2)
            exact = marginal(law, 2)
            assert np.all(np.abs(result.estimate - exact) < 4 * result.std_error + 1e-12)
            if len(law.p) == 1:  # the point law on the quota class
                assert result.std_error.max() < 1e-15
                assert np.allclose(result.estimate, exact, rtol=0, atol=1e-15)


class TestBackend:
    """Each kernel fixes exact or Monte Carlo when it is built."""

    @pytest.mark.parametrize("build", [
        lambda: identity_kernel(S2, 4),
        lambda: map_kernel([1, 1, 0], 4, S3),
        lambda: counterexample_kernel(4),
        lambda: noisy_relabel_kernel(3),
        lambda: kac_collision_kernel(S3, 1.0, 0.5, KAC_EXACT_MAX_N),
    ], ids=["identity", "map", "counterexample", "matrix-builder", "kac-at-cap"])
    def test_exact(self, build):
        assert build().exact

    @pytest.mark.parametrize("build", [
        lambda: kac_collision_kernel(S3, 1.0, 0.5, KAC_EXACT_MAX_N + 1),
        lambda: ExchangeableKernel(S2, S2, 3, "noisy-mc",
                                   sampler=noisy_relabel_kernel(3).sampler),
    ], ids=["kac-past-cap", "sampler-only"])
    def test_monte_carlo(self, build):
        assert not build().exact

    def test_reading_exact_builds_nothing(self, monkeypatch):
        import chaoslab.kernels as kernels

        calls = []
        build = kernels._shell_stacks
        monkeypatch.setattr(kernels, "_shell_stacks", lambda *a: calls.append(a) or build(*a))
        for n in (4, KAC_EXACT_MAX_N, KAC_EXACT_MAX_N + 1):
            assert kac_collision_kernel(S3, 1.0, 0.5, n).exact == (n <= KAC_EXACT_MAX_N)
        assert calls == []
        kac_collision_kernel(S3, 1.0, 0.5, 4).class_matrix()
        assert len(calls) == 1

    def test_monte_carlo_rows_need_a_seed(self):
        kernel = kac_collision_kernel(S3, 1.0, 0.5, KAC_EXACT_MAX_N + 1)
        with pytest.raises(CapacityError, match=f"'kac:1,0.5'.*n={kernel.n}.*seed"):
            kernel.class_matrix()


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
        q = Distribution(S3, tuple(pushforward([p.p], fmap, 3)[0]))
        for n in (2, 4, 5):
            out = propagate(product_law(p, n), map_kernel(fmap, n, S3))
            want = product_law(q, n)
            assert law_tv_distance(out, want) < 1e-13
            dense = to_dense(out)
            for idx, s in enumerate(dense.tuples()):
                assert dense.probs[idx] == pytest.approx(
                    math.prod(q.p[si] for si in s), abs=1e-13
                )

    def test_counterexample_destroys_mixture(self):
        n = 6
        mix = SymmetricLaw(S2, n, [(n, 0), (n - 1, 1)], [0.5, 0.5])
        out = propagate(mix, counterexample_kernel(n))
        assert out.classes[(n, 0)] == pytest.approx(0.5)
        assert out.classes[(0, n)] == pytest.approx(0.5)

    def test_counterexample_keeps_products_chaotic(self):
        p = Distribution(S2, (0.9, 0.1))
        for n in (3, 6):
            out = propagate(product_law(p, n), counterexample_kernel(n))
            assert out.classes[(n, 0)] == pytest.approx(0.9**n)
            assert out.classes[(0, n)] == pytest.approx(1 - 0.9**n)

    def test_identity_fixes_laws(self, rng):
        law = random_symmetric_law(rng, n=5, k=2)
        assert law_tv_distance(propagate(law, identity_kernel(S2, 5)), law) < 1e-14

    def test_affine_in_the_law(self, rng):
        kernel = kac_collision_kernel(S2, 1.0, 0.5, 4)
        a = random_symmetric_law(rng, n=4, k=2)
        b = random_symmetric_law(rng, n=4, k=2)
        alpha = 0.3
        mixed = propagate(mixture([(a, alpha), (b, 1 - alpha)]), kernel)
        parts = mixture(
            [(propagate(a, kernel), alpha), (propagate(b, kernel), 1 - alpha)]
        )
        assert law_tv_distance(mixed, parts) < 1e-12

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
        # The ordered state (1, 0, 0) has class (2, 1); all-ones is (0, 3).
        rows = symmetrized_class_kernel(counterexample_kernel(3))
        assert rows[(2, 1)] == {(0, 3): 1.0}


def class_map_cases():
    """(id, kernel builder, oracle images of an occupancy array, n) for
    identity, random maps, a merging map, a map onto a wider target and the
    counterexample; n reaches 1,000 where the source classes fit."""
    rng = np.random.default_rng(18)
    specs = [([0, 1, 2], 3), ([0, 0, 1], 3), ([0, 3, 1], 4)]
    for k in (2, 3, 4):
        for _ in range(2):
            fmap = rng.integers(0, k + 1, size=k).tolist()
            specs.append((fmap, max(k, max(fmap) + 1)))
    for fmap, target_k in specs:
        space, target = StateSpace.of_size(len(fmap)), StateSpace.of_size(target_k)

        def image(occ, fmap=fmap, target_k=target_k):
            return np.stack([occ[:, [s for s, t in enumerate(fmap) if t == u]].sum(axis=1)
                             for u in range(target_k)], axis=1)

        for n in (2, 9, 100) + ((1000,) if len(fmap) <= 3 else ()):
            if fmap == [0, 1, 2]:
                yield f"identity-n{n}", lambda n, space=space: identity_kernel(space, n), image, n
            else:
                name = f"map:{','.join(map(str, fmap))}-{target_k}-n{n}"
                yield name, partial(map_kernel, fmap, source=space, target=target), image, n

    def all_or_nothing(occ):
        n = int(occ[0].sum())
        return np.column_stack([np.where(occ[:, 0] == n, n, 0), np.where(occ[:, 0] == n, 0, n)])

    for n in (2, 9, 100, 1000):
        yield f"counterexample-n{n}", counterexample_kernel, all_or_nothing, n


class TestClassMapRows:
    """A deterministic kernel's row at class m is the point class m' of its
    image, its limit at m/n is m'/n, and the row's pair gap against
    q = m'/n is (1 - |q|^2)/(n - 1): drawing two of the n particles
    without replacement.  The gap is held to 1e-12 relative, or to two unit
    roundoffs absolute: near a point mass at n = 1,000 the gap is about
    4e-6 while the TV sum cancels terms near 1, whose rounding (below one
    unit roundoff measured) is up to 7e-12 of it."""

    @pytest.mark.parametrize("name, build, image, n", list(class_map_cases()),
                             ids=[case[0] for case in class_map_cases()])
    def test_rows_limits_and_gaps(self, name, build, image, n):
        kernel = build(n)
        occ = occupancy_array(kernel.source.k, n)
        images = image(occ)
        src, dst, prob = kernel.class_matrix()
        assert src.tolist() == list(range(len(occ)))
        assert (dst == class_index(images, n)).all() and (prob == 1.0).all()
        assert np.abs(kernel.limit(occ / n) - images / n).max() <= 4 * 2.0**-53
        for row in np.random.default_rng(n).choice(len(occ), size=min(len(occ), 12),
                                                   replace=False):
            q = Distribution(kernel.target, tuple(images[row] / n))
            row_law = point_class(kernel.target, tuple(images[row]))
            gap = pair_gap(marginal(row_law, 2), q)
            want = Fraction(n * n - int(images[row] @ images[row]), n * n * (n - 1))
            assert abs(Fraction(gap) - want) <= max(1e-12 * want, 2 * 2.0**-53)


class TestKacKernel:
    def test_single_event_split(self):
        occs = enumerate_occupancies(S3, 2)
        index = {m: i for i, m in enumerate(occs)}
        P = oracle_kac_event_matrix(3, 2, SumConservingRule(3))
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


class TestCommutingDiagram:
    """symmetrize(ordered kernel applied to to_dense(law)) == propagate(law, K)."""

    def kernels_for(self, space, n):
        fmap = list(range(1, space.k)) + [0]
        out = [(identity_kernel(space, n), map_ordered_law(range(space.k))),
               (map_kernel(fmap, n, space), map_ordered_law(fmap))]
        if space.k == 2:
            out.append((counterexample_kernel(n), counterexample_ordered_law(n)))
            out.append((noisy_relabel_kernel(n), noisy_relabel_law(n)))
        out = [(kernel, ordered_law_matrix(kernel, law)) for kernel, law in out]
        out.append((kac_collision_kernel(space, 1.0, 1.0, n),
                    dense_kac_matrix(space.k, n, 1.0, 1.0)))
        return out

    def test_pushforward_commutes(self, rng):
        for _ in range(8):
            law = random_symmetric_law(rng, max_n=6)
            for kernel, M in self.kernels_for(law.space, law.n):
                want = propagate_dense(law, kernel.target, M)
                assert law_tv_distance(propagate(law, kernel), want) < 1e-12


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
        assert kernel.limit(np.array([[0.6, 0.4], [0.1, 0.9]])).shape == (2, kernel.target.k)


class TestLimit:
    """Limits map a (B, k) stack of laws to the (B, k_target) stack of images."""

    STACK = np.array([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]])

    @pytest.mark.parametrize("name, k", [("identity", 3), ("map:1,1,0", 3), ("map:0,2", 2),
                                         ("counterexample", 2), ("kac:1,1", 3), ("kac:1,0", 3)])
    def test_stack_in_new_float_stack_out(self, name, k):
        # A Distribution used to come back as a Distribution from kac but as an
        # array from the others, and kac at t = 0 handed back the caller's list.
        kernel = make_kernel(name, StateSpace.of_size(k), 4)
        rows = [[1.0 / k] * k, [1] + [0] * (k - 1)]
        for P in (rows, np.array(rows), np.array(rows[1:], dtype=np.int64)):
            out = kernel.limit(P)
            assert type(out) is np.ndarray and out.dtype == float
            assert out.shape == (len(P), kernel.target.k)
            assert not np.shares_memory(out, P)
        with pytest.raises(InvalidArgumentError):
            kernel.limit(Distribution(StateSpace.of_size(k), tuple(rows[1])))

    def test_map_limit_is_pushforward(self):
        out = make_kernel("map:1,1,0", S3, 4).limit(self.STACK)
        assert out.tolist() == pushforward(self.STACK, [1, 1, 0], 3).tolist()

    def test_counterexample_limit(self):
        limit = counterexample_kernel(4).limit
        out = limit(np.array([[1.0, 0.0], [0.999, 0.001], [0.0, 1.0]]))
        assert out.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]

    def test_kac_limit_uses_the_kernels_pair_rule(self):
        default = kac_collision_kernel(S3, 1.0, 1.0, 4).limit(self.STACK)
        for row, image in zip(self.STACK, default):
            assert image.tolist() == kac_limit_evolve(row[None], 1.0, 1.0)[0].tolist()
        assert 0.5 * np.abs(default - self.STACK).sum(axis=1).min() > 0.01
        swapped = kac_collision_kernel(S3, 1.0, 1.0, 4, pair_rule=SwapRule()).limit(self.STACK)
        assert 0.5 * np.abs(swapped - self.STACK).sum(axis=1).max() < 1e-12
