import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaoslab.kernels
from chaoslab import (
    Distribution,
    PairRule,
    ParticleState,
    StateSpace,
    continuity_probe,
    identity_kernel,
    kac_collision_kernel,
    kac_limit_evolve,
    make_kernel,
    map_kernel,
    simulate_kac,
)
from chaoslab.cli import main
from chaoslab.errors import InvalidArgumentError
from chaoslab.meanfield import collision_marginal_tensor, wild_plan

from conftest import kac_limit_rhs, oracle_kac_limit_evolve, pushforward

S1 = StateSpace.of_size(1)
S2 = StateSpace.of_size(2)
S3 = StateSpace.of_size(3)


class TestPushforward:
    """The image law under a state map is the map kernel's limit."""

    P = np.array([[0.2, 0.3, 0.5]])

    def test_identity(self):
        assert identity_kernel(S3, 4).limit(self.P).tolist() == self.P.tolist()

    def test_constant(self):
        assert map_kernel([1, 1, 1], 4, S3).limit(self.P).tolist() == [[0.0, 1.0, 0.0]]

    def test_swap(self):
        assert map_kernel([1, 0], 4, S2).limit(np.array([[0.3, 0.7]])).tolist() == [[0.7, 0.3]]

    def test_stack_rows_are_row_images(self):
        P = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        limit = map_kernel([2, 0, 2], 4, S3).limit
        assert limit(P).tolist() == [limit(row[None])[0].tolist() for row in P]
        assert limit(P).tolist() == pushforward(P, [2, 0, 2], 3).tolist()
        assert map_kernel([0, 3, 1], 4, S3, StateSpace.of_size(4)).limit(P).shape == (2, 4)


class ListedRule(PairRule):
    """The same outcome list for every pair."""

    def __init__(self, outs):
        self.outs = outs

    def outcomes(self, u, w):
        return self.outs


class FirstWinsRule(PairRule):
    """(u, w) -> (u, u): asymmetric, since (w, u) -> (w, w)."""

    def outcomes(self, u, w):
        return [((u, u), 1.0)]


class TestPairRuleCheck:
    """A rule is checked on k states when it is compiled, wherever it is read."""

    READERS = {
        "simulate_kac": lambda rule: simulate_kac(ParticleState((5, 5, 0)), 1, 1, 0, rule),
        "tensor": lambda rule: collision_marginal_tensor(3, rule),
        "event matrix": lambda rule: kac_collision_kernel(
            S3, 1.0, 1.0, 4, pair_rule=rule).class_matrix(),
    }

    # Label -1 used to move a particle into the last state: simulate_kac
    # ended in (3, 5, 2) and the tensor wrapped the -1 the same way.
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_label_outside_the_space(self, reader):
        with pytest.raises(InvalidArgumentError, match="range"):
            self.READERS[reader](ListedRule([((-1, 0), 1.0)]))

    # Mass 0.5 used to fall back silently to the last outcome.
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_mass_not_one(self, reader):
        with pytest.raises(InvalidArgumentError, match="total probability"):
            self.READERS[reader](ListedRule([((0, 0), 0.25), ((1, 1), 0.25)]))

    # The exact matrix reads only u <= w, simulate_kac both orders: at k = 2,
    # n = 2 the exact row sent (1, 1) to (2, 0) with probability 1, yet 2,000
    # simulated runs ended at (1, 1) 1,419 times.
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_asymmetric_rule(self, reader):
        with pytest.raises(InvalidArgumentError, match="not symmetric"):
            self.READERS[reader](FirstWinsRule())

    @pytest.mark.parametrize("outs", [
        [], [((0, 3), 1.0)], [((0, 0), math.nan)], [((0, 0), 1.5), ((1, 1), -0.5)],
        [((True, 0), 1.0)], [((0.5, 0), 1.0)],
    ], ids=["empty", "label-k", "nan", "negative", "bool-label", "fractional-label"])
    def test_malformed_outcomes(self, outs):
        with pytest.raises(InvalidArgumentError):
            ListedRule(outs).compiled(3)

    def test_compiled_once_per_k(self):
        rule = ListedRule([((0, 0), 1.0)])
        assert rule.compiled(3) is rule.compiled(3)
        assert rule.compiled(2) is not rule.compiled(3)


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
    P0 = np.array([[0.6, 0.3, 0.1]])

    def test_point_mass_stationary(self):
        p0 = np.array([[1.0, 0.0, 0.0]])
        assert np.abs(kac_limit_evolve(p0, 1.0, 2.0) - p0).max() <= 1e-12

    def test_time_zero_identity(self):
        # A fresh float copy: the caller's list or array is never handed back.
        for p0 in ([[0.6, 0.3, 0.1]], self.P0, np.array([[1, 0, 0]])):
            out = kac_limit_evolve(p0, 1.0, 0.0)
            assert out is not p0 and not np.shares_memory(out, p0)
            assert out.dtype == float and out.tolist() == np.asarray(p0, dtype=float).tolist()

    def test_mean_label_conserved_over_time(self):
        labels = np.arange(3)
        start = float(self.P0[0] @ labels)
        for t in (0.5, 2.0, 5.0):
            pt = kac_limit_evolve(self.P0, 1.0, t)[0]
            assert abs(float(pt @ labels) - start) < 1e-9
            assert abs(math.fsum(pt) - 1.0) < 1e-12

    def test_richardson(self):
        a = kac_limit_evolve(self.P0, 1.0, 1.0, dt=1e-3)
        b = kac_limit_evolve(self.P0, 1.0, 1.0, dt=5e-4)
        assert 0.5 * np.abs(a - b).sum() < 1e-8

    def test_bad_step(self):
        with pytest.raises(InvalidArgumentError):
            kac_limit_evolve(self.P0, 1.0, 1.0, dt=0.0)

    def test_bad_rate_or_time(self):
        for lam, t in [(0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, -1.0),
                       (1.0, math.nan), (1.0, math.inf)]:
            with pytest.raises(InvalidArgumentError):
                kac_limit_evolve(self.P0, lam, t)

    def test_step_count_past_a_float(self):
        with pytest.raises(InvalidArgumentError, match="inf slices"):
            kac_limit_evolve(self.P0, 1.0, 1.0, dt=1e-320)

    def test_work_past_the_budget_is_refused_before_any_row(self, monkeypatch):
        # lam*t = 1e5 is 2e5 slices, past MAX_SLICES = 20,000.
        monkeypatch.setattr(chaoslab.meanfield, "collision_marginal_tensor",
                            lambda *a: pytest.fail("a row was integrated"))
        P = np.array([[1.0, 0.0, 0.0], [0.6, 0.3, 0.1], [0.0, 0.0, 1.0]])
        with pytest.raises(InvalidArgumentError, match=r"lam\*t = 100000 .*budget of 20000"):
            kac_limit_evolve(P, 1e5, 1.0)

    def test_stack_past_the_row_budget_is_refused_before_any_row(self, monkeypatch):
        # 65 rows at lam*t = 1e4 is 20,000 slices each: within MAX_SLICES,
        # but 1.3e6 slices x laws, past MAX_SLICE_ROWS.
        monkeypatch.setattr(chaoslab.meanfield, "collision_marginal_tensor",
                            lambda *a: pytest.fail("a row was integrated"))
        P = np.tile([0.6, 0.3, 0.1], (65, 1))
        with pytest.raises(InvalidArgumentError, match=r"for each of 65 laws.*budget of 120000"):
            kac_limit_evolve(P, 1e4, 1.0)
        assert wild_plan(1e4, 1.0).slices == 20_000  # one row stays within budget
        assert wild_plan(1e4, 1.0, rows=6).slices == 20_000
        with pytest.raises(InvalidArgumentError, match="for each of 7 laws"):
            wild_plan(1e4, 1.0, rows=7)

    def test_stiff_rate_stays_on_the_simplex(self):
        # lam = 1000 threw the old fixed-step RK4 (dt = 1e-3) 1.8e-5 off.
        P = np.array([[0.6, 0.3, 0.1], [1.0, 0.0, 0.0]])
        out = kac_limit_evolve(P, 1000.0, 0.003)
        assert out.min() >= 0.0 and np.abs(out.sum(axis=1) - 1.0).max() <= 1e-15
        assert np.abs(out - oracle_kac_limit_evolve(P, 1000.0, 0.003, dt=1e-6)).max() <= 1e-12

    @pytest.mark.parametrize("P", [[0.6, 0.3, 0.1], np.zeros((0, 3)), [[0.5, 0.5, 0.5]],
                                   [[1.1, -0.1, 0.0]], [[np.nan, 0.5, 0.5]],
                                   Distribution(S3, (0.6, 0.3, 0.1))])
    def test_not_a_stack_of_laws(self, P):
        for t in (0.0, 1.0):
            with pytest.raises(InvalidArgumentError):
                kac_limit_evolve(np.asarray(P), 1.0, t)
        with pytest.raises(InvalidArgumentError):
            make_kernel("map:0,0,0", S3, 4).limit(np.asarray(P))

    @pytest.mark.parametrize("P, message", [
        ([0.6, 0.3, 0.1], "need a nonempty (B, k) stack of laws"),
        (np.zeros((0, 3)), "need a nonempty (B, k) stack of laws"),
        ([[0.6, 0.4], [1.0]], "need a nonempty (B, k) stack of laws"),
        ([[0.6, 0.4, 0.0], [np.inf, 0.5, 0.5]], "non-finite probability entry"),
        ([[1.1, -0.1, 0.0]], "negative probability entry"),
        ([[0.6, 0.4, 0.0], [0.5, 0.5, 0.5]], "probabilities do not sum to 1"),
    ])
    def test_stack_messages_are_a_laws(self, P, message):
        with pytest.raises(InvalidArgumentError) as caught:
            kac_limit_evolve(P, 1.0, 1.0)
        assert str(caught.value) == message

    def test_entries_just_below_zero_read_as_zero(self):
        row = (0.5, 0.5 + 5e-16, -5e-16)
        assert kac_limit_evolve([row], 1.0, 0.0)[0].tolist() == list(Distribution(S3, row).p)
        assert Distribution(S3, row).p[2] == 0.0


@st.composite
def law_stacks(draw):
    """A (B, k) stack of random laws with a point mass and a law with a zero."""
    k = draw(st.integers(2, 5))
    rows = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.dirichlet(np.ones(k), size=rows)
    point, zero = rng.permutation(rows)[:2] if rows > 1 else (0, None)
    P[point] = np.eye(k)[draw(st.integers(0, k - 1))]
    if zero is not None:
        P[zero, rng.integers(k)] = 0.0
        P[zero] /= P[zero].sum()
    return P


class TestStackedEvolve:
    """A stack integrates as its rows would one at a time."""

    @settings(max_examples=40, deadline=None)
    @given(P=law_stacks(), lam=st.floats(0.25, 4.0), t=st.sampled_from([0.0, 0.07, 0.5]))
    def test_matches_per_row_oracle(self, P, lam, t):
        out = kac_limit_evolve(P, lam, t, dt=1e-2)
        assert out.shape == P.shape
        for row, got in zip(P, out):
            alone = kac_limit_evolve(row[None], lam, t, dt=1e-2)[0]
            assert np.abs(got - alone).max() <= 1e-15
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12
        labels = np.arange(P.shape[1])
        assert np.abs(out @ labels - P @ labels).max() <= 1e-9


class TestWildSum:
    """Wild's series against the RK4 integrator it replaced, kept as the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(P=law_stacks(), lam=st.floats(0.25, 4.0), t=st.sampled_from([0.07, 0.5, 2.0]))
    def test_matches_rk4_oracle(self, P, lam, t):
        out = kac_limit_evolve(P, lam, t)
        assert np.abs(out - oracle_kac_limit_evolve(P, lam, t, dt=1e-3)).max() <= 1e-12
        assert np.abs(kac_limit_evolve(P, lam, t, dt=1e-2) - out).max() <= 1e-14

    def test_plan(self):
        assert wild_plan(1.0, 1.0) == (2, 40, pytest.approx(6.26e-17, rel=1e-3))
        assert wild_plan(1.0, 1.0, dt=0.01).slices == 100
        assert wild_plan(1.0, 0.0) == (1, 1, 0.0)
        for lam, t, dt in [(1.0, 1.0, math.inf), (4.0, 2.0, 1e-2), (1000.0, 0.003, math.inf)]:
            slices, terms, tail = wild_plan(lam, t, dt)
            beta = -math.expm1(-lam * t / slices)
            assert lam * t / slices <= 0.5 and t / slices <= dt
            assert tail < 2.0**-53 <= beta ** (terms - 1)


class TestContinuityProbe:
    P3 = Distribution(S3, (0.5, 0.3, 0.2))

    def test_identity_is_isometry(self):
        F = make_kernel("identity", S3, 2).limit
        report = continuity_probe(F, self.P3, radius=0.1)
        assert report.modulus <= 0.1 + 1e-12

    def test_constant_map(self):
        F = make_kernel("map:1,1,1", S3, 2).limit
        report = continuity_probe(F, self.P3, radius=0.5)
        assert report.modulus < 1e-15

    def test_kac_modulus_shrinks_with_radius(self):
        F = make_kernel("kac:1,1", S3, 2).limit
        big = continuity_probe(F, self.P3, radius=0.3)
        small = continuity_probe(F, self.P3, radius=0.05)
        assert small.modulus < big.modulus
        assert big.modulus < 1.0

    def test_counterexample_discontinuous_at_delta0(self):
        F = make_kernel("counterexample", S2, 2).limit
        delta0 = Distribution(S2, (1.0, 0.0))
        report = continuity_probe(F, delta0, radius=0.01)
        assert report.modulus == 1.0

    def test_bad_radius(self):
        F = make_kernel("identity", S2, 2).limit
        with pytest.raises(InvalidArgumentError):
            continuity_probe(F, Distribution(S2, (0.5, 0.5)), 0.0)


class TestBatchedProbe:
    """One evaluation of F on [p, q_1, ..., q_k], q_i = (1 - r) p + r e_i:
    p and its r-contaminations by the point masses."""

    P3 = Distribution(S3, (0.5, 0.3, 0.2))
    CASES = [
        ("identity", P3, 0.1),
        ("map:1,1,1", P3, 0.5),
        ("counterexample", Distribution(S2, (1.0, 0.0)), 0.01),
        ("counterexample", Distribution(S2, (0.9, 0.1)), 0.3),
        ("kac:1,1", P3, 0.1),
        ("identity", Distribution(S1, (1.0,)), 0.1),  # every contamination is p
        ("map:2,0,2", P3, 0.25),
    ]

    @pytest.mark.parametrize("name, p, radius", CASES)
    def test_one_call_on_p_and_its_contaminations(self, name, p, radius):
        F = make_kernel(name, p.space, 2).limit
        stacks = []

        def recording(P):
            stacks.append(P.copy())
            return F(P)

        report = continuity_probe(recording, p, radius)
        base = p.as_array()
        assert len(stacks) == 1
        assert np.array_equal(stacks[0], np.vstack([base, (1 - radius) * base
                                                    + radius * np.eye(p.space.k)]))
        assert np.array_equal(report.image, F(stacks[0]))
        assert np.array_equal(report.image[0], F(base[None])[0])
        assert report.radius == radius

    @pytest.mark.parametrize("name, p, radius",
                             [case for case in CASES if not case[0].startswith(("kac", "counter"))])
    def test_affine_limit_reads_radius_times_the_vertex_distance(self, name, p, radius):
        # tv(F(p), F((1 - r) p + r e_i)) = r tv(F(p), F(e_i)) for an affine F.
        F = make_kernel(name, p.space, 2).limit
        fp, vertices = F(p.as_array()[None])[0], F(np.eye(p.space.k))
        want = radius * max(0.5 * math.fsum(np.abs(row - fp)) for row in vertices)
        assert abs(continuity_probe(F, p, radius).modulus - want) <= 1e-15

    def test_identity_value(self):
        report = continuity_probe(make_kernel("identity", S3, 2).limit, self.P3, 0.1)
        assert report.modulus == pytest.approx(0.08, abs=1e-15)

    @pytest.mark.parametrize("p, modulus", [((1.0, 0.0), 1.0), ((0.9, 0.1), 0.0)])
    def test_counterexample(self, p, modulus):
        F = make_kernel("counterexample", S2, 2).limit
        assert continuity_probe(F, Distribution(S2, p), 0.3).modulus == modulus

    def test_one_integrator_call_for_the_stack(self, monkeypatch):
        shapes = []
        evolve = chaoslab.kernels.kac_limit_evolve

        def counting(p0, *args, **kwargs):
            shapes.append(np.shape(p0))
            return evolve(p0, *args, **kwargs)

        monkeypatch.setattr(chaoslab.kernels, "kac_limit_evolve", counting)
        F = make_kernel("kac:1,1", S3, 2).limit
        continuity_probe(F, self.P3, radius=0.1)
        assert shapes == [(4, 3)]

    def test_theorem_probe_integrates_once(self, monkeypatch, tmp_path):
        calls = []
        evolve = chaoslab.kernels.kac_limit_evolve
        monkeypatch.setattr(chaoslab.kernels, "kac_limit_evolve",
                            lambda *a, **kw: calls.append(1) or evolve(*a, **kw))
        assert main(["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.3,0.2",
                     "--grid", "4,6", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
