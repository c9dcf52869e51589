import math

import numpy as np
import pytest

from chaoslab import (
    ParticleState,
    StateSpace,
    SymmetricLaw,
    estimate_pair_marginals,
    iid_state,
    kac_collision_kernel,
    marginal,
    pair_marginal_ustat,
    propagate,
    replica_rng,
    replica_rngs,
    simulate_kac,
    simulate_kac_stack,
)
from chaoslab import montecarlo
from chaoslab.errors import InvalidArgumentError
from chaoslab.meanfield import PairRule, SumConservingRule, default_rule

S2 = StateSpace.of_size(2)
S3 = StateSpace.of_size(3)


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
        # The last pair is finite, but t * lam overflows a float.
        for lam, t in [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
                       (1e308, 1e308)]:
            with pytest.raises(InvalidArgumentError):
                simulate_kac(ParticleState((2, 2)), lam, t, seed=0)

    def test_default_rule_is_compiled_once(self, monkeypatch):
        calls = []
        outcomes = SumConservingRule.outcomes

        def counted(rule, u, w):
            calls.append((u, w))
            return outcomes(rule, u, w)

        monkeypatch.setattr(SumConservingRule, "outcomes", counted)
        default_rule.cache_clear()
        for seed in range(1000):
            simulate_kac(ParticleState((3, 2, 2)), 1.0, 0.5, seed)
        assert 0 < len(calls) <= 3 * 3

    @pytest.mark.parametrize("counts", [(2.7, 1.2), (True, 3), (2.0, "1")])
    def test_counts_are_not_truncated(self, counts):
        with pytest.raises(InvalidArgumentError):
            ParticleState(counts)

    def test_integral_counts_are_ints(self):
        assert ParticleState((np.int64(2), 1.0)).counts == (2, 1)

    def test_absorbed_row_draws_nothing(self):
        # No collision moves (8, 0, 0): its jump rate is 0, so the row stops
        # before its first wait, with no division by that rate.
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        with np.errstate(all="raise"):
            end = simulate_kac_stack([(8, 0, 0), (4, 2, 2)], 1.0, 5.0,
                                     [rng, np.random.default_rng(4)])
        assert end[0].tolist() == [8, 0, 0]
        assert rng.bit_generator.state == ref.bit_generator.state


class FixedDraws(np.random.Generator):
    """A Generator whose (2, JUMP_BLOCK) blocks of draws all read the
    uniform `uniform` for the waits and `pick` for the picks; `wait()` is
    the Exp(1) wait that simulate_kac maps `uniform` to."""

    uniform, pick = 1.0 - math.exp(-1.0), 0.5

    def wait(self):
        return float(-np.log1p(-np.full(montecarlo.JUMP_BLOCK, self.uniform))[0])

    def random(self, size=None, out=None):
        out[0], out[1] = self.uniform, self.pick
        return out


class TestEventBlocks:
    """simulate_kac draws its waits and picks in blocks of JUMP_BLOCK jumps."""

    @pytest.fixture(autouse=True)
    def tiny_blocks(self, monkeypatch):
        import chaoslab.montecarlo as montecarlo

        monkeypatch.setattr(montecarlo, "JUMP_BLOCK", 2)

    def test_conserves_count_and_label_sum(self):
        start = ParticleState((3, 4, 5))
        total = sum(v * c for v, c in enumerate(start.counts))
        for seed in range(20):
            end = simulate_kac(start, 2.0, 1.5, seed=seed)
            assert end.n == start.n
            assert sum(v * c for v, c in enumerate(end.counts)) == total

    def test_seed_reproducibility(self):
        start = ParticleState((10, 5, 5))
        a = simulate_kac(start, 1.0, 2.0, seed=42)
        assert a.counts == simulate_kac(start, 1.0, 2.0, seed=42).counts

    def test_every_jump_draws_in_order(self):
        # Every collision of the stepping rule changes the class, so the
        # chain makes J jumps and draws J + 1 waits, the last one past t:
        # the generator ends where one that drew ceil((J + 1) / JUMP_BLOCK)
        # blocks of 2 JUMP_BLOCK uniforms ends, and the label sum moves by 1
        # mod 16 per jump.
        import chaoslab.montecarlo as montecarlo

        class StepRule(PairRule):
            def outcomes(self, u, w):
                return [(((u + 1) % 16, w), 0.5), ((u, (w + 1) % 16), 0.5)]

        start = ParticleState((6, 3, 3) + (0,) * 13)
        for seed in range(5):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            end = simulate_kac(start, 1.0, 1.0, rng, StepRule())
            jumps = (sum(v * c for v, c in enumerate(end.counts)) - 9) % 16
            for _ in range(math.ceil((jumps + 1) / montecarlo.JUMP_BLOCK)):
                ref.random(2 * montecarlo.JUMP_BLOCK)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert jumps > 2

    def test_pick_on_a_rate_edge_takes_the_next_move(self):
        # At (2, 2, 1) both moves of SumConservingRule(3), (-1, 2, -1) and
        # (1, -2, 1), weigh 4 * (1/3) exactly, so a pick of 1/2 lands on the
        # first running sum: the first move whose sum exceeds it is the
        # second.  A wait of about 1 takes 3/8 of the time, below the
        # horizon 0.45 (t = 4.5 at n = 5), and the next one passes it from
        # either end class.
        start = ParticleState((2, 2, 1))
        rng = FixedDraws(np.random.PCG64(0))
        assert simulate_kac(start, 1.0, 4.5, rng).counts == (3, 0, 2)
        rng.pick = np.nextafter(0.5, 0.0)
        assert simulate_kac(start, 1.0, 4.5, rng).counts == (1, 4, 0)

    def test_wait_on_the_horizon_stops_the_row(self):
        # At (1, 0, 1) the one move weighs q = 2 * (1/3); with lam = 4 and
        # n = 2 the horizon is t itself, so a wait w lands on it at
        # t = w / q: a jump at t is not made, and one just before t is.
        start, rng = ParticleState((1, 0, 1)), FixedDraws(np.random.PCG64(0))
        t = rng.wait() / (2 * (1 / 3))
        assert simulate_kac(start, 4.0, t, rng).counts == (1, 0, 1)
        assert simulate_kac(start, 4.0, np.nextafter(t, 2 * t), rng).counts == (0, 2, 0)

    def test_a_refill_is_one_random_call_per_live_row(self):
        # The absorbed row draws nothing; every other row refills each block
        # with one random call, the Generator ending where one that drew as
        # many blocks of 2 JUMP_BLOCK uniforms ends.
        class Counting(np.random.Generator):
            def random(self, *args, **kwargs):
                self.calls.append(("random", kwargs["out"].shape))
                return super().random(*args, **kwargs)

            def standard_exponential(self, *args, **kwargs):
                self.calls.append(("standard_exponential",))
                return super().standard_exponential(*args, **kwargs)

        starts = [(12, 0, 0), (6, 3, 3), (5, 4, 3), (10, 1, 1), (4, 4, 4)]
        rngs = [Counting(np.random.PCG64(seed)) for seed in range(len(starts))]
        for rng in rngs:
            rng.calls = []
        simulate_kac_stack(starts, 1.0, 6.0, rngs)
        assert rngs[0].calls == []
        for seed, rng in enumerate(rngs[1:], 1):
            assert set(rng.calls) == {("random", (2, montecarlo.JUMP_BLOCK))}
            ref = np.random.Generator(np.random.PCG64(seed))
            for _ in rng.calls:
                ref.random(2 * montecarlo.JUMP_BLOCK)
            assert rng.bit_generator.state == ref.bit_generator.state
        assert max(len(rng.calls) for rng in rngs) > 2

    def test_zero_events(self):
        start = ParticleState((4, 2, 2))
        assert simulate_kac(start, 1.0, 0.0, seed=0).counts == start.counts

    def test_two_particles(self):
        # Labels 0 and 2 sum to 2: each collision leaves (0, 2), (1, 1) or (2, 0).
        seen = set()
        for seed in range(30):
            end = simulate_kac(ParticleState((1, 0, 1)), 1.0, 5.0, seed=seed)
            assert end.n == 2 and end.counts[1] + 2 * end.counts[2] == 2
            seen.add(end.counts)
        assert seen == {(1, 0, 1), (0, 2, 0)}


class TestSimulateKacStack:
    def test_rows_are_lone_runs(self):
        starts = [(4, 2, 2), (0, 8, 0), (3, 3, 2)]
        ends = simulate_kac_stack(starts, 1.0, 2.0, replica_rngs(4, 0, 3))
        assert ends.shape == (3, 3) and ends.dtype == np.int64
        for r, start in enumerate(starts):
            lone = simulate_kac(ParticleState(start), 1.0, 2.0, replica_rng(4, r))
            assert tuple(ends[r].tolist()) == lone.counts

    @pytest.mark.parametrize("block", [2, montecarlo.JUMP_BLOCK])
    @pytest.mark.parametrize("width", [13, 37])
    def test_rows_are_lone_runs_at_any_block_and_width(self, monkeypatch, block, width):
        monkeypatch.setattr(montecarlo, "JUMP_BLOCK", block)
        starts = [rng.multinomial(30, (0.5, 0.3, 0.2)) for rng in replica_rngs(8, 0, width)]
        starts[width // 2] = np.array([30, 0, 0])  # absorbed beside live rows
        rngs = replica_rngs(9, 0, width)
        ends = simulate_kac_stack(starts, 1.0, 1.5, rngs)
        for r, start in enumerate(starts):
            lone = replica_rng(9, r)
            end = simulate_kac(ParticleState(tuple(start)), 1.0, 1.5, lone)
            assert end.counts == tuple(ends[r].tolist())
            assert lone.bit_generator.state == rngs[r].bit_generator.state

    def test_end_counts_are_a_new_row_major_array(self):
        starts = np.asfortranarray([(4, 2, 2), (0, 8, 0), (3, 3, 2)], dtype=np.int64)
        before = starts.copy()
        ends = simulate_kac_stack(starts, 1.0, 2.0, replica_rngs(4, 0, 3))
        assert ends.dtype == np.int64 and ends.flags.c_contiguous
        assert np.array_equal(starts, before) and not np.shares_memory(ends, starts)
        assert np.array_equal(ends, simulate_kac_stack(before, 1.0, 2.0, replica_rngs(4, 0, 3)))

    def test_a_stack_is_its_halves(self):
        starts = np.array([rng.multinomial(40, (0.5, 0.3, 0.2))
                           for rng in replica_rngs(6, 0, 300)])
        whole, halves = replica_rngs(5, 0, 300), replica_rngs(5, 0, 300)
        ends = simulate_kac_stack(starts, 1.0, 1.5, whole)
        parts = [simulate_kac_stack(starts[rows], 1.0, 1.5, halves[rows])
                 for rows in (slice(0, 150), slice(150, 300))]
        assert np.array_equal(ends, np.concatenate(parts))
        assert ([rng.bit_generator.state for rng in whole]
                == [rng.bit_generator.state for rng in halves])

    @pytest.mark.parametrize("starts, rngs", [
        ([(2, 2)], 2),  # one Generator per row
        ([(3, -1)], 1),  # negative count
        ([(2.0, 2.0)], 1),  # not integers
        ([2, 2], 2),  # not a stack
    ])
    def test_bad_stacks(self, starts, rngs):
        with pytest.raises(InvalidArgumentError):
            simulate_kac_stack(starts, 1.0, 1.0, replica_rngs(0, 0, rngs))

    def test_jump_budget(self, monkeypatch):
        # The bundled rule at k = 3 moves the class on at most 2/3 of the
        # collisions, so a row of n = 301 makes at most lam * t * 100
        # jumps in expectation, however many rows the stack has.
        monkeypatch.setattr(montecarlo, "MAX_JUMP_STEPS", 100)
        start = (101, 100, 100)
        simulate_kac_stack([start], 1.0, 1.0, [replica_rng(0, 0)])
        for rows, lam in [(1, 1.01), (montecarlo.KAC_CHUNK, 1.01)]:
            rngs = replica_rngs(0, 0, rows)
            before = [rng.bit_generator.state for rng in rngs]
            with pytest.raises(InvalidArgumentError, match="budget"):
                simulate_kac_stack([start] * rows, lam, 1.0, rngs)
            assert [rng.bit_generator.state for rng in rngs] == before

    def test_iid_state_n_past_max(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(InvalidArgumentError, match="MAX_N"):
            iid_state(p, montecarlo.MAX_N + 1, replica_rng(0, 0))


class TestPairMarginalUstat:
    def test_constant_state(self):
        (mat,) = pair_marginal_ustat([(4, 0)])
        assert mat[0, 0] == 1.0
        assert mat.sum() == pytest.approx(1.0)

    def test_exact_small_case(self):
        # counts (2, 1): P(0,0) = 2*1/6, off-diagonal 2*1/6 each; each row
        # of a stack on its own.
        mats = pair_marginal_ustat([(2, 1), (1, 2), (3, 0)])
        assert mats[0] == pytest.approx(np.array([[2, 2], [2, 0]]) / 6.0)
        assert mats[1] == pytest.approx(np.array([[0, 2], [2, 2]]) / 6.0)
        assert np.array_equal(mats[2], [[1.0, 0.0], [0.0, 0.0]])

    def test_symmetric_and_normalized(self, rng):
        for _ in range(20):
            counts = tuple(int(x) for x in rng.integers(0, 10, size=3))
            if sum(counts) < 2:
                continue
            (mat,) = pair_marginal_ustat([counts])
            assert np.allclose(mat, mat.T)
            assert mat.sum() == pytest.approx(1.0, abs=1e-12)
            assert mat.min() >= 0.0

    def test_needs_two(self):
        with pytest.raises(InvalidArgumentError):
            pair_marginal_ustat([(3, 0), (1, 0)])


class TestEstimatePairMarginal:
    def test_constant_sampler_zero_error(self):
        [res] = estimate_pair_marginals(lambda rngs: np.tile((3, 3), (len(rngs), 1)), 10, seed=0)
        assert np.abs(res.std_error).max() < 1e-16
        assert res.estimate == pytest.approx(pair_marginal_ustat([(3, 3)])[0])

    def test_iid_unbiased(self):
        p = np.array([0.5, 0.3, 0.2])
        [res] = estimate_pair_marginals(
            lambda rngs: [iid_state(p, 100, rng) for rng in rngs], 10_000, seed=7)
        truth = np.outer(p, p)
        z = np.abs(res.estimate - truth) / np.where(res.std_error > 0, res.std_error, 1.0)
        assert z.max() < 4.0

    def test_kac_matches_exact_marginal(self):
        n, lam, t = 6, 1.0, 0.8
        start = ParticleState((3, 2, 1))
        kernel = kac_collision_kernel(S3, lam, t, n)
        exact = marginal(propagate(SymmetricLaw(S3, n, [start.counts], [1.0]), kernel), 2)
        [res] = estimate_pair_marginals(
            lambda rngs: simulate_kac_stack([start.counts] * len(rngs), lam, t, rngs),
            20_000, seed=11,
        )
        z = np.abs(res.estimate - exact) / np.where(res.std_error > 0, res.std_error, 1.0)
        assert z.max() < 4.0

    def test_needs_replicas(self):
        with pytest.raises(InvalidArgumentError):
            estimate_pair_marginals(lambda rngs: [(3, 3)] * len(rngs), 1, seed=0)

    def test_chunked_calls_equal_one_call(self, monkeypatch):
        p = np.array([0.5, 0.3, 0.2])
        sizes = []

        def sampler(rngs):
            sizes.append(len(rngs))
            starts = [iid_state(p, 9, rng) for rng in rngs]
            return simulate_kac_stack(starts, 1.0, 0.7, rngs)

        [one] = estimate_pair_marginals(sampler, 50, seed=4)
        monkeypatch.setattr(montecarlo, "KAC_CHUNK", 7)
        [chunked] = estimate_pair_marginals(sampler, 50, seed=4)
        assert sizes == [50] + [7] * 7 + [1]
        assert one.estimate.tobytes() == chunked.estimate.tobytes()
        assert one.std_error.tobytes() == chunked.std_error.tobytes()


class TestReplicaRng:
    def test_streams_are_stable_and_distinct(self):
        a = replica_rng(99, 0).integers(0, 2**31, size=4)
        a2 = replica_rng(99, 0).integers(0, 2**31, size=4)
        b = replica_rng(99, 1).integers(0, 2**31, size=4)
        assert (a == a2).all()
        assert (a != b).any()

    def test_one_replica_is_its_range(self):
        assert (replica_rng(99, 5).bit_generator.state
                == replica_rngs(99, 3, 7)[2].bit_generator.state)
        assert replica_rngs(99, 4, 4) == []

    @pytest.mark.parametrize("seed, first, error", [
        (-1, 0, InvalidArgumentError), (0, -1, InvalidArgumentError),
        (0.5, 0, TypeError), (None, 0, TypeError)])
    def test_bad_seed_or_replica(self, seed, first, error):
        with pytest.raises(error):
            replica_rngs(seed, first, 2)
