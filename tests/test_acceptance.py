"""End-to-end acceptance gate.

One test per release criterion, each at its stated tolerance and runtime
budget, printing a single PASS line on success.  These are intentionally
redundant with the per-module suites: they pin the numbers a release must
reproduce.
"""

import math
import time

import numpy as np
import pytest

from chaoslab import (
    Distribution,
    EnergyModel,
    ParticleState,
    StateSpace,
    SymmetricLaw,
    chaos_verdict,
    entropy_convergence,
    iid_state,
    kac_collision_kernel,
    kac_limit_evolve,
    make_kernel,
    marginal,
    mean_empirical_tv,
    microcanonical,
    pair_gap,
    product_law,
    propagate,
    replica_rngs,
    simulate_kac_stack,
    specific_loglik,
    symmetrized_class_kernel,
    tv_distance,
)
from chaoslab.cli import main, near_product_mixture, quota_occupancy
from chaoslab.diagnostics import microcanonical_limit

from conftest import (
    counterexample_ordered_law,
    dense_kac_matrix,
    dense_marginal_probs,
    dense_specific_loglik,
    law_tv_distance,
    map_ordered_law,
    marginal_law,
    ordered_law_matrix,
    propagate_dense,
    random_symmetric_law,
    symmetrize,
    to_dense,
)

S2 = StateSpace.of_size(2)
S3 = StateSpace.of_size(3)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        law = random_symmetric_law(rng, max_n=6, max_k=3)
        dense = to_dense(law)
        for j in range(1, law.n + 1):
            got = marginal(law, j).ravel() if j <= 2 else to_dense(marginal_law(law, j)).probs
            want = dense_marginal_probs(dense, j)
            assert np.abs(got - want).max() < 1e-12
        assert law_tv_distance(symmetrize(dense), law) < 1e-12
        assert abs(specific_loglik(law) - dense_specific_loglik(dense)) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 1: 100 laws vs dense oracle within 1e-12 ({elapsed:.2f}s)")


def test_criterion_2_product_chaos_exactness():
    start = time.perf_counter()
    p = Distribution(S3, (0.2, 0.3, 0.5))
    worst = 0.0
    for n in (10, 50, 100, 200):
        worst = max(worst, pair_gap(marginal(product_law(p, n), 2), p))
    elapsed = time.perf_counter() - start
    assert worst < 1e-14
    assert elapsed < 5.0
    print(f"PASS criterion 2: product pair_gap <= {worst:.2e} up to n=200 ({elapsed:.2f}s)")


MODEL = EnergyModel(S3, (0.0, 1.0, 2.0), 0.8, 0.2)
GRID = [20, 40, 80, 160]


def test_criterion_3_microcanonical_to_gibbs():
    start = time.perf_counter()
    _, gamma = microcanonical_limit(MODEL)
    gaps = [pair_gap(marginal(microcanonical(MODEL, n), 2), gamma) for n in GRID]
    one_p = Distribution(S3, marginal(microcanonical(MODEL, 160), 1))
    tv1 = tv_distance(one_p, gamma)
    elapsed = time.perf_counter() - start
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0] / 2
    assert tv1 < 0.05
    assert elapsed < 60.0
    print(
        "PASS criterion 3: microcanonical pair_gap "
        + " > ".join(f"{g:.4f}" for g in gaps)
        + f", one-particle TV {tv1:.4f} < 0.05 ({elapsed:.1f}s)"
    )


def test_criterion_4_specific_entropy_limit():
    _, gamma = microcanonical_limit(MODEL)
    rows = entropy_convergence(lambda n: microcanonical(MODEL, n), gamma, GRID)
    devs = [dev for _, _, dev in rows]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.05
    print(
        "PASS criterion 4: entropy deviation "
        + " > ".join(f"{d:.4f}" for d in devs)
        + " with final < 0.05"
    )


def test_criterion_5_weak_vs_strong_propagation():
    delta1 = Distribution(S2, (0.0, 1.0))
    rho_out = Distribution(S2, (0.5, 0.5))
    verdict_grid = [4, 8, 16, 32, 64, 128]
    for p0 in (0.9, 0.7, 0.5, 0.2):
        rho_in = Distribution(S2, (p0, 1.0 - p0))
        report = chaos_verdict(
            lambda n: propagate(product_law(rho_in, n), make_kernel("counterexample", S2, n)),
            delta1,
            verdict_grid,
        )
        assert report.verdict == "chaotic", f"p0={p0}: {report.verdict}"
    for n in range(4, 65):
        out = propagate(near_product_mixture(n), make_kernel("counterexample", S2, n))
        assert abs(pair_gap(marginal(out, 2), rho_out) - 0.5) < 1e-12
    mix_report = chaos_verdict(
        lambda n: propagate(near_product_mixture(n), make_kernel("counterexample", S2, n)),
        rho_out,
        verdict_grid,
    )
    assert mix_report.verdict == "not-chaotic"
    print(
        "PASS criterion 5: product inputs -> chaotic, mixture pair_gap = 0.5 "
        "(+-1e-12) on n in 4..64 -> not-chaotic"
    )


def test_criterion_6_commuting_diagram():
    """The class-level propagate agrees with the ordered kernel on dense laws:
    symmetrize(to_dense(law) stepped by K) == propagate(law, K)."""
    rng = np.random.default_rng(1006)
    checked = 0
    worst = 0.0
    for _ in range(50):
        law = random_symmetric_law(rng, max_n=6, max_k=3)
        space, n = law.space, law.n
        fmap = [space.k - 1 - i for i in range(space.k)]
        specs = [("identity", map_ordered_law(range(space.k))),
                 ("map:" + ",".join(map(str, fmap)), map_ordered_law(fmap))]
        if space.k == 2:
            specs.append(("counterexample", counterexample_ordered_law(n)))
        cases = []
        for name, ordered_law in specs:
            kernel = make_kernel(name, space, n)
            cases.append((kernel, ordered_law_matrix(kernel, ordered_law)))
        cases.append((make_kernel("kac:1,1", space, n), dense_kac_matrix(space.k, n, 1.0, 1.0)))
        for kernel, M in cases:
            want = propagate_dense(law, kernel.target, M)
            worst = max(worst, law_tv_distance(propagate(law, kernel), want))
            checked += 1
    assert worst < 1e-12
    print(f"PASS criterion 6: propagate matches the dense ordered kernel within "
          f"{worst:.1e} over {checked} (law, kernel) pairs")


def test_criterion_7_theorem_condition_probe():
    p = Distribution(S3, (1 / 3, 1 / 3, 1 / 3))
    fp = Distribution(S3, tuple(kac_limit_evolve(p.as_array()[None], 1.0, 1.0)[0]))
    grid = [6, 8, 10, 12]
    gaps = []
    for n in grid:
        kernel = kac_collision_kernel(S3, 1.0, 1.0, n)
        rows = symmetrized_class_kernel(kernel)
        row = rows[quota_occupancy(p, n)]
        row_law = SymmetricLaw(S3, n, list(row), list(row.values()))
        gaps.append(pair_gap(marginal(row_law, 2), fp))
    slope = np.polyfit(np.log(grid), np.log(gaps), 1)[0]
    # quota states cannot split n=8,10 evenly across k=3, which bumps the
    # middle of the sequence; the decrease is a trend, not term-by-term
    assert gaps[-1] < gaps[0]
    assert slope < 0.0
    assert gaps[-1] < 0.1
    print(
        "PASS criterion 7: Kac row gap trend "
        + " -> ".join(f"{g:.4f}" for g in gaps)
        + f" (slope {slope:.2f}), final < 0.1"
    )


def test_criterion_8_mean_field_consistency():
    start = time.perf_counter()
    p0 = Distribution(S3, (0.6, 0.3, 0.1))
    ode = Distribution(S3, tuple(kac_limit_evolve(p0.as_array()[None], 1.0, 1.0)[0]))

    n, replicas, seed = 2000, 200, 77
    rngs = replica_rngs(seed, 0, replicas)
    starts = [iid_state(p0.as_array(), n, rng) for rng in rngs]
    totals = np.zeros(3)
    for counts in simulate_kac_stack(starts, 1.0, 1.0, rngs):
        totals += counts / n
    mc_p = Distribution(S3, tuple(totals / replicas))
    tv = tv_distance(mc_p, ode)
    assert tv < 0.02

    start8 = ParticleState((4, 2, 2))
    kernel = kac_collision_kernel(S3, 1.0, 1.0, 8)
    row = symmetrized_class_kernel(kernel)[start8.counts]
    runs = 100_000
    rngs = replica_rngs(123, 0, runs)
    counts = {}
    for end in map(tuple, simulate_kac_stack([start8.counts] * runs, 1.0, 1.0, rngs).tolist()):
        counts[end] = counts.get(end, 0) + 1
    fails = 0
    for m, prob in row.items():
        got = counts.get(m, 0)
        sigma = math.sqrt(max(runs * prob * (1 - prob), 1e-12))
        if abs(got - runs * prob) > 4 * sigma:
            fails += 1
    elapsed = time.perf_counter() - start
    assert fails == 0
    assert elapsed < 120.0
    print(
        f"PASS criterion 8: MC vs ODE TV {tv:.4f} < 0.02; n=8 exact vs 1e5 runs "
        f"within 4 sigma per class ({elapsed:.1f}s)"
    )


def test_criterion_9_concentration_rate():
    half = Distribution(S2, (0.5, 0.5))
    base = mean_empirical_tv(product_law(half, 4), half)
    assert abs(base - 3 / 16) < 1e-12
    ratios = []
    for n in (25, 100, 400):
        ratio = mean_empirical_tv(product_law(half, n), half) / mean_empirical_tv(
            product_law(half, 4 * n), half
        )
        assert 1.8 < ratio < 2.2
        ratios.append(ratio)
    print(
        "PASS criterion 9: mean TV(4) = 3/16 exactly; n->4n ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + " in [1.8, 2.2]"
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    runs = [
        ("diagnose", ["diagnose", "--family", "microcanonical", "--H", "0,1,2",
                      "--E", "0.8", "--delta", "0.2", "--grid", "20,40,80",
                      "--tol", "0.05"]),
        ("counterexample", ["counterexample"]),
        ("theorem-probe", ["theorem-probe", "--kernel", "kac:1,1",
                           "--p", "0.5,0.3,0.2", "--grid", "6,8,10", "--seed", "9"]),
        # Its Monte Carlo columns past the exact cap, n = 14.
        ("theorem-probe-mc", ["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.3,0.2",
                              "--grid", "6,8,14", "--seed", "9", "--replicas", "50",
                              "--name", "theorem-probe-mc"]),
        ("kac", ["kac", "--p", "0.6,0.3,0.1", "--n", "50", "--replicas", "80",
                 "--seed", "21"]),
        ("microcanonical", ["microcanonical", "--H", "0,1,2", "--E", "0.8",
                            "--delta", "0.2", "--grid", "20,40,80", "--tol", "0.05"]),
    ]
    for name, argv in runs:
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        rc1 = main(argv + ["--out", str(a)])
        rc2 = main(argv + ["--out", str(b)])
        assert rc1 == rc2 == 0, f"{name}: exit codes {rc1}, {rc2}"
        assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes(), name
        assert (
            (a / f"{name}.meta.json").read_bytes() == (b / f"{name}.meta.json").read_bytes()
        ), name
    print("PASS criterion 10: all five CLI subcommands byte-identical across reruns, "
          "theorem-probe with exact and with Monte Carlo columns")
