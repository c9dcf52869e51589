import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaoslab.cli
import chaoslab.core
import chaoslab.kernels
import chaoslab.montecarlo
from chaoslab.cli import main, parse_grid, quota_occupancy
from chaoslab.core import Distribution, StateSpace, law_to_json, marginal, product_law
from chaoslab.diagnostics import (
    EnergyModel,
    entropy_convergence,
    microcanonical,
    microcanonical_limit,
    pair_gap,
)
from chaoslab.errors import ConfigError
from chaoslab.kernels import kac_collision_kernel, make_kernel, propagate
from chaoslab.meanfield import wild_plan
from chaoslab.montecarlo import iid_state, replica_counts

from conftest import mixture, point_class

S2 = StateSpace.of_size(2)
S3 = StateSpace.of_size(3)


def read_run(tmp_path, name):
    csv = (tmp_path / f"{name}.csv").read_text()
    meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
    return csv, meta


class TestHelpers:
    def test_parse_grid(self):
        assert parse_grid("4,8,16") == [4, 8, 16]
        with pytest.raises(ConfigError):
            parse_grid("4,4,8")
        with pytest.raises(ConfigError):
            parse_grid("4,x")

    def test_quota_occupancy(self):
        assert quota_occupancy(Distribution(S2, (0.5, 0.5)), 4) == (2, 2)
        assert quota_occupancy(Distribution(S3, (0.5, 0.3, 0.2)), 10) == (5, 3, 2)
        # remainders 0.5/0.1/0.4 with one unit to spread: largest wins
        assert quota_occupancy(Distribution(S3, (0.5, 0.3, 0.2)), 7) == (4, 2, 1)
        assert sum(quota_occupancy(Distribution(S3, (1 / 3, 1 / 3, 1 / 3)), 8)) == 8

    @pytest.mark.parametrize("n", [2**60 + 3, 2**63 - 1])
    def test_quota_occupancy_past_double_precision(self, n):
        # The doubles n * 0.5 drop n's last bits: floors and remainders of
        # them gave a class of n - 1 particles at 2^60 + 3, of n + 2 at 2^63 - 1.
        assert quota_occupancy(Distribution(S2, (0.5, 0.5)), n) == ((n + 1) // 2, n // 2)

    def test_quota_occupancy_ties_below_2_53_as_before(self):
        # The doubles 5 * 0.7 and 5 * 0.3 are 3.5 and 1.5, a tie that the
        # lower index takes; the exact products of the doubles 0.7 and 0.3
        # would give it to state 1.
        assert quota_occupancy(Distribution(S2, (0.7, 0.3)), 5) == (4, 1)
        assert quota_occupancy(Distribution(S2, (1 / 6, 5 / 6)), 3) == (1, 2)


@st.composite
def dyadic_laws(draw):
    """p_i = c_i / 2^j with integer c_i summing to 2^j: doubles that sum to
    1 exactly."""
    k, j = draw(st.integers(2, 5)), draw(st.integers(1, 52))
    cuts = sorted(draw(st.lists(st.integers(0, 2**j), min_size=k - 1, max_size=k - 1)))
    return [(b - a) / 2**j for a, b in zip([0, *cuts], [*cuts, 2**j])]


N_PAST_INT = (st.integers(1, 1000) | st.integers(2**53 - 2**12, 2**53 + 2**12)
              | st.integers(1, 2**63 - 1))


@settings(max_examples=400, deadline=None)
@given(p=dyadic_laws(), n=N_PAST_INT)
@example(p=[0.5, 0.5], n=2**63 - 1)
def test_quota_occupancy_is_within_one_of_each_quota(p, n):
    """For p summing to 1 exactly the class holds n particles, and each
    count is within 1 of n p_i in exact rationals, on both sides of 2^53."""
    m = quota_occupancy(Distribution(StateSpace.of_size(len(p)), p), n)
    assert sum(m) == n
    assert all(abs(mi - n * Fraction(pi)) < 1 for mi, pi in zip(m, p))


@settings(max_examples=200, deadline=None)
@given(w=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5).filter(lambda w: sum(w) > 0.1),
       n=N_PAST_INT)
def test_quota_occupancy_holds_n_particles(w, n):
    """Any p whose doubles sum to 1 within the tolerance gives a class of n
    particles, never a negative count."""
    p = Distribution(StateSpace.of_size(len(w)), tuple(x / math.fsum(w) for x in w))
    m = quota_occupancy(p, n)
    assert sum(m) == n and min(m) >= 0


class TestDiagnose:
    def test_product_family_chaotic(self, tmp_path):
        rc = main([
            "diagnose", "--family", "product", "--p", "0.2,0.3,0.5",
            "--grid", "4,8,16", "--out", str(tmp_path), "--expect", "chaotic",
        ])
        assert rc == 0
        csv, meta = read_run(tmp_path, "diagnose")
        lines = csv.strip().split("\n")
        assert lines[0] == "n,pair_gap,concentration_gap,specific_loglik"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) < 1e-13
        assert meta["verdict"] == "chaotic"

    @pytest.mark.parametrize("grid, slope", [
        ([10, 100, 4 * 10**9, 5 * 10**9], 0.0),
        # From about n = 10**15 log n and log(n + 1) are one double.
        ([10**18, 10**18 + 1, 10**18 + 2], None),
    ], ids=["past-int64-draws", "equal-logs"])
    def test_mixture_pair_gap_at_large_n(self, tmp_path, grid, slope):
        """The pair gap of the two point classes is 1/2 at every n, also
        where n(n - 1) passes 2**63, and a grid whose log n are equal
        doubles has no slope."""
        rc = main(["diagnose", "--family", "mixture", "--grid", ",".join(map(str, grid)),
                   "--out", str(tmp_path)])
        assert rc == 0
        csv, meta = read_run(tmp_path, "diagnose")
        assert [line.split(",")[1] for line in csv.strip().split("\n")[1:]] == ["0.5"] * len(grid)
        assert meta["slope"] == slope

    def test_slope_fit_drops_every_product_gap(self, tmp_path):
        """A product law's pair gap is rounding error at every n, so the
        slope fit keeps none of them and the meta says so."""
        grid = [10, 20, 40, 80, 160, 240]
        rc = main(["diagnose", "--family", "product", "--p", "0.2,0.3,0.5",
                   "--grid", ",".join(map(str, grid)), "--out", str(tmp_path)])
        assert rc == 0
        _, meta = read_run(tmp_path, "diagnose")
        assert (meta["slope_dropped"], meta["slope"], meta["verdict"]) == (grid, None, "chaotic")

    def test_product_family_at_large_n(self, tmp_path):
        # n = 1000 is 501,501 classes: the pair gap and the specific
        # log-likelihood are pinned by their closed forms, 0 and sum p log p.
        p = (0.2, 0.3, 0.5)
        rc = main(["diagnose", "--family", "product", "--p", "0.2,0.3,0.5",
                   "--grid", "250,500,1000", "--out", str(tmp_path)])
        assert rc == 0
        csv, meta = read_run(tmp_path, "diagnose")
        want = math.fsum(x * math.log(x) for x in p)
        rows = [line.split(",") for line in csv.strip().split("\n")[1:]]
        assert [int(row[0]) for row in rows] == [250, 500, 1000]
        for row in rows:
            assert float(row[1]) < 1e-14
            assert abs(float(row[3]) - want) < 1e-12
        assert meta["verdict"] == "chaotic"

    def test_mixture_expectation_mismatch(self, tmp_path):
        rc = main([
            "diagnose", "--family", "mixture", "--grid", "4,8,16",
            "--out", str(tmp_path), "--expect", "chaotic",
        ])
        assert rc == 3
        _, meta = read_run(tmp_path, "diagnose")
        assert meta["verdict"] == "not-chaotic"

    def test_microcanonical_family(self, tmp_path):
        rc = main([
            "diagnose", "--family", "microcanonical", "--H", "0,1,2",
            "--E", "0.8", "--delta", "0.2", "--grid", "20,40,80",
            "--tol", "0.05", "--out", str(tmp_path), "--expect", "chaotic",
        ])
        assert rc == 0

    def test_unknown_family(self, tmp_path):
        rc = main(["diagnose", "--family", "custom", "--p", "0.5,0.5",
                   "--grid", "4,8,16", "--out", str(tmp_path)])
        assert rc == 2  # custom family without law-dir

    def test_missing_required(self, tmp_path):
        assert main(["diagnose", "--grid", "4,8,16", "--out", str(tmp_path)]) == 2

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "family": "product", "p": "0.3,0.7", "grid": "4,8,16",
            "name": "fromfile",
        }))
        rc = main(["diagnose", "--config", str(cfg), "--out", str(tmp_path),
                   "--name", "cliwins"])
        assert rc == 0
        assert (tmp_path / "cliwins.csv").exists()
        assert not (tmp_path / "fromfile.csv").exists()

    def test_non_finite_probability_is_config_error(self, tmp_path):
        rc = main(["diagnose", "--family", "product", "--p", "nan,1",
                   "--grid", "4,8", "--out", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "diagnose.meta.json").exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": "mixture", "grid": "4,8,16",
                                   "frobnicate": 1}))
        assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["diagnose", "--family", "microcanonical", "--H", "0,1,2",
                "--E", "0.8", "--delta", "0.2", "--grid", "20,40,80",
                "--tol", "0.05"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "diagnose.csv").read_bytes() == (b / "diagnose.csv").read_bytes()
        assert (a / "diagnose.meta.json").read_bytes() == (b / "diagnose.meta.json").read_bytes()


class TestCounterexample:
    def test_default_run(self, tmp_path):
        rc = main(["counterexample", "--out", str(tmp_path)])
        assert rc == 0
        csv, meta = read_run(tmp_path, "counterexample")
        lines = csv.strip().split("\n")
        assert lines[0] == "n,product_pair_gap,mixture_pair_gap"
        assert meta["product_verdict"] == "chaotic"
        assert meta["mixture_verdict"] == "not-chaotic"
        prod_gaps, mix_gaps = [], []
        for line in lines[1:]:
            _, prod_gap, mix_gap = line.split(",")
            prod_gaps.append(float(prod_gap))
            mix_gaps.append(float(mix_gap))
        # product branch decays geometrically (~0.9^n); mixture is pinned
        assert all(b < a for a, b in zip(prod_gaps, prod_gaps[1:]))
        assert prod_gaps[-1] < 1e-3
        assert mix_gaps == [pytest.approx(0.5, abs=1e-12)] * len(mix_gaps)

    def test_small_grid_rejected(self, tmp_path):
        assert main(["counterexample", "--grid", "1,2,4",
                     "--out", str(tmp_path)]) == 2


class TestTheoremProbe:
    def test_probe_stack_past_the_ode_budget_is_a_config_error(self, tmp_path, capsys):
        # The continuity probe evolves a (k + 1)-row stack: past either
        # budget that would take minutes, so it is refused before any row is evolved.
        for kernel, p, budget in [
            # 4 rows at lam*t = 2e4: 40,000 slices, past MAX_SLICES.
            ("kac:2e4,1", "0.5,0.3,0.2", "slices of Wild's series, past the budget of 20000"),
            # 7 rows at lam*t = 1e4: 20,000 slices each, past MAX_SLICE_ROWS.
            ("kac:1e4,1", "0.2,0.2,0.2,0.2,0.1,0.1",
             "for each of 7 laws, past the budget of 120000"),
        ]:
            start = time.perf_counter()
            rc = main(["theorem-probe", "--kernel", kernel, "--p", p,
                       "--grid", "4,6,8", "--out", str(tmp_path)])
            assert time.perf_counter() - start < 1.0
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: lam*t = ") and budget in err
            assert err.count("\n") == 1
            assert list(tmp_path.iterdir()) == []

    def test_exact_run_reads_no_seed(self, tmp_path):
        # Every column is exact and the continuity probe draws nothing, so
        # the seed, given or not, changes no byte.
        argv = ["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.3,0.2",
                "--grid", "6,8,10,12"]
        files = []
        for seed in (["--seed", "1"], ["--seed", "2"], []):
            out = tmp_path / f"seed{''.join(seed)}"
            assert main(argv + seed + ["--out", str(out)]) == 0
            meta = json.loads((out / "theorem-probe.meta.json").read_text())
            meta["config"].pop("seed", None)
            files.append(((out / "theorem-probe.csv").read_bytes(), meta))
        assert files[0] == files[1] == files[2]

    def test_map_kernel_continuous(self, tmp_path):
        rc = main(["theorem-probe", "--kernel", "map:1,0", "--p", "0.6,0.4",
                   "--grid", "4,8,16", "--out", str(tmp_path)])
        assert rc == 0
        csv, meta = read_run(tmp_path, "theorem-probe")
        assert csv.splitlines()[0] == "n,row_gap,product_gap,damped_gap"
        assert meta["discontinuity_flag"] is False
        assert meta["limit"] == [0.4, 0.6]
        # deterministic relabeling: the row gap is the quota class's own
        # hypergeometric-vs-product gap, which decays like 1/n
        rows = [line.split(",") for line in csv.strip().split("\n")[1:]]
        row_gaps = [float(r[1]) for r in rows]
        assert row_gaps[-1] < row_gaps[0]
        assert meta["final_row_gap"] < 0.05

    def test_kac_kernel_rows_approach_limit(self, tmp_path):
        rc = main(["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.3,0.2",
                   "--grid", "6,8,10,12", "--out", str(tmp_path),
                   "--name", "kacprobe"])
        assert rc == 0
        csv, meta = read_run(tmp_path, "kacprobe")
        rows = [line.split(",") for line in csv.strip().split("\n")[1:]]
        row_gaps = [float(r[1]) for r in rows]
        assert row_gaps[-1] < row_gaps[0]
        assert meta["discontinuity_flag"] is False

    def test_meta_names_the_backend_of_each_n(self, tmp_path):
        rc = main(["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.3,0.2",
                   "--grid", "6,8,16", "--seed", "1", "--replicas", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, meta = read_run(tmp_path, "theorem-probe")
        sampled = meta["backend"].pop()
        assert meta["backend"] == [{"n": 6, "kind": "exact", "classes": 28},
                                   {"n": 8, "kind": "exact", "classes": 45}]
        std_error = sampled.pop("std_error")
        resolved = sampled.pop("resolved")
        assert sampled == {"n": 16, "kind": "monte-carlo", "classes": 153, "replicas": 2}
        # The largest standard error of each column's pair marginal: row, product, damped.
        assert len(std_error) == 3 and all(0.0 <= se < 1.0 for se in std_error)
        assert len(resolved) == 3 and all(isinstance(r, bool) for r in resolved)

    @pytest.mark.parametrize("kernel, p", [
        ("kac:1,1", "0.5,0.3,0.2"), ("kac:1,1", "0.4,0.3,0.2,0.1"), ("kac:1,1", "0.6,0.4,0"),
        ("identity", "0.5,0.3,0.2"), ("map:1,1,0", "0.5,0.3,0.2"), ("counterexample", "1,0"),
    ], ids=["kac-k3", "kac-k4", "kac-zero-entry", "identity", "map", "counterexample"])
    def test_pushed_gaps_are_the_propagated_laws_gaps(self, tmp_path, kernel, p):
        # The three columns pushed through the class rows at once give,
        # bit for bit, the gaps of the column laws built as laws and
        # propagated one at a time: the quota point class, the product law,
        # and its mixture with the reversed quota class.  k = 4 at n = 12
        # has 455 classes, past one fsum block of the pair marginal.
        grid = [2, 5, 8, 12]
        rc = main(["theorem-probe", "--kernel", kernel, "--p", p,
                   "--grid", ",".join(map(str, grid)), "--out", str(tmp_path)])
        assert rc == 0
        csv, meta = read_run(tmp_path, "theorem-probe")
        rho = Distribution(StateSpace.of_size(p.count(",") + 1), tuple(map(float, p.split(","))))
        flipped = Distribution(rho.space, tuple(reversed(rho.p)))
        for n, line in zip(grid, csv.splitlines()[1:], strict=True):
            kernel_n = make_kernel(kernel, rho.space, n)
            fp = Distribution(kernel_n.target, tuple(meta["limit"]))
            product = product_law(rho, n)
            other = point_class(rho.space, quota_occupancy(flipped, n))
            laws = [point_class(rho.space, quota_occupancy(rho, n)), product,
                    mixture([(product, 1.0 - 1.0 / n), (other, 1.0 / n)])]
            want = [pair_gap(marginal(propagate(law, kernel_n), 2), fp) for law in laws]
            assert [float(x) for x in line.split(",")] == [n, *want]

    def test_bench_argv_columns_are_unresolved(self, tmp_path):
        # 25 runs per column at n = 16: every gap is within twice its
        # column's summed standard errors (product: 0.035 against 0.18).
        rc = main(["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.3,0.2",
                   "--replicas", "25", "--grid", "6,8,10,12,16", "--seed", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        csv, meta = read_run(tmp_path, "theorem-probe")
        assert [entry.get("resolved") for entry in meta["backend"]] == [None] * 4 + [[False] * 3]
        assert csv.splitlines()[-1].startswith("16,0.0286")

    def test_columns_in_one_stack_equal_three_runs(self, tmp_path, monkeypatch):
        # 7 replicas a column at n = 14, in stacks of at most 10 rows: 3
        # replicas of each of the 3 columns, or 7 of one column run apart.
        # The files are those of one run per column.
        monkeypatch.setattr(chaoslab.montecarlo, "KAC_CHUNK", 10)
        widths, stack = [], chaoslab.kernels.simulate_kac_stack

        def counted(starts, *args):
            widths.append(len(starts))
            return stack(starts, *args)

        monkeypatch.setattr(chaoslab.kernels, "simulate_kac_stack", counted)
        argv = ["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.3,0.2", "--grid", "8,14",
                "--replicas", "7", "--seed", "3", "--out"]
        assert main(argv + [str(tmp_path / "stacked")]) == 0
        assert widths == [9, 9, 3]
        marginals = chaoslab.cli.monte_carlo_pair_marginals
        monkeypatch.setattr(chaoslab.cli, "monte_carlo_pair_marginals",
                            lambda laws, *args: [marginals(law[None], *args)[0] for law in laws])
        assert main(argv + [str(tmp_path / "apart")]) == 0
        assert widths[3:] == [7, 7, 7]
        for name in ("theorem-probe.csv", "theorem-probe.meta.json"):
            assert ((tmp_path / "stacked" / name).read_bytes()
                    == (tmp_path / "apart" / name).read_bytes())

    def test_many_replicas_resolve_the_chaotic_gaps(self, tmp_path):
        # 4,000 runs at n = 13: the row gap (0.060) and the damped gap
        # (0.032) clear twice their summed standard errors (0.0094, 0.019);
        # the product gap (0.0042, against 0.018) stays within its noise.
        rc = main(["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.3,0.2",
                   "--replicas", "4000", "--grid", "13", "--seed", "0", "--out", str(tmp_path)])
        assert rc == 0
        _, meta = read_run(tmp_path, "theorem-probe")
        assert meta["backend"][0]["resolved"] == [True, False, True]

    def test_counterexample_discontinuity_flag(self, tmp_path):
        rc = main(["theorem-probe", "--kernel", "counterexample", "--p", "1,0",
                   "--grid", "4,8,16", "--out", str(tmp_path)])
        assert rc == 0
        _, meta = read_run(tmp_path, "theorem-probe")
        assert meta["discontinuity_flag"] is True

    @pytest.mark.parametrize("spec", ["kac:1", "kac:x,1", "kac:1,1,1", "kac:1,nan",
                                      "map:a,b", "map:-1,0", "pushforward:1,0", "bogus"])
    def test_malformed_kernel_is_config_error(self, tmp_path, capsys, spec):
        rc = main(["theorem-probe", "--kernel", spec, "--p", "0.5,0.5",
                   "--grid", "4,8", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error")

    def test_sampled_rows_need_replicas(self, tmp_path):
        rc = main(["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.5",
                   "--grid", "14", "--seed", "1", "--replicas", "0",
                   "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("replicas", ["0", "3"])
    def test_replicas_without_seed_is_config_error(self, tmp_path, capsys, replicas):
        # Only the Monte Carlo rows read --replicas, and they need --seed.
        rc = main(["theorem-probe", "--kernel", "identity", "--p", "0.5,0.5",
                   "--grid", "4", "--replicas", replicas, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "theorem-probe.csv").exists()

    @pytest.mark.parametrize("doc", [
        {"kernel": "identity", "p": "0.5,0.5", "grid": "4", "replicas": 3},
        {"kernel": "identity", "p": "0.5,0.5", "grid": "4", "replicas": 0, "seed": 1},
    ])
    def test_replicas_config_key_is_checked(self, tmp_path, doc):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert main(["theorem-probe", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("options", [
        ["--kernel", "identity", "--p", "0.5,0.5", "--grid", "4"],
        ["--kernel", "kac:1,1", "--p", "0.5,0.3,0.2", "--grid", "6,8"],
    ])
    def test_replicas_without_sampled_rows_is_config_error(self, tmp_path, capsys, options):
        # Every n of these grids has exact rows, which never read --replicas.
        rc = main(["theorem-probe", *options, "--seed", "1", "--replicas", "7",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error")
        assert list(tmp_path.iterdir()) == []

    def test_replicas_check_builds_no_matrix(self, tmp_path, monkeypatch, capsys):
        import chaoslab.kernels as kernels

        calls = []
        build = kernels._shell_stacks
        monkeypatch.setattr(kernels, "_shell_stacks", lambda *a: calls.append(a) or build(*a))
        rc = main(["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.3,0.2",
                   "--grid", "6,8", "--seed", "1", "--replicas", "7", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: replicas")
        assert calls == []

    def test_one_replica_with_a_sampled_n_builds_no_matrix(self, tmp_path, monkeypatch,
                                                           capsys):
        # A pair marginal's standard error needs two replicas; the exact n
        # before the sampled one must not run first.
        import chaoslab.kernels as kernels

        calls = []
        build = kernels._shell_stacks
        monkeypatch.setattr(kernels, "_shell_stacks", lambda *a: calls.append(a) or build(*a))
        rc = main(["theorem-probe", "--kernel", "kac:1,0.25", "--p", "0.5,0.3,0.2",
                   "--grid", "6,8,13", "--seed", "1", "--replicas", "1",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: replicas")
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_simulates_three_systems_per_replica(self, tmp_path, monkeypatch):
        # One run per replica for each of the three columns, not one per
        # source class and replica.
        import chaoslab.kernels as kernels

        runs = []
        simulate = kernels.simulate_kac_stack
        monkeypatch.setattr(kernels, "simulate_kac_stack",
                            lambda starts, *a: runs.append(len(starts)) or simulate(starts, *a))
        rc = main(["theorem-probe", "--kernel", "kac:1,0.25", "--p", "0.5,0.3,0.2",
                   "--grid", "6,13", "--seed", "1", "--replicas", "7",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert sum(runs) == 3 * 7

    def test_replicas_config_key_without_sampled_rows(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kernel": "kac:1,1", "p": "0.5,0.3,0.2",
                                   "grid": "6,8", "seed": 1, "replicas": 7}))
        out = tmp_path / "out"
        assert main(["theorem-probe", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_replicas_with_a_sampled_n(self, tmp_path):
        rc = main(["theorem-probe", "--kernel", "kac:1,0.25", "--p", "0.5,0.3,0.2",
                   "--grid", "4,6,13", "--seed", "1", "--replicas", "2",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_capacity_exit_code(self, tmp_path):
        # exact Kac rows stop at n = 12 and no seed means no MC fallback
        rc = main(["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.5",
                   "--grid", "14", "--out", str(tmp_path)])
        assert rc == 4

    def test_missing_seed_exits_before_any_work(self, tmp_path, monkeypatch, capsys):
        import chaoslab.kernels as kernels

        matrices, probes = [], []
        build, probe = kernels._shell_stacks, chaoslab.cli.continuity_probe
        monkeypatch.setattr(kernels, "_shell_stacks", lambda *a: matrices.append(a) or build(*a))
        monkeypatch.setattr(chaoslab.cli, "continuity_probe",
                            lambda *a, **kw: probes.append(a) or probe(*a, **kw))
        rc = main(["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.3,0.2",
                   "--grid", "6,8,10,12,14", "--out", str(tmp_path)])
        assert rc == 4
        assert capsys.readouterr().err == (
            "capacity error: kernel 'kac:1,1' has no exact class matrix at n=14; "
            "its Monte Carlo estimate needs a seed\n")
        assert matrices == [] and probes == []
        assert list(tmp_path.iterdir()) == []


class TestKacCommand:
    def test_three_methods_agree(self, tmp_path):
        rc = main(["kac", "--p", "0.6,0.3,0.1", "--n", "8", "--replicas", "400",
                   "--lam", "1", "--t", "1", "--seed", "17",
                   "--out", str(tmp_path)])
        assert rc == 0
        csv, meta = read_run(tmp_path, "kac")
        lines = csv.strip().split("\n")
        assert lines[0] == "method,tv_to_ode,p0,p1,p2"
        methods = {line.split(",")[0]: line for line in lines[1:]}
        assert set(methods) == {"ode", "exact", "mc"}
        assert float(methods["exact"].split(",")[1]) < 0.05
        assert float(methods["mc"].split(",")[1]) < 0.05
        assert len(meta["ode"]) == 3

    def test_mc_row_is_the_replica_mean_summed_row_by_row(self, tmp_path, monkeypatch):
        # Chunks of 64 replicas: the fold runs on across chunk boundaries.
        monkeypatch.setattr(chaoslab.montecarlo, "KAC_CHUNK", 64)
        n, replicas, seed = 40, 300, 5
        rc = main(["kac", "--p", "0.6,0.3,0.1", "--n", str(n), "--replicas", str(replicas),
                   "--seed", str(seed), "--out", str(tmp_path)])
        assert rc == 0
        csv, _ = read_run(tmp_path, "kac")
        mc = next(line for line in csv.splitlines() if line.startswith("mc,"))
        p0 = np.array([0.6, 0.3, 0.1])
        kernel = kac_collision_kernel(S3, 1.0, 1.0, n)
        totals = np.zeros(3)
        for chunk in replica_counts(
                lambda rngs: kernel.sampler([iid_state(p0, n, rng) for rng in rngs], rngs),
                replicas, seed):
            for counts in chunk:
                totals += counts / n
        want = Distribution(S3, tuple(totals / replicas))
        assert tuple(map(float, mc.split(",")[2:])) == want.p

    def test_meta_records_the_ode_plan(self, tmp_path):
        rc = main(["kac", "--p", "0.6,0.3,0.1", "--n", "8", "--replicas", "2",
                   "--lam", "2", "--t", "3", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        _, meta = read_run(tmp_path, "kac")
        assert meta["ode_plan"] == wild_plan(2.0, 3.0)._asdict()
        assert meta["ode_plan"]["slices"] == 12

    # Each squaring of the exact rows used to double their row-mass error:
    # at t = 2000 the rows summed to 1 +- 5e-12 and the run exited 2 with
    # "class masses do not sum to 1".
    def test_long_horizon_exact_row(self, tmp_path):
        rc = main(["kac", "--p", "0.2,0.6,0.2", "--n", "12", "--t", "2000", "--seed", "1",
                   "--replicas", "2", "--out", str(tmp_path)])
        assert rc == 0
        csv, _ = read_run(tmp_path, "kac")
        exact = next(line for line in csv.split("\n") if line.startswith("exact,"))
        assert abs(math.fsum(map(float, exact.split(",")[2:])) - 1.0) <= 1e-13

    def test_seed_required(self, tmp_path):
        assert main(["kac", "--p", "0.5,0.5", "--n", "8",
                     "--out", str(tmp_path)]) == 2

    def test_seed_read_before_any_work(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(chaoslab.kernels, "kac_limit_evolve",
                            lambda *a, **kw: calls.append(1))
        rc = main(["kac", "--p", "0.6,0.3,0.1", "--n", "12", "--out", str(tmp_path)])
        assert rc == 2
        assert "missing required option 'seed'" in capsys.readouterr().err
        assert calls == []

    def test_one_replica_runs(self, tmp_path):
        # Only theorem-probe's pair marginals need two replicas.
        rc = main(["kac", "--p", "0.6,0.3,0.1", "--n", "8", "--replicas", "1",
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0

    def test_exact_row_only_with_class_matrix(self, tmp_path):
        rc = main(["kac", "--p", "0.6,0.3,0.1", "--n", "13", "--replicas", "4",
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        csv, _ = read_run(tmp_path, "kac")
        assert [line.split(",")[0] for line in csv.splitlines()[1:]] == ["ode", "mc"]

    @pytest.mark.parametrize("option", [["--t", "nan"], ["--t", "inf"], ["--lam", "nan"],
                                        ["--replicas", "0"]])
    def test_bad_inputs_are_config_errors(self, tmp_path, capsys, option):
        rc = main(["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1",
                   "--out", str(tmp_path)] + option)
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error")

    @pytest.mark.parametrize("option", [
        ["--n", "20", "--lam", "1e308", "--t", "1e308"],  # lam * t overflows a float
        ["--n", "100000000000000000000", "--replicas", "2"],  # n past montecarlo.MAX_N
    ], ids=["rk4-steps", "n"])
    def test_overflow_is_a_config_error(self, tmp_path, capsys, option):
        out = tmp_path / "out"
        rc = main(["kac", "--p", "0.6,0.3,0.1", "--seed", "1", "--out", str(out)] + option)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert not out.exists()

    def test_sampler_past_its_jump_budget_is_a_config_error(self, tmp_path, capsys):
        # A row of 10^8 particles makes millions of jumps by t = 1: refused
        # before any draw.
        start = time.perf_counter()
        rc = main(["kac", "--p", "0.6,0.3,0.1", "--n", "100000000", "--replicas", "2",
                   "--seed", "1", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: n = 100000000") and "budget" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_limit_ode_past_its_budget_is_a_config_error(self, tmp_path, capsys):
        # lam*t = 1e5 is more slices of Wild's series than the evolve's budget.
        rc = main(["kac", "--p", "0.6,0.3,0.1", "--n", "8", "--lam", "100000",
                   "--t", "1", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: lam*t = 100000") and "budget" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_replica_chunks_do_not_change_output(self, tmp_path, monkeypatch):
        argv = ["kac", "--p", "0.5,0.3,0.2", "--n", "600", "--replicas", "7", "--seed", "2"]
        assert main(argv + ["--out", str(tmp_path / "one")]) == 0
        monkeypatch.setattr(chaoslab.montecarlo, "KAC_CHUNK", 3)
        assert main(argv + ["--out", str(tmp_path / "three")]) == 0
        assert ((tmp_path / "one" / "kac.csv").read_bytes()
                == (tmp_path / "three" / "kac.csv").read_bytes())

    def test_seeded_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["kac", "--p", "0.5,0.5", "--n", "50", "--replicas", "60",
                "--seed", "5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "kac.csv").read_bytes() == (b / "kac.csv").read_bytes()


class TestMicrocanonicalCommand:
    def test_run(self, tmp_path):
        rc = main(["microcanonical", "--H", "0,1,2", "--E", "0.8",
                   "--delta", "0.2", "--grid", "20,40,80", "--tol", "0.05",
                   "--out", str(tmp_path), "--expect", "chaotic"])
        assert rc == 0
        csv, meta = read_run(tmp_path, "microcanonical")
        lines = csv.strip().split("\n")
        assert lines[0] == "n,pair_gap,concentration_gap,specific_loglik,entropy_dev"
        gaps = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert meta["verdict"] == "chaotic"
        # entropy maximizes at the upper edge 0.9, below the uniform mean 1.0
        assert meta["beta"] > 0.0

    def test_slope_fit_keeps_every_gap(self, tmp_path):
        rc = main(["microcanonical", "--H", "0,1,2", "--E", "0.8", "--delta", "0.2",
                   "--tol", "0.05", "--grid", "30,60,120,240,360", "--out", str(tmp_path)])
        assert rc == 0
        _, meta = read_run(tmp_path, "microcanonical")
        assert meta["slope_dropped"] == []
        assert meta["slope"] < -0.2

    def test_entropy_dev_from_the_report_rows(self, tmp_path):
        rc = main(["microcanonical", "--H", "0,1,2", "--E", "0.8", "--delta", "0.2",
                   "--grid", "20,40,80,160", "--out", str(tmp_path)])
        assert rc == 0
        csv, _ = read_run(tmp_path, "microcanonical")
        devs = [line.split(",")[4] for line in csv.strip().split("\n")[1:]]
        model = EnergyModel(S3, (0.0, 1.0, 2.0), 0.8, 0.2)
        _, gamma = microcanonical_limit(model)
        rows = entropy_convergence(lambda n: microcanonical(model, n), gamma, [20, 40, 80, 160])
        assert devs == ["%.17g" % dev for _, _, dev in rows]
        devs = [float(d) for d in devs]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.05

    def test_large_n(self, tmp_path):
        """Only the window's classes are built, so n = 2,000 runs in a
        fraction of a second and its gaps keep shrinking."""
        rc = main(["microcanonical", "--H", "0,1,2", "--E", "0.8", "--delta", "0.2",
                   "--tol", "0.05", "--grid", "500,1000,2000", "--out", str(tmp_path)])
        assert rc == 0
        csv, meta = read_run(tmp_path, "microcanonical")
        rows = [[float(x) for x in line.split(",")] for line in csv.strip().split("\n")[1:]]
        assert [row[0] for row in rows] == [500, 1000, 2000]
        for column in (1, 4):  # pair_gap, entropy_dev
            assert all(b[column] < a[column] for a, b in zip(rows, rows[1:]))
        assert meta["verdict"] == "chaotic"

    def test_builds_each_law_once(self, tmp_path, monkeypatch):
        built = []
        original = chaoslab.cli.microcanonical
        monkeypatch.setattr(chaoslab.cli, "microcanonical",
                            lambda model, n: built.append(n) or original(model, n))
        rc = main(["microcanonical", "--H", "0,1,2", "--E", "0.8", "--delta", "0.2",
                   "--grid", "20,40,80", "--tol", "0.05", "--out", str(tmp_path)])
        assert rc == 0
        assert built == [20, 40, 80]

    def test_empty_window_is_config_error(self, tmp_path):
        rc = main(["microcanonical", "--H", "0,1", "--E", "-3", "--delta", "0.1",
                   "--grid", "4,8,16", "--out", str(tmp_path)])
        assert rc == 2


@pytest.mark.parametrize("argv", [
    ["diagnose", "--family", "product", "--p", "0.2,0.3,0.5"],
    ["microcanonical", "--H", "0,1,2", "--E", "0.8", "--delta", "0.2", "--tol", "0.05"],
], ids=["product", "microcanonical"])
def test_class_sizes_once_per_law(tmp_path, monkeypatch, argv):
    # The builder seeds the law's sizes; specific_loglik reads them.
    sized, original = [], chaoslab.core._class_sizes
    monkeypatch.setattr(chaoslab.core, "_class_sizes",
                        lambda occ, n: sized.append(n) or original(occ, n))
    assert main(argv + ["--grid", "20,40,80", "--out", str(tmp_path)]) == 0
    assert sized == [20, 40, 80]


class TestFamilyErrors:
    def test_empty_microcanonical_family_is_config_error(self, tmp_path, capsys):
        rc = main(["diagnose", "--family", "microcanonical", "--H", "0,1,2", "--E", "0.05",
                   "--delta", "0.01", "--grid", "3,4,5", "--out", str(tmp_path)])
        assert rc == 2
        assert "n=3" in capsys.readouterr().err

    def test_missing_custom_law_file_is_config_error(self, tmp_path, capsys):
        rc = main(["diagnose", "--family", "custom", "--p", "0.5,0.5",
                   "--law-dir", str(tmp_path / "absent"), "--grid", "3,4,5",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "n=3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--family", "mixture", "--grid", "1,2,3"],
        ["diagnose", "--family", "product", "--p", "1", "--grid", "1,2,3"],
        ["theorem-probe", "--kernel", "map:1,0", "--p", "0.5,0.5", "--grid", "1,2,3"],
    ], ids=["mixture", "product", "theorem-probe"])
    def test_one_particle_grid_names_the_pair_marginal(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: the 2-particle marginal needs n >= 2, got n=1\n")

    def test_gibbs_fit_miss_is_config_error(self, tmp_path, monkeypatch):
        import chaoslab.diagnostics as diagnostics

        true_mean = diagnostics._gibbs_mean_energy
        monkeypatch.setattr(diagnostics, "_gibbs_mean_energy",
                            lambda H, beta: true_mean(H, beta) + 0.01)
        rc = main(["microcanonical", "--H", "0,1,2", "--E", "0.8", "--delta", "0.2",
                   "--grid", "4,8,16", "--out", str(tmp_path)])
        assert rc == 2


class TestNumericOptions:
    """Seeds and numeric config values are checked once, in load_config."""

    @pytest.mark.parametrize("argv", [
        ["kac", "--p", "0.5,0.5", "--n", "10", "--seed", "-1", "--replicas", "2"],
        ["theorem-probe", "--kernel", "identity", "--p", "0.5,0.5", "--grid", "4,8",
         "--seed", "-2"],
    ])
    def test_negative_seed(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: seed must be >= 0")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, options, doc", [
        ("kac", ["--p", "0.5,0.5", "--n", "10"], {"seed": 1.5}),
        ("kac", ["--p", "0.5,0.5", "--seed", "1"], {"n": "ten"}),
        ("theorem-probe", ["--kernel", "kac:1,1", "--p", "0.5,0.5", "--grid", "14",
                           "--seed", "1"], {"replicas": "abc"}),
        ("diagnose", ["--family", "product", "--p", "0.5,0.5", "--grid", "4,8,16"],
         {"tol": "abc"}),
    ])
    def test_config_value_of_the_wrong_type(self, tmp_path, capsys, command, options, doc):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, *options, "--config", str(cfg), "--out", str(out)]) == 2
        key = next(iter(doc))
        assert capsys.readouterr().err.startswith(f"config error: {key} must be")
        assert not out.exists()

    def test_integral_config_values_run_as_given(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": "0.5,0.5", "n": "10", "seed": 3.0, "replicas": 2}))
        assert main(["kac", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, meta = read_run(tmp_path, "kac")
        assert meta["config"]["n"] == 10 and meta["config"]["seed"] == 3

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--family", "product", "--p", "0.5,0.5", "--grid", "4,8,16"],
        ["counterexample"],
    ])
    def test_nan_tol(self, tmp_path, capsys, argv):
        assert main(argv + ["--tol", "nan", "--out", str(tmp_path)]) == 2
        assert "tol must be finite and > 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rows", [
        # [n, 0] listed twice: the file's masses sum to 1.5.
        '{"m":[%(n)d,0],"mass":0.5},{"m":[%(n)d,0],"mass":0.5},{"m":[0,%(n)d],"mass":0.5}',
        # A NaN mass.
        '{"m":[%(n)d,0],"mass":NaN},{"m":[0,%(n)d],"mass":1.0}',
        # Counts that int() would truncate to the class (n, 0).
        '{"m":[%(n)d.5,-0.5],"mass":1.0}',
        # A boolean count.
        '{"m":[%(n)d,false],"mass":1.0}',
        # Masses that float() would read as 1.0.
        '{"m":[%(n)d,0],"mass":true}',
        '{"m":[%(n)d,0],"mass":"1"}',
        # A mass past the double range, and counts past int64.
        '{"m":[%(n)d,0],"mass":1' + "0" * 400 + '}',
        '{"m":[%(big)d,0],"mass":1.0}',
    ], ids=["repeated-class", "nan-mass", "fractional-count", "boolean-count",
            "boolean-mass", "string-mass", "overflowing-mass", "overflowing-count"])
    def test_malformed_custom_law_file(self, tmp_path, capsys, rows):
        law_dir = tmp_path / "laws"
        law_dir.mkdir()
        for n in (4, 5, 6):
            law_n = 10**30 if "%(big)d" in rows else n
            (law_dir / f"{n}.json").write_text('{"labels":["0","1"],"n":%d,"classes":[%s]}'
                                               % (law_n, rows % {"n": n, "big": law_n}))
        out = tmp_path / "out"
        rc = main(["diagnose", "--family", "custom", "--law-dir", str(law_dir),
                   "--p", "0.5,0.5", "--grid", "4,5,6", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "4.json" in err
        assert not out.exists()

    def test_custom_law_whose_counts_wrap_int64(self, tmp_path, capsys):
        # Two counts of 2**63 - 1 and one of n + 2 add up to n in int64.
        law_dir = tmp_path / "laws"
        law_dir.mkdir()
        grid = [2**63 - 5, 2**63 - 4, 2**63 - 3]
        for n in grid:
            m = [2**63 - 1, 2**63 - 1, n + 2]
            (law_dir / f"{n}.json").write_text(
                '{"labels":["0","1","2"],"n":%d,"classes":[{"m":%s,"mass":1.0}]}' % (n, m))
        out = tmp_path / "out"
        rc = main(["diagnose", "--family", "custom", "--law-dir", str(law_dir),
                   "--p", "0.2,0.3,0.5", "--grid", ",".join(map(str, grid)), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "bad occupancy key" in err
        assert not out.exists()

    def test_custom_family_reads_labelled_laws(self, tmp_path):
        # law_to_json keeps the state labels; --p is given by state index.
        law_dir = tmp_path / "laws"
        law_dir.mkdir()
        rho = Distribution(StateSpace(("a", "b")), (0.7, 0.3))
        for n in (4, 8, 16):
            (law_dir / f"{n}.json").write_text(law_to_json(product_law(rho, n)))
        out = tmp_path / "out"
        rc = main(["diagnose", "--family", "custom", "--law-dir", str(law_dir),
                   "--p", "0.7,0.3", "--grid", "4,8,16", "--out", str(out)])
        assert rc == 0
        _, meta = read_run(out, "diagnose")
        assert meta["verdict"] == "chaotic"

    def test_custom_law_of_the_wrong_n(self, tmp_path, capsys):
        law_dir = tmp_path / "laws"
        law_dir.mkdir()
        rho = Distribution(S2, (0.7, 0.3))
        for n, law_n in [(4, 4), (8, 20), (16, 16)]:
            (law_dir / f"{n}.json").write_text(law_to_json(product_law(rho, law_n)))
        out = tmp_path / "out"
        rc = main(["diagnose", "--family", "custom", "--law-dir", str(law_dir),
                   "--p", "0.7,0.3", "--grid", "4,8,16", "--out", str(out)])
        assert rc == 2
        assert "n=20 at n=8" in capsys.readouterr().err
        assert not out.exists()


class TestConfigValues:
    """A config-file value is checked as the flag's string is: strings,
    choices, numbers and lower bounds."""

    @pytest.mark.parametrize("command, options, doc", [
        ("theorem-probe", ["--p", "0.5,0.5", "--grid", "4,8"], {"kernel": 5}),
        ("kac", ["--p", "0.5,0.5", "--n", "8", "--seed", "1"], {"out": 5}),
        ("kac", ["--p", "0.5,0.5", "--n", "8", "--seed", "1"], {"name": ["x"]}),
        ("diagnose", ["--family", "custom", "--p", "0.5,0.5", "--grid", "4,5,6"],
         {"law-dir": 7}),
        ("theorem-probe", ["--kernel", "identity", "--p", "0.5,0.5"], {"grid": 4}),
        ("diagnose", ["--family", "mixture", "--grid", "4,8,16"], {"expect": "bogus"}),
        ("diagnose", ["--grid", "4,8,16"], {"family": "bogus"}),
    ], ids=["kernel", "out", "name", "law-dir", "grid", "expect", "family"])
    def test_value_of_the_wrong_kind(self, tmp_path, monkeypatch, capsys, command,
                                     options, doc):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        rc = main([command, *options, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"config error: {next(iter(doc))} must be")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    # A number used to end in a TypeError, a list of keys in a ValueError.
    @pytest.mark.parametrize("text", ["5", '["seed"]'])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        assert main(["counterexample", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("option", [["--seed", "x"], ["--expect", "bogus"]])
    def test_flag_value_is_a_config_error(self, tmp_path, capsys, option):
        rc = main(["diagnose", "--family", "mixture", "--grid", "4,8,16", *option,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {option[0][2:]} must be")
        assert list(tmp_path.iterdir()) == []


class TestIgnoredOptionsRejected:
    """A command rejects the options it does not read, flags and config keys
    alike, and diagnose reads only its --family's options."""

    @pytest.mark.parametrize("argv", [
        ["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1", "--grid", "4,8"],
        ["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1", "--tol", "0.1"],
        ["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1", "--expect", "chaotic"],
        ["theorem-probe", "--kernel", "identity", "--p", "0.5,0.5", "--grid", "4",
         "--tol", "0.1"],
        ["theorem-probe", "--kernel", "identity", "--p", "0.5,0.5", "--grid", "4",
         "--expect", "chaotic"],
    ])
    def test_flag_is_usage_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {argv[0]} does not read {argv[-2][2:]}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, doc", [
        ("kac", {"p": "0.5,0.5", "n": 8, "seed": 1, "tol": 0.1}),
        ("theorem-probe", {"kernel": "identity", "p": "0.5,0.5", "grid": "4",
                           "expect": "chaotic"}),
        ("diagnose", {"family": "mixture", "p": "0.9,0.1", "grid": "2,4,8"}),
        ("diagnose", {"family": "microcanonical", "H": "0,1,2", "E": 0.8, "delta": 0.2,
                      "law-dir": "laws", "grid": "20,40"}),
    ])
    def test_config_key_is_config_error(self, tmp_path, command, doc):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv, unread", [
        (["--family", "mixture", "--p", "0.9,0.1"], "p"),
        (["--family", "product", "--p", "0.9,0.1", "--H", "0,1", "--E", "3",
          "--law-dir", "/nonexistent"], "E, H, law-dir"),
        (["--family", "custom", "--law-dir", "laws", "--p", "0.5,0.5", "--delta", "0.2"],
         "delta"),
    ], ids=["mixture-p", "product-energy-and-law-dir", "custom-delta"])
    def test_option_of_another_family_is_config_error(self, tmp_path, capsys, argv, unread):
        rc = main(["diagnose", *argv, "--grid", "2,4,8", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"config error: --family {argv[1]} does not read {unread}\n"
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("command, doc, unread", [
        ("kac", {"p": "0.5,0.5", "n": 8, "seed": 1, "tol": 0.1, "bogus": 1},
         "kac does not read bogus, tol"),
        ("diagnose", {"family": "mixture", "p": "0.9,0.1", "grid": "2,4,8"},
         "--family mixture does not read p"),
    ])
    def test_config_key_message_is_the_flag_message(self, tmp_path, capsys, command, doc,
                                                    unread):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {unread}\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_help_names_the_commands_that_read_each_flag(self, capsys):
        assert main(["--help"]) == 0
        helps = {line.split()[0][2:]: line
                 for line in capsys.readouterr().out.splitlines()[1:]}
        assert list(helps) == ["config", *chaoslab.cli.OPTIONS]
        assert helps["config"].endswith(f"[{', '.join(chaoslab.cli.COMMANDS)}]")
        for key in chaoslab.cli.OPTIONS:
            readers = [c for c, (_, keys) in chaoslab.cli.COMMANDS.items() if key in keys]
            assert helps[key].endswith(f"[{', '.join(readers)}]")
        assert helps["n"].endswith("[kac]")


KAC_ARGV = ["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1", "--replicas", "2"]


class TestCommandLine:
    """read_argv: the command, then --key value or --key=value flags named
    exactly; a usage error exits 2 with one config error line and no file."""

    def test_equals_form_gives_the_same_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(KAC_ARGV + ["--out", str(a)]) == 0
        assert main(["kac", "--p=0.5,0.5", "--n=8", "--seed=1", "--replicas=2",
                     f"--out={b}"]) == 0
        for name in ("kac.csv", "kac.meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_repeated_flag_keeps_its_last_value(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(KAC_ARGV + ["--n", "6", "--out", str(a)]) == 0
        assert main(["kac", "--p", "0.5,0.5", "--n", "6", "--seed", "1", "--replicas", "2",
                     "--out", str(b)]) == 0
        for name in ("kac.csv", "kac.meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_value_may_start_with_one_dash(self, tmp_path):
        rc = main(["microcanonical", "--H", "-1,0,1", "--E", "-0.2", "--delta", "0.2",
                   "--grid", "10,20,40", "--out", str(tmp_path)])
        assert rc == 0
        _, meta = read_run(tmp_path, "microcanonical")
        assert meta["config"]["H"] == "-1,0,1"

    @pytest.mark.parametrize("argv, err", [
        (KAC_ARGV + ["--bogus", "1"], "unknown flag --bogus"),
        (KAC_ARGV + ["--rep", "3"], "unknown flag --rep"),
        (KAC_ARGV + ["--name"], "--name needs a value"),
        (["kac", "--name", "--p", "0.5,0.5"], "--name needs a value"),
        (KAC_ARGV + ["kac"], "a second command 'kac' after 'kac'"),
        (KAC_ARGV + ["diagnose"], "a second command 'diagnose' after 'kac'"),
        (KAC_ARGV[1:], "no command; give one of diagnose, counterexample, "
                       "theorem-probe, kac, microcanonical"),
        (["kak"] + KAC_ARGV[1:], "unknown command 'kak'; the commands are diagnose, "
                                 "counterexample, theorem-probe, kac, microcanonical"),
    ], ids=["unknown-flag", "abbreviation", "missing-value", "value-is-a-flag",
            "second-command", "another-command", "no-command", "unknown-command"])
    def test_usage_error(self, tmp_path, monkeypatch, capsys, argv, err):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"config error: {err}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["counterexample", "--config", ""],
                                      ["counterexample", "--config="]],
                             ids=["value", "equals"])
    def test_empty_config_path_is_unreadable(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error: cannot read config '': ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_writes_nothing(self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.chdir(tmp_path)
        assert main(KAC_ARGV + [flag]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: chaoslab {diagnose,") and captured.err == ""
        assert list(tmp_path.iterdir()) == []

    def test_module_entry_point(self, tmp_path):
        """`python -m chaoslab.cli` reads sys.argv, as the console script does."""
        env = {**os.environ, "PYTHONPATH": str(Path(chaoslab.cli.__file__).parent.parent)}
        run = [sys.executable, "-m", "chaoslab.cli"]
        done = subprocess.run(run + ["--help"], env=env, cwd=tmp_path, capture_output=True,
                              text=True)
        assert done.returncode == 0 and done.stderr == ""
        for key in chaoslab.cli.OPTIONS:
            assert f"\n  --{key} " in done.stdout
        done = subprocess.run(run + ["kac", "--bogus", "1"], env=env, cwd=tmp_path,
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "config error: unknown flag --bogus\n"
        assert list(tmp_path.iterdir()) == []


DEEP_JSON = "[" * 100000 + "]" * 100000


class TestFileErrors:
    """Input files that cannot be read and outputs that cannot be written exit 2
    with one config error line, and write no file."""

    @pytest.mark.parametrize("path, content, argv", [
        ("run.json", b'{"p": "\xff"}', ["counterexample", "--config", "run.json"]),
        ("run.json", DEEP_JSON.encode(), ["counterexample", "--config", "run.json"]),
        ("laws/4.json", DEEP_JSON.encode(),
         ["diagnose", "--family", "custom", "--law-dir", "laws", "--p", "0.5,0.5",
          "--grid", "4,5,6"]),
    ], ids=["config-not-utf8", "config-nested", "law-file-nested"])
    def test_unreadable_json_input(self, tmp_path, monkeypatch, capsys, path, content, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / path).parent.mkdir(exist_ok=True)
        (tmp_path / path).write_bytes(content)
        before = sorted(tmp_path.rglob("*"))
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("options", [
        ["--out", "taken"],
        ["--out", "taken/sub"],
        ["--name", "sub/x"],
    ], ids=["out-is-a-file", "out-under-a-file", "name-in-a-missing-dir"])
    def test_unwritable_output(self, tmp_path, monkeypatch, capsys, options):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("kept\n")
        rc = main(["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1", "--replicas", "2",
                   *options])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["taken"]
        assert (tmp_path / "taken").read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--family", "product", "--p", "0.2,0.3,0.5", "--grid", "10,20,10000000"],
        ["theorem-probe", "--kernel", "identity", "--p", "0.5,0.3,0.2", "--grid", "6,8,10000000"],
    ], ids=["diagnose", "theorem-probe"])
    @pytest.mark.parametrize("message", ["", "Unable to allocate 372. TiB"])
    def test_out_of_memory_is_a_capacity_error(self, tmp_path, monkeypatch, capsys, argv,
                                               message):
        # A grid n whose classes cannot be allocated, without allocating them.
        real = chaoslab.cli.product_law

        def product_law(p, n):
            if n > 1000:
                raise MemoryError(message)
            return real(p, n)

        monkeypatch.setattr(chaoslab.cli, "product_law", product_law)
        rc = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 4
        assert err == f"capacity error: {message or 'out of memory'}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--family", "product", "--p", "0.5,0.5"],
        ["microcanonical", "--H", "0,1,2", "--E", "0.8", "--delta", "0.2"],
        ["counterexample"],
        ["theorem-probe", "--kernel", "identity", "--p", "0.5,0.5"],
    ], ids=["diagnose", "microcanonical", "counterexample", "theorem-probe"])
    @pytest.mark.parametrize("n, rc, message", [
        (2**62, 4, "capacity error: "),  # no array holds its classes
        (10**19, 2, "config error: n=10000000000000000000 is more particles than MAX_N"),
        (2**63 - 1, 4, "capacity error: "),  # its class count wraps int64
    ], ids=["2^62", "10^19", "2^63-1"])
    def test_huge_grid_n_is_refused(self, tmp_path, capsys, argv, n, rc, message):
        assert main(argv + ["--grid", f"4,8,{n}", "--out", str(tmp_path / "out")]) == rc
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        if rc == 4:
            assert err.endswith("occupancy classes an array can hold\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("taken", ["kac.meta.json", "kac.csv"])
    def test_failed_write_leaves_no_partial_output(self, tmp_path, capsys, taken):
        (tmp_path / taken).mkdir()
        rc = main(["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1", "--replicas", "2",
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: cannot write outputs") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == [taken]
        assert list((tmp_path / taken).iterdir()) == []

    def test_failed_write_names_the_output_not_its_temporary(self, tmp_path, capsys):
        argv = ["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1", "--replicas", "2",
                "--name", "sub/x", "--out", str(tmp_path)]
        errs = []
        for _ in range(2):
            assert main(argv) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == (f"config error: cannot write outputs: {tmp_path / 'sub' / 'x.csv'}: "
                           f"No such file or directory\n")
        assert errs[1] == errs[0] and ".tmp" not in errs[0]

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_failed_mkdir_names_the_directory(self, tmp_path, capsys, out):
        (tmp_path / "taken").write_text("kept\n")
        rc = main(["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1", "--replicas", "2",
                   "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"config error: cannot write outputs: {tmp_path / out}: ")
        assert err.count("\n") == 1 and "kac.csv" not in err

    def test_empty_name_is_rejected_before_any_work(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(chaoslab.kernels, "kac_limit_evolve",
                            lambda *a, **kw: calls.append(1))
        rc = main(["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1", "--name", "",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "config error: name must not be empty\n"
        assert calls == []
        assert list(tmp_path.iterdir()) == []
