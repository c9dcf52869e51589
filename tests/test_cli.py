import json

import pytest

from chaoslab.cli import main, parse_grid, quota_occupancy
from chaoslab.core import Distribution, StateSpace
from chaoslab.errors import ConfigError

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


class TestDiagnose:
    def test_product_family_chaotic(self, tmp_path):
        rc = main([
            "diagnose", "--family", "product", "--p", "0.2,0.3,0.5",
            "--grid", "4,8,16", "--out", str(tmp_path), "--expect", "chaotic",
        ])
        assert rc == 0
        csv, meta = read_run(tmp_path, "diagnose")
        lines = csv.strip().split("\n")
        assert lines[0] == "n,pair_gap,k_gap,concentration_gap,specific_loglik"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) < 1e-13
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
    def test_map_kernel_continuous(self, tmp_path):
        rc = main(["theorem-probe", "--kernel", "map:1,0", "--p", "0.6,0.4",
                   "--grid", "4,8,16", "--out", str(tmp_path)])
        assert rc == 0
        csv, meta = read_run(tmp_path, "theorem-probe")
        assert csv.splitlines()[0] == "n,row_gap,product_gap,damped_gap,shell_gap"
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

    def test_capacity_exit_code(self, tmp_path):
        # exact Kac rows stop at n = 12 and no seed means no MC fallback
        rc = main(["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.5",
                   "--grid", "14", "--out", str(tmp_path)])
        assert rc == 4


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

    def test_seed_required(self, tmp_path):
        assert main(["kac", "--p", "0.5,0.5", "--n", "8",
                     "--out", str(tmp_path)]) == 2

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

    def test_empty_window_is_config_error(self, tmp_path):
        rc = main(["microcanonical", "--H", "0,1", "--E", "-3", "--delta", "0.1",
                   "--grid", "4,8,16", "--out", str(tmp_path)])
        assert rc == 2


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

    def test_gibbs_fit_miss_is_config_error(self, tmp_path, monkeypatch):
        import chaoslab.diagnostics as diagnostics

        true_mean = diagnostics._gibbs_mean_energy
        monkeypatch.setattr(diagnostics, "_gibbs_mean_energy",
                            lambda H, beta: true_mean(H, beta) + 0.01)
        rc = main(["microcanonical", "--H", "0,1,2", "--E", "0.8", "--delta", "0.2",
                   "--grid", "4,8,16", "--out", str(tmp_path)])
        assert rc == 2


class TestIgnoredOptionsRejected:
    """--grid, --tol and --expect exist only on the subcommands that read them."""

    @pytest.mark.parametrize("argv", [
        ["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1", "--grid", "4,8"],
        ["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1", "--tol", "0.1"],
        ["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1", "--expect", "chaotic"],
        ["theorem-probe", "--kernel", "identity", "--p", "0.5,0.5", "--grid", "4",
         "--tol", "0.1"],
        ["theorem-probe", "--kernel", "identity", "--p", "0.5,0.5", "--grid", "4",
         "--expect", "chaotic"],
    ])
    def test_flag_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, doc", [
        ("kac", {"p": "0.5,0.5", "n": 8, "seed": 1, "tol": 0.1}),
        ("theorem-probe", {"kernel": "identity", "p": "0.5,0.5", "grid": "4",
                           "expect": "chaotic"}),
    ])
    def test_config_key_is_config_error(self, tmp_path, command, doc):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
