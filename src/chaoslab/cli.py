"""Experiment runner: reproducible chaos diagnostics from the command line.

Subcommands: diagnose, counterexample, theorem-probe, kac, microcanonical.
Each run writes <out>/<name>.csv plus <out>/<name>.meta.json (config echo,
verdicts, version).  Runs are deterministic given their config and seed;
rerunning must produce byte-identical files.

Exit codes: 0 success / expectation met, 2 config error, 3 expectation
mismatch, 4 capacity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    Distribution,
    StateSpace,
    SymmetricLaw,
    law_from_json,
    marginal,
    product_law,
    tv_distance,
)
from .diagnostics import (
    ChaosReport,
    EnergyModel,
    chaos_verdict,
    entropy_convergence,
    fit_gibbs,
    microcanonical,
    microcanonical_limit,
    pair_gap,
)
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateModelError,
    EmptyEnsembleError,
    InfeasibleEnergyError,
    InvalidArgumentError,
)
from .kernels import kac_collision_kernel, make_kernel, propagate, symmetrized_class_kernel
from .meanfield import kac_limit_evolve, continuity_probe
from .montecarlo import ParticleState, iid_state, replica_rng, simulate_kac

FMT = "%.17g"


def fmt(x: float) -> str:
    return FMT % x


def parse_floats(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc


def parse_grid(text: str) -> list:
    try:
        grid = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}") from exc
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("grid must be strictly increasing")
    return grid


def quota_occupancy(p: Distribution, n: int) -> tuple:
    """Deterministic occupancy closest to n*p: floors plus largest remainders."""
    raw = [n * x for x in p.p]
    m = [int(x) for x in raw]
    order = sorted(range(len(m)), key=lambda i: (-(raw[i] - m[i]), i))
    for i in order[: n - sum(m)]:
        m[i] += 1
    return tuple(m)


def mixture_family(n: int) -> SymmetricLaw:
    """Half mass each on the all-zeros and all-ones classes (k = 2)."""
    space = StateSpace.of_size(2)
    return SymmetricLaw(space, n, {(n, 0): 0.5, (0, n): 0.5})


def near_product_mixture(n: int) -> SymmetricLaw:
    """delta_0-chaotic but not product: one particle flipped with prob 1/2."""
    space = StateSpace.of_size(2)
    return SymmetricLaw(space, n, {(n, 0): 0.5, (n - 1, 1): 0.5})


def write_outputs(outdir: str, name: str, csv_text: str, meta: dict) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.csv").write_text(csv_text)
    (out / f"{name}.meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_config(args: argparse.Namespace, allowed: set) -> dict:
    config = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        unknown = set(doc) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config.update(doc)
    for key in allowed:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            config[key] = value
    return config


def require(config: dict, key: str):
    if key not in config or config[key] is None:
        raise ConfigError(f"missing required option {key!r}")
    return config[key]


def check_expectation(config: dict, verdicts) -> int:
    expect = config.get("expect")
    if expect is None:
        return 0
    verdicts = verdicts if isinstance(verdicts, list) else [verdicts]
    return 0 if all(v == expect for v in verdicts) else 3


def cmd_diagnose(args) -> int:
    allowed = {"name", "family", "p", "H", "E", "delta", "grid", "tol", "seed",
               "out", "expect", "law-dir"}
    config = load_config(args, allowed)
    family_name = require(config, "family")
    grid = parse_grid(str(require(config, "grid")))
    tol = float(config.get("tol", 1e-3))
    name = config.get("name", "diagnose")

    if family_name == "product":
        p = parse_floats(str(require(config, "p")))
        space = StateSpace.of_size(len(p))
        rho = Distribution(space, p)
        family = lambda n: product_law(rho, n)
    elif family_name == "mixture":
        rho = Distribution(StateSpace.of_size(2), (0.5, 0.5))
        family = mixture_family
    elif family_name == "microcanonical":
        H = parse_floats(str(require(config, "H")))
        space = StateSpace.of_size(len(H))
        model = EnergyModel(space, H, float(require(config, "E")),
                            float(require(config, "delta")))
        _, rho = microcanonical_limit(model)
        family = lambda n: microcanonical(model, n)
    elif family_name == "custom":
        law_dir = Path(require(config, "law-dir"))
        p = parse_floats(str(require(config, "p")))
        rho = Distribution(StateSpace.of_size(len(p)), p)

        def family(n):
            path = law_dir / f"{n}.json"
            try:
                return law_from_json(path.read_text())
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"cannot read law file {path}: {exc}") from exc
    else:
        raise ConfigError(f"unknown family {family_name!r}")

    report = chaos_verdict(family, rho, grid, tol=tol)
    meta = {"config": {k: config[k] for k in sorted(config) if k != "out"},
            "version": __version__, **report.meta()}
    write_outputs(config.get("out", "."), name, report.to_csv(), meta)
    return check_expectation(config, report.verdict)


def cmd_counterexample(args) -> int:
    allowed = {"name", "p", "grid", "tol", "out", "expect", "seed"}
    config = load_config(args, allowed)
    # The product branch's gap decays like p0^n; the grid must run far
    # enough for that to clear the tolerance (0.9^128 ~ 1.4e-6).
    grid = parse_grid(str(config.get("grid", "4,8,16,32,64,128")))
    if any(n < 2 for n in grid):
        raise ConfigError("counterexample needs n >= 2 throughout the grid")
    tol = float(config.get("tol", 1e-3))
    name = config.get("name", "counterexample")
    p = parse_floats(str(config.get("p", "0.9,0.1")))
    space = StateSpace.of_size(2)
    rho_in = Distribution(space, p)
    rho_out = Distribution(space, (0.5, 0.5))
    delta1 = Distribution(space, (0.0, 1.0))

    def product_branch(n):
        return propagate(product_law(rho_in, n), make_kernel("counterexample", space, n))

    def mixture_branch(n):
        return propagate(near_product_mixture(n), make_kernel("counterexample", space, n))

    rep_prod = chaos_verdict(product_branch, delta1, grid, tol=tol)
    rep_mix = chaos_verdict(mixture_branch, rho_out, grid, tol=tol)
    lines = ["n,product_pair_gap,mixture_pair_gap"]
    for rp, rm in zip(rep_prod.rows, rep_mix.rows):
        lines.append(f"{rp.n},{fmt(rp.pair_gap)},{fmt(rm.pair_gap)}")
    meta = {
        "config": {k: config[k] for k in sorted(config) if k != "out"},
        "version": __version__,
        "product_verdict": rep_prod.verdict,
        "mixture_verdict": rep_mix.verdict,
    }
    write_outputs(config.get("out", "."), name, "\n".join(lines) + "\n", meta)
    both_expected = rep_prod.verdict == "chaotic" and rep_mix.verdict == "not-chaotic"
    if config.get("expect") is not None:
        return 0 if (config["expect"] == "chaotic") == both_expected else 3
    return 0 if both_expected else 3


def cmd_theorem_probe(args) -> int:
    allowed = {"name", "kernel", "p", "grid", "seed", "out", "replicas"}
    config = load_config(args, allowed)
    kernel_name = require(config, "kernel")
    p = parse_floats(str(require(config, "p")))
    grid = parse_grid(str(require(config, "grid")))
    seed = config.get("seed")
    name = config.get("name", "theorem-probe")
    space = StateSpace.of_size(len(p))
    rho = Distribution(space, p)
    replicas = int(config.get("replicas", 4000))

    def damped_family(n):
        # p-chaotic, not product: vanishing contamination by a fixed class.
        other = quota_occupancy(Distribution(space, tuple(reversed(rho.p))), n)
        return SymmetricLaw.mixture(
            [(product_law(rho, n), 1.0 - 1.0 / n),
             (SymmetricLaw.point_class(space, other), 1.0 / n)]
        )

    def shell_family(n):
        # All mass on the quota class: a microcanonical-style concentration.
        return SymmetricLaw.point_class(space, quota_occupancy(rho, n))

    lines = ["n,row_gap,product_gap,damped_gap,shell_gap"]
    row_gaps = []
    fp = None
    for n in grid:
        kernel = make_kernel(kernel_name, space, n)
        if fp is None:
            fp = kernel.limit(rho)
        kw = {} if seed is None else {"seed": int(seed), "replicas": replicas}
        rows = symmetrized_class_kernel(kernel, **kw)
        row_law = SymmetricLaw(kernel.target, n, rows[quota_occupancy(rho, n)])
        gap_row = pair_gap(row_law, fp)
        gaps = [
            pair_gap(propagate(fam(n), kernel, **kw), fp)
            for fam in (lambda m: product_law(rho, m), damped_family, shell_family)
        ]
        row_gaps.append(gap_row)
        lines.append(f"{n},{fmt(gap_row)},{fmt(gaps[0])},{fmt(gaps[1])},{fmt(gaps[2])}")

    # Every kernel of one spec carries the same limit; take the last one's.
    probe = continuity_probe(kernel.limit, rho, radius=0.1, samples=64,
                             seed=int(seed) if seed is not None else 0)
    meta = {
        "config": {k: config[k] for k in sorted(config) if k != "out"},
        "version": __version__,
        "limit": list(fp.p),
        "final_row_gap": row_gaps[-1],
        "row_gap_decreasing": all(b < a for a, b in zip(row_gaps, row_gaps[1:])),
        "continuity_modulus": probe.modulus,
        "continuity_radius": probe.radius,
        "discontinuity_flag": probe.modulus > 5 * probe.radius,
    }
    write_outputs(config.get("out", "."), name, "\n".join(lines) + "\n", meta)
    return 0


def cmd_kac(args) -> int:
    allowed = {"name", "p", "n", "replicas", "lam", "t", "seed", "out"}
    config = load_config(args, allowed)
    p = parse_floats(str(require(config, "p")))
    n = int(require(config, "n"))
    lam = float(config.get("lam", 1.0))
    t = float(config.get("t", 1.0))
    replicas = int(config.get("replicas", 200))
    if replicas < 1:
        raise ConfigError(f"need replicas >= 1, got {replicas}")
    name = config.get("name", "kac")
    space = StateSpace.of_size(len(p))
    p0 = Distribution(space, p)
    ode = kac_limit_evolve(p0, lam, t)

    header = "method,tv_to_ode," + ",".join(f"p{i}" for i in range(space.k))
    lines = [header]
    lines.append("ode,0," + ",".join(fmt(x) for x in ode.p))

    # The exact row appears exactly when the kernel has a class matrix at
    # this n; asking for it first keeps product_law off the large-n path.
    kernel = kac_collision_kernel(space, lam, t, n)
    try:
        symmetrized_class_kernel(kernel)
    except CapacityError:
        pass
    else:
        one = marginal(propagate(product_law(p0, n), kernel), 1)
        exact_p = Distribution(space, tuple(one.mass(tuple(
            1 if j == i else 0 for j in range(space.k))) for i in range(space.k)))
        lines.append(f"exact,{fmt(tv_distance(exact_p, ode))}," +
                     ",".join(fmt(x) for x in exact_p.p))

    seed = int(require(config, "seed"))
    totals = np.zeros(space.k)
    for r in range(replicas):
        rng = replica_rng(seed, r)
        state = simulate_kac(iid_state(p0, n, rng), lam, t, rng)
        totals += np.array(state.counts) / n
    mc_p = Distribution(space, tuple(totals / replicas))
    lines.append(f"mc,{fmt(tv_distance(mc_p, ode))}," +
                 ",".join(fmt(x) for x in mc_p.p))

    meta = {"config": {k: config[k] for k in sorted(config) if k != "out"},
            "version": __version__, "ode": list(ode.p)}
    write_outputs(config.get("out", "."), name, "\n".join(lines) + "\n", meta)
    return 0


def cmd_microcanonical(args) -> int:
    allowed = {"name", "H", "E", "delta", "grid", "tol", "out", "expect", "seed"}
    config = load_config(args, allowed)
    H = parse_floats(str(require(config, "H")))
    space = StateSpace.of_size(len(H))
    model = EnergyModel(space, H, float(require(config, "E")),
                        float(require(config, "delta")))
    grid = parse_grid(str(require(config, "grid")))
    tol = float(config.get("tol", 1e-3))
    name = config.get("name", "microcanonical")
    beta, gamma = microcanonical_limit(model)
    family = lambda n: microcanonical(model, n)
    report = chaos_verdict(family, gamma, grid, tol=tol)
    entropy = entropy_convergence(family, gamma, grid)
    lines = ["n,pair_gap,concentration_gap,specific_loglik,entropy_dev"]
    for row, (_, _, dev) in zip(report.rows, entropy):
        lines.append(f"{row.n},{fmt(row.pair_gap)},{fmt(row.concentration_gap)},"
                     f"{fmt(row.specific_loglik)},{fmt(dev)}")
    meta = {
        "config": {k: config[k] for k in sorted(config) if k != "out"},
        "version": __version__,
        "beta": beta,
        "gamma": list(gamma.p),
        "verdict": report.verdict,
        "slope": report.slope,
    }
    write_outputs(config.get("out", "."), name, "\n".join(lines) + "\n", meta)
    return check_expectation(config, report.verdict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chaoslab",
                                     description="exchangeable particle-system laboratory")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--out", help="output directory (default .)")
    shared.add_argument("--seed", type=int, help="master RNG seed")
    shared.add_argument("--name", help="experiment name (output file stem)")
    gridded = argparse.ArgumentParser(add_help=False)
    gridded.add_argument("--grid", help="comma-separated increasing n values")
    judged = argparse.ArgumentParser(add_help=False)
    judged.add_argument("--tol", type=float, help="chaos verdict tolerance")
    judged.add_argument("--expect", choices=["chaotic", "not-chaotic", "inconclusive"])

    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("diagnose", parents=[shared, gridded, judged])
    d.add_argument("--family", choices=["product", "mixture", "microcanonical", "custom"])
    d.add_argument("--p", help="comma-separated probabilities")
    d.add_argument("--H", help="comma-separated per-state energies")
    d.add_argument("--E", type=float, help="target mean energy")
    d.add_argument("--delta", type=float, help="energy window width")
    d.add_argument("--law-dir", dest="law_dir", help="directory of <n>.json laws")
    d.set_defaults(func=cmd_diagnose)

    c = sub.add_parser("counterexample", parents=[shared, gridded, judged])
    c.add_argument("--p", help="product-branch input law")
    c.set_defaults(func=cmd_counterexample)

    tp = sub.add_parser("theorem-probe", parents=[shared, gridded])
    tp.add_argument("--kernel", help="kernel registry name")
    tp.add_argument("--p", help="target one-particle law")
    tp.add_argument("--replicas", type=int, help="samples per row on the MC path")
    tp.set_defaults(func=cmd_theorem_probe)

    kc = sub.add_parser("kac", parents=[shared])
    kc.add_argument("--p", help="initial one-particle law")
    kc.add_argument("--n", type=int, help="particle count")
    kc.add_argument("--replicas", type=int, help="Monte Carlo replicas")
    kc.add_argument("--lam", type=float, help="collision rate")
    kc.add_argument("--t", type=float, help="time horizon")
    kc.set_defaults(func=cmd_kac)

    mc = sub.add_parser("microcanonical", parents=[shared, gridded, judged])
    mc.add_argument("--H", help="comma-separated per-state energies")
    mc.add_argument("--E", type=float, help="target mean energy")
    mc.add_argument("--delta", type=float, help="energy window width")
    mc.set_defaults(func=cmd_microcanonical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        InvalidArgumentError,
        InfeasibleEnergyError,
        DegenerateModelError,
        EmptyEnsembleError,
    ) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
