"""Experiment runner: reproducible chaos diagnostics from the command line.

Subcommands: diagnose, counterexample, theorem-probe, kac, microcanonical.
Each run writes <out>/<name>.csv plus <out>/<name>.meta.json (config echo,
verdicts, version).  Runs are deterministic given their config and seed;
rerunning must produce byte-identical files.

Exit codes: 0 success / expectation met, 2 config error or a run that
cannot be carried out as configured, 3 expectation mismatch, 4 capacity
error (no exact form at that size, or out of memory).

OPTIONS and COMMANDS are the one declaration of the options: `read_argv`
reads the command line against them, `usage` writes the --help text from
them, and `load_config` reads flags and config-file values alike.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    StateSpace,
    SymmetricLaw,
    _product_masses,
    class_index,
    law_from_json,
    law_rows,
    marginal,
    occupancy_array,
    pair_marginals,
    product_law,
    tv_distance,
)
from .diagnostics import (
    DEFAULT_TOL,
    EnergyModel,
    chaos_verdict,
    microcanonical,
    microcanonical_limit,
    pair_gap,
)
from .errors import CapacityError, ChaoslabError, ConfigError
from .kernels import kac_collision_kernel, make_kernel, propagate, push
from .meanfield import continuity_probe, wild_plan
from .montecarlo import check_particle_count, estimate_pair_marginals, iid_state, replica_counts

FMT = "%.17g"  # 17 significant digits: every double reads back exactly
# Every option: (kind, least value, help).  The kind is int, float, str or
# the tuple of the allowed strings; the least value bounds a number, or is None.
OPTIONS = {
    "out": (str, None, "output directory (default .)"),
    "seed": (int, 0, "master RNG seed (kac and theorem-probe's Monte Carlo columns "
                     "draw from it)"),
    "name": (str, None, "experiment name (output file stem)"),
    "family": (("product", "mixture", "microcanonical", "custom"), None, "law family"),
    "kernel": (str, None, "kernel registry name"),
    "p": (str, None, "comma-separated one-particle law"),
    "H": (str, None, "comma-separated per-state energies"),
    "E": (float, None, "target mean energy"),
    "delta": (float, None, "energy window width"),
    "law-dir": (str, None, "directory of <n>.json laws"),
    "n": (int, None, "particle count"),
    "replicas": (int, 1, "Monte Carlo replicas (theorem-probe: runs per column)"),
    "lam": (float, None, "collision rate"),
    "t": (float, None, "time horizon"),
    "grid": (str, None, "comma-separated increasing n values"),
    "tol": (float, None, "chaos verdict tolerance"),
    "expect": (("chaotic", "not-chaotic", "inconclusive"), None, "expected verdict"),
}


def parse_floats(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc


def parse_law(text: str) -> np.ndarray:
    """A comma-separated one-particle law as a (k,) row checked by `law_rows`."""
    return law_rows([parse_floats(text)])[0]


def parse_grid(text: str) -> list:
    try:
        grid = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}") from exc
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("grid must be strictly increasing")
    for n in grid:
        check_particle_count(n)
    return grid


def quota_occupancy(p, n: int) -> tuple:
    """Deterministic occupancy closest to n*p, p a (k,) row: floors plus
    largest remainders, of the doubles n * p_i below 2**53 when their floors
    fall short of n by 0 to k - 1, else of the exact quotas n * c_i / sum(c),
    p_i = c_i / D, so the class always holds n particles."""
    raw = [n * x for x in map(float, p)]
    m = [int(x) for x in raw]
    rem = [x - c for x, c in zip(raw, m)]
    if not (n < 2**53 and 0 <= n - sum(m) < len(m)):
        ratios = [x.as_integer_ratio() for x in map(float, p)]
        D = max(b for _, b in ratios)
        c = [a * (D // b) for a, b in ratios]
        m, rem = map(list, zip(*(divmod(n * ci, sum(c)) for ci in c)))
    order = sorted(range(len(m)), key=lambda i: (-rem[i], i))
    for i in order[: n - sum(m)]:
        m[i] += 1
    return tuple(m)


def mixture_family(n: int) -> SymmetricLaw:
    """Half mass each on the all-zeros and all-ones classes (k = 2)."""
    space = StateSpace.of_size(2)
    return SymmetricLaw(space, n, [(n, 0), (0, n)], [0.5, 0.5])


def near_product_mixture(n: int) -> SymmetricLaw:
    """delta_0-chaotic but not product: one particle flipped with prob 1/2."""
    space = StateSpace.of_size(2)
    return SymmetricLaw(space, n, [(n, 0), (n - 1, 1)], [0.5, 0.5])


def write_outputs(config: dict, name: str, header: str, rows: list, meta: dict) -> None:
    """Write <out>/<name>.csv (the header line, then one line per row: ints
    and strings by str, floats by FMT) and <out>/<name>.meta.json, whose
    meta gains the config echo and the version; the config's "name"
    overrides `name`.

    Both files are written to temporary names beside their targets and then
    moved into place, so a failed write leaves neither this run's files nor
    a temporary behind; its error names the output, or the directory if it
    cannot be made, and the OS reason.
    """
    out, name = Path(config.get("out", ".")), config.get("name", name)
    meta = {"config": {k: config[k] for k in sorted(config) if k != "out"},
            "version": __version__, **meta}
    lines = [header] + [",".join(FMT % x if isinstance(x, float) else str(x) for x in row)
                        for row in rows]
    texts = {out / f"{name}.csv": "\n".join(lines) + "\n",
             out / f"{name}.meta.json": json.dumps(meta, indent=2, sort_keys=True) + "\n"}
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in texts}
    placed, path = [], out
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path, text in texts.items():
            temps[path].write_text(text)
        for path, temp in temps.items():
            os.replace(temp, path)
            placed.append(path)
    except OSError as exc:
        for left in [*temps.values(), *placed]:
            with contextlib.suppress(OSError):
                left.unlink()
        raise ConfigError(f"cannot write outputs: {path}: {exc.strerror or exc}") from exc


def to_value(key: str, value):
    """A flag or config-file value of option `key`, checked as OPTIONS declares
    it, or ConfigError: a string, one of its choices, or a number (an int
    must be integral) no less than its least value."""
    kind, least, _ = OPTIONS[key]
    if isinstance(kind, tuple) and value not in kind:
        raise ConfigError(f"{key} must be one of {', '.join(kind)}, got {value!r}")
    if kind is str and not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    if key == "name" and not value:
        raise ConfigError("name must not be empty")
    if kind not in (int, float):
        return value
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError
        value = kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return value


def read_argv(argv) -> tuple:
    """(command, {option: string}): the one token not starting with --, a
    key of COMMANDS, and each flag --key value or --key=value, its key
    "config" or of OPTIONS in full.  A repeated flag keeps its last value."""
    command, flags, tokens = None, {}, iter(argv)
    for token in tokens:
        if not token.startswith("--"):
            if token not in COMMANDS:
                raise ConfigError(f"unknown command {token!r}; "
                                  f"the commands are {', '.join(COMMANDS)}")
            if command is not None:
                raise ConfigError(f"a second command {token!r} after {command!r}")
            command = token
            continue
        key, eq, value = token[2:].partition("=")
        if key != "config" and key not in OPTIONS:
            raise ConfigError(f"unknown flag --{key}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ConfigError(f"--{key} needs a value")
        flags[key] = value
    if command is None:
        raise ConfigError(f"no command; give one of {', '.join(COMMANDS)}")
    return command, flags


def load_config(command: str, flags: dict) -> dict:
    """The options of `command`: its --config file's values, overridden by
    the other flags given, each checked by to_value.  An option that the
    command, or diagnose's --family, does not read is a ConfigError."""
    config, path = {}, flags.get("config")
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path!r} must hold a JSON object")
        config.update(doc)
    config.update((key, flags[key]) for key in OPTIONS if key in flags)
    reader, allowed = command, set(COMMANDS[command][1])
    if "family" in config and "family" in allowed:
        reader = f"--family {to_value('family', config['family'])}"
        allowed -= FAMILY_KEYS.difference(FAMILY_OPTIONS[config["family"]])
    unread = sorted(set(config) - allowed)
    if unread:
        raise ConfigError(f"{reader} does not read {', '.join(unread)}")
    return {key: to_value(key, value) for key, value in config.items()}


def require(config: dict, key: str):
    if key not in config or config[key] is None:
        raise ConfigError(f"missing required option {key!r}")
    return config[key]


def energy_model(config: dict) -> EnergyModel:
    H = parse_floats(require(config, "H"))
    return EnergyModel(StateSpace.of_size(len(H)), H, require(config, "E"),
                       require(config, "delta"))


def check_expectation(config: dict, verdict: str) -> int:
    expect = config.get("expect")
    return 0 if expect is None or verdict == expect else 3


# The options each diagnose --family reads; load_config rejects the others'.
FAMILY_OPTIONS = {
    "product": ("p",),
    "mixture": (),
    "microcanonical": ("H", "E", "delta"),
    "custom": ("law-dir", "p"),
}
FAMILY_KEYS = {key for keys in FAMILY_OPTIONS.values() for key in keys}


def cmd_diagnose(config: dict) -> int:
    family_name = require(config, "family")
    grid = parse_grid(require(config, "grid"))
    tol = config.get("tol", DEFAULT_TOL)

    if family_name == "product":
        rho = parse_law(require(config, "p"))
        family = lambda n: product_law(rho, n)
    elif family_name == "mixture":
        rho = np.array([0.5, 0.5])
        family = mixture_family
    elif family_name == "microcanonical":
        model = energy_model(config)
        _, rho = microcanonical_limit(model)
        family = lambda n: microcanonical(model, n)
    else:  # custom
        law_dir = Path(require(config, "law-dir"))
        rho = parse_law(require(config, "p"))

        def family(n):
            # --p is a row over the law file's states in their listed order.
            path = law_dir / f"{n}.json"
            try:
                return law_from_json(path.read_text())
            except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
                raise ConfigError(f"cannot read law file {path}: {exc}") from exc

    report = chaos_verdict(family, rho, grid, tol=tol)
    rows = [(r.n, r.pair_gap, r.concentration_gap, r.specific_loglik) for r in report.rows]
    write_outputs(config, "diagnose", "n,pair_gap,concentration_gap,specific_loglik", rows,
                  report.meta())
    return check_expectation(config, report.verdict)


def cmd_counterexample(config: dict) -> int:
    # The product branch's gap decays like p0^n; the grid must run far
    # enough for that to clear the tolerance (0.9^128 ~ 1.4e-6).
    grid = parse_grid(config.get("grid", "4,8,16,32,64,128"))
    if any(n < 2 for n in grid):
        raise ConfigError("counterexample needs n >= 2 throughout the grid")
    tol = config.get("tol", DEFAULT_TOL)
    rho_in = parse_law(config.get("p", "0.9,0.1"))
    if len(rho_in) != 2:
        raise ConfigError("probability vector length != k")
    space = StateSpace.of_size(2)
    rho_out, delta1 = np.array([0.5, 0.5]), np.array([0.0, 1.0])

    def product_branch(n):
        return propagate(product_law(rho_in, n), make_kernel("counterexample", space, n))

    def mixture_branch(n):
        return propagate(near_product_mixture(n), make_kernel("counterexample", space, n))

    rep_prod = chaos_verdict(product_branch, delta1, grid, tol=tol)
    rep_mix = chaos_verdict(mixture_branch, rho_out, grid, tol=tol)
    rows = [(rp.n, rp.pair_gap, rm.pair_gap) for rp, rm in zip(rep_prod.rows, rep_mix.rows)]
    meta = {"product_verdict": rep_prod.verdict, "mixture_verdict": rep_mix.verdict}
    write_outputs(config, "counterexample", "n,product_pair_gap,mixture_pair_gap", rows, meta)
    both_expected = rep_prod.verdict == "chaotic" and rep_mix.verdict == "not-chaotic"
    if config.get("expect") is not None:
        return 0 if (config["expect"] == "chaotic") == both_expected else 3
    return 0 if both_expected else 3


def column_laws(rho: np.ndarray, n: int) -> np.ndarray:
    """theorem-probe's column laws for a (k,) row rho that `law_rows`
    passed, a (3, classes) array of masses by class rank: the quota point
    class, the product law, and a damped law, rho-chaotic but not product,
    the product law times 1 - 1/n plus 1/n at reversed rho's quota class.
    The product law's masses come first: at too large an n they are a
    capacity error."""
    product = _product_masses(rho, n)[0]
    quota, other = class_index([quota_occupancy(rho, n), quota_occupancy(rho[::-1], n)], n)
    columns = np.array([np.zeros_like(product), product, (1.0 - 1.0 / n) * product])
    columns[0, quota] = 1.0
    columns[2, other] += 1.0 / n
    return columns


def monte_carlo_pair_marginals(columns: np.ndarray, kernel, replicas: int, seed: int) -> list:
    """`estimate_pair_marginals` of the kernel's images of the rows of
    `columns` (laws, masses by class rank): ordered k x k pair marginals,
    as `pair_marginals` gives them exactly.  Run r of each column
    starts from a class drawn on its stream from replica_rngs(seed, ...),
    which every column and n reuse, one sampler call per chunk for all
    columns; the class `rng.choice` over the masses picks from the same one
    `random()` draw: the first whose cumulative mass, over the total,
    exceeds it."""
    occ = occupancy_array(kernel.source.k, kernel.n)
    cdfs = columns.cumsum(axis=1)
    cdfs /= cdfs[:, -1:]

    def run(rngs):
        width, starts = len(rngs) // len(columns), []
        for c, cdf in enumerate(cdfs):
            draws = [rng.random() for rng in rngs[c * width:(c + 1) * width]]
            starts.append(occ[cdf.searchsorted(draws, side="right")])
        return kernel.sampler(np.concatenate(starts), rngs)

    return estimate_pair_marginals(run, replicas, seed, len(columns))


def cmd_theorem_probe(config: dict) -> int:
    kernel_name = require(config, "kernel")
    rho = parse_law(require(config, "p"))
    grid = parse_grid(require(config, "grid"))
    seed = config.get("seed")
    space = StateSpace.of_size(len(rho))
    replicas = config.get("replicas", 4000)
    kernels = [make_kernel(kernel_name, space, n) for n in grid]
    sampled = [kernel for kernel in kernels if not kernel.exact]
    if "replicas" in config and (seed is None or not sampled or replicas < 2):
        raise ConfigError("replicas sets the Monte Carlo columns, which need a seed, "
                          "a grid n without an exact class matrix and replicas >= 2")
    if seed is None and sampled:
        raise CapacityError(f"kernel {sampled[0].name!r} has no exact class matrix at "
                            f"n={sampled[0].n}; its Monte Carlo estimate needs a seed")

    # Every kernel of one spec carries the same limit map.  The probe
    # evaluates it once on the stack [rho, q_1, ..., q_k], whose row 0 is
    # the limit law fp.
    first = kernels[0]
    probe = continuity_probe(first.limit, rho, radius=0.1)
    fp = law_rows(probe.image[:1])[0]

    backend, rows = [], []
    for n in grid:
        kernel = kernels.pop(0)  # so that each n's matrix is freed after it
        columns = column_laws(rho, n)
        entry = {"n": n, "kind": "exact" if kernel.exact else "monte-carlo",
                 "classes": columns.shape[1]}
        if kernel.exact:
            occ = occupancy_array(kernel.target.k, n)
            gaps = [pair_gap(pair, fp) for pair in pair_marginals(occ, push(columns, kernel), n)]
        else:
            estimates = monte_carlo_pair_marginals(columns, kernel, replicas, seed)
            gaps = [pair_gap(result.estimate, fp) for result in estimates]
            # A gap within twice the summed standard errors, the scale of
            # the estimator's upward bias, is not told apart from 0.
            entry.update(replicas=replicas,
                         std_error=[float(result.std_error.max()) for result in estimates],
                         resolved=[gap > 2.0 * float(result.std_error.sum())
                                   for gap, result in zip(gaps, estimates)])
        backend.append(entry)
        rows.append((n, *gaps))

    row_gaps = [row[1] for row in rows]
    meta = {
        "backend": backend,
        "limit": fp.tolist(),
        "final_row_gap": row_gaps[-1],
        "row_gap_decreasing": all(b < a for a, b in zip(row_gaps, row_gaps[1:])),
        "continuity_modulus": probe.modulus,
        "continuity_radius": probe.radius,
        "discontinuity_flag": probe.modulus > 5 * probe.radius,
    }
    write_outputs(config, "theorem-probe", "n,row_gap,product_gap,damped_gap", rows, meta)
    return 0


def cmd_kac(config: dict) -> int:
    p0 = parse_law(require(config, "p"))
    n = require(config, "n")
    lam = config.get("lam", 1.0)
    t = config.get("t", 1.0)
    replicas = config.get("replicas", 200)
    seed = require(config, "seed")
    space = StateSpace.of_size(len(p0))
    kernel = kac_collision_kernel(space, lam, t, n)
    ode = law_rows(kernel.limit(p0[None]))[0]

    header = "method,tv_to_ode," + ",".join(f"p{i}" for i in range(space.k))
    rows = [("ode", 0, *ode.tolist())]

    # Only an exact kernel gets a row, which keeps product_law off the large-n path.
    if kernel.exact:
        exact_p = law_rows([marginal(propagate(product_law(p0, n), kernel), 1)])[0]
        rows.append(("exact", tv_distance(exact_p, ode), *exact_p.tolist()))

    # Each replica draws its start, then its run, on its own stream.
    def run(rngs):
        return kernel.sampler([iid_state(p0, n, rng) for rng in rngs], rngs)

    # The replica mean, summed row by row in replica order: one left fold.
    totals = np.zeros(space.k)
    for chunk in replica_counts(run, replicas, seed):
        totals = np.add.accumulate(np.vstack([totals, chunk / n]))[-1]
    mc_p = law_rows([totals / replicas])[0]
    rows.append(("mc", tv_distance(mc_p, ode), *mc_p.tolist()))

    write_outputs(config, "kac", header, rows,
                  {"ode": ode.tolist(), "ode_plan": wild_plan(lam, t)._asdict()})
    return 0


def cmd_microcanonical(config: dict) -> int:
    model = energy_model(config)
    grid = parse_grid(require(config, "grid"))
    tol = config.get("tol", DEFAULT_TOL)
    beta, gamma = microcanonical_limit(model)
    report = chaos_verdict(lambda n: microcanonical(model, n), gamma, grid, tol=tol)
    limit = math.fsum(g * math.log(g) for g in gamma.tolist() if g > 0.0)
    rows = [(r.n, r.pair_gap, r.concentration_gap, r.specific_loglik,
             abs(r.specific_loglik - limit)) for r in report.rows]
    meta = {
        "beta": beta,
        "gamma": gamma.tolist(),
        "verdict": report.verdict,
        "slope": report.slope,
        "slope_dropped": report.slope_dropped,
    }
    write_outputs(config, "microcanonical",
                  "n,pair_gap,concentration_gap,specific_loglik,entropy_dev", rows, meta)
    return check_expectation(config, report.verdict)


COMMON = ("out", "seed", "name")
COMMANDS = {
    "diagnose": (cmd_diagnose, COMMON + ("family", "p", "H", "E", "delta", "law-dir",
                                         "grid", "tol", "expect")),
    "counterexample": (cmd_counterexample, COMMON + ("p", "grid", "tol", "expect")),
    "theorem-probe": (cmd_theorem_probe, COMMON + ("kernel", "p", "grid", "replicas")),
    "kac": (cmd_kac, COMMON + ("p", "n", "replicas", "lam", "t")),
    "microcanonical": (cmd_microcanonical, COMMON + ("H", "E", "delta", "grid", "tol",
                                                     "expect")),
}


def usage() -> str:
    """The --help text: a usage line, then one line per flag, ending with the
    commands that read it."""
    lines = [f"usage: chaoslab {{{','.join(COMMANDS)}}} [--flag value | --flag=value ...]",
             f"  --config FILE  JSON config file [{', '.join(COMMANDS)}]"]
    for key, (kind, _, text) in OPTIONS.items():
        readers = ", ".join(command for command, (_, keys) in COMMANDS.items() if key in keys)
        value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else key.upper()
        lines.append(f"  --{key} {value}  {text} [{readers}]")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(usage())
        return 0
    try:
        command, flags = read_argv(argv)
        return COMMANDS[command][0](load_config(command, flags))
    except (CapacityError, MemoryError) as exc:
        print(f"capacity error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except ChaoslabError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
