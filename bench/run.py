"""Benchmark of the chaoslab command line, run the way users run it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke [--seed N]

Closed loop, one client: each run is a fresh Python process (child.py) that
imports chaoslab.cli from ./src and calls main(argv) once, and the next run
starts only after it has exited.  Runs are started until the next one would
end after --seconds, with at least MIN_RUNS of them.  The seed is passed to
the CLI as --seed.

Every run is checked: exit code 0, the workload's output gates (closed-form
pins that depend neither on the RNG stream nor on the backend chosen), and
rerun identity (all runs of a set write byte-identical .csv and .meta.json
files).  A run that fails any check counts in `failed`.

run_s is the wall time of main(argv) in reference seconds.  On a machine
shared with other tenants, single-thread speed drifts by tens of percent
over seconds to minutes (seen on a 2-vCPU Intel Xeon VM), so raw wall times
of two sets of runs made minutes apart differ by more than any useful
regression bound.  Each child therefore times a fixed calibration loop (pure
Python and small numpy calls) just before and just after main(argv), and
run_s = wall time * CAL_REF_S / calibration time: the wall time on a machine
where that loop takes CAL_REF_S.  The raw wall times are kept in the run
record.

--trace 0 reports the end-to-end metrics, from untraced runs only.
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of the traced run with the median run time.  Their .s metrics are
self times, which add up to that run's traced main(argv) time (trace.run_s);
trace.overhead_s is the traced median run_s minus the untraced median run_s.
--smoke runs every workload at toy size, once untraced and once traced, and
reports both metric sets.

The last line of stdout is the result JSON.  The run record (machine,
versions, load average, per-run rows, metric sources) is written to
.bench_out/<workload>-seed<N>-trace<T>.json, and the spans of the reported
traced run to .bench_out/<workload>-seed<N>.trace.json.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

from tracer import ROOT as ROOT_SPAN
from tracer import TRACED, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = ROOT / ".bench_out"

MIN_RUNS = 3
MIN_RUNS_TRACED = 4  # two untraced, two traced
CHILD_TIMEOUT_S = 60
CAL_REF_S = 0.13  # reference time of child.calibrate(): its median on a 2-vCPU Xeon VM
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

PRODUCT_P = (0.2, 0.3, 0.5)
PRODUCT_LOGLIK = -1.0296530140645737  # sum p log p, exact for every product law
KAC_P = (0.6, 0.3, 0.1)
PROBE_P = (0.5, 0.3, 0.2)


def csv_arg(values) -> str:
    return ",".join(str(v) for v in values)


def mean_label(p) -> float:
    return math.fsum(v * x for v, x in enumerate(p))


def strictly_decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def column(rows, key) -> list:
    return [float(r[key]) for r in rows]


def check_grid(rows, grid) -> list:
    got = [int(r["n"]) for r in rows]
    return [] if got == list(grid) else [f"csv rows n={got}, expected {list(grid)}"]


# Output gates: (csv rows, meta, grid) -> failure messages.  The bounds are
# the test suite's tolerances for the same quantities.

def gate_product(rows, meta, grid):
    bad = check_grid(rows, grid)
    for r in rows:
        if not float(r["pair_gap"]) < 1e-14:
            bad.append(f"n={r['n']}: pair_gap {r['pair_gap']} not < 1e-14")
        if not abs(float(r["specific_loglik"]) - PRODUCT_LOGLIK) <= 1e-12:
            bad.append(f"n={r['n']}: specific_loglik {r['specific_loglik']} "
                       f"not within 1e-12 of {PRODUCT_LOGLIK!r}")
    if meta.get("verdict") != "chaotic":
        bad.append(f"verdict {meta.get('verdict')!r}, expected 'chaotic'")
    return bad


def gate_microcanonical(rows, meta, grid):
    bad = check_grid(rows, grid)
    if meta.get("verdict") != "chaotic":
        bad.append(f"verdict {meta.get('verdict')!r}, expected 'chaotic'")
    for key in ("pair_gap", "entropy_dev"):
        if not strictly_decreasing(column(rows, key)):
            bad.append(f"{key} not strictly decreasing: {column(rows, key)}")
    return bad


def kac_rows(rows):
    """The ODE row's law and the Monte Carlo row's TV distance to it."""
    by_method = {r["method"]: r for r in rows}
    return ([float(by_method["ode"][f"p{i}"]) for i in range(len(KAC_P))],
            float(by_method["mc"]["tv_to_ode"]))


def gate_kac(rows, meta, grid):
    methods = [r["method"] for r in rows]
    if methods != ["ode", "mc"]:
        return [f"kac rows {methods}, expected ['ode', 'mc']"]
    bad = []
    ode, mc_tv = kac_rows(rows)
    if not mc_tv < 0.02:
        bad.append(f"mc tv_to_ode {mc_tv!r} not < 0.02")
    if not abs(math.fsum(ode) - 1.0) <= 1e-12:
        bad.append(f"ode row sums to {math.fsum(ode)!r}")
    if not abs(mean_label(ode) - mean_label(KAC_P)) <= 1e-9:
        bad.append(f"ode mean label {mean_label(ode)!r} != {mean_label(KAC_P)!r}")
    return bad


def gate_probe(rows, meta, grid):
    bad = check_grid(rows, grid)
    limit = meta.get("limit", [])
    if not abs(mean_label(limit) - mean_label(PROBE_P)) <= 1e-9:
        bad.append(f"limit mean label {mean_label(limit)!r} != {mean_label(PROBE_P)!r}")
    for r in rows:
        for key, value in r.items():
            if key != "n" and not 0.0 <= float(value) <= 1.0:
                bad.append(f"n={r['n']}: {key} {value} outside [0, 1]")
    return bad


def accuracy(name, rows, meta) -> dict:
    """Accuracy next to timing; 0 on workloads that do not produce the figure."""
    acc = {"core.pair_gap_max_err": 0.0, "montecarlo.mc_tv_to_ode": 0.0,
           "meanfield.ode_mass_drift": 0.0}
    if name == "product-grid":
        acc["core.pair_gap_max_err"] = max(column(rows, "pair_gap"))
    elif name == "kac-mc":
        ode, acc["montecarlo.mc_tv_to_ode"] = kac_rows(rows)
        acc["meanfield.ode_mass_drift"] = abs(math.fsum(ode) - 1.0)
    elif name == "theorem-probe":
        acc["meanfield.ode_mass_drift"] = abs(math.fsum(meta["limit"]) - 1.0)
    return acc


@dataclass(frozen=True)
class Workload:
    command: str
    options: tuple
    grid: tuple
    smoke_options: tuple
    smoke_grid: tuple
    gates: Callable

    def argv(self, smoke: bool) -> list:
        options, grid = (self.smoke_options, self.smoke_grid) if smoke else (self.options, self.grid)
        return [self.command, *options] + (["--grid", csv_arg(grid)] if grid else [])

    def expected_grid(self, smoke: bool) -> tuple:
        return self.smoke_grid if smoke else self.grid


# Each workload loads different layers (see "why" in BENCHMARK.json):
# product-grid is core on full-support laws; microcanonical-grid is core and
# diagnostics on sparse laws (about 16% of the enumerated classes kept, each
# law built twice); kac-mc is montecarlo's per-event loop; theorem-probe is
# the only user of kernels (exact expm rows for n <= 12, sampled rows at
# n = 16) and the main user of meanfield.  Sizes are scaled down from the
# usual CLI configs so that one run of --seconds holds several processes.
WORKLOADS = {
    "product-grid": Workload(
        "diagnose", ("--family", "product", "--p", csv_arg(PRODUCT_P)),
        (10, 20, 40, 80, 160, 240),
        ("--family", "product", "--p", csv_arg(PRODUCT_P)), (4, 6, 8),
        gate_product),
    "microcanonical-grid": Workload(
        "microcanonical", ("--H", "0,1,2", "--E", "0.8", "--delta", "0.2", "--tol", "0.05"),
        (30, 60, 120, 240, 360),
        ("--H", "0,1,2", "--E", "0.8", "--delta", "0.2", "--tol", "0.05"), (20, 40, 80),
        gate_microcanonical),
    "kac-mc": Workload(
        "kac", ("--p", csv_arg(KAC_P), "--n", "2000", "--replicas", "200"), (),
        ("--p", csv_arg(KAC_P), "--n", "1000", "--replicas", "20"), (),
        gate_kac),
    "theorem-probe": Workload(
        "theorem-probe", ("--kernel", "kac:1,1", "--p", csv_arg(PROBE_P), "--replicas", "25"),
        (6, 8, 10, 12, 16),
        ("--kernel", "kac:1,0.25", "--p", csv_arg(PROBE_P), "--replicas", "5"), (4, 6, 13),
        gate_probe),
}

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "ratio"),
)

# (name, unit); metrics not named in COMPUTED are measured.
PER_LAYER = tuple(
    [(f"{layer}.{fname}.s", "s") for layer, names in TRACED.items() for fname in names]
    + [
        ("core.enumerate_occupancies.calls", "count"),
        ("core.classes_enumerated", "count"),
        ("core.pair_gap_max_err", "tv"),
        ("diagnostics.microcanonical.calls", "count"),
        ("diagnostics.support_fraction", "ratio"),
        ("kernels.symmetrized_class_kernel.calls", "count"),
        ("kernels.row_entries", "count"),
        ("meanfield.kac_limit_evolve.calls", "count"),
        ("meanfield.rk4_steps", "count"),
        ("meanfield.ode_mass_drift", "mass"),
        ("montecarlo.replicas", "count"),
        ("montecarlo.events", "count"),
        ("montecarlo.us_per_event", "us"),
        ("montecarlo.mc_tv_to_ode", "tv"),
        ("cli.self_s", "s"),
        ("cli.output_bytes", "bytes"),
        ("trace.run_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)
# Computed from the inputs rather than counted: expected Poisson event
# counts, RK4 step counts from t/dt, class counts C(n+k-1, k-1).
COMPUTED = {"montecarlo.events", "montecarlo.us_per_event", "meanfield.rk4_steps",
            "diagnostics.support_fraction"}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "client": "closed loop, 1 client, 1 process at a time",
    }


def read_outputs(out_dir: Path, stem: str):
    csv_bytes = (out_dir / f"{stem}.csv").read_bytes()
    meta_bytes = (out_dir / f"{stem}.meta.json").read_bytes()
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    return csv_bytes, meta_bytes, rows, json.loads(meta_bytes)


def run_once(name: str, wl: Workload, argv: list, run_dir: Path, traced: bool,
             smoke: bool, reference: dict) -> dict:
    """Start one child process, wait for it, and check its outputs."""
    run_dir.mkdir(parents=True)
    result_path, trace_path = run_dir / "result.json", run_dir / "trace.json"
    cmd = [sys.executable, str(CHILD), str(SRC), str(result_path),
           str(trace_path) if traced else "-", "--", *argv, "--out", str(run_dir)]
    run = {"traced": traced, "failures": []}
    launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        run["failures"].append(f"timed out after {CHILD_TIMEOUT_S} s")
        run["timed_out"] = True
        return run
    finally:
        run["wall_s"] = time.monotonic() - launch
    if proc.returncode != 0 or not result_path.is_file():
        run["failures"].append(f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return run
    result = json.loads(result_path.read_text())
    run.update(setup_s=result["ready"] - launch, wall_run_s=result["run_s"],
               cal_s=result["cal_s"], run_s=result["run_s"] * CAL_REF_S / result["cal_s"],
               peak_rss_mb=result["maxrss_kb"] / 1024.0)
    if result["rc"] != 0:
        run["failures"].append(f"chaoslab exit code {result['rc']}: {proc.stderr.strip()[-400:]}")
        return run
    try:
        csv_bytes, meta_bytes, rows, meta = read_outputs(run_dir, wl.command)
        run["failures"] += wl.gates(rows, meta, wl.expected_grid(smoke))
        run["accuracy"] = accuracy(name, rows, meta)
    except (OSError, ValueError, KeyError) as exc:
        run["failures"].append(f"unreadable outputs: {exc!r}")
        return run
    run["output_bytes"] = len(csv_bytes) + len(meta_bytes)
    reference.setdefault("bytes", (csv_bytes, meta_bytes))
    if reference["bytes"] != (csv_bytes, meta_bytes):
        run["failures"].append("rerun identity: outputs differ from the set's first run")
    if traced:
        run["spans"] = json.loads(trace_path.read_text())["spans"]
    return run


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    wl = WORKLOADS[name]
    argv = wl.argv(smoke) + ["--seed", str(seed)]
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    min_runs = 2 if smoke else (MIN_RUNS_TRACED if trace else MIN_RUNS)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "argv": argv, "machine": machine_record(),
              "loadavg_start": os.getloadavg()}
    runs, reference = [], {}
    deadline = time.monotonic() + seconds
    try:
        while True:
            traced = trace and len(runs) % 2 == 1
            runs.append(run_once(name, wl, argv, work / f"run{len(runs)}", traced,
                                 smoke, reference))
            if runs[-1].get("timed_out"):
                break  # a hung program stays hung; do not wait out more timeouts
            if len(runs) >= min_runs:
                typical = statistics.median(r["wall_s"] for r in runs)
                if smoke or time.monotonic() + typical > deadline:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_end"] = os.getloadavg()
    record["runs"] = [{k: v for k, v in r.items() if k != "spans"} for r in runs]
    return {"record": record, "runs": runs}


def median_of(runs, key) -> float:
    return statistics.median(r[key] for r in runs)


def end_to_end_metrics(runs) -> dict:
    timed = [r for r in runs if "run_s" in r]
    untraced = [r for r in timed if not r["traced"]]
    failed = sum(1 for r in runs if r["failures"])
    return {
        "setup_s": median_of(timed, "setup_s"),
        "run_s": median_of(untraced, "run_s"),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        "pass_rate": (len(runs) - failed) / len(runs),
    }


def per_layer_metrics(runs) -> tuple:
    """Per-layer metrics of the median traced run, and a span-accounting check."""
    traced = sorted((r for r in runs if r["traced"] and "spans" in r), key=lambda r: r["run_s"])
    untraced = [r for r in runs if not r["traced"] and "run_s" in r]
    run = traced[(len(traced) - 1) // 2]
    self_s, calls, counts = summarize(run["spans"])
    root = next(s for s in run["spans"] if s[0] == ROOT_SPAN and s[3] == -1)
    traced_run_s = root[2] - root[1]
    m = {f"{name}.s": self_s.get(name, 0.0)
         for name in (f"{layer}.{f}" for layer, names in TRACED.items() for f in names)}
    events = counts.get("events", 0.0)
    m.update({
        "core.enumerate_occupancies.calls": calls.get("core.enumerate_occupancies", 0),
        "core.classes_enumerated": counts.get("classes", 0),
        "diagnostics.microcanonical.calls": calls.get("diagnostics.microcanonical", 0),
        "diagnostics.support_fraction": (counts["support"] / counts["enumerated"]
                                         if counts.get("enumerated") else 0.0),
        "kernels.symmetrized_class_kernel.calls": calls.get("kernels.symmetrized_class_kernel", 0),
        "kernels.row_entries": counts.get("row_entries", 0),
        "meanfield.kac_limit_evolve.calls": calls.get("meanfield.kac_limit_evolve", 0),
        "meanfield.rk4_steps": counts.get("rk4_steps", 0),
        "montecarlo.replicas": calls.get("montecarlo.simulate_kac", 0),
        "montecarlo.events": events,
        "montecarlo.us_per_event": (1e6 * self_s["montecarlo.simulate_kac"] / events
                                    if events else 0.0),
        "cli.self_s": self_s[ROOT_SPAN],
        "cli.output_bytes": run["output_bytes"],
        "trace.run_s": traced_run_s,
        "trace.overhead_s": (statistics.median(r["run_s"] for r in traced)
                             - median_of(untraced, "run_s")),
        **run["accuracy"],
    })
    # Self times partition the root span, so they must add up to its duration.
    layer_sum = math.fsum(v for k, v in m.items() if k.endswith(".s") or k == "cli.self_s")
    problems = [] if abs(layer_sum - traced_run_s) <= 1e-6 else [
        f"layer self times add up to {layer_sum:.6f} s, traced run_s is {traced_run_s:.6f} s"]
    return m, problems, run["spans"]


def with_units(values: dict, table) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in table}


def usable(runs, trace: bool) -> bool:
    ok = [r for r in runs if not r["failures"]]
    return any(not r["traced"] for r in ok) and (not trace or any(r["traced"] for r in ok))


def report(name: str, seed: int, trace: bool, measured: dict, smoke: bool = False):
    """Metrics, problems and attempted/failed counts of one measured set; saves the record."""
    runs, record = measured["runs"], measured["record"]
    problems = [f"run {i}: {msg}" for i, r in enumerate(runs) for msg in r["failures"]]
    metrics = {}
    if not usable(runs, trace):
        problems.append("no successful run of a needed kind")
    else:
        metrics.update(with_units(end_to_end_metrics(runs), END_TO_END))
        if trace:
            layer, accounting, spans = per_layer_metrics(runs)
            problems += accounting
            metrics.update(with_units(layer, PER_LAYER))
            (OUT / f"{name}-seed{seed}.trace.json").write_text(json.dumps({"spans": spans}))
            record["sources"] = {k: "computed" if k in COMPUTED else "measured" for k, _ in PER_LAYER}
    walls = [r["wall_run_s"] for r in runs if "wall_run_s" in r and not r["traced"]]
    record["raw_wall_run_s_median"] = statistics.median(walls) if walls else None
    record["metrics"], record["problems"] = metrics, problems
    tag = "smoke" if smoke else f"trace{int(trace)}"
    (OUT / f"{name}-seed{seed}-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    failed = sum(1 for r in runs if r["failures"])
    return metrics, problems, len(runs), failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size, untraced and traced")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "chaoslab" / "cli.py").is_file():
        print(f"bench: no chaoslab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print("machine: " + json.dumps(machine_record()))

    names = sorted(WORKLOADS) if args.smoke else [args.workload]
    trace = args.smoke or bool(args.trace)
    all_metrics, all_problems, attempted, failed = {}, [], 0, 0
    for name in names:
        measured = measure(name, args.seed, 0 if args.smoke else args.seconds, trace, args.smoke)
        metrics, problems, n_runs, n_failed = report(name, args.seed, trace, measured, args.smoke)
        attempted += n_runs
        failed += n_failed
        all_problems += [f"{name}: {p}" for p in problems]
        if args.smoke:
            all_metrics.update({f"{name}/{k}": v for k, v in metrics.items()})
        else:
            wanted = PER_LAYER if args.trace else END_TO_END
            all_metrics = {k: metrics[k] for k, _ in wanted if k in metrics}
        print(f"{name} seed={args.seed}: {n_runs} runs, {n_failed} failed; "
              + ", ".join(f"{k}={metrics[k]['value']:.6g}" for k, _ in END_TO_END if k in metrics))
    for problem in all_problems:
        print(f"FAILED {problem}")
    if not all_metrics:
        print("bench: no usable run, no metrics", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not all_problems, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
