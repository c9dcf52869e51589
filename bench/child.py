"""One benchmark run in a fresh process: import chaoslab.cli, then call main(argv).

    python3 bench/child.py SRC RESULT_JSON TRACE_JSON|- -- ARGV...

The first thing the process does is import chaoslab.cli from SRC, so the
parent can time set-up from process launch to `ready`.  RESULT_JSON gets
the ready timestamp (CLOCK_MONOTONIC, shared across processes), the wall
time of main(argv), the time of a fixed calibration loop run just before
and just after main, its exit code and the process's peak RSS.  With a
trace path, the public functions of each layer are wrapped first (see
tracer.py) and the spans are written to TRACE_JSON after main returns.
"""

import sys
import time

src, result_path, trace_path, sep, *argv = sys.argv[1:]
sys.path.insert(0, src)
import chaoslab.cli  # noqa: E402

ready = time.monotonic()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

CAL_ITERS = 75_000
CAL_NUMPY_ITERS = 6_000


def calibrate() -> float:
    """Time a fixed mix of pure-Python work (dicts, tuples, big ints) and small
    numpy calls, the two kinds of work chaoslab spends its time on, to track
    the machine's current speed."""
    start = time.perf_counter()
    acc = {}
    for i in range(CAL_ITERS):
        key = (i % 997, i % 13)
        acc[key] = acc.get(key, 0) + math.factorial(i % 40) // (1 + i % 7)
    rng = np.random.default_rng(0)
    kappa = np.full((3, 3, 3), 1.0 / 9.0)
    p = np.array([0.5, 0.3, 0.2])
    for _ in range(CAL_NUMPY_ITERS):
        p = 0.5 * p + 0.5 * np.einsum("vuw,u,w->v", kappa, p, p)
        rng.integers(10)
    return time.perf_counter() - start


if sep != "--" or not Path(chaoslab.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
    sys.exit(f"child: bad arguments or chaoslab not imported from {src}")

main = chaoslab.cli.main
tracer = None
if trace_path != "-":
    from tracer import ROOT, Tracer

    tracer = Tracer()
    tracer.install()
    main = tracer.wrap(ROOT, main)

cal_before = calibrate()
start = time.perf_counter()
rc = main(argv)
run_s = time.perf_counter() - start
cal_after = calibrate()

if tracer is not None:
    Path(trace_path).write_text(json.dumps({"spans": tracer.spans}))
Path(result_path).write_text(json.dumps({
    "ready": ready,
    "run_s": run_s,
    "cal_s": (cal_before + cal_after) / 2,
    "rc": rc,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
