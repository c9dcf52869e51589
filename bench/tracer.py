"""In-memory spans around the public functions of each chaoslab layer.

`Tracer.install()` wraps every function named in TRACED and rebinds the
wrapper, by name, in every loaded chaoslab module whose namespace holds the
original, so calls made from inside a layer are attributed as well as calls
from the CLI.  Per-element helpers (class_size, occupancy_of,
PairRule.sample) stay unwrapped: they run ~1e5 times per run and their time
lands in the self time of whichever traced function called them.

A span is [name, start, end, parent index, counts]; `counts` holds the work
counters of COUNTERS, taken from the call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from time import perf_counter

TRACED = {
    "core": ("product_law", "marginal", "specific_loglik", "mean_empirical_tv",
             "tv_distance", "enumerate_occupancies"),
    "diagnostics": ("chaos_verdict", "pair_gap", "microcanonical",
                    "entropy_convergence", "microcanonical_limit"),
    "kernels": ("make_kernel", "symmetrized_class_kernel", "propagate"),
    "meanfield": ("kac_limit_evolve", "continuity_probe"),
    "montecarlo": ("simulate_kac", "iid_state", "replica_rng"),
    "cli": ("write_outputs",),
}
ROOT = "cli.main"


def _classes(args, out):
    return {"classes": len(out)}


def _support(args, out):
    n, k = args["n"], args["model"].space.k
    return {"support": len(out.classes), "enumerated": math.comb(n + k - 1, k - 1)}


def _row_entries(args, out):
    return {"row_entries": sum(len(row) for row in out.values())}


def _rk4_steps(args, out):
    t, dt = args["t"], args["dt"]
    return {"rk4_steps": 0 if t == 0 else max(1, math.ceil(t / dt))}


def _events(args, out):
    return {"events": args["t"] * args["lam"] * (args["start"].n - 1) / 2.0}


# Work counters per traced function: (arguments bound by name, result) -> counts.
COUNTERS = {
    "core.enumerate_occupancies": _classes,
    "diagnostics.microcanonical": _support,
    "kernels.symmetrized_class_kernel": _row_entries,
    "meanfield.kac_limit_evolve": _rk4_steps,
    "montecarlo.simulate_kac": _events,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = counter(bound.arguments, out)
            return out

        return traced

    def install(self):
        """Wrap every TRACED function in each chaoslab namespace that holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "chaoslab" or name.startswith("chaoslab.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"chaoslab.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapped)


def summarize(spans):
    """Self time, call count and summed counters per span name.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s, calls, counts = {}, {}, {}
    for i, (name, start, end, _, c) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
        calls[name] = calls.get(name, 0) + 1
        for key, value in (c or {}).items():
            counts[key] = counts.get(key, 0) + value
    return self_s, calls, counts
