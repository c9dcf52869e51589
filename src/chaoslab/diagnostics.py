"""Chaoticity diagnostics for sequences of symmetric laws.

The equivalent finite-space criteria measured here: decay of the
two-particle marginal gap against a product law, concentration of the
empirical measure, and the specific log-likelihood limit.  The pair gap
suffices: for exchangeable laws pair chaos implies chaos of every
marginal order (Sznitman 1991, Prop. 2.2).  It is read from the ordered
k x k pair marginal, exact (`core.marginal(law, 2)`) or a Monte Carlo
estimate.  `chaos_verdict` computes each of the per-n numbers once, into
one `ReportRow` per grid point, and the CLI reads them from there.  Also builds microcanonical ensembles and fits
the matching Gibbs one-particle law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Distribution,
    StateSpace,
    SymmetricLaw,
    _uniform_on_classes,
    marginal,
    mean_empirical_tv,
    specific_loglik,
    window_occupancies,
)
from .errors import (
    ChaoslabError,
    DegenerateModelError,
    EmptyEnsembleError,
    InfeasibleEnergyError,
    InvalidArgumentError,
)

DEFAULT_TOL = 1e-3
SLOPE_CUTOFF = -0.2
# Gaps at this level are accumulated float error from exactly-zero
# quantities; treating them as data would poison the log-log slope fit.
ZERO_GAP = 1e-14
SLOPE_ZERO = 1e-9
# Largest |mean energy - E| accepted from the fitted Gibbs law.
GIBBS_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class EnergyModel:
    """Per-state energies with a target mean energy and window width."""

    space: StateSpace
    H: tuple
    E: float
    delta: float

    def __post_init__(self):
        H = tuple(float(x) for x in self.H)
        object.__setattr__(self, "H", H)
        if len(H) != self.space.k:
            raise InvalidArgumentError("energy vector length != k")
        # microcanonical reads these as the decimals they print as.
        if not all(math.isfinite(x) for x in H + (self.E, self.delta)):
            raise InvalidArgumentError("energies, E and delta must be finite")
        if self.delta <= 0:
            raise InvalidArgumentError("window width delta must be positive")


@dataclass
class ReportRow:
    n: int
    pair_gap: float
    concentration_gap: float
    specific_loglik: float


@dataclass
class ChaosReport:
    rows: list
    limit: Distribution
    verdict: str
    slope: Optional[float]
    slope_dropped: list  # the grid n whose pair gap the slope fit left out

    def meta(self) -> dict:
        return {
            "verdict": self.verdict,
            "slope": self.slope,
            "slope_dropped": self.slope_dropped,
            "limit": list(self.limit.p),
        }


def pair_gap(pair: np.ndarray, rho: Distribution) -> float:
    """TV gap between an ordered (k, k) pair marginal, such as
    `marginal(law, 2)` or a Monte Carlo estimate of it, and rho x rho:
    half the sum of |pair - rho rho^T| over the ordered pairs."""
    q = rho.as_array()
    if np.shape(pair) != (len(q), len(q)):
        raise InvalidArgumentError(f"pair marginal of shape {np.shape(pair)} for k={len(q)}")
    return 0.5 * math.fsum(np.abs(pair - np.outer(q, q)).ravel().tolist())


def _fit_slope(grid, gaps) -> Optional[float]:
    """Least-squares slope of log gap on log n over the gaps above ZERO_GAP,
    from centred sums; None when they hold fewer than two distinct log n
    (log n = log(n + 1) in doubles from about n = 10**15)."""
    pts = [(math.log(n), math.log(g)) for n, g in zip(grid, gaps) if g > ZERO_GAP]
    if len({x for x, _ in pts}) < 2:
        return None
    x0 = math.fsum(x for x, _ in pts) / len(pts)
    y0 = math.fsum(y for _, y in pts) / len(pts)
    return (math.fsum((x - x0) * (y - y0) for x, y in pts)
            / math.fsum((x - x0) ** 2 for x, _ in pts))


def _verdict(final_gap: float, slope: Optional[float], tol: float) -> str:
    # With all-zero gaps the log-log slope is undefined; exact zeros are
    # treated as maximally decaying.
    if final_gap < tol and (slope is None or slope < SLOPE_CUTOFF):
        return "chaotic"
    if final_gap > 10 * tol and slope is not None and slope >= -SLOPE_ZERO:
        return "not-chaotic"
    return "inconclusive"


def chaos_verdict(
    family: Callable[[int], SymmetricLaw],
    rho: Distribution,
    grid: Sequence,
    tol: float = DEFAULT_TOL,
) -> ChaosReport:
    """Evaluate the chaos criteria for a law family over an n-grid.

    `family` maps n to a symmetric law on S^n and is called once per n;
    `rho` is the candidate one-particle limit.  Each row holds that law's
    pair gap, concentration gap and specific log-likelihood.  The verdict
    combines the final pair gap with the fitted log-log decay slope; `tol`
    must be finite and > 0.
    """
    grid = [int(n) for n in grid]
    if len(grid) < 3 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidArgumentError("grid must be strictly increasing with length >= 3")
    if not 0.0 < tol < math.inf:
        raise InvalidArgumentError(f"tol must be finite and > 0, got {tol}")
    rows = []
    for n in grid:
        try:
            law = family(n)
        except ChaoslabError as exc:
            raise type(exc)(f"law family failed at n={n}: {exc}") from exc
        if law.n != n:
            raise InvalidArgumentError(f"law family gave a law of n={law.n} at n={n}")
        rows.append(
            ReportRow(
                n=n,
                pair_gap=pair_gap(marginal(law, 2), rho),
                concentration_gap=mean_empirical_tv(law, rho),
                specific_loglik=specific_loglik(law),
            )
        )
    slope = _fit_slope(grid, [r.pair_gap for r in rows])
    verdict = _verdict(rows[-1].pair_gap, slope, tol)
    dropped = [r.n for r in rows if not r.pair_gap > ZERO_GAP]
    return ChaosReport(rows=rows, limit=rho, verdict=verdict, slope=slope,
                       slope_dropped=dropped)


def _decimal(x) -> tuple:
    """(m, e), integers with m * 10**e the decimal that x prints as: the
    digits and exponent of str(x), read without fractions or decimal."""
    digits, _, exponent = str(x).partition("e")
    whole, _, fraction = digits.partition(".")
    return int(whole + fraction), int(exponent or 0) - len(fraction)


def microcanonical(model: EnergyModel, n: int) -> SymmetricLaw:
    """Uniform law on ordered states with mean energy in the open window.

    H, E and delta are read as the decimals they print as, so the window
    E - delta/2 < m.H / n < E + delta/2 is decided exactly: scaled by 2n
    and a common power of ten it is an integer window on the energy
    m.(2H), whose classes `window_occupancies` lists without building the
    rest of the class space.  Class mass is proportional to class size on
    those classes, so every ordered state in the support is equiprobable.
    """
    decimals = [_decimal(x) for x in model.H + (model.E, model.delta)]
    shift = max(0, *(-e for _, e in decimals))
    *H, E, delta = [m * 10 ** (e + shift) for m, e in decimals]
    occ = window_occupancies([2 * h for h in H], n * (2 * E - delta), n * (2 * E + delta), n)
    if not len(occ):
        lo = model.E - model.delta / 2.0
        hi = model.E + model.delta / 2.0
        raise EmptyEnsembleError(
            f"no state of n={n} particles has mean energy in "
            f"({lo:g}, {hi:g}) for E={model.E:g}, delta={model.delta:g}"
        )
    return _uniform_on_classes(model.space, n, occ)


def _gibbs_weights(H: np.ndarray, beta: float) -> np.ndarray:
    w = np.exp(-beta * (H - H.min() if beta >= 0 else H - H.max()))
    return w / w.sum()


def _gibbs_mean_energy(H: np.ndarray, beta: float) -> float:
    # fsum, not w @ H: a first BLAS call adds about 0.15 MB of peak RSS, and
    # the dot product's rounding depends on the BLAS kernel chosen at run time.
    return math.fsum((_gibbs_weights(H, beta) * H).tolist())


def fit_gibbs(model: EnergyModel):
    """Inverse temperature and one-particle Gibbs law matching mean energy E.

    beta solves sum_s gamma_beta(s) H(s) = E by bisection; the map
    beta -> mean energy is strictly decreasing for non-constant H.
    """
    H = np.array(model.H, dtype=float)
    if H.max() == H.min():
        raise DegenerateModelError("constant energy function: beta is unidentifiable")
    if not H.min() < model.E < H.max():
        raise InfeasibleEnergyError(
            f"target mean energy {model.E:g} outside open range "
            f"({H.min():g}, {H.max():g})"
        )
    lo, hi = -1.0, 1.0
    while _gibbs_mean_energy(H, lo) < model.E:
        lo *= 2.0
    while _gibbs_mean_energy(H, hi) > model.E:
        hi *= 2.0
    beta = 0.0
    for _ in range(200):
        beta = 0.5 * (lo + hi)
        mean = _gibbs_mean_energy(H, beta)
        if abs(mean - model.E) < 1e-12:
            break
        if mean > model.E:
            lo = beta
        else:
            hi = beta
    gamma = Distribution(model.space, tuple(_gibbs_weights(H, beta)))
    residual = math.fsum(g * h for g, h in zip(gamma.p, model.H)) - model.E
    if not abs(residual) < GIBBS_RESIDUAL_TOL:
        raise InfeasibleEnergyError(
            f"Gibbs fit misses mean energy {model.E:g}: residual {residual:.3g} "
            f"at beta={beta:.17g}"
        )
    return beta, gamma


def microcanonical_limit(model: EnergyModel):
    """Inverse temperature and Gibbs law the microcanonical family converges to.

    The microcanonical ensembles concentrate on the entropy-maximizing
    empirical measure whose mean energy lies in the window.  When the
    unconstrained maximizer (the uniform law, mean energy mean(H)) falls
    outside the window, the constraint binds at the nearer window edge, so
    the effective mean energy is mean(H) clipped to the window, not
    necessarily the midpoint E.
    """
    H = np.array(model.H, dtype=float)
    lo = model.E - model.delta / 2.0
    hi = model.E + model.delta / 2.0
    e_eff = min(max(float(H.mean()), lo), hi)
    fitted = EnergyModel(model.space, model.H, e_eff, model.delta)
    return fit_gibbs(fitted)


def entropy_convergence(
    family: Callable[[int], SymmetricLaw], p: Distribution, grid: Sequence
) -> list:
    """Per-n specific log-likelihood and its deviation from sum p log p."""
    grid = [int(n) for n in grid]
    if not grid:
        raise InvalidArgumentError("grid must be nonempty")
    limit = math.fsum(pi * math.log(pi) for pi in p.p if pi > 0.0)
    rows = []
    for n in grid:
        sll = specific_loglik(family(n))
        rows.append((n, sll, abs(sll - limit)))
    return rows
