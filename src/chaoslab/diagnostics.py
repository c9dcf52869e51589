"""Chaoticity diagnostics for sequences of symmetric laws.

The equivalent finite-space criteria measured here: decay of the
two-particle (and k-particle) marginal gap against a product law,
concentration of the empirical measure, and the specific log-likelihood
limit.  Also builds microcanonical ensembles and fits the matching
Gibbs one-particle law.
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
    occupancy_array,
    product_law,
    specific_loglik,
    tv_distance,
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
        # The exact window test in _in_window reads these as decimals.
        if not all(math.isfinite(x) for x in H + (self.E, self.delta)):
            raise InvalidArgumentError("energies, E and delta must be finite")
        if self.delta <= 0:
            raise InvalidArgumentError("window width delta must be positive")


@dataclass
class ReportRow:
    n: int
    pair_gap: float
    k_gap: Optional[float]
    concentration_gap: float
    specific_loglik: float


@dataclass
class ChaosReport:
    rows: list
    limit: Distribution
    verdict: str
    slope: Optional[float]
    tol: float

    CSV_HEADER = "n,pair_gap,k_gap,concentration_gap,specific_loglik"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            kg = "" if r.k_gap is None else f"{r.k_gap:.17g}"
            lines.append(
                f"{r.n},{r.pair_gap:.17g},{kg},"
                f"{r.concentration_gap:.17g},{r.specific_loglik:.17g}"
            )
        return "\n".join(lines) + "\n"

    def meta(self) -> dict:
        return {
            "verdict": self.verdict,
            "slope": self.slope,
            "limit": list(self.limit.p),
        }


def pair_gap(law: SymmetricLaw, rho: Distribution) -> float:
    """TV gap between the two-particle marginal and the product rho x rho."""
    if law.n < 2:
        raise InvalidArgumentError("pair gap needs at least two particles")
    return tv_distance(marginal(law, 2), product_law(rho, 2))


def k_gap(law: SymmetricLaw, rho: Distribution, k: int) -> float:
    """TV gap between the k-particle marginal and the k-fold product of rho."""
    if not 2 <= k <= law.n:
        raise InvalidArgumentError(f"marginal order {k} out of range 2..{law.n}")
    return tv_distance(marginal(law, k), product_law(rho, k))


def functional_gap(law, rho, phi1: Sequence, phi2: Sequence) -> float:
    """Gap in the bilinear two-particle statistic E[phi1(X1) phi2(X2)]."""
    if law.n < 2:
        raise InvalidArgumentError("functional gap needs at least two particles")
    pair = marginal(law, 2)
    k = law.space.k
    joint = np.zeros((k, k))
    for m, mass in pair.items():
        # The class {u, v} holds the ordered pairs (u, v) and (v, u); for
        # u == v both halves land on the one point (u, u).
        u, v = [i for i, mi in enumerate(m) for _ in range(mi)]
        joint[u, v] += mass / 2
        joint[v, u] += mass / 2
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    lhs = float(phi1 @ joint @ phi2)
    rho_arr = rho.as_array()
    return abs(lhs - float(phi1 @ rho_arr) * float(phi2 @ rho_arr))


def _fit_slope(grid, gaps) -> Optional[float]:
    pts = [(math.log(n), math.log(g)) for n, g in zip(grid, gaps) if g > ZERO_GAP]
    if len(pts) < 2:
        return None
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    return float(np.polyfit(xs, ys, 1)[0])


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
    marginal_order: Optional[int] = None,
) -> ChaosReport:
    """Evaluate the chaos criteria for a law family over an n-grid.

    `family` maps n to a symmetric law on S^n; `rho` is the candidate
    one-particle limit.  The verdict combines the final pair gap with the
    fitted log-log decay slope.
    """
    grid = [int(n) for n in grid]
    if len(grid) < 3 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidArgumentError("grid must be strictly increasing with length >= 3")
    rows = []
    for n in grid:
        try:
            law = family(n)
        except ChaoslabError as exc:
            raise type(exc)(f"law family failed at n={n}: {exc}") from exc
        except Exception as exc:
            raise RuntimeError(f"law family failed at n={n}") from exc
        kg = None
        if marginal_order is not None:
            kg = k_gap(law, rho, marginal_order)
        rows.append(
            ReportRow(
                n=n,
                pair_gap=pair_gap(law, rho),
                k_gap=kg,
                concentration_gap=mean_empirical_tv(law, rho),
                specific_loglik=specific_loglik(law),
            )
        )
    slope = _fit_slope(grid, [r.pair_gap for r in rows])
    verdict = _verdict(rows[-1].pair_gap, slope, tol)
    return ChaosReport(rows=rows, limit=rho, verdict=verdict, slope=slope, tol=tol)


def _in_window(model: EnergyModel, occ: np.ndarray, n: int) -> np.ndarray:
    """Rows of `occ` whose mean energy lies in the open window, decided exactly.

    H, E and delta are read as the decimals they print as; over a common
    denominator D the test lo < occ.H / n < hi becomes the integer test
    n*lo*D < occ.(H*D) < n*hi*D.
    """
    # Imported here: fractions pulls in decimal, which every other command
    # would pay for at start-up.
    from fractions import Fraction

    H = [Fraction(str(h)) for h in model.H]
    half = Fraction(str(model.delta)) / 2
    lo, hi = Fraction(str(model.E)) - half, Fraction(str(model.E)) + half
    D = math.lcm(*(x.denominator for x in H + [lo, hi]))
    weights = [int(h * D) for h in H]
    lo_n, hi_n = int(lo * D) * n, int(hi * D) * n
    bound = n * max(abs(x) for x in weights + [lo_n, hi_n, 1])
    if bound < 2**62:
        energy = occ @ np.array(weights, dtype=np.int64)
    else:
        energy = occ.astype(object) @ np.array(weights, dtype=object)
    return (lo_n < energy) & (energy < hi_n)


def microcanonical(model: EnergyModel, n: int) -> SymmetricLaw:
    """Uniform law on ordered states with mean energy in the open window.

    Class mass is proportional to class size on qualifying occupancies, so
    every ordered state in the support is equiprobable.
    """
    occ = occupancy_array(model.space.k, n)
    inside = _in_window(model, occ, n)
    if not inside.any():
        lo = model.E - model.delta / 2.0
        hi = model.E + model.delta / 2.0
        raise EmptyEnsembleError(
            f"no state of n={n} particles has mean energy in "
            f"({lo:g}, {hi:g}) for E={model.E:g}, delta={model.delta:g}"
        )
    return _uniform_on_classes(model.space, n, occ[inside])


def _gibbs_weights(H: np.ndarray, beta: float) -> np.ndarray:
    w = np.exp(-beta * (H - H.min() if beta >= 0 else H - H.max()))
    return w / w.sum()


def _gibbs_mean_energy(H: np.ndarray, beta: float) -> float:
    return float(_gibbs_weights(H, beta) @ H)


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
        if abs(_gibbs_mean_energy(H, beta) - model.E) < 1e-12:
            break
        if _gibbs_mean_energy(H, beta) > model.E:
            lo = beta
        else:
            hi = beta
    gamma = Distribution(model.space, tuple(_gibbs_weights(H, beta)))
    residual = float(gamma.as_array() @ H) - model.E
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
