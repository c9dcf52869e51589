"""One-particle limit maps for the bundled particle dynamics.

Each kernel constructor in `kernels` sets `kernel.limit` from the maps
here: a deterministic coordinatewise map pushes a one-particle law forward
exactly, and the Kac collision chain gets a Boltzmann-type quadratic ODE
whose collision kernel is the expected one-particle marginal of its pair
rule.  The pair rules live here because both the n-particle chain and the
ODE are derived from them.  The ODE form is validated against particle
simulation, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Distribution, StateSpace, tv_distance
from .errors import IntegrationError, InvalidArgumentError

DEFAULT_DT = 1e-3
SIMPLEX_DRIFT_LIMIT = 1e-6


class PairRule:
    """A symmetric stochastic map on pairs of states.

    `outcomes(u, w)` lists ((a, b), prob) for the post-collision ordered pair.
    Symmetry requirement: the unordered outcome law must not depend on the
    order of (u, w).
    """

    def outcomes(self, u: int, w: int):
        raise NotImplementedError

    def sample(self, u: int, w: int, rng) -> tuple:
        outs = self.outcomes(u, w)
        r = rng.random()
        acc = 0.0
        for (a, b), pr in outs:
            acc += pr
            if r < acc:
                return a, b
        return outs[-1][0]


class SumConservingRule(PairRule):
    """Resample uniformly among ordered pairs with the same label sum.

    A discrete caricature of an energy-conserving collision: the pair
    (u, w) becomes any (a, b) with a + b = u + w, all equally likely.
    """

    def __init__(self, k: int):
        self.k = k
        self._table = {}
        for total in range(2 * k - 1):
            admissible = [
                (a, total - a)
                for a in range(max(0, total - k + 1), min(k - 1, total) + 1)
            ]
            pr = 1.0 / len(admissible)
            self._table[total] = [(ab, pr) for ab in admissible]

    def outcomes(self, u: int, w: int):
        return self._table[u + w]


def check_rate_and_time(lam: float, t: float) -> None:
    """Reject a collision rate or time horizon that is not finite and in range."""
    if not (0 < lam < math.inf and 0 <= t < math.inf):
        raise InvalidArgumentError(f"need finite lam > 0 and t >= 0, got lam={lam}, t={t}")


def pushforward(p: Distribution, f, target: Optional[StateSpace] = None) -> Distribution:
    """Image law of p under a state map: q(t) = sum over f(s) = t of p(s)."""
    target = target or p.space
    fmap = [int(f(s)) if callable(f) else int(f[s]) for s in range(p.space.k)]
    q = [0.0] * target.k
    for s, mass in enumerate(p.p):
        q[fmap[s]] += mass
    return Distribution(target, tuple(q))


def collision_marginal_tensor(k: int, rule: Optional[PairRule] = None) -> np.ndarray:
    """kappa[v, u, w]: chance a uniformly chosen output slot lands on v."""
    rule = rule or SumConservingRule(k)
    kappa = np.zeros((k, k, k))
    for u in range(k):
        for w in range(k):
            for (a, b), pr in rule.outcomes(u, w):
                kappa[a, u, w] += 0.5 * pr
                kappa[b, u, w] += 0.5 * pr
    return kappa


def kac_limit_rhs(p: Distribution, lam: float, rule: Optional[PairRule] = None) -> np.ndarray:
    """Right-hand side lam * (Q(p) - p) of the collision limit equation.

    Q(p)(v) = sum_{u,w} p(u) p(w) kappa(v | u, w); the output sums to zero.
    """
    kappa = collision_marginal_tensor(p.space.k, rule)
    return _rhs_from_tensor(p.as_array(), lam, kappa)


def _rhs_from_tensor(p: np.ndarray, lam: float, kappa: np.ndarray) -> np.ndarray:
    return lam * (np.einsum("vuw,u,w->v", kappa, p, p) - p)


def kac_limit_evolve(
    p0: Distribution,
    lam: float,
    t: float,
    dt: float = DEFAULT_DT,
    rule: Optional[PairRule] = None,
) -> Distribution:
    """Integrate the collision limit equation with classic RK4.

    Tiny negative drift (< 1e-12) is clamped and renormalized; anything
    leaving the simplex further than 1e-6 aborts with advice to shrink dt.
    """
    check_rate_and_time(lam, t)
    if not dt > 0:
        raise InvalidArgumentError("need dt > 0")
    if t == 0:
        return p0
    kappa = collision_marginal_tensor(p0.space.k, rule)
    steps = max(1, int(math.ceil(t / dt)))
    h = t / steps
    p = p0.as_array()
    for _ in range(steps):
        k1 = _rhs_from_tensor(p, lam, kappa)
        k2 = _rhs_from_tensor(p + 0.5 * h * k1, lam, kappa)
        k3 = _rhs_from_tensor(p + 0.5 * h * k2, lam, kappa)
        k4 = _rhs_from_tensor(p + h * k3, lam, kappa)
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = max(-p.min(initial=0.0), abs(p.sum() - 1.0))
        if drift > SIMPLEX_DRIFT_LIMIT:
            raise IntegrationError(
                f"state left the simplex by {drift:g}; reduce dt below {dt:g}"
            )
        p = np.where(p < 0.0, 0.0, p)
        p = p / p.sum()
    return Distribution(p0.space, tuple(p))


@dataclass
class ContinuityReport:
    radius: float
    modulus: float
    samples: int


def continuity_probe(
    F: Callable[[Distribution], Distribution],
    p: Distribution,
    radius: float,
    samples: int,
    seed,
) -> ContinuityReport:
    """Empirical local modulus of continuity of a limit map F at p.

    Samples laws q with tv(p, q) <= radius and reports the largest
    tv(F(p), F(q)) observed.
    """
    if not 0 < radius <= 1:
        raise InvalidArgumentError("radius must lie in (0, 1]")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k = p.space.k
    fp = F(p)
    modulus = 0.0
    for _ in range(samples):
        r = Distribution(p.space, tuple(rng.dirichlet(np.ones(k))))
        gap = tv_distance(r, p)
        if gap == 0.0:
            continue
        alpha = rng.random() * min(1.0, radius / gap)
        q = Distribution(
            p.space, tuple((1 - alpha) * np.asarray(p.p) + alpha * r.as_array())
        )
        modulus = max(modulus, tv_distance(F(q), fp))
    return ContinuityReport(radius=radius, modulus=modulus, samples=samples)
