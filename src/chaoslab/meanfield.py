"""One-particle limit maps for the bundled particle dynamics.

A deterministic kernel's limit is its own class map applied to laws
(`kernels._class_map_kernel`), so nothing for it lives here.  A Kac pair
rule compiles to one move table (`CompiledRule`), and the n-particle chain,
its exact rows and its limit all read that table.  The limit is the
Boltzmann-type quadratic ODE dp/dt = sum_d changes[d] beta_d(p), with
beta_d(p) = (lam/2) sum_uw coeffs[d, uw] p_u p_w: the fluid limit of the
chain's jump rates (Kurtz 1970), validated against particle simulation.
`kac_limit_evolve` sums the ODE as Wild's series, the mean-field twin of
the uniformized n-particle kernel, to unit roundoff.

A limit map takes a (B, k) stack of one-particle laws, one per row, checked
by `_as_stack`, and returns a new (B, k_target) float stack of their
images, so that a caller with many laws (`continuity_probe`, which reads
the k + 1 rows [p, (1 - r) p + r I]) evaluates it, and integrates the ODE,
once.  A single law is the one-row stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import MASS_TOL, Distribution, as_int, law_rows
from .errors import InvalidArgumentError

MAX_SLICE_LAM_T = 0.5  # lam*tau of a limit ODE slice: about 40 series terms
DEFAULT_DT = math.inf  # no cap on the slice length tau
# Most slices per evolve, lam*t <= 1e4: about 12 s for one 3-state law (2-core VM).
MAX_SLICES = 20_000
# Most slices times stack rows per evolve.  A slice costs about 0.5 ms plus
# 0.04 ms per 3-state row or 0.08 ms per 5-state row (2-core VM), so this is
# about 10 s for a 65-row stack of 5-state laws (lam*t <= 923).  The
# continuity probe's k + 1 rows meet it before MAX_SLICES only for k >= 6.
MAX_SLICE_ROWS = 120_000
UNIT_ROUNDOFF = 2.0**-53


class PairRule:
    """A symmetric stochastic map on pairs of states.

    `outcomes(u, w)` lists ((a, b), prob) for the post-collision ordered pair.
    Symmetry requirement: the unordered outcome law must not depend on the
    order of (u, w).  The chain, its exact rows and its limit read the rule
    through `compiled(k)`, its move table on k states, which checks the
    rule and is built once per k.
    """

    def outcomes(self, u: int, w: int):
        raise NotImplementedError

    def compiled(self, k: int) -> "CompiledRule":
        """The rule on k states, checked and compiled on first use, then kept."""
        tables = vars(self).setdefault("_compiled", {})
        if k not in tables:
            tables[k] = _compile(self, k)
        return tables[k]


class CompiledRule(NamedTuple):
    """A pair rule on k states as its move table, which the Kac chain, its
    exact rows and its limit all read.

    changes[d] is the d-th distinct nonzero change e_a + e_b - e_u - e_w that
    an outcome of positive probability makes to the occupancy, in
    lexicographic order, and coeffs[d, u*k + w] the probabilities of the
    outcomes of the ordered pair (u, w) that make it, added in list order;
    the pair stays put with the rest.  terms lists (d, u, w, coeffs[d, u*k + w])
    for the nonzero coefficients, in (d, u, w) order.  `_compile` checked the
    rule: labels in range(k), finite probabilities >= 0 summing to 1 within
    MASS_TOL, and coeffs[d, u*k + w] within MASS_TOL of coeffs[d, w*k + u]
    for every d, the rule's symmetry, since a change fixes the unordered
    outcome pair.
    """

    changes: np.ndarray
    coeffs: np.ndarray
    terms: tuple

    def move_weights(self, M: np.ndarray) -> np.ndarray:
        """The (D, B) weights of the class moves at each column m of a (k, B)
        stack of occupancies: sum_uw coeffs[d, uw] * (m_u * (m_w - [u == w])),
        the probability of change d times the n (n - 1) ordered pairs of
        distinct particles, in float.  Each change's first nonzero term is
        written into its row and the later ones are added one by one in
        (u, w) order, so a column's weights do not depend on the stack, and
        the zero terms they skip would leave the sum as it is, up to the
        sign of a zero weight."""
        M = np.asarray(M, dtype=float)
        out = np.empty((len(self.changes), M.shape[1]))
        written = -1  # the last change whose row holds its first term
        for d, u, w, c in self.terms:
            pairs = M[u] * (M[w] - 1.0) if u == w else M[u] * M[w]
            row = out[d]  # a view: both branches write it in place
            if d == written:
                pairs *= c
                row += pairs
            else:  # every change has a term, so this writes each row once
                np.multiply(pairs, c, out=row)
                written = d
        return out


def _compile(rule: PairRule, k: int) -> CompiledRule:
    unit = np.eye(k, dtype=np.int64)
    moved: dict = {}  # change -> its coefficient row
    for u in range(k):
        for w in range(k):
            acc = 0.0
            for (a, b), pr in rule.outcomes(u, w):
                a, b, pr = as_int(a), as_int(b), float(pr)
                if not (0 <= a < k and 0 <= b < k and math.isfinite(pr) and pr >= 0.0):
                    raise InvalidArgumentError(
                        f"pair rule sends ({u}, {w}) to ({a}, {b}) with probability "
                        f"{pr}: need labels in range({k}) and a finite probability >= 0"
                    )
                acc += pr
                change = tuple((unit[a] + unit[b] - unit[u] - unit[w]).tolist())
                if pr > 0.0 and any(change):
                    moved.setdefault(change, np.zeros(k * k))[u * k + w] += pr
            if abs(acc - 1.0) > MASS_TOL:
                raise InvalidArgumentError(
                    f"pair rule outcomes of ({u}, {w}) have total probability {acc}, not 1"
                )
    changes = sorted(moved)
    coeffs = np.array([moved[d] for d in changes]).reshape(-1, k * k)
    moves = coeffs.reshape(-1, k, k)
    asymmetric = np.argwhere((np.abs(moves - moves.transpose(0, 2, 1)) > MASS_TOL).any(axis=0))
    if len(asymmetric):
        u, w = asymmetric[0]
        raise InvalidArgumentError(f"pair rule is not symmetric: ({u}, {w}) and "
                                   f"({w}, {u}) give different unordered outcomes")
    ds, uws = np.nonzero(coeffs)
    terms = tuple((d, uw // k, uw % k, float(coeffs[d, uw]))
                  for d, uw in zip(ds.tolist(), uws.tolist()))
    return CompiledRule(np.array(changes, dtype=np.int64).reshape(-1, k), coeffs, terms)


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


@functools.lru_cache(maxsize=16)
def default_rule(k: int) -> SumConservingRule:
    """The one SumConservingRule(k) that callers without a rule share, so its
    compiled table is built once per k."""
    return SumConservingRule(k)


def check_rate_and_time(lam: float, t: float) -> None:
    """Reject a collision rate or time horizon that is not finite and in range."""
    if not (0 < lam < math.inf and 0 <= t < math.inf):
        raise InvalidArgumentError(f"need finite lam > 0 and t >= 0, got lam={lam}, t={t}")


def _as_stack(p) -> np.ndarray:
    """A nonempty (B, k) stack of laws as a new float array, its rows held
    to a Distribution's rules by `law_rows`."""
    try:
        P = np.array(p, dtype=float)
    except (TypeError, ValueError):
        P = np.zeros(0)
    if not (P.ndim == 2 and P.size):
        raise InvalidArgumentError("need a nonempty (B, k) stack of laws")
    return law_rows(P)


def collision_marginal_tensor(k: int, rule: Optional[PairRule] = None) -> np.ndarray:
    """kappa[v, u, w]: chance a uniformly chosen output slot of the pair
    (u, w) lands on v, read off the move table as
    (e_u + e_w + sum_d coeffs[d, uw] changes[d])_v / 2.  Entries that
    rounding leaves below 0 are clipped to 0."""
    table = (rule or default_rule(k)).compiled(k)
    unit = np.eye(k)
    # einsum, not @: a first BLAS call would add about 0.45 MB to kac's peak RSS.
    moves = np.einsum("dv,dx->vx", table.changes, table.coeffs).reshape(k, k, k)
    return np.maximum(0.5 * (unit[:, :, None] + unit[:, None, :] + moves), 0.0)


class WildPlan(NamedTuple):
    """Equal slices of [0, t], Wild's series terms per slice, weight each leaves out."""

    slices: int
    terms: int
    tail: float


def wild_plan(lam: float, t: float, dt: float = DEFAULT_DT, rows: int = 1) -> WildPlan:
    """The plan of `kac_limit_evolve(p0, lam, t, dt)` for a stack of `rows`
    laws: the fewest slices with lam*tau <= MAX_SLICE_LAM_T and tau <= dt, at
    most MAX_SLICES and at most MAX_SLICE_ROWS / rows, and the fewest terms N
    whose left-out weight (1 - exp(-lam*tau))^N < UNIT_ROUNDOFF."""
    check_rate_and_time(lam, t)
    if not dt > 0:
        raise InvalidArgumentError("need dt > 0")
    need = max(lam * t / MAX_SLICE_LAM_T, t / dt)
    if not need <= MAX_SLICES:
        raise InvalidArgumentError(f"lam*t = {lam * t:g} with dt = {dt:g} needs {need:g} "
                                   f"slices of Wild's series, past the budget of {MAX_SLICES}")
    slices = max(1, math.ceil(need))
    if slices * rows > MAX_SLICE_ROWS:
        raise InvalidArgumentError(f"lam*t = {lam * t:g} with dt = {dt:g} needs {slices} "
                                   f"slices of Wild's series for each of {rows} laws, past "
                                   f"the budget of {MAX_SLICE_ROWS} slices x laws")
    beta = -math.expm1(-lam * t / slices)
    terms, tail = 1, beta
    while tail >= UNIT_ROUNDOFF:
        terms, tail = terms + 1, tail * beta
    return WildPlan(slices, terms, tail)


def kac_limit_evolve(
    p0,
    lam: float,
    t: float,
    dt: float = DEFAULT_DT,
    rule: Optional[PairRule] = None,
) -> np.ndarray:
    """Solve dp/dt = lam (Q(p, p) - p) by Wild's series, sliced by `wild_plan`.

    Over a slice, with beta = 1 - exp(-lam*tau), p(tau) = sum_{n >= 1}
    w_n q_n, w_n = (1 - beta) beta^(n-1), q_1 = p and q_n = (1/(n-1))
    sum_{j<n} Q(q_j, q_{n-j}).  It is added to p as the change
    sum_{n >= 2} w_n (q_n - p), whose rounding shrinks with the slice, and
    each row is then renormalised once.  No term is negative, so no row
    leaves the simplex.  p0 is a (B, k) stack of laws, as in `_as_stack`,
    and the result a new (B, k) array; the einsums give each row of a stack
    the arithmetic it gets alone.
    """
    P = _as_stack(p0)
    plan = wild_plan(lam, t, dt, len(P))
    if t == 0:
        return P
    kappa = collision_marginal_tensor(P.shape[1], rule)
    beta = -math.expm1(-lam * t / plan.slices)
    weights = np.array([(1.0 - beta) * beta ** n for n in range(1, plan.terms)])
    moved = math.fsum(weights)
    q = np.empty((plan.terms,) + P.shape)
    for _ in range(plan.slices):
        q[0] = P
        for n in range(1, plan.terms):
            pairs = np.einsum("jbu,jbw->buw", q[:n], q[n - 1::-1])
            q[n] = np.einsum("vuw,buw->bv", kappa, pairs) / n
        P = P + (np.einsum("n,nbv->bv", weights, q[1:]) - moved * P)
        P /= np.add.reduce(P, axis=1, keepdims=True)
    return P


@dataclass
class ContinuityReport:
    radius: float
    modulus: float
    image: np.ndarray  # F of the probed stack [p, q_1, ..., q_k]; row 0 is F(p)


def continuity_probe(
    F: Callable[[np.ndarray], np.ndarray],
    p: Distribution,
    radius: float,
) -> ContinuityReport:
    """Local modulus of continuity of a limit map F at p, read on Huber's
    r-contamination neighbourhood {(1 - a) p + a q : a <= radius} of p.

    Evaluates the stack map F once on [p, q_1, ..., q_k], q_i = (1 - radius)
    p + radius e_i, and reports the largest tv(F(p), F(q_i)).  The
    neighbourhood is the hull of p and the q_i, so for an affine F, where
    tv(F(p), F(.)) is convex on it, that is its largest value there.
    """
    if not 0 < radius <= 1:
        raise InvalidArgumentError("radius must lie in (0, 1]")
    base = p.as_array()
    image = F(np.vstack([base, (1 - radius) * base + radius * np.eye(p.space.k)]))
    modulus = max(0.5 * math.fsum(np.abs(row - image[0])) for row in image[1:])
    return ContinuityReport(radius=radius, modulus=modulus, image=image)
