"""Exact-plus-Monte-Carlo laboratory for molecular chaos on finite state spaces."""

__version__ = "0.1.0"

from .core import (
    StateSpace,
    SymmetricLaw,
    enumerate_occupancies,
    law_from_json,
    marginal,
    mean_empirical_tv,
    product_law,
    specific_loglik,
    tv_distance,
)
from .diagnostics import (
    ChaosReport,
    EnergyModel,
    chaos_verdict,
    entropy_convergence,
    fit_gibbs,
    microcanonical,
    pair_gap,
)
from .kernels import (
    ExchangeableKernel,
    counterexample_kernel,
    identity_kernel,
    kac_collision_kernel,
    make_kernel,
    map_kernel,
    propagate,
    symmetrized_class_kernel,
)
from .meanfield import (
    PairRule,
    SumConservingRule,
    continuity_probe,
    kac_limit_evolve,
)
from .montecarlo import (
    EstimatorResult,
    ParticleState,
    estimate_pair_marginals,
    iid_state,
    pair_marginal_ustat,
    replica_rng,
    replica_rngs,
    simulate_kac,
    simulate_kac_stack,
)
