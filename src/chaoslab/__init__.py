"""Exact-plus-Monte-Carlo laboratory for molecular chaos on finite state spaces."""

__version__ = "0.1.0"

from .core import (
    Distribution,
    OrderedLaw,
    StateSpace,
    SymmetricLaw,
    class_size,
    enumerate_occupancies,
    law_from_json,
    law_to_json,
    marginal,
    mean_empirical_tv,
    product_law,
    specific_loglik,
    symmetrize,
    to_dense,
    tv_distance,
)
from .diagnostics import (
    ChaosReport,
    EnergyModel,
    chaos_verdict,
    entropy_convergence,
    fit_gibbs,
    functional_gap,
    k_gap,
    microcanonical,
    pair_gap,
)
from .kernels import (
    ExchangeableKernel,
    check_equivariance,
    counterexample_kernel,
    identity_kernel,
    kac_collision_kernel,
    make_kernel,
    map_kernel,
    orbit_sample,
    propagate,
    symmetrized_class_kernel,
)
from .meanfield import (
    PairRule,
    SumConservingRule,
    continuity_probe,
    kac_limit_evolve,
    kac_limit_rhs,
    pushforward,
)
from .montecarlo import (
    EstimatorResult,
    ParticleState,
    estimate_mean_empirical_tv,
    estimate_pair_marginal,
    iid_state,
    pair_marginal_ustat,
    replica_rng,
    simulate_kac,
)
