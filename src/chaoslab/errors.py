"""Exception types shared across the package."""


class ChaoslabError(Exception):
    """Base of the errors the package raises on purpose."""


class InvalidArgumentError(ChaoslabError, ValueError):
    """An argument violates a documented precondition."""


class CapacityError(ChaoslabError, RuntimeError):
    """A dense or exact computation was requested beyond its size limit."""


class EmptyEnsembleError(ChaoslabError, RuntimeError):
    """No n-particle state falls inside the requested energy window."""


class InfeasibleEnergyError(ChaoslabError, ValueError):
    """Target mean energy lies outside the open range of the energy function,
    or the fitted Gibbs law misses it."""


class DegenerateModelError(ChaoslabError, ValueError):
    """The energy function is constant, so no temperature can be fitted."""


class EquivarianceError(ChaoslabError, RuntimeError):
    """A kernel failed the permutation-equivariance contract."""


class IntegrationError(ChaoslabError, RuntimeError):
    """The ODE integrator left the probability simplex; reduce the step size."""


class ConfigError(ChaoslabError, ValueError):
    """An experiment configuration file or flag set could not be validated."""
