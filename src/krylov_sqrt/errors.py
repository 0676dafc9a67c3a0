"""Exception hierarchy shared by all modules."""


class KrylovSqrtError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(KrylovSqrtError):
    """A direct solve hit a pivot that is numerically zero."""


class NoConvergence(KrylovSqrtError):
    """An iterative kernel exhausted its iteration budget."""


class SpectrumOnBranchCut(KrylovSqrtError):
    """An eigenvalue sits on the closed negative real axis, where the
    principal square root is undefined."""


class InvalidSpectrum(KrylovSqrtError):
    """The spectrum violates a precondition (e.g. a Ritz value with
    nonpositive real part where positivity is required)."""


class DivergentIntegral(KrylovSqrtError):
    """The bound integral diverges (k < 2 for the square-root bounds)."""


class DomainError(KrylovSqrtError):
    """A scalar argument is outside the domain of a closed-form bound."""


class ToleranceBelowRoundingFloor(DomainError):
    """A bound stop's tolerance lies at or below the rounding error of the
    vector it would return, which the bound does not count."""


class NonFiniteIntegrand(KrylovSqrtError):
    """The quadrature integrand returned NaN or Inf."""


class NonFiniteEntry(KrylovSqrtError):
    """A matrix, vector, or operator result contains NaN or Inf."""


class DimensionMismatch(KrylovSqrtError):
    """Operand shapes are incompatible."""


class TooLarge(KrylovSqrtError):
    """The input exceeds the desk-scale guard for dense reference work."""


class PositivityLost(KrylovSqrtError):
    """A perturbed matrix could not be kept positive definite."""


class UnsupportedContext(KrylovSqrtError):
    """The requested construction needs context (e.g. known eigenvectors)
    that the given matrix does not carry."""


class ConfigError(KrylovSqrtError):
    """An experiment configuration failed schema validation."""
