"""Exception types shared across the package.

The failure contract: every integral returns a value that meets its
tolerance or raises one of these, one per kind of failure.
"""


class BesselQuadError(Exception):
    """Base class for all besselquad errors."""


class DomainError(BesselQuadError, ValueError):
    """An argument lies outside the mathematical domain of an operation,
    or a walk's terms leave the float range."""


class QuadratureRecommendedError(BesselQuadError):
    """The analytic path refuses a value of unknown quality: a small
    argument (a trig primitive with exponent below -1 near zero, or the
    antiderivative at 0), a cancelling sum, or near-degenerate scales
    (NearDegenerateError).  The auto strategy integrates by quadrature."""


class NearDegenerateError(QuadratureRecommendedError):
    """|alpha - beta| falls below the degeneracy guard and the affected
    trigonometric terms have no series representation."""


class NotConvergedError(BesselQuadError):
    """A quadrature run missed its tolerance; ``result`` is the run's
    record (converged=False)."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result
