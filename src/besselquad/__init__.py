"""besselquad: integrals of monomials times spherical Bessel functions.

Antiderivatives of x^n j_l(a x), x^n j_l(a x)^2, x^n j_l(a x) j_l(b x)
and x^n j_k(a x) j_l(b x) through terminating recursion relations and
closed forms.  Each route fixes its constant of integration, so a
difference of two values of one route is a definite integral (see
``AntiderivativeValue``); ``definite_integral`` takes it from one walk
across both limits (``antiderivative(spec, b, lower=a)``).  Adaptive Gauss-Kronrod quadrature
(QUADPACK's GK15 on short pieces, GK61 on long oscillatory runs) covers
the small-argument regime where the recursions cancel catastrophically,
and a piecewise-polynomial weighted integrator handles tabulated slowly
varying prefactors.  Every integral returns a value that meets its
tolerance or raises a BesselQuadError subclass, one per kind of
failure (see ``errors``).

Each quantity has one public route: ``eval_pair`` for X_n and Y_n,
``int_pow_sin`` and ``int_pow_cos`` for the scaled trig primitives, and
``eval_I``, ``eval_H``, ``eval_K`` and ``eval_L`` (scales, equal scale
magnitudes, adjacent orders and the L01 base included) for the four
families, whose ``path`` is the route of the table they read
(``PointTable.path``).  ``eval_I_scaled`` and ``eval_H_scaled`` are
other names of ``eval_I`` and ``eval_H``.  The ``closed_*`` functions
and ``base_L01_equal`` evaluate one printed formula by name.

numpy is loaded on first use by the quadrature and array routes: a
quadrature segment, ``j_array``, ``j_many``, ``build_interpolant`` and
a ``PiecewisePolynomial``.  Importing the package, the
scalar evaluators and definite integrals above the first-zero
threshold run without it.

Everything here is a pure function of its arguments and safe to call
concurrently.
"""

from .errors import (
    BesselQuadError,
    DomainError,
    NearDegenerateError,
    NotConvergedError,
    QuadratureRecommendedError,
)
from .mixed_order import (
    base_L01_equal,
    closed_L_equal,
    eval_L,
    identity_residual,
)
from .ordinary_bessel import (
    AppendixIdentity,
    IDENTITY_REGISTRY,
    besselJ,
    default_suite,
    verify_identity,
    verify_suite,
)
from .quadrature import (
    AMPLIFICATION_GUARD,
    DEFAULT_TOL,
    adaptive_quad,
    antiderivative,
    definite_integral,
    integrand,
    oscillation_threshold,
    recursion_amplification,
)
from .same_order import closed_K2, eval_K
from .single_bessel import closed_I, eval_I, eval_I_scaled
from .sph_bessel import (
    first_zero_estimate,
    j,
    j_array,
    j_extended,
    j_many,
    small_x_leading,
)
from .squared_bessel import closed_H, eval_H, eval_H_scaled
from .trig_primitives import (
    EULER_GAMMA,
    ci,
    eval_pair,
    int_pow_cos,
    int_pow_sin,
    si,
)
from .types import (
    AntiderivativeValue,
    DefiniteResult,
    IntegralSpec,
    PiecewisePolynomial,
    QuadratureResult,
)
from .weighted import build_interpolant, integrate_product, integrate_single, weighted_integral

__version__ = "0.1.0"

__all__ = [
    "AntiderivativeValue",
    "AppendixIdentity",
    "BesselQuadError",
    "AMPLIFICATION_GUARD",
    "DEFAULT_TOL",
    "DefiniteResult",
    "DomainError",
    "EULER_GAMMA",
    "IDENTITY_REGISTRY",
    "IntegralSpec",
    "NearDegenerateError",
    "NotConvergedError",
    "PiecewisePolynomial",
    "QuadratureRecommendedError",
    "QuadratureResult",
    "adaptive_quad",
    "antiderivative",
    "base_L01_equal",
    "besselJ",
    "build_interpolant",
    "ci",
    "closed_H",
    "closed_I",
    "closed_K2",
    "closed_L_equal",
    "default_suite",
    "definite_integral",
    "eval_H",
    "eval_H_scaled",
    "eval_I",
    "eval_I_scaled",
    "eval_K",
    "eval_L",
    "eval_pair",
    "first_zero_estimate",
    "identity_residual",
    "int_pow_cos",
    "int_pow_sin",
    "integrand",
    "integrate_product",
    "integrate_single",
    "j",
    "j_array",
    "j_extended",
    "j_many",
    "oscillation_threshold",
    "recursion_amplification",
    "si",
    "small_x_leading",
    "verify_identity",
    "verify_suite",
    "weighted_integral",
]
