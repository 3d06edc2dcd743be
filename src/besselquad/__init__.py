"""besselquad: integrals of monomials times spherical Bessel functions.

Antiderivatives of x^n j_l(a x), x^n j_l(a x)^2, x^n j_l(a x) j_l(b x)
and x^n j_k(a x) j_l(b x) through terminating recursion relations and
closed forms, with all constants of integration frozen so values are
reproducible.  Adaptive Gauss-Kronrod quadrature covers the
small-argument regime where the recursions cancel catastrophically, and
a piecewise-polynomial weighted integrator handles tabulated slowly
varying prefactors.

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
    adjacent_by_recursion,
    adjacent_closure,
    base_L01,
    base_L01_equal,
    closed_L_equal,
    eval_L,
    eval_L_equal_args,
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
    choose_strategy,
    definite_integral,
    integrand,
    oscillation_threshold,
    recursion_amplification,
)
from .same_order import DEGENERACY_GUARD, closed_K2, eval_K
from .single_bessel import closed_I, eval_I, eval_I_scaled, truncates_early
from .sph_bessel import (
    first_zero_estimate,
    j,
    j_array,
    j_extended,
    j_many,
    j_parity_extend,
    small_x_leading,
)
from .squared_bessel import closed_H, eval_H, eval_H_scaled
from .trig_primitives import (
    EULER_GAMMA,
    ci,
    eval_pair,
    eval_scaled_X_series,
    eval_scaled_Y_series,
    eval_X,
    eval_Y,
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
    Strategy,
    TrigPrimitive,
)
from .weighted import build_interpolant, integrate_product, integrate_single, weighted_integral

__version__ = "0.1.0"

__all__ = [
    "AntiderivativeValue",
    "AppendixIdentity",
    "BesselQuadError",
    "AMPLIFICATION_GUARD",
    "DEFAULT_TOL",
    "DEGENERACY_GUARD",
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
    "Strategy",
    "TrigPrimitive",
    "adaptive_quad",
    "adjacent_by_recursion",
    "adjacent_closure",
    "antiderivative",
    "base_L01",
    "base_L01_equal",
    "besselJ",
    "build_interpolant",
    "choose_strategy",
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
    "eval_L_equal_args",
    "eval_pair",
    "eval_scaled_X_series",
    "eval_scaled_Y_series",
    "eval_X",
    "eval_Y",
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
    "j_parity_extend",
    "oscillation_threshold",
    "recursion_amplification",
    "si",
    "small_x_leading",
    "truncates_early",
    "verify_identity",
    "verify_suite",
    "weighted_integral",
]
