"""
Route selection and the small-argument fallback
===============================================

The recursion engine and plain quadrature are complementary.  Above the
first zero of the highest-order factor the integrand oscillates and
antiderivative differences are fast and exact; below it the recursion's
formally canceling terms destroy precision while quadrature is cheap.
The dispatcher splits intervals at the threshold automatically, and each
result records the routes that ran (segments) and why (reason).
"""

from besselquad import (
    IntegralSpec,
    definite_integral,
    eval_H,
    first_zero_estimate,
    oscillation_threshold,
)

spec = IntegralSpec("H", 2, 5)
print("first zero estimate for l=5:", first_zero_estimate(5))
print("threshold of the spec:", oscillation_threshold(spec))
for (a, b) in ((0.0, 2.0), (20.0, 100.0), (1.0, 50.0)):
    r = definite_integral(spec, a, b)
    print(f"[{a:5.1f}, {b:5.1f}] -> {r.segments}  ({r.reason})")

# The auto strategy composes both routes:
r = definite_integral(spec, 0.0, 100.0)
print("\nvalue =", r.value)
print("segments:", r.segments)
print("quadrature error estimate:", r.error_estimate, "evaluations:", r.evaluations)

# Why the split matters: anchored far below the first zero (near 13
# for l = 8), the raw recursion's formally canceling terms destroy
# precision; quadrature, or here the exponent-matched closed form that
# short-circuits the recursion, is easy.
deep = IntegralSpec("H", 1 - 2 * 8, 8)
lo, hi = 2.0, 40.0
raw = (
    eval_H(1 - 2 * 8, 8, hi, closed_forms=False).value
    - eval_H(1 - 2 * 8, 8, lo, closed_forms=False).value
)
quad = definite_integral(deep, lo, hi, strategy="quadrature")
print(f"\nbelow threshold, raw recursion difference: {raw:.6e}")
print(f"below threshold, quadrature:               {quad.value:.6e}")
print("(the quadrature value is the trustworthy one; the sign is even wrong above)")

# Forcing the recursion route raises an explicit signal instead of
# silently returning a bad number when the analytic path is hazardous:
try:
    definite_integral(
        IntegralSpec("K", 0, 1, 1.0, beta=1.0 + 1e-9), 6.0, 20.0, strategy="recursion"
    )
except Exception as exc:
    print("\nforced recursion on a near-degenerate pair ->", type(exc).__name__)
    print("  ", exc)
