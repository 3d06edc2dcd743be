"""
Integrals of a single spherical Bessel function
===============================================

Walk through the I family: int x^n j_l(x) dx evaluated through the
terminating recursion, its closed forms, and the substitution rule for
scaled arguments.
"""

import math

from besselquad import (
    IntegralSpec,
    closed_I,
    definite_integral,
    eval_I,
    si,
)

# The order-zero base case is the sine integral less its limit:
# int j_0 = Si - pi/2, which vanishes at infinity.
print("I^0_0(pi)  =", eval_I(0, 0, math.pi).value)
print("Si(pi)-pi/2 =", si(math.pi) - math.pi / 2)

# For positive orders the recursion walks (n, l) -> (n-1, l-1) down to
# the trigonometric base, collecting boundary terms along the way.
v = eval_I(3, 1, math.pi).value
print("\nint_0^pi x^3 j_1 dx =", v, " (= 3 pi =", 3 * math.pi, ")")

# Two of the printed closed forms, checked against the recursion on a
# definite integral (each route fixes its own constant of integration,
# so values of two routes are compared by differences only):
a, b = 2.0, 40.0
for kind, n_of_l, l in (("I1", lambda l: 2 + l, 4), ("I3", lambda l: 1 - l, 4)):
    n = n_of_l(l)
    closed = closed_I(kind, l, b).value - closed_I(kind, l, a).value
    rec = eval_I(n, l, b).value - eval_I(n, l, a).value
    print(f"{kind} (n={n}, l={l}): closed={closed:.15g}  recursion={rec:.15g}")

# Scaled arguments reduce by substitution: int x^n j_l(a x) dx
#   = a^(-n-1) I^n_l(a x).
v = eval_I(0, 0, math.pi / 2, 2.0).value - eval_I(0, 0, 1e-300, 2.0).value
print("\nint_0^{pi/2} j_0(2x) dx =", v, " (= Si(pi)/2 =", si(math.pi) / 2, ")")

# The recursion shines over many oscillations.  The classic infinite
# integral int_0^inf j_0 = pi/2 emerges from a truncated upper limit
# with a 1/X oscillatory tail:
for X in (1e2, 1e3, 1e4):
    r = definite_integral(IntegralSpec("I", 0, 0), 0.0, X)
    print(f"int_0^{X:g} j_0 dx = {r.value:.10f}   (pi/2 = {math.pi / 2:.10f})")
