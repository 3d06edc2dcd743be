"""Print the nodes and weights of a Gauss-Kronrod pair (G_n, K_{2n+1}) on
[-1, 1] as the Python literals that ``besselquad.quadrature`` holds.

    python3 tools/kronrod.py N [--suffix S]

N = 7 prints QUADPACK's dqk15 constants (``_XGK``, ``_WGK``, ``_WG``);
N = 30 with ``--suffix 61`` prints those of dqk61 (``_XGK61``, ...).
The Kronrod nodes are the zeros of P_n and of the Stieltjes polynomial
E_{n+1}, the monic polynomial orthogonal to every x^k P_n, k <= n, on
[-1, 1].  Its coefficients come from an exact rational solve; the
zeros and weights from mpmath at 80 digits.  Each table lists the
positive half, largest node first (0 last when it is a node); the
Gauss weights are those of the odd-indexed Kronrod nodes.  Values are
rounded to 33 decimals, as QUADPACK prints them.
"""

from __future__ import annotations

import argparse
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 80

#: decimals printed per value, QUADPACK's
DECIMALS = 33


def legendre(n: int) -> list:
    """Coefficients of P_n, constant term first, as Fractions."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    if n == 0:
        return prev
    for k in range(1, n):
        # (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}
        nxt = [Fraction(0)] + [Fraction(2 * k + 1) * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= k * c
        prev, cur = cur, [c / (k + 1) for c in nxt]
    return cur


def _moment(m: int) -> Fraction:
    """Integral of x^m over [-1, 1]."""
    return Fraction(0) if m % 2 else Fraction(2, m + 1)


def stieltjes(n: int) -> list:
    """Coefficients of the monic E_{n+1}, constant term first: solve
    sum_j c_j <P_n, x^(j+k)> = -<P_n, x^(n+1+k)> for k = 0..n exactly."""
    p = legendre(n)
    mu = [sum(c * _moment(i + m) for i, c in enumerate(p)) for m in range(2 * n + 2)]
    rows = [[mu[j + k] for j in range(n + 1)] + [-mu[n + 1 + k]] for k in range(n + 1)]
    for col in range(n + 1):
        pivot = next(r for r in range(col, n + 1) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n + 1):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[j][n + 1] / rows[j][j] for j in range(n + 1)] + [Fraction(1)]


def _roots(coeffs: list) -> list:
    """Real zeros of a polynomial with real simple zeros, ascending."""
    desc = [mp.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
    return sorted(mp.re(z) for z in mp.polyroots(desc, maxsteps=100, extraprec=60))


def _legendre_values(m_max: int, x) -> list:
    """P_0(x) .. P_{m_max}(x) by the three-term recurrence."""
    vals = [mp.mpf(1), x]
    for k in range(1, m_max):
        vals.append(((2 * k + 1) * x * vals[k] - k * vals[k - 1]) / (k + 1))
    return vals[: m_max + 1]


def _weights(nodes: list) -> list:
    """Interpolatory weights: exact for P_0 .. P_{len(nodes) - 1}."""
    size = len(nodes)
    columns = [_legendre_values(size - 1, x) for x in nodes]
    matrix = mp.matrix([[columns[i][m] for i in range(size)] for m in range(size)])
    rhs = mp.matrix([2] + [0] * (size - 1))
    return list(mp.lu_solve(matrix, rhs))


def rule(n: int) -> tuple:
    """(xgk, wgk, wg) of the pair (G_n, K_{2n+1}): positive halves,
    largest node first, as mpf."""
    gauss = _roots(legendre(n))
    nodes = sorted(gauss + _roots(stieltjes(n)))
    wk, wg = _weights(nodes), _weights(gauss)
    xgk = [-x for x in nodes[: n + 1]]
    xgk[-1] = mp.mpf(0)  # the centre is exactly 0
    wgk = wk[: n + 1]
    return xgk, wgk, wg[: (n + 1) // 2]


def _decimal(x) -> str:
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(mp.nstr(x, 60, min_fixed=-mp.inf, max_fixed=mp.inf))
        d = d.quantize(Decimal(1).scaleb(-DECIMALS), rounding=ROUND_HALF_EVEN)
    return "0.0" if d == 0 else f"{d:f}"


def literals(n: int, suffix: str = "") -> str:
    """The three tuple assignments of the pair, as Python source."""
    out = []
    for name, values in zip(("_XGK", "_WGK", "_WG"), rule(n)):
        body = "".join(f"    {_decimal(v)},\n" for v in values)
        out.append(f"{name}{suffix} = (\n{body})\n")
    return "".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="Gauss points; the Kronrod rule has 2n + 1")
    parser.add_argument("--suffix", default="", help="appended to each literal's name")
    args = parser.parse_args(argv)
    print(literals(args.n, args.suffix), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
