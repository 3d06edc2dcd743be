"""Command line front end.

Subcommands: single, squared, product-same, product-diff evaluate one
definite integral; weighted integrates a tabulated prefactor read from
CSV against Bessel factors (its pieces take quadrature below the
first-zero threshold and the recursion above it, so it has no
--strategy or --max-evals); table sweeps a parameter grid from a JSON
config file; verify runs the translated-identity suite.

Output schema: every integral's record (single, squared, product-same,
product-diff, weighted, and each table row after its parameters)
carries the fields value, abs_error_est, strategy, nodes and seconds,
built by ``_record``; json, csv and plain print the same fields.

Exit codes: 0 success, 2 usage or domain error, 3 a degenerate or
hazardous analytic path with fallback disallowed, 4 quadrature did not
converge.  The environment variable BESSELQUAD_TOL overrides the
default tolerance.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

from .errors import (
    DomainError,
    NearDegenerateError,
    NotConvergedError,
    QuadratureRecommendedError,
)
from .ordinary_bessel import verify_suite
from .quadrature import DEFAULT_TOL, MAX_EVALS, definite_integral
from .types import IntegralSpec
from .weighted import build_interpolant, weighted_integral

RESIDUAL_THRESHOLD = 1e-8


def _default_tol() -> float:
    return float(os.environ.get("BESSELQUAD_TOL", DEFAULT_TOL))


def _add_common(p, needs_interval=True, strategies=True):
    p.add_argument("--tol", type=float, default=None, help="tolerance (default from BESSELQUAD_TOL or 1e-10)")
    p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    if strategies:
        p.add_argument("--strategy", choices=("auto", "recursion", "quadrature"), default="auto")
        p.add_argument("--max-evals", type=int, default=MAX_EVALS, help="cap on quadrature evaluations")
    if needs_interval:
        p.add_argument("--a", type=float, required=True, help="lower limit")
        p.add_argument("--b", type=float, required=True, help="upper limit")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="besselquad",
        description="Definite integrals of monomials times spherical Bessel functions",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("single", help="int x^n j_l(alpha x) dx")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    _add_common(p)

    p = sub.add_parser("squared", help="int x^n j_l(alpha x)^2 dx")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    _add_common(p)

    p = sub.add_parser("product-same", help="int x^n j_l(alpha x) j_l(beta x) dx")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("product-diff", help="int x^n j_k(alpha x) j_l(beta x) dx")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("weighted", help="int f(x) * Bessel factors dx, f sampled in a CSV")
    p.add_argument("--csv", required=True, help="two columns x,f; header optional")
    p.add_argument("--degree", type=int, choices=(1, 3), default=3)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--k", type=int, default=None, help="second order (product form)")
    p.add_argument("--beta", type=float, default=None, help="second scale (product form)")
    _add_common(p, strategies=False)

    p = sub.add_parser("table", help="sweep a grid of parameters from a JSON config")
    p.add_argument("--config", required=True, help="JSON grid description")
    _add_common(p, needs_interval=False)

    p = sub.add_parser("verify", help="run the translated-identity suite")
    p.add_argument("--suite", choices=("appendix",), default="appendix")
    p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    p.add_argument("--tol", type=float, default=None)
    return ap


#: the integral family each single-integral subcommand evaluates
_FAMILIES = {"single": "I", "squared": "H", "product-same": "K", "product-diff": "L"}


def _spec_from_args(args) -> IntegralSpec:
    return IntegralSpec(
        _FAMILIES[args.subcommand], args.n, args.l, args.alpha,
        k=getattr(args, "k", None), beta=getattr(args, "beta", None),
    )


def _tol(args) -> float:
    return args.tol if args.tol is not None else _default_tol()


def _estimate(result) -> dict:
    return {"value": result.value, "abs_error_est": result.error_estimate}


def _record(evaluate, *args, **kwargs) -> dict:
    """The output record of one integral: ``evaluate(*args, **kwargs)``
    (definite_integral or weighted_integral), timed."""
    t0 = time.perf_counter()
    res = evaluate(*args, **kwargs)
    dt = time.perf_counter() - t0
    strategy = "+".join(f"{kind}[{lo:g},{hi:g}]" for kind, lo, hi in res.segments)
    return {**_estimate(res), "strategy": strategy, "nodes": res.evaluations, "seconds": dt}


def _definite(args, spec: IntegralSpec, a: float, b: float, tol: float) -> dict:
    return _record(
        definite_integral, spec, a, b, tol=tol, strategy=args.strategy,
        max_evals=args.max_evals, raise_on_nonconverged=True,
    )


def _evaluate(args) -> dict:
    return _definite(args, _spec_from_args(args), args.a, args.b, _tol(args))


def _read_samples(path: str):
    samples = []
    with open(path) as fh:
        for line in fh:
            parts = line.strip().replace(",", " ").split()
            if len(parts) < 2:
                continue
            try:
                samples.append((float(parts[0]), float(parts[1])))
            except ValueError:
                continue  # header line
    if len(samples) < 2:
        raise DomainError(f"{path}: need at least two numeric x,f rows")
    return samples


def _weighted(args) -> dict:
    interp = build_interpolant(_read_samples(args.csv), degree=args.degree)
    return _record(
        weighted_integral, interp, args.l, args.alpha, args.a, args.b, tol=_tol(args),
        k=args.k, beta=args.beta,
    )


def _number(name: str, v) -> float:
    """A scale, limit or tolerance of the table config as a float; one
    that is not a JSON number (null, true, "20", a list) is a DomainError."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DomainError(f"table config: {name} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # an integer literal beyond the float range
        raise DomainError(f"table config: {name} must be a finite number, got {v!r}") from None


def _table(args) -> list:
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise DomainError("table config must be a JSON object")
    family = cfg["family"]
    if family not in ("I", "H", "K", "L"):
        raise DomainError(f"table config: unknown family {family!r}")
    if args.tol is not None:
        tol = args.tol
    elif "tol" in cfg:
        tol = _number("tol", cfg["tol"])
    else:
        tol = _default_tol()
    a, b = _number("a", cfg["a"]), _number("b", cfg["b"])

    def axis(name, default=None):
        v = cfg.get(name, default)
        if v is None:
            return [None]
        return v if isinstance(v, list) else [v]

    ns = axis("n")
    ks = axis("k") if family == "L" else [None]
    ls = axis("l")
    alphas = axis("alpha", 1.0)
    betas = axis("beta") if family in ("K", "L") else [None]
    rows = []
    for n, k, l, alpha, beta in itertools.product(ns, ks, ls, alphas, betas):
        # the spec checks the orders: a missing or non-integer one is a DomainError
        spec = IntegralSpec(family, n, l, _number("alpha", alpha), k=k,
                            beta=None if beta is None else _number("beta", beta))
        rows.append({"family": family, "n": n, "k": k, "l": l, "alpha": alpha, "beta": beta,
                     **_definite(args, spec, a, b, tol)})
    return rows


def _verify(args) -> tuple:
    tol = args.tol if args.tol is not None else 1e-11
    rows = [{"identity": i.id, "n": i.n, "k": i.k, "l": i.l, "alpha": i.alpha, "beta": i.beta,
             "a": a, "b": b, "residual": r, "pass": r < RESIDUAL_THRESHOLD}
            for i, (a, b), r in verify_suite(tol)]
    return all(row["pass"] for row in rows), rows


def _emit(payload, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(payload, stream)
        stream.write("\n")
        return
    rows = payload if isinstance(payload, list) else [payload]
    if not rows:
        return
    keys = list(rows[0].keys())
    if fmt == "csv":
        stream.write(",".join(keys) + "\n")
        for row in rows:
            stream.write(",".join(_cell(row[k]) for k in keys) + "\n")
        return
    for row in rows:
        for k in keys:
            stream.write(f"{k} = {_cell(row[k])}\n")
        if len(rows) > 1:
            stream.write("\n")


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def run(args) -> tuple:
    """Execute a parsed command; returns (exit_code, payload)."""
    try:
        if args.subcommand in _FAMILIES:
            return 0, _evaluate(args)
        if args.subcommand == "weighted":
            return 0, _weighted(args)
        if args.subcommand == "table":
            return 0, _table(args)
        ok, rows = _verify(args)
        return (0 if ok else 1), rows
    except DomainError as exc:
        return 2, {"error": "domain", "message": str(exc)}
    except (NearDegenerateError, QuadratureRecommendedError) as exc:
        return 3, {"error": "near-degenerate", "message": str(exc)}
    except NotConvergedError as exc:
        payload = {"error": "not-converged", "message": str(exc)}
        if exc.result is not None:
            payload.update(_estimate(exc.result))
        return 4, payload
    except OSError as exc:
        return 2, {"error": "io", "message": str(exc)}
    except (ValueError, KeyError) as exc:
        # malformed config files and similar input shape problems
        return 2, {"error": "config", "message": str(exc)}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code, payload = run(args)
    _emit(payload, getattr(args, "format", "plain"))
    return code


if __name__ == "__main__":
    sys.exit(main())
