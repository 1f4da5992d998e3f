"""The problem builders and `analyze`, the one chain every claim of a run
is read from: solve, polish, f* = f(x_bar), distances to x_bar, support
report, rate fit with the power-law tail bound, growth certificate on the
extended support, and the verdict of every audit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import conditioning, solver, support
from .operators import LeastSquaresTerm, operator_norm
from .regularizers import PowerPenalty, SeparableRegularizer

__all__ = ["Analysis", "analyze", "generate_synthetic"]


def _builtin_smooth(name: str):
    if name == "ex_nocq":
        # scalar (x-1)^2/2; with g = |.| the minimizer is 0 and the dual
        # point sits exactly on the interval boundary
        return LeastSquaresTerm([[1.0]], [1.0], lipschitz=1.0)
    if name == "ex_cq":
        # (x1 - x2 - 1)^2 written as least squares; argmin of f is the
        # segment between (0.5, 0) and (0, -0.5)
        s = math.sqrt(2.0)
        return LeastSquaresTerm([[s, -s]], [s], lipschitz=4.0)
    raise ValueError(f"unknown builtin problem {name!r}")


def _synthetic_data(m: int, n: int, seed: int, scale: float):
    """Seeded Gaussian instance: A scaled to ||A||^2 = scale exactly (by
    `operator_norm`), sparse x_true with ceil(n/10) entries of magnitude
    10..20, y = A x_true + 0.1 * noise.  Draw order is part of the
    determinism contract; changing it changes every seeded artifact."""
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be >= 1, got m={m}, n={n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be a finite number > 0, got {scale!r}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    top = operator_norm(a)
    if top == 0.0:
        raise ValueError("degenerate draw: zero matrix")
    a *= math.sqrt(scale) / top
    k = math.ceil(n / 10)
    idx = rng.choice(n, size=k, replace=False)
    signs = rng.choice([-1.0, 1.0], size=k)
    mags = rng.uniform(10.0, 20.0, size=k)
    x_true = np.zeros(n)
    x_true[idx] = signs * mags
    y = a @ x_true + 0.1 * rng.standard_normal(m)
    return a, y, x_true


def generate_synthetic(m: int, n: int, seed: int, scale: float = 1.0):
    """Seeded random least-squares Problem with intervals [-1, 1] and psi = 0.

    The scaling uses the exact largest singular value, so the Lipschitz
    constant is `scale` itself, not an estimate.
    """
    a, y, _ = _synthetic_data(m, n, seed, scale)
    h = LeastSquaresTerm(a, y, lipschitz=scale)
    g = SeparableRegularizer.uniform(n)
    return solver.Problem(g=g, h=h)


@dataclass(eq=False)
class Analysis:
    """One solve of a problem and what was read off it.  ``f_star`` is
    f(x_bar), ``dists`` the distance of each recorded iterate to x_bar,
    ``report`` the support document of `support.build_support_report`,
    ``rate`` the rate document of `conditioning.fit_rate` (None when the
    rate audit is skipped) and ``growth`` the certificate of
    `conditioning.face_growth` on esupp (None when the gamma audit is
    skipped).  ``audits`` maps "trace", "support", "rate" and "gamma" to
    "pass", "fail" or "skipped: <why>"; ``warnings`` lists the failed
    rules, the reason the tail bound was skipped and whether the solver
    stopped short of its tolerance, in that order.
    """

    problem: solver.Problem
    trace: solver.IterateTrace
    x_bar: np.ndarray
    f_star: float
    dists: np.ndarray
    report: dict
    rate: Optional[dict]
    growth: Optional[dict]
    audits: dict
    warnings: list


def analyze(problem: solver.Problem, solver_cfg: solver.SolverConfig) -> Analysis:
    """Solve, polish, measure the trace against the polished point, certify
    growth on esupp and apply the trace, support and rate rules, each step
    once; under one power penalty of positive weight and order p > 2 on
    every coordinate the rate also carries the tail bound.  A run that
    converged before it left 8 usable tail points has no rate: its rate
    audit is skipped.  A step size or starting point the problem rejects
    raises ValueError first."""
    trace = solver.run(problem, solver_cfg)
    x_bar, f_star = conditioning.polish(problem, trace)
    dists = trace.distances_to(x_bar)
    report = support.build_support_report(problem, trace, x_bar)
    rate = conditioning.fit_rate(trace, f_star)
    warnings: list = []

    def verdict(failed: list) -> str:
        warnings.extend(failed)
        return "fail" if failed else "pass"

    audits = {
        "trace": verdict(solver.trace_rules(
            trace.ns, trace.objectives - f_star, trace.residuals, dists, f_star
        )),
        "support": verdict(support.report_rules(report)),
    }
    min_points = conditioning._MIN_FIT_POINTS
    if trace.converged and rate["n_points"] < min_points:
        audits["rate"] = (
            f"skipped: converged at iteration {trace.n_iterations} with "
            f"{rate['n_points']} usable tail points, need >= {min_points} "
            "to fit a rate"
        )
        rate = None
    else:
        # a penalty group on all n coordinates is the only one
        whole = [pen for idx, pen in problem.g._groups if len(idx) == problem.n]
        if whole and isinstance(whole[0], PowerPenalty) and whole[0].p > 2.0:
            try:
                rate["tail_bound"] = conditioning.sublinear_bound_check(
                    trace, f_star, whole[0].p
                )
            except ValueError as exc:
                warnings.append(f"tail bound check skipped: {exc}")
        audits["rate"] = verdict(conditioning.rate_rules(rate))
    audits["gamma"], growth = conditioning.face_growth(problem, report["esupp"])
    if not trace.converged:
        warnings.append(
            f"solver stopped at residual {trace.residuals[-1]:.3e} without "
            f"reaching {solver_cfg.residual_tol:.1e}"
        )
    return Analysis(
        problem, trace, x_bar, f_star, dists, report, rate, growth, audits, warnings
    )
