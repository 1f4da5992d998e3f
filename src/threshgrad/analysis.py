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

__all__ = ["Analysis", "analyze", "decide_audits", "generate_synthetic"]


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
    # a config built in code may leave a size None
    if m is None or n is None or m < 1 or n < 1:
        raise ValueError(f"m and n must be >= 1, got m={m}, n={n}")
    if seed is None or seed < 0:
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


def decide_audits(
    columns, f_star: float, converged: bool, report: dict, p: Optional[float] = None
) -> tuple[dict, list, Optional[dict]]:
    """The trace, support and rate verdicts of a run, as (audits, warnings,
    rate); `analyze` and `threshgrad audit` both decide them here.
    ``columns`` are the trace's (n, f_gap, residual, dist_to_ref), as
    `solver.read_trace_csv` returns them, and ``p`` is the order of a power
    penalty on every coordinate, if any.  ``warnings`` lists the failed
    rules and why the tail bound was skipped; ``rate`` is the rate
    document, None when its audit is skipped."""
    ns, gaps, residuals, dists = columns
    failed = {
        "trace": solver.trace_rules(ns, gaps, residuals, dists, f_star),
        "support": support.report_rules(report),
    }
    audits = {kind: "fail" if rules else "pass" for kind, rules in failed.items()}
    audits["rate"], warnings, rate = conditioning.fit_rate(
        ns, gaps, f_star, converged, p
    )
    return audits, failed["trace"] + failed["support"] + warnings, rate


@dataclass(eq=False)
class Analysis:
    """One solve of a problem and what was read off it.  ``f_star`` is
    f(x_bar), ``gaps`` and ``dists`` each recorded iterate's objective gap
    to f_star and distance to x_bar, ``report`` the support document,
    ``rate`` the rate document (None when the rate audit is skipped) and
    ``growth`` the certificate of `conditioning.face_growth` on esupp (None
    when the gamma audit is skipped).  ``audits`` maps "trace", "support",
    "rate" (as `decide_audits` gives them, and `threshgrad audit` from the
    files) and "gamma" to "pass", "fail" or "skipped: <why>"; ``warnings``
    lists the failed rules, the reason the tail bound was skipped and
    whether the solver stopped short of its tolerance, in that order.
    """

    problem: solver.Problem
    trace: solver.IterateTrace
    x_bar: np.ndarray
    f_star: float
    gaps: np.ndarray
    dists: np.ndarray
    report: dict
    rate: Optional[dict]
    growth: Optional[dict]
    audits: dict
    warnings: list


def analyze(problem: solver.Problem, solver_cfg: solver.SolverConfig) -> Analysis:
    """Solve, polish, measure the trace against the polished point, certify
    growth on esupp and decide the other audits by `decide_audits`, each
    step once, with the order p of a power penalty of positive weight on
    every coordinate.  A step size or starting point the problem rejects
    raises ValueError first."""
    trace = solver.run(problem, solver_cfg)
    x_bar, f_star = conditioning.polish(problem, trace)
    gaps = trace.objectives - f_star
    dists = trace.distances_to(x_bar)
    report = support.build_support_report(problem, trace, x_bar)
    # a penalty group on all n coordinates is the only one
    whole = [pen for idx, pen in problem.g._groups if len(idx) == problem.n]
    p = whole[0].p if whole and isinstance(whole[0], PowerPenalty) else None
    audits, warnings, rate = decide_audits(
        (trace.ns, gaps, trace.residuals, dists), f_star, trace.converged, report, p
    )
    audits["gamma"], growth = conditioning.face_growth(problem, report["esupp"])
    if not trace.converged:
        warnings.append(
            f"solver stopped at residual {trace.residuals[-1]:.3e} without "
            f"reaching {solver_cfg.residual_tol:.1e}"
        )
    return Analysis(
        problem, trace, x_bar, f_star, gaps, dists, report, rate, growth, audits,
        warnings,
    )
