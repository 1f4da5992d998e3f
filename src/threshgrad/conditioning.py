"""Reference polishing, growth-constant estimation, rate classification.

The objective f is p-conditioned with constant gamma on a region when

    gamma/p * dist(x, argmin f)^p <= f(x) - inf f.

Order 2 on sublevel sets gives a linear rate for the forward-backward
iteration; order p > 2 gives a O(n^{-p/(p-2)}) tail.  This module measures
both sides empirically: `polish` produces a high-accuracy reference
minimizer, `estimate_gamma` samples the growth ratio near it, and
`fit_rate` classifies the decay of the objective gap along a trace.
No certified lower bound on gamma is attempted; the sampled estimate is an
upper bound by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .solver import (
    IterateTrace,
    Problem,
    SolverConfig,
    fixed_point_residual,
    run,
)

__all__ = [
    "GammaEstimate",
    "RateReport",
    "PolishError",
    "brute_force_scalar_min",
    "polish",
    "verify_unique_minimizer",
    "estimate_gamma",
    "fit_rate",
    "sublinear_bound_check",
]

_GRID_POINTS = 10_000
_SAMPLE_CHUNK = 512  # fixed chunk so sample streams nest across budgets
_MIN_FIT_POINTS = 8
_R2_THRESHOLD = 0.99


class PolishError(RuntimeError):
    """Raised when no candidate reaches the target residual; carries the
    best point found and its residual."""

    def __init__(self, message: str, x: np.ndarray, residual: float):
        super().__init__(message)
        self.x = x
        self.residual = residual


def brute_force_scalar_min(
    fun: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> tuple[float, float]:
    """Global scan of a scalar function: dense grid then golden-section
    refinement of the best bracket.

    Intended as an independent oracle for prox and growth computations, so
    it avoids any structure assumptions beyond rough unimodality near the
    grid minimum.  Worst case returns the best grid point.
    """
    lo, hi, tol = float(lo), float(hi), float(tol)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    ts = np.linspace(lo, hi, _GRID_POINTS)
    try:
        vals = np.asarray(fun(ts), dtype=float)
        if vals.shape != ts.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(fun(t)) for t in ts])
    i = int(np.argmin(vals))
    best_x, best_f = float(ts[i]), float(vals[i])

    a = float(ts[max(i - 1, 0)])
    b = float(ts[min(i + 1, len(ts) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = float(fun(c)), float(fun(d))
    for _ in range(200):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float(fun(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float(fun(d))
        x, f = (c, fc) if fc <= fd else (d, fd)
        if f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


def _fb_continuation(
    problem: Problem, x_from: np.ndarray, tol: float, max_iter: int
) -> np.ndarray:
    lam = 1.0 / float(problem.h.lipschitz)
    config = SolverConfig(
        lam=lam,
        max_iter=max_iter,
        residual_tol=tol,
        record_every=max(1, max_iter // 100),
        x0=x_from,
    )
    trace = run(problem, config)
    if not trace.converged:
        raise PolishError(
            f"continuation stalled at residual {trace.final_residual:.3e} "
            f"after {trace.n_iterations} iterations (target {tol:.1e})",
            trace.x_final,
            trace.final_residual,
        )
    return trace.x_final


def polish(
    problem: Problem,
    x_approx: np.ndarray,
    tol: float = 1e-12,
    fb_iters: int = 100_000,
) -> np.ndarray:
    """Refine a near-solution to fixed-point residual <= tol.

    For interval-only regularizers on least squares the support and the
    selected interval endpoints of x_approx determine a linear stationarity
    system; its minimum-norm correction usually lands within rounding of
    the solution face in one solve.  The candidate is accepted only if its
    full-space residual meets tol and its objective does not exceed the
    input's; otherwise (and for power penalties, always) the fallback is a
    plain forward-backward continuation at step 1/L, whose descent property
    keeps the objective guarantee.
    """
    x_approx = np.asarray(x_approx, dtype=float)
    if x_approx.shape != (problem.n,):
        raise ValueError(f"x_approx must have shape ({problem.n},)")
    if not np.all(np.isfinite(x_approx)):
        raise ValueError("x_approx must be finite")

    g = problem.g
    ls_like = g.all_zero_psi and hasattr(problem.h, "op")
    if not ls_like:
        return _fb_continuation(problem, x_approx, tol, fb_iters)

    lam = 1.0 / float(problem.h.lipschitz)
    J = [int(k) for k in np.flatnonzero(x_approx)]
    cand = np.zeros(problem.n)
    if J:
        los, his = g.lower_endpoints, g.upper_endpoints
        s = np.where(x_approx[J] > 0, his[J], los[J])
        if not np.all(np.isfinite(s)):
            # a coordinate pushed toward an absent endpoint; no linear
            # system to solve there
            return _fb_continuation(problem, x_approx, tol, fb_iters)
        # C order: the sums in gram, rhs and lstsq then run as over the
        # stacked columns A @ e_k; an F-ordered slice changes their last bits
        cols = np.ascontiguousarray(problem.h.op[:, J])
        gram = cols.T @ cols
        rhs = cols.T @ problem.h.y - s
        xj = x_approx[J]
        # correction form: for a singular face this picks the stationary
        # point nearest the input instead of the min-norm solution
        delta = np.linalg.lstsq(gram, rhs - gram @ xj, rcond=None)[0]
        cand[J] = xj + delta

    res = fixed_point_residual(problem, lam, cand)
    if res <= tol and problem.objective(cand) <= problem.objective(x_approx):
        return cand
    return _fb_continuation(problem, x_approx, tol, fb_iters)


def verify_unique_minimizer(
    problem: Problem,
    seed: int = 0,
    n_starts: int = 5,
    start_scale: float = 1.0,
    max_iter: int = 100_000,
    polish_tol: float = 1e-12,
    match_tol: float = 1e-8,
) -> tuple[bool, np.ndarray, float]:
    """Polish from several random starts and compare the landing points.

    Returns (unique, x_bar, spread) with x_bar the best-objective landing
    point and spread the maximum pairwise distance.  Agreement of all
    starts within match_tol is a uniqueness surrogate, not a proof; the
    growth estimator refuses to run without it because its distance term
    assumes a single minimizer.
    """
    rng = np.random.default_rng(seed)
    landings = []
    for _ in range(n_starts):
        x0 = start_scale * rng.standard_normal(problem.n)
        config = SolverConfig(
            max_iter=max_iter,
            residual_tol=max(polish_tol, 1e-10),
            record_every=max(1, max_iter // 100),
            x0=x0,
        )
        trace = run(problem, config)
        landings.append(polish(problem, trace.x_final, tol=polish_tol))
    spread = 0.0
    for i in range(n_starts):
        for j in range(i + 1, n_starts):
            spread = max(spread, float(np.linalg.norm(landings[i] - landings[j])))
    x_bar = min(landings, key=problem.objective)
    return spread <= match_tol, x_bar, spread


@dataclass(frozen=True)
class GammaEstimate:
    """Sampled growth constant: min over accepted samples of
    p*(f(x)-f*)/dist(x, x_bar)^p.  An upper bound on the true constant;
    sampling cannot certify the infimum."""

    gamma: float
    p: float
    n_samples: int
    n_accepted: int
    J: tuple
    delta: float
    r: float
    seed: int
    f_star: float

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "p": self.p,
            "n_samples": self.n_samples,
            "n_accepted": self.n_accepted,
            "J": list(self.J),
            "delta": self.delta,
            "r": self.r,
            "seed": self.seed,
            "f_star": self.f_star,
        }


def estimate_gamma(
    problem: Problem,
    J,
    x_bar: np.ndarray,
    delta: float,
    r: float,
    p: float,
    n_samples: int = 10_000,
    seed: int = 0,
) -> GammaEstimate:
    """Sample the p-growth ratio on the region
    {supp(x) in J} ∩ ball(x_bar, delta) ∩ {f < f* + r}, x != x_bar.

    Candidates are uniform on the ball restricted to the J-subspace;
    rejection enforces the sublevel constraint.  ``x_bar`` must be the
    problem's verified unique minimizer (see `verify_unique_minimizer`)
    and every interval bounded, the hypotheses under which the growth
    property is meaningful.  The same seed always produces the same
    candidate stream, and a longer stream extends a shorter one, so the
    estimate is nonincreasing in n_samples.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    if x_bar.shape != (problem.n,):
        raise ValueError(f"x_bar must have shape ({problem.n},)")
    J = tuple(sorted({int(k) for k in J}))
    if not J:
        raise ValueError("J must be a nonempty index set")
    if any(k < 0 or k >= problem.n for k in J):
        raise ValueError(f"J out of range for dimension {problem.n}")
    if not (delta > 0 and r > 0 and p > 1 and n_samples >= 1):
        raise ValueError("need delta > 0, r > 0, p > 1, n_samples >= 1")
    g = problem.g
    if not (
        np.all(np.isfinite(g.lower_endpoints))
        and np.all(np.isfinite(g.upper_endpoints))
    ):
        raise ValueError("growth estimation requires bounded intervals")

    f_star = problem.objective(x_bar)
    floor = 1e-14 * (1.0 + abs(f_star))
    d = len(J)
    Jarr = np.array(J, dtype=np.intp)
    off_mask = np.ones(problem.n, dtype=bool)
    off_mask[Jarr] = False
    off_norm_sq = float(np.sum(x_bar[off_mask] ** 2))
    ball_sq = delta ** 2 - off_norm_sq
    if ball_sq <= 0.0:
        raise RuntimeError(
            "region empty: x_bar is farther than delta from the J-subspace"
        )
    ball_radius = math.sqrt(ball_sq)

    rng = np.random.default_rng(seed)
    gamma = math.inf
    n_accepted = 0
    remaining = n_samples
    while remaining > 0:
        # full-size draws keep the stream identical across budgets
        normals = rng.standard_normal((_SAMPLE_CHUNK, d))
        unit = rng.random(_SAMPLE_CHUNK)
        take = min(_SAMPLE_CHUNK, remaining)
        remaining -= take
        lengths = np.linalg.norm(normals[:take], axis=1)
        lengths[lengths == 0.0] = 1.0
        radii = ball_radius * unit[:take] ** (1.0 / d)
        points = x_bar[Jarr] + normals[:take] * (radii / lengths)[:, None]
        for row in points:
            x = np.zeros(problem.n)
            x[Jarr] = row
            gap = problem.objective(x) - f_star
            dist = math.sqrt(float(np.sum((row - x_bar[Jarr]) ** 2)) + off_norm_sq)
            if gap < -floor:
                raise RuntimeError(
                    f"sample beats the reference objective by {-gap:.3e}; "
                    "x_bar is not the minimizer"
                )
            if gap <= floor and dist >= delta / 10.0:
                raise RuntimeError(
                    f"flat objective at distance {dist:.3e} from x_bar; "
                    "minimizer looks non-unique, distance term is invalid"
                )
            if gap <= floor or gap >= r:
                continue
            n_accepted += 1
            gamma = min(gamma, p * gap / dist ** p)

    if n_accepted / n_samples < 0.001:
        raise RuntimeError(
            f"rejection rate {1 - n_accepted / n_samples:.4f} above 99.9%: "
            "region nearly empty, shrink r or delta"
        )
    return GammaEstimate(
        gamma=float(gamma),
        p=float(p),
        n_samples=int(n_samples),
        n_accepted=int(n_accepted),
        J=J,
        delta=float(delta),
        r=float(r),
        seed=int(seed),
        f_star=float(f_star),
    )


@dataclass(frozen=True)
class RateReport:
    """Tail decay classification of the objective gap.

    regime 'linear' carries epsilon = exp(slope of log gap vs n) in (0,1);
    'sublinear' carries exponent q > 0 and constant from gap ~ C * n^-q;
    'inconclusive' carries only the diagnostics.  r2_linear / r2_loglog are
    reported side by side regardless of the verdict.
    """

    regime: str
    epsilon: Optional[float]
    exponent: Optional[float]
    constant: Optional[float]
    r_squared: Optional[float]
    r2_linear: float
    r2_loglog: float
    window: Optional[tuple[int, int]]
    n_points: int

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "epsilon": self.epsilon,
            "exponent": self.exponent,
            "constant": self.constant,
            "r_squared": self.r_squared,
            "r2_linear": self.r2_linear,
            "r2_loglog": self.r2_loglog,
            "window": None if self.window is None else list(self.window),
            "n_points": self.n_points,
        }


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    # slope, intercept, R^2
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if ss_tot <= 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def _tail_window(
    trace: IterateTrace, f_star: float, window_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rows n >= 1 with gap above the rounding floor, last fraction only.

    The floor 1e-14*(1+|f*|) cuts the numerically converged tail whose log
    is rounding noise; the above-floor segment is taken as a prefix so a
    converged run contributes its pre-floor decay.
    """
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window_fraction must be in (0, 1]")
    gaps = trace.objectives - f_star
    keep = trace.ns >= 1
    ns = trace.ns[keep].astype(float)
    gaps = gaps[keep]
    floor = 1e-14 * (1.0 + abs(f_star))
    below = np.flatnonzero(gaps <= floor)
    cut = int(below[0]) if below.size else len(gaps)
    ns, gaps = ns[:cut], gaps[:cut]
    k = max(int(math.ceil(window_fraction * len(ns))), min(len(ns), 2))
    return ns[len(ns) - k :], gaps[len(gaps) - k :]


def fit_rate(
    trace: IterateTrace, f_star: float, window_fraction: float = 0.5
) -> RateReport:
    """Classify the tail of f(x^n) - f* as geometric or power-law decay.

    Fits log gap against n and against log n on the tail window and picks
    the better fit among those with negative slope and R^2 >= 0.99; the
    geometric reading wins ties.  Fewer than 8 usable points in the window
    is inconclusive by construction.
    """
    ns, gaps = _tail_window(trace, f_star, window_fraction)
    if len(ns) < _MIN_FIT_POINTS:
        return RateReport(
            regime="inconclusive",
            epsilon=None,
            exponent=None,
            constant=None,
            r_squared=None,
            r2_linear=0.0,
            r2_loglog=0.0,
            window=None,
            n_points=len(ns),
        )
    logg = np.log(gaps)
    slope_lin, _, r2_lin = _ols(ns, logg)
    slope_log, icpt_log, r2_log = _ols(np.log(ns), logg)
    window = (int(ns[0]), int(ns[-1]))

    linear_ok = slope_lin < 0.0 and r2_lin >= _R2_THRESHOLD
    sublinear_ok = slope_log < 0.0 and r2_log >= _R2_THRESHOLD
    if linear_ok and (not sublinear_ok or r2_lin >= r2_log):
        return RateReport(
            regime="linear",
            epsilon=math.exp(slope_lin),
            exponent=None,
            constant=None,
            r_squared=r2_lin,
            r2_linear=r2_lin,
            r2_loglog=r2_log,
            window=window,
            n_points=len(ns),
        )
    if sublinear_ok:
        return RateReport(
            regime="sublinear",
            epsilon=None,
            exponent=-slope_log,
            constant=math.exp(icpt_log),
            r_squared=r2_log,
            r2_linear=r2_lin,
            r2_loglog=r2_log,
            window=window,
            n_points=len(ns),
        )
    return RateReport(
        regime="inconclusive",
        epsilon=None,
        exponent=None,
        constant=None,
        r_squared=None,
        r2_linear=r2_lin,
        r2_loglog=r2_log,
        window=window,
        n_points=len(ns),
    )


def sublinear_bound_check(
    trace: IterateTrace, f_star: float, p: float, window_fraction: float = 0.5
) -> tuple[float, float]:
    """Consistency with a gap <= C1 * n^(-p/(p-2)) tail bound.

    Returns (C1, slope): C1 is the max of gap * n^(p/(p-2)) over the tail
    window and slope is the log-log trend of that product, which should be
    <= 0 up to fit noise when the bound holds.  Decay faster than the bound
    (very negative slope) is consistent: the rate theorem is one-sided.
    """
    if not p > 2.0:
        raise ValueError("the power-law tail bound applies for p > 2 only")
    ns, gaps = _tail_window(trace, f_star, window_fraction)
    if len(ns) < _MIN_FIT_POINTS:
        raise ValueError(
            f"only {len(ns)} usable points in the tail window, need "
            f">= {_MIN_FIT_POINTS}"
        )
    q = p / (p - 2.0)
    z = gaps * ns ** q
    slope, _, _ = _ols(np.log(ns), np.log(z))
    return float(np.max(z)), slope
