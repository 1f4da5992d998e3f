"""Reference polishing, growth certificates, rate classification.

The objective f is p-conditioned with constant gamma on a region when

    gamma/p * dist(x, argmin f)^p <= f(x) - inf f.

Order 2 on sublevel sets gives a linear rate for the forward-backward
iteration; order p > 2 gives a O(n^{-p/(p-2)}) tail.  `polish` produces a
high-accuracy reference minimizer x_bar, `verify_unique_minimizer`
certifies by a rank test on its extended support J that it is the only
one, `face_growth` certifies order 2 on the face {supp x in J} with
gamma = sigma_min(A_J)^2, and `fit_rate` classifies the decay of the
objective gap along a trace into the rate verdict.  `estimate_gamma`
samples the growth ratio near x_bar, an upper bound on the constant by
construction; it is a library check, not part of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .regularizers import PowerPenalty
from .solver import (
    IterateTrace,
    Problem,
    SolverConfig,
    fixed_point_residual,
    run,
)

__all__ = [
    "GammaEstimate",
    "PolishError",
    "polish",
    "verify_unique_minimizer",
    "face_growth",
    "estimate_gamma",
    "fit_rate",
]

_SAMPLE_CHUNK = 512  # fixed chunk so sample streams nest across budgets
_MIN_FIT_POINTS = 8
_R2_THRESHOLD = 0.99
_TAIL_FRACTION = 0.5  # the rate fit and the tail bound read the last half
_POLISH_TOL = 1e-12
_POLISH_ITERS = 100_000  # budget of polish's forward-backward continuation


def _rounding_floor(f_star: float) -> float:
    """The objective gap 1e-14*(1+|f*|) below which a gap is rounding noise."""
    return 1e-14 * (1.0 + abs(f_star))


class PolishError(RuntimeError):
    """Raised when no candidate reaches the target residual; the message
    names the residual the continuation stalled at."""


def _fb_continuation(problem: Problem, x_from: np.ndarray) -> tuple[np.ndarray, float]:
    cfg = SolverConfig(max_iter=_POLISH_ITERS, residual_tol=_POLISH_TOL, x0=x_from)
    trace = run(problem, cfg)
    if not trace.converged:
        raise PolishError(
            f"continuation stalled at residual {trace.residuals[-1]:.3e} "
            f"after {trace.n_iterations} iterations (target {_POLISH_TOL:.1e})"
        )
    return trace.x_final, float(trace.objectives[-1])


def polish(problem: Problem, trace: IterateTrace) -> tuple[np.ndarray, float]:
    """Refine a run's last iterate to fixed-point residual <= 1e-12
    (_POLISH_TOL); returns the pair (x_bar, f(x_bar)).

    The input x_approx is ``trace.x_final`` and its objective the trace's
    last row.  For interval-only regularizers on least squares the support
    and the selected interval endpoints of x_approx determine a linear
    stationarity system; its minimum-norm correction usually lands within
    rounding of the solution face in one solve.  The candidate is accepted
    only if its full-space residual meets 1e-12 and its objective does not
    exceed the input's; otherwise (and for power penalties, always) the
    fallback is a plain forward-backward continuation at step 1/L, whose
    descent property keeps the objective guarantee, capped at _POLISH_ITERS
    iterations; its trace's last row is then f(x_bar).
    """
    x_approx = trace.x_final
    g = problem.g
    J = [int(k) for k in np.flatnonzero(x_approx)]
    # the endpoint each nonzero is pushed toward; an absent one leaves no
    # linear system to solve
    s = np.where(x_approx[J] > 0, g.upper_endpoints[J], g.lower_endpoints[J])
    if g.all_zero_psi and np.all(np.isfinite(s)):
        cand = np.zeros(problem.n)
        if J:
            # C order: the sums in gram, rhs and lstsq then run as over the
            # stacked columns A @ e_k; an F-ordered slice changes their last bits
            cols = np.ascontiguousarray(problem.h.op[:, J])
            gram = cols.T @ cols
            rhs = cols.T @ problem.h.y - s
            xj = x_approx[J]
            # correction form: for a singular face this picks the stationary
            # point nearest the input instead of the min-norm solution
            cand[J] = xj + np.linalg.lstsq(gram, rhs - gram @ xj, rcond=None)[0]
        lam = 1.0 / float(problem.h.lipschitz)
        if fixed_point_residual(problem, lam, cand) <= _POLISH_TOL:
            f_cand = problem.objective(cand)
            if f_cand <= trace.objectives[-1]:
                return cand, f_cand
    return _fb_continuation(problem, x_approx)


def _column_rank(cols: np.ndarray) -> tuple[int, np.ndarray]:
    """The rank of ``cols`` by `numpy.linalg.matrix_rank`'s default
    tolerance, sigma_max * max(shape) * eps, and its singular values in
    descending order, from one SVD."""
    sigma = np.linalg.svd(cols, compute_uv=False)
    tol = sigma[0] * max(cols.shape) * np.finfo(float).eps
    return int(np.count_nonzero(sigma > tol)), sigma


def verify_unique_minimizer(problem: Problem, esupp) -> tuple[bool, str, np.ndarray]:
    """Certify that the minimizer with extended support ``esupp`` is unique.

    Every minimizer has the same A x and the same dual point -grad_h, so
    two minimizers differ by a direction d with A d = 0 and supp d in
    esupp; d also vanishes wherever psi_k is strictly convex (a power
    penalty of positive weight).  The minimizer is therefore unique when
    the columns of A on D = {k in esupp : psi_k = 0} are independent
    (Tibshirani, The lasso problem and uniqueness, EJS 2013), which
    `numpy.linalg.matrix_rank` decides with its default tolerance.  An
    esupp taken with a boundary tolerance can only enlarge D, which keeps
    the certificate conservative.  A custom penalty leaves uniqueness
    unchecked.

    Returns (unique, reason, sigma): the reason states the rank and |D|,
    and sigma holds the singular values of A_D (empty when D is).
    """
    groups = problem.g._groups
    if not all(isinstance(pen, PowerPenalty) for _, pen in groups):
        return False, "a custom penalty leaves uniqueness unchecked", np.empty(0)
    convex = {int(k) for idx, _ in groups for k in idx}
    D = [k for k in esupp if k not in convex]
    rank, sigma = _column_rank(problem.h.op[:, D]) if D else (0, np.empty(0))
    return rank == len(D), f"rank(A_D) = {rank} of |D| = {len(D)}", sigma


def face_growth(problem: Problem, J: list) -> tuple[str, Optional[dict]]:
    """The growth verdict on the face {x : supp x in J}, for J the extended
    support as the support document lists it.

    For such x, f(x) - f* >= 1/2 ||A(x - x_bar)||^2 >= 1/2 sigma_min(A_J)^2
    ||x - x_bar||^2, as -grad_h(x_bar) is a subgradient of g at x_bar
    (Bredies & Lorenz, J. Fourier Anal. Appl. 2008).  The verdict is "pass"
    with {"gamma_face": sigma_min(A_J)^2, "J": [...]} for a certified unique
    minimizer and an A_J of full column rank, else "skipped: ..." with None.
    """
    if not J:
        why = "esupp is empty, so the face {supp x ⊆ esupp} is {x_bar}"
        return f"skipped: {why}", None
    unique, why, sigma = verify_unique_minimizer(problem, J)
    if not unique:
        return f"skipped: minimizer not certified unique: {why}", None
    # a certified D has |D| singular values, so D = J exactly when there
    # are |J| of them and the one SVD already holds sigma_min(A_J)
    if len(sigma) < len(J):
        rank, sigma = _column_rank(problem.h.op[:, J])
        if rank < len(J):
            why = f"rank(A_J) = {rank} of |J| = {len(J)}"
            return f"skipped: no growth certificate: {why}", None
    return "pass", {"gamma_face": float(sigma[-1]) ** 2, "J": J}


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


def estimate_gamma(
    problem: Problem,
    J,
    x_bar: np.ndarray,
    delta: float = 0.5,
    r: float = 0.5,
    p: float = 2.0,
    n_samples: int = 10_000,
    seed: int = 0,
) -> GammaEstimate:
    """Sample the p-growth ratio on the region
    {supp(x) in J} ∩ ball(x_bar, delta) ∩ {f < f* + r}, x != x_bar.

    Candidates are uniform on the ball restricted to the J-subspace;
    rejection enforces the sublevel constraint.  ``x_bar`` must be the
    problem's unique minimizer, as `verify_unique_minimizer` certifies
    from its extended support, and every interval bounded: the hypotheses
    under which the growth property is meaningful.  The same seed always
    produces the same candidate stream, and a longer stream extends a
    shorter one, so the estimate is nonincreasing in n_samples.
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
    floor = _rounding_floor(f_star)
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


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    # slope, intercept, R^2
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if ss_tot <= 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def _tail_window(ns, gaps, f_star: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows n >= 1 with gap above the rounding floor, last half only.

    The rounding floor cuts the numerically converged tail whose log
    is rounding noise; the above-floor segment is taken as a prefix so a
    converged run contributes its pre-floor decay.
    """
    ns, gaps = np.asarray(ns), np.asarray(gaps, dtype=float)
    keep = ns >= 1
    ns = ns[keep].astype(float)
    gaps = gaps[keep]
    below = np.flatnonzero(gaps <= _rounding_floor(f_star))
    cut = int(below[0]) if below.size else len(gaps)
    ns, gaps = ns[:cut], gaps[:cut]
    k = int(math.ceil(_TAIL_FRACTION * len(ns)))
    return ns[len(ns) - k :], gaps[len(gaps) - k :]


def _tail_bound(ns: np.ndarray, gaps: np.ndarray, p: float) -> dict:
    """Consistency of the tail window with a gap <= C1 * n^(-p/(p-2)) bound:
    {"exponent": p/(p-2), "constant": C1, "trend_slope": slope}, with C1 the
    max of gap * n^(p/(p-2)) and slope the log-log trend of that product,
    <= 0 up to fit noise when the bound holds (faster decay is consistent:
    the rate theorem is one-sided).  Raises ValueError when the product
    leaves the float range, as p near 2 makes the exponent huge."""
    q = p / (p - 2.0)
    with np.errstate(over="ignore"):
        z = gaps * ns ** q
    if not np.all(np.isfinite(z)):
        raise ValueError(f"n^{q:g} overflows on the tail window (p = {p:g})")
    slope, _, _ = _ols(np.log(ns), np.log(z))
    return {"exponent": q, "constant": float(np.max(z)), "trend_slope": slope}


def fit_rate(
    ns, gaps, f_star: float, converged: bool, p: Optional[float] = None
) -> tuple[str, list, Optional[dict]]:
    """The rate verdict of a run from its trace columns n and f_gap, as
    `solver.read_trace_csv` returns them: (verdict, warnings, rate), with
    ``rate`` the document that ``<prefix>_rate.json`` holds.

    Fits log gap against n and against log n on the tail window (the last
    half of the rows above the rounding floor) and picks the better fit
    among those with negative slope and R^2 >= 0.99; the geometric reading
    wins ties.  Regime 'linear' carries epsilon = exp(slope of log gap vs
    n) in (0, 1); 'sublinear' carries exponent q > 0 and constant from
    gap ~ C * n^-q; 'inconclusive' carries only the diagnostics, r2_linear
    and r2_loglog, which every regime reports side by side, and fails the
    audit, with the reason among the warnings.  With fewer than 8 usable
    points there is no fit: the audit is skipped, with no document, when
    the run converged, else the document is 'inconclusive' with
    ``window`` None.  Given the order p > 2 of a power penalty on every
    coordinate, the document holds the window's `_tail_bound` too.
    """
    last = int(ns[-1])
    ns, gaps = _tail_window(ns, gaps, f_star)
    rate = dict.fromkeys(("window", "epsilon", "exponent", "constant", "r_squared"))
    rate.update(regime="inconclusive", r2_linear=0.0, r2_loglog=0.0, n_points=len(ns))
    if len(ns) < _MIN_FIT_POINTS:
        why = f"{len(ns)} usable tail points, need >= {_MIN_FIT_POINTS}"
        if converged:
            why = f"converged at iteration {last} with {why} to fit a rate"
            return f"skipped: {why}", [], None
        return "fail", [f"rate: inconclusive: {why}"], rate
    logg = np.log(gaps)
    slope_lin, _, r2_lin = _ols(ns, logg)
    slope_log, icpt_log, r2_log = _ols(np.log(ns), logg)
    rate.update(r2_linear=r2_lin, r2_loglog=r2_log, window=[int(ns[0]), int(ns[-1])])

    linear_ok = slope_lin < 0.0 and r2_lin >= _R2_THRESHOLD
    sublinear_ok = slope_log < 0.0 and r2_log >= _R2_THRESHOLD
    if linear_ok and (not sublinear_ok or r2_lin >= r2_log):
        rate.update(regime="linear", epsilon=math.exp(slope_lin), r_squared=r2_lin)
    elif sublinear_ok:
        rate.update(
            regime="sublinear",
            exponent=-slope_log,
            constant=math.exp(icpt_log),
            r_squared=r2_log,
        )
    warnings = []
    if p is not None and p > 2.0:
        try:
            rate["tail_bound"] = _tail_bound(ns, gaps, p)
        except ValueError as exc:
            warnings.append(f"tail bound check skipped: {exc}")
    if rate["regime"] != "inconclusive":
        return "pass", warnings, rate
    warnings.append(
        f"rate: inconclusive: no decreasing fit reaches R^2 >= {_R2_THRESHOLD} "
        f"(r2_linear {r2_lin:.6g}, r2_loglog {r2_log:.6g})"
    )
    return "fail", warnings, rate
