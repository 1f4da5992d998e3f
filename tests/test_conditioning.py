import math

import numpy as np
import pytest

from threshgrad.conditioning import (
    PolishError,
    brute_force_scalar_min,
    estimate_gamma,
    fit_rate,
    polish,
    sublinear_bound_check,
    verify_unique_minimizer,
)
from threshgrad.operators import LeastSquaresTerm
from threshgrad.regularizers import Interval, PowerPenalty, SeparableRegularizer
from threshgrad.solver import IterateTrace, Problem, SolverConfig, run


def scalar_problem():
    h = LeastSquaresTerm([[1.0]], np.array([1.0]), lipschitz=1.0)
    return Problem(g=SeparableRegularizer.uniform(1), h=h)


def segment_problem():
    s = np.sqrt(2.0)
    h = LeastSquaresTerm([[s, -s]], np.array([s]), lipschitz=4.0)
    return Problem(g=SeparableRegularizer.uniform(2), h=h)


def lasso_problem(seed, m=10, n=25):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    h = LeastSquaresTerm(
        a,
        rng.standard_normal(m),
        lipschitz=float(np.linalg.norm(a, ord=2) ** 2) * 1.001,
    )
    return Problem(g=SeparableRegularizer.uniform(n), h=h)


def quartic_problem(weight=1.0):
    """Pure quartic growth at 0: negligible interval, penalty |x|^4/4."""
    h = LeastSquaresTerm([[0.0]], np.array([0.0]), lipschitz=1.0)
    g = SeparableRegularizer.uniform(
        1, Interval(-1e-9, 1e-9), PowerPenalty(4.0, weight), omega=1e-9
    )
    return Problem(g=g, h=h)


def gap_trace(gaps, f_star=0.0, start_n=1):
    """Trace scaffold carrying a prescribed objective-gap sequence."""
    gaps = np.asarray(gaps, dtype=float)
    k = len(gaps)
    ns = np.arange(start_n, start_n + k, dtype=np.int64)
    return IterateTrace(
        ns=ns,
        objectives=f_star + gaps,
        residuals=np.zeros(k),
        offsets=np.zeros(k + 1, dtype=np.int64),
        indices=np.zeros(0, dtype=np.int32),
        values=np.zeros(0),
        dists=None,
        x_final=np.zeros(1),
        x0=np.zeros(1),
        lam=1.0,
        converged=True,
        n_iterations=int(ns[-1]),
        final_residual=0.0,
        record_every=1,
        wall_time=0.0,
    )


def bisect_root(fun, lo, hi, tol=1e-14):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fun(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# scalar brute force


def test_brute_force_on_soft_threshold_objective():
    argmin, val = brute_force_scalar_min(lambda s: abs(s) + 0.5 * (s - 2.0) ** 2, -3.0, 3.0)
    assert argmin == pytest.approx(1.0, abs=1e-6)
    assert val == pytest.approx(1.5, abs=1e-12)


def test_brute_force_on_quartic_objective():
    fun = lambda s: 0.25 * s ** 4 + 0.5 * (s - 2.0) ** 2
    argmin, val = brute_force_scalar_min(fun, 0.0, 2.0)
    oracle = bisect_root(lambda s: s ** 3 + s - 2.0, 0.0, 2.0)
    assert oracle == pytest.approx(1.0, abs=1e-12)
    assert argmin == pytest.approx(oracle, abs=1e-6)
    assert val == pytest.approx(0.75, abs=1e-12)


def test_brute_force_on_parabola():
    argmin, _ = brute_force_scalar_min(lambda s: (s - 0.3) ** 2, -1.0, 1.0)
    assert argmin == pytest.approx(0.3, abs=1e-7)


def test_brute_force_on_constant():
    argmin, val = brute_force_scalar_min(lambda s: 4.0, -1.0, 1.0)
    assert val == 4.0
    assert -1.0 <= argmin <= 1.0


def test_brute_force_vectorized_and_scalar_functions_agree():
    # numpy-aware and scalar-only callables must give the same result
    def scalar_only(s):
        if isinstance(s, np.ndarray):
            raise TypeError("scalar input only")
        return (s - 0.7) ** 2 + abs(s)

    a1, v1 = brute_force_scalar_min(lambda s: (s - 0.7) ** 2 + abs(s), 0.0, 2.0)
    a2, v2 = brute_force_scalar_min(scalar_only, 0.0, 2.0)
    assert a1 == pytest.approx(a2, abs=1e-9)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_brute_force_validates_bracket():
    with pytest.raises(ValueError):
        brute_force_scalar_min(lambda s: s, 1.0, 1.0)
    with pytest.raises(ValueError):
        brute_force_scalar_min(lambda s: s, 0.0, 1.0, tol=0.0)


# ---------------------------------------------------------------------------
# polish


def test_polish_scalar_problem_lands_exactly_at_zero():
    p = scalar_problem()
    assert polish(p, np.array([1e-6]))[0] == 0.0


def test_polish_keeps_exact_solution():
    from threshgrad.solver import fixed_point_residual

    # bit-identity is not on offer (the face Gram rounds: fl(sqrt2)^2 != 2);
    # the correction must stay within ulps and not degrade anything
    p = segment_problem()
    x = np.array([0.25, -0.25])
    out = polish(p, x)
    assert np.max(np.abs(out - x)) <= 1e-14
    assert p.objective(out) <= p.objective(x)
    assert fixed_point_residual(p, 0.25, out) <= 1e-12


def test_polish_near_solution_on_singular_face():
    from threshgrad.solver import fixed_point_residual

    p = segment_problem()
    x = polish(p, np.array([0.5 + 1e-7, 1e-7]))
    assert fixed_point_residual(p, 0.25, x) <= 1e-12
    assert p.objective(x) == pytest.approx(0.75, abs=1e-12)


def test_polish_residual_postcondition_on_random_instances():
    from threshgrad.solver import fixed_point_residual

    for seed in range(3):
        p = lasso_problem(seed)
        trace = run(p, SolverConfig(residual_tol=1e-8))
        x = polish(p, trace.x_final, tol=1e-12)
        lam = 1.0 / p.h.lipschitz
        assert fixed_point_residual(p, lam, x) <= 1e-12
        assert p.objective(x) <= p.objective(trace.x_final) + 1e-15


def test_polish_with_power_penalty_uses_iterative_fallback():
    from threshgrad.solver import fixed_point_residual

    p = lasso_problem(4)
    g = SeparableRegularizer.uniform(25, penalty=PowerPenalty(4.0, 0.5))
    p = Problem(g=g, h=p.h)
    trace = run(p, SolverConfig(residual_tol=1e-8))
    x = polish(p, trace.x_final, tol=1e-12)
    lam = 1.0 / p.h.lipschitz
    assert fixed_point_residual(p, lam, x) <= 1e-12


def test_polish_error_carries_best_point():
    # a power penalty forces the iterative path; with L overstated to 2 the
    # scalar recursion is x -> x/4 exactly, far from 1e-12 after 5 steps
    h = LeastSquaresTerm([[1.0]], np.array([1.0]), lipschitz=2.0)
    p = Problem(
        g=SeparableRegularizer.uniform(1, penalty=PowerPenalty(2.0, 2.0)), h=h
    )
    with pytest.raises(PolishError) as exc:
        polish(p, np.array([1.0]), tol=1e-12, fb_iters=5)
    assert exc.value.x[0] == 0.25 ** 5
    assert exc.value.residual == 1.5 * 0.25 ** 5


def stacked_columns_face_solve(problem, x):
    """The face solve of `polish` on columns built one matvec each, A @ e_k."""
    J = [int(k) for k in np.flatnonzero(x)]
    g = problem.g
    s = np.where(x[J] > 0, g.upper_endpoints[J], g.lower_endpoints[J])
    cols = np.column_stack([problem.h.op @ np.eye(problem.n)[k] for k in J])
    gram = cols.T @ cols
    rhs = cols.T @ problem.h.y - s
    cand = np.zeros(problem.n)
    cand[J] = x[J] + np.linalg.lstsq(gram, rhs - gram @ x[J], rcond=None)[0]
    return cand


def test_polish_face_solve_is_bitwise_the_stacked_column_solve():
    from threshgrad.cli import generate_synthetic
    from threshgrad.conditioning import _fb_continuation
    from threshgrad.solver import fixed_point_residual

    face_route = 0
    for seed in range(10):
        p = generate_synthetic(20, 50, seed)
        x = run(p, SolverConfig(residual_tol=1e-10)).x_final
        got = polish(p, x, tol=1e-12)
        cand = stacked_columns_face_solve(p, x)
        lam = 1.0 / p.h.lipschitz
        if fixed_point_residual(p, lam, cand) <= 1e-12 and (
            p.objective(cand) <= p.objective(x)
        ):
            face_route += 1
            assert got.tobytes() == cand.tobytes(), seed
        else:
            want = _fb_continuation(p, x, 1e-12, 100_000)
            assert got.tobytes() == want.tobytes(), seed
    assert face_route >= 5


def test_polish_validates_input():
    p = scalar_problem()
    with pytest.raises(ValueError):
        polish(p, np.zeros(2))
    with pytest.raises(ValueError):
        polish(p, np.array([np.nan]))


# ---------------------------------------------------------------------------
# uniqueness surrogate


def test_unique_minimizer_confirmed_for_scalar_problem():
    unique, x_bar, spread = verify_unique_minimizer(scalar_problem())
    assert unique
    assert x_bar[0] == 0.0
    assert spread == 0.0


def test_unique_minimizer_rejected_on_segment():
    unique, x_bar, spread = verify_unique_minimizer(segment_problem())
    assert not unique
    assert spread > 1e-3
    assert segment_problem().objective(x_bar) == pytest.approx(0.75, abs=1e-12)


# ---------------------------------------------------------------------------
# growth constant sampling


def test_gamma_quadratic_growth_of_scalar_problem():
    p = scalar_problem()
    est = estimate_gamma(p, (0,), np.zeros(1), delta=1.0, r=1.0, p=2.0)
    # gap = x^2/2 on the positive side, so the ratio 2*gap/x^2 bottoms at 1
    assert est.gamma == pytest.approx(1.0, abs=1e-2)
    assert est.n_accepted > 0
    assert est.f_star == 0.5


def test_gamma_identity_quadratic():
    h = LeastSquaresTerm([[1.0]], np.array([2.0]), lipschitz=1.0)
    g = SeparableRegularizer.uniform(1, Interval(-1e-9, 1e-9), omega=1e-9)
    p = Problem(g=g, h=h)
    unique, x_bar, _ = verify_unique_minimizer(p)
    assert unique
    est = estimate_gamma(p, (0,), x_bar, delta=0.5, r=0.5, p=2.0)
    assert est.gamma == pytest.approx(1.0, abs=1e-3)


def test_gamma_quartic_recovers_weight_and_quadratic_degenerates():
    p = quartic_problem(weight=1.0)
    x_bar = np.zeros(1)
    g4 = estimate_gamma(p, (0,), x_bar, delta=0.5, r=0.5, p=4.0)
    assert g4.gamma == pytest.approx(1.0, rel=1e-4)
    g2_wide = estimate_gamma(p, (0,), x_bar, delta=0.5, r=0.5, p=2.0)
    g2_narrow = estimate_gamma(p, (0,), x_bar, delta=0.05, r=0.5, p=2.0)
    # no quadratic growth: the sampled constant collapses, and shrinking
    # the ball cannot restore it
    assert g2_wide.gamma < 1e-4
    assert g2_narrow.gamma <= g2_wide.gamma * (1.0 + 1e-6)
    assert g4.gamma / g2_wide.gamma > 1e3


def test_gamma_scaled_weight():
    p = quartic_problem(weight=3.0)
    est = estimate_gamma(p, (0,), np.zeros(1), delta=0.5, r=0.5, p=4.0)
    assert est.gamma == pytest.approx(3.0, rel=1e-4)


def test_gamma_monotone_in_sample_budget():
    p = quartic_problem()
    kw = dict(delta=0.5, r=0.5, p=4.0, seed=3)
    small = estimate_gamma(p, (0,), np.zeros(1), n_samples=1000, **kw)
    large = estimate_gamma(p, (0,), np.zeros(1), n_samples=5000, **kw)
    assert large.gamma <= small.gamma
    assert large.n_accepted >= small.n_accepted


def test_gamma_deterministic_in_seed():
    p = quartic_problem()
    a = estimate_gamma(p, (0,), np.zeros(1), delta=0.5, r=0.5, p=4.0, seed=7)
    b = estimate_gamma(p, (0,), np.zeros(1), delta=0.5, r=0.5, p=4.0, seed=7)
    assert a.gamma == b.gamma
    assert a.to_dict() == b.to_dict()


def test_gamma_rejects_bad_region_arguments():
    p = scalar_problem()
    with pytest.raises(ValueError):
        estimate_gamma(p, (), np.zeros(1), delta=1.0, r=1.0, p=2.0)
    with pytest.raises(ValueError):
        estimate_gamma(p, (3,), np.zeros(1), delta=1.0, r=1.0, p=2.0)
    with pytest.raises(ValueError):
        estimate_gamma(p, (0,), np.zeros(1), delta=0.0, r=1.0, p=2.0)
    with pytest.raises(ValueError):
        estimate_gamma(p, (0,), np.zeros(1), delta=1.0, r=1.0, p=1.0)


def test_gamma_requires_bounded_intervals():
    h = LeastSquaresTerm([[1.0]], np.array([1.0]), lipschitz=1.0)
    g = SeparableRegularizer.uniform(1, Interval(-1.0, math.inf), omega=1.0)
    p = Problem(g=g, h=h)
    with pytest.raises(ValueError):
        estimate_gamma(p, (0,), np.zeros(1), delta=1.0, r=1.0, p=2.0)


def test_gamma_detects_empty_region():
    p = segment_problem()
    # x_bar has mass 2.0 outside J, beyond the ball radius
    with pytest.raises(RuntimeError, match="empty"):
        estimate_gamma(p, (0,), np.array([0.0, 2.0]), delta=0.5, r=0.5, p=2.0)


def test_gamma_detects_wrong_reference_point():
    p = scalar_problem()
    with pytest.raises(RuntimeError, match="not the minimizer"):
        estimate_gamma(p, (0,), np.array([0.5]), delta=0.5, r=0.5, p=2.0)


def test_gamma_detects_flat_objective():
    h = LeastSquaresTerm([[0.0, 0.0]], np.array([0.0]), lipschitz=1.0)
    g = SeparableRegularizer.uniform(2, Interval(-1e-300, 1e-300), omega=1e-300)
    p = Problem(g=g, h=h)
    with pytest.raises(RuntimeError, match="non-unique"):
        estimate_gamma(p, (0, 1), np.zeros(2), delta=1.0, r=1.0, p=2.0)


def test_gamma_reports_excessive_rejection():
    p = scalar_problem()
    with pytest.raises(RuntimeError, match="rejection"):
        estimate_gamma(
            p, (0,), np.zeros(1), delta=1.0, r=1e-20, p=2.0, n_samples=2000
        )


# ---------------------------------------------------------------------------
# rate classification


def test_fit_rate_geometric_sequence():
    rep = fit_rate(gap_trace(0.9 ** np.arange(1, 201)), f_star=0.0)
    assert rep.regime == "linear"
    assert rep.epsilon == pytest.approx(0.9, abs=1e-6)
    assert rep.r_squared >= 0.999999
    assert rep.window[1] == 200


def test_fit_rate_power_law_sequence():
    n = np.arange(1, 501, dtype=float)
    rep = fit_rate(gap_trace(7.0 * n ** -2.0), f_star=0.0)
    assert rep.regime == "sublinear"
    assert rep.exponent == pytest.approx(2.0, abs=1e-6)
    assert rep.constant == pytest.approx(7.0, rel=1e-6)
    # both fits are diagnosed; the log-log one is exact and wins
    assert rep.r2_loglog > rep.r2_linear


def test_fit_rate_noisy_geometric_sequence():
    rng = np.random.default_rng(8)
    gaps = 0.9 ** np.arange(1, 301) * (1.0 + 1e-3 * rng.uniform(-1, 1, 300))
    rep = fit_rate(gap_trace(gaps), f_star=0.0)
    assert rep.regime == "linear"
    assert rep.epsilon == pytest.approx(0.9, abs=1e-3)


def test_fit_rate_on_scalar_run():
    p = scalar_problem()
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([1.0])))
    rep = fit_rate(trace, f_star=0.5)
    assert rep.regime == "linear"
    assert rep.epsilon == pytest.approx(0.25, abs=1e-9)
    assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
    # gap falls below the rounding floor at n = 23; half-window of the
    # remaining 22 points
    assert rep.window == (12, 22)
    assert rep.n_points == 11


def test_fit_rate_too_few_points_is_inconclusive():
    rep = fit_rate(gap_trace(0.5 ** np.arange(1, 6)), f_star=0.0)
    assert rep.regime == "inconclusive"
    assert rep.epsilon is None and rep.exponent is None
    # the half-fraction tail window of 5 recorded gaps keeps 3 points
    assert rep.n_points == 3


def test_fit_rate_converged_at_start_is_inconclusive():
    p = scalar_problem()
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([0.0])))
    rep = fit_rate(trace, f_star=0.5)
    assert rep.regime == "inconclusive"
    assert rep.n_points == 0


def test_fit_rate_erratic_sequence_is_inconclusive():
    n = np.arange(1, 101, dtype=float)
    rep = fit_rate(gap_trace(np.exp(np.sin(n))), f_star=0.0)
    assert rep.regime == "inconclusive"
    assert rep.r2_linear < 0.99 and rep.r2_loglog < 0.99
    assert rep.window is not None


def test_fit_rate_window_fraction_validation():
    trace = gap_trace(0.9 ** np.arange(1, 50))
    with pytest.raises(ValueError):
        fit_rate(trace, 0.0, window_fraction=0.0)
    with pytest.raises(ValueError):
        fit_rate(trace, 0.0, window_fraction=1.5)
    full = fit_rate(trace, 0.0, window_fraction=1.0)
    assert full.window == (1, 49)


def test_fit_rate_report_serializes():
    rep = fit_rate(gap_trace(0.9 ** np.arange(1, 100)), f_star=0.0)
    d = rep.to_dict()
    assert d["regime"] == "linear"
    assert d["window"] == [50, 99]


# ---------------------------------------------------------------------------
# sublinear tail-bound consistency


def test_tail_bound_exact_power_law():
    n = np.arange(1, 201, dtype=float)
    c1, slope = sublinear_bound_check(gap_trace(5.0 * n ** -2.0), 0.0, p=4.0)
    assert c1 == pytest.approx(5.0, rel=1e-12)
    assert abs(slope) <= 1e-8


def test_tail_bound_faster_decay_is_consistent():
    c1, slope = sublinear_bound_check(gap_trace(0.5 ** np.arange(1, 101)), 0.0, p=4.0)
    assert slope < 0.0


def test_tail_bound_flags_slower_decay():
    n = np.arange(1, 201, dtype=float)
    _, slope = sublinear_bound_check(gap_trace(n ** -1.0), 0.0, p=4.0)
    assert slope == pytest.approx(1.0, abs=1e-6)


def test_tail_bound_needs_p_above_two():
    trace = gap_trace(0.5 ** np.arange(1, 50))
    with pytest.raises(ValueError):
        sublinear_bound_check(trace, 0.0, p=2.0)


def test_tail_bound_needs_enough_points():
    with pytest.raises(ValueError):
        sublinear_bound_check(gap_trace([0.5, 0.25]), 0.0, p=4.0)
