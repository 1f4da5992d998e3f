import json
import math
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import brute_force_scalar_min, gamma_by_point

from threshgrad.analysis import analyze, generate_synthetic
from threshgrad.conditioning import (
    PolishError,
    estimate_gamma,
    face_growth,
    fit_rate,
    polish,
    verify_unique_minimizer,
)
from threshgrad.operators import LeastSquaresTerm, operator_norm
from threshgrad.regularizers import (
    CustomPenalty,
    Interval,
    PowerPenalty,
    SeparableRegularizer,
    ZeroPenalty,
)
from threshgrad.solver import Problem, run


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
        1, Interval(-1e-9, 1e-9), PowerPenalty(4.0, weight)
    )
    return Problem(g=g, h=h)


def gap_columns(gaps, start_n=1):
    """Trace columns (n, f_gap) carrying a prescribed objective-gap sequence."""
    gaps = np.asarray(gaps, dtype=float)
    return np.arange(start_n, start_n + len(gaps)), gaps


def fitted(gaps, p=None):
    """The rate document of a run that did not converge, with these gaps."""
    return fit_rate(*gap_columns(gaps), 0.0, False, p)[2]


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


def polish_point(p, x):
    """The x_bar that `polish` returns for a one-row trace of the point x."""
    return polish(p, run(p, x0=x, max_iter=0))[0]


def test_polish_scalar_problem_lands_exactly_at_zero():
    p = scalar_problem()
    assert polish_point(p, np.array([1e-6]))[0] == 0.0


def test_polish_keeps_exact_solution():
    from threshgrad.solver import fixed_point_residual

    # bit-identity is not on offer (the face Gram rounds: fl(sqrt2)^2 != 2);
    # the correction must stay within ulps and not degrade anything
    p = segment_problem()
    x = np.array([0.25, -0.25])
    out = polish_point(p, x)
    assert np.max(np.abs(out - x)) <= 1e-14
    assert p.objective(out) <= p.objective(x)
    assert fixed_point_residual(p, 0.25, out) <= 1e-12


def test_polish_near_solution_on_singular_face():
    from threshgrad.solver import fixed_point_residual

    p = segment_problem()
    x = polish_point(p, np.array([0.5 + 1e-7, 1e-7]))
    assert fixed_point_residual(p, 0.25, x) <= 1e-12
    assert p.objective(x) == pytest.approx(0.75, abs=1e-12)


def test_polish_residual_postcondition_on_random_instances():
    from threshgrad.solver import fixed_point_residual

    for seed in range(3):
        p = lasso_problem(seed)
        trace = run(p, residual_tol=1e-8)
        x = polish(p, trace)[0]
        lam = 1.0 / p.h.lipschitz
        assert fixed_point_residual(p, lam, x) <= 1e-12
        assert p.objective(x) <= p.objective(trace.x_final) + 1e-15


def test_polish_with_power_penalty_uses_iterative_fallback():
    from threshgrad.solver import fixed_point_residual

    p = lasso_problem(4)
    g = SeparableRegularizer.uniform(25, penalty=PowerPenalty(4.0, 0.5))
    p = Problem(g=g, h=p.h)
    trace = run(p, residual_tol=1e-8)
    x = polish(p, trace)[0]
    lam = 1.0 / p.h.lipschitz
    assert fixed_point_residual(p, lam, x) <= 1e-12
    # the continuation is a plain run from the input at the default step
    want = run(p, residual_tol=1e-12, x0=trace.x_final).x_final
    assert x.tobytes() == want.tobytes()


def test_polish_error_carries_best_point(monkeypatch):
    # a power penalty forces the iterative path; with L overstated to 2 the
    # scalar recursion is x -> x/4 exactly, far from 1e-12 after 5 steps
    from threshgrad import conditioning

    monkeypatch.setattr(conditioning, "_POLISH_ITERS", 5)
    h = LeastSquaresTerm([[1.0]], np.array([1.0]), lipschitz=2.0)
    p = Problem(
        g=SeparableRegularizer.uniform(1, penalty=PowerPenalty(2.0, 2.0)), h=h
    )
    with pytest.raises(PolishError) as exc:
        polish_point(p, np.array([1.0]))
    assert str(exc.value) == (
        f"continuation stalled at residual {1.5 * 0.25 ** 5:.3e} "
        "after 5 iterations (target 1.0e-12)"
    )


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
        trace = run(p, residual_tol=1e-10)
        x = trace.x_final
        got = polish(p, trace)[0]
        cand = stacked_columns_face_solve(p, x)
        lam = 1.0 / p.h.lipschitz
        if fixed_point_residual(p, lam, cand) <= 1e-12 and (
            p.objective(cand) <= p.objective(x)
        ):
            face_route += 1
            assert got.tobytes() == cand.tobytes(), seed
        else:
            want = _fb_continuation(p, x)[0]
            assert got.tobytes() == want.tobytes(), seed
    assert face_route >= 5


def bits(v) -> bytes:
    return np.float64(v).tobytes()


def test_trace_and_analysis_read_the_objective_bitwise_on_the_batch(lasso_batch):
    # polish compares the face candidate with the trace's last row, and
    # analyze takes f* from polish: both are bitwise the evaluated objective
    for run_ in lasso_batch.runs:
        p, trace = run_.problem, run_.trace
        assert bits(trace.objectives[-1]) == bits(p.objective(trace.x_final))
        assert bits(run_.f_star) == bits(p.objective(run_.x_bar))
        assert type(run_.f_star) is float


SHIPPED = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize(
    "name, continued",
    [
        ("ex_cq", False),
        ("ex_nocq", False),
        ("lasso", True),
        ("lasso_power15", True),
        ("lasso_power4", True),
    ],
)
def test_analysis_reads_the_objective_bitwise_on_the_shipped_configs(
    monkeypatch, name, continued
):
    from threshgrad import conditioning
    from threshgrad.cli import _build_problem, _resolve_x0, parse_experiment_config

    c = parse_experiment_config(SHIPPED / f"{name}.ini")
    p, _ = _build_problem(c)
    routes, real = [], conditioning._fb_continuation

    def continuation(problem, x_from):
        routes.append(real(problem, x_from))
        return routes[-1]

    monkeypatch.setattr(conditioning, "_fb_continuation", continuation)
    result = analyze(p, lam=c.lam, max_iter=c.max_iter, x0=_resolve_x0(c, p.n))
    trace = result.trace
    assert bits(trace.objectives[-1]) == bits(p.objective(trace.x_final))
    # the face route returns the candidate's evaluated objective, the
    # continuation route the last row of its own trace
    assert bits(result.f_star) == bits(p.objective(result.x_bar))
    assert type(result.f_star) is float
    assert bool(routes) is continued


# ---------------------------------------------------------------------------
# uniqueness certificate


def test_unique_minimizer_confirmed_for_scalar_problem():
    p = scalar_problem()
    x_bar = polish_point(p, np.ones(1))
    assert x_bar[0] == 0.0
    unique, why, sigma = verify_unique_minimizer(p, (0,))
    assert (unique, why) == (True, "rank(A_D) = 1 of |D| = 1")
    assert sigma.tolist() == [1.0]


def test_unique_minimizer_rejected_on_segment():
    p = segment_problem()
    # (0.5, 0) and (0, -0.5) are both minimizers; their esupp is {0, 1}
    for x in ([0.5, 0.0], [0.0, -0.5]):
        assert p.objective(np.array(x)) == pytest.approx(0.75, abs=1e-12)
    assert verify_unique_minimizer(p, (0, 1))[:2] == (False, "rank(A_D) = 1 of |D| = 2")


def test_unique_minimizer_drops_strictly_convex_coordinates():
    # the segment's columns, but a positive-weight power penalty on
    # coordinate 1 pins it: only coordinate 0 is left free
    s = np.sqrt(2.0)
    h = LeastSquaresTerm([[s, -s]], np.array([s]), lipschitz=4.0)
    pens = (PowerPenalty(2.0, 0.0), PowerPenalty(2.0, 1e-4))
    g = SeparableRegularizer((Interval(-1.0, 1.0),) * 2, pens)
    assert verify_unique_minimizer(Problem(g=g, h=h), (0, 1))[:2] == (
        True,
        "rank(A_D) = 1 of |D| = 1",
    )
    assert verify_unique_minimizer(quartic_problem(), (0,))[:2] == (
        True,
        "rank(A_D) = 0 of |D| = 0",
    )


def test_unique_minimizer_unchecked_under_a_custom_penalty():
    pen = CustomPenalty(lambda t: 0.0, lambda t, lam: t)  # psi = 0, exactly
    g = SeparableRegularizer.uniform(1, Interval(-1.0, 1.0), pen)
    h = LeastSquaresTerm([[1.0]], np.array([1.0]), lipschitz=1.0)
    unique, why, _ = verify_unique_minimizer(Problem(g=g, h=h), ())
    assert not unique
    assert "custom penalty" in why


def test_unique_minimizer_runs_no_solver(monkeypatch):
    from threshgrad import conditioning

    def forbidden(*args, **kwargs):
        raise AssertionError("the certificate must not solve")

    monkeypatch.setattr(conditioning, "run", forbidden)
    monkeypatch.setattr(conditioning, "polish", forbidden)
    assert verify_unique_minimizer(segment_problem(), (0, 1))[0] is False
    assert verify_unique_minimizer(scalar_problem(), (0,))[0] is True


def test_unique_minimizer_certified_on_every_batch_instance(lasso_batch):
    for seed, run_ in enumerate(lasso_batch.runs):
        unique, why, _ = verify_unique_minimizer(run_.problem, run_.report["esupp"])
        d = len(run_.report["esupp"])
        assert unique, (seed, why)
        assert why == f"rank(A_D) = {d} of |D| = {d}"


# ---------------------------------------------------------------------------
# growth certificate on the extended support


def test_face_growth_reads_one_svd_when_d_is_j(monkeypatch):
    problem = generate_synthetic(20, 50, 0)
    esupp = analyze(problem).report["esupp"]
    shapes, svd = [], np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    verdict, cert = face_growth(problem, esupp)
    assert verdict == "pass" and shapes == [(20, len(esupp))]
    cols = problem.h.op[:, list(esupp)]
    assert cert["gamma_face"] == float(svd(cols, compute_uv=False)[-1]) ** 2


def test_face_growth_is_below_the_sampled_constant_on_the_batch(lasso_batch):
    # gamma_J bounds the growth ratio on the face from below and the sampled
    # minimum bounds it from above (measured: gamma-hat is 1.18-1.76 gamma_J)
    for run_ in lasso_batch.runs[:6]:
        assert run_.audits["gamma"] == "pass"
        cert = run_.growth
        assert cert["J"] == run_.report["esupp"]
        est = estimate_gamma(run_.problem, cert["J"], run_.x_bar)
        assert cert["gamma_face"] <= est.gamma * (1.0 + 1e-8)


@settings(max_examples=settings.default.max_examples * 3 // 5, deadline=None)
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    penalty=st.sampled_from(
        [ZeroPenalty(), PowerPenalty(1.5, 0.5), PowerPenalty(2.0), PowerPenalty(4.0, 2.0)]
    ),
    radius=st.floats(1e-6, 1.0),
)
def test_face_growth_bounds_the_objective_gap_on_the_face(m, n, seed, penalty, radius):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    assume(operator_norm(a) > 1e-3)
    h = LeastSquaresTerm(a, 3.0 * rng.standard_normal(m), operator_norm(a) ** 2)
    ends = rng.uniform(0.1, 2.0, size=(n, 2))
    g = SeparableRegularizer(
        tuple(Interval(-lo, hi) for lo, hi in ends), (penalty,) * n
    )
    problem = Problem(g=g, h=h)
    result = analyze(problem)
    assume(result.audits["gamma"] == "pass")
    cert = result.growth
    J = cert["J"]
    slack = 1e-12 * max(1.0, abs(result.f_star))
    for _ in range(20):
        d = np.zeros(n)
        d[J] = rng.standard_normal(len(J))
        x = result.x_bar + radius * rng.uniform() * d / np.linalg.norm(d)
        gap = problem.objective(x) - result.f_star
        dist2 = float(np.sum((x - result.x_bar) ** 2))
        assert gap >= 0.5 * cert["gamma_face"] * dist2 - slack


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
    g = SeparableRegularizer.uniform(1, Interval(-1e-9, 1e-9))
    p = Problem(g=g, h=h)
    x_bar = polish_point(p, np.zeros(1))
    assert verify_unique_minimizer(p, (0,))[0]
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
    assert asdict(a) == asdict(b)


def test_gamma_estimate_json_form():
    est = estimate_gamma(scalar_problem(), (0,), np.zeros(1), n_samples=100)
    d = {**asdict(est), "J": list(est.J)}
    assert set(d) == {
        "gamma", "p", "n_samples", "n_accepted", "J", "delta", "r", "seed", "f_star"
    }
    assert type(d["J"]) is list and d["J"] == [0]
    assert json.loads(json.dumps(d)) == d


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
    g = SeparableRegularizer.uniform(1, Interval(-1.0, math.inf))
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
    g = SeparableRegularizer.uniform(2, Interval(-1e-300, 1e-300))
    p = Problem(g=g, h=h)
    with pytest.raises(RuntimeError, match="non-unique"):
        estimate_gamma(p, (0, 1), np.zeros(2), delta=1.0, r=1.0, p=2.0)


def test_gamma_reports_excessive_rejection():
    p = scalar_problem()
    with pytest.raises(RuntimeError, match="rejection"):
        estimate_gamma(
            p, (0,), np.zeros(1), delta=1.0, r=1e-20, p=2.0, n_samples=2000
        )


@pytest.mark.parametrize(
    "case", ["lasso", "lasso_power15", "lasso_power4", "ex_nocq", 0, 1, 2, 3, 4, 5]
)
def test_gamma_sampling_matches_the_per_point_evaluation(request, case):
    # 1000 samples end inside the second chunk of 512
    if isinstance(case, int):
        run_ = request.getfixturevalue("lasso_batch").runs[case]
        problem, J, x_bar = run_.problem, run_.growth["J"], run_.x_bar
    else:
        from threshgrad.cli import _build_problem, _resolve_x0, parse_experiment_config

        c = parse_experiment_config(SHIPPED / f"{case}.ini")
        problem, _ = _build_problem(c)
        result = analyze(
            problem, lam=c.lam, max_iter=c.max_iter, x0=_resolve_x0(c, problem.n)
        )
        J, x_bar = result.growth["J"], result.x_bar
    est = estimate_gamma(problem, J, x_bar, n_samples=1000)
    gamma, n_accepted = gamma_by_point(problem, J, x_bar, n_samples=1000)
    assert est.n_accepted == n_accepted
    assert est.gamma == pytest.approx(gamma, rel=1e-9, abs=0.0)


def test_gamma_sampling_raises_what_the_per_point_evaluation_raises():
    flat = Problem(
        g=SeparableRegularizer.uniform(2, Interval(-1e-300, 1e-300)),
        h=LeastSquaresTerm([[0.0, 0.0]], np.array([0.0]), lipschitz=1.0),
    )
    cases = [
        (scalar_problem(), (0,), np.array([0.5]), "not the minimizer"),
        (flat, (0, 1), np.zeros(2), "non-unique"),
    ]
    for problem, J, x_bar, why in cases:
        with pytest.raises(RuntimeError, match=why) as want:
            gamma_by_point(problem, J, x_bar, delta=0.5, r=0.5)
        with pytest.raises(RuntimeError) as got:
            estimate_gamma(problem, J, x_bar, delta=0.5, r=0.5)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# rate classification


def test_fit_rate_geometric_sequence():
    columns = gap_columns(0.9 ** np.arange(1, 201))
    verdict, warnings, rep = fit_rate(*columns, 0.0, False)
    assert rep["regime"] == "linear"
    assert rep["epsilon"] == pytest.approx(0.9, abs=1e-6)
    assert rep["r_squared"] >= 0.999999
    assert rep["window"][1] == 200
    assert (verdict, warnings) == ("pass", [])


def test_fit_rate_power_law_sequence():
    n = np.arange(1, 501, dtype=float)
    rep = fitted(7.0 * n ** -2.0)
    assert rep["regime"] == "sublinear"
    assert rep["exponent"] == pytest.approx(2.0, abs=1e-6)
    assert rep["constant"] == pytest.approx(7.0, rel=1e-6)
    # both fits are diagnosed; the log-log one is exact and wins
    assert rep["r2_loglog"] > rep["r2_linear"]


def test_fit_rate_noisy_geometric_sequence():
    rng = np.random.default_rng(8)
    gaps = 0.9 ** np.arange(1, 301) * (1.0 + 1e-3 * rng.uniform(-1, 1, 300))
    rep = fitted(gaps)
    assert rep["regime"] == "linear"
    assert rep["epsilon"] == pytest.approx(0.9, abs=1e-3)


def test_fit_rate_on_scalar_run():
    p = scalar_problem()
    trace = run(p, lam=0.5, x0=np.array([1.0]))
    verdict, _, rep = fit_rate(trace.ns, trace.objectives - 0.5, 0.5, trace.converged)
    assert verdict == "pass"
    assert rep["regime"] == "linear"
    assert rep["epsilon"] == pytest.approx(0.25, abs=1e-9)
    assert rep["r_squared"] == pytest.approx(1.0, abs=1e-12)
    # gap falls below the rounding floor at n = 23; half-window of the
    # remaining 22 points
    assert rep["window"] == [12, 22]
    assert rep["n_points"] == 11


def test_fit_rate_too_few_points_is_inconclusive_unless_converged():
    columns = gap_columns(0.5 ** np.arange(1, 6))
    verdict, warnings, rep = fit_rate(*columns, 0.0, False)
    assert rep["regime"] == "inconclusive"
    assert rep["epsilon"] is None and rep["exponent"] is None
    # the half-fraction tail window of 5 recorded gaps keeps 3 points
    assert rep["n_points"] == 3
    assert verdict == "fail"
    assert warnings == ["rate: inconclusive: 3 usable tail points, need >= 8"]
    # a run that converged that early has no rate to fit
    assert fit_rate(*columns, 0.0, True) == (
        "skipped: converged at iteration 5 with 3 usable tail points, "
        "need >= 8 to fit a rate",
        [],
        None,
    )


def test_analyze_skips_the_rate_of_a_run_that_converged_that_early():
    # x = -100, -49, -23.5, -10.75, -4.375, -1.1875, then exactly 0 = x_bar:
    # five gaps above the floor, whose last half keeps 3 points
    result = analyze(scalar_problem(), lam=0.5, x0=np.array([-100.0]))
    assert fit_rate(result.trace.ns, result.gaps, result.f_star, False)[2][
        "n_points"
    ] == 3
    assert result.rate is None
    assert result.audits["rate"] == (
        "skipped: converged at iteration 6 with 3 usable tail points, "
        "need >= 8 to fit a rate"
    )
    assert result.warnings == []


@pytest.mark.parametrize("tol, named", [({}, "1.0e-10"), ({"residual_tol": 1e-3}, "1.0e-03")])
def test_analyze_warns_with_the_tolerance_the_run_used(tol, named):
    # x = 1, 1/2, 1/4, 1/8: residual 1/8 after a budget of 3 steps
    result = analyze(scalar_problem(), lam=0.5, x0=np.array([1.0]), max_iter=3, **tol)
    assert not result.trace.converged
    assert result.warnings[-1] == (
        f"solver stopped at residual 1.250e-01 without reaching {named}"
    )


def test_fit_rate_window_of_two_rows_is_their_last_half():
    # ceil(0.5 * 2) = 1: two rows above the floor leave one tail point
    verdict, warnings, rep = fit_rate(*gap_columns([0.5, 0.25, 0.0]), 0.0, False)
    assert (rep["regime"], rep["n_points"]) == ("inconclusive", 1)
    assert verdict == "fail"
    assert warnings == ["rate: inconclusive: 1 usable tail points, need >= 8"]


def test_fit_rate_converged_at_start_has_no_fit():
    p = scalar_problem()
    trace = run(p, lam=0.5, x0=np.array([0.0]))
    gaps = trace.objectives - 0.5
    rep = fit_rate(trace.ns, gaps, 0.5, False)[2]
    assert rep["regime"] == "inconclusive"
    assert rep["n_points"] == 0
    assert fit_rate(trace.ns, gaps, 0.5, trace.converged)[0] == (
        "skipped: converged at iteration 0 with 0 usable tail points, "
        "need >= 8 to fit a rate"
    )


def test_fit_rate_erratic_sequence_is_inconclusive():
    n = np.arange(1, 101, dtype=float)
    verdict, warnings, rep = fit_rate(*gap_columns(np.exp(np.sin(n))), 0.0, True)
    assert rep["regime"] == "inconclusive"
    assert rep["r2_linear"] < 0.99 and rep["r2_loglog"] < 0.99
    assert rep["window"] is not None
    assert verdict == "fail"
    assert warnings == [
        "rate: inconclusive: no decreasing fit reaches R^2 >= 0.99 "
        f"(r2_linear {rep['r2_linear']:.6g}, r2_loglog {rep['r2_loglog']:.6g})"
    ]


RATE_KEYS = {
    "regime", "epsilon", "exponent", "constant", "r_squared",
    "r2_linear", "r2_loglog", "window", "n_points",
}


def test_fit_rate_report_serializes():
    d = fitted(0.9 ** np.arange(1, 100))
    assert d["regime"] == "linear"
    assert d["window"] == [50, 99]
    assert set(d) == RATE_KEYS and type(d["window"]) is list
    assert json.loads(json.dumps(d)) == d
    short = fitted([0.5, 0.25])
    assert set(short) == RATE_KEYS and short["window"] is None
    # analyze adds the tail bound when it applies, and nothing else
    quartic = Problem(
        g=SeparableRegularizer.uniform(30, penalty=PowerPenalty(4.0)),
        h=generate_synthetic(12, 30, 5).h,
    )
    rate = analyze(quartic).rate
    assert set(rate) == RATE_KEYS | {"tail_bound"}
    assert json.loads(json.dumps(rate)) == rate


# ---------------------------------------------------------------------------
# sublinear tail-bound consistency


def test_tail_bound_exact_power_law():
    n = np.arange(1, 201, dtype=float)
    bound = fitted(5.0 * n ** -2.0, p=4.0)["tail_bound"]
    assert bound["exponent"] == 2.0
    assert bound["constant"] == pytest.approx(5.0, rel=1e-12)
    assert abs(bound["trend_slope"]) <= 1e-8


def test_tail_bound_faster_decay_is_consistent():
    bound = fitted(0.5 ** np.arange(1, 101), p=4.0)["tail_bound"]
    assert bound["trend_slope"] < 0.0


def test_tail_bound_flags_slower_decay():
    n = np.arange(1, 201, dtype=float)
    bound = fitted(n ** -1.0, p=4.0)["tail_bound"]
    assert bound["trend_slope"] == pytest.approx(1.0, abs=1e-6)


def test_tail_bound_needs_p_above_two():
    columns = gap_columns(0.5 ** np.arange(1, 50))
    for p in (None, 1.5, 2.0):
        verdict, warnings, rate = fit_rate(*columns, 0.0, False, p)
        assert (verdict, warnings) == ("pass", [])
        assert "tail_bound" not in rate


def test_tail_bound_needs_enough_points():
    # no fit, so no bound either: the one warning is the rate's own
    verdict, warnings, rate = fit_rate(*gap_columns([0.5, 0.25]), 0.0, False, 4.0)
    assert "tail_bound" not in rate
    assert warnings == ["rate: inconclusive: 1 usable tail points, need >= 8"]


def test_analyze_applies_the_tail_bound_to_one_power_penalty_only():
    quartic = Problem(
        g=SeparableRegularizer.uniform(30, penalty=PowerPenalty(4.0)),
        h=generate_synthetic(12, 30, 5).h,
    )
    result = analyze(quartic)
    # p / (p - 2) = 2: the product gap * n^2 over the fit window
    first, last = result.rate["window"]
    n = np.arange(first, last + 1, dtype=float)
    z = result.gaps[first : last + 1] * n ** 2.0
    slope = np.polyfit(np.log(n), np.log(z), 1)[0]
    assert result.rate["tail_bound"] == {
        "exponent": 2.0,
        "constant": float(np.max(z)),
        "trend_slope": pytest.approx(slope, rel=1e-9, abs=1e-12),
    }
    assert result.warnings == []
    # a mixed regularizer has no single order p
    pens = (PowerPenalty(4.0),) * 29 + (ZeroPenalty(),)
    mixed = Problem(g=SeparableRegularizer(quartic.g.intervals, pens), h=quartic.h)
    result = analyze(mixed)
    assert "tail_bound" not in result.rate
    assert result.warnings == []


def test_analyze_skips_the_tail_bound_when_its_exponent_overflows():
    # p/(p-2) = 2001 puts n^q beyond the float range for every n >= 2
    near_two = Problem(
        g=SeparableRegularizer.uniform(50, penalty=PowerPenalty(2.001)),
        h=generate_synthetic(20, 50, 7).h,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = analyze(near_two)
    assert "tail_bound" not in result.rate
    [skipped] = result.warnings
    assert skipped.startswith("tail bound check skipped: ")
    assert "n^2001 overflows" in skipped
    assert result.audits["rate"] == "pass"


def test_growth_audit_verdicts():
    scalar = analyze(scalar_problem())
    assert scalar.audits["gamma"] == "pass"
    assert scalar.growth == {"gamma_face": 1.0, "J": [0]}
    segment = analyze(segment_problem())
    assert segment.audits["gamma"] == (
        "skipped: minimizer not certified unique: rank(A_D) = 1 of |D| = 2"
    )
    assert segment.growth is None
    assert face_growth(scalar_problem(), []) == (
        "skipped: esupp is empty, so the face {supp x ⊆ esupp} is {x_bar}",
        None,
    )
    # the segment's parallel columns under a strictly convex penalty: the
    # minimizer is unique, yet A_J is rank-deficient
    pens = (PowerPenalty(2.0, 1e-4),) * 2
    g = SeparableRegularizer((Interval(-1.0, 1.0),) * 2, pens)
    assert face_growth(Problem(g=g, h=segment_problem().h), [0, 1]) == (
        "skipped: no growth certificate: rank(A_J) = 1 of |J| = 2",
        None,
    )
