"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every test records its verdict through the conftest reporter before
asserting, so the terminal summary lists all criteria even when one fails.
Criteria 3, 4, 7, 8 and 9 quantify over the shared 100-instance batch.
"""

import math
import time

import numpy as np

from threshgrad.cli import generate_synthetic
from threshgrad.conditioning import (
    brute_force_scalar_min,
    fit_rate,
    polish,
    sublinear_bound_check,
)
from threshgrad.operators import LeastSquaresTerm
from threshgrad.regularizers import (
    Interval,
    PowerPenalty,
    SeparableRegularizer,
    prox_separable,
    soft_interval,
)
from threshgrad.solver import Problem, SolverConfig, fejer_check, run, write_trace_csv
from threshgrad.support import (
    active_constraints,
    build_support_report,
    dual_point,
    extended_support,
)


def scalar_problem():
    """min |x| + (x-1)^2/2: minimizer 0, residual gradient on the boundary."""
    h = LeastSquaresTerm([[1.0]], np.array([1.0]), lipschitz=1.0)
    return Problem(g=SeparableRegularizer.uniform(1), h=h)


def segment_problem():
    """min |x1|+|x2| + (x1-x2-1)^2: minimizers {(t, t-1/2) : t in [0, 1/2]}."""
    s = np.sqrt(2.0)
    h = LeastSquaresTerm([[s, -s]], np.array([s]), lipschitz=4.0)
    return Problem(g=SeparableRegularizer.uniform(2), h=h)


def _solve_builtin(problem, **config_kwargs):
    """run -> polish -> rerun against the polished reference."""
    config = SolverConfig(residual_tol=1e-10, record_every=1, **config_kwargs)
    first = run(problem, config)
    x_bar = polish(problem, first.x_final, tol=1e-12)
    trace = run(problem, config, reference=x_bar)
    return trace, x_bar


# ---------------------------------------------------------------------------
# 1: scalar example where the support is identified strictly beyond supp


def test_criterion_1(acceptance):
    t0 = time.perf_counter()
    problem = scalar_problem()
    config = SolverConfig(lam=0.5, x0=np.ones(1), residual_tol=1e-10, record_every=1)
    trace = run(problem, config)
    x_bar = polish(problem, trace.x_final, tol=1e-12)
    report = build_support_report(problem, trace, x_bar)
    elapsed = time.perf_counter() - t0

    recurrence = max(
        abs(float(x[0]) - 0.5**int(n)) for n, x in zip(trace.ns, trace.iterates)
    )
    checks = {
        "final": abs(float(trace.x_final[0])) <= 1e-10,
        "supp": report.supp == (),
        "esupp": report.esupp == (0,),
        "dual": abs(float(report.dual_point[0]) - 1.0) <= 1e-10,
        "qualification": report.qualification_holds is False,
        "violations": report.observed_violations == 0,
        "recurrence": recurrence <= 1e-12,
        "time": elapsed < 1.0,
    }
    ok = all(checks.values())
    detail = (
        f"|x_final|={abs(float(trace.x_final[0])):.1e}, "
        f"max |x^n - 0.5^n|={recurrence:.1e}, {elapsed:.2f}s"
    )
    if not ok:
        detail += ", failed: " + ",".join(k for k, v in checks.items() if not v)
    acceptance(1, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 2: two-coordinate example with a full segment of minimizers


def test_criterion_2(acceptance):
    t0 = time.perf_counter()
    problem = segment_problem()
    trace, x_bar = _solve_builtin(problem)
    report = build_support_report(problem, trace, x_bar)
    elapsed = time.perf_counter() - t0

    # nearest point of the solution segment {(t, t - 1/2) : t in [0, 1/2]}
    tc = min(max((x_bar[0] + x_bar[1] + 0.5) / 2.0, 0.0), 0.5)
    seg_dist = float(np.hypot(x_bar[0] - tc, x_bar[1] - (tc - 0.5)))
    f_val = problem.objective(x_bar)
    dual_err = float(np.max(np.abs(report.dual_point - np.array([1.0, -1.0]))))

    checks = {
        "segment": seg_dist <= 1e-8,
        "objective": abs(f_val - 0.75) <= 1e-10,
        "dual": dual_err <= 1e-8,
        "esupp": report.esupp == (0, 1),
        "time": elapsed < 1.0,
    }
    ok = all(checks.values())
    detail = (
        f"dist to segment={seg_dist:.1e}, |f-3/4|={abs(f_val - 0.75):.1e}, "
        f"dual err={dual_err:.1e}, {elapsed:.2f}s"
    )
    if not ok:
        detail += ", failed: " + ",".join(k for k, v in checks.items() if not v)
    acceptance(2, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 3: identification audit against the a-priori violation budget


def test_criterion_3(acceptance, lasso_batch):
    bad = []
    for r in lasso_batch.runs:
        allowed = math.ceil(r.report.identification_bound)
        if r.report.observed_violations > allowed:
            bad.append(r.seed)
    within_time = lasso_batch.elapsed <= 120.0
    ok = not bad and within_time
    detail = (
        f"{100 - len(bad)}/100 within budget, batch solved+analyzed in "
        f"{lasso_batch.elapsed:.1f}s"
    )
    if bad:
        detail += f", violating seeds: {bad[:5]}"
    acceptance(3, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 4: geometric tail decay on every interval-only least-squares instance


def test_criterion_4(acceptance, lasso_batch):
    bad = []
    r2s, eps = [], []
    for r in lasso_batch.runs:
        rate = r.rate
        if not (
            rate.regime == "linear"
            and rate.r_squared is not None
            and rate.r_squared >= 0.99
            and rate.epsilon is not None
            and 0.0 < rate.epsilon < 1.0
        ):
            bad.append((r.seed, rate.regime))
        else:
            r2s.append(rate.r_squared)
            eps.append(rate.epsilon)
    ok = not bad
    if ok:
        detail = (
            f"100/100 linear, min R^2={min(r2s):.4f}, "
            f"epsilon in [{min(eps):.3f}, {max(eps):.3f}]"
        )
    else:
        detail = f"{len(bad)} instances off: {bad[:5]}"
    acceptance(4, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 5: power-penalty tails stay consistent with the p/(p-2) bound


def test_criterion_5(acceptance):
    config = SolverConfig(max_iter=20_000, residual_tol=1e-10, record_every=1)
    slopes = []
    for seed in range(10):
        problem = generate_synthetic(20, 50, seed, penalty=PowerPenalty(4.0, 1.0))
        trace = run(problem, config)
        x_bar = polish(problem, trace.x_final, tol=1e-12)
        _, slope = sublinear_bound_check(trace, problem.objective(x_bar), 4.0)
        slopes.append(slope)

    regimes = []
    for seed in range(10):
        problem = generate_synthetic(20, 50, seed, penalty=PowerPenalty(1.5, 1.0))
        trace = run(problem, config)
        x_bar = polish(problem, trace.x_final, tol=1e-12)
        regimes.append(fit_rate(trace, problem.objective(x_bar)).regime)

    quartic_ok = all(s <= 0.02 for s in slopes)
    p15_ok = all(reg == "linear" for reg in regimes)
    ok = quartic_ok and p15_ok
    detail = f"max gap*n^2 slope={max(slopes):+.3f} (<= +0.02)"
    if p15_ok:
        detail += ", p=1.5: 10/10 linear"
    else:
        detail += f", p=1.5 regimes: {sorted(set(regimes))}"
    acceptance(5, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 6: prox against the grid+golden-section oracle, plus firm nonexpansiveness


def test_criterion_6(acceptance):
    rng = np.random.default_rng(2024)
    p_choices = [4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 2.7]
    max_df = 0.0
    max_dx = 0.0
    for _ in range(10_000):
        t = rng.uniform(-3.0, 3.0)
        lam = rng.uniform(0.05, 2.0)
        p = p_choices[rng.integers(len(p_choices))]
        w = rng.uniform(0.1, 2.0)
        lo = -rng.uniform(0.05, 1.5)
        hi = rng.uniform(0.05, 1.5)
        g1 = SeparableRegularizer.uniform(1, Interval(lo, hi), PowerPenalty(p, w))
        got = float(prox_separable(np.array([t]), lam, g1)[0])

        def fun(s, lam=lam, w=w, p=p, lo=lo, hi=hi, t=t):
            sigma = np.where(s > 0, s * hi, s * lo)
            return lam * (sigma + w * np.abs(s) ** p / p) + 0.5 * (s - t) ** 2

        argmin, fmin = brute_force_scalar_min(fun, -abs(t) - 1.0, abs(t) + 1.0)
        max_df = max(max_df, abs(float(fun(got)) - fmin))
        max_dx = max(max_dx, abs(got - argmin))

    # The oracle locates minima only to ~sqrt(eps * f); its value is good to
    # a few ulps.  1e-8 is asserted where the oracle can certify it.
    prox_ok = max_df <= 1e-8 and max_dx <= 1e-6

    worst = np.inf
    for _ in range(100):
        box = Interval(-rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0))
        a = rng.uniform(-5.0, 5.0, 1000)
        b = rng.uniform(-5.0, 5.0, 1000)
        ta, tb = soft_interval(a, box), soft_interval(b, box)
        worst = min(worst, float(np.min((ta - tb) * (a - b) - (ta - tb) ** 2)))
    firm_ok = worst >= -1e-12

    ok = prox_ok and firm_ok
    detail = (
        f"10^4 prox draws: max value err={max_df:.1e} (<= 1e-8), "
        f"max argmin err={max_dx:.1e}; 10^5 pairs firm margin={worst:.1e}"
    )
    acceptance(6, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 7: monotone objective and Fejer distances on every record_every=1 run


def test_criterion_7(acceptance, lasso_batch):
    runs = [(r.seed, r.trace, r.x_bar) for r in lasso_batch.runs]
    scalar = scalar_problem()
    trace, x_bar = _solve_builtin(scalar, lam=0.5, x0=np.ones(1))
    runs.append(("scalar", trace, x_bar))
    segment = segment_problem()
    trace, x_bar = _solve_builtin(segment)
    runs.append(("segment", trace, x_bar))

    bad_descent = []
    bad_fejer = []
    worst_ascent = -np.inf
    for label, trace, x_bar in runs:
        ascent = float(np.max(np.diff(trace.objectives), initial=-np.inf))
        worst_ascent = max(worst_ascent, ascent)
        if ascent > 1e-12:
            bad_descent.append(label)
        if not fejer_check(trace, x_bar, slack=1e-10):
            bad_fejer.append(label)
    ok = not bad_descent and not bad_fejer
    detail = f"{len(runs)} runs, max objective increase={worst_ascent:.1e}"
    if bad_descent:
        detail += f", descent broken: {bad_descent[:5]}"
    if bad_fejer:
        detail += f", Fejer broken: {bad_fejer[:5]}"
    acceptance(7, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 8: the primal and dual extended-support computations coincide


def test_criterion_8(acceptance, lasso_batch):
    instances = [(r.seed, r.problem, r.x_bar) for r in lasso_batch.runs]
    scalar = scalar_problem()
    _, x_bar = _solve_builtin(scalar, lam=0.5, x0=np.ones(1))
    instances.append(("scalar", scalar, x_bar))
    segment = segment_problem()
    _, x_bar = _solve_builtin(segment)
    instances.append(("segment", segment, x_bar))

    bad = []
    for label, problem, x_bar in instances:
        grad = problem.h.gradient(x_bar)
        esupp = extended_support(x_bar, grad, problem.g, boundary_tol=1e-8)
        via_dual = active_constraints(dual_point(problem, x_bar), problem.g, tol=1e-8)
        if esupp != via_dual:
            bad.append(label)
    ok = not bad
    detail = f"{len(instances)}/{len(instances)} instances agree"
    if bad:
        detail = f"{len(bad)} disagree: {bad[:5]}"
    acceptance(8, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 9: the batch is byte-reproducible from its seeds


def test_criterion_9(acceptance, lasso_batch, tmp_path):
    config = SolverConfig(max_iter=100_000, residual_tol=1e-10, record_every=1)
    mismatched = []
    for r in lasso_batch.runs:
        stored = tmp_path / f"batch_{r.seed}.csv"
        write_trace_csv(r.trace, stored, r.f_star)

        problem = generate_synthetic(20, 50, r.seed)
        first = run(problem, config)
        x_bar = polish(problem, first.x_final, tol=1e-12)
        trace = run(problem, config, reference=x_bar)
        fresh = tmp_path / f"fresh_{r.seed}.csv"
        write_trace_csv(trace, fresh, problem.objective(x_bar))

        if stored.read_bytes() != fresh.read_bytes():
            mismatched.append(r.seed)
    ok = not mismatched
    detail = f"{100 - len(mismatched)}/100 trace CSVs byte-identical"
    if mismatched:
        detail += f", differing seeds: {mismatched[:5]}"
    acceptance(9, ok, detail)
    assert ok, detail
