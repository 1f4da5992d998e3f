import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    distances_by_row,
    fb_step_reference,
    g_dense,
    iterates,
    support_rows,
)

from threshgrad.operators import LeastSquaresTerm
from threshgrad.regularizers import (
    CustomPenalty,
    Interval,
    PowerPenalty,
    SeparableRegularizer,
    ZeroPenalty,
    g_value,
    prox_separable,
)
from threshgrad.solver import (
    Problem,
    SolverConfig,
    fb_step,
    fejer_check,
    fixed_point_residual,
    read_trace_csv,
    run,
    trace_rules,
    write_trace_csv,
)


def scalar_problem():
    """min |x| + (x-1)^2/2; unique minimizer 0 with residual gradient -1."""
    h = LeastSquaresTerm([[1.0]], np.array([1.0]), lipschitz=1.0)
    return Problem(g=SeparableRegularizer.uniform(1), h=h)


def segment_problem():
    """min |x1|+|x2| + (sqrt2*(x1-x2) - sqrt2)^2/2; minimizers form a segment."""
    s = np.sqrt(2.0)
    h = LeastSquaresTerm([[s, -s]], np.array([s]), lipschitz=4.0)
    return Problem(g=SeparableRegularizer.uniform(2), h=h)


def descent_failures(trace):
    """The trace rules, measured against the lowest recorded objective; the
    distances are flat, so only the objective rules can fail."""
    f_low = float(trace.objectives.min())
    flat = np.zeros(len(trace.ns))
    return trace_rules(trace.ns, trace.objectives - f_low, trace.residuals, flat, f_low)


def random_problem(seed, m=8, n=12, penalty=None):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    lip = float(np.linalg.norm(a, ord=2) ** 2) * 1.001
    h = LeastSquaresTerm(a, rng.standard_normal(m), lipschitz=lip)
    g = SeparableRegularizer.uniform(n) if penalty is None else (
        SeparableRegularizer.uniform(n, penalty=penalty)
    )
    return Problem(g=g, h=h)


# ---------------------------------------------------------------------------
# configuration


def test_step_size_must_stay_inside_open_range():
    p = scalar_problem()
    for lam in (0.0, -0.5, 2.0, 2.5):
        with pytest.raises(ValueError):
            SolverConfig(lam=lam).resolve(p)
    lam, x0 = SolverConfig(lam=1.999999).resolve(p)
    assert lam == 1.999999
    assert np.array_equal(x0, [0.0])


def test_default_step_is_inverse_lipschitz():
    lam, _ = SolverConfig().resolve(segment_problem())
    assert lam == 0.25


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-10])
def test_residual_tol_must_be_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="residual_tol"):
        SolverConfig(residual_tol=tol).resolve(scalar_problem())


def test_run_rejects_an_x0_of_another_shape():
    # the one check of a start point: `polish` reads its input off a trace
    with pytest.raises(ValueError, match=r"x0 must have shape \(1,\), got \(2,\)"):
        run(scalar_problem(), SolverConfig(x0=np.zeros(2), max_iter=0))


def test_x0_validation():
    p = scalar_problem()
    with pytest.raises(ValueError):
        SolverConfig(x0=np.zeros(2)).resolve(p)
    with pytest.raises(ValueError):
        SolverConfig(x0=np.array([np.nan])).resolve(p)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=-1).resolve(p)


# ---------------------------------------------------------------------------
# single steps


def test_fb_step_halves_the_scalar_iterate():
    p = scalar_problem()
    assert fb_step(p, 0.5, np.array([1.0]))[0][0] == 0.5
    assert fb_step(p, 0.5, np.array([0.0]))[0][0] == 0.0


def test_fb_step_fixed_point_on_segment():
    p = segment_problem()
    x = np.array([0.25, -0.25])
    assert np.allclose(fb_step(p, 0.25, x)[0], x, atol=1e-15)


def test_fixed_point_residual_values():
    p = scalar_problem()
    assert fixed_point_residual(p, 0.5, np.array([1.0])) == 1.0
    assert fixed_point_residual(p, 0.5, np.array([0.0])) == 0.0


def test_fb_step_raises_on_nonfinite_gradient():
    # the term rejects non-finite data, but finite data can still overflow
    h = LeastSquaresTerm([[1e300]], [0.0], lipschitz=1.0)
    p = Problem(g=SeparableRegularizer.uniform(1), h=h)
    with np.errstate(over="ignore"), pytest.raises(
        RuntimeError, match="non-finite gradient"
    ):
        fb_step(p, 0.5, np.array([1.0]))


def test_fb_step_raises_on_a_nan_gradient():
    # Ax - y = 1e308 + 1e308 overflows to r = [inf, inf], so the second
    # entry of A^T r is inf - inf = NaN (the first is inf)
    h = LeastSquaresTerm([[1.0, 1.0], [1.0, -1.0]], [-1e308, -1e308], lipschitz=1.0)
    p = Problem(g=SeparableRegularizer.uniform(2), h=h)
    x = np.array([1e308, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        grad, _ = h.gradient(x)
        assert np.isnan(grad[1])
        with pytest.raises(RuntimeError, match="non-finite gradient"):
            fb_step(p, 0.5, x)


def test_fb_step_checks_the_gradient_before_the_prox():
    # this prox maps the infinite forward point to 0.0, so a check on the
    # step's output would pass: only the check on the gradient catches it
    seen = []

    def prox(t, lam):
        seen.append(t)
        return t / (1.0 + lam) if math.isfinite(t) else 0.0

    pen = CustomPenalty(value=lambda t: 0.5 * t * t, prox=prox)
    h = LeastSquaresTerm([[1e300]], [0.0], lipschitz=1.0)
    p = Problem(g=SeparableRegularizer.uniform(1, penalty=pen), h=h)
    with np.errstate(over="ignore"), pytest.raises(
        RuntimeError, match="non-finite gradient"
    ):
        fb_step(p, 0.5, np.array([1.0]))
    assert seen == []
    with np.errstate(over="ignore"):
        v = 1.0 - 0.5 * h.gradient(np.array([1.0]))[0]
    assert v.tolist() == [-math.inf]
    assert prox_separable(v, 0.5, p.g).tolist() == [0.0]


_ENTRY = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))
_CUSTOM = CustomPenalty(value=lambda t: 0.5 * t * t, prox=lambda t, lam: t / (1.0 + lam))
_PENALTIES = [
    ZeroPenalty(),
    PowerPenalty(1.5),
    PowerPenalty(4.0, 0.5),
    PowerPenalty(4.0 / 3.0),
    PowerPenalty(2.7, 2.0),
    PowerPenalty(3.0, 0.0),
    _CUSTOM,
]


@st.composite
def step_cases(draw):
    """A problem with entries of A, y and x drawn among +-0.0 and
    [-10, 10], intervals bounded or one-sided, and mixed power and
    custom penalties; a start x; two steps."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))

    def vector(size):
        return np.array(draw(st.lists(_ENTRY, min_size=size, max_size=size)))

    a, y, x = vector(m * n).reshape(m, n), vector(m), vector(n)
    end = st.floats(1e-3, 5.0)
    intervals = []
    for _ in range(n):
        lo, hi = -draw(end), draw(end)
        side = draw(st.sampled_from(["both", "lo", "hi"]))
        intervals.append(
            Interval(-math.inf if side == "hi" else lo, math.inf if side == "lo" else hi)
        )
    penalties = tuple(draw(st.sampled_from(_PENALTIES)) for _ in range(n))
    g = SeparableRegularizer(tuple(intervals), penalties)
    lams = draw(st.tuples(st.floats(1e-3, 2.0), st.floats(1e-3, 2.0)))
    return Problem(g=g, h=LeastSquaresTerm(a, y, lipschitz=1.0)), x, lams


@settings(deadline=None)
@given(case=step_cases())
def test_fb_step_is_bitwise_the_out_of_place_step(case):
    p, x, lams = case
    # one regularizer at two steps in turn: each call must read the
    # endpoints scaled by its own lam
    for lam in lams + lams:
        step, hx = fb_step(p, lam, x)
        want, want_hx = fb_step_reference(p, lam, x)
        assert step.tobytes() == want.tobytes()
        assert np.float64(hx).tobytes() == np.float64(want_hx).tobytes()


# ---------------------------------------------------------------------------
# full runs


def test_scalar_run_reproduces_geometric_recurrence():
    p = scalar_problem()
    cfg = SolverConfig(lam=0.5, x0=np.array([1.0]), residual_tol=1e-10)
    trace = run(p, cfg)
    assert trace.converged
    assert trace.n_iterations == 34
    assert np.array_equal(trace.ns, np.arange(trace.n_iterations + 1))
    # the iteration halves x each step, exactly in floating point
    for n, x in enumerate(iterates(trace)):
        assert x[0] == 0.5 ** n
    assert trace.x_final[0] == 0.5 ** 34
    assert trace.residuals[-1] == 0.5 ** 34
    # f(x) = x^2... the objective along the run is 0.25^n/2 + 1/2
    f_star = 0.5
    gaps = trace.objectives - f_star
    want = 0.25 ** trace.ns.astype(float) / 2.0
    assert np.allclose(gaps, want, rtol=0, atol=1e-15)
    assert all(s.tolist() == [0] for s in support_rows(trace))
    dists = trace.distances_to(np.array([0.0]))
    assert trace_rules(trace.ns, gaps, trace.residuals, dists, f_star) == []
    assert fejer_check(trace, np.array([0.0]))


def test_run_started_at_minimizer_stops_immediately():
    p = scalar_problem()
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([0.0])))
    assert trace.converged
    assert trace.n_iterations == 0
    assert trace.residuals[-1] == 0.0
    assert list(trace.ns) == [0]
    assert [s.tolist() for s in support_rows(trace)] == [[]]


def test_run_out_of_budget_reports_not_converged():
    p = scalar_problem()
    cfg = SolverConfig(lam=0.5, x0=np.array([1.0]), max_iter=5, residual_tol=0.0)
    trace = run(p, cfg)
    assert not trace.converged
    assert trace.n_iterations == 5
    assert np.array_equal(trace.ns, np.arange(trace.n_iterations + 1))
    assert trace.x_final[0] == 0.5 ** 5


def test_segment_run_converges_in_one_step():
    p = segment_problem()
    trace = run(p, SolverConfig(residual_tol=1e-10))
    assert trace.converged
    assert trace.n_iterations == 1
    assert np.allclose(trace.x_final, [0.25, -0.25], atol=1e-15)
    assert p.objective(trace.x_final) == pytest.approx(0.75, abs=1e-15)


def test_descent_holds_on_random_instances():
    for seed in range(5):
        p = random_problem(seed)
        trace = run(p, SolverConfig(max_iter=2000, residual_tol=1e-9))
        assert descent_failures(trace) == []


def test_descent_holds_with_power_penalty():
    p = random_problem(7, penalty=PowerPenalty(4.0, 0.5))
    trace = run(p, SolverConfig(max_iter=2000, residual_tol=1e-9))
    assert descent_failures(trace) == []


def test_large_step_still_descends():
    # any step below 2/L keeps the objective monotone
    p = random_problem(3)
    lam = 1.9 / p.h.lipschitz
    trace = run(p, SolverConfig(lam=lam, max_iter=2000, residual_tol=1e-9))
    assert descent_failures(trace) == []


def test_reference_distances_recorded():
    p = scalar_problem()
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([1.0])))
    dists = trace.distances_to(np.array([0.0]))
    assert np.allclose(dists, 0.5 ** trace.ns.astype(float), atol=0)


# ---------------------------------------------------------------------------
# fejer monotonicity checker


def test_fejer_check_reads_distances_from_the_iterate_log():
    p = scalar_problem()
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([1.0])))
    assert fejer_check(trace, np.array([0.0]))
    # distances to x0 = 1 grow along the run
    assert not fejer_check(trace, np.array([1.0]))
    with pytest.raises(ValueError):
        fejer_check(trace, np.zeros(2))


def test_fejer_holds_against_any_minimizer_of_the_segment():
    p = segment_problem()
    cfg = SolverConfig(x0=np.array([1.0, 1.0]), residual_tol=1e-12)
    for t in (0.0, 0.125, 0.25, 0.5):
        ref = np.array([t, t - 0.5])  # on the solution segment x1 - x2 = 1/2
        assert fixed_point_residual(p, 0.25, ref) <= 1e-15
        trace = run(p, cfg)
        assert fejer_check(trace, ref)


# ---------------------------------------------------------------------------
# trace serialization


def test_write_trace_csv_golden(tmp_path):
    p = scalar_problem()
    cfg = SolverConfig(lam=0.5, x0=np.array([1.0]), max_iter=2, residual_tol=0.0)
    trace = run(p, cfg)
    path = tmp_path / "trace.csv"
    dists = trace.distances_to(np.array([0.0]))
    write_trace_csv(trace, path, trace.objectives - 0.5, dists)
    want = (
        "n,f_gap,residual,supp_size,dist_to_ref\n"
        "0,0.5,1.0,1,1.0\n"
        "1,0.125,0.5,1,0.5\n"
        "2,0.03125,0.25,1,0.25\n"
    )
    assert path.read_text() == want


@pytest.mark.parametrize("cut", [slice(None, -5), slice(1, None)])
def test_write_trace_csv_rejects_columns_of_another_length(tmp_path, cut):
    p = random_problem(5)
    trace = run(p, SolverConfig(max_iter=500, residual_tol=1e-9))
    gaps, dists = trace.objectives, trace.distances_to(trace.x_final)
    path = tmp_path / "trace.csv"
    want = f"expected {len(trace.ns)} gaps and distances, one per trace row"
    for bad in (dists[cut], np.append(dists, 0.0)):
        with pytest.raises(ValueError, match=want):
            write_trace_csv(trace, path, gaps, bad)
        with pytest.raises(ValueError, match=want):
            write_trace_csv(trace, path, bad, dists)
    assert not path.exists()


def test_trace_csv_round_trips_the_trace_columns(tmp_path):
    p = random_problem(5)
    trace = run(p, SolverConfig(max_iter=500, residual_tol=1e-9))
    f_star = float(trace.objectives[-1])
    path = tmp_path / "trace.csv"
    want = trace.distances_to(trace.x_final)
    write_trace_csv(trace, path, trace.objectives - f_star, want)
    ns, gaps, residuals, dists = read_trace_csv(path)
    assert np.array_equal(ns, trace.ns)
    assert np.array(gaps).tobytes() == (trace.objectives - f_star).tobytes()
    assert np.array(residuals).tobytes() == trace.residuals.tobytes()
    assert np.array(dists).tobytes() == want.tobytes()


def test_trace_csv_deterministic_across_runs(tmp_path):
    p = random_problem(11)
    cfg = SolverConfig(max_iter=500, residual_tol=1e-9)
    paths = []
    for tag in ("a", "b"):
        trace = run(p, cfg)
        path = tmp_path / f"{tag}.csv"
        dists = trace.distances_to(trace.x_final)
        write_trace_csv(trace, path, trace.objectives, dists)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


# ---------------------------------------------------------------------------
# iterate log and the fused oracle


def test_iterate_log_reproduces_the_dense_iterates():
    p = random_problem(4)
    cfg = SolverConfig(max_iter=300, residual_tol=1e-9)
    trace = run(p, cfg)
    lam, x = cfg.resolve(p)
    want = [x]
    for _ in range(trace.n_iterations):
        want.append(fb_step(p, lam, want[-1])[0])
    got = list(iterates(trace))
    assert len(got) == len(want) == len(trace.ns)
    for g, x in zip(got, want):
        assert g.tobytes() == (x + 0.0).tobytes()  # -0.0 is logged as 0.0
    assert [s.tolist() for s in support_rows(trace)] == [
        np.flatnonzero(x).tolist() for x in want
    ]
    assert np.array_equal(trace.supp_sizes, [np.count_nonzero(x) for x in want])
    assert trace.indices.dtype == np.int32
    assert trace.offsets[-1] == len(trace.indices) == len(trace.values)


@pytest.mark.parametrize("max_iter", [0, 86, 150, 173])
def test_run_log_is_bitwise_each_rows_flatnonzero(max_iter):
    # 2**18 // 3000 = 87 rows per dense block: one row, one full block, a
    # full block and a partial one, two full blocks.  Every 300th
    # coordinate's prox maps 0 to -0.0, and x0 holds -0.0 too, so most
    # rows hold -0.0 entries, which the log drops as flatnonzero does.
    n = 3000
    pen = CustomPenalty(
        value=lambda t: 0.5 * t * t, prox=lambda t, lam: t / (1.0 + lam) if t else -0.0
    )
    p, x0 = mixed_problem(8, 10, n, lambda k: ZeroPenalty() if k % 300 else pen)
    x0[::7] = -0.0
    trace = run(p, SolverConfig(max_iter=max_iter, residual_tol=0.0, x0=x0))
    assert trace.n_iterations == max_iter
    xs = [x0]
    for _ in range(max_iter):
        xs.append(fb_step(p, trace.lam, xs[-1])[0])
    assert any((np.signbit(x) & (x == 0.0)).any() for x in xs[1:]) or max_iter == 0
    nz = [np.flatnonzero(x) for x in xs]
    offsets = np.cumsum([0] + [len(k) for k in nz], dtype=np.int64)
    assert trace.offsets.tobytes() == offsets.tobytes()
    assert trace.indices.tobytes() == np.concatenate(nz).astype(np.int32).tobytes()
    want = np.concatenate([x[k] for x, k in zip(xs, nz)])
    assert trace.values.tobytes() == want.tobytes()
    assert trace.x_final.tobytes() == xs[-1].tobytes()


def test_distances_to_matches_dense_norms_bitwise():
    p = random_problem(9)
    trace = run(p, SolverConfig(max_iter=500, residual_tol=1e-9))
    r = np.random.default_rng(0).standard_normal(p.n)
    want = distances_by_row(trace, r)
    assert trace.distances_to(r).tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        trace.distances_to(np.zeros(p.n + 1))


@pytest.mark.parametrize(
    "n, sizes",
    [
        # 2**18 // n = 8 rows per dense block: empty, full and ragged rows
        # on both sides of each block boundary
        (2**15, [0, 3, 0, 2**15, 5, 0, 0, 7, 0, 2, 1, 0, 9, 0, 0, 4, 0, 6, 0]),
        # past 2**18 entries a block is one row
        (2**18 + 3, [4, 0, 2**18 + 3, 0, 1]),
    ],
)
def test_distances_to_is_bitwise_the_row_loop_on_ragged_logs(n, sizes):
    rng = np.random.default_rng(n)
    rows = [np.sort(rng.choice(n, size=k, replace=False)) for k in sizes]
    trace = replace(
        run(scalar_problem(), SolverConfig(max_iter=0)),
        offsets=np.cumsum([0] + sizes, dtype=np.int64),
        indices=np.concatenate(rows).astype(np.int32),
        values=rng.standard_normal(sum(sizes)) * 10.0 ** rng.integers(-8, 8, sum(sizes)),
        x0=np.zeros(n),
    )
    r = rng.standard_normal(n)
    assert trace.distances_to(r).tobytes() == distances_by_row(trace, r).tobytes()


def mixed_problem(seed, m, n, penalty_of, interval=Interval(-0.05, 0.05)):
    """A random problem with coordinate k penalized by ``penalty_of(k)``,
    and a dense random start, so early iterates are dense."""
    p = random_problem(seed, m, n)
    g = SeparableRegularizer((interval,) * n, tuple(penalty_of(k) for k in range(n)))
    x0 = np.random.default_rng(seed).standard_normal(n)
    return Problem(g=g, h=p.h), x0


def custom_penalty():
    # psi(0) = 1e-13 is within the construction check, so the zero
    # coordinates of every iterate add to g
    return CustomPenalty(value=lambda t: 0.5 * t * t + 1e-13, prox=lambda t, lam: t / (1.0 + lam))


LOG_OBJECTIVE_CASES = {
    "psi0": lambda: mixed_problem(3, 8, 12, lambda k: ZeroPenalty()),
    "power1.5": lambda: mixed_problem(4, 15, 40, lambda k: PowerPenalty(1.5)),
    "power4": lambda: mixed_problem(5, 15, 40, lambda k: PowerPenalty(4.0)),
    # a power group on a subset of the coordinates: the F-ordered column
    # selection would be summed sequentially
    "power-subset": lambda: mixed_problem(
        6, 15, 40, lambda k: PowerPenalty(1.5) if k % 2 else ZeroPenalty()
    ),
    "custom": lambda: mixed_problem(
        7, 8, 12, lambda k: custom_penalty() if k % 3 == 0 else ZeroPenalty()
    ),
    # 2**18 // 3000 = 87 rows per block, so the 151 rows span two blocks
    "two-blocks": lambda: mixed_problem(
        8, 10, 3000, lambda k: PowerPenalty(1.5) if k % 2 else ZeroPenalty()
    ),
}


@pytest.mark.parametrize("name", LOG_OBJECTIVE_CASES)
def test_objectives_from_the_log_are_bitwise_h_plus_g_of_each_iterate(name):
    p, x0 = LOG_OBJECTIVE_CASES[name]()
    trace = run(p, SolverConfig(max_iter=150, residual_tol=1e-9, x0=x0))
    xs = list(iterates(trace))
    want = np.array([p.h.value(x) + g_value(x, p.g) for x in xs])
    assert trace.objectives.tobytes() == want.tobytes()
    # g_value, the one-row case, is np.sum over the dense point
    dense = np.array([p.h.value(x) + g_dense(x, p.g) for x in xs])
    assert want.tobytes() == dense.tobytes()
    assert trace.supp_sizes.max() > 8  # long enough to be summed pairwise


def test_objective_from_the_log_is_infinite_outside_a_one_sided_interval():
    h = LeastSquaresTerm([[1.0, 0.5]], np.array([1.0]), lipschitz=1.25)
    g = SeparableRegularizer((Interval(-1.0, np.inf), Interval(-1.0, 1.0)), (ZeroPenalty(),) * 2)
    p = Problem(g=g, h=h)
    trace = run(p, SolverConfig(x0=np.array([1.0, 2.0])))
    # sigma_{[-1, inf)}(1) = inf at the start; the prox then keeps the first
    # coordinate at or below 0
    assert trace.objectives[0] == np.inf
    assert np.isfinite(trace.objectives[1:]).all() and len(trace.ns) > 1
    want = np.array([p.h.value(x) + g_dense(x, g) for x in iterates(trace)])
    assert trace.objectives.tobytes() == want.tobytes()


_PSI = [ZeroPenalty(), PowerPenalty(1.5), PowerPenalty(4.0), _CUSTOM]


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**16),
    psi=st.lists(st.sampled_from(range(len(_PSI))), min_size=1, max_size=10),
    data=st.data(),
    max_iter=st.integers(0, 30),
)
def test_last_objective_is_bitwise_the_objective_of_x_final(seed, psi, data, max_iter):
    # `polish` reads f(x_final) off the trace's last row instead of
    # evaluating it; x0 may hold -0.0, which the log drops
    n = len(psi)
    h = random_problem(seed, 6, n).h
    g = SeparableRegularizer((Interval(-0.5, 0.5),) * n, tuple(_PSI[k] for k in psi))
    p = Problem(g=g, h=h)
    x0 = np.array(data.draw(st.lists(_ENTRY, min_size=n, max_size=n)))
    trace = run(p, SolverConfig(max_iter=max_iter, x0=x0))
    want = p.objective(trace.x_final)
    assert np.float64(trace.objectives[-1]).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize(
    "interval", [Interval(-1.0, 1.0), Interval(-1.0, np.inf)], ids=["bounded", "one-sided"]
)
def test_run_raises_on_a_non_finite_iterate(interval):
    # x^1 = -9e300 has a finite gradient, but the step lam * grad overflows
    # to +inf; against the infinite endpoint of [-1, inf) the thresholder
    # gives inf - inf = NaN, not a silent 0
    h = LeastSquaresTerm([[1.0]], np.array([0.0]), lipschitz=1e-300)
    p = Problem(g=SeparableRegularizer.uniform(1, interval), h=h)
    cfg = SolverConfig(lam=1e300, x0=np.array([10.0]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        RuntimeError, match="non-finite iterate at iteration 1"
    ):
        run(p, cfg)


def test_run_does_two_matvecs_per_step():
    p = random_problem(6)
    m, n = p.h.op.shape
    counts = {"A": 0, "A^T": 0}

    class CountedMatrix(np.ndarray):
        def dot(self, other):
            counts["A" if self.shape == (m, n) else "A^T"] += 1
            return np.asarray(self).dot(other)

    # the term converts its matrix with np.asarray, so swap the view in after
    object.__setattr__(p.h, "op", p.h.op.view(CountedMatrix))
    trace = run(p, SolverConfig(max_iter=2000, residual_tol=1e-9))
    steps = trace.n_iterations + 1
    assert counts == {"A": steps, "A^T": steps}


def test_fused_step_returns_the_smooth_value():
    p = random_problem(2)
    x = np.random.default_rng(1).standard_normal(p.n)
    _, hx = fb_step(p, 0.01, x)
    assert hx == p.h.value(x)


def test_trace_rules_scale_the_descent_slack_and_gap_floor_by_f_star():
    ns, res, d = [0, 1, 2], [2.0, 1.0, 0.5], [1.0, 0.5, 0.25]
    descent = ["trace: objective gap increases (descent violated)"]
    floor = ["trace: objective gap goes below the reference optimum"]
    # |f*| <= 1: both stay absolute
    assert trace_rules(ns, [1.0, 0.0, 1e-12], res, d, 0.5) == []
    assert trace_rules(ns, [1.0, 0.0, 2e-12], res, d, 0.5) == descent
    assert trace_rules(ns, [1.0, 0.5, -2e-9], res, d, -1.0) == floor
    # |f*| = 1000: a thousand times wider
    assert trace_rules(ns, [1.0, 0.0, 2e-12], res, d, 1e3) == []
    assert trace_rules(ns, [1.0, 0.0, 2e-9], res, d, 1e3) == descent
    assert trace_rules(ns, [1.0, 0.5, -2e-9], res, d, -1e3) == []
    # the Fejer slack is absolute
    dists = [1.0, 0.5, 0.5 + 2e-10]
    assert trace_rules(ns, [1.0, 0.5, 0.0], res, dists, 1e3) == [
        "trace: distance to reference increases (not Fejer)"
    ]


def test_trace_rules_check_iteration_numbers_and_residuals():
    d = [1.0, 0.5, 0.25]
    assert trace_rules([0, 1, 1], [1.0, 0.5, 0.0], [1.0, 0.5, 0.2], d, 0.0) == [
        "trace: iteration numbers not strictly increasing"
    ]
    assert trace_rules([0, 1, 2], [1.0, 0.5, 0.0], [1.0, -0.5, 0.2], d, 0.0) == [
        "trace: negative residual"
    ]

