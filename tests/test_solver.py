import numpy as np
import pytest

from threshgrad.operators import LeastSquaresTerm
from threshgrad.regularizers import Interval, PowerPenalty, SeparableRegularizer
from threshgrad.solver import (
    Problem,
    SolverConfig,
    fb_step,
    fejer_check,
    fixed_point_residual,
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
    """The trace rules, measured against the lowest recorded objective."""
    f_low = float(trace.objectives.min())
    return trace_rules(trace.ns, trace.objectives - f_low, trace.residuals, None, f_low)


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


def test_x0_validation():
    p = scalar_problem()
    with pytest.raises(ValueError):
        SolverConfig(x0=np.zeros(2)).resolve(p)
    with pytest.raises(ValueError):
        SolverConfig(x0=np.array([np.nan])).resolve(p)
    with pytest.raises(ValueError):
        SolverConfig(record_every=0).resolve(p)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=-1).resolve(p)


# ---------------------------------------------------------------------------
# single steps


def test_fb_step_halves_the_scalar_iterate():
    p = scalar_problem()
    assert fb_step(p, 0.5, np.array([1.0]))[0] == 0.5
    assert fb_step(p, 0.5, np.array([0.0]))[0] == 0.0


def test_fb_step_fixed_point_on_segment():
    p = segment_problem()
    x = np.array([0.25, -0.25])
    assert np.allclose(fb_step(p, 0.25, x), x, atol=1e-15)


def test_fixed_point_residual_values():
    p = scalar_problem()
    assert fixed_point_residual(p, 0.5, np.array([1.0])) == 1.0
    assert fixed_point_residual(p, 0.5, np.array([0.0])) == 0.0


def test_fb_step_raises_on_nonfinite_gradient():
    h = LeastSquaresTerm(
        [[1.0]], np.array([np.inf]), lipschitz=1.0
    )
    p = Problem(g=SeparableRegularizer.uniform(1), h=h)
    with pytest.raises(RuntimeError):
        fb_step(p, 0.5, np.array([0.0]))


# ---------------------------------------------------------------------------
# full runs


def test_scalar_run_reproduces_geometric_recurrence():
    p = scalar_problem()
    cfg = SolverConfig(lam=0.5, x0=np.array([1.0]), residual_tol=1e-10)
    trace = run(p, cfg, reference=np.array([0.0]))
    assert trace.converged
    assert trace.n_iterations == 34
    # the iteration halves x each step, exactly in floating point
    for n, x in enumerate(trace.iterates):
        assert x[0] == 0.5 ** n
    assert trace.x_final[0] == 0.5 ** 34
    assert trace.final_residual == 0.5 ** 34
    # f(x) = x^2... the objective along the run is 0.25^n/2 + 1/2
    f_star = 0.5
    gaps = trace.objectives - f_star
    want = 0.25 ** trace.ns.astype(float) / 2.0
    assert np.allclose(gaps, want, rtol=0, atol=1e-15)
    assert all(s == (0,) for s in trace.supports)
    assert trace_rules(trace.ns, gaps, trace.residuals, None, f_star) == []
    assert fejer_check(trace, np.array([0.0]))


def test_run_started_at_minimizer_stops_immediately():
    p = scalar_problem()
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([0.0])))
    assert trace.converged
    assert trace.n_iterations == 0
    assert trace.final_residual == 0.0
    assert list(trace.ns) == [0]
    assert trace.supports == [()]


def test_run_out_of_budget_reports_not_converged():
    p = scalar_problem()
    cfg = SolverConfig(lam=0.5, x0=np.array([1.0]), max_iter=5, residual_tol=0.0)
    trace = run(p, cfg)
    assert not trace.converged
    assert trace.n_iterations == 5
    assert trace.x_final[0] == 0.5 ** 5


def test_sparse_recording_always_includes_last_row():
    p = scalar_problem()
    cfg = SolverConfig(
        lam=0.5, x0=np.array([1.0]), record_every=10, residual_tol=1e-10
    )
    trace = run(p, cfg)
    assert list(trace.ns) == [0, 10, 20, 30, 34]
    assert trace.record_every == 10


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
    ref = np.array([0.0])
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([1.0])), reference=ref)
    assert trace.dists is not None
    assert np.allclose(trace.dists, 0.5 ** trace.ns.astype(float), atol=0)
    with pytest.raises(ValueError):
        run(p, SolverConfig(lam=0.5), reference=np.zeros(2))


# ---------------------------------------------------------------------------
# fejer monotonicity checker


def test_fejer_check_requires_dense_recording():
    p = scalar_problem()
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([1.0]), record_every=2))
    with pytest.raises(ValueError):
        fejer_check(trace, np.array([0.0]))


def test_fejer_check_rejects_mismatched_reference():
    p = scalar_problem()
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([1.0])), reference=np.array([0.0]))
    with pytest.raises(ValueError):
        fejer_check(trace, np.array([1.0]))


def test_fejer_check_reads_distances_from_the_iterate_log():
    p = scalar_problem()
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([1.0])))
    assert trace.dists is None
    assert fejer_check(trace, np.array([0.0]))
    # distances to x0 = 1 grow along the run
    assert not fejer_check(trace, np.array([1.0]))


def test_fejer_holds_against_any_minimizer_of_the_segment():
    p = segment_problem()
    cfg = SolverConfig(x0=np.array([1.0, 1.0]), residual_tol=1e-12)
    for t in (0.0, 0.125, 0.25, 0.5):
        ref = np.array([t, t - 0.5])  # on the solution segment x1 - x2 = 1/2
        assert fixed_point_residual(p, 0.25, ref) <= 1e-15
        trace = run(p, cfg, reference=ref)
        assert fejer_check(trace, ref)


# ---------------------------------------------------------------------------
# trace serialization


def test_write_trace_csv_golden(tmp_path):
    p = scalar_problem()
    cfg = SolverConfig(lam=0.5, x0=np.array([1.0]), max_iter=2, residual_tol=0.0)
    trace = run(p, cfg, reference=np.array([0.0]))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, f_star=0.5)
    want = (
        "n,f_gap,residual,supp_size,dist_to_ref\n"
        "0,0.5,1.0,1,1.0\n"
        "1,0.125,0.5,1,0.5\n"
        "2,0.03125,0.25,1,0.25\n"
    )
    assert path.read_text() == want


def test_write_trace_csv_without_reference(tmp_path):
    p = scalar_problem()
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([1.0]), max_iter=1, residual_tol=0.0))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, f_star=0.5)
    lines = path.read_text().splitlines()
    assert lines[1].endswith(",")  # empty dist column


def test_trace_csv_deterministic_across_runs(tmp_path):
    p = random_problem(11)
    cfg = SolverConfig(max_iter=500, residual_tol=1e-9)
    paths = []
    for tag in ("a", "b"):
        trace = run(p, cfg)
        path = tmp_path / f"{tag}.csv"
        write_trace_csv(trace, path, f_star=0.0)
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
        want.append(fb_step(p, lam, want[-1]))
    got = list(trace.iterates)
    assert len(got) == len(want) == len(trace.ns)
    for g, x in zip(got, want):
        assert g.tobytes() == (x + 0.0).tobytes()  # -0.0 is logged as 0.0
    assert trace.supports == [tuple(np.flatnonzero(x).tolist()) for x in want]
    assert np.array_equal(trace.supp_sizes, [np.count_nonzero(x) for x in want])
    assert trace.indices.dtype == np.int32
    assert trace.offsets[-1] == len(trace.indices) == len(trace.values)


def test_distances_to_matches_dense_norms_bitwise():
    p = random_problem(9)
    trace = run(p, SolverConfig(max_iter=500, residual_tol=1e-9))
    r = np.random.default_rng(0).standard_normal(p.n)
    want = np.array([np.linalg.norm(x - r) for x in trace.iterates])
    assert trace.distances_to(r).tobytes() == want.tobytes()
    with_ref = run(p, SolverConfig(max_iter=500, residual_tol=1e-9), reference=r)
    assert with_ref.dists.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        trace.distances_to(np.zeros(p.n + 1))


def test_run_does_two_matvecs_per_step():
    p = random_problem(6)
    m, n = p.h.op.shape
    counts = {"A": 0, "A^T": 0}

    class CountedMatrix(np.ndarray):
        def __matmul__(self, other):
            counts["A" if self.shape == (m, n) else "A^T"] += 1
            return np.asarray(self) @ other

    # the term converts its matrix with np.asarray, so swap the view in after
    object.__setattr__(p.h, "op", p.h.op.view(CountedMatrix))
    trace = run(p, SolverConfig(max_iter=2000, residual_tol=1e-9))
    steps = trace.n_iterations + 1
    assert counts == {"A": steps, "A^T": steps}


def test_fused_step_returns_the_smooth_value():
    p = random_problem(2)
    x = np.random.default_rng(1).standard_normal(p.n)
    x_next, hx = fb_step(p, 0.01, x, with_value=True)
    assert x_next.tobytes() == fb_step(p, 0.01, x).tobytes()
    assert hx == p.h.value(x)


def test_trace_rules_scale_the_descent_slack_and_gap_floor_by_f_star():
    ns, res = [0, 1, 2], [2.0, 1.0, 0.5]
    descent = ["trace: objective gap increases (descent violated)"]
    floor = ["trace: objective gap goes below the reference optimum"]
    # |f*| <= 1: both stay absolute
    assert trace_rules(ns, [1.0, 0.0, 1e-12], res, None, 0.5) == []
    assert trace_rules(ns, [1.0, 0.0, 2e-12], res, None, 0.5) == descent
    assert trace_rules(ns, [1.0, 0.5, -2e-9], res, None, -1.0) == floor
    # |f*| = 1000: a thousand times wider
    assert trace_rules(ns, [1.0, 0.0, 2e-12], res, None, 1e3) == []
    assert trace_rules(ns, [1.0, 0.0, 2e-9], res, None, 1e3) == descent
    assert trace_rules(ns, [1.0, 0.5, -2e-9], res, None, -1e3) == []
    # the Fejer slack is absolute
    dists = [1.0, 0.5, 0.5 + 2e-10]
    assert trace_rules(ns, [1.0, 0.5, 0.0], res, dists, 1e3) == [
        "trace: distance to reference increases (not Fejer)"
    ]


def test_trace_rules_check_iteration_numbers_and_residuals():
    assert trace_rules([0, 1, 1], [1.0, 0.5, 0.0], [1.0, 0.5, 0.2], None, 0.0) == [
        "trace: iteration numbers not strictly increasing"
    ]
    assert trace_rules([0, 1, 2], [1.0, 0.5, 0.0], [1.0, -0.5, 0.2], None, 0.0) == [
        "trace: negative residual"
    ]

