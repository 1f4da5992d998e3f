import json
import math

import numpy as np
import pytest

from threshgrad.operators import LeastSquaresTerm
from threshgrad.regularizers import (
    CustomPenalty,
    Interval,
    PowerPenalty,
    SeparableRegularizer,
)
from threshgrad.solver import IterateTrace, Problem, SolverConfig, run
from threshgrad.support import (
    active_constraints,
    build_support_report,
    dual_point,
    extended_support,
    identification_audit,
    identification_bound,
    qualification_check,
    report_rules,
    report_to_dict,
    rho,
    support,
    write_support_report,
)


def scalar_problem():
    h = LeastSquaresTerm([[1.0]], np.array([1.0]), lipschitz=1.0)
    return Problem(g=SeparableRegularizer.uniform(1), h=h)


def segment_problem():
    s = np.sqrt(2.0)
    h = LeastSquaresTerm([[s, -s]], np.array([s]), lipschitz=4.0)
    return Problem(g=SeparableRegularizer.uniform(2), h=h)


def _mk_trace(ns, supports, record_every=1, x0=None, lam=1.0):
    ns = np.asarray(ns, dtype=np.int64)
    k = len(ns)
    if x0 is None:
        x0 = np.zeros(1)
    return IterateTrace(
        ns=ns,
        objectives=np.zeros(k),
        residuals=np.zeros(k),
        offsets=np.cumsum([0] + [len(s) for s in supports], dtype=np.int64),
        indices=np.array([i for s in supports for i in s], dtype=np.int32),
        values=np.ones(sum(len(s) for s in supports)),
        dists=None,
        x_final=np.zeros(len(x0)),
        x0=np.asarray(x0, dtype=float),
        lam=lam,
        converged=True,
        n_iterations=int(ns[-1]),
        final_residual=0.0,
        record_every=record_every,
        wall_time=0.0,
    )


# ---------------------------------------------------------------------------
# support and extended support


def test_support_is_exact():
    assert support(np.array([0.5, 0.0])) == (0,)
    assert support(np.zeros(3)) == ()
    assert support(np.array([1e-300, 0.0, -2.0])) == (0, 2)


def test_extended_support_adds_boundary_dual_coordinates():
    g = SeparableRegularizer.uniform(1)
    # at x = 0 with grad = -1 the dual coordinate sits on the endpoint 1
    assert extended_support(np.array([0.0]), np.array([-1.0]), g) == (0,)
    assert extended_support(np.array([0.0]), np.array([0.3]), g) == ()
    # the support itself is always included
    assert extended_support(np.array([0.5]), np.array([0.2]), g) == (0,)


def test_extended_support_default_tolerance_scales_with_endpoint():
    g = SeparableRegularizer.uniform(1, Interval(-1e6, 1e6), omega=1.0)
    x = np.array([0.0])
    grad = np.array([-(1e6 - 1e-3)])  # within 1e-8 * 1e6 of the endpoint
    assert extended_support(x, grad, g) == (0,)
    assert extended_support(x, grad, g, boundary_tol=1e-8) == ()


def test_extended_support_ignores_infinite_endpoints():
    g = SeparableRegularizer.uniform(1, Interval(-1.0, math.inf), omega=1.0)
    assert extended_support(np.array([0.0]), np.array([-1e12]), g) == ()
    assert extended_support(np.array([0.0]), np.array([1.0]), g) == (0,)


# ---------------------------------------------------------------------------
# rho and the identification bound


def test_rho_minimizes_over_strict_interior():
    g = SeparableRegularizer.uniform(3)
    assert rho(np.array([0.5, 0.9, 1.0]), g) == pytest.approx(0.1, abs=1e-15)


def test_rho_empty_interior_is_infinite():
    g = SeparableRegularizer.uniform(2)
    assert rho(np.array([1.0, -1.0]), g) == math.inf


def test_rho_at_zero():
    g = SeparableRegularizer.uniform(1)
    assert rho(np.array([0.0]), g) == 1.0


def test_rho_with_one_sided_infinite_interval():
    g = SeparableRegularizer.uniform(1, Interval(-1.0, math.inf), omega=1.0)
    assert rho(np.array([0.5]), g) == 1.5


def test_identification_bound_values():
    assert identification_bound(0.5, 1.0, 2.0) == 16.0
    assert identification_bound(math.inf, 1.0, 5.0) == 0.0
    assert identification_bound(1.0, 2.0, 0.0) == 0.0


def test_identification_bound_saturates_where_the_quotient_leaves_float_range():
    # rho_sol^2 or lam^2 underflows to 0
    assert identification_bound(1e-200, 1.0, 1.0) == math.inf
    assert identification_bound(1.0, 1e-200, 1.0) == math.inf
    assert identification_bound(1e-200, 1.0, 0.0) == 0.0
    # rho_sol^2 overflows and the quotient underflows
    assert identification_bound(1e200, 1.0, 1.0) == 0.0
    # dist0^2 overflows but the quotient is in range
    assert identification_bound(1e190, 1.0, 1e200) == pytest.approx(1e20, rel=1e-15)


def test_identification_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        identification_bound(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        identification_bound(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        identification_bound(1.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# identification audit


def test_audit_ignores_the_starting_point():
    trace = _mk_trace([0, 1, 2], [(0, 1), (0,), (0,)])
    assert identification_audit(trace, (0,)) == (0, 1)


def test_audit_counts_violations_and_reports_settling_iteration():
    trace = _mk_trace([0, 1, 2, 3], [(), (0, 1), (0, 1), (0,)])
    assert identification_audit(trace, (0,)) == (2, 3)


def test_audit_unsettled_tail_has_no_identification_iteration():
    trace = _mk_trace([0, 1, 2], [(), (0,), (0, 1)])
    assert identification_audit(trace, (0,)) == (1, None)


def test_audit_on_single_row_trace():
    trace = _mk_trace([0], [()])
    assert identification_audit(trace, (0,)) == (0, 1)


def test_audit_requires_dense_recording():
    trace = _mk_trace([0, 2], [(), ()], record_every=2)
    with pytest.raises(ValueError):
        identification_audit(trace, (0,))


def test_audit_on_real_run():
    p = scalar_problem()
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([1.0])))
    violations, ident = identification_audit(trace, (0,))
    assert (violations, ident) == (0, 1)
    # against the true (empty-support) solution set every iterate violates
    violations, ident = identification_audit(trace, ())
    assert violations == len(trace.ns) - 1
    assert ident is None


# ---------------------------------------------------------------------------
# dual point, active constraints, qualification


def test_dual_point_values():
    p = scalar_problem()
    assert dual_point(p, np.array([0.0]))[0] == 1.0
    q = segment_problem()
    assert np.allclose(dual_point(q, np.array([0.25, -0.25])), [1.0, -1.0], atol=1e-14)


def test_dual_point_agrees_across_minimizers_of_the_segment():
    from threshgrad.conditioning import polish

    p = segment_problem()
    starts = [
        np.zeros(2),
        np.array([1.0, 1.0]),
        np.array([-1.0, 2.0]),
        np.array([3.0, -3.0]),
        np.array([0.1, 0.9]),
    ]
    duals = []
    sols = []
    for x0 in starts:
        trace = run(p, SolverConfig(x0=x0, residual_tol=1e-12))
        x_bar = polish(p, trace.x_final)
        sols.append(x_bar)
        duals.append(dual_point(p, x_bar))
    # the primal landing points spread over the segment ...
    spread = max(np.linalg.norm(a - b) for a in sols for b in sols)
    assert spread > 1e-3
    # ... while the dual point is unique
    for u in duals:
        assert np.allclose(u, duals[0], atol=1e-6)
        assert np.allclose(u, [1.0, -1.0], atol=1e-6)


def test_active_constraints_values():
    g = SeparableRegularizer.uniform(2)
    assert active_constraints(np.array([1.0, -1.0]), g) == (0, 1)
    assert active_constraints(np.array([0.3, -1.0]), g) == (1,)
    assert active_constraints(np.zeros(2), g) == ()


def test_active_constraints_requires_zero_psi():
    g = SeparableRegularizer.uniform(2, penalty=PowerPenalty(2.0, 1.0))
    with pytest.raises(ValueError):
        active_constraints(np.zeros(2), g)


def test_qualification_fails_for_scalar_example():
    g = SeparableRegularizer.uniform(1)
    assert qualification_check(np.array([0.0]), np.array([-1.0]), g) is False


def test_qualification_holds_on_the_segment():
    p = segment_problem()
    x = np.array([0.25, -0.25])
    assert qualification_check(x, p.h.gradient(x), p.g) is True


def test_qualification_needs_differentiability_attestation():
    smooth = CustomPenalty(value=lambda t: t ** 4, prox=lambda t, lam: t)
    g = SeparableRegularizer.uniform(1, penalty=smooth)
    with pytest.raises(ValueError):
        qualification_check(np.zeros(1), np.zeros(1), g)
    attested = CustomPenalty(
        value=lambda t: t ** 4, prox=lambda t, lam: t, differentiable=True
    )
    g2 = SeparableRegularizer.uniform(1, penalty=attested)
    assert qualification_check(np.zeros(1), np.zeros(1), g2) is True


# ---------------------------------------------------------------------------
# full report


def test_report_for_scalar_problem():
    p = scalar_problem()
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([1.0])))
    rep = build_support_report(p, trace, np.array([0.0]))
    assert rep.supp == ()
    assert rep.esupp == (0,)
    assert rep.rho_sol == math.inf
    assert rep.identification_bound == 0.0
    assert rep.observed_violations == 0
    assert rep.identification_iteration == 1
    assert rep.qualification_holds is False
    assert rep.active_constraints == (0,)
    assert np.array_equal(rep.dual_point, [1.0])


def test_report_for_segment_problem():
    p = segment_problem()
    trace = run(p, SolverConfig(residual_tol=1e-12))
    rep = build_support_report(p, trace, np.array([0.25, -0.25]))
    assert rep.supp == (0, 1)
    assert rep.esupp == (0, 1)
    assert rep.qualification_holds is True
    assert rep.rho_sol == math.inf  # both dual coordinates on the boundary
    assert rep.identification_bound == 0.0


def test_report_with_custom_penalty_leaves_qualification_open():
    smooth = CustomPenalty(value=lambda t: t ** 4, prox=lambda t, lam: t)
    g = SeparableRegularizer.uniform(1, penalty=smooth)
    h = LeastSquaresTerm([[1.0]], np.array([0.0]), lipschitz=1.0)
    p = Problem(g=g, h=h)
    trace = run(p, SolverConfig())
    rep = build_support_report(p, trace, np.zeros(1))
    assert rep.qualification_holds is None
    assert rep.active_constraints is None


def test_report_invariants_on_random_instance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((10, 25))
    h = LeastSquaresTerm(
        a, rng.standard_normal(10),
        lipschitz=float(np.linalg.norm(a, ord=2) ** 2) * 1.001,
    )
    p = Problem(g=SeparableRegularizer.uniform(25), h=h)
    trace = run(p, SolverConfig(residual_tol=1e-10))
    from threshgrad.conditioning import polish

    x_bar = polish(p, trace.x_final)
    rep = build_support_report(p, run(p, SolverConfig(residual_tol=1e-10)), x_bar)
    assert set(rep.supp) <= set(rep.esupp)
    assert rep.identification_bound >= 0.0
    if math.isfinite(rep.rho_sol):
        assert rep.rho_sol > 0.0
        assert rep.observed_violations <= math.ceil(rep.identification_bound)
    assert rep.identification_iteration is not None


def test_report_serialization_roundtrip(tmp_path):
    p = scalar_problem()
    trace = run(p, SolverConfig(lam=0.5, x0=np.array([1.0])))
    rep = build_support_report(p, trace, np.array([0.0]))
    d = report_to_dict(rep)
    assert d["rho_sol"] is None  # +inf maps to null
    assert d["esupp"] == [0]
    path = tmp_path / "report.json"
    write_support_report(rep, path)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(d))


SOUND_REPORT = {
    "supp": [0],
    "esupp": [0, 1],
    "rho_sol": 0.5,
    "identification_bound": 2.0,
    "observed_violations": 2,
    "identification_iteration": 3,
    "qualification_holds": False,
    "active_constraints": [0, 1],
    "dual_point": [1.0, -1.0],
}


def test_report_rules_pass_a_sound_report():
    assert report_rules(SOUND_REPORT) == []
    # violations <= ceil(bound), also for an infinite bound
    assert report_rules({**SOUND_REPORT, "identification_bound": 1.5}) == []
    assert report_rules({**SOUND_REPORT, "identification_bound": math.inf}) == []
    unbounded = {"rho_sol": None, "identification_bound": 0.0}
    assert report_rules({**SOUND_REPORT, **unbounded}) == []


def test_an_infinite_bound_passes_the_rules_and_roundtrips_through_json():
    rep = {
        **SOUND_REPORT,
        "rho_sol": 1e-200,
        "identification_bound": identification_bound(1e-200, 1.0, 1.0),
    }
    loaded = json.loads(json.dumps(rep))
    assert loaded == rep
    assert loaded["identification_bound"] == math.inf
    assert report_rules(loaded) == []


@pytest.mark.parametrize(
    "change,needle",
    [
        ({"identification_iteration": None}, "not identified"),
        ({"identification_iteration": 0}, "not identified"),
        ({"supp": [1], "esupp": [0]}, "supp not contained in esupp"),
        ({"esupp": [0, 2]}, "index out of range"),
        ({"rho_sol": -1.0}, "rho_sol must be positive"),
        ({"identification_bound": -1.0}, "negative identification bound"),
        ({"rho_sol": None}, "bound must be 0"),
        ({"identification_bound": 1.0}, "observed violations exceed the bound"),
        ({"qualification_holds": True}, "qualification claimed but supp != esupp"),
    ],
)
def test_report_rules_flag_each_broken_claim(change, needle):
    problems = report_rules({**SOUND_REPORT, **change})
    assert any(needle in problem for problem in problems)


def test_report_rules_pass_a_built_report():
    p = segment_problem()
    trace = run(p, SolverConfig(residual_tol=1e-12))
    rep = report_to_dict(build_support_report(p, trace, trace.x_final))
    assert report_rules(rep) == []

