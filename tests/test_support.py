import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import support_changes_by_row

from threshgrad.analysis import analyze, generate_synthetic
from threshgrad.operators import LeastSquaresTerm
from threshgrad.regularizers import (
    CustomPenalty,
    Interval,
    PowerPenalty,
    SeparableRegularizer,
)
from threshgrad.solver import IterateTrace, Problem, run
from threshgrad.support import (
    build_support_report,
    identification_audit,
    identification_bound,
    report_rules,
    rho,
    write_support_report,
)


def scalar_problem():
    h = LeastSquaresTerm([[1.0]], np.array([1.0]), lipschitz=1.0)
    return Problem(g=SeparableRegularizer.uniform(1), h=h)


def segment_problem():
    s = np.sqrt(2.0)
    h = LeastSquaresTerm([[s, -s]], np.array([s]), lipschitz=4.0)
    return Problem(g=SeparableRegularizer.uniform(2), h=h)


def _mk_trace(ns, supports, x0=None, lam=1.0):
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
        x_final=np.zeros(len(x0)),
        x0=np.asarray(x0, dtype=float),
        lam=lam,
        converged=True,
        n_iterations=int(ns[-1]),
        wall_time=0.0,
    )


@pytest.mark.parametrize(
    "supports, changes",
    [
        ([()], 0),
        ([(3,)], 0),
        ([(), ()], 0),
        ([(), (0,), (), (0,)], 3),
        ([(1, 2), (1, 3)], 1),
        ([(1, 2), (1, 2), (2, 3), (2, 3)], 1),
        ([(0, 1), (2,), (2,), (0, 1)], 2),
        ([(4,), (), (), (4,), (5,)], 3),
    ],
)
def test_support_changes_of_hand_made_logs(supports, changes):
    trace = _mk_trace(range(len(supports)), supports, x0=np.zeros(6))
    assert trace.support_changes() == changes == support_changes_by_row(trace)


@settings(deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 5), max_size=6, unique=True).map(sorted),
        min_size=1,
        max_size=12,
    )
)
def test_support_changes_is_the_row_by_row_count(supports):
    # six coordinates make equal-size rows with different index sets common
    trace = _mk_trace(range(len(supports)), supports, x0=np.zeros(6))
    assert trace.support_changes() == support_changes_by_row(trace)


def test_support_changes_is_the_row_by_row_count_on_the_batch(lasso_batch):
    for run_ in lasso_batch.runs:
        want = support_changes_by_row(run_.trace)
        assert run_.trace.support_changes() == want > 0


def report_at(u, g, x_bar=None):
    """Support report of ||x - y||^2 / 2 + g(x) (A = I) at x_bar, zero by
    default, with y = x_bar + u: the dual point y - x_bar is u, exactly
    when x_bar = 0."""
    u = np.asarray(u, dtype=float)
    x_bar = np.zeros(len(u)) if x_bar is None else np.asarray(x_bar, dtype=float)
    h = LeastSquaresTerm(np.eye(len(u)), x_bar + u, lipschitz=1.0)
    trace = _mk_trace([0], [()], x0=np.zeros(len(u)))
    return build_support_report(Problem(g=g, h=h), trace, x_bar)


# ---------------------------------------------------------------------------
# support and extended support


def test_support_is_exact():
    # no magnitude threshold; -0.0 is zero.  The dual point 0 is interior,
    # so esupp adds nothing
    def supp(x_bar):
        n = len(x_bar)
        return report_at(np.zeros(n), SeparableRegularizer.uniform(n), x_bar)["supp"]

    assert supp([0.5, 0.0]) == [0]
    assert supp([0.0, -0.0, 0.0]) == []
    assert supp([1e-300, 0.0, -2.0]) == [0, 2]


def test_extended_support_adds_boundary_dual_coordinates():
    g = SeparableRegularizer.uniform(1)
    # at x = 0 with grad = -1 the dual coordinate sits on the endpoint 1
    assert report_at([1.0], g)["esupp"] == [0]
    assert report_at([-0.3], g)["esupp"] == []
    # the support itself is always included
    rep = report_at([-0.2], g, x_bar=[0.5])
    assert np.array_equal(rep["dual_point"], [-0.2])
    assert rep["esupp"] == [0]


def test_extended_support_tolerance_scales_with_endpoint():
    g = SeparableRegularizer.uniform(1, Interval(-1e6, 1e6))
    # within 1e-8 * 1e6 of the endpoint
    assert report_at([1e6 - 1e-3], g)["esupp"] == [0]
    assert report_at([1e6 - 1e-1], g)["esupp"] == []


def test_extended_support_tolerance_is_1e_8_on_unit_intervals():
    g = SeparableRegularizer.uniform(1)
    assert report_at([1.0 - 0.5e-8], g)["esupp"] == [0]
    assert report_at([1.0 - 2e-8], g)["esupp"] == []
    assert report_at([-(1.0 - 0.5e-8)], g)["esupp"] == [0]
    assert report_at([-(1.0 - 2e-8)], g)["esupp"] == []


@pytest.mark.parametrize("c2", [1e-4, 1e-8])
def test_extended_support_is_unchanged_by_the_joint_rescaling(c2):
    # (A, y, I) -> (cA, cy, c^2 I) has the same iterates in exact
    # arithmetic; at c^2 = 1e-8 a tolerance floor of 1e-8 would put every
    # dual coordinate within reach of the endpoints +-1e-8
    p = generate_synthetic(20, 50, 0)
    c = math.sqrt(c2)
    scaled = Problem(
        g=SeparableRegularizer.uniform(50, Interval(-c2, c2)),
        h=LeastSquaresTerm(c * p.h.op, c * p.h.y, lipschitz=c2),
    )
    want, got = analyze(p), analyze(scaled)
    assert len(want.report["esupp"]) == 11
    assert got.report["esupp"] == want.report["esupp"]
    assert got.report["supp"] == want.report["supp"]


def test_extended_support_ignores_infinite_endpoints():
    g = SeparableRegularizer.uniform(1, Interval(-1.0, math.inf))
    assert report_at([1e12], g)["esupp"] == []
    assert report_at([-1.0], g)["esupp"] == [0]


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
    g = SeparableRegularizer.uniform(1, Interval(-1.0, math.inf))
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


def test_audit_on_real_run():
    p = scalar_problem()
    trace = run(p, lam=0.5, x0=np.array([1.0]))
    violations, ident = identification_audit(trace, (0,))
    assert (violations, ident) == (0, 1)
    # against the true (empty-support) solution set every iterate violates
    violations, ident = identification_audit(trace, ())
    assert violations == len(trace.ns) - 1
    assert ident is None


# ---------------------------------------------------------------------------
# dual point, active constraints, qualification


def dual_point(p, x):
    """The report's dual point at x, read through a one-row trace of x."""
    trace = run(p, x0=x, max_iter=0)
    return np.array(build_support_report(p, trace, x)["dual_point"])


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
        trace = run(p, x0=x0, residual_tol=1e-12)
        x_bar = polish(p, trace)[0]
        sols.append(x_bar)
        duals.append(build_support_report(p, trace, x_bar)["dual_point"])
    # the primal landing points spread over the segment ...
    spread = max(np.linalg.norm(a - b) for a in sols for b in sols)
    assert spread > 1e-3
    # ... while the dual point is unique
    for u in duals:
        assert np.allclose(u, duals[0], atol=1e-6)
        assert np.allclose(u, [1.0, -1.0], atol=1e-6)


def test_active_constraints_values():
    g = SeparableRegularizer.uniform(2)
    assert report_at([1.0, -1.0], g)["active_constraints"] == [0, 1]
    assert report_at([0.3, -1.0], g)["active_constraints"] == [1]
    assert report_at(np.zeros(2), g)["active_constraints"] == []


def test_active_constraints_requires_zero_psi():
    g = SeparableRegularizer.uniform(2, penalty=PowerPenalty(2.0, 1.0))
    assert report_at(np.zeros(2), g)["active_constraints"] is None


def test_qualification_fails_for_scalar_example():
    g = SeparableRegularizer.uniform(1)
    assert report_at([1.0], g)["qualification_holds"] is False


def test_qualification_holds_on_the_segment():
    p = segment_problem()
    trace = _mk_trace([0], [()], x0=np.zeros(2))
    rep = build_support_report(p, trace, np.array([0.25, -0.25]))
    assert rep["qualification_holds"] is True


def test_qualification_needs_differentiability_attestation():
    attested = CustomPenalty(
        value=lambda t: t ** 4, prox=lambda t, lam: t, differentiable=True
    )
    g = SeparableRegularizer.uniform(1, penalty=attested)
    assert report_at(np.zeros(1), g)["qualification_holds"] is True


# ---------------------------------------------------------------------------
# full report


def test_report_for_scalar_problem():
    p = scalar_problem()
    trace = run(p, lam=0.5, x0=np.array([1.0]))
    rep = build_support_report(p, trace, np.array([0.0]))
    assert rep["supp"] == []
    assert rep["esupp"] == [0]
    assert rep["rho_sol"] is None
    assert rep["identification_bound"] == 0.0
    assert rep["observed_violations"] == 0
    assert rep["identification_iteration"] == 1
    assert rep["qualification_holds"] is False
    assert rep["active_constraints"] == [0]
    assert np.array_equal(rep["dual_point"], [1.0])


def test_report_for_segment_problem():
    p = segment_problem()
    trace = run(p, residual_tol=1e-12)
    rep = build_support_report(p, trace, np.array([0.25, -0.25]))
    assert rep["supp"] == [0, 1]
    assert rep["esupp"] == [0, 1]
    assert rep["qualification_holds"] is True
    assert rep["rho_sol"] is None  # both dual coordinates on the boundary
    assert rep["identification_bound"] == 0.0


def test_report_reads_one_boundary_mask(monkeypatch):
    from threshgrad import support as support_module

    p = segment_problem()
    trace = run(p, residual_tol=1e-12)
    x_bar = np.array([0.25, -0.25])
    calls = []
    original = support_module._boundary_mask

    def counted(u, g):
        calls.append(1)
        return original(u, g)

    monkeypatch.setattr(support_module, "_boundary_mask", counted)
    build_support_report(p, trace, x_bar)
    assert len(calls) == 1


def test_report_with_custom_penalty_leaves_qualification_open():
    smooth = CustomPenalty(value=lambda t: t ** 4, prox=lambda t, lam: t)
    g = SeparableRegularizer.uniform(1, penalty=smooth)
    h = LeastSquaresTerm([[1.0]], np.array([0.0]), lipschitz=1.0)
    p = Problem(g=g, h=h)
    trace = run(p)
    rep = build_support_report(p, trace, np.zeros(1))
    assert rep["qualification_holds"] is None
    assert rep["active_constraints"] is None


def test_report_invariants_on_random_instance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((10, 25))
    h = LeastSquaresTerm(
        a, rng.standard_normal(10),
        lipschitz=float(np.linalg.norm(a, ord=2) ** 2) * 1.001,
    )
    p = Problem(g=SeparableRegularizer.uniform(25), h=h)
    trace = run(p, residual_tol=1e-10)
    from threshgrad.conditioning import polish

    x_bar = polish(p, trace)[0]
    rep = build_support_report(p, run(p, residual_tol=1e-10), x_bar)
    assert set(rep["supp"]) <= set(rep["esupp"])
    assert rep["identification_bound"] >= 0.0
    if rep["rho_sol"] is not None:
        assert rep["rho_sol"] > 0.0
        assert rep["observed_violations"] <= math.ceil(rep["identification_bound"])
    assert rep["identification_iteration"] is not None


def test_report_serialization_roundtrip(tmp_path):
    p = scalar_problem()
    trace = run(p, lam=0.5, x0=np.array([1.0]))
    rep = build_support_report(p, trace, np.array([0.0]))
    assert rep["rho_sol"] is None  # +inf maps to null
    assert rep["esupp"] == [0]
    path = tmp_path / "report.json"
    write_support_report(rep, path)
    loaded = json.loads(path.read_text())
    assert loaded == rep


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


def test_support_report_json_form():
    lists = ("supp", "esupp", "active_constraints", "dual_point")
    p = segment_problem()
    trace = run(p, residual_tol=1e-12)
    d = build_support_report(p, trace, trace.x_final)
    assert set(d) == set(SOUND_REPORT)
    assert all(type(d[k]) is list for k in lists)
    assert all(type(v) is float for v in d["dual_point"])
    # a power penalty has no dual box, so no active constraints
    g = SeparableRegularizer.uniform(1, penalty=PowerPenalty(2.0))
    p = Problem(g=g, h=scalar_problem().h)
    d = build_support_report(p, run(p), np.zeros(1))
    assert set(d) == set(SOUND_REPORT)
    assert d["active_constraints"] is None


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


@pytest.mark.parametrize("key", ["esupp", "rho_sol", "dual_point"])
def test_report_rules_name_a_missing_key(key):
    rep = {k: v for k, v in SOUND_REPORT.items() if k != key}
    assert report_rules(rep) == [f"support: missing key {key!r}"]


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("supp", [0.0], "a list of ints"),
        ("esupp", [True], "a list of ints"),
        ("esupp", "01", "a list of ints"),
        ("rho_sol", "0.5", "a number or null"),
        ("observed_violations", 2.0, "an int"),
        ("identification_iteration", [3], "an int or null"),
        ("qualification_holds", 0, "a bool or null"),
        ("dual_point", 2, "a list"),
    ],
)
def test_report_rules_name_a_mistyped_key(key, value, kind):
    assert report_rules({**SOUND_REPORT, key: value}) == [
        f"support: {key} is not {kind}"
    ]


def test_report_rules_fail_a_report_that_is_not_an_object():
    assert report_rules([SOUND_REPORT]) == [
        "support: the report is a list, not a JSON object"
    ]


def test_report_rules_pass_a_built_report():
    p = segment_problem()
    trace = run(p, residual_tol=1e-12)
    rep = build_support_report(p, trace, trace.x_final)
    assert report_rules(rep) == []

