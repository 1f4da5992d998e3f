"""Claims that must be invariant under an exact symmetry of the problem.

Interval reflection maps (A, y, I_k, x0) to (-A, y, -I_k, -x0).  With an
even penalty the reflected run is the original one negated coordinate by
coordinate: A x, the residual, h and g are the same numbers, and every
prox and clamp is odd.  So every recorded quantity agrees bit for bit,
and x_bar and the dual point change sign.

Column permutation maps (A, I_k, x0) to (A P, I_P(k), P^T x0).  The
permuted run is the original one with its coordinates relabelled, but
the matrix-vector products sum in another order, so only the discrete
claims agree exactly: the index sets map through P, and the
identification iteration and the rate regime are the same.  x_bar and
the fitted rate agree within a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshgrad.analysis import analyze, generate_synthetic
from threshgrad.operators import LeastSquaresTerm
from threshgrad.regularizers import (
    Interval,
    PowerPenalty,
    SeparableRegularizer,
    ZeroPenalty,
)
from threshgrad.solver import Problem

PENALTIES = [ZeroPenalty(), PowerPenalty(1.5), PowerPenalty(4.0)]


def _problem(a, y, lipschitz, interval, penalty):
    g = SeparableRegularizer.uniform(a.shape[1], interval, penalty)
    return Problem(g=g, h=LeastSquaresTerm(a, y, lipschitz=lipschitz))


@settings(max_examples=settings.default.max_examples // 4, deadline=None)
@given(
    seed=st.integers(0, 999),
    lo=st.floats(-2.0, -0.1),
    hi=st.floats(0.1, 2.0),
    penalty=st.sampled_from(PENALTIES),
    x0_seed=st.integers(0, 2**32 - 1),
)
def test_interval_reflection_negates_the_run(seed, lo, hi, penalty, x0_seed):
    h = generate_synthetic(20, 50, seed).h
    x0 = np.random.default_rng(x0_seed).uniform(-20.0, 20.0, 50)
    want = analyze(
        _problem(h.op, h.y, h.lipschitz, Interval(lo, hi), penalty),
        x0=x0,
    )
    got = analyze(
        _problem(-h.op, h.y, h.lipschitz, Interval(-hi, -lo), penalty),
        x0=-x0,
    )
    for field in ("objectives", "residuals"):
        assert getattr(got.trace, field).tobytes() == getattr(want.trace, field).tobytes()
    assert got.dists.tobytes() == want.dists.tobytes()
    assert got.f_star == want.f_star
    assert got.rate == want.rate
    negated = [-u for u in got.report["dual_point"]]
    assert {**got.report, "dual_point": negated} == want.report
    # by value: a 0.0 entry of x_bar may come back as -0.0
    assert np.array_equal(got.x_bar, -want.x_bar)


@settings(max_examples=settings.default.max_examples // 4, deadline=None)
@given(
    seed=st.integers(0, 999),
    # 2.7 has no closed form: its prox is the scalar root on each coordinate
    penalty=st.sampled_from([ZeroPenalty(), PowerPenalty(1.5), PowerPenalty(2.7)]),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_column_permutation_relabels_the_run(seed, penalty, draw_seed):
    h = generate_synthetic(20, 50, seed).h
    rng = np.random.default_rng(draw_seed)
    intervals = [
        Interval(lo, hi)
        for lo, hi in zip(rng.uniform(-2.0, -0.1, 50), rng.uniform(0.1, 2.0, 50))
    ]
    x0 = rng.uniform(-20.0, 20.0, 50)
    perm = rng.permutation(50)

    def run(a, ivs, start):
        g = SeparableRegularizer(tuple(ivs), (penalty,) * 50)
        problem = Problem(g=g, h=LeastSquaresTerm(a, h.y, lipschitz=h.lipschitz))
        return analyze(problem, x0=start)

    want = run(h.op, intervals, x0)
    got = run(h.op[:, perm], [intervals[k] for k in perm], x0[perm])
    # old coordinate perm[j] is new coordinate j
    relabel = np.argsort(perm)
    for key in ("supp", "esupp"):
        assert got.report[key] == sorted(relabel[want.report[key]].tolist())
    for key in ("identification_iteration", "qualification_holds"):
        assert got.report[key] == want.report[key]
    # the tail window ends at the rounding floor, so its rows can move; on
    # 600 draws epsilon moved by up to 1.2 % and x_bar by up to 7.7e-11
    assert (got.rate is None) == (want.rate is None)
    if want.rate is not None:
        assert got.rate["regime"] == want.rate["regime"]
        if want.rate["regime"] == "linear":
            assert got.rate["epsilon"] == pytest.approx(want.rate["epsilon"], rel=0.05)
    assert np.allclose(got.x_bar, want.x_bar[perm], rtol=0.0, atol=1e-9)
