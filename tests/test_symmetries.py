"""Claims that must be invariant under an exact symmetry of the problem.

Interval reflection maps (A, y, I_k, x0) to (-A, y, -I_k, -x0).  With an
even penalty the reflected run is the original one negated coordinate by
coordinate: A x, the residual, h and g are the same numbers, and every
prox and clamp is odd.  So every recorded quantity agrees bit for bit,
and x_bar and the dual point change sign.
"""

import numpy as np
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
from threshgrad.solver import Problem, SolverConfig

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
        SolverConfig(x0=x0),
    )
    got = analyze(
        _problem(-h.op, h.y, h.lipschitz, Interval(-hi, -lo), penalty),
        SolverConfig(x0=-x0),
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
