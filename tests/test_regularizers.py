import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshgrad.regularizers import (
    CustomPenalty,
    Interval,
    PowerPenalty,
    SeparableRegularizer,
    ZeroPenalty,
    g_value,
    project_interval,
    prox_power_scalar,
    prox_separable,
    soft_interval,
)

SYM = Interval(-1.0, 1.0)


def bisect_power_root(a, c, p, tol=1e-14):
    """Independent root finder for s + c*s**(p-1) = a on [0, a]."""
    lo, hi = 0.0, a
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + c * mid ** (p - 1.0) - a >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Interval


def test_interval_must_contain_zero():
    with pytest.raises(ValueError):
        Interval(0.5, 1.0)
    with pytest.raises(ValueError):
        Interval(-2.0, -0.1)


def test_interval_must_be_proper():
    with pytest.raises(ValueError):
        Interval(0.0, 0.0)


def test_interval_rejects_nan_and_double_infinity():
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)
    with pytest.raises(ValueError):
        Interval(-math.inf, math.inf)


def test_interval_one_sided_infinity_allowed():
    iv = Interval(-1.0, math.inf)
    assert (iv.lo, iv.hi) == (-1.0, math.inf)


# ---------------------------------------------------------------------------
# scalar interval maps


def test_soft_interval_values():
    assert soft_interval(2.0, SYM) == 1.0
    assert soft_interval(1.0, SYM) == 0.0
    assert soft_interval(-3.0, Interval(-1.0, 2.0)) == -2.0
    assert soft_interval(0.0, SYM) == 0.0
    assert soft_interval(-1.0, SYM) == 0.0


def test_project_interval_values():
    assert project_interval(2.0, SYM) == 1.0
    assert project_interval(0.3, SYM) == 0.3
    assert project_interval(-5.0, Interval(-1.0, 2.0)) == -1.0


def test_soft_and_project_vectorized_match_scalar():
    iv = Interval(-0.5, 2.0)
    t = np.array([-3.0, -0.5, 0.0, 1.0, 2.0, 2.5])
    soft_vec = soft_interval(t, iv)
    proj_vec = project_interval(t, iv)
    for k, tk in enumerate(t):
        assert soft_vec[k] == soft_interval(float(tk), iv)
        assert proj_vec[k] == project_interval(float(tk), iv)


def test_moreau_identity_on_sampled_inputs():
    # soft_I(t) + proj_I(t) == t: exact inside the interval, where soft is
    # literally 0.0, and at the endpoints; outside, the clamp subtraction
    # and the add-back each round once, which costs at most one ulp of t
    # when t and the endpoint sit in different binades
    rng = np.random.default_rng(3)
    for scale in (1e-4, 1.0, 1e4):
        lo = -scale * rng.uniform(0.1, 2.0)
        hi = scale * rng.uniform(0.1, 2.0)
        iv = Interval(lo, hi)
        t = rng.uniform(-4 * scale, 4 * scale, size=20_000)
        t = np.concatenate([t, [lo, hi, 0.0, np.nextafter(lo, -np.inf)]])
        back = soft_interval(t, iv) + project_interval(t, iv)
        assert np.all(np.abs(back - t) <= np.spacing(np.abs(t)))
        inside = (t >= lo) & (t <= hi)
        assert np.array_equal(back[inside], t[inside])


def test_soft_zero_iff_inside():
    rng = np.random.default_rng(4)
    iv = Interval(-0.75, 1.25)
    t = rng.uniform(-3, 3, size=50_000)
    s = soft_interval(t, iv)
    inside = (t >= iv.lo) & (t <= iv.hi)
    assert np.array_equal(s == 0.0, inside)


# ---------------------------------------------------------------------------
# power prox


def test_prox_power_quadratic_value():
    # lam*w = 2: minimizer of |s|^2 + (s-3)^2/2 is 3/(1+2)
    assert prox_power_scalar(3.0, 1.0, 2.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert prox_power_scalar(3.0, 1.0, 2.0, 1.0) == pytest.approx(1.5, abs=1e-15)


def test_prox_power_quartic_against_bisection():
    # p=4, lam=w=1: stationarity s + s**3 = 2, root exactly 1
    got = prox_power_scalar(2.0, 1.0, 4.0, 1.0)
    oracle = bisect_power_root(2.0, 1.0, 4.0)
    assert abs(oracle - 1.0) <= 1e-12
    assert got == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p", [4.0 / 3.0, 1.5, 2.0, 2.7, 3.0, 4.0, 6.0])
def test_prox_power_matches_bisection_across_orders(p):
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = rng.uniform(-5, 5)
        lam = rng.uniform(0.05, 3.0)
        w = rng.uniform(0.1, 4.0)
        got = prox_power_scalar(t, lam, p, w)
        want = math.copysign(bisect_power_root(abs(t), lam * w, p), t)
        assert got == pytest.approx(want, abs=2e-9)


def test_prox_power_zero_input_and_zero_weight():
    assert prox_power_scalar(0.0, 1.0, 4.0) == 0.0
    assert prox_power_scalar(2.5, 1.0, 4.0, 0.0) == 2.5


def test_prox_power_subnormal_input():
    # p < 2 makes the Newton derivative s**(p-2) exceed float range for
    # subnormal s; the solve must fall back to bisection, not overflow.
    # True root of s + s**(p-1) = 5e-324 is ~1e-10341: shrink to zero.
    for p in (1.03125, 1.5, 1.99):
        s = prox_power_scalar(5e-324, 1.0, p)
        assert 0.0 <= s <= 5e-324


def test_prox_power_rejects_bad_arguments():
    with pytest.raises(ValueError):
        prox_power_scalar(1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        prox_power_scalar(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        prox_power_scalar(math.inf, 1.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(
    t=st.floats(-1e3, 1e3),
    lam=st.floats(1e-6, 1e3),
    p=st.floats(1.01, 8.0),
    w=st.floats(0.0, 1e3),
)
def test_prox_power_sign_and_shrinkage(t, lam, p, w):
    s = prox_power_scalar(t, lam, p, w)
    assert abs(s) <= abs(t)
    assert s * t >= 0.0
    if w == 0.0:
        assert s == t
        return
    # compare against bisection in x-space: near p = 1 the residual
    # s + lam*w*s**(p-1) - t is steep in log s, so a derivative-residual
    # check would reject correctly placed roots
    want = math.copysign(bisect_power_root(abs(t), lam * w, p), t)
    assert abs(s - want) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(-100, 100),
    b=st.floats(-100, 100),
    lam=st.floats(1e-3, 10.0),
    p=st.sampled_from([4.0 / 3.0, 1.5, 2.0, 2.7, 3.0, 4.0]),
)
def test_prox_power_nonexpansive(a, b, lam, p):
    fa = prox_power_scalar(a, lam, p)
    fb = prox_power_scalar(b, lam, p)
    assert abs(fa - fb) <= abs(a - b) + 1e-10


@pytest.mark.parametrize("p", [4.0 / 3.0, 1.5, 2.0, 2.7, 3.0, 4.0])
def test_vectorized_prox_matches_scalar(p):
    rng = np.random.default_rng(12)
    x = rng.uniform(-20, 20, size=200)
    lam, w = 0.7, 1.3
    g = SeparableRegularizer.uniform(
        200, Interval(-1e-12, 1e-12), PowerPenalty(p, w), omega=1e-12
    )
    # tiny interval so the thresholding stage is a near-identity and the
    # penalty prox is exercised over the full input range
    vec = prox_separable(x, lam, g)
    for k, xk in enumerate(x):
        u = soft_interval(float(xk), Interval(-1e-12, 1e-12))
        assert vec[k] == pytest.approx(prox_power_scalar(u, lam, p, w), abs=1e-11)


# ---------------------------------------------------------------------------
# composed prox


def test_prox_separable_l1_example():
    g = SeparableRegularizer.uniform(3)
    out = prox_separable(np.array([3.0, 0.5, -2.0]), 1.0, g)
    assert np.array_equal(out, np.array([2.0, 0.0, -1.0]))


def test_prox_separable_with_quadratic_penalty():
    g = SeparableRegularizer.uniform(1, penalty=PowerPenalty(2.0, 1.0))
    out = prox_separable(np.array([3.0]), 1.0, g)
    assert out[0] == pytest.approx(1.0, abs=1e-15)


def test_prox_separable_zero_iff_in_scaled_box():
    rng = np.random.default_rng(5)
    n = 100_000
    g = SeparableRegularizer.uniform(n, Interval(-0.5, 1.5))
    lam = 0.8
    x = rng.uniform(-3, 3, size=n)
    out = prox_separable(x, lam, g)
    inside = (x >= lam * -0.5) & (x <= lam * 1.5)
    assert np.array_equal(out == 0.0, inside)


def test_prox_separable_scale_identity_without_penalty():
    # prox_{lam*sigma_I} x = x - lam * proj_I(x / lam)
    rng = np.random.default_rng(6)
    n = 1000
    iv = Interval(-0.3, 0.9)
    g = SeparableRegularizer.uniform(n, iv)
    for lam in (0.1, 1.0, 7.5):
        x = rng.uniform(-5, 5, size=n)
        got = prox_separable(x, lam, g)
        want = x - lam * project_interval(x / lam, iv)
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


def test_prox_separable_custom_penalty_matches_builtin():
    quad = CustomPenalty(
        value=lambda t: 0.5 * t * t,
        prox=lambda t, lam: t / (1.0 + lam),
        differentiable=True,
    )
    g_custom = SeparableRegularizer.uniform(4, penalty=quad)
    g_power = SeparableRegularizer.uniform(4, penalty=PowerPenalty(2.0, 1.0))
    x = np.array([-3.0, -0.2, 1.0, 4.0])
    assert np.allclose(
        prox_separable(x, 0.7, g_custom), prox_separable(x, 0.7, g_power), atol=1e-15
    )


def test_prox_separable_validates_inputs():
    g = SeparableRegularizer.uniform(3)
    with pytest.raises(ValueError):
        prox_separable(np.zeros(2), 1.0, g)
    with pytest.raises(ValueError):
        prox_separable(np.zeros(3), 0.0, g)


def test_prox_firmly_nonexpansive_without_penalty():
    rng = np.random.default_rng(7)
    n = 100_000
    g = SeparableRegularizer.uniform(n, Interval(-0.5, 1.0))
    x = rng.uniform(-4, 4, size=n)
    y = rng.uniform(-4, 4, size=n)
    px = prox_separable(x, 1.3, g)
    py = prox_separable(y, 1.3, g)
    lhs = (px - py) ** 2
    rhs = (px - py) * (x - y)
    assert np.all(lhs <= rhs + 1e-12)


# ---------------------------------------------------------------------------
# values and dual box


def test_g_value_l1():
    g = SeparableRegularizer.uniform(2)
    assert g_value(np.array([0.5, 0.0]), g) == 0.5
    assert g_value(np.array([0.0, 0.0]), g) == 0.0
    assert g_value(np.array([-2.0, 3.0]), g) == 5.0


def test_g_value_with_power_penalty():
    g = SeparableRegularizer.uniform(2, penalty=PowerPenalty(2.0, 1.0))
    # sigma part 2, psi part 2**2/2
    assert g_value(np.array([2.0, 0.0]), g) == pytest.approx(4.0, abs=1e-15)


def test_g_value_infinite_one_sided():
    g = SeparableRegularizer.uniform(1, Interval(-1.0, math.inf), omega=1.0)
    assert g_value(np.array([1.0]), g) == math.inf
    assert g_value(np.array([-2.0]), g) == 2.0
    assert g_value(np.array([0.0]), g) == 0.0


def test_g_value_asymmetric_box():
    g = SeparableRegularizer.uniform(1, Interval(-0.5, 2.0), omega=0.5)
    assert g_value(np.array([3.0]), g) == 6.0
    assert g_value(np.array([-3.0]), g) == 1.5


# ---------------------------------------------------------------------------
# construction rules


def test_uniform_default_omega_is_smaller_margin():
    g = SeparableRegularizer.uniform(3, Interval(-0.25, 4.0))
    assert g.omega == 0.25


def test_regularizer_rejects_interval_narrower_than_omega():
    with pytest.raises(ValueError):
        SeparableRegularizer.uniform(2, Interval(-0.1, 0.1), omega=0.5)
    with pytest.raises(ValueError):
        SeparableRegularizer.uniform(2, omega=0.0)


def test_regularizer_rejects_length_mismatch():
    with pytest.raises(ValueError):
        SeparableRegularizer((SYM, SYM), (ZeroPenalty(),), 1.0)
    with pytest.raises(ValueError):
        SeparableRegularizer((), (), 1.0)


def test_all_zero_psi_includes_weightless_power():
    g = SeparableRegularizer.uniform(2, penalty=PowerPenalty(3.0, 0.0))
    assert g.all_zero_psi
    g2 = SeparableRegularizer.uniform(2, penalty=PowerPenalty(3.0, 0.5))
    assert not g2.all_zero_psi


def test_power_penalty_validation():
    with pytest.raises(ValueError):
        PowerPenalty(1.0)
    with pytest.raises(ValueError):
        PowerPenalty(2.0, -1.0)


def test_custom_penalty_validation():
    with pytest.raises(ValueError):
        CustomPenalty(value=lambda t: t * t + 1.0, prox=lambda t, lam: t)
    with pytest.raises(ValueError):
        # |t| has slope 1 at zero
        CustomPenalty(value=lambda t: abs(t), prox=lambda t, lam: t)
    # smooth even penalty passes the gate
    CustomPenalty(value=lambda t: t ** 4, prox=lambda t, lam: t)
