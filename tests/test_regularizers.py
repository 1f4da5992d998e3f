import math
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    g_dense,
    newton_power_root,
    polish_power_root_clip,
    project_interval,
    soft_interval,
    soft_where,
)

from threshgrad import regularizers
from threshgrad.regularizers import (
    CustomPenalty,
    Interval,
    PowerPenalty,
    SeparableRegularizer,
    ZeroPenalty,
    g_rows,
    g_value,
    log_blocks,
    prox_power_root,
    prox_separable,
)

SYM = Interval(-1.0, 1.0)


def root_prox(t, lam, p, w=1.0):
    """The minimizer of w*lam*|s|**p / p + (s - t)**2 / 2 by a one-element
    `prox_power_root`."""
    return float(prox_power_root(np.array([t]), lam * w, p)[0])


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
    # lam*w = 2: minimizer of |s|^2 + (s-3)^2/2 is 3/(1+2); the closed form
    # is exact, the root within its tolerance
    u = np.array([3.0])
    assert regularizers._prox_power_vec(u, 2.0, 2.0)[0] == pytest.approx(1.0, abs=1e-15)
    assert regularizers._prox_power_vec(u, 1.0, 2.0)[0] == pytest.approx(1.5, abs=1e-15)
    assert root_prox(3.0, 1.0, 2.0, 2.0) == pytest.approx(1.0, abs=1e-13)
    assert root_prox(3.0, 1.0, 2.0, 1.0) == pytest.approx(1.5, abs=1e-13)


def test_prox_power_quartic_against_bisection():
    # p=4, lam=w=1: stationarity s + s**3 = 2, root exactly 1
    got = root_prox(2.0, 1.0, 4.0, 1.0)
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
        got = root_prox(t, lam, p, w)
        want = math.copysign(bisect_power_root(abs(t), lam * w, p), t)
        assert got == pytest.approx(want, abs=2e-9)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.7, 4.0])
def test_prox_power_root_zero_input_and_zero_weight(p):
    u = np.array([0.0, -0.0, 2.5, -1e-300, 5e-324])
    assert prox_power_root(u[:2], 1.0, p).tobytes() == np.zeros(2).tobytes()
    # c == 0 is the identity, bit for bit and without a solve
    got = prox_power_root(u, 0.0, p)
    assert got.tobytes() == u.tobytes() and got is not u


def test_prox_power_subnormal_input():
    # p < 2 makes the Newton derivative s**(p-2) exceed float range for
    # subnormal s; the solve must fall back to bisection, not overflow.
    # True root of s + s**(p-1) = 5e-324 is ~1e-10341: shrink to zero.
    for p in (1.03125, 1.5, 1.99):
        s = root_prox(5e-324, 1.0, p)
        assert 0.0 <= s <= 5e-324


@settings(max_examples=3 * settings.default.max_examples, deadline=None)
@given(
    t=st.floats(-1e3, 1e3),
    lam=st.floats(1e-6, 1e3),
    p=st.floats(1.01, 8.0),
    w=st.floats(0.0, 1e3),
)
def test_prox_power_sign_and_shrinkage(t, lam, p, w):
    s = root_prox(t, lam, p, w)
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


@settings(max_examples=3 * settings.default.max_examples, deadline=None)
@given(
    a=st.floats(-100, 100),
    b=st.floats(-100, 100),
    lam=st.floats(1e-3, 10.0),
    p=st.sampled_from([4.0 / 3.0, 1.5, 2.0, 2.7, 3.0, 4.0]),
)
def test_prox_power_nonexpansive(a, b, lam, p):
    fa = root_prox(a, lam, p)
    fb = root_prox(b, lam, p)
    assert abs(fa - fb) <= abs(a - b) + 1e-10


# the orders `_prox_power_vec` solves in closed form
CLOSED_FORM_ORDERS = (4.0 / 3.0, 1.5, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("p", [4.0 / 3.0, 1.5, 2.0, 2.7, 3.0, 4.0, 6.0, 1.2])
def test_vectorized_prox_matches_scalar(p):
    rng = np.random.default_rng(12)
    x = rng.uniform(-20, 20, size=200)
    lam, w = 0.7, 1.3
    g = SeparableRegularizer.uniform(
        200, Interval(-1e-12, 1e-12), PowerPenalty(p, w)
    )
    # tiny interval so the thresholding stage is a near-identity and the
    # penalty prox is exercised over the full input range
    vec = prox_separable(x, lam, g)
    for k, xk in enumerate(x):
        u = soft_interval(float(xk), Interval(lam * -1e-12, lam * 1e-12))
        want = math.copysign(newton_power_root(abs(u), lam * w, p), u)
        if p in CLOSED_FORM_ORDERS:
            assert vec[k] == pytest.approx(want, abs=1e-11)
        else:
            # the same root on the same c = lam * w
            assert vec[k].tobytes() == np.float64(want).tobytes()


def magnitudes(lo: int, hi: int):
    """Positive floats m * 10**e with 1 <= m < 10 and lo <= e <= hi."""
    return st.builds(
        lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(lo, hi)
    )


def outcome(f, *args):
    """The float64 bytes of f(*args), a float or an array, or the message
    of the RuntimeError it raises."""
    try:
        return np.asarray(f(*args), dtype=np.float64).tobytes()
    except RuntimeError as exc:
        return str(exc)


power_orders = st.one_of(
    st.integers(1, 12).map(lambda k: 1.0 + 10.0**-k),  # near 1
    st.floats(1.01, 8.0),
    st.floats(8.0, 100.0),
)


@settings(deadline=None)
@given(
    u=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.builds(
                lambda s, m: s * m, st.sampled_from([1.0, -1.0]), magnitudes(-300, 300)
            ),
        ),
        min_size=1,
        max_size=20,
    ),
    c=magnitudes(-100, 100),
    p=st.one_of(power_orders, st.sampled_from(CLOSED_FORM_ORDERS)),
)
@example(u=[0.0, 2.6080000902602745, -0.0, -1.0], c=0.7, p=2.7)
@example(u=[1.0, -1e300, 5e-324], c=1e10, p=2.7)  # 1e300 does not converge
# s**(p-1) overflows at the first step; s**(p-2) overflows near 0
@example(u=[1e300], c=1.0, p=50.0)
@example(u=[-5e-324], c=1.0, p=1.0 + 1e-12)
@example(u=[1e-300], c=3e100, p=1.5)
def test_prox_power_root_is_bitwise_the_newton_oracle(u, c, p):
    # at every order, the closed-form ones included; outside them it is
    # also what the solver's `_prox_power_vec` returns
    def oracle():
        s = np.array([newton_power_root(abs(t), c, p) for t in u])
        return np.sign(u) * s

    want = outcome(oracle)
    assert outcome(prox_power_root, np.array(u), c, p) == want
    if p not in CLOSED_FORM_ORDERS:
        assert outcome(regularizers._prox_power_vec, np.array(u), c, p) == want


def test_general_order_prox_takes_a_numpy_c():
    # lam = 1 / ||A||^2 is an np.float64 when L comes from `operator_norm`;
    # on the way down from 1e100, c * s**(p-1) leaves float range
    u = np.array([1e100, -2.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = regularizers._prox_power_vec(u, np.float64(1e200), 2.1)
    assert got.tobytes() == regularizers._prox_power_vec(u, 1e200, 2.1).tobytes()


def test_prox_separable_names_the_coordinates_of_a_failed_root():
    g = SeparableRegularizer(
        (SYM,) * 3, (ZeroPenalty(), PowerPenalty(2.7, 2e10), PowerPenalty(2.7, 2e10))
    )
    with pytest.raises(
        RuntimeError,
        match=r"^prox failed on coordinates \[1, 2\]: power prox solve did not converge "
        r"\(a=1e\+300, c=10000000000\.0, p=2\.7\)",
    ) as info:
        prox_separable(np.array([5.0, 3.0, 1e300]), 0.5, g)
    assert isinstance(info.value.__cause__, RuntimeError)


finite_inputs = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3),
    st.builds(lambda s, m: s * m, st.sampled_from([1.0, -1.0]), magnitudes(-300, 300)),
)


@settings(deadline=None)
@given(
    u=st.lists(finite_inputs, min_size=1, max_size=20),
    c=magnitudes(-12, 12),
    p=st.sampled_from([4.0 / 3.0, 1.5, 4.0]),
)
def test_polish_clamp_is_bitwise_np_clip(u, c, p):
    u = np.array(u)
    with np.errstate(all="ignore"):
        got = regularizers._prox_power_vec(u, c, p)
        with mock.patch.object(
            regularizers, "_polish_power_root", polish_power_root_clip
        ):
            want = regularizers._prox_power_vec(u, c, p)
    assert got.tobytes() == want.tobytes()


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


def test_prox_separable_scales_the_endpoints_by_each_lam():
    # the endpoints scaled by the last lam are kept; the endpoints are
    # read-only, so that copy cannot go stale
    g = SeparableRegularizer.uniform(2, Interval(-1.0, 2.0))
    x = np.array([3.0, -3.0])
    for lam, want in ((1.0, [1.0, -2.0]), (0.5, [2.0, -2.5]), (1.0, [1.0, -2.0])):
        assert prox_separable(x, lam, g).tolist() == want
    assert x.tolist() == [3.0, -3.0]
    with pytest.raises(ValueError):
        g.upper_endpoints[0] = 5.0


def test_prox_separable_shared_by_threads_at_different_lams():
    # each thread steps with its own lam on one regularizer; a swap of the
    # scaled endpoints that is not atomic would hand one thread the
    # endpoints of another's lam
    g = SeparableRegularizer.uniform(64, Interval(-1.0, 2.0))
    x = np.linspace(-5.0, 5.0, 64)
    lams = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
    want = {lam: soft_where(x, lam, g) for lam in lams}
    bad = []

    def work(lam):
        for _ in range(3000):
            if prox_separable(x, lam, g).tobytes() != want[lam].tobytes():
                bad.append(lam)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(lam,)) for lam in lams]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


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


@st.composite
def zero_psi_prox_inputs(draw):
    """A psi = 0 regularizer with one-sided and two-sided intervals, a step
    lam, and an input x whose entries are finite up to 1e300 in magnitude,
    +-0.0, or exactly +-lam times an endpoint.  lam times every finite
    endpoint stays a normal float, so the scaled interval keeps 0 inside."""
    n = draw(st.integers(1, 8))
    ends = st.floats(1e-150, 1e150)
    intervals = []
    for _ in range(n):
        lo, hi = -draw(ends), draw(ends)
        side = draw(st.sampled_from(["none", "lo", "hi"]))
        intervals.append(
            Interval(-math.inf if side == "lo" else lo, math.inf if side == "hi" else hi)
        )
    zero = st.sampled_from([ZeroPenalty(), PowerPenalty(4.0, 0.0)])
    g = SeparableRegularizer(tuple(intervals), tuple(draw(zero) for _ in range(n)))
    lam = draw(st.floats(1e-150, 1e150))
    x = []
    for iv in intervals:
        finite_ends = [e for e in (iv.lo, iv.hi) if math.isfinite(e)]
        x.append(
            draw(
                st.one_of(
                    st.floats(-1e300, 1e300),
                    st.sampled_from([0.0, -0.0]),
                    st.sampled_from(finite_ends).map(lambda e: lam * e),
                    st.sampled_from(finite_ends).map(lambda e: -(lam * e)),
                )
            )
        )
    return g, lam, np.array(x)


@settings(max_examples=3 * settings.default.max_examples, deadline=None)
@given(case=zero_psi_prox_inputs())
def test_prox_separable_clamp_is_bitwise_the_nested_where(case):
    g, lam, x = case
    assert g.all_zero_psi
    assert prox_separable(x, lam, g).tobytes() == soft_where(x, lam, g).tobytes()


def test_prox_separable_infinite_entry_against_its_infinite_endpoint_is_nan():
    # x - clamp(x) is inf - inf there; the branch form mapped it to 0.0
    g = SeparableRegularizer(
        (Interval(-1.0, math.inf), Interval(-math.inf, 2.0), SYM, SYM),
        (ZeroPenalty(),) * 4,
    )
    x = np.array([math.inf, -math.inf, math.inf, -math.inf])
    with np.errstate(invalid="ignore"):
        out = prox_separable(x, 0.5, g)
        want = soft_where(x, 0.5, g)
    assert np.isnan(out[:2]).all()
    assert out[2:].tolist() == [math.inf, -math.inf]
    assert want.tolist() == [0.0, 0.0, math.inf, -math.inf]


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
    g = SeparableRegularizer.uniform(1, Interval(-1.0, math.inf))
    assert g_value(np.array([1.0]), g) == math.inf
    assert g_value(np.array([-2.0]), g) == 2.0
    assert g_value(np.array([0.0]), g) == 0.0


def test_g_value_asymmetric_box():
    g = SeparableRegularizer.uniform(1, Interval(-0.5, 2.0))
    assert g_value(np.array([3.0]), g) == 6.0
    assert g_value(np.array([-3.0]), g) == 1.5


_TINY_AT_ZERO = CustomPenalty(
    value=lambda t: abs(t) ** 3 + 1e-13, prox=lambda t, lam: t
)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), n_rows=st.integers(0, 40))
def test_g_rows_is_bitwise_g_of_each_dense_row(seed, n, n_rows):
    # ragged rows over mixed penalty groups and one-sided intervals; an
    # entry beyond an infinite endpoint makes its row's g infinite
    rng = np.random.default_rng(seed)
    kinds = (ZeroPenalty(), PowerPenalty(1.5), PowerPenalty(4.0, 0.3), _TINY_AT_ZERO)
    boxes = (Interval(-1.0, 2.0), Interval(-0.5, math.inf), Interval(-math.inf, 3.0))
    g = SeparableRegularizer(
        tuple(boxes[k] for k in rng.choice(3, n, p=[0.8, 0.1, 0.1])),
        tuple(kinds[k] for k in rng.integers(0, 4, n)),
    )
    sizes = rng.integers(0, n + 1, n_rows)
    rows = [np.sort(rng.choice(n, size=k, replace=False)) for k in sizes]
    values = rng.standard_normal(sizes.sum()) * 10.0 ** rng.integers(-8, 8, sizes.sum())
    offsets = np.cumsum([0, *sizes], dtype=np.int64)
    indices = np.concatenate([np.zeros(0, dtype=np.int32), *rows]).astype(np.int32)
    want = []
    for a, b in zip(offsets[:-1], offsets[1:]):
        x = np.zeros(n)
        x[indices[a:b]] = values[a:b]
        want.append(g_dense(x, g))
        assert g_value(x, g) == want[-1]
    got = g_rows(offsets, indices, values, g)
    assert got.tobytes() == np.array(want, dtype=float).tobytes()


def test_g_rows_builds_dense_rows_only_for_a_penalty_group(monkeypatch):
    built = []

    def spy(*args, **kwargs):
        for item in log_blocks(*args, **kwargs):
            built.append(item[-1] is not None)
            yield item

    monkeypatch.setattr(regularizers, "log_blocks", spy)
    offsets, indices = np.array([0, 1, 1]), np.array([2], dtype=np.int32)
    for pen, dense in ((PowerPenalty(4.0, 0.0), False), (PowerPenalty(4.0), True)):
        built.clear()
        g_rows(offsets, indices, np.array([3.0]), SeparableRegularizer.uniform(3, penalty=pen))
        assert built == [dense]


# ---------------------------------------------------------------------------
# construction rules


def test_uniform_default_omega_is_smaller_margin():
    g = SeparableRegularizer.uniform(3, Interval(-0.25, 4.0))
    # the margin omega = min_k min(-lo_k, hi_k): every interval contains
    # [-omega, omega]
    assert min(-g.lower_endpoints.max(), g.upper_endpoints.min()) == 0.25


def test_omega_is_the_smallest_margin_and_needs_a_nonzero_endpoint():
    g = SeparableRegularizer(
        (Interval(-0.5, 2.0), Interval(-3.0, 0.25), Interval(-1.0, math.inf)),
        (ZeroPenalty(),) * 3,
    )
    assert min(-g.lower_endpoints.max(), g.upper_endpoints.min()) == 0.25
    with pytest.raises(ValueError, match="lo < 0 < hi"):
        Interval(0.0, 1.0)
    with pytest.raises(ValueError, match="lo < 0 < hi"):
        Interval(-1.0, 0.0)


def test_regularizer_rejects_length_mismatch():
    with pytest.raises(ValueError):
        SeparableRegularizer((SYM, SYM), (ZeroPenalty(),))
    with pytest.raises(ValueError):
        SeparableRegularizer((), ())


def test_all_zero_psi_includes_weightless_power():
    # psi = 0 in either spelling, alone or mixed in either order, is a
    # coordinate in no penalty group
    zero, weightless = ZeroPenalty(), PowerPenalty(4.0, 0.0)
    for pens in ((zero,) * 2, (weightless,) * 2, (zero, weightless), (weightless, zero)):
        g = SeparableRegularizer((SYM, SYM), pens)
        assert g._groups == () and g.all_zero_psi
    g2 = SeparableRegularizer.uniform(2, penalty=PowerPenalty(3.0, 0.5))
    assert not g2.all_zero_psi
    # power groups are keyed by value, custom ones by identity
    g3 = SeparableRegularizer(
        (SYM,) * 5,
        (PowerPenalty(4, 1), _TINY_AT_ZERO, zero, PowerPenalty(4.0, 1.0), weightless),
    )
    assert [(idx.tolist(), pen) for idx, pen in g3._groups] == [
        ([0, 3], PowerPenalty(4.0, 1.0)),
        ([1], _TINY_AT_ZERO),
    ]


def test_power_penalty_validation():
    with pytest.raises(ValueError):
        PowerPenalty(1.0)
    with pytest.raises(ValueError):
        PowerPenalty(2.0, -1.0)
    # non-finite parameters would make g_value nan instead of failing
    for p, weight in ((math.inf, 1.0), (math.nan, 1.0), (2.0, math.inf), (2.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            PowerPenalty(p, weight)


def test_custom_penalty_validation():
    with pytest.raises(ValueError):
        CustomPenalty(value=lambda t: t * t + 1.0, prox=lambda t, lam: t)
    with pytest.raises(ValueError):
        # |t| has slope 1 at zero
        CustomPenalty(value=lambda t: abs(t), prox=lambda t, lam: t)
    # smooth even penalty passes the gate
    CustomPenalty(value=lambda t: t ** 4, prox=lambda t, lam: t)
