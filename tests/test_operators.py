import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshgrad.operators import (
    LeastSquaresTerm,
    operator_norm_sq,
    read_dense_matrix,
    read_vector,
)


# ---------------------------------------------------------------------------
# apply / adjoint: the term's matvecs A @ x and A.T @ r


def test_apply_and_adjoint_shapes():
    h = LeastSquaresTerm([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], np.zeros(2), 1.0)
    assert h.op.shape == (2, 3)
    e1 = np.array([1.0, 0.0, 0.0])
    assert h.value(e1) == 0.5 * (1.0 + 16.0)
    assert np.array_equal(h.gradient(e1), [17.0, 22.0, 27.0])
    with pytest.raises(ValueError):
        h.value(np.zeros(2))
    with pytest.raises(ValueError):
        h.gradient(np.zeros(4))


def test_diagonal_and_identity():
    d = LeastSquaresTerm(np.diag([2.0, -3.0]), np.zeros(2), 9.0)
    assert d.value(np.array([1.0, 1.0])) == 6.5
    assert np.array_equal(d.gradient(np.array([1.0, 1.0])), [4.0, 9.0])
    y = np.array([0.25, 1.0, -1.0])
    ident = LeastSquaresTerm(np.eye(3), y, 1.0)
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(ident.gradient(x), x - y)
    assert ident.value(x) == 0.5 * float((x - y) @ (x - y))


def test_adjoint_consistency_random_triples():
    # <x, grad h(z)> = <A x, A z - y>: the gradient applies the adjoint of
    # the same matrix to the residual
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m, n = rng.integers(1, 8, size=2)
        a = rng.standard_normal((m, n))
        h = LeastSquaresTerm(a, rng.standard_normal(m), 1.0)
        x = rng.standard_normal(n)
        z = rng.standard_normal(n)
        lhs = float(x @ h.gradient(z))
        rhs = float((a @ x) @ (a @ z - h.y))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# norm estimate


def test_norm_sq_identity_exact_margin():
    assert operator_norm_sq(np.eye(5)) == pytest.approx(1.01, abs=1e-8)


def test_norm_sq_diagonal():
    got = operator_norm_sq(np.diag([3.0, 1.0]))
    assert got == pytest.approx(9.09, rel=1e-6)


def test_norm_sq_dense_row():
    got = operator_norm_sq([[1.0, -1.0]])
    assert got == pytest.approx(2.02, rel=1e-6)


def test_norm_sq_zero_operator():
    assert operator_norm_sq([[0.0, 0.0]]) == 0.0


def test_norm_sq_upper_bounds_rayleigh_quotients():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((7, 5))
    bound = operator_norm_sq(a)
    true = float(np.linalg.norm(a, ord=2) ** 2)
    assert true <= bound <= 1.02 * true
    for _ in range(100):
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        ax = a @ x
        assert float(ax @ ax) <= bound


def test_norm_sq_rejects_bad_tol():
    with pytest.raises(ValueError):
        operator_norm_sq(np.eye(2), tol=0.0)


# ---------------------------------------------------------------------------
# least-squares term


def test_value_and_gradient_closed_form():
    a = np.array([[1.0, -1.0], [0.0, 2.0]])
    y = np.array([1.0, 0.0])
    h = LeastSquaresTerm(a, y, lipschitz=10.0)
    x = np.array([2.0, 1.0])
    r = a @ x - y
    assert h.value(x) == pytest.approx(0.5 * float(r @ r), abs=1e-15)
    assert np.allclose(h.gradient(x), a.T @ r, atol=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    h = LeastSquaresTerm(a, y, lipschitz=100.0)
    eps = 1e-5
    for _ in range(100):
        x = rng.standard_normal(4)
        grad = h.gradient(x)
        for k in range(4):
            e = np.zeros(4)
            e[k] = eps
            fd = (h.value(x + e) - h.value(x - e)) / (2 * eps)
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 7),
    n=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    scales=st.tuples(*[st.integers(-150, 150)] * 3),
)
def test_fused_gradient_and_value_are_bitwise_the_separate_ones(m, n, seed, scales):
    rng = np.random.default_rng(seed)
    a, y, x = (
        rng.standard_normal(shape) * 10.0**e
        for shape, e in zip(((m, n), m, n), scales)
    )
    h = LeastSquaresTerm(a, y, lipschitz=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        grad, value = h.gradient(x, with_value=True)
        want_grad, want_value = h.gradient(x), h.value(x)
    assert grad.tobytes() == want_grad.tobytes()
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()


def test_least_squares_validation():
    a = np.eye(2)
    with pytest.raises(ValueError):
        LeastSquaresTerm(a, np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        LeastSquaresTerm(a, np.zeros(2), 0.0)


def test_operator_validation():
    for bad in (np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(3), np.zeros((1, 1, 1))):
        with pytest.raises(ValueError):
            LeastSquaresTerm(bad, np.zeros(len(bad)), 1.0)
    h = LeastSquaresTerm([[1, 2, 3], [4, 5, 6]], [0, 0], 1.0)
    assert h.op.dtype == h.y.dtype == np.float64
    assert h.op.shape == (2, 3)


def test_with_estimated_lipschitz():
    h = LeastSquaresTerm.with_estimated_lipschitz(np.diag([2.0, 1.0]), np.zeros(2))
    assert h.lipschitz == pytest.approx(4.04, rel=1e-6)


# ---------------------------------------------------------------------------
# file ingestion


def test_read_csv_matrix_roundtrip(tmp_path):
    a = np.array([[1.5, -2.0, 0.0], [0.25, 3.0, -1.0]])
    path = tmp_path / "a.csv"
    path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n"
    )
    assert np.array_equal(read_dense_matrix(path), a)


def test_read_matrix_market_array(tmp_path):
    from scipy.io import mmwrite

    a = np.array([[1.0, 0.0], [2.5, -3.0], [0.0, 4.0]])
    path = tmp_path / "a.mtx"
    mmwrite(str(path), a)
    assert np.allclose(read_dense_matrix(path), a, atol=0)


def test_read_matrix_market_coordinate(tmp_path):
    from scipy.io import mmwrite
    from scipy.sparse import csr_matrix

    a = np.array([[0.0, 1.0], [2.0, 0.0]])
    path = tmp_path / "a.mtx"
    mmwrite(str(path), csr_matrix(a))
    assert np.array_equal(read_dense_matrix(path), a)


def test_read_matrix_market_gzipped(tmp_path):
    from scipy.io import mmwrite

    a = np.array([[1.0, 2.0]])
    plain = tmp_path / "a.mtx"
    mmwrite(str(plain), a)
    gz = tmp_path / "a.mtx.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes()))
    assert np.array_equal(read_dense_matrix(gz), a)


def test_read_vector_one_column_csv(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("1.5\n-2.0\n0.0\n")
    assert np.array_equal(read_vector(path), [1.5, -2.0, 0.0])


def test_read_vector_rejects_multicolumn(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError):
        read_vector(path)
