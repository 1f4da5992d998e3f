import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshgrad.operators import (
    DenseOperator,
    DiagonalOperator,
    IdentityOperator,
    LeastSquaresTerm,
    operator_norm_sq,
    read_dense_matrix,
    read_vector,
)


def random_operator(rng, m, n):
    return DenseOperator(rng.standard_normal((m, n)))


# ---------------------------------------------------------------------------
# apply / adjoint


def test_apply_and_adjoint_shapes():
    op = DenseOperator([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert op.shape == (2, 3)
    assert np.array_equal(op.apply(np.array([1.0, 0.0, 0.0])), [1.0, 4.0])
    assert np.array_equal(op.adjoint_apply(np.array([1.0, 0.0])), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        op.apply(np.zeros(2))
    with pytest.raises(ValueError):
        op.adjoint_apply(np.zeros(3))


def test_diagonal_and_identity():
    d = DiagonalOperator([2.0, -3.0])
    assert np.array_equal(d.apply(np.array([1.0, 1.0])), [2.0, -3.0])
    assert np.array_equal(d.adjoint_apply(np.array([1.0, 1.0])), [2.0, -3.0])
    ident = IdentityOperator(3)
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(ident.apply(x), x)
    assert np.array_equal(ident.adjoint_apply(x), x)


def test_adjoint_consistency_random_triples():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m, n = rng.integers(1, 8, size=2)
        op = random_operator(rng, m, n)
        x = rng.standard_normal(n)
        u = rng.standard_normal(m)
        lhs = float(op.apply(x) @ u)
        rhs = float(x @ op.adjoint_apply(u))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_operator_validation():
    with pytest.raises(ValueError):
        DenseOperator(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        DenseOperator(np.zeros(3))
    with pytest.raises(ValueError):
        DiagonalOperator([])
    with pytest.raises(ValueError):
        IdentityOperator(0)


# ---------------------------------------------------------------------------
# norm estimate


def test_norm_sq_identity_exact_margin():
    assert operator_norm_sq(IdentityOperator(5)) == pytest.approx(1.01, abs=1e-8)


def test_norm_sq_diagonal():
    got = operator_norm_sq(DiagonalOperator([3.0, 1.0]))
    assert got == pytest.approx(9.09, rel=1e-6)


def test_norm_sq_dense_row():
    got = operator_norm_sq(DenseOperator([[1.0, -1.0]]))
    assert got == pytest.approx(2.02, rel=1e-6)


def test_norm_sq_zero_operator():
    assert operator_norm_sq(DenseOperator([[0.0, 0.0]])) == 0.0


def test_norm_sq_upper_bounds_rayleigh_quotients():
    rng = np.random.default_rng(1)
    op = random_operator(rng, 7, 5)
    bound = operator_norm_sq(op)
    true = float(np.linalg.norm(op.matrix, ord=2) ** 2)
    assert true <= bound <= 1.02 * true
    for _ in range(100):
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        ax = op.apply(x)
        assert float(ax @ ax) <= bound


def test_norm_sq_rejects_bad_tol():
    with pytest.raises(ValueError):
        operator_norm_sq(IdentityOperator(2), tol=0.0)


# ---------------------------------------------------------------------------
# least-squares term


def test_value_and_gradient_closed_form():
    op = DenseOperator([[1.0, -1.0], [0.0, 2.0]])
    y = np.array([1.0, 0.0])
    h = LeastSquaresTerm(op, y, lipschitz=10.0)
    x = np.array([2.0, 1.0])
    r = op.matrix @ x - y
    assert h.value(x) == pytest.approx(0.5 * float(r @ r), abs=1e-15)
    assert np.allclose(h.gradient(x), op.matrix.T @ r, atol=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    op = random_operator(rng, 6, 4)
    y = rng.standard_normal(6)
    h = LeastSquaresTerm(op, y, lipschitz=100.0)
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
    h = LeastSquaresTerm(DenseOperator(a), y, lipschitz=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        grad, value = h.gradient(x, with_value=True)
        want_grad, want_value = h.gradient(x), h.value(x)
    assert grad.tobytes() == want_grad.tobytes()
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()


def test_least_squares_validation():
    op = IdentityOperator(2)
    with pytest.raises(ValueError):
        LeastSquaresTerm(op, np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        LeastSquaresTerm(op, np.zeros(2), 0.0)


def test_with_estimated_lipschitz():
    op = DiagonalOperator([2.0, 1.0])
    h = LeastSquaresTerm.with_estimated_lipschitz(op, np.zeros(2))
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


def test_read_vector_single_column(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("1.5\n-2.0\n0.0\n")
    assert np.array_equal(read_vector(path), [1.5, -2.0, 0.0])


def test_read_vector_rejects_multicolumn(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError):
        read_vector(path)
