import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gradient_matmul, value_matmul

from threshgrad.operators import (
    LeastSquaresTerm,
    operator_norm,
    read_dense_matrix,
    read_vector,
    write_text,
)


# ---------------------------------------------------------------------------
# apply / adjoint: the term's matvecs A @ x and A.T @ r


def test_apply_and_adjoint_shapes():
    h = LeastSquaresTerm([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], np.zeros(2), 1.0)
    assert h.op.shape == (2, 3)
    e1 = np.array([1.0, 0.0, 0.0])
    assert h.value(e1) == 0.5 * (1.0 + 16.0)
    assert np.array_equal(h.gradient(e1)[0], [17.0, 22.0, 27.0])
    with pytest.raises(ValueError):
        h.value(np.zeros(2))
    with pytest.raises(ValueError):
        h.gradient(np.zeros(4))


def test_diagonal_and_identity():
    d = LeastSquaresTerm(np.diag([2.0, -3.0]), np.zeros(2), 9.0)
    assert d.value(np.array([1.0, 1.0])) == 6.5
    assert np.array_equal(d.gradient(np.array([1.0, 1.0]))[0], [4.0, 9.0])
    y = np.array([0.25, 1.0, -1.0])
    ident = LeastSquaresTerm(np.eye(3), y, 1.0)
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(ident.gradient(x)[0], x - y)
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
        lhs = float(x @ h.gradient(z)[0])
        rhs = float((a @ x) @ (a @ z - h.y))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# exact operator norm


def test_norm_sq_identity_exact_margin():
    assert operator_norm(np.eye(5)) ** 2 == pytest.approx(1.0, abs=1e-8)


def test_norm_sq_diagonal():
    got = operator_norm(np.diag([3.0, 1.0])) ** 2
    assert got == pytest.approx(9.0, rel=1e-6)


def test_norm_sq_dense_row():
    got = operator_norm([[1.0, -1.0]]) ** 2
    assert got == pytest.approx(2.0, rel=1e-6)


def test_norm_sq_zero_operator():
    assert operator_norm([[0.0, 0.0]]) == 0.0


def test_norm_sq_upper_bounds_rayleigh_quotients():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((7, 5))
    bound = operator_norm(a) ** 2
    true = float(np.linalg.norm(a, ord=2) ** 2)
    assert bound == pytest.approx(true, rel=1e-14)
    for _ in range(100):
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        ax = a @ x
        assert float(ax @ ax) <= bound


def test_norm_of_the_forward_difference_is_the_closed_form():
    # I - (shift up) has sigma_max^2 = 4 cos^2(pi / (2n + 1)); its top
    # singular value sits close to the next one, which stalls power iteration
    n = 300
    d = np.eye(n) - np.eye(n, k=1)
    want = 4.0 * math.cos(math.pi / (2 * n + 1)) ** 2
    assert operator_norm(d) ** 2 == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# least-squares term


def test_value_and_gradient_closed_form():
    a = np.array([[1.0, -1.0], [0.0, 2.0]])
    y = np.array([1.0, 0.0])
    h = LeastSquaresTerm(a, y, lipschitz=10.0)
    x = np.array([2.0, 1.0])
    r = a @ x - y
    assert h.value(x) == pytest.approx(0.5 * float(r @ r), abs=1e-15)
    assert np.allclose(h.gradient(x)[0], a.T @ r, atol=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    h = LeastSquaresTerm(a, y, lipschitz=100.0)
    eps = 1e-5
    for _ in range(100):
        x = rng.standard_normal(4)
        grad = h.gradient(x)[0]
        for k in range(4):
            e = np.zeros(4)
            e[k] = eps
            fd = (h.value(x + e) - h.value(x - e)) / (2 * eps)
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)


@settings(max_examples=2 * settings.default.max_examples, deadline=None)
@given(
    m=st.integers(1, 9),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    scales=st.tuples(*[st.integers(-150, 150)] * 3),
    layout=st.sampled_from(["C", "F", "column selection", "column slice"]),
    x_stride=st.sampled_from([1, 2]),
)
def test_fused_gradient_and_value_are_bitwise_the_separate_ones(
    m, n, seed, scales, layout, x_stride
):
    # ... and bitwise the matmul-operator spelling of each, on every layout
    rng = np.random.default_rng(seed)
    e_a, e_y, e_x = scales
    base = rng.standard_normal((m, 2 * n)) * 10.0**e_a
    a = {
        "C": np.ascontiguousarray(base[:, :n]),
        "F": np.asfortranarray(base[:, :n]),
        # a fancy column selection comes out F-contiguous
        "column selection": base[:, rng.permutation(2 * n)[:n]],
        "column slice": base[:, :n],
    }[layout]
    y = rng.standard_normal(m) * 10.0**e_y
    x = (rng.standard_normal(n * x_stride) * 10.0**e_x)[::x_stride]
    h = LeastSquaresTerm(a, y, lipschitz=1.0)
    assert np.array_equal(h.op, a)
    if layout == "column slice":
        # the strided view is held as a C-ordered copy, which the matmul
        # operator hands to BLAS as it does any contiguous matrix
        assert h.op.flags.c_contiguous
    else:
        assert h.op is a
    with np.errstate(over="ignore", invalid="ignore"):
        grad, value = h.gradient(x)
        want_grad, want_value = gradient_matmul(h.op, y, x)
        separate = h.value(x)
        want_separate = value_matmul(h.op, y, x)
    assert grad.tobytes() == want_grad.tobytes()
    for got, want in ((value, want_value), (separate, want_separate), (value, separate)):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_least_squares_validation():
    a = np.eye(2)
    with pytest.raises(ValueError):
        LeastSquaresTerm(a, np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        LeastSquaresTerm(a, np.zeros(2), 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_least_squares_rejects_non_finite_data(bad):
    a = np.eye(2)
    a[1, 0] = bad
    with pytest.raises(ValueError, match="the matrix has non-finite entries"):
        LeastSquaresTerm(a, np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="the data vector has non-finite entries"):
        LeastSquaresTerm(np.eye(2), [0.0, bad], 1.0)


@pytest.mark.parametrize("lipschitz", [math.inf, math.nan, 0.0, -1.0])
def test_least_squares_requires_a_finite_positive_lipschitz(lipschitz):
    # an infinite L would surface at run time as an empty step range
    with pytest.raises(ValueError, match="lipschitz must be a finite number > 0"):
        LeastSquaresTerm([[1.0]], [1.0], lipschitz=lipschitz)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_least_squares_default_lipschitz_is_the_exact_norm(layout):
    a = np.random.default_rng(3).standard_normal((7, 11))
    a = {"C": a, "F": np.asfortranarray(a), "strided": a[:, ::2]}[layout]
    h = LeastSquaresTerm(a, np.zeros(7))
    want = np.float64(operator_norm(a) ** 2)
    assert np.float64(h.lipschitz).tobytes() == want.tobytes()


def test_least_squares_checks_its_data_before_the_default_lipschitz():
    # non-finite data fails its own check, not inside the SVD
    with pytest.raises(ValueError, match="the matrix has non-finite entries"):
        LeastSquaresTerm([[math.nan]], [0.0])
    # a zero matrix has ||A||^2 = 0, which is no Lipschitz constant
    with pytest.raises(ValueError, match="lipschitz must be a finite number > 0, got 0.0"):
        LeastSquaresTerm([[0.0, 0.0]], [1.0])


def test_operator_validation():
    for bad in (np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(3), np.zeros((1, 1, 1))):
        with pytest.raises(ValueError):
            LeastSquaresTerm(bad, np.zeros(len(bad)), 1.0)
    h = LeastSquaresTerm([[1, 2, 3], [4, 5, 6]], [0, 0], 1.0)
    assert h.op.dtype == h.y.dtype == np.float64
    assert h.op.shape == (2, 3)


# ---------------------------------------------------------------------------
# file ingestion


def test_read_csv_matrix_roundtrip(tmp_path):
    a = np.array([[1.5, -2.0, 0.0], [0.25, 3.0, -1.0]])
    path = tmp_path / "a.csv"
    path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n"
    )
    assert np.array_equal(read_dense_matrix(path), a)


def test_read_dense_matrix_rejects_a_matrix_market_file(tmp_path):
    # CSV only: the Matrix Market header and size line are not CSV numbers
    path = tmp_path / "a.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0\n2.0\n")
    with pytest.raises(ValueError):
        read_dense_matrix(path)


def test_read_vector_one_column_csv(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("1.5\n-2.0\n0.0\n")
    assert np.array_equal(read_vector(path), [1.5, -2.0, 0.0])


def test_read_vector_rejects_multicolumn(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError):
        read_vector(path)


def test_write_text_creates_and_overwrites_to_length(tmp_path):
    path = tmp_path / "artifact.csv"
    write_text(path, "a,b\n1,2\n")
    assert path.read_text() == "a,b\n1,2\n"
    # shorter, then longer, than the file it overwrites
    write_text(path, "a\n")
    assert path.read_bytes() == b"a\n"
    write_text(str(path), "x" * 10_000 + "\n")
    assert path.read_text() == "x" * 10_000 + "\n"
