"""Linear operators for the smooth term h(x) = ||Ax - y||^2 / 2.

Dense matrices are the workhorse; diagonal and identity variants avoid
materializing trivial structure.  All operators are immutable after
construction and every operation is pure, so they are safe to share across
concurrent solver runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "DiagonalOperator",
    "IdentityOperator",
    "LeastSquaresTerm",
    "operator_norm_sq",
    "read_dense_matrix",
    "read_vector",
]

# fixed internal seed so norm estimates are reproducible run to run
_POWER_ITER_SEED = 20210607


class LinearOperator(ABC):
    """Matrix-like map from R^n (domain) to R^m (codomain)."""

    shape: tuple[int, int]  # (m, n)

    @abstractmethod
    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x"""

    @abstractmethod
    def adjoint_apply(self, u: np.ndarray) -> np.ndarray:
        """A.T @ u"""

    def _check_domain(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape[1],):
            raise ValueError(
                f"operator domain has dimension {self.shape[1]}, got {x.shape}"
            )
        return x

    def _check_codomain(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.shape[0],):
            raise ValueError(
                f"operator codomain has dimension {self.shape[0]}, got {u.shape}"
            )
        return u


class DenseOperator(LinearOperator):
    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or min(matrix.shape) < 1:
            raise ValueError(f"dense operator needs a 2-d matrix, got {matrix.shape}")
        self.matrix = matrix
        self.shape = matrix.shape

    def apply(self, x):
        return self.matrix @ self._check_domain(x)

    def adjoint_apply(self, u):
        return self.matrix.T @ self._check_codomain(u)


class DiagonalOperator(LinearOperator):
    def __init__(self, diag: np.ndarray):
        diag = np.asarray(diag, dtype=float).ravel()
        if diag.size < 1:
            raise ValueError("diagonal operator needs at least one entry")
        self.diag = diag
        self.shape = (diag.size, diag.size)

    def apply(self, x):
        return self.diag * self._check_domain(x)

    # self-adjoint
    def adjoint_apply(self, u):
        return self.diag * self._check_codomain(u)


class IdentityOperator(LinearOperator):
    def __init__(self, n: int):
        if n < 1:
            raise ValueError("identity operator needs positive dimension")
        self.shape = (n, n)

    def apply(self, x):
        return self._check_domain(x).copy()

    def adjoint_apply(self, u):
        return self._check_codomain(u).copy()


def operator_norm_sq(
    op: LinearOperator, tol: float = 1e-9, max_iter: int = 5000
) -> float:
    """Upper estimate of ||A||^2 by power iteration on A*A.

    The converged Rayleigh quotient is multiplied by a safety factor 1.01 so
    the returned value upper-bounds the true norm in the generic case, which
    is what a Lipschitz constant needs.  Raises on non-convergence within
    ``max_iter`` (the caller may then supply L manually).
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = op.shape[1]
    rng = np.random.default_rng(_POWER_ITER_SEED)
    v = rng.random(n) + 0.5  # random positive start
    v /= np.linalg.norm(v)
    lam_old = None
    for _ in range(max_iter):
        w = op.adjoint_apply(op.apply(v))
        lam = float(v @ w)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0  # zero operator
        if lam_old is not None and abs(lam - lam_old) <= tol * max(abs(lam), 1e-300):
            return 1.01 * lam
        lam_old = lam
        v = w / norm_w
    raise RuntimeError(
        f"power iteration did not converge within {max_iter} iterations"
    )


@dataclass(frozen=True, eq=False)
class LeastSquaresTerm:
    """h(x) = ||Ax - y||^2 / 2 with a known Lipschitz constant of its gradient.

    ``lipschitz`` may be any upper bound on ||A||^2; looseness only shrinks
    the admissible step range.
    """

    op: LinearOperator
    y: np.ndarray
    lipschitz: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.shape != (self.op.shape[0],):
            raise ValueError(
                f"data vector must have length {self.op.shape[0]}, got {y.shape}"
            )
        object.__setattr__(self, "y", y)
        if not self.lipschitz > 0.0:
            raise ValueError(f"lipschitz must be positive, got {self.lipschitz}")

    @classmethod
    def with_estimated_lipschitz(
        cls, op: LinearOperator, y: np.ndarray, tol: float = 1e-9, max_iter: int = 5000
    ) -> "LeastSquaresTerm":
        return cls(op, y, operator_norm_sq(op, tol, max_iter))

    def value(self, x: np.ndarray) -> float:
        r = self.op.apply(x) - self.y
        return 0.5 * float(r @ r)

    def gradient(self, x: np.ndarray, with_value: bool = False):
        """A^T r with r = Ax - y; with ``with_value`` the pair (A^T r, h(x)),
        h(x) taken from the same r, so two matvecs either way."""
        r = self.op.apply(x) - self.y
        grad = self.op.adjoint_apply(r)
        return (grad, 0.5 * float(r @ r)) if with_value else grad


# ---------------------------------------------------------------------------
# file ingestion


def read_dense_matrix(path) -> np.ndarray:
    """Dense matrix from a Matrix Market file (array or coordinate, real,
    general) or a headerless CSV with one matrix row per line."""
    path = Path(path)
    if path.name.lower().endswith((".mtx", ".mm", ".mtx.gz")):
        from scipy.io import mmread

        m = mmread(str(path))
        m = m.toarray() if hasattr(m, "toarray") else np.asarray(m)
        return np.atleast_2d(np.asarray(m, dtype=float))
    data = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    return data


def read_vector(path) -> np.ndarray:
    """Vector from a single-column CSV."""
    data = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    if data.shape[1] != 1:
        raise ValueError(
            f"expected a single-column vector file, got {data.shape[1]} columns"
        )
    return data[:, 0]
