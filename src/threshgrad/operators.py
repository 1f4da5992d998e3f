"""The smooth term h(x) = ||Ax - y||^2 / 2 over a dense matrix A, its exact
operator norm, and CSV data ingestion.  A term is immutable and its operations
are pure, so one is safe to share across concurrent solver runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LeastSquaresTerm",
    "operator_norm",
    "read_dense_matrix",
    "read_vector",
]


def operator_norm(a: np.ndarray) -> float:
    """sigma_max(A), the exact operator 2-norm: ||A||^2 is the Lipschitz
    constant of grad h, and synthetic instances are scaled by it."""
    return np.linalg.svd(a, compute_uv=False)[0]


@dataclass(frozen=True, eq=False)
class LeastSquaresTerm:
    """h(x) = ||Ax - y||^2 / 2 with a known Lipschitz constant of its gradient.

    ``op`` is the matrix A, held as a float ndarray.  ``lipschitz`` may be
    any upper bound on ||A||^2; looseness only shrinks the admissible step
    range.
    """

    op: np.ndarray
    y: np.ndarray
    lipschitz: float

    def __post_init__(self):
        a = np.asarray(self.op, dtype=float)
        if a.ndim != 2 or min(a.shape) < 1:
            raise ValueError(f"the matrix must be 2-d and nonempty, got {a.shape}")
        y = np.asarray(self.y, dtype=float)
        if y.shape != (a.shape[0],):
            raise ValueError(
                f"data vector must have length {a.shape[0]}, got {y.shape}"
            )
        for name, v in (("matrix", a), ("data vector", y)):
            if not np.isfinite(v).all():
                raise ValueError(f"the {name} has non-finite entries")
        object.__setattr__(self, "op", a)
        object.__setattr__(self, "y", y)
        if not self.lipschitz > 0.0:
            raise ValueError(f"lipschitz must be positive, got {self.lipschitz}")

    def value(self, x: np.ndarray) -> float:
        r = self.op @ x - self.y
        return 0.5 * float(r.dot(r))

    def gradient(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """The pair (A^T r, h(x)) with r = Ax - y: h(x) is read off the
        same r, so the value costs no matvec beyond the gradient's two."""
        op = self.op
        r = op @ x
        r -= self.y
        # r.dot(r) is r @ r without the matmul dispatch: the same BLAS dot
        return op.T @ r, 0.5 * float(r.dot(r))


# ---------------------------------------------------------------------------
# file ingestion


def read_dense_matrix(path) -> np.ndarray:
    """Dense matrix from a headerless CSV with one matrix row per line."""
    return np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)


def read_vector(path) -> np.ndarray:
    """Vector from a single-column CSV."""
    data = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    if data.shape[1] != 1:
        raise ValueError(
            f"expected a single-column vector file, got {data.shape[1]} columns"
        )
    return data[:, 0]
