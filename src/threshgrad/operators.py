"""The smooth term h(x) = ||Ax - y||^2 / 2 over a dense matrix A, norm
estimation, and data ingestion.  A term is immutable and its operations are
pure, so one is safe to share across concurrent solver runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "LeastSquaresTerm",
    "operator_norm_sq",
    "read_dense_matrix",
    "read_vector",
]

# fixed internal seed so norm estimates are reproducible run to run
_POWER_ITER_SEED = 20210607


def operator_norm_sq(a: np.ndarray, tol: float = 1e-9, max_iter: int = 5000) -> float:
    """Upper estimate of ||A||^2 by power iteration on A^T A.

    The converged Rayleigh quotient is multiplied by a safety factor 1.01 so
    the returned value upper-bounds the true norm in the generic case, which
    is what a Lipschitz constant needs.  Raises on non-convergence within
    ``max_iter`` (the caller may then supply L manually).
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    rng = np.random.default_rng(_POWER_ITER_SEED)
    v = rng.random(n) + 0.5  # random positive start
    v /= np.linalg.norm(v)
    lam_old = None
    for _ in range(max_iter):
        w = a.T @ (a @ v)
        lam = float(v @ w)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0  # zero matrix
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
        object.__setattr__(self, "op", a)
        object.__setattr__(self, "y", y)
        if not self.lipschitz > 0.0:
            raise ValueError(f"lipschitz must be positive, got {self.lipschitz}")

    @classmethod
    def with_estimated_lipschitz(
        cls, a: np.ndarray, y: np.ndarray, tol: float = 1e-9, max_iter: int = 5000
    ) -> "LeastSquaresTerm":
        return cls(a, y, operator_norm_sq(a, tol, max_iter))

    def value(self, x: np.ndarray) -> float:
        r = self.op @ x - self.y
        return 0.5 * float(r @ r)

    def gradient(self, x: np.ndarray, with_value: bool = False):
        """A^T r with r = Ax - y; with ``with_value`` the pair (A^T r, h(x)),
        h(x) taken from the same r, so two matvecs either way."""
        r = self.op @ x - self.y
        grad = self.op.T @ r
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
