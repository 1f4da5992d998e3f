"""Forward-backward (thresholding gradient) iteration with trace recording.

The iteration is

    x^{n+1} = prox_{lam*g}(x^n - lam*grad_h(x^n)),   lam in (0, 2/L),

stopped when the fixed-point residual ||x - fb_step(x)|| / lam falls below a
tolerance.  Every iterate is logged by its nonzeros: the
soft-thresholder produces exact zeros, so supports are exact index sets and
support identification is observable without any magnitude heuristics.

The loop keeps only what the step produces: h(x), which `fb_step` returns
with the gradient, the residual and the nonzero log.  The recorded
objective of each iterate is that h(x) plus g(x), read off the log by
`g_rows` once after the run, bit for bit the value `g_value` gives.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .operators import LeastSquaresTerm, write_text
from .regularizers import SeparableRegularizer, g_rows, g_value, prox_separable
from .regularizers import log_block_rows, log_blocks

__all__ = [
    "Problem",
    "SolverConfig",
    "IterateTrace",
    "fb_step",
    "run",
    "fixed_point_residual",
    "fejer_check",
    "trace_rules",
    "write_trace_csv",
    "read_trace_csv",
]

# Pass/fail tolerances of the trace rules.  The descent slack and the gap
# floor are relative to max(1, |f*|): an objective gap is a difference of
# objective values of that size and is known only to a few ulp of it.
DESCENT_SLACK = 1e-12
GAP_FLOOR = 1e-9
# absolute: distances do not scale with f*
FEJER_SLACK = 1e-10

TRACE_HEADER = "n,f_gap,residual,supp_size,dist_to_ref"

@dataclass(frozen=True, eq=False)
class Problem:
    """min f = g + h with separable g and h(x) = ||Ax - y||^2 / 2.

    ``h`` is a `LeastSquaresTerm`: its matrix ``op`` must have one column
    per coordinate of ``g``.  The solver records objectives from the h(x)
    that ``h.gradient`` returns with the gradient, at the cost of the
    gradient alone; `polish` solves on the columns of ``op`` directly.
    """

    g: SeparableRegularizer
    h: LeastSquaresTerm

    def __post_init__(self):
        hn = self.h.op.shape[1]
        if hn != self.g.n:
            raise ValueError(
                f"dimension mismatch: regularizer has {self.g.n} coordinates, "
                f"smooth term expects {hn}"
            )

    @property
    def n(self) -> int:
        return self.g.n

    def objective(self, x: np.ndarray) -> float:
        return float(self.h.value(x)) + g_value(x, self.g)


@dataclass
class SolverConfig:
    """Step size, budget and starting point for one run.

    ``lam=None`` resolves to 1/L at run start (center of the safe range with
    the classical descent constant).  ``x0=None`` starts from zero.
    """

    lam: Optional[float] = None
    max_iter: int = 100_000
    residual_tol: float = 1e-10
    x0: Optional[np.ndarray] = None

    def resolve(self, problem: Problem) -> tuple[float, np.ndarray]:
        L = float(problem.h.lipschitz)
        lam = 1.0 / L if self.lam is None else float(self.lam)
        if not 0.0 < lam < 2.0 / L:
            raise ValueError(
                f"step lam={lam} outside the admissible range (0, {2.0 / L}) "
                f"for L={L}"
            )
        x0 = np.zeros(problem.n) if self.x0 is None else np.asarray(self.x0, float)
        if x0.shape != (problem.n,):
            raise ValueError(f"x0 must have shape ({problem.n},), got {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")
        # a NaN tolerance would never stop the run
        if not 0.0 <= self.residual_tol < math.inf:
            raise ValueError(
                f"residual_tol must be finite and >= 0, got {self.residual_tol}"
            )
        return lam, x0


@dataclass(eq=False)
class IterateTrace:
    """Per-iteration record of one forward-backward run.

    Row i is iterate x^i, for i = 0..n_iterations.  Iterates are logged by
    their nonzeros, CSR-style: row i holds ``values[offsets[i]:offsets[i+1]]``
    at the coordinates ``indices[offsets[i]:offsets[i+1]]``.  Support sizes
    and support changes are read off this log, and `distances_to` measures
    it against a point.  ``objectives[i]`` is f(x^i): the h(x^i) of the step
    from x^i plus g(x^i) read off the log.  ``residuals[-1]`` is the
    fixed-point residual of ``x_final``.
    """

    ns: np.ndarray
    objectives: np.ndarray
    residuals: np.ndarray
    offsets: np.ndarray  # int64, one more than the number of rows
    indices: np.ndarray  # int32, ascending within a row
    values: np.ndarray
    x_final: np.ndarray
    x0: np.ndarray
    lam: float
    converged: bool
    n_iterations: int
    wall_time: float

    @property
    def supp_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def support_changes(self) -> int:
        """The number of rows whose support differs from the previous row's,
        read off the log: rows of different sizes differ, and rows of one
        size are compared entry by entry."""
        sizes = self.supp_sizes
        changed = sizes[:-1] != sizes[1:]
        # the entries of the rows followed by a row of their size, each
        # with the distance to its position in that row
        step = np.repeat(np.where(changed, 0, sizes[:-1]), sizes[:-1])
        at = np.flatnonzero(step)
        moved = at[self.indices[at] != self.indices[at + step[at]]]
        changed[np.searchsorted(self.offsets, moved, side="right") - 1] = True
        return int(np.count_nonzero(changed))

    def distances_to(self, reference: np.ndarray) -> np.ndarray:
        """||x - reference|| for every recorded iterate x, over the dense
        blocks of `log_blocks`.  numpy hands each row's 1 x n @ n x 1 product
        to the BLAS dot of `np.linalg.norm`, so each is bitwise that norm."""
        reference = np.asarray(reference, dtype=float)
        if reference.shape != self.x0.shape:
            raise ValueError("reference shape mismatch")
        dists = np.empty(len(self.offsets) - 1)
        for span, _, _, _, block in log_blocks(
            self.offsets, self.indices, self.values, len(reference)
        ):
            block -= reference
            dists[span] = np.sqrt((block[:, None, :] @ block[:, :, None]).ravel())
        return dists


def _nonincreasing(values, slack: float) -> bool:
    """Whether no step along ``values`` rises by more than ``slack``."""
    return bool(np.all(np.diff(np.asarray(values, dtype=float)) <= slack))


def fb_step(problem: Problem, lam: float, x: np.ndarray) -> tuple[np.ndarray, float]:
    """One forward-backward step: the pair (prox_{lam*g}(x - lam*grad_h(x)),
    h(x)), both from one gradient call.

    Raises RuntimeError, before the prox, when the gradient has an inf or
    NaN entry.  One BLAS dot decides almost every step: squares cannot
    cancel, so an inf or NaN entry makes v.dot(v) inf or NaN, and a finite
    v.dot(v) proves every entry finite.  Only a dot that is not finite
    (a non-finite entry, or finite entries whose squares overflow, above
    about 1.3e154) falls back to the exact entrywise test.  numpy warns of
    that overflow, as it does of the residual's dot in `run`."""
    v, hx = problem.h.gradient(x)
    if not math.isfinite(v.dot(v)) and np.count_nonzero(np.isfinite(v)) != v.size:
        raise RuntimeError("non-finite gradient; check problem data")
    # the forward point in the gradient's buffer: -(lam*grad) + x is
    # bitwise x - lam*grad, signed zeros included
    v *= -lam
    v += x
    return prox_separable(v, lam, problem.g), hx


def fixed_point_residual(problem: Problem, lam: float, x: np.ndarray) -> float:
    """||x - fb_step(x)|| / lam; vanishes exactly at minimizers."""
    return float(np.linalg.norm(x - fb_step(problem, lam, x)[0])) / lam


def _block_log(block: np.ndarray) -> tuple:
    """(sizes, indices, values) of the rows of a dense block of iterates:
    row by row, bitwise each row's np.flatnonzero and its values there
    (-0.0 counts as zero).  The block is C-contiguous, so one pass over
    its flat view finds the nonzeros in row order and gathers them."""
    flat = block.ravel()
    at = flat.nonzero()[0]
    rows, cols = np.divmod(at, block.shape[1])
    return (
        np.bincount(rows, minlength=len(block)),
        cols.astype(np.int32),
        flat[at],
    )


def run(problem: Problem, config: SolverConfig) -> IterateTrace:
    """Iterate fb_step until the fixed-point residual drops below tolerance
    or the budget is exhausted.

    Returns the first iterate whose own residual is below tolerance, so the
    residual reported for the final point is genuinely its fixed-point
    residual.  Every iterate is recorded in the trace's log, by way of a
    dense block of `log_block_rows` rows that is read off in one flat pass
    when full; its objective is the h(x) that `fb_step` returns
    plus g(x), which `g_rows` reads off the log after the loop, and
    `IterateTrace.distances_to` measures it against a point afterwards.
    """
    lam, x = config.resolve(problem)
    x0 = x.copy()
    tol, max_iter = config.residual_tol, config.max_iter
    t0 = time.perf_counter()
    h_values: list = []
    residuals: list = []
    logged: list = []
    block = np.empty((log_block_rows(problem.n), problem.n))
    rows = len(block)
    d = np.empty(problem.n)

    converged = False
    n = i = 0
    # bound once: the loop body is a handful of small-array calls
    subtract, dot, sqrt, isfinite = np.subtract, d.dot, math.sqrt, math.isfinite
    add_h, add_res = h_values.append, residuals.append
    while True:
        x_next, hx = fb_step(problem, lam, x)
        subtract(x, x_next, out=d)
        # bitwise np.linalg.norm(d) / lam; x is finite, so a finite res
        # means a finite x_next
        res = sqrt(dot(d)) / lam
        if not isfinite(res) and not np.isfinite(x_next).all():
            raise RuntimeError(f"non-finite iterate at iteration {n}")
        add_h(hx)
        add_res(res)
        block[i] = x
        i += 1
        if i == rows:
            logged.append(_block_log(block))
            i = 0
        if res <= tol:
            converged = True
            break
        if n >= max_iter:
            break
        x = x_next
        n += 1

    if i:
        logged.append(_block_log(block[:i]))
    # free the block and the per-block arrays once the log holds them, so
    # that a long run never holds both with the g_rows temporaries
    del block
    sizes, indices, values = (np.concatenate(parts) for parts in zip(*logged))
    del logged
    offsets = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return IterateTrace(
        ns=np.arange(n + 1, dtype=np.int64),
        objectives=np.array(h_values, dtype=float)
        + g_rows(offsets, indices, values, problem.g),
        residuals=np.array(residuals, dtype=float),
        offsets=offsets,
        indices=indices,
        values=values,
        x_final=x.copy(),
        x0=x0,
        lam=lam,
        converged=converged,
        n_iterations=n,
        wall_time=time.perf_counter() - t0,
    )


def fejer_check(trace: IterateTrace, reference: np.ndarray) -> bool:
    """Whether ||x^{n+1} - ref|| <= ||x^n - ref|| + FEJER_SLACK along the
    trace, with the distances taken from the iterate log."""
    return _nonincreasing(trace.distances_to(reference), FEJER_SLACK)


def trace_rules(ns, gaps, residuals, dists, f_star: float) -> list:
    """The failed rules of a trace's columns, as messages (none: it passes).

    A trace must have strictly increasing iteration numbers, nonnegative
    residuals, and an objective gap that does not increase and stays above
    the optimum ``f_star`` it is measured against, and distances ``dists``
    to the point that attains it that are Fejer monotone.
    `threshgrad run` applies these rules to the trace it writes and
    `threshgrad audit` to the file.
    """
    scale = max(1.0, abs(f_star))
    rules = (
        (np.all(np.diff(ns) > 0), "iteration numbers not strictly increasing"),
        (
            _nonincreasing(gaps, DESCENT_SLACK * scale),
            "objective gap increases (descent violated)",
        ),
        (
            np.all(np.asarray(gaps) >= -GAP_FLOOR * scale),
            "objective gap goes below the reference optimum",
        ),
        (np.all(np.asarray(residuals) >= 0.0), "negative residual"),
        (
            _nonincreasing(dists, FEJER_SLACK),
            "distance to reference increases (not Fejer)",
        ),
    )
    return [f"trace: {message}" for ok, message in rules if not ok]


def write_trace_csv(trace: IterateTrace, path, gaps, dists) -> None:
    """CSV columns (n, f_gap, residual, supp_size, dist_to_ref): the gaps
    ``gaps`` to the optimum and the distances ``dists`` to the point that
    attains it.

    Floats are written with shortest round-trip repr, so identical runs
    produce byte-identical files.  Raises ValueError unless there is one
    gap and one distance per trace row.
    """
    gaps, dists = np.asarray(gaps, dtype=float), np.asarray(dists, dtype=float)
    if not gaps.shape == dists.shape == trace.ns.shape:
        raise ValueError(
            f"expected {len(trace.ns)} gaps and distances, one per trace row, "
            f"got {gaps.size} and {dists.size}"
        )
    cols = (trace.ns, gaps, trace.residuals, trace.supp_sizes, dists)
    lines = [TRACE_HEADER] + [
        f"{n},{gap!r},{res!r},{size},{d!r}"
        for n, gap, res, size, d in zip(*(col.tolist() for col in cols))
    ]
    write_text(path, "\n".join(lines) + "\n")


def read_trace_csv(path) -> tuple:
    """Columns (ns, gaps, residuals, dists) of a trace CSV.  Raises
    ValueError naming a format defect, a blank distance included."""
    head, *lines = Path(path).read_text().strip().split("\n")
    if head != TRACE_HEADER:
        raise ValueError(f"bad header {head!r}")
    if not lines:
        raise ValueError("no rows")
    rows = []
    for ln, line in enumerate(lines, start=2):
        try:
            n, gap, res, size, dist = line.split(",")
            int(size)
            rows.append((int(n), float(gap), float(res), float(dist)))
        except ValueError:
            raise ValueError(f"line {ln}: expected 5 numbers, got {line!r}")
    return tuple(zip(*rows))
