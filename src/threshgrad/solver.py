"""Forward-backward (thresholding gradient) iteration with trace recording.

The iteration is

    x^{n+1} = prox_{lam*g}(x^n - lam*grad_h(x^n)),   lam in (0, 2/L),

stopped when the fixed-point residual ||x - fb_step(x)|| / lam falls below a
tolerance.  Recorded iterates are logged by their nonzeros: the
soft-thresholder produces exact zeros, so supports are exact index sets and
support identification is observable without any magnitude heuristics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .regularizers import SeparableRegularizer, g_value, prox_separable

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
    """min f = g + h with separable g and smooth h.

    ``h`` is a smooth oracle with ``value(x)``, ``gradient(x,
    with_value=False)`` and ``lipschitz``.  ``gradient`` returns the
    gradient, or with ``with_value=True`` the pair (gradient, h(x)) at the
    cost of the gradient alone; the solver records objectives from that
    pair.  A `LeastSquaresTerm` has this surface, and any other smooth
    oracle with it works too.
    """

    g: SeparableRegularizer
    h: object

    def __post_init__(self):
        hn = getattr(getattr(self.h, "op", None), "shape", (None, self.g.n))[1]
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
    """Step size, budget and recording policy for one run.

    ``lam=None`` resolves to 1/L at run start (center of the safe range with
    the classical descent constant).  ``x0=None`` starts from zero.
    """

    lam: Optional[float] = None
    max_iter: int = 100_000
    residual_tol: float = 1e-10
    record_every: int = 1
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
        if self.max_iter < 0 or self.record_every < 1 or self.residual_tol < 0:
            raise ValueError("invalid solver budget")
        return lam, x0


@dataclass(eq=False)
class IterateTrace:
    """Per-iteration record of one forward-backward run.

    Recorded iterates are logged by their nonzeros, CSR-style: row i holds
    ``values[offsets[i]:offsets[i+1]]`` at the coordinates
    ``indices[offsets[i]:offsets[i+1]]``.  Supports, support sizes and dense
    iterates are views over this log.  dists are distances to the reference
    point when one was set.
    """

    ns: np.ndarray
    objectives: np.ndarray
    residuals: np.ndarray
    offsets: np.ndarray  # int64, one more than the number of rows
    indices: np.ndarray  # int32, ascending within a row
    values: np.ndarray
    dists: Optional[np.ndarray]
    x_final: np.ndarray
    x0: np.ndarray
    lam: float
    converged: bool
    n_iterations: int
    final_residual: float
    record_every: int
    wall_time: float
    reference: Optional[np.ndarray] = None

    def support_rows(self) -> list:
        """Exact support of each recorded iterate, as a view into the log."""
        return np.split(self.indices, self.offsets[1:-1])

    @property
    def supports(self) -> list:
        """Exact support of each recorded iterate, as an index tuple."""
        return [tuple(k.tolist()) for k in self.support_rows()]

    @property
    def supp_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def iterates(self):
        """The recorded iterates, rebuilt densely one at a time."""
        for a, b in zip(self.offsets[:-1], self.offsets[1:]):
            x = np.zeros(len(self.x0))
            x[self.indices[a:b]] = self.values[a:b]
            yield x

    def distances_to(self, reference: np.ndarray) -> np.ndarray:
        """||x - reference|| for every recorded iterate x."""
        reference = np.asarray(reference, dtype=float)
        if reference.shape != self.x0.shape:
            raise ValueError("reference shape mismatch")
        return np.array([np.linalg.norm(x - reference) for x in self.iterates])

    def set_reference(self, reference: np.ndarray) -> None:
        """Record the distance of every logged iterate to ``reference``."""
        self.dists = self.distances_to(reference)
        self.reference = np.asarray(reference, dtype=float)


def _nonincreasing(values, slack: float) -> bool:
    """Whether no step along ``values`` rises by more than ``slack``."""
    return bool(np.all(np.diff(np.asarray(values, dtype=float)) <= slack))


def fb_step(problem: Problem, lam: float, x: np.ndarray, with_value: bool = False):
    """One forward-backward step prox_{lam*g}(x - lam*grad_h(x)).

    With ``with_value`` returns (step, h(x)), both from one gradient call.
    """
    out = problem.h.gradient(x, with_value=with_value)
    grad = out[0] if with_value else out
    if not np.all(np.isfinite(grad)):
        raise RuntimeError("non-finite gradient; check problem data")
    x_next = prox_separable(x - lam * grad, lam, problem.g)
    return (x_next, out[1]) if with_value else x_next


def fixed_point_residual(problem: Problem, lam: float, x: np.ndarray) -> float:
    """||x - fb_step(x)|| / lam; vanishes exactly at minimizers."""
    return float(np.linalg.norm(x - fb_step(problem, lam, x))) / lam


def run(
    problem: Problem, config: SolverConfig, reference: Optional[np.ndarray] = None
) -> IterateTrace:
    """Iterate fb_step until the fixed-point residual drops below tolerance
    or the budget is exhausted.

    Returns the first iterate whose own residual is below tolerance, so the
    residual reported for the final point is genuinely its fixed-point
    residual.  Rows are recorded every ``record_every`` iterations plus
    always the final one.  Every recorded iterate is kept in the trace's
    log; with ``reference`` the distances to it are set after the run.
    """
    lam, x = config.resolve(problem)
    x0 = x.copy()
    t0 = time.perf_counter()
    ns: list = []
    objectives: list = []
    residuals: list = []
    nonzeros: list = []
    values: list = []

    def record(n, x, hx, res):
        ns.append(n)
        objectives.append(float(hx) + g_value(x, problem.g))
        residuals.append(res)
        nz = np.flatnonzero(x)
        nonzeros.append(nz)
        values.append(x[nz])

    converged = False
    n = 0
    while True:
        x_next, hx = fb_step(problem, lam, x, with_value=True)
        if not np.all(np.isfinite(x_next)):
            raise RuntimeError(f"non-finite iterate at iteration {n}")
        res = float(np.linalg.norm(x - x_next)) / lam
        if n % config.record_every == 0:
            record(n, x, hx, res)
        if res <= config.residual_tol:
            converged = True
            break
        if n >= config.max_iter:
            break
        x = x_next
        n += 1
    if ns[-1] != n:  # always include the final iterate
        record(n, x, hx, res)

    trace = IterateTrace(
        ns=np.array(ns, dtype=np.int64),
        objectives=np.array(objectives, dtype=float),
        residuals=np.array(residuals, dtype=float),
        offsets=np.cumsum([0] + [len(nz) for nz in nonzeros], dtype=np.int64),
        indices=np.concatenate(nonzeros, dtype=np.int32),
        values=np.concatenate(values),
        dists=None,
        x_final=x.copy(),
        x0=x0,
        lam=lam,
        converged=converged,
        n_iterations=n,
        final_residual=res,
        record_every=config.record_every,
        wall_time=time.perf_counter() - t0,
    )
    if reference is not None:
        trace.set_reference(reference)
    return trace


def fejer_check(
    trace: IterateTrace, reference: np.ndarray, slack: float = FEJER_SLACK
) -> bool:
    """Whether ||x^{n+1} - ref|| <= ||x^n - ref|| + slack along the trace.

    Needs record_every = 1 (sparse recordings cannot certify monotonicity).
    A trace whose distances were set against one reference is audited
    against that reference only.
    """
    if trace.record_every != 1:
        raise ValueError("fejer_check needs a trace recorded with record_every=1")
    if trace.reference is None:
        d = trace.distances_to(reference)
    elif np.array_equal(trace.reference, reference):
        d = trace.dists
    else:
        raise ValueError("trace distances were set against a different reference")
    return _nonincreasing(d, slack)


def trace_rules(ns, gaps, residuals, dists, f_star: float) -> list:
    """The failed rules of a trace's columns, as messages (none: it passes).

    A trace must have strictly increasing iteration numbers, nonnegative
    residuals, and an objective gap that does not increase and stays above
    the optimum ``f_star`` it is measured against; with ``dists`` (None
    when no reference was set) the distances must be Fejer monotone.
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
            dists is None or _nonincreasing(dists, FEJER_SLACK),
            "distance to reference increases (not Fejer)",
        ),
    )
    return [f"trace: {message}" for ok, message in rules if not ok]


def write_trace_csv(trace: IterateTrace, path, f_star: float) -> None:
    """CSV columns (n, f_gap, residual, supp_size, dist_to_ref).

    Floats are written with shortest round-trip repr, so identical runs
    produce byte-identical files.
    """
    lines = [TRACE_HEADER]
    have_d = trace.dists is not None
    sizes = trace.supp_sizes
    for i in range(len(trace.ns)):
        d = repr(float(trace.dists[i])) if have_d else ""
        lines.append(
            f"{int(trace.ns[i])},{repr(float(trace.objectives[i] - f_star))},"
            f"{repr(float(trace.residuals[i]))},{int(sizes[i])},{d}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
