"""Independent reference implementations that tests compare the package
against: the interval soft-thresholder and projection in scalar form,
the per-coordinate soft-thresholder in nested-branch form, the
forward-backward step formed out of place, the least-squares oracle
spelled with the matmul operator, the scalar Newton power root with its
overflow helper and the closed-form polish clamped by np.clip, a
brute-force scalar minimizer (dense grid plus golden-section refinement),
dense iterates, supports, support changes and per-row distances from a
trace's iterate log, g summed over one dense point, and a per-point prox
gallery.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from threshgrad.regularizers import (
    CustomPenalty,
    Interval,
    PowerPenalty,
    SeparableRegularizer,
    ZeroPenalty,
    _prox_power_vec,
    prox_power_scalar,
    prox_separable,
)

_GRID_POINTS = 10_000


def soft_interval(t, interval: Interval):
    """Soft-thresholder of the interval: prox of its support function.

    Maps the closed interval to exactly 0 and shifts outside points by the
    nearest endpoint.  Accepts a scalar or an ndarray.
    """
    lo, hi = interval.lo, interval.hi
    if isinstance(t, np.ndarray):
        return np.where(t < lo, t - lo, np.where(t > hi, t - hi, 0.0))
    t = float(t)
    if t < lo:
        return t - lo
    if t > hi:
        return t - hi
    return 0.0


def soft_where(x: np.ndarray, lam: float, g: SeparableRegularizer) -> np.ndarray:
    """The soft-thresholder of lam*I_k on every coordinate as nested
    `np.where` branches: x - lam*lo below, x - lam*hi above, 0.0 between.
    The reference for the clamp form in `prox_separable` under psi = 0."""
    llo, lhi = lam * g.lower_endpoints, lam * g.upper_endpoints
    return np.where(x < llo, x - llo, np.where(x > lhi, x - lhi, 0.0))


def fb_step_reference(problem, lam: float, x: np.ndarray) -> tuple:
    """The pair (prox_{lam*g}(x - lam*grad_h(x)), h(x)) with every
    temporary formed afresh: r = Ax - y, x - lam*A^T r, its clamp to
    lam*I_k from newly formed lam*endpoints, then each penalty group's
    prox.  The reference for `solver.fb_step`."""
    a, g = problem.h.op, problem.g
    r = a @ x - problem.h.y
    v = x - lam * (a.T @ r)
    u = v - np.minimum(
        np.maximum(v, lam * g.lower_endpoints), lam * g.upper_endpoints
    )
    for idx, pen in g._groups:
        if isinstance(pen, PowerPenalty):
            u[idx] = _prox_power_vec(u[idx], lam * pen.weight, pen.p)
        else:
            for k in idx:
                u[k] = pen.prox(float(u[k]), lam)
    return u, 0.5 * float(r @ r)


def gradient_matmul(op, y, x) -> tuple:
    """(A^T r, h(x)) with r = Ax - y, the products spelled with the matmul
    operator: the reference for `LeastSquaresTerm.gradient`."""
    r = op @ x
    r -= y
    return op.T @ r, 0.5 * float(r.dot(r))


def value_matmul(op, y, x) -> float:
    """h(x) = ||Ax - y||^2 / 2 with Ax spelled with the matmul operator:
    the reference for `LeastSquaresTerm.value`."""
    r = op @ x - y
    return 0.5 * float(r.dot(r))


def pow_or_inf(s: float, e: float) -> float:
    """s**e, or +inf where it leaves float range."""
    try:
        return s ** e
    except OverflowError:
        return math.inf


def newton_power_root(a: float, c: float, p: float) -> float:
    """Root of s + c*s**(p-1) = a on [0, a] by safeguarded Newton-bisection,
    each power through `pow_or_inf`: the reference for
    `regularizers._newton_power_root`."""
    lo, hi = 0.0, a
    s = a
    for _ in range(200):
        r = s + c * pow_or_inf(s, p - 1.0) - a
        if r >= 0.0:
            hi = min(hi, s)
        else:
            lo = max(lo, s)
        d = 1.0 + c * (p - 1.0) * pow_or_inf(s, p - 2.0) if s > 0.0 else math.inf
        step = r / d if math.isfinite(d) else 0.0
        s_new = s - step
        if not (lo < s_new < hi):
            s_new = 0.5 * (lo + hi)
        if abs(s_new - s) <= 1e-13 or (hi - lo) <= 1e-13:
            return s_new
        s = s_new
    raise RuntimeError(
        f"power prox solve did not converge (a={a}, c={c}, p={p}); "
        "check inputs for overflow"
    )


def polish_power_root_clip(s, a, c, p):
    """One Newton step on a closed-form power root, clamped to [0, a] by
    np.clip: the reference for `regularizers._polish_power_root`."""
    pos = s > 0.0
    sp = np.where(pos, s, 1.0)
    r = s + c * sp ** (p - 1.0) * pos - a
    d = 1.0 + c * (p - 1.0) * sp ** (p - 2.0)
    return np.clip(np.where(pos, s - r / d, s), 0.0, a)


def project_interval(t, interval: Interval):
    """Projection onto the interval (clamp).  Accepts a scalar or an ndarray.

    Complements `soft_interval`: soft_I(t) + proj_I(t) = t (Moreau identity
    at unit scale; the two branches are complementary clamps).
    """
    lo, hi = interval.lo, interval.hi
    if isinstance(t, np.ndarray):
        return np.where(t < lo, lo, np.where(t > hi, hi, t))
    t = float(t)
    if t < lo:
        return lo
    if t > hi:
        return hi
    return t


def brute_force_scalar_min(
    fun: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> tuple[float, float]:
    """Global scan of a scalar function: dense grid then golden-section
    refinement of the best bracket.

    Intended as an independent oracle for prox and growth computations, so
    it avoids any structure assumptions beyond rough unimodality near the
    grid minimum.  Worst case returns the best grid point.
    """
    lo, hi, tol = float(lo), float(hi), float(tol)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    ts = np.linspace(lo, hi, _GRID_POINTS)
    try:
        vals = np.asarray(fun(ts), dtype=float)
        if vals.shape != ts.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(fun(t)) for t in ts])
    i = int(np.argmin(vals))
    best_x, best_f = float(ts[i]), float(vals[i])

    a = float(ts[max(i - 1, 0)])
    b = float(ts[min(i + 1, len(ts) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = float(fun(c)), float(fun(d))
    for _ in range(200):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float(fun(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float(fun(d))
        x, f = (c, fc) if fc <= fd else (d, fd)
        if f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


def iterates(trace):
    """The recorded iterates of ``trace``, rebuilt densely one at a time
    from its CSR iterate log."""
    for a, b in zip(trace.offsets[:-1], trace.offsets[1:]):
        x = np.zeros(len(trace.x0))
        x[trace.indices[a:b]] = trace.values[a:b]
        yield x


def support_rows(trace) -> list:
    """The support of every iterate of ``trace``, as views into its log."""
    return np.split(trace.indices, trace.offsets[1:-1])


def support_changes_by_row(trace) -> int:
    """The number of rows of ``trace`` whose support differs from the
    previous row's, one pair of rows at a time: the reference for
    `IterateTrace.support_changes`."""
    rows = support_rows(trace)
    return sum(not np.array_equal(a, b) for a, b in zip(rows, rows[1:]))


def distances_by_row(trace, reference) -> np.ndarray:
    """||x - reference|| for every iterate of ``trace``, one dense row and
    one `np.linalg.norm` at a time: the reference for
    `IterateTrace.distances_to`."""
    return np.array([np.linalg.norm(x - reference) for x in iterates(trace)])


def g_dense(x, g) -> float:
    """g(x) summed over the dense point ``x`` with np.sum, in the order that
    `g_rows` fixes: 0.0, the interval part of the positive entries, that of
    the negative entries, then each penalty group, a custom group one
    coordinate at a time."""
    total = 0.0
    pos, neg = x > 0.0, x < 0.0
    total += float(np.sum(x[pos] * g.upper_endpoints[pos])) if pos.any() else 0.0
    total += float(np.sum(x[neg] * g.lower_endpoints[neg])) if neg.any() else 0.0
    for idx, pen in g._groups:
        if isinstance(pen, PowerPenalty) and pen.weight > 0.0:
            total += float(np.sum(pen.weight * np.abs(x[idx]) ** pen.p / pen.p))
        elif isinstance(pen, CustomPenalty):
            for k in idx:
                total += float(pen.value(float(x[k])))
    return total


def gallery_csv_by_point(spec) -> str:
    """The CSV text of `emit_prox_gallery` for a `GallerySpec`, one grid
    point at a time: a one-element `prox_separable`, then for a boxed power
    penalty `prox_power_scalar`, then a min/max clamp to the box."""
    pen = spec.penalty
    boxed_power = spec.box is not None and isinstance(pen, PowerPenalty)
    g = SeparableRegularizer.uniform(
        1, spec.interval, ZeroPenalty() if boxed_power else pen
    )
    lines = ["t,prox"]
    for t in np.linspace(spec.lo, spec.hi, spec.steps):
        v = prox_separable(np.array([float(t)]), spec.lam, g)[0]
        if boxed_power:
            v = prox_power_scalar(float(v), spec.lam, pen.p, pen.weight)
        if spec.box is not None:
            v = min(max(v, spec.box[0]), spec.box[1])
        lines.append(f"{repr(float(t))},{repr(float(v))}")
    return "\n".join(lines) + "\n"
