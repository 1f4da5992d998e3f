"""Separable regularizers built from closed intervals and scalar smooth penalties.

A regularizer is a sum g(x) = sum_k g_k(x_k) with g_k = psi_k + sigma_{I_k},
where sigma_{I_k} is the support function of a closed interval
I_k = [lo_k, hi_k] with lo_k < 0 < hi_k, and psi_k is a convex scalar
penalty with psi_k(0) = 0 and psi_k'(0) = 0.  The proximal operator of g
factors through the soft-thresholder of the interval followed by the prox
of the penalty:

    prox_{lam*g}(x)_k = prox_{lam*psi_k}( soft_{lam*I_k}(x_k) )

which is what makes forward-backward on these problems a thresholding
gradient method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "Interval",
    "ZeroPenalty",
    "PowerPenalty",
    "CustomPenalty",
    "ScalarPenalty",
    "SeparableRegularizer",
    "prox_power_root",
    "prox_separable",
    "g_rows",
    "g_value",
    "log_blocks",
    "log_block_rows",
]

# absolute tolerance of the scalar prox solves
_PROX_TOL = 1e-13
_PROX_MAX_ITER = 200


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] with lo < 0 < hi: 0 is interior, with
    margin min(-lo, hi) > 0.

    Endpoints may be infinite on one side.  A doubly infinite interval is
    rejected: its support function degenerates to the indicator of {0} and
    the thresholder collapses to the zero map.
    """

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not lo < 0.0 < hi:  # also false for NaN
            raise ValueError(f"interval [{lo}, {hi}] must have lo < 0 < hi")
        if math.isinf(lo) and math.isinf(hi):
            raise ValueError("doubly infinite interval is not supported")


@dataclass(frozen=True)
class ZeroPenalty:
    """psi identically zero."""


@dataclass(frozen=True)
class PowerPenalty:
    """psi(t) = weight * |t|**p / p with finite p > 1 and finite weight >= 0."""

    p: float
    weight: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise ValueError(f"power penalty needs finite p > 1, got {self.p}")
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise ValueError(
                f"power penalty needs finite weight >= 0, got {self.weight}"
            )


@dataclass(frozen=True)
class CustomPenalty:
    """User-supplied penalty given by a value oracle and a prox oracle.

    ``prox(t, lam)`` must return the exact minimizer of
    lam*psi(s) + (s-t)**2/2.  No numeric differentiation of ``value`` is ever
    attempted beyond the construction-time sanity check that psi(0) = 0 and
    both one-sided slopes at 0 vanish.  Set ``differentiable=True`` only if
    psi is differentiable on its domain; qualification checks rely on it.
    """

    value: Callable[[float], float]
    prox: Callable[[float, float], float]
    differentiable: bool = False

    def __post_init__(self):
        v0 = float(self.value(0.0))
        if not abs(v0) <= 1e-12:
            raise ValueError(f"custom penalty must satisfy psi(0) = 0, got {v0}")
        h = 1e-6
        for side in (h, -h):
            vs = float(self.value(side))
            if not math.isfinite(vs) or abs(vs / side) > 1e-3:
                raise ValueError(
                    "custom penalty must be finite near 0 with psi'(0) = 0"
                )


ScalarPenalty = Union[ZeroPenalty, PowerPenalty, CustomPenalty]


@dataclass(frozen=True, eq=False)
class SeparableRegularizer:
    """Per-coordinate (interval, penalty) pairs.  ``_groups`` holds one
    (coordinates, penalty) pair per nonzero penalty in order of first use,
    power penalties grouped by value and custom ones by identity; psi_k = 0
    (`ZeroPenalty()` or weight 0) exactly when k is in no group."""

    intervals: tuple[Interval, ...]
    penalties: tuple[ScalarPenalty, ...]

    lower_endpoints: np.ndarray = field(init=False, repr=False)
    upper_endpoints: np.ndarray = field(init=False, repr=False)
    _groups: tuple = field(init=False, repr=False)
    # (lam, lam * lower_endpoints, lam * upper_endpoints) of the last lam
    # `prox_separable` saw, swapped whole so that concurrent runs at other
    # steps never read a mixed pair
    _scaled_endpoints: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.intervals) == 0:
            raise ValueError("regularizer needs at least one coordinate")
        if len(self.intervals) != len(self.penalties):
            raise ValueError("intervals and penalties must have equal length")
        los = np.array([iv.lo for iv in self.intervals], dtype=float)
        his = np.array([iv.hi for iv in self.intervals], dtype=float)
        # read-only, so the scaled copies cannot go stale
        los.flags.writeable = his.flags.writeable = False
        object.__setattr__(self, "lower_endpoints", los)
        object.__setattr__(self, "upper_endpoints", his)
        object.__setattr__(self, "_scaled_endpoints", (None, None, None))
        groups: dict = {}
        for k, pen in enumerate(self.penalties):
            if isinstance(pen, PowerPenalty):
                if pen.weight > 0.0:
                    groups.setdefault(pen, []).append(k)
            elif not isinstance(pen, ZeroPenalty):
                groups.setdefault(id(pen), []).append(k)
        object.__setattr__(
            self,
            "_groups",
            tuple(
                (np.array(idx, dtype=np.intp), self.penalties[idx[0]])
                for idx in groups.values()
            ),
        )

    @property
    def n(self) -> int:
        return len(self.intervals)

    @property
    def all_zero_psi(self) -> bool:
        return not self._groups

    @classmethod
    def uniform(
        cls,
        n: int,
        interval: Interval = Interval(-1.0, 1.0),
        penalty: ScalarPenalty = ZeroPenalty(),
    ) -> "SeparableRegularizer":
        return cls((interval,) * n, (penalty,) * n)


# ---------------------------------------------------------------------------
# prox of the power penalty


def prox_power_root(u: np.ndarray, c: float, p: float) -> np.ndarray:
    """Prox of c*|s|**p / p at unit step on an array, at any order p > 1:
    the root of s + c*s**(p-1) = |u_k| on [0, |u_k|] by `_newton_power_root`
    (safeguarded Newton-bisection, absolute tolerance 1e-13) on each
    nonzero coordinate, with the sign of u_k.  Zeros stay 0, and c == 0
    returns a copy of u.
    """
    if c == 0.0:
        return u.astype(float, copy=True)
    # as Python floats, a product out of float range is inf, not a warning
    c, p = float(c), float(p)
    a = np.abs(u)
    nz = np.flatnonzero(a)
    s = np.zeros_like(a)
    s[nz] = [_newton_power_root(ak, c, p) for ak in a[nz].tolist()]
    return np.sign(u) * s


def _newton_power_root(a: float, c: float, p: float) -> float:
    # root of r(s) = s + c*s**(p-1) - a on [0, a]; r(0) = -a < 0, r(a) >= 0.
    # For p < 2 the derivative blows up at 0, so the bracket never collapses
    # onto 0 from the Newton side; bisection guards every step.
    lo, hi = 0.0, a
    s = a
    # c * (p - 1) * t multiplies left to right, so cp1 * t is the same float
    p1, p2 = p - 1.0, p - 2.0
    cp1 = c * p1
    for _ in range(_PROX_MAX_ITER):
        # a power that leaves float range (subnormal s with p < 2, huge s)
        # only needs to be "astronomically large": it reads +inf
        try:
            r = s + c * s**p1 - a
        except OverflowError:
            r = s + c * math.inf - a
        if r >= 0.0:
            hi = min(hi, s)
        else:
            lo = max(lo, s)
        d = math.inf
        if s > 0.0:
            try:
                d = 1.0 + cp1 * s**p2
            except OverflowError:
                pass
        step = r / d if math.isfinite(d) else 0.0
        s_new = s - step
        if not (lo < s_new < hi):
            s_new = 0.5 * (lo + hi)
        if abs(s_new - s) <= _PROX_TOL or (hi - lo) <= _PROX_TOL:
            return s_new
        s = s_new
    raise RuntimeError(
        f"power prox solve did not converge (a={a}, c={c}, p={p}); "
        "check inputs for overflow"
    )


def _cubic_root_nonneg(beta, q):
    # unique real root of x**3 + beta*x = q with beta > 0, q >= 0, via the
    # hyperbolic-sine representation (monotone cubic, no branch issues)
    arg = 1.5 * math.sqrt(3.0) * q * beta ** (-1.5)
    return 2.0 * np.sqrt(beta / 3.0) * np.sinh(np.arcsinh(arg) / 3.0)


def _prox_power_vec(u: np.ndarray, c: float, p: float) -> np.ndarray:
    """Prox of c*|s|**p / p at unit step on an array: solves coordinatewise
    s + c*sign(s)|s|**(p-1) = u.

    Closed forms for the explicitly solvable orders p in {4/3, 3/2, 2, 3, 4}
    (quadratics and monotone cubics, one Newton polish step); any other
    p > 1 is `prox_power_root`.
    """
    if c == 0.0:
        return u.astype(float, copy=True)
    a = np.abs(u)
    sgn = np.sign(u)
    if p == 2.0:
        return u / (1.0 + c)
    if p == 3.0:
        s = 2.0 * a / (1.0 + np.sqrt(1.0 + 4.0 * c * a))
        return sgn * s
    if p == 1.5:
        # z = sqrt(s) solves z**2 + c*z = a; form avoids cancellation for c >> a
        z = 2.0 * a / (c + np.sqrt(c * c + 4.0 * a))
        s = z * z
        return sgn * _polish_power_root(s, a, c, p)
    if p == 4.0:
        # c*s**3 + s = a
        s = _cubic_root_nonneg(1.0 / c, a / c)
        return sgn * _polish_power_root(s, a, c, p)
    if p == 4.0 / 3.0:
        if c < 1e-100:
            return u.astype(float, copy=True)  # penalty below resolution
        # z = s**(1/3) solves z**3 + c*z = a
        z = _cubic_root_nonneg(c, a)
        s = z ** 3
        return sgn * _polish_power_root(s, a, c, p)
    return prox_power_root(u, c, p)


def _polish_power_root(s, a, c, p):
    # one Newton step tightens the closed forms to machine precision
    pos = s > 0.0
    sp = np.where(pos, s, 1.0)
    r = s + c * sp ** (p - 1.0) * pos - a
    d = 1.0 + c * (p - 1.0) * sp ** (p - 2.0)
    out = np.where(pos, s - r / d, s)
    # guard against a polish step overshooting the [0, a] range; the
    # min/max pair is np.clip(out, 0.0, a) at half its dispatch cost, and
    # bitwise it on every out the closed forms give (none is -0.0)
    np.maximum(out, 0.0, out=out)
    return np.minimum(out, a, out=out)


# ---------------------------------------------------------------------------
# composed operations


def prox_separable(x: np.ndarray, lam: float, g: SeparableRegularizer) -> np.ndarray:
    """prox_{lam*g}(x), coordinatewise prox_{lam*psi_k}(soft_{lam*I_k}(x_k)).

    Produces exact zeros whenever x_k lies in lam*I_k.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != g.lower_endpoints.shape:
        raise ValueError(f"expected shape ({g.n},), got {x.shape}")
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    scaled = g._scaled_endpoints
    if scaled[0] != lam:
        scaled = (lam, lam * g.lower_endpoints, lam * g.upper_endpoints)
        object.__setattr__(g, "_scaled_endpoints", scaled)
    _, llo, lhi = scaled
    # x minus its clamp to lam*I_k (NaN for an infinite x_k at an infinite
    # endpoint); the disjoint penalty groups then overwrite theirs in place
    u = np.maximum(x, llo)
    np.minimum(u, lhi, out=u)
    np.subtract(x, u, out=u)
    for idx, pen in g._groups:
        if isinstance(pen, PowerPenalty):
            try:
                u[idx] = _prox_power_vec(u[idx], lam * pen.weight, pen.p)
            except RuntimeError as e:
                raise RuntimeError(
                    f"prox failed on coordinates {idx.tolist()}: {e}"
                ) from e
        else:
            for k in idx:
                u[k] = pen.prox(float(u[k]), lam)
    return u


def _power_value(pen: PowerPenalty, t: np.ndarray) -> np.ndarray:
    return pen.weight * np.abs(t) ** pen.p / pen.p


def _row_sums(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each row of ``terms``, packed row after row with ``counts[r]``
    entries in row r; each is bitwise np.sum of that row's entries.

    Rows of one length are summed together as a C-contiguous matrix, whose
    axis-1 sum is numpy's pairwise sum of each row.  (np.add.reduceat sums
    sequentially, and an F-ordered matrix sums its rows sequentially too.)
    """
    out = np.zeros(len(counts))
    starts = np.cumsum(counts) - counts
    # the rows in order of length, so that the rows of one length are one
    # slice of that order
    order = np.argsort(counts, kind="stable")
    lengths = counts[order]
    bounds = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), len(order)]
    cols = np.arange(lengths[-1])
    for a, b in zip(bounds, bounds[1:]):
        if lengths[a]:
            r = order[a:b]
            out[r] = terms[starts[r, None] + cols[: lengths[a]]].sum(axis=1)
    return out


def log_block_rows(n: int) -> int:
    """Rows of n entries in a dense block of the iterate log: about 2**18
    entries, and at least one row."""
    return max(1, 2**18 // n)


def log_blocks(offsets, indices, values, n: int, dense: bool = True):
    """A CSR-style log, whose row i holds ``values[offsets[i]:offsets[i+1]]``
    at the ascending coordinates ``indices[offsets[i]:offsets[i+1]]`` and
    zeros elsewhere, in runs of `log_block_rows` rows: yields
    (span, rows, cols, v, block) for the rows ``span``, their entries' row
    within the run, coordinate and value, and the dense rows (None unless
    ``dense``), so that temporaries do not grow with the log."""
    sizes = np.diff(offsets)
    step = log_block_rows(n)
    for i in range(0, len(sizes), step):
        k = min(step, len(sizes) - i)
        a, b = offsets[i], offsets[i + k]
        rows = np.repeat(np.arange(k), sizes[i : i + k])
        cols, v = indices[a:b], values[a:b]
        block = None
        if dense:
            block = np.zeros((k, n))
            block[rows, cols] = v
        yield slice(i, i + k), rows, cols, v, block


def g_rows(
    offsets: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    g: SeparableRegularizer,
) -> np.ndarray:
    """g(x) = sum_k sigma_{I_k}(x_k) + psi_k(x_k) of every row x of a
    CSR-style log (see `log_blocks`).  +inf propagates.

    Each row's value is summed in one fixed order: 0.0, the interval part
    of the positive entries, that of the negative entries, then each
    penalty group in turn; a group of custom penalties adds its values one
    coordinate at a time.  The interval part reads only the nonzeros, the
    penalty groups the dense rows, built only when there is a group.
    """
    n = g.n
    out = np.empty(len(offsets) - 1)
    for span, rows, cols, v, block in log_blocks(
        offsets, indices, values, n, dense=bool(g._groups)
    ):
        k = span.stop - span.start
        total = np.zeros(k)
        # sigma part by sign so 0 * inf never arises; each row's positive
        # and negative entries are summed as two rows of one `_row_sums`, and
        # gathered by index, several times faster than by a mask here
        pos, neg = (v > 0.0).nonzero()[0], (v < 0.0).nonzero()[0]
        sides = _row_sums(
            np.concatenate(
                (v[pos] * g.upper_endpoints[cols[pos]], v[neg] * g.lower_endpoints[cols[neg]])
            ),
            np.concatenate(
                (np.bincount(rows[pos], minlength=k), np.bincount(rows[neg], minlength=k))
            ),
        )
        total += sides[:k]
        total += sides[k:]
        for idx, pen in g._groups:
            if isinstance(pen, PowerPenalty):
                # a column selection comes out F-ordered; its rows must be
                # contiguous to be summed pairwise
                t = block if len(idx) == n else np.ascontiguousarray(block[:, idx])
                total += _power_value(pen, t).sum(axis=1)
            else:
                for r in range(k):
                    acc = float(total[r])
                    for t in block[r, idx].tolist():
                        acc += float(pen.value(t))
                    total[r] = acc
        out[span] = total
    return out


def g_value(x: np.ndarray, g: SeparableRegularizer) -> float:
    """g(x), the one-row case of `g_rows`."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"expected shape ({g.n},), got {x.shape}")
    nz = np.flatnonzero(x)
    return float(g_rows(np.array([0, len(nz)]), nz, x[nz], g)[0])
