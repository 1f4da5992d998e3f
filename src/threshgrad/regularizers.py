"""Separable regularizers built from closed intervals and scalar smooth penalties.

A regularizer is a sum g(x) = sum_k g_k(x_k) with g_k = psi_k + sigma_{I_k},
where sigma_{I_k} is the support function of a proper closed interval I_k
containing [-omega, omega] and psi_k is a convex scalar penalty with
psi_k(0) = 0 and psi_k'(0) = 0.  The proximal operator of g factors through
the soft-thresholder of the interval followed by the prox of the penalty:

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
    "soft_interval",
    "project_interval",
    "prox_power_scalar",
    "prox_separable",
    "g_value",
]

# absolute tolerance of the scalar prox solves
_PROX_TOL = 1e-13
_PROX_MAX_ITER = 200


@dataclass(frozen=True)
class Interval:
    """A proper closed interval [lo, hi] with lo <= 0 <= hi.

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
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if not (lo <= 0.0 <= hi):
            raise ValueError(f"interval [{lo}, {hi}] must contain 0")
        if not lo < hi:
            raise ValueError(f"interval [{lo}, {hi}] is not proper")
        if math.isinf(lo) and math.isinf(hi):
            raise ValueError("doubly infinite interval is not supported")


@dataclass(frozen=True)
class ZeroPenalty:
    """psi identically zero."""


@dataclass(frozen=True)
class PowerPenalty:
    """psi(t) = weight * |t|**p / p with p > 1, weight >= 0."""

    p: float
    weight: float = 1.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"power penalty needs p > 1, got {self.p}")
        if not self.weight >= 0.0:
            raise ValueError(f"power penalty needs weight >= 0, got {self.weight}")


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


def _penalty_group_key(pen: ScalarPenalty):
    if isinstance(pen, PowerPenalty):
        if pen.weight == 0.0:
            return ("zero",)
        return ("power", pen.p, pen.weight)
    if isinstance(pen, ZeroPenalty):
        return ("zero",)
    return ("custom", id(pen))


@dataclass(frozen=True, eq=False)
class SeparableRegularizer:
    """Per-coordinate (interval, penalty) pairs with a global margin omega.

    Every interval must contain [-omega, omega] for the stored omega > 0.
    """

    intervals: tuple[Interval, ...]
    penalties: tuple[ScalarPenalty, ...]
    omega: float

    _los: np.ndarray = field(init=False, repr=False)
    _his: np.ndarray = field(init=False, repr=False)
    _groups: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.intervals) == 0:
            raise ValueError("regularizer needs at least one coordinate")
        if len(self.intervals) != len(self.penalties):
            raise ValueError("intervals and penalties must have equal length")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        for k, iv in enumerate(self.intervals):
            if iv.lo > -self.omega or iv.hi < self.omega:
                raise ValueError(
                    f"interval {k} = [{iv.lo}, {iv.hi}] does not contain "
                    f"[-{self.omega}, {self.omega}]"
                )
        object.__setattr__(
            self, "_los", np.array([iv.lo for iv in self.intervals], dtype=float)
        )
        object.__setattr__(
            self, "_his", np.array([iv.hi for iv in self.intervals], dtype=float)
        )
        groups: dict = {}
        for k, pen in enumerate(self.penalties):
            groups.setdefault(_penalty_group_key(pen), []).append(k)
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
    def lower_endpoints(self) -> np.ndarray:
        return self._los

    @property
    def upper_endpoints(self) -> np.ndarray:
        return self._his

    @property
    def all_zero_psi(self) -> bool:
        return all(
            _penalty_group_key(p) == ("zero",) for p in self.penalties
        )

    @classmethod
    def uniform(
        cls,
        n: int,
        interval: Interval = Interval(-1.0, 1.0),
        penalty: ScalarPenalty = ZeroPenalty(),
        omega: float | None = None,
    ) -> "SeparableRegularizer":
        if omega is None:
            omega = min(-interval.lo, interval.hi)
        return cls((interval,) * n, (penalty,) * n, float(omega))


# ---------------------------------------------------------------------------
# scalar interval operations


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


# ---------------------------------------------------------------------------
# prox of the power penalty


def prox_power_scalar(t: float, lam: float, p: float, weight: float = 1.0) -> float:
    """Unique minimizer of weight*lam*|s|**p / p + (s - t)**2 / 2.

    Closed forms for p in {2, 3}; safeguarded Newton-bisection on the
    monotone residual s + lam*weight*s**(p-1) - |t| over [0, |t|] otherwise,
    absolute tolerance 1e-13.  The result has the sign of t and
    |result| <= |t|.
    """
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    if not p > 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    if not math.isfinite(t):
        raise ValueError(f"non-finite prox input {t}")
    c = lam * weight
    if t == 0.0 or c == 0.0:
        return float(t)
    a = abs(t)
    sgn = 1.0 if t > 0.0 else -1.0
    if p == 2.0:
        return sgn * (a / (1.0 + c))
    if p == 3.0:
        # c*s^2 + s - a = 0, stable root
        return sgn * (2.0 * a / (1.0 + math.sqrt(1.0 + 4.0 * c * a)))
    return sgn * _newton_power_root(a, c, p)


def _pow_or_inf(s: float, e: float) -> float:
    # s**e for s > 0; subnormal s with e < 0 (or huge s with e > 1) can
    # leave float range, where the solve only needs "astronomically large"
    try:
        return s ** e
    except OverflowError:
        return math.inf


def _newton_power_root(a: float, c: float, p: float) -> float:
    # root of r(s) = s + c*s**(p-1) - a on [0, a]; r(0) = -a < 0, r(a) >= 0.
    # For p < 2 the derivative blows up at 0, so the bracket never collapses
    # onto 0 from the Newton side; bisection guards every step.
    lo, hi = 0.0, a
    s = a
    for _ in range(_PROX_MAX_ITER):
        r = s + c * _pow_or_inf(s, p - 1.0) - a
        if r >= 0.0:
            hi = min(hi, s)
        else:
            lo = max(lo, s)
        d = 1.0 + c * (p - 1.0) * _pow_or_inf(s, p - 2.0) if s > 0.0 else math.inf
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
    """Vectorized prox of c*|s|**p / p at unit step: solves coordinatewise
    s + c*sign(s)|s|**(p-1) = u.

    Closed forms for the explicitly solvable orders p in {4/3, 3/2, 2, 3, 4}
    (quadratics and monotone cubics, one Newton polish step); a safeguarded
    vectorized Newton-bisection handles any other p > 1.
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
    return sgn * _newton_power_root_vec(a, c, p)


def _polish_power_root(s, a, c, p):
    # one Newton step tightens the closed forms to machine precision
    pos = s > 0.0
    sp = np.where(pos, s, 1.0)
    r = s + c * sp ** (p - 1.0) * pos - a
    d = 1.0 + c * (p - 1.0) * sp ** (p - 2.0)
    out = np.where(pos, s - r / d, s)
    # guard against a polish step overshooting the [0, a] range
    return np.clip(out, 0.0, a)


def _newton_power_root_vec(a: np.ndarray, c: float, p: float) -> np.ndarray:
    lo = np.zeros_like(a)
    hi = a.astype(float, copy=True)
    s = a.astype(float, copy=True)
    converged = a == 0.0
    for _ in range(_PROX_MAX_ITER):
        if np.all(converged):
            break
        sp = np.where(s > 0.0, s, 1.0)
        # powers may leave float range (subnormal sp, p < 2); inf and the
        # nan from inf/inf both land in `bad` and fall back to bisection
        with np.errstate(over="ignore", invalid="ignore"):
            r = s + c * sp ** (p - 1.0) * (s > 0.0) - a
            hi = np.where(r >= 0.0, np.minimum(hi, s), hi)
            lo = np.where(r < 0.0, np.maximum(lo, s), lo)
            d = 1.0 + c * (p - 1.0) * sp ** (p - 2.0)
            s_new = s - r / d
        bad = ~np.isfinite(s_new) | (s_new <= lo) | (s_new >= hi)
        s_new = np.where(bad, 0.5 * (lo + hi), s_new)
        converged = converged | (np.abs(s_new - s) <= _PROX_TOL) | (
            hi - lo <= _PROX_TOL
        )
        s = np.where(converged, s, s_new)
    else:
        worst = int(np.argmax(~converged))
        raise RuntimeError(
            f"vector power prox did not converge at coordinate {worst} "
            f"(a={a[worst]}, c={c}, p={p})"
        )
    return s


# ---------------------------------------------------------------------------
# composed operations


def prox_separable(x: np.ndarray, lam: float, g: SeparableRegularizer) -> np.ndarray:
    """prox_{lam*g}(x), coordinatewise prox_{lam*psi_k}(soft_{lam*I_k}(x_k)).

    Produces exact zeros whenever x_k lies in lam*I_k.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"expected shape ({g.n},), got {x.shape}")
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    llo = lam * g._los
    lhi = lam * g._his
    u = np.where(x < llo, x - llo, np.where(x > lhi, x - lhi, 0.0))
    out = np.empty_like(u)
    for idx, pen in g._groups:
        if isinstance(pen, PowerPenalty) and pen.weight > 0.0:
            try:
                out[idx] = _prox_power_vec(u[idx], lam * pen.weight, pen.p)
            except RuntimeError as e:
                raise RuntimeError(
                    f"prox failed on coordinates {idx.tolist()}: {e}"
                ) from e
        elif isinstance(pen, CustomPenalty):
            for k in idx:
                out[k] = pen.prox(float(u[k]), lam)
        else:
            out[idx] = u[idx]
    return out


def _power_value(pen: PowerPenalty, t: np.ndarray) -> np.ndarray:
    return pen.weight * np.abs(t) ** pen.p / pen.p


def g_value(x: np.ndarray, g: SeparableRegularizer) -> float:
    """g(x) = sum_k sigma_{I_k}(x_k) + psi_k(x_k); +inf propagates."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"expected shape ({g.n},), got {x.shape}")
    total = 0.0
    # sigma part via masks so 0 * inf never arises
    pos = x > 0.0
    neg = x < 0.0
    total += float(np.sum(x[pos] * g._his[pos])) if pos.any() else 0.0
    total += float(np.sum(x[neg] * g._los[neg])) if neg.any() else 0.0
    for idx, pen in g._groups:
        if isinstance(pen, PowerPenalty) and pen.weight > 0.0:
            total += float(np.sum(_power_value(pen, x[idx])))
        elif isinstance(pen, CustomPenalty):
            for k in idx:
                total += float(pen.value(float(x[k])))
    return total
