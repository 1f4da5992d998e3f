"""Support and extended-support analytics.

The extended support of a point x is

    esupp(x) = supp(x) ∪ { k : -grad_h(x)_k ∈ bd I_k },

the set of coordinates that are either active or about to be: at a
minimizer it coincides with the active-constraint set of the dual problem.
Iterate supports can escape esupp of the limit only finitely often, and the
number of such violations is at most

    ||x^0 - xbar||^2 / (rho_sol^2 * lam^2),

where rho_sol is the distance of the strictly interior dual coordinates to
their interval boundaries (+inf when there are none, in which case no
violation is possible and the bound is 0).

All index sets are 0-based sorted tuples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .regularizers import SeparableRegularizer, PowerPenalty, ZeroPenalty
from .solver import IterateTrace, Problem

__all__ = [
    "SupportReport",
    "support",
    "extended_support",
    "rho",
    "identification_bound",
    "identification_audit",
    "dual_point",
    "active_constraints",
    "qualification_check",
    "build_support_report",
    "report_to_dict",
    "report_rules",
    "write_support_report",
]


def support(x: np.ndarray) -> tuple:
    """Indices with x_k != 0, exactly (no magnitude threshold)."""
    return tuple(int(k) for k in np.flatnonzero(np.asarray(x)))


def _default_boundary_tol(g: SeparableRegularizer) -> tuple[np.ndarray, np.ndarray]:
    # solutions are only known to solver precision; scale the membership
    # test by the endpoint magnitude
    tlo = 1e-8 * np.maximum(1.0, np.abs(g.lower_endpoints))
    thi = 1e-8 * np.maximum(1.0, np.abs(g.upper_endpoints))
    return tlo, thi


def _boundary_mask(
    u: np.ndarray, g: SeparableRegularizer, tol: Optional[float]
) -> np.ndarray:
    # coordinates where u touches a finite endpoint of its interval
    los, his = g.lower_endpoints, g.upper_endpoints
    if tol is None:
        tlo, thi = _default_boundary_tol(g)
    else:
        tlo = thi = float(tol)
    near_lo = np.isfinite(los) & (np.abs(u - los) <= tlo)
    near_hi = np.isfinite(his) & (np.abs(u - his) <= thi)
    return near_lo | near_hi


def extended_support(
    x: np.ndarray,
    grad: np.ndarray,
    g: SeparableRegularizer,
    boundary_tol: Optional[float] = None,
) -> tuple:
    """supp(x) plus coordinates where -grad lies on the interval boundary.

    ``grad`` is grad_h(x), supplied by the caller.  Infinite endpoints
    contribute no boundary points.  ``boundary_tol=None`` uses the default
    1e-8 * max(1, |endpoint|) per endpoint.
    """
    x = np.asarray(x, dtype=float)
    u = -np.asarray(grad, dtype=float)
    mask = _boundary_mask(u, g, boundary_tol)
    idx = set(support(x)) | {int(k) for k in np.flatnonzero(mask)}
    return tuple(sorted(idx))


def rho(u: np.ndarray, g: SeparableRegularizer) -> float:
    """inf over strictly interior coordinates of dist(u_k, bd I_k).

    +inf when no coordinate is strictly interior (empty infimum).  Strict
    interiority is tested at tolerance zero, so the result is positive
    whenever finite.
    """
    u = np.asarray(u, dtype=float)
    los, his = g.lower_endpoints, g.upper_endpoints
    interior = (u > los) & (u < his)
    if not interior.any():
        return math.inf
    dlo = np.where(np.isfinite(los), u - los, np.inf)
    dhi = np.where(np.isfinite(his), his - u, np.inf)
    return float(np.min(np.minimum(dlo, dhi)[interior]))


def identification_bound(rho_sol: float, lam: float, dist0: float) -> float:
    """dist0^2 / (rho_sol^2 * lam^2); zero under the empty-infimum
    convention rho_sol = +inf (no violation is then possible), +inf when
    dist0 > 0 and the quotient overflows."""
    if not rho_sol > 0.0:
        raise ValueError(f"rho_sol must be positive, got {rho_sol}")
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    if dist0 < 0.0:
        raise ValueError(f"dist0 must be nonnegative, got {dist0}")
    if math.isinf(rho_sol):
        return 0.0
    try:
        return dist0 ** 2 / (rho_sol ** 2 * lam ** 2)
    except (OverflowError, ZeroDivisionError):
        # a square left float range: square the ratio instead, which
        # saturates at +inf or 0 where the quotient leaves the range
        q = dist0 / rho_sol / lam
        return q * q


def identification_audit(
    trace: IterateTrace, esupp
) -> tuple[int, Optional[int]]:
    """Count iterations n >= 1 with supp(x^n) not contained in esupp.

    Returns (violations, identification_iteration) where the identification
    iteration is the smallest N >= 1 from which all recorded supports stay
    inside esupp (None if the last recorded iterate still violates).
    Counting starts at n = 1: the initial point is arbitrary.
    """
    if trace.record_every != 1:
        raise ValueError("identification audit needs record_every=1")
    # one pass over the logged nonzeros: a row escapes when any of its
    # indices lies outside esupp
    outside = ~np.isin(trace.indices, np.asarray(esupp, dtype=np.int64))
    row_of = np.repeat(np.arange(len(trace.ns)), np.diff(trace.offsets))
    escaped = np.bincount(row_of[outside], minlength=len(trace.ns)) > 0
    violating = trace.ns[escaped & (trace.ns >= 1)]
    if not len(violating):
        return 0, 1
    last_violation = int(violating[-1])
    if last_violation == int(trace.ns[-1]):
        return len(violating), None
    return len(violating), last_violation + 1


def dual_point(problem: Problem, x: np.ndarray) -> np.ndarray:
    """-grad_h(x); approximates the unique dual solution when x is a
    (near-)minimizer."""
    return -np.asarray(problem.h.gradient(x), dtype=float)


def active_constraints(
    u: np.ndarray, g: SeparableRegularizer, tol: Optional[float] = None
) -> tuple:
    """Coordinates where u touches a finite interval endpoint.

    For psi identically zero this is the active-constraint set of the dual
    problem, and at u = -grad_h(xbar) it equals esupp(xbar); raises for
    nonzero psi, where the dual feasible set is not a box.
    """
    if not g.all_zero_psi:
        raise ValueError("active constraints are defined for psi == 0 only")
    u = np.asarray(u, dtype=float)
    mask = _boundary_mask(u, g, tol)
    return tuple(int(k) for k in np.flatnonzero(mask))


def qualification_check(
    x_bar: np.ndarray,
    grad: np.ndarray,
    g: SeparableRegularizer,
    tol: Optional[float] = None,
) -> bool:
    """supp(xbar) == esupp(xbar): the implementable form of the
    qualification condition for differentiable psi.

    Raises for custom penalties without a differentiability attestation;
    the equivalence is only known to hold in the differentiable case.
    """
    for k, pen in enumerate(g.penalties):
        if not isinstance(pen, (ZeroPenalty, PowerPenalty)) and not getattr(
            pen, "differentiable", False
        ):
            raise ValueError(
                f"penalty {k} has no differentiability attestation; "
                "the support equality test does not apply"
            )
    return support(x_bar) == extended_support(x_bar, grad, g, tol)


@dataclass(eq=False)
class SupportReport:
    supp: tuple
    esupp: tuple
    rho_sol: float
    identification_bound: float
    observed_violations: int
    identification_iteration: Optional[int]
    qualification_holds: Optional[bool]
    active_constraints: Optional[tuple]
    dual_point: np.ndarray


def build_support_report(
    problem: Problem,
    trace: IterateTrace,
    x_bar: np.ndarray,
    boundary_tol: Optional[float] = None,
) -> SupportReport:
    """Full support analysis of a run against its polished solution."""
    g = problem.g
    grad = np.asarray(problem.h.gradient(x_bar), dtype=float)
    u = -grad
    supp = support(x_bar)
    esupp = extended_support(x_bar, grad, g, boundary_tol)
    rho_sol = rho(u, g)
    dist0 = float(np.linalg.norm(trace.x0 - x_bar))
    bound = identification_bound(rho_sol, trace.lam, dist0)
    violations, ident_iter = identification_audit(trace, esupp)
    try:
        qual = qualification_check(x_bar, grad, g, boundary_tol)
    except ValueError:
        qual = None  # custom psi without attestation
    active = active_constraints(u, g, boundary_tol) if g.all_zero_psi else None
    return SupportReport(
        supp=supp,
        esupp=esupp,
        rho_sol=rho_sol,
        identification_bound=bound,
        observed_violations=violations,
        identification_iteration=ident_iter,
        qualification_holds=qual,
        active_constraints=active,
        dual_point=u,
    )


def report_to_dict(report: SupportReport) -> dict:
    """JSON-ready dict; rho_sol = +inf serializes as null (bound is 0)."""
    return {
        "supp": list(report.supp),
        "esupp": list(report.esupp),
        "rho_sol": None if math.isinf(report.rho_sol) else report.rho_sol,
        "identification_bound": report.identification_bound,
        "observed_violations": report.observed_violations,
        "identification_iteration": report.identification_iteration,
        "qualification_holds": report.qualification_holds,
        "active_constraints": (
            None
            if report.active_constraints is None
            else list(report.active_constraints)
        ),
        "dual_point": [float(v) for v in report.dual_point],
    }


def write_support_report(report: SupportReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_rules(rep: dict) -> list:
    """The failed rules of a support report in its JSON form (see
    `report_to_dict`), as messages (none: it passes).

    The support must be identified (identification iteration >= 1), supp
    must lie in esupp with every index in range, rho_sol must be positive,
    the violations must stay within ceil(bound) (the bound is 0 when
    rho_sol is null), and a claimed qualification needs supp == esupp.
    `threshgrad run` applies these rules to the report it writes and
    `threshgrad audit` to the file.  Raises KeyError for a missing key.
    """
    supp, esupp = set(rep["supp"]), set(rep["esupp"])
    rho_sol, bound = rep["rho_sol"], rep["identification_bound"]
    ident, n = rep["identification_iteration"], len(rep["dual_point"])
    rules = (
        (
            ident is not None and ident >= 1,
            "not identified (identification_iteration null or < 1)",
        ),
        (supp <= esupp, "supp not contained in esupp"),
        (all(0 <= k < n for k in supp | esupp), "index out of range"),
        (rho_sol is None or rho_sol > 0, "rho_sol must be positive when finite"),
        (bound >= 0, "negative identification bound"),
        (rho_sol is not None or bound == 0, "bound must be 0 when rho_sol is null"),
        # violations <= ceil(bound), written so that an infinite bound holds
        (
            rho_sol is None or rep["observed_violations"] - 1 < bound,
            "observed violations exceed the bound",
        ),
        (
            rep["qualification_holds"] is not True or supp == esupp,
            "qualification claimed but supp != esupp",
        ),
    )
    return [f"support: {message}" for ok, message in rules if not ok]
