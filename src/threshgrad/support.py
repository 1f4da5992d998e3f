"""Support and extended-support analytics.

The extended support of a point x is

    esupp(x) = supp(x) ∪ { k : -grad_h(x)_k ∈ bd I_k },

the set of coordinates that are either active or about to be: at a
minimizer it coincides with the active-constraint set of the dual problem.
`build_support_report` alone reads the dual point -grad_h(xbar) and
derives esupp, the active constraints and the qualification verdict from
one boundary mask of it.
Iterate supports can escape esupp of the limit only finitely often, and the
number of such violations is at most

    ||x^0 - xbar||^2 / (rho_sol^2 * lam^2),

where rho_sol is the distance of the strictly interior dual coordinates to
their interval boundaries (+inf when there are none, in which case no
violation is possible and the bound is 0).

Index sets are 0-based, sorted lists; supp(x) = {k : x_k != 0} exactly,
with no magnitude threshold.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from .operators import write_text
from .regularizers import SeparableRegularizer, PowerPenalty
from .solver import IterateTrace, Problem

__all__ = [
    "rho",
    "identification_bound",
    "identification_audit",
    "build_support_report",
    "report_rules",
    "write_support_report",
    "write_json",
]


def _indices(mask: np.ndarray) -> list:
    return np.flatnonzero(mask).tolist()


def _boundary_mask(u: np.ndarray, g: SeparableRegularizer) -> np.ndarray:
    """Coordinates where u lies within 1e-8 * |endpoint| of a finite
    endpoint of its interval.  Solutions are only known to solver
    precision, so the test scales with the endpoint, and with no floor:
    rescaling (A, y, I) to (cA, cy, c^2 I) leaves the mask as it is."""
    near = np.zeros(len(u), dtype=bool)
    for ends in (g.lower_endpoints, g.upper_endpoints):
        near |= np.isfinite(ends) & (np.abs(u - ends) <= 1e-8 * np.abs(ends))
    return near


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


def build_support_report(
    problem: Problem, trace: IterateTrace, x_bar: np.ndarray
) -> dict:
    """Full support analysis of a run against its polished solution, as
    the JSON document `write_support_report` writes: index sets are lists,
    rho_sol = +inf is None (the bound is then 0) and the dual point is a
    list of floats.

    The only reader of the dual point u = -grad_h(x_bar).  One boundary
    mask of u (`_boundary_mask`) gives esupp = supp(x_bar) plus the
    masked coordinates, and for psi == 0 the active constraints of the
    dual box (the mask alone; None otherwise, since the dual feasible
    set is then not a box).  At a minimizer the two coincide.  The
    qualification verdict is supp == esupp, the implementable form of the
    condition for differentiable psi; it is None when a custom penalty
    carries no differentiability attestation.
    """
    g = problem.g
    x_bar = np.asarray(x_bar, dtype=float)
    u = -problem.h.gradient(x_bar)[0]
    mask = _boundary_mask(u, g)
    nonzero = x_bar != 0.0
    supp = _indices(nonzero)
    esupp = _indices(nonzero | mask)
    rho_sol = rho(u, g)
    dist0 = float(np.linalg.norm(trace.x0 - x_bar))
    bound = identification_bound(rho_sol, trace.lam, dist0)
    violations, ident_iter = identification_audit(trace, esupp)
    attested = all(
        isinstance(pen, PowerPenalty) or getattr(pen, "differentiable", False)
        for _, pen in g._groups
    )
    return {
        "supp": supp,
        "esupp": esupp,
        "rho_sol": None if math.isinf(rho_sol) else rho_sol,
        "identification_bound": bound,
        "observed_violations": violations,
        "identification_iteration": ident_iter,
        "qualification_holds": supp == esupp if attested else None,
        "active_constraints": _indices(mask) if g.all_zero_psi else None,
        "dual_point": u.tolist(),
    }


def write_json(obj, path) -> None:
    """``obj`` as indented JSON with sorted keys and a final newline, in
    one write: every JSON artifact of a run is written here."""
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_support_report(report: dict, path) -> None:
    write_json(report, path)


def _is_int(v) -> bool:
    # a JSON integer: bool is an int subclass, and true is no integer
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _is_index_set(v) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


def _or_null(test):
    return lambda v: v is None or test(v)


# what each key that the rules read must hold, as (test, description)
_REPORT_TYPES = {
    "supp": (_is_index_set, "a list of ints"),
    "esupp": (_is_index_set, "a list of ints"),
    "rho_sol": (_or_null(_is_number), "a number or null"),
    "identification_bound": (_is_number, "a number"),
    "observed_violations": (_is_int, "an int"),
    "identification_iteration": (_or_null(_is_int), "an int or null"),
    "qualification_holds": (_or_null(lambda v: isinstance(v, bool)), "a bool or null"),
    "dual_point": (lambda v: isinstance(v, list), "a list"),
}


def report_rules(rep: dict) -> list:
    """The failed rules of a support report (the document of
    `build_support_report`, or its file), as messages (none: it passes).

    Every key the rules read must be present and of its JSON type (index
    sets are lists of ints); a report that is not fails on that alone.
    The support must be identified (identification iteration >= 1), supp
    must lie in esupp with every index in range, rho_sol must be positive,
    the violations must stay within ceil(bound) (the bound is 0 when
    rho_sol is null), and a claimed qualification needs supp == esupp.
    `threshgrad run` applies these rules to the report it writes and
    `threshgrad audit` to the file.
    """
    if not isinstance(rep, dict):
        return [f"support: the report is a {type(rep).__name__}, not a JSON object"]
    malformed = [
        f"support: missing key {key!r}"
        if key not in rep
        else f"support: {key} is not {what}"
        for key, (holds, what) in _REPORT_TYPES.items()
        if key not in rep or not holds(rep[key])
    ]
    if malformed:
        return malformed
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
