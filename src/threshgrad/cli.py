"""Experiment runner for the `threshgrad` console script.

Subcommands:
    run <config.ini>      solve, polish, audit, emit artifacts
    gallery <spec.ini>    tabulate a scalar prox curve as CSV
    gen <m> <n> <seed>    write a seeded synthetic instance to CSV files
    audit <trace.csv> <support.json>   recheck emitted artifacts

Config files are INI; the full schema is documented in the README and in
`parse_experiment_config`.  Setting THRESHGRAD_MAX_THREADS caps the BLAS
thread pools, which is why this module and the package __init__ import
numpy only inside functions: the cap must land before numpy loads.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "GallerySpec",
    "parse_experiment_config",
    "parse_gallery_spec",
    "generate_synthetic",
    "run_experiment",
    "emit_prox_gallery",
    "main",
]

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _cap_threads() -> None:
    raw = os.environ.get("THRESHGRAD_MAX_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
    except ValueError:
        print(
            f"ignoring THRESHGRAD_MAX_THREADS={raw!r}: not a positive integer",
            file=sys.stderr,
        )
        return
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(cap)


class ConfigError(Exception):
    """Configuration problem, annotated with file and section context."""

    def __init__(self, origin: str, where: str, message: str):
        super().__init__(f"{origin}: [{where}] {message}")


# ---------------------------------------------------------------------------
# experiment config


@dataclass
class ExperimentConfig:
    """Parsed experiment description; the INI schema is `_EXPERIMENT_KEYS`
    (documented in the README).

    Exactly one problem source is active.  ``penalty`` is a parsed spec
    tuple: ("none",) or ("power", p, weight).
    """

    # [problem]
    source: str = "builtin"
    builtin_name: Optional[str] = None
    matrix_path: Optional[str] = None
    y_path: Optional[str] = None
    lipschitz: Optional[float] = None  # None = estimate from the operator
    m: Optional[int] = None
    n: Optional[int] = None
    seed: Optional[int] = None
    scale: float = 1.0
    # [regularizer]
    omega: Optional[float] = None
    interval: Optional[tuple[float, float]] = None
    interval_overrides: dict = field(default_factory=dict)
    penalty: tuple = ("none",)
    # [solver]
    lam: Optional[float] = None  # None = 1/L
    max_iter: int = 100_000
    residual_tol: float = 1e-10
    record_every: int = 1
    x0: str = "zeros"  # zeros | ones | file:<path>
    # [analysis]
    support_audit: bool = True
    rate_fit: bool = True
    fejer: bool = True
    gamma: bool = False
    gamma_delta: float = 0.5
    gamma_r: float = 0.5
    gamma_p: float = 2.0
    gamma_samples: int = 10_000
    gamma_seed: int = 0
    window_fraction: float = 0.5
    polish_tol: float = 1e-12
    # [output]
    outdir: str = "."
    prefix: str = "run"

    def to_ini(self) -> str:
        """INI text that parses back to this config (the summary echo)."""
        sections: dict = {}
        for row in _EXPERIMENT_KEYS:
            lines = sections.setdefault(row.section, [f"[{row.section}]"])
            if row.source not in (None, self.source):
                continue
            value = getattr(self, row.field)
            if row.key.endswith("_<k>"):
                for k in sorted(value):
                    lines.append(f"{row.key[:-3]}{k} = {row.codec.fmt(value[k])}")
                continue
            text = row.codec.none if value is None else row.codec.fmt(value)
            if text is not None:
                lines.append(f"{row.key} = {text}")
        return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"


# ---------------------------------------------------------------------------
# INI schema: one row per key


@dataclass(frozen=True)
class _Codec:
    """How one INI value is read and written.

    ``parse`` returns the value, or raises ValueError when the text lies
    outside the domain that ``accepted`` names.  ``fmt`` writes a value back
    as text that parses to it.  ``none`` is the text of a None value; when
    it is None, a None value leaves the key out.
    """

    parse: Callable[[str], object]
    accepted: str
    fmt: Callable[[object], str] = str
    none: Optional[str] = None


@dataclass(frozen=True)
class _Key:
    """One INI key: its section, the dataclass field it sets, its codec.

    ``source`` limits a [problem] key to one problem source.  A key ending
    in ``_<k>`` stands for the indexed keys ``key_0``, ``key_1``, ... that
    fill a dict field by index.
    """

    section: str
    key: str
    field: str
    codec: _Codec
    required: bool = False
    source: Optional[str] = None


def _checked(kind, accepted: str, ok, fmt=str) -> _Codec:
    """Codec of ``kind(text)`` restricted to the values where ``ok`` holds."""

    def parse(text):
        v = kind(text)
        if not ok(v):
            raise ValueError(text)
        return v

    return _Codec(parse, accepted, fmt)


def _real(accepted: str, ok=lambda v: True) -> _Codec:
    return _checked(float, accepted, lambda v: math.isfinite(v) and ok(v), repr)


def _integer(lo: int) -> _Codec:
    return _checked(int, f"an integer >= {lo}", lambda v: v >= lo)


def _choice(*names: str) -> _Codec:
    return _checked(str, "one of " + ", ".join(names), lambda v: v in names)


def _auto(codec: _Codec) -> _Codec:
    return replace(codec, accepted=f"auto or {codec.accepted}", none="auto")


def _parse_bool(text):
    if text.lower() in ("true", "yes", "on", "1"):
        return True
    if text.lower() in ("false", "no", "off", "0"):
        return False
    raise ValueError(text)


def _parse_interval(text):
    lo, hi = map(float, text.split())
    if not (lo <= 0.0 <= hi and lo < hi and (math.isfinite(lo) or math.isfinite(hi))):
        raise ValueError(text)
    return lo, hi


def _parse_penalty(text):
    toks = text.split()
    if toks == ["none"]:
        return ("none",)
    if toks[:1] != ["power"] or len(toks) not in (2, 3):
        raise ValueError(text)
    p, w = float(toks[1]), float(toks[2]) if len(toks) == 3 else 1.0
    if not (math.isfinite(p) and p > 1.0 and math.isfinite(w) and w >= 0.0):
        raise ValueError(text)
    return ("power", p, w)


def _parse_gallery_penalty(text):
    """The experiment grammar plus a trailing 'box a b' (domain
    constraint): none | power p [w] | power p w box a b | box a b."""
    toks = text.split()
    if "box" not in toks:
        return _parse_penalty(text)
    i = toks.index("box")
    a, b = map(float, toks[i + 1:])
    if not a < b:
        raise ValueError(text)
    inner = _parse_penalty(" ".join(toks[:i]) or "none")
    return ("box", a, b) if inner == ("none",) else ("power_box", *inner[1:], a, b)


def _existing(path: str) -> str:
    if not Path(path).exists():
        raise FileNotFoundError(path)
    return path


def _parse_x0(text):
    if text.startswith("file:"):
        _existing(text[len("file:"):])
    elif text not in ("zeros", "ones"):
        raise ValueError(text)
    return text


_FINITE = _real("a finite number")
_POSITIVE = _real("a finite number > 0", lambda v: v > 0.0)
_NONNEGATIVE = _real("a finite number >= 0", lambda v: v >= 0.0)
_BOOL = _Codec(_parse_bool, "true or false", lambda v: "true" if v else "false")
_TEXT = _Codec(str, "text")
_FILE = _Codec(_existing, "an existing file")
_INTERVAL = _Codec(
    _parse_interval,
    "two numbers lo < hi with lo <= 0 <= hi, at most one of them infinite",
    lambda v: f"{v[0]!r} {v[1]!r}",
)
_POWER = "power p [weight] with finite p > 1 and weight >= 0 (default 1)"
_PENALTY = _Codec(
    _parse_penalty, f"none or {_POWER}", lambda v: " ".join(str(t) for t in v)
)
_GALLERY_PENALTY = _Codec(
    _parse_gallery_penalty, f"none, {_POWER}, optionally followed by box a b, a < b"
)
_SOURCE = _choice("builtin", "files", "synthetic")
_BUILTIN = _choice("ex_cq", "ex_nocq")
_X0 = _Codec(_parse_x0, "zeros, ones or file:<path>")
_GAMMA_P = _real("a finite number > 1", lambda v: v > 1.0)
_FRACTION = _real("a number in (0, 1]", lambda v: 0.0 < v <= 1.0)

_EXPERIMENT_KEYS = (
    _Key("problem", "source", "source", _SOURCE, required=True),
    _Key("problem", "name", "builtin_name", _BUILTIN, required=True, source="builtin"),
    _Key("problem", "matrix", "matrix_path", _FILE, required=True, source="files"),
    _Key("problem", "y", "y_path", _FILE, required=True, source="files"),
    _Key("problem", "lipschitz", "lipschitz", _auto(_POSITIVE), source="files"),
    _Key("problem", "m", "m", _integer(1), required=True, source="synthetic"),
    _Key("problem", "n", "n", _integer(1), required=True, source="synthetic"),
    _Key("problem", "seed", "seed", _integer(0), required=True, source="synthetic"),
    _Key("problem", "scale", "scale", _POSITIVE, source="synthetic"),
    _Key("regularizer", "omega", "omega", _POSITIVE),
    _Key("regularizer", "interval", "interval", _INTERVAL),
    _Key("regularizer", "interval_<k>", "interval_overrides", _INTERVAL),
    _Key("regularizer", "penalty", "penalty", _PENALTY),
    _Key("solver", "lambda", "lam", _auto(_POSITIVE)),
    _Key("solver", "max_iter", "max_iter", _integer(0)),
    _Key("solver", "residual_tol", "residual_tol", _NONNEGATIVE),
    _Key("solver", "record_every", "record_every", _integer(1)),
    _Key("solver", "x0", "x0", _X0),
    _Key("analysis", "support_audit", "support_audit", _BOOL),
    _Key("analysis", "rate_fit", "rate_fit", _BOOL),
    _Key("analysis", "fejer", "fejer", _BOOL),
    _Key("analysis", "gamma", "gamma", _BOOL),
    _Key("analysis", "gamma_delta", "gamma_delta", _POSITIVE),
    _Key("analysis", "gamma_r", "gamma_r", _POSITIVE),
    _Key("analysis", "gamma_p", "gamma_p", _GAMMA_P),
    _Key("analysis", "gamma_samples", "gamma_samples", _integer(1)),
    _Key("analysis", "gamma_seed", "gamma_seed", _integer(0)),
    _Key("analysis", "window_fraction", "window_fraction", _FRACTION),
    _Key("analysis", "polish_tol", "polish_tol", _NONNEGATIVE),
    _Key("output", "dir", "outdir", _TEXT),
    _Key("output", "prefix", "prefix", _TEXT),
)

_GALLERY_KEYS = (
    _Key("grid", "lo", "lo", _FINITE, required=True),
    _Key("grid", "hi", "hi", _FINITE, required=True),
    _Key("grid", "steps", "steps", _integer(2), required=True),
    _Key("grid", "lam", "lam", _POSITIVE),
    _Key("regularizer", "interval", "interval", _INTERVAL),
    _Key("regularizer", "penalty", "penalty", _GALLERY_PENALTY),
    _Key("output", "path", "out_path", _TEXT, required=True),
)


def _decode(row: _Key, key: str, text: str, origin: str):
    if text == row.codec.none:
        return None
    try:
        return row.codec.parse(text)
    except FileNotFoundError as exc:
        raise ConfigError(origin, row.section, f"{key}: file not found: {exc}")
    except ValueError:
        raise ConfigError(
            origin, row.section, f"{key} must be {row.codec.accepted}, got {text!r}"
        )


def _read_ini(path, table) -> dict:
    """Values by field of the keys in an INI file, checked against ``table``.

    Unknown sections and keys are errors, and so is a missing required key:
    a typo silently falling back to a default would invalidate the run it
    configures.
    """
    origin = str(path)
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(origin, "-", f"cannot read: {exc}")
    except configparser.Error as exc:
        raise ConfigError(origin, "-", f"INI syntax: {exc}")

    rows = {(row.section, row.key): row for row in table}
    values: dict = {}
    for sec in cp.sections():
        if not any(row.section == sec for row in table):
            raise ConfigError(origin, sec, "unknown section")
        for key, text in cp[sec].items():
            stem, _, index = key.rpartition("_")
            row = rows.get((sec, key)) or rows.get((sec, f"{stem}_<k>"))
            if row is None:
                raise ConfigError(origin, sec, f"unknown key {key!r}")
            if row.key == key:
                values[row.field] = _decode(row, key, text, origin)
            elif index.isdecimal():
                by_index = values.setdefault(row.field, {})
                by_index[int(index)] = _decode(row, key, text, origin)
            else:
                raise ConfigError(origin, sec, f"bad key {key!r}")

    source = values.get("source")
    for row in table:
        applies = row.source in (None, source)
        if row.field in values and not applies:
            message = f"key {row.key!r} is not valid for source {source!r}"
            raise ConfigError(origin, row.section, message)
        if row.required and applies and row.field not in values:
            if not cp.has_section(row.section):
                raise ConfigError(origin, row.section, "section is required")
            where = f" for source {source}" if row.source else ""
            raise ConfigError(origin, row.section, f"{row.key} is required{where}")
    return values


def parse_experiment_config(path) -> ExperimentConfig:
    """Parse and validate an experiment INI file."""
    cfg = ExperimentConfig(**_read_ini(path, _EXPERIMENT_KEYS))
    origin = str(path)
    if cfg.omega is not None and cfg.interval is not None:
        raise ConfigError(origin, "regularizer", "give omega or interval, not both")
    if (cfg.support_audit or cfg.fejer) and cfg.record_every != 1:
        raise ConfigError(
            origin,
            "analysis",
            "support_audit and fejer need record_every = 1 "
            "(sparse traces cannot certify per-iteration claims)",
        )
    return cfg


# ---------------------------------------------------------------------------
# problem construction


def _builtin_smooth(name: str):
    from .operators import LeastSquaresTerm

    if name == "ex_nocq":
        # scalar (x-1)^2/2; with g = |.| the minimizer is 0 and the dual
        # point sits exactly on the interval boundary
        return LeastSquaresTerm([[1.0]], [1.0], lipschitz=1.0)
    if name == "ex_cq":
        # (x1 - x2 - 1)^2 written as least squares; argmin of f is the
        # segment between (0.5, 0) and (0, -0.5)
        s = math.sqrt(2.0)
        return LeastSquaresTerm([[s, -s]], [s], lipschitz=4.0)
    raise ValueError(f"unknown builtin problem {name!r}")


def _penalty_object(spec: tuple):
    from .regularizers import PowerPenalty, ZeroPenalty

    if spec[0] == "none":
        return ZeroPenalty()
    if spec[0] == "power":
        return PowerPenalty(p=spec[1], weight=spec[2])
    raise ValueError(f"unknown penalty spec {spec!r}")


def _build_regularizer(cfg: ExperimentConfig, n: int):
    from .regularizers import Interval, SeparableRegularizer

    if cfg.interval is not None:
        lo, hi = cfg.interval
    elif cfg.omega is not None:
        lo, hi = -cfg.omega, cfg.omega
    else:
        lo, hi = -1.0, 1.0
    base = Interval(lo, hi)
    intervals = [base] * n
    for k, (olo, ohi) in cfg.interval_overrides.items():
        if not 0 <= k < n:
            raise ValueError(f"interval override index {k} out of range for n={n}")
        intervals[k] = Interval(olo, ohi)
    penalty = _penalty_object(cfg.penalty)
    omega = min(min(-iv.lo, iv.hi) for iv in intervals)
    return SeparableRegularizer(tuple(intervals), (penalty,) * n, omega)


def _synthetic_data(m: int, n: int, seed: int, scale: float):
    """Seeded Gaussian instance: A scaled to ||A||^2 = scale exactly (via
    SVD), sparse x_true with ceil(n/10) entries of magnitude 10..20, y =
    A x_true + 0.1 * noise.  Draw order is part of the determinism
    contract; changing it changes every seeded artifact."""
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    top = np.linalg.svd(a, compute_uv=False)[0]
    if top == 0.0:
        raise ValueError("degenerate draw: zero matrix")
    a *= math.sqrt(scale) / top
    k = math.ceil(n / 10)
    idx = rng.choice(n, size=k, replace=False)
    signs = rng.choice([-1.0, 1.0], size=k)
    mags = rng.uniform(10.0, 20.0, size=k)
    x_true = np.zeros(n)
    x_true[idx] = signs * mags
    y = a @ x_true + 0.1 * rng.standard_normal(m)
    return a, y, x_true


def generate_synthetic(m: int, n: int, seed: int, scale: float = 1.0, penalty=None):
    """Seeded random least-squares Problem with intervals [-1, 1].

    The scaling uses the exact largest singular value, so the Lipschitz
    constant is `scale` itself, not an estimate.
    """
    from .operators import LeastSquaresTerm
    from .regularizers import SeparableRegularizer, ZeroPenalty
    from .solver import Problem

    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    a, y, _ = _synthetic_data(m, n, seed, scale)
    h = LeastSquaresTerm(a, y, lipschitz=scale)
    g = SeparableRegularizer.uniform(n, penalty=penalty or ZeroPenalty())
    return Problem(g=g, h=h)


def _build_problem(cfg: ExperimentConfig):
    from .operators import LeastSquaresTerm
    from .solver import Problem

    if cfg.source == "builtin":
        h = _builtin_smooth(cfg.builtin_name)
    elif cfg.source == "files":
        from .operators import read_dense_matrix, read_vector

        a = read_dense_matrix(cfg.matrix_path)
        y = read_vector(cfg.y_path)
        if cfg.lipschitz is None:
            h = LeastSquaresTerm.with_estimated_lipschitz(a, y)
        else:
            h = LeastSquaresTerm(a, y, lipschitz=cfg.lipschitz)
    else:
        a, y, _ = _synthetic_data(cfg.m, cfg.n, cfg.seed, cfg.scale)
        h = LeastSquaresTerm(a, y, lipschitz=cfg.scale)
    n = h.op.shape[1]
    return Problem(g=_build_regularizer(cfg, n), h=h)


def _resolve_x0(cfg: ExperimentConfig, n: int):
    import numpy as np

    if cfg.x0 == "zeros":
        return np.zeros(n)
    if cfg.x0 == "ones":
        return np.ones(n)
    from .operators import read_vector

    return read_vector(cfg.x0[5:])


# ---------------------------------------------------------------------------
# experiment driver


def _json_dump(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _verdict(problems: list, warnings: list) -> str:
    warnings += problems
    return "fail" if problems else "pass"


def run_experiment(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Solve, polish, run the enabled audits, write artifacts.

    Returns (exit_code, summary).  Exit code 0 means the solver converged
    and every enabled audit passed; audits that were skipped for a stated
    reason (e.g. growth estimation on a non-unique minimizer) do not fail
    the run.
    """
    import numpy as np

    from . import conditioning, solver, support

    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        kind: outdir / f"{cfg.prefix}_{kind}.{ext}"
        for kind, ext in (
            ("trace", "csv"),
            ("support", "json"),
            ("rate", "json"),
            ("summary", "json"),
        )
    }

    problem = _build_problem(cfg)
    solver_cfg = solver.SolverConfig(
        lam=cfg.lam,
        max_iter=cfg.max_iter,
        residual_tol=cfg.residual_tol,
        record_every=cfg.record_every,
        x0=_resolve_x0(cfg, problem.n),
    )
    trace = solver.run(problem, solver_cfg)
    x_bar = conditioning.polish(problem, trace.x_final, tol=cfg.polish_tol)
    f_star = problem.objective(x_bar)
    if cfg.fejer:
        trace.set_reference(x_bar)
    solver.write_trace_csv(trace, paths["trace"], f_star)
    rows = trace.support_rows()

    warnings: list = []
    gaps = trace.objectives - f_star
    rules = solver.trace_rules(trace.ns, gaps, trace.residuals, trace.dists, f_star)
    audits: dict = {"trace": _verdict(rules, warnings)}
    summary: dict = {
        "config_ini": cfg.to_ini(),
        "source": cfg.source,
        "m": problem.h.op.shape[0],
        "n": problem.n,
        "lam": trace.lam,
        "n_iterations": trace.n_iterations,
        "converged": trace.converged,
        "final_residual": trace.final_residual,
        "wall_time": trace.wall_time,
        "f_star": f_star,
        "f_final": float(trace.objectives[-1]),
        "x_bar": [float(v) for v in x_bar],
        "artifacts": {"trace": str(paths["trace"])},
        "diagnostics": {
            "solves": 1,
            "matvecs_per_iteration": 2,
            "support_changes": sum(
                not np.array_equal(a, b) for a, b in zip(rows, rows[1:])
            ),
            "iterate_log_bytes": sum(
                a.nbytes for a in (trace.offsets, trace.indices, trace.values)
            ),
            "fejer_distances": "iterate log" if cfg.fejer else "off",
        },
    }

    if cfg.support_audit:
        report = support.build_support_report(problem, trace, x_bar)
        support.write_support_report(report, paths["support"])
        summary["artifacts"]["support"] = str(paths["support"])
        rep = support.report_to_dict(report)
        audits["support"] = _verdict(support.report_rules(rep), warnings)
        summary["support"] = dict(rep)
        del summary["support"]["active_constraints"], summary["support"]["dual_point"]
        if cfg.source == "files" and problem.n - 1 in report.esupp:
            # only user data can be a truncation of a larger problem;
            # builtins and synthetic instances are intrinsically finite
            warnings.append(
                "extended support touches the last coordinate; if this "
                "instance truncates a larger problem, the truncation is "
                "too short"
            )
    else:
        audits["support"] = "off"

    if cfg.rate_fit:
        rate = conditioning.fit_rate(trace, f_star, cfg.window_fraction)
        rate_dict = rate.to_dict()
        if cfg.penalty[0] == "power" and cfg.penalty[1] > 2.0:
            p = cfg.penalty[1]
            try:
                c1, slope = conditioning.sublinear_bound_check(
                    trace, f_star, p, cfg.window_fraction
                )
                rate_dict["tail_bound"] = {
                    "exponent": p / (p - 2.0),
                    "constant": c1,
                    "trend_slope": slope,
                }
            except ValueError as exc:
                warnings.append(f"tail bound check skipped: {exc}")
        _json_dump(rate_dict, paths["rate"])
        summary["artifacts"]["rate"] = str(paths["rate"])
        summary["rate"] = rate_dict
        audits["rate"] = "pass" if rate.regime != "inconclusive" else "fail"
    else:
        audits["rate"] = "off"

    if cfg.fejer:
        ok = solver.fejer_check(trace, x_bar)
        audits["fejer"] = "pass" if ok else "fail"
    else:
        audits["fejer"] = "off"

    if cfg.gamma:
        unique, x_check, spread = conditioning.verify_unique_minimizer(
            problem, seed=cfg.gamma_seed
        )
        if not unique:
            audits["gamma"] = f"skipped: minimizer spread {spread:.2e} (not unique)"
        else:
            esupp = support.extended_support(
                x_bar, np.asarray(problem.h.gradient(x_bar)), problem.g
            )
            # empty esupp means the active subspace is {0}; sample the
            # whole space instead
            region = esupp if esupp else tuple(range(problem.n))
            try:
                est = conditioning.estimate_gamma(
                    problem,
                    region,
                    x_bar,
                    delta=cfg.gamma_delta,
                    r=cfg.gamma_r,
                    p=cfg.gamma_p,
                    n_samples=cfg.gamma_samples,
                    seed=cfg.gamma_seed,
                )
                summary["gamma"] = est.to_dict()
                audits["gamma"] = "pass" if est.gamma > 0 else "fail"
            except (RuntimeError, ValueError) as exc:
                audits["gamma"] = "fail"
                warnings.append(f"gamma estimation failed: {exc}")
    else:
        audits["gamma"] = "off"

    failed = [k for k, v in audits.items() if v == "fail"]
    exit_code = 0 if trace.converged and not failed else 1
    if not trace.converged:
        warnings.append(
            f"solver stopped at residual {trace.final_residual:.3e} without "
            f"reaching {cfg.residual_tol:.1e}"
        )
    summary["audits"] = audits
    summary["warnings"] = warnings
    summary["exit_code"] = exit_code
    summary["artifacts"]["summary"] = str(paths["summary"])
    _json_dump(summary, paths["summary"])
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return exit_code, summary


# ---------------------------------------------------------------------------
# prox gallery


@dataclass
class GallerySpec:
    """Grid and scalar regularizer for a prox curve CSV."""

    lo: float
    hi: float
    steps: int
    lam: float
    interval: tuple[float, float]
    penalty: tuple
    out_path: str


def parse_gallery_spec(path) -> GallerySpec:
    """Parse and validate a gallery INI file."""
    defaults = {"lam": 1.0, "interval": (-1.0, 1.0), "penalty": ("none",)}
    spec = GallerySpec(**{**defaults, **_read_ini(path, _GALLERY_KEYS)})
    if not spec.lo < spec.hi:
        raise ConfigError(str(path), "grid", "need lo < hi")
    return spec


def _gallery_penalty_object(spec: tuple):
    from .regularizers import CustomPenalty, prox_power_scalar

    if spec[0] not in ("box", "power_box"):
        return _penalty_object(spec)
    if spec[0] == "box":
        p = w = None
        a, b = spec[1], spec[2]
    else:
        p, w, a, b = spec[1:]

    def value(t: float) -> float:
        if not a <= t <= b:
            return math.inf
        # same convention as PowerPenalty: weight * |t|**p / p
        return 0.0 if p is None else w * abs(t) ** p / p

    def prox(t: float, lam: float) -> float:
        s = t if p is None else prox_power_scalar(t, lam, p, w)
        # the scalar objective is convex, so the constrained minimizer is
        # the clamp of the unconstrained one
        return min(max(s, a), b)

    return CustomPenalty(value=value, prox=prox)


def emit_prox_gallery(spec: GallerySpec) -> None:
    """Tabulate prox_{lam*(sigma_I + psi)} over the grid as CSV (t, prox)."""
    import numpy as np

    from .regularizers import Interval, SeparableRegularizer, prox_separable

    g = SeparableRegularizer.uniform(
        1, Interval(*spec.interval), _gallery_penalty_object(spec.penalty)
    )
    lines = ["t,prox"]
    for t in np.linspace(spec.lo, spec.hi, spec.steps):
        v = prox_separable(np.array([float(t)]), spec.lam, g)[0]
        lines.append(f"{repr(float(t))},{repr(float(v))}")
    out = Path(spec.out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# instance generation to files


def _write_csv_matrix(a, path) -> None:
    with open(path, "w") as fh:
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def cmd_gen(m: int, n: int, seed: int, scale: float, outdir: str, prefix: str) -> int:
    outdir_p = Path(outdir)
    outdir_p.mkdir(parents=True, exist_ok=True)
    a, y, x_true = _synthetic_data(m, n, seed, scale)
    targets = {
        "A": (a, f"{prefix}_A.csv"),
        "y": (y.reshape(-1, 1), f"{prefix}_y.csv"),
        "x_true": (x_true.reshape(-1, 1), f"{prefix}_x_true.csv"),
    }
    for data, name in targets.values():
        _write_csv_matrix(data, outdir_p / name)
        print(outdir_p / name)
    return 0


# ---------------------------------------------------------------------------
# artifact audit


def _read_trace(path) -> tuple:
    """Columns (ns, gaps, residuals, dists) of a trace CSV; dists is None
    when the column is blank.  Raises ValueError naming a format defect."""
    from .solver import TRACE_HEADER

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
            rows.append((int(n), float(gap), float(res), float(dist) if dist else None))
        except ValueError:
            raise ValueError(f"line {ln}: expected 5 numbers, got {line!r}")
    ns, gaps, residuals, dists = zip(*rows)
    if None in dists and any(d is not None for d in dists):
        raise ValueError("dist_to_ref present only on some rows")
    return ns, gaps, residuals, None if None in dists else dists


def cmd_audit(trace_path, support_path) -> int:
    """Apply the trace and support report rules to finished artifacts; f*
    comes from the <prefix>_summary.json written beside <prefix>_trace.csv."""
    from .solver import trace_rules
    from .support import report_rules

    problems, trace_path = [], Path(trace_path)
    f_star = None
    try:
        if not trace_path.name.endswith("_trace.csv"):
            raise ValueError("the trace is not named <prefix>_trace.csv")
        name = trace_path.name[: -len("trace.csv")] + "summary.json"
        f_star = float(json.loads(trace_path.with_name(name).read_text())["f_star"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"summary: cannot read f_star: {exc!r}")
    try:
        columns = _read_trace(trace_path)
        if f_star is not None:
            problems += trace_rules(*columns, f_star)
    except (OSError, ValueError) as exc:
        problems.append(f"trace: {exc}")
    try:
        problems += report_rules(json.loads(Path(support_path).read_text()))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"support: cannot load: {exc!r}")
    for p in problems:
        print(f"FAIL {p}")
    if not problems:
        print("ok: trace and support report are consistent")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshgrad",
        description="Thresholding gradient experiments on separable "
        "sparsity-regularized least squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from an INI config")
    p_run.add_argument("config", help="experiment INI file")
    p_gal = sub.add_parser("gallery", help="tabulate a scalar prox curve")
    p_gal.add_argument("spec", help="gallery INI file")
    p_gen = sub.add_parser("gen", help="write a seeded synthetic instance")
    p_gen.add_argument("m", type=int)
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("seed", type=int)
    p_gen.add_argument("--scale", type=float, default=1.0)
    p_gen.add_argument("--outdir", default=".")
    p_gen.add_argument("--prefix", default="instance")
    p_aud = sub.add_parser("audit", help="recheck emitted artifacts")
    p_aud.add_argument("trace", help="trace CSV")
    p_aud.add_argument("report", help="support report JSON")
    return parser


def main(argv=None) -> int:
    _cap_threads()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            code, _ = run_experiment(parse_experiment_config(args.config))
            return code
        if args.command == "gallery":
            emit_prox_gallery(parse_gallery_spec(args.spec))
            return 0
        if args.command == "gen":
            return cmd_gen(
                args.m, args.n, args.seed, args.scale, args.outdir, args.prefix
            )
        return cmd_audit(args.trace, args.report)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
