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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

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
    """Parsed experiment description; see the README for the INI schema.

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
        lines = ["[problem]", f"source = {self.source}"]
        if self.source == "builtin":
            lines.append(f"name = {self.builtin_name}")
        elif self.source == "files":
            lines.append(f"matrix = {self.matrix_path}")
            lines.append(f"y = {self.y_path}")
            lip = "auto" if self.lipschitz is None else repr(self.lipschitz)
            lines.append(f"lipschitz = {lip}")
        else:
            lines.append(f"m = {self.m}")
            lines.append(f"n = {self.n}")
            lines.append(f"seed = {self.seed}")
            lines.append(f"scale = {repr(self.scale)}")
        lines.append("")
        lines.append("[regularizer]")
        if self.omega is not None:
            lines.append(f"omega = {repr(self.omega)}")
        if self.interval is not None:
            lines.append(f"interval = {repr(self.interval[0])} {repr(self.interval[1])}")
        for k in sorted(self.interval_overrides):
            lo, hi = self.interval_overrides[k]
            lines.append(f"interval_{k} = {repr(lo)} {repr(hi)}")
        lines.append(f"penalty = {' '.join(str(tok) for tok in self.penalty)}")
        lines.append("")
        lines.append("[solver]")
        lines.append(f"lambda = {'auto' if self.lam is None else repr(self.lam)}")
        lines.append(f"max_iter = {self.max_iter}")
        lines.append(f"residual_tol = {repr(self.residual_tol)}")
        lines.append(f"record_every = {self.record_every}")
        lines.append(f"x0 = {self.x0}")
        lines.append("")
        lines.append("[analysis]")
        for key in ("support_audit", "rate_fit", "fejer", "gamma"):
            lines.append(f"{key} = {'true' if getattr(self, key) else 'false'}")
        lines.append(f"gamma_delta = {repr(self.gamma_delta)}")
        lines.append(f"gamma_r = {repr(self.gamma_r)}")
        lines.append(f"gamma_p = {repr(self.gamma_p)}")
        lines.append(f"gamma_samples = {self.gamma_samples}")
        lines.append(f"gamma_seed = {self.gamma_seed}")
        lines.append(f"window_fraction = {repr(self.window_fraction)}")
        lines.append(f"polish_tol = {repr(self.polish_tol)}")
        lines.append("")
        lines.append("[output]")
        lines.append(f"dir = {self.outdir}")
        lines.append(f"prefix = {self.prefix}")
        return "\n".join(lines) + "\n"


_BUILTIN_NAMES = ("ex_cq", "ex_nocq")

_SECTION_KEYS = {
    "problem": {
        "builtin": {"source", "name"},
        "files": {"source", "matrix", "y", "lipschitz"},
        "synthetic": {"source", "m", "n", "seed", "scale"},
    },
    "regularizer": {"omega", "interval", "penalty"},  # plus interval_<k>
    "solver": {"lambda", "max_iter", "residual_tol", "record_every", "x0"},
    "analysis": {
        "support_audit",
        "rate_fit",
        "fejer",
        "gamma",
        "gamma_delta",
        "gamma_r",
        "gamma_p",
        "gamma_samples",
        "gamma_seed",
        "window_fraction",
        "polish_tol",
    },
    "output": {"dir", "prefix"},
}


def _get_float(section, key, origin, where):
    try:
        return float(section[key])
    except ValueError:
        raise ConfigError(origin, where, f"{key} is not a number: {section[key]!r}")


def _get_int(section, key, origin, where):
    try:
        return int(section[key])
    except ValueError:
        raise ConfigError(origin, where, f"{key} is not an integer: {section[key]!r}")


def _get_bool(section, key, origin, where):
    val = section[key].strip().lower()
    if val in ("true", "yes", "on", "1"):
        return True
    if val in ("false", "no", "off", "0"):
        return False
    raise ConfigError(origin, where, f"{key} is not a boolean: {section[key]!r}")


def _parse_pair(text, origin, where, key):
    toks = text.split()
    if len(toks) != 2:
        raise ConfigError(origin, where, f"{key} needs two numbers, got {text!r}")
    try:
        return float(toks[0]), float(toks[1])
    except ValueError:
        raise ConfigError(origin, where, f"{key} is not a number pair: {text!r}")


def _parse_penalty(text, origin, where):
    toks = text.split()
    if toks == ["none"]:
        return ("none",)
    if toks and toks[0] == "power" and len(toks) in (2, 3):
        try:
            p = float(toks[1])
            w = float(toks[2]) if len(toks) == 3 else 1.0
        except ValueError:
            raise ConfigError(origin, where, f"bad power penalty: {text!r}")
        return ("power", p, w)
    raise ConfigError(
        origin, where, f"penalty must be 'none' or 'power p [weight]', got {text!r}"
    )


def parse_experiment_config(path) -> ExperimentConfig:
    """Parse and validate an experiment INI file.

    Unknown sections or keys are errors: a typo silently falling back to a
    default would invalidate the run it configures.
    """
    path = Path(path)
    origin = str(path)
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(origin, "-", f"cannot read config: {exc}")
    except configparser.Error as exc:
        raise ConfigError(origin, "-", f"INI syntax: {exc}")

    for sec in cp.sections():
        if sec not in _SECTION_KEYS:
            raise ConfigError(origin, sec, "unknown section")
    if not cp.has_section("problem"):
        raise ConfigError(origin, "problem", "section is required")

    cfg = ExperimentConfig()
    prob = cp["problem"]
    source = prob.get("source", "").strip()
    if source not in _SECTION_KEYS["problem"]:
        raise ConfigError(
            origin, "problem", f"source must be builtin|files|synthetic, got {source!r}"
        )
    cfg.source = source
    allowed = _SECTION_KEYS["problem"][source]
    for key in prob:
        if key not in allowed:
            raise ConfigError(
                origin, "problem", f"key {key!r} is not valid for source {source!r}"
            )
    if source == "builtin":
        name = prob.get("name", "").strip()
        if name not in _BUILTIN_NAMES:
            raise ConfigError(
                origin,
                "problem",
                f"name must be one of {', '.join(_BUILTIN_NAMES)}, got {name!r}",
            )
        cfg.builtin_name = name
    elif source == "files":
        for key in ("matrix", "y"):
            if key not in prob:
                raise ConfigError(origin, "problem", f"source files needs {key}")
        cfg.matrix_path = prob["matrix"].strip()
        cfg.y_path = prob["y"].strip()
        for p in (cfg.matrix_path, cfg.y_path):
            if not Path(p).exists():
                raise ConfigError(origin, "problem", f"file not found: {p}")
        lip = prob.get("lipschitz", "auto").strip()
        if lip == "auto":
            cfg.lipschitz = None
        else:
            try:
                cfg.lipschitz = float(lip)
            except ValueError:
                raise ConfigError(origin, "problem", f"bad lipschitz: {lip!r}")
    else:
        for key in ("m", "n", "seed"):
            if key not in prob:
                raise ConfigError(origin, "problem", f"source synthetic needs {key}")
        cfg.m = _get_int(prob, "m", origin, "problem")
        cfg.n = _get_int(prob, "n", origin, "problem")
        cfg.seed = _get_int(prob, "seed", origin, "problem")
        if cfg.m < 1 or cfg.n < 1:
            raise ConfigError(origin, "problem", "m and n must be >= 1")
        if "scale" in prob:
            cfg.scale = _get_float(prob, "scale", origin, "problem")
            if not cfg.scale > 0:
                raise ConfigError(origin, "problem", "scale must be positive")

    if cp.has_section("regularizer"):
        reg = cp["regularizer"]
        for key in reg:
            if key in _SECTION_KEYS["regularizer"]:
                continue
            if key.startswith("interval_"):
                try:
                    k = int(key[len("interval_"):])
                except ValueError:
                    raise ConfigError(origin, "regularizer", f"bad key {key!r}")
                cfg.interval_overrides[k] = _parse_pair(
                    reg[key], origin, "regularizer", key
                )
                continue
            raise ConfigError(origin, "regularizer", f"unknown key {key!r}")
        if "omega" in reg and "interval" in reg:
            raise ConfigError(
                origin, "regularizer", "give omega or interval, not both"
            )
        if "omega" in reg:
            cfg.omega = _get_float(reg, "omega", origin, "regularizer")
        if "interval" in reg:
            cfg.interval = _parse_pair(reg["interval"], origin, "regularizer", "interval")
        if "penalty" in reg:
            cfg.penalty = _parse_penalty(reg["penalty"], origin, "regularizer")

    if cp.has_section("solver"):
        sol = cp["solver"]
        for key in sol:
            if key not in _SECTION_KEYS["solver"]:
                raise ConfigError(origin, "solver", f"unknown key {key!r}")
        if "lambda" in sol:
            lam = sol["lambda"].strip()
            if lam == "auto":
                cfg.lam = None
            else:
                try:
                    cfg.lam = float(lam)
                except ValueError:
                    raise ConfigError(origin, "solver", f"bad lambda: {lam!r}")
        if "max_iter" in sol:
            cfg.max_iter = _get_int(sol, "max_iter", origin, "solver")
        if "residual_tol" in sol:
            cfg.residual_tol = _get_float(sol, "residual_tol", origin, "solver")
        if "record_every" in sol:
            cfg.record_every = _get_int(sol, "record_every", origin, "solver")
        if "x0" in sol:
            x0 = sol["x0"].strip()
            if x0 not in ("zeros", "ones") and not x0.startswith("file:"):
                raise ConfigError(
                    origin, "solver", f"x0 must be zeros|ones|file:<path>, got {x0!r}"
                )
            if x0.startswith("file:") and not Path(x0[5:]).exists():
                raise ConfigError(origin, "solver", f"x0 file not found: {x0[5:]}")
            cfg.x0 = x0

    if cp.has_section("analysis"):
        ana = cp["analysis"]
        for key in ana:
            if key not in _SECTION_KEYS["analysis"]:
                raise ConfigError(origin, "analysis", f"unknown key {key!r}")
        for key in ("support_audit", "rate_fit", "fejer", "gamma"):
            if key in ana:
                setattr(cfg, key, _get_bool(ana, key, origin, "analysis"))
        for key in ("gamma_delta", "gamma_r", "gamma_p", "window_fraction", "polish_tol"):
            if key in ana:
                setattr(cfg, key, _get_float(ana, key, origin, "analysis"))
        for key in ("gamma_samples", "gamma_seed"):
            if key in ana:
                setattr(cfg, key, _get_int(ana, key, origin, "analysis"))

    if cp.has_section("output"):
        out = cp["output"]
        for key in out:
            if key not in _SECTION_KEYS["output"]:
                raise ConfigError(origin, "output", f"unknown key {key!r}")
        if "dir" in out:
            cfg.outdir = out["dir"].strip()
        if "prefix" in out:
            cfg.prefix = out["prefix"].strip()

    if (cfg.support_audit or cfg.fejer) and cfg.record_every != 1:
        raise ConfigError(
            origin,
            "analysis",
            "support_audit and fejer need record_every = 1 "
            "(sparse traces cannot certify per-iteration claims)",
        )
    if not 0.0 < cfg.window_fraction <= 1.0:
        raise ConfigError(origin, "analysis", "window_fraction must be in (0, 1]")
    return cfg


# ---------------------------------------------------------------------------
# problem construction


def _builtin_smooth(name: str):
    from .operators import DenseOperator, LeastSquaresTerm

    if name == "ex_nocq":
        # scalar (x-1)^2/2; with g = |.| the minimizer is 0 and the dual
        # point sits exactly on the interval boundary
        return LeastSquaresTerm(DenseOperator([[1.0]]), [1.0], lipschitz=1.0)
    if name == "ex_cq":
        # (x1 - x2 - 1)^2 written as least squares; argmin of f is the
        # segment between (0.5, 0) and (0, -0.5)
        s = math.sqrt(2.0)
        return LeastSquaresTerm(DenseOperator([[s, -s]]), [s], lipschitz=4.0)
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
    from .operators import DenseOperator, LeastSquaresTerm
    from .regularizers import SeparableRegularizer, ZeroPenalty
    from .solver import Problem

    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    a, y, _ = _synthetic_data(m, n, seed, scale)
    h = LeastSquaresTerm(DenseOperator(a), y, lipschitz=scale)
    g = SeparableRegularizer.uniform(n, penalty=penalty or ZeroPenalty())
    return Problem(g=g, h=h)


def _build_problem(cfg: ExperimentConfig):
    from .operators import DenseOperator, LeastSquaresTerm
    from .solver import Problem

    if cfg.source == "builtin":
        h = _builtin_smooth(cfg.builtin_name)
    elif cfg.source == "files":
        from .operators import read_dense_matrix, read_vector

        a = read_dense_matrix(cfg.matrix_path)
        y = read_vector(cfg.y_path)
        op = DenseOperator(a)
        if cfg.lipschitz is None:
            h = LeastSquaresTerm.with_estimated_lipschitz(op, y)
        else:
            h = LeastSquaresTerm(op, y, lipschitz=cfg.lipschitz)
    else:
        a, y, _ = _synthetic_data(cfg.m, cfg.n, cfg.seed, cfg.scale)
        h = LeastSquaresTerm(DenseOperator(a), y, lipschitz=cfg.scale)
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

    audits: dict = {}
    warnings: list = []
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
        ok = set(report.supp) <= set(report.esupp)
        ok = ok and report.identification_iteration is not None
        if not math.isinf(report.rho_sol):
            ok = ok and report.observed_violations <= math.ceil(
                report.identification_bound
            )
        audits["support"] = "pass" if ok else "fail"
        summary["support"] = support.report_to_dict(report)
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
    path = Path(path)
    origin = str(path)
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(origin, "-", f"cannot read spec: {exc}")
    except configparser.Error as exc:
        raise ConfigError(origin, "-", f"INI syntax: {exc}")
    for sec in cp.sections():
        if sec not in ("grid", "regularizer", "output"):
            raise ConfigError(origin, sec, "unknown section")
    if not cp.has_section("grid") or not cp.has_section("output"):
        raise ConfigError(origin, "-", "need [grid] and [output] sections")
    grid = cp["grid"]
    for key in grid:
        if key not in ("lo", "hi", "steps", "lam"):
            raise ConfigError(origin, "grid", f"unknown key {key!r}")
    lo = _get_float(grid, "lo", origin, "grid")
    hi = _get_float(grid, "hi", origin, "grid")
    steps = _get_int(grid, "steps", origin, "grid")
    lam = _get_float(grid, "lam", origin, "grid") if "lam" in grid else 1.0
    if steps < 2:
        raise ConfigError(origin, "grid", "steps must be >= 2")
    if not lo < hi:
        raise ConfigError(origin, "grid", "need lo < hi")
    if not lam > 0:
        raise ConfigError(origin, "grid", "lam must be positive")
    interval = (-1.0, 1.0)
    penalty: tuple = ("none",)
    if cp.has_section("regularizer"):
        reg = cp["regularizer"]
        for key in reg:
            if key not in ("interval", "penalty"):
                raise ConfigError(origin, "regularizer", f"unknown key {key!r}")
        if "interval" in reg:
            interval = _parse_pair(reg["interval"], origin, "regularizer", "interval")
        if "penalty" in reg:
            penalty = _parse_gallery_penalty(reg["penalty"], origin)
    out = cp["output"]
    for key in out:
        if key != "path":
            raise ConfigError(origin, "output", f"unknown key {key!r}")
    if "path" not in out:
        raise ConfigError(origin, "output", "path is required")
    return GallerySpec(lo, hi, steps, lam, interval, penalty, out["path"].strip())


def _parse_gallery_penalty(text, origin):
    """Gallery penalties extend the experiment grammar with a trailing
    'box a b' (domain constraint): none | power p [w] | power p w box a b
    | box a b."""
    toks = text.split()
    if "box" in toks:
        i = toks.index("box")
        if len(toks) != i + 3:
            raise ConfigError(origin, "regularizer", f"box needs two numbers: {text!r}")
        try:
            a, b = float(toks[i + 1]), float(toks[i + 2])
        except ValueError:
            raise ConfigError(origin, "regularizer", f"bad box bounds: {text!r}")
        if not a < b:
            raise ConfigError(origin, "regularizer", "box needs a < b")
        head = toks[:i] or ["none"]
        if head == ["none"]:
            return ("box", a, b)
        inner = _parse_penalty(" ".join(head), origin, "regularizer")
        if inner[0] != "power":
            raise ConfigError(origin, "regularizer", f"bad penalty: {text!r}")
        return ("power_box", inner[1], inner[2], a, b)
    return _parse_penalty(text, origin, "regularizer")


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


def _audit_trace(path) -> list:
    problems = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return [f"trace: cannot read: {exc}"]
    lines = text.strip().split("\n")
    if not lines or lines[0] != "n,f_gap,residual,supp_size,dist_to_ref":
        head = lines[0] if lines else "<empty>"
        return [f"trace: bad header {head!r}"]
    ns, gaps, residuals, dists = [], [], [], []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            problems.append(f"trace line {ln}: expected 5 fields")
            continue
        try:
            ns.append(int(parts[0]))
            gaps.append(float(parts[1]))
            residuals.append(float(parts[2]))
            int(parts[3])
            dists.append(float(parts[4]) if parts[4] else None)
        except ValueError:
            problems.append(f"trace line {ln}: unparsable numbers")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        problems.append("trace: iteration numbers not strictly increasing")
    if any(b > a + 1e-12 for a, b in zip(gaps, gaps[1:])):
        problems.append("trace: objective gap increases (descent violated)")
    if any(gap < -1e-9 for gap in gaps):
        problems.append("trace: objective gap goes below the reference optimum")
    if any(r < 0 for r in residuals):
        problems.append("trace: negative residual")
    have = [d for d in dists if d is not None]
    if have and len(have) != len(dists):
        problems.append("trace: dist_to_ref present only on some rows")
    if len(have) == len(dists) and any(
        b > a + 1e-10 for a, b in zip(have, have[1:])
    ):
        problems.append("trace: distance to reference increases (not Fejer)")
    return problems


def _audit_support(path) -> list:
    problems = []
    try:
        with open(path) as fh:
            rep = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"support: cannot load: {exc}"]
    required = (
        "supp",
        "esupp",
        "rho_sol",
        "identification_bound",
        "observed_violations",
        "identification_iteration",
        "qualification_holds",
        "dual_point",
    )
    missing = [k for k in required if k not in rep]
    if missing:
        return [f"support: missing keys {missing}"]
    supp, esupp = set(rep["supp"]), set(rep["esupp"])
    if not supp <= esupp:
        problems.append("support: supp not contained in esupp")
    n = len(rep["dual_point"])
    if any(not 0 <= k < n for k in esupp):
        problems.append("support: index out of range")
    rho_sol = rep["rho_sol"]
    if rho_sol is not None and not rho_sol > 0:
        problems.append("support: rho_sol must be positive when finite")
    if rep["identification_bound"] < 0:
        problems.append("support: negative identification bound")
    if rho_sol is None and rep["identification_bound"] != 0:
        problems.append("support: bound must be 0 when rho_sol is infinite")
    if rho_sol is not None and rep["observed_violations"] > math.ceil(
        rep["identification_bound"]
    ):
        problems.append("support: observed violations exceed the bound")
    ident = rep["identification_iteration"]
    if ident is not None and ident < 1:
        problems.append("support: identification iteration must be >= 1")
    if (rep["qualification_holds"] is True) and supp != esupp:
        problems.append("support: qualification claimed but supp != esupp")
    return problems


def cmd_audit(trace_path, support_path) -> int:
    problems = _audit_trace(trace_path) + _audit_support(support_path)
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
