"""Experiment runner for the `threshgrad` console script: INI parsing,
problem construction from a config, and artifact writing.  Every analysis,
the growth certificate included, comes from `threshgrad.analysis.analyze`.

Subcommands:
    run <config.ini>      build, analyze, audit, emit artifacts
    gallery <spec.ini>    tabulate a scalar prox curve as CSV
    gen <m> <n> <seed>    write a seeded synthetic instance to CSV files
    audit <trace.csv> <support.json>   re-derive trace, support and rate verdicts

Config files are INI; the full schema is documented in the README and in
`parse_experiment_config`.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from . import solver, support
from .analysis import _builtin_smooth, _synthetic_data, analyze, decide_audits
from .analysis import generate_synthetic
from .operators import LeastSquaresTerm, read_dense_matrix, read_vector, write_text
from .regularizers import (
    Interval,
    PowerPenalty,
    SeparableRegularizer,
    ZeroPenalty,
    prox_power_root,
    prox_separable,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "GallerySpec",
    "parse_experiment_config",
    "parse_gallery_spec",
    "generate_synthetic",  # from analysis; perfbench builds its instances here
    "run_experiment",
    "emit_prox_gallery",
    "main",
]

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

    Exactly one problem source is active.  The ranges of the values are
    checked where `run_experiment` builds the problem, by
    `_synthetic_data`, `LeastSquaresTerm` and `SolverConfig.resolve`, before
    anything is written.  The solver tolerance is a library default; the
    polish and rate-fit settings are constants of `threshgrad.conditioning`.
    """

    # [problem]
    source: str = "builtin"
    builtin_name: Optional[str] = None
    matrix_path: Optional[str] = None
    y_path: Optional[str] = None
    lipschitz: Optional[float] = None  # None = exact ||A||^2
    m: Optional[int] = None
    n: Optional[int] = None
    seed: Optional[int] = None
    scale: float = 1.0
    # [regularizer]
    interval: Interval = Interval(-1.0, 1.0)
    interval_overrides: dict = field(default_factory=dict)  # index -> Interval
    penalty: Union[ZeroPenalty, PowerPenalty] = ZeroPenalty()
    # [solver]
    lam: Optional[float] = None  # None = 1/L
    max_iter: int = 100_000
    x0: str = "zeros"  # zeros | ones | file:<path>
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

    ``parse`` returns the value, or raises ValueError when the text is not
    of the form that ``accepted`` names.  It checks syntax only: a value's
    range is checked once, by the constructor that owns the value.  When
    ``make`` is set, that constructor builds the value from what ``parse``
    read, and the message of its ValueError is the one the user sees.
    ``fmt`` writes a value back as text that parses to it.  ``none`` is
    the text of a None value; when it is None, a None value leaves the key
    out.
    """

    parse: Callable[[str], object]
    accepted: str
    fmt: Callable[[object], str] = str
    none: Optional[str] = None
    make: Optional[Callable[[object], object]] = None


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


def _choice(*names: str) -> _Codec:
    def parse(text):
        if text not in names:
            raise ValueError(text)
        return text

    return _Codec(parse, "one of " + ", ".join(names))


def _auto(codec: _Codec) -> _Codec:
    return replace(codec, accepted=f"auto or {codec.accepted}", none="auto")


def _parse_penalty(text):
    """The arguments of `PowerPenalty`, or () for none."""
    toks = text.split()
    if toks == ["none"]:
        return ()
    if toks[:1] != ["power"] or len(toks) not in (2, 3):
        raise ValueError(text)
    return tuple(map(float, toks[1:]))


def _parse_pair(text):
    a, b = map(float, text.split())
    return a, b


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


_NUMBER = _Codec(float, "a number", repr)
_INTEGER = _Codec(int, "an integer")
_TEXT = _Codec(str, "text")
_FILE = _Codec(_existing, "an existing file")
_INTERVAL = _Codec(
    _parse_pair,
    "two numbers lo hi",
    lambda v: f"{v.lo!r} {v.hi!r}",
    make=lambda pair: Interval(*pair),
)
_PENALTY = _Codec(
    _parse_penalty,
    "none or power p [weight]",
    lambda v: f"power {v.p!r} {v.weight!r}" if isinstance(v, PowerPenalty) else "none",
    make=lambda args: PowerPenalty(*args) if args else ZeroPenalty(),
)
_BOX = _Codec(_parse_pair, "two numbers")
_SOURCE = _choice("builtin", "files", "synthetic")
_BUILTIN = _choice("ex_cq", "ex_nocq")
_X0 = _Codec(_parse_x0, "zeros, ones or file:<path>")

_EXPERIMENT_KEYS = (
    _Key("problem", "source", "source", _SOURCE, required=True),
    _Key("problem", "name", "builtin_name", _BUILTIN, required=True, source="builtin"),
    _Key("problem", "matrix", "matrix_path", _FILE, required=True, source="files"),
    _Key("problem", "y", "y_path", _FILE, required=True, source="files"),
    _Key("problem", "lipschitz", "lipschitz", _auto(_NUMBER), source="files"),
    _Key("problem", "m", "m", _INTEGER, required=True, source="synthetic"),
    _Key("problem", "n", "n", _INTEGER, required=True, source="synthetic"),
    _Key("problem", "seed", "seed", _INTEGER, required=True, source="synthetic"),
    _Key("problem", "scale", "scale", _NUMBER, source="synthetic"),
    _Key("regularizer", "interval", "interval", _INTERVAL),
    _Key("regularizer", "interval_<k>", "interval_overrides", _INTERVAL),
    _Key("regularizer", "penalty", "penalty", _PENALTY),
    _Key("solver", "lambda", "lam", _auto(_NUMBER)),
    _Key("solver", "max_iter", "max_iter", _INTEGER),
    _Key("solver", "x0", "x0", _X0),
    _Key("output", "dir", "outdir", _TEXT),
    _Key("output", "prefix", "prefix", _TEXT),
)

_GALLERY_KEYS = (
    _Key("grid", "lo", "lo", _NUMBER, required=True),
    _Key("grid", "hi", "hi", _NUMBER, required=True),
    _Key("grid", "steps", "steps", _INTEGER, required=True),
    _Key("grid", "lam", "lam", _NUMBER),
    _Key("regularizer", "interval", "interval", _INTERVAL),
    _Key("regularizer", "penalty", "penalty", _PENALTY),
    _Key("regularizer", "box", "box", _BOX),
    _Key("output", "path", "out_path", _TEXT, required=True),
)


def _decode(row: _Key, key: str, text: str, origin: str):
    codec = row.codec
    if text == codec.none:
        return None
    try:
        value = codec.parse(text)
    except FileNotFoundError as exc:
        raise ConfigError(origin, row.section, f"{key}: file not found: {exc}")
    except ValueError:
        message = f"{key} must be {codec.accepted}, got {text!r}"
        raise ConfigError(origin, row.section, message)
    if codec.make is None:
        return value
    try:
        return codec.make(value)
    except ValueError as exc:
        raise ConfigError(origin, row.section, f"{key}: {exc}")


def _read_ini(path, table) -> dict:
    """Values by field of the keys in an INI file, checked against ``table``.

    Unknown sections and keys are errors, and so are a missing required key
    and a non-empty [DEFAULT] section: a typo silently falling back to a
    default would invalidate the run it configures.
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

    if cp.defaults():
        message = "section is not allowed: its keys would apply to every section"
        raise ConfigError(origin, cp.default_section, message)
    rows = {(row.section, row.key): row for row in table}
    values: dict = {}
    index_keys: dict = {}  # (field, index) -> the key that set it
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
                k = int(index)
                first = index_keys.setdefault((row.field, k), key)
                if first != key:
                    message = f"keys {first!r} and {key!r} both set index {k}"
                    raise ConfigError(origin, sec, message)
                values.setdefault(row.field, {})[k] = _decode(row, key, text, origin)
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
    return ExperimentConfig(**_read_ini(path, _EXPERIMENT_KEYS))


# ---------------------------------------------------------------------------
# problem construction


def _build_regularizer(cfg: ExperimentConfig, n: int):
    intervals = [cfg.interval] * n
    for k, interval in cfg.interval_overrides.items():
        if not 0 <= k < n:
            raise ValueError(f"interval override index {k} out of range for n={n}")
        intervals[k] = interval
    return SeparableRegularizer(tuple(intervals), (cfg.penalty,) * n)


def _build_problem(cfg: ExperimentConfig):
    """The config's problem and where its L comes from: the builtin's
    constant, the synthetic `scale`, the config's `lipschitz` ("config"),
    or the exact ||A||^2 ("exact")."""
    l_source = cfg.source
    if cfg.source == "builtin":
        h = _builtin_smooth(cfg.builtin_name)
    elif cfg.source == "files":
        a, y = read_dense_matrix(cfg.matrix_path), read_vector(cfg.y_path)
        h = LeastSquaresTerm(a, y, cfg.lipschitz)
        l_source = "exact" if cfg.lipschitz is None else "config"
    else:
        h = generate_synthetic(cfg.m, cfg.n, cfg.seed, cfg.scale).h
    n = h.op.shape[1]
    return solver.Problem(g=_build_regularizer(cfg, n), h=h), l_source


def _resolve_x0(cfg: ExperimentConfig, n: int):
    if cfg.x0 == "zeros":
        return np.zeros(n)
    if cfg.x0 == "ones":
        return np.ones(n)
    return read_vector(cfg.x0[5:])


# ---------------------------------------------------------------------------
# experiment driver


def run_experiment(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Build the problem, `analyze` it and write the artifacts.  The
    summary copies the analysis's audits and warnings; its ``rate`` is the
    rate document and its ``gamma`` the growth certificate, each present
    when its audit is not skipped.

    Returns (exit_code, summary).  Exit code 0 means the solver converged
    and no audit failed; audits that were skipped for a stated reason
    (e.g. a rate on a run that converged before it left a tail) do not
    fail the run, and the `gamma` audit never fails.
    """
    problem, l_source = _build_problem(cfg)
    solver_cfg = solver.SolverConfig(
        lam=cfg.lam, max_iter=cfg.max_iter, x0=_resolve_x0(cfg, problem.n)
    )
    # a rejected step or x0 raises here and leaves no output behind
    result = analyze(problem, solver_cfg)
    trace, report = result.trace, result.report
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        kind: outdir / f"{cfg.prefix}_{kind}.{'csv' if kind == 'trace' else 'json'}"
        for kind in ("trace", "support", "rate", "summary")
    }
    solver.write_trace_csv(trace, paths["trace"], result.gaps, result.dists)

    summary: dict = {
        "config_ini": cfg.to_ini(),
        "source": cfg.source,
        "m": problem.h.op.shape[0],
        "n": problem.n,
        "lam": trace.lam,
        "n_iterations": trace.n_iterations,
        "converged": trace.converged,
        "final_residual": float(trace.residuals[-1]),
        "wall_time": trace.wall_time,
        "f_star": result.f_star,
        "f_final": float(trace.objectives[-1]),
        "x_bar": result.x_bar.tolist(),
        "artifacts": {k: str(paths[k]) for k in ("trace", "support")},
        "diagnostics": {
            "support_changes": trace.support_changes(),
            "iterate_log_bytes": sum(
                a.nbytes for a in (trace.offsets, trace.indices, trace.values)
            ),
            "lipschitz": {"value": float(problem.h.lipschitz), "source": l_source},
        },
    }

    support.write_support_report(report, paths["support"])
    summary["support"] = dict(report)
    del summary["support"]["active_constraints"], summary["support"]["dual_point"]
    if result.rate is not None:
        summary["rate"] = result.rate
        support.write_json(result.rate, paths["rate"])
        summary["artifacts"]["rate"] = str(paths["rate"])
    if result.growth is not None:
        summary["gamma"] = result.growth

    warnings = list(result.warnings)
    if cfg.source == "files" and problem.n - 1 in report["esupp"]:
        # only user data can be a truncation of a larger problem;
        # builtins and synthetic instances are intrinsically finite
        warnings.append(
            "extended support touches the last coordinate; if this instance "
            "truncates a larger problem, the truncation is too short"
        )
    failed = "fail" in result.audits.values()
    exit_code = 0 if trace.converged and not failed else 1
    summary.update(audits=dict(result.audits), warnings=warnings, exit_code=exit_code)
    summary["artifacts"]["summary"] = str(paths["summary"])
    support.write_json(summary, paths["summary"])
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return exit_code, summary


# ---------------------------------------------------------------------------
# prox gallery


@dataclass
class GallerySpec:
    """Grid, scalar regularizer and optional box [a, b] for a prox curve CSV."""

    lo: float
    hi: float
    steps: int
    out_path: str
    lam: float = 1.0
    interval: Interval = Interval(-1.0, 1.0)
    penalty: Union[ZeroPenalty, PowerPenalty] = ZeroPenalty()
    box: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError(f"need finite lo < hi, got {self.lo!r} and {self.hi!r}")
        if self.steps < 2:
            raise ValueError(f"need steps >= 2, got {self.steps!r}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"need a finite lam > 0, got {self.lam!r}")
        if self.box is not None and not self.box[0] < self.box[1]:
            raise ValueError(f"need a box a < b, got {self.box!r}")


def parse_gallery_spec(path) -> GallerySpec:
    """Parse and validate a gallery INI file."""
    values = _read_ini(path, _GALLERY_KEYS)
    try:
        return GallerySpec(**values)
    except ValueError as exc:
        raise ConfigError(str(path), "-", str(exc))


def emit_prox_gallery(spec: GallerySpec) -> None:
    """Tabulate prox_{lam*(sigma_I + psi)} over the grid as CSV (t, prox).

    A box [a, b] clamps the prox to [a, b]: the scalar objective is
    convex, so the constrained minimizer is the clamp of the unconstrained
    one.  The power prox of a boxed spec is taken after the soft-threshold,
    by `prox_power_root`: the per-coordinate Newton root at every order,
    the closed-form orders included.
    """
    pen = spec.penalty
    boxed_power = spec.box is not None and isinstance(pen, PowerPenalty)
    ts = np.linspace(spec.lo, spec.hi, spec.steps)
    g = SeparableRegularizer.uniform(
        spec.steps, spec.interval, ZeroPenalty() if boxed_power else pen
    )
    vs = prox_separable(ts, spec.lam, g)
    if boxed_power:
        vs = prox_power_root(vs, spec.lam * pen.weight, pen.p)
    if spec.box is not None:
        vs = np.clip(vs, *spec.box)
    lines = ["t,prox"] + [f"{t!r},{v!r}" for t, v in zip(ts.tolist(), vs.tolist())]
    out = Path(spec.out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_text(out, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# instance generation to files


def _write_csv_matrix(a, path) -> None:
    write_text(path, "".join(",".join(map(repr, row)) + "\n" for row in a.tolist()))


def cmd_gen(m: int, n: int, seed: int, scale: float, outdir: str, prefix: str) -> int:
    a, y, x_true = _synthetic_data(m, n, seed, scale)
    Path(outdir).mkdir(parents=True, exist_ok=True)
    for name, data in (("A", a), ("y", y[:, None]), ("x_true", x_true[:, None])):
        path = Path(outdir) / f"{prefix}_{name}.csv"
        _write_csv_matrix(data, path)
        print(path)
    return 0


# ---------------------------------------------------------------------------
# artifact audit


def cmd_audit(trace_path, support_path) -> int:
    """Re-derive a run's trace, support and rate verdicts from its files by
    `decide_audits`, as `analyze` does; f* and whether the run converged
    come from the <prefix>_summary.json beside <prefix>_trace.csv.  The
    <prefix>_rate.json there must exist exactly when the rate audit is not
    skipped, and hold the re-derived document, ``tail_bound`` aside."""
    problems, trace_path = [], Path(trace_path)
    stem = trace_path.name[: -len("trace.csv")]
    try:
        if not trace_path.name.endswith("_trace.csv"):
            raise ValueError("the trace is not named <prefix>_trace.csv")
        summary = json.loads(trace_path.with_name(stem + "summary.json").read_text())
        f_star, converged = float(summary["f_star"]), bool(summary["converged"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"summary: cannot read f_star and converged: {exc!r}")
    try:
        columns = solver.read_trace_csv(trace_path)
    except (OSError, ValueError) as exc:
        problems.append(f"trace: {exc}")
    try:
        report = json.loads(Path(support_path).read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"support: cannot load: {exc!r}")
    if not problems:
        # a report with a missing or malformed key fails the support rules
        audits, problems, rate = decide_audits(columns, f_star, converged, report)
        rate_path = trace_path.with_name(stem + "rate.json")
        problems += _rate_file_rules(rate_path, audits["rate"], rate)
    for p in problems:
        print(f"FAIL {p}")
    if not problems:
        print("ok: trace, support report and rate are consistent")
    return 1 if problems else 0


def _rate_file_rules(path: Path, verdict: str, rate: Optional[dict]) -> list:
    """A rate file's failed rules against the ``rate`` re-derived from the
    trace; a skipped rate audit has no document and admits no file."""
    if rate is None:
        stray = f"rate: {path.name} exists, but the rate audit is {verdict}"
        return [stray] if path.exists() else []
    try:
        written = json.loads(path.read_text())
        written.pop("tail_bound", None)
    except (OSError, ValueError, AttributeError) as exc:
        return [f"rate: cannot load: {exc!r}"]
    keys = rate.keys() | written.keys()
    differ = ", ".join(sorted(k for k in keys if rate.get(k) != written.get(k)))
    if not differ:
        return []
    return [f"rate: {path.name} differs from the trace's rate in {differ}"]


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
    p_aud = sub.add_parser("audit", help="re-derive trace, support and rate verdicts")
    p_aud.add_argument("trace", help="trace CSV")
    p_aud.add_argument("report", help="support report JSON")
    return parser


def main(argv=None) -> int:
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
