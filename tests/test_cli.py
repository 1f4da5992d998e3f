import importlib.util
import json
import math
import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import gallery_csv_by_point, iterates, soft_interval

from threshgrad import cli, solver
from threshgrad.analysis import analyze, decide_audits
from threshgrad.cli import (
    ConfigError,
    ExperimentConfig,
    GallerySpec,
    emit_prox_gallery,
    generate_synthetic,
    main,
    parse_experiment_config,
    parse_gallery_spec,
    run_experiment,
    _build_problem,
    _resolve_x0,
)
from threshgrad.conditioning import estimate_gamma, fit_rate, polish
from threshgrad.regularizers import (
    Interval,
    PowerPenalty,
    SeparableRegularizer,
    ZeroPenalty,
)


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = """\
[problem]
source = builtin
name = ex_nocq
"""


# ---------------------------------------------------------------------------
# experiment config parsing


def test_parse_minimal_builtin_config(tmp_path):
    cfg = parse_experiment_config(write_config(tmp_path, MINIMAL))
    assert cfg.source == "builtin"
    assert cfg.builtin_name == "ex_nocq"
    assert cfg.lam is None
    assert cfg.interval == Interval(-1.0, 1.0)
    assert cfg.interval_overrides == {}
    assert cfg.penalty == ZeroPenalty()


def test_parse_full_synthetic_config(tmp_path):
    text = """\
[problem]
source = synthetic
m = 20
n = 50
seed = 7
scale = 2.0

[regularizer]
interval = -0.5 1.5
interval_3 = -2.0 2.0
penalty = power 4 0.5

[solver]
lambda = 0.25
max_iter = 5000
x0 = ones

[output]
dir = out
prefix = exp
"""
    cfg = parse_experiment_config(write_config(tmp_path, text))
    assert (cfg.m, cfg.n, cfg.seed, cfg.scale) == (20, 50, 7, 2.0)
    assert cfg.interval == Interval(-0.5, 1.5)
    assert cfg.interval_overrides == {3: Interval(-2.0, 2.0)}
    assert cfg.penalty == PowerPenalty(4.0, 0.5)
    assert (cfg.lam, cfg.max_iter, cfg.x0) == (0.25, 5000, "ones")
    assert cfg.outdir == "out" and cfg.prefix == "exp"


@pytest.mark.parametrize(
    "text,needle",
    [
        ("[problem]\nsource = builtin\nname = nope\n", "name"),
        ("[problem]\nsource = mystery\n", "source"),
        ("[problem]\nsource = synthetic\nm = 5\nn = 5\n", "seed"),
        ("[problem]\nsource = builtin\nname = ex_cq\nm = 5\n", "not valid"),
        (MINIMAL + "[typo]\nx = 1\n", "unknown section"),
        (MINIMAL + "[solver]\nstep = 0.5\n", "unknown key"),
        (MINIMAL + "[regularizer]\nomega = 1.0\n", "unknown key 'omega'"),
        (MINIMAL + "[regularizer]\npenalty = cubic\n", "penalty"),
        (MINIMAL + "[regularizer]\ninterval_x = -1 1\n", "bad key"),
        (MINIMAL + "[solver]\nrecord_every = 5\n", "unknown key 'record_every'"),
        (MINIMAL + "[solver]\nx0 = file:/does/not/exist.csv\n", "not found"),
        ("[solver]\nlambda = 0.5\n", "required"),
        # the solver tolerance is a library default
        (MINIMAL + "[solver]\nresidual_tol = 1e-8\n", "unknown key 'residual_tol'"),
        # there is no [analysis] section: its tolerances and sampling
        # parameters are library defaults, whether the rate audit applies is
        # read off the run, and the growth certificate runs on every run
        (MINIMAL + "[analysis]\ngamma = true\n", "unknown section"),
        (MINIMAL + "[analysis]\nsupport_audit = false\n", "unknown section"),
        (MINIMAL + "[analysis]\nfejer = false\n", "unknown section"),
        (MINIMAL + "[analysis]\nwindow_fraction = 0.5\n", "unknown section"),
        (MINIMAL + "[analysis]\nrate_fit = false\n", "unknown section"),
        (MINIMAL + "[analysis]\ngamma_samples = 10\n", "unknown section"),
        (MINIMAL + "[analysis]\ngamma_delta = 0.5\n", "unknown section"),
        (MINIMAL + "[analysis]\ngamma_r = 0.5\n", "unknown section"),
        (MINIMAL + "[analysis]\ngamma_p = 2\n", "unknown section"),
        (MINIMAL + "[analysis]\ngamma_seed = 1\n", "unknown section"),
        (MINIMAL + "[analysis]\npolish_tol = 1e-12\n", "unknown section"),
        (
            MINIMAL + "[regularizer]\npenalty = power inf\n",
            r"\[regularizer\] penalty: power penalty needs finite p > 1, got inf",
        ),
        (
            MINIMAL + "[regularizer]\npenalty = power 2 inf\n",
            r"\[regularizer\] penalty: power penalty needs finite weight >= 0, got inf",
        ),
        (MINIMAL + "[regularizer]\npenalty = power 1.5 1.0 box -1 1\n", "penalty must be"),
        (MINIMAL + "[regularizer]\ninterval = -1 1 2\n", "interval must be"),
        (
            MINIMAL + "[regularizer]\ninterval_3 = -2 2\ninterval_03 = -0.5 0.5\n",
            "keys 'interval_3' and 'interval_03' both set index 3",
        ),
    ],
)
def test_parse_rejects_bad_configs(tmp_path, text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_experiment_config(write_config(tmp_path, text))


def test_parse_missing_file():
    with pytest.raises(ConfigError):
        parse_experiment_config("/no/such/config.ini")


def test_experiment_config_rejects_a_default_section(tmp_path, capsys):
    # configparser copies [DEFAULT] keys into every section
    path = write_config(tmp_path, "[DEFAULT]\nprefix = p\n" + MINIMAL)
    with pytest.raises(ConfigError, match=r"\[DEFAULT\] section is not allowed"):
        parse_experiment_config(path)
    assert main(["run", str(path)]) == 2
    assert "[DEFAULT]" in capsys.readouterr().err
    # a [DEFAULT] header with no keys sets nothing
    empty = write_config(tmp_path, "[DEFAULT]\n" + MINIMAL, "empty.ini")
    assert parse_experiment_config(empty).builtin_name == "ex_nocq"


def test_files_source_requires_existing_data(tmp_path):
    text = "[problem]\nsource = files\nmatrix = missing.csv\ny = missing.csv\n"
    with pytest.raises(ConfigError, match="not found"):
        parse_experiment_config(write_config(tmp_path, text))


def test_config_ini_roundtrip(tmp_path):
    text = """\
[problem]
source = synthetic
m = 6
n = 9
seed = 3

[regularizer]
interval = -0.25 1.0
interval_2 = -3.0 3.0
penalty = power 1.5 2.0

[solver]
lambda = 0.125

[output]
prefix = round
"""
    cfg = parse_experiment_config(write_config(tmp_path, text))
    assert cfg.interval_overrides == {2: Interval(-3.0, 3.0)}
    assert cfg.penalty == PowerPenalty(1.5, 2.0)
    echoed = parse_experiment_config(write_config(tmp_path, cfg.to_ini(), "echo.ini"))
    assert echoed == cfg


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EXPERIMENT_CONFIGS = sorted(
    p.stem for p in CONFIGS.glob("*.ini") if not p.stem.startswith("gallery_")
)


@pytest.mark.parametrize("name", EXPERIMENT_CONFIGS)
def test_shipped_config_runs_audits_and_round_trips(tmp_path, name, capsys):
    cfg = parse_experiment_config(CONFIGS / f"{name}.ini")
    echoed = parse_experiment_config(write_config(tmp_path, cfg.to_ini(), "echo.ini"))
    assert echoed == cfg
    cfg.outdir = str(tmp_path / "out")
    code, summary = run_experiment(cfg)
    assert code == 0
    assert "fail" not in summary["audits"].values()
    arts = summary["artifacts"]
    assert main(["audit", arts["trace"], arts["support"]]) == 0
    assert "ok:" in capsys.readouterr().out
    # ex_cq converges in one iteration: no tail, so no rate file
    assert ("rate" in arts) is (name != "ex_cq")
    # the audits are decided in analyze; run writes its rate document as is
    problem, _ = _build_problem(cfg)
    x0 = _resolve_x0(cfg, problem.n)
    result = analyze(
        problem, solver.SolverConfig(lam=cfg.lam, max_iter=cfg.max_iter, x0=x0)
    )
    assert result.audits == summary["audits"]
    assert result.warnings == summary["warnings"]
    rate_file = Path(cfg.outdir) / f"{cfg.prefix}_rate.json"
    if result.rate is None:
        assert "rate" not in summary and not rate_file.exists()
    else:
        assert json.loads(rate_file.read_text()) == result.rate == summary["rate"]


@pytest.mark.parametrize("name", ["lasso", "lasso_power15", "lasso_power4", "ex_nocq"])
def test_shipped_growth_certificate_is_below_the_sampled_constant(tmp_path, name):
    cfg = parse_experiment_config(CONFIGS / f"{name}.ini")
    cfg.outdir = str(tmp_path)
    _, summary = run_experiment(cfg)
    assert summary["audits"]["gamma"] == "pass"
    cert = summary["gamma"]
    assert cert["J"] == summary["support"]["esupp"]
    problem, _ = _build_problem(cfg)
    est = estimate_gamma(problem, cert["J"], np.array(summary["x_bar"]))
    # the sampled minimum bounds the face constant from above; on ex_nocq it
    # reads 0.99999999614 against the exact 1, hence the relative slack
    assert cert["gamma_face"] <= est.gamma * (1.0 + 1e-8)


def test_run_skips_gamma_on_an_empty_extended_support(tmp_path):
    # at scale 1e-4 the zero start is optimal with a strictly interior dual
    # point: esupp is empty, so the face is the point x_bar itself
    cfg = parse_experiment_config(CONFIGS / "lasso.ini")
    cfg.scale, cfg.outdir = 1e-4, str(tmp_path)
    code, summary = run_experiment(cfg)
    assert code == 0
    assert summary["n_iterations"] == 0 and summary["support"]["esupp"] == []
    assert summary["audits"]["gamma"].startswith("skipped: esupp is empty")
    assert "gamma" not in summary


# ---------------------------------------------------------------------------
# run_experiment


def run_builtin(tmp_path, name, extra="", prefix="run"):
    text = (
        f"[problem]\nsource = builtin\nname = {name}\n"
        f"[output]\ndir = {tmp_path}\nprefix = {prefix}\n" + extra
    )
    cfg = parse_experiment_config(write_config(tmp_path, text, f"{prefix}.ini"))
    return run_experiment(cfg)


def test_run_scalar_builtin_end_to_end(tmp_path):
    code, summary = run_builtin(
        tmp_path, "ex_nocq", "[solver]\nlambda = 0.5\nx0 = ones\n"
    )
    assert code == 0
    assert summary["converged"]
    assert summary["n_iterations"] == 34
    assert summary["f_star"] == 0.5
    assert summary["x_bar"] == [0.0]
    assert summary["support"]["esupp"] == [0]
    assert summary["support"]["qualification_holds"] is False
    assert summary["support"]["identification_iteration"] == 1
    assert summary["rate"]["regime"] == "linear"
    assert summary["rate"]["epsilon"] == pytest.approx(0.25, abs=1e-9)
    assert summary["audits"] == {
        "trace": "pass",
        "support": "pass",
        "rate": "pass",
        "gamma": "pass",
    }
    for key in ("trace", "support", "rate", "summary"):
        assert os.path.exists(summary["artifacts"][key])
    on_disk = json.loads((tmp_path / "run_summary.json").read_text())
    assert on_disk["exit_code"] == 0


def test_run_segment_builtin(tmp_path):
    code, summary = run_builtin(tmp_path, "ex_cq", prefix="seg")
    assert code == 0
    assert summary["f_star"] == pytest.approx(0.75, abs=1e-12)
    x = summary["x_bar"]
    assert x[0] - x[1] == pytest.approx(0.5, abs=1e-10)
    assert summary["support"]["esupp"] == [0, 1]
    assert summary["support"]["qualification_holds"] is True
    # one iteration leaves no tail to fit a rate on
    assert summary["audits"]["rate"] == (
        "skipped: converged at iteration 1 with 0 usable tail points, "
        "need >= 8 to fit a rate"
    )
    assert "rate" not in summary and "rate" not in summary["artifacts"]
    assert summary["diagnostics"]["lipschitz"] == {"value": 4.0, "source": "builtin"}
    report = json.loads((tmp_path / "seg_support.json").read_text())
    assert report["rho_sol"] is None
    assert report["dual_point"] == pytest.approx([1.0, -1.0], abs=1e-10)


def test_run_with_gamma_estimate(tmp_path):
    code, summary = run_builtin(
        tmp_path, "ex_nocq", "[solver]\nlambda = 0.5\nx0 = ones\n", prefix="gam"
    )
    assert code == 0
    assert summary["audits"]["gamma"] == "pass"
    # A_J = [[1]]: sigma_min^2 is exactly 1
    assert summary["gamma"] == {"gamma_face": 1.0, "J": [0]}


def test_run_gamma_skipped_on_segment(tmp_path):
    code, summary = run_builtin(tmp_path, "ex_cq", prefix="skip")
    assert code == 0
    # the segment's two esupp columns are parallel
    assert summary["audits"]["gamma"] == (
        "skipped: minimizer not certified unique: rank(A_D) = 1 of |D| = 2"
    )
    assert "gamma" not in summary


def test_run_applies_the_report_rules(tmp_path, monkeypatch):
    from threshgrad import support

    original = support.build_support_report

    def claims_qualification(*args, **kwargs):
        report = original(*args, **kwargs)
        report["qualification_holds"] = True  # ex_nocq: supp [] != esupp [0]
        return report

    monkeypatch.setattr(support, "build_support_report", claims_qualification)
    code, summary = run_builtin(
        tmp_path, "ex_nocq", "[solver]\nlambda = 0.5\nx0 = ones\n"
    )
    assert code == 1
    assert summary["audits"]["support"] == "fail"
    assert any("qualification claimed" in w for w in summary["warnings"])
    # the listed failure is read off the document that was written
    written = json.loads(Path(summary["artifacts"]["support"]).read_text())
    assert written["qualification_holds"] is True
    listed = [w for w in summary["warnings"] if w.startswith("support: ")]
    assert listed == support.report_rules(written) != []


@pytest.mark.parametrize("name", ["lasso", "ex_nocq", "lasso_power15"])
def test_summary_support_is_the_written_document(tmp_path, name):
    cfg = parse_experiment_config(CONFIGS / f"{name}.ini")
    cfg.outdir = str(tmp_path)
    _, summary = run_experiment(cfg)
    written = json.loads(Path(summary["artifacts"]["support"]).read_text())
    del written["active_constraints"], written["dual_point"]
    assert summary["support"] == written


def test_run_reports_nonconvergence(tmp_path):
    code, summary = run_builtin(
        tmp_path,
        "ex_nocq",
        "[solver]\nlambda = 0.5\nx0 = ones\nmax_iter = 3\n",
        prefix="stall",
    )
    assert code == 1
    assert not summary["converged"]
    assert any("without reaching" in w for w in summary["warnings"])
    # a run stopped short of convergence is not excused from the rate audit
    assert summary["audits"]["rate"] == "fail"
    assert "rate: inconclusive: 2 usable tail points, need >= 8" in summary["warnings"]


def test_run_names_why_the_rate_is_inconclusive(tmp_path):
    # a 1x1 instance converges in one iteration, leaving no tail to fit
    text = "[problem]\nsource = synthetic\nm = 1\nn = 1\nseed = 0\n"
    cfg = parse_experiment_config(
        write_config(tmp_path, text + f"[output]\ndir = {tmp_path}\n")
    )
    code, summary = run_experiment(cfg)
    assert code == 0
    assert summary["converged"] and summary["n_iterations"] == 1
    assert summary["audits"]["rate"] == (
        "skipped: converged at iteration 1 with 0 usable tail points, "
        "need >= 8 to fit a rate"
    )
    assert summary["warnings"] == []
    assert "rate" not in summary["artifacts"]
    assert not (tmp_path / "run_rate.json").exists()


def test_run_names_why_the_tail_bound_is_skipped(tmp_path):
    # p/(p-2) = 2001 overflows n^(p/(p-2)) on the tail window
    cfg = ExperimentConfig(
        source="synthetic", m=20, n=50, seed=7, penalty=PowerPenalty(2.001)
    )
    cfg.outdir = str(tmp_path)
    code, summary = run_experiment(cfg)
    assert code == 0
    assert summary["audits"]["rate"] == "pass"
    skipped = (
        "tail bound check skipped: n^2001 overflows on the tail window "
        "(p = 2.001)"
    )
    assert summary["warnings"] == [skipped]
    assert "tail_bound" not in summary["rate"]


@pytest.mark.parametrize(
    "penalty, exponent",
    [
        (PowerPenalty(4.0), 2.0),
        (PowerPenalty(3.0, 0.0), None),  # weight 0 is psi = 0: no order
        (PowerPenalty(2.0), None),
        (ZeroPenalty(), None),
    ],
)
def test_run_writes_the_tail_bound_for_power_penalties_above_two(
    tmp_path, penalty, exponent
):
    cfg = ExperimentConfig(
        source="synthetic", m=12, n=30, seed=5, penalty=penalty, outdir=str(tmp_path)
    )
    code, summary = run_experiment(cfg)
    assert code == 0
    on_disk = json.loads((tmp_path / "run_rate.json").read_text())
    assert on_disk == summary["rate"]
    if exponent is None:
        assert "tail_bound" not in on_disk
    else:
        bound = on_disk["tail_bound"]
        assert bound["exponent"] == exponent
        assert bound["constant"] > 0.0
        assert math.isfinite(bound["trend_slope"])


@pytest.mark.parametrize("spelling", ["weightless", "zero-first", "weightless-first"])
def test_every_spelling_of_zero_psi_writes_the_same_artifacts(
    tmp_path, monkeypatch, spelling
):
    # the lasso instance: psi = 0 as ZeroPenalty(), as weight 0, or as an
    # alternation of the two starting with either
    zero, weightless = ZeroPenalty(), PowerPenalty(4.0, 0.0)

    def artifacts(penalty, outdir):
        cfg = ExperimentConfig(
            source="synthetic", m=20, n=50, seed=7, penalty=penalty, outdir=str(outdir)
        )
        assert run_experiment(cfg)[0] == 0
        names = ("run_trace.csv", "run_support.json", "run_rate.json")
        return [(outdir / name).read_bytes() for name in names]

    want = artifacts(zero, tmp_path / "none")
    if spelling != "weightless":
        pair = (zero, weightless) if spelling == "zero-first" else (weightless, zero)
        build = cli._build_regularizer

        def alternating(cfg, n):
            g = build(cfg, n)
            return SeparableRegularizer(g.intervals, tuple(pair[k % 2] for k in range(n)))

        monkeypatch.setattr(cli, "_build_regularizer", alternating)
    assert artifacts(weightless, tmp_path / spelling) == want


def test_run_certifies_gamma_on_an_unbounded_interval(tmp_path):
    # the certificate reads sigma_min(A_J), so it needs no bounded interval;
    # the dual point 1 sits on the finite endpoint, so esupp = {0}
    code, summary = run_builtin(
        tmp_path, "ex_nocq", "[regularizer]\ninterval = -inf 1\n", prefix="unb"
    )
    assert code == 0
    assert summary["audits"]["gamma"] == "pass"
    assert summary["gamma"] == {"gamma_face": 1.0, "J": [0]}


def test_run_synthetic_is_deterministic(tmp_path):
    text = """\
[problem]
source = synthetic
m = 12
n = 30
seed = 5
"""
    artifacts = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        cfg = parse_experiment_config(
            write_config(tmp_path, text + f"[output]\ndir = {d}\n", f"{sub}.ini")
        )
        code, summary = run_experiment(cfg)
        assert code == 0
        artifacts.append(
            (
                (d / "run_trace.csv").read_bytes(),
                (d / "run_support.json").read_bytes(),
                (d / "run_rate.json").read_bytes(),
            )
        )
    assert artifacts[0] == artifacts[1]


def _counting(monkeypatch, owner, name="run"):
    """Replace ``owner.name`` by a wrapper that counts its calls in ``.n``."""
    count = SimpleNamespace(n=0)
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        count.n += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return count


def test_run_experiment_solves_once_with_fejer(tmp_path, monkeypatch):
    # polish calls the solver through its own binding, so only the solves
    # made by run_experiment itself are counted
    calls = _counting(monkeypatch, solver)
    text = "[problem]\nsource = synthetic\nm = 12\nn = 30\nseed = 5\n"
    cfg = parse_experiment_config(
        write_config(tmp_path, text + f"[output]\ndir = {tmp_path / 'out'}\n")
    )
    code, summary = run_experiment(cfg)
    assert code == 0
    # the trace rules check the distances for Fejer monotonicity
    assert summary["audits"]["trace"] == "pass"
    assert "fejer" not in summary["audits"]
    assert calls.n == 1
    diag = summary["diagnostics"]
    assert diag["support_changes"] > 0
    assert diag["iterate_log_bytes"] > 0
    assert diag["lipschitz"] == {"value": 1.0, "source": "synthetic"}
    rows = (tmp_path / "out" / "run_trace.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[4] for row in rows)  # every distance written


def _batch_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "identification_batch.py"
    spec = importlib.util.spec_from_file_location("identification_batch", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_identification_batch_solves_once_per_seed(monkeypatch):
    script = _batch_script()
    calls = _counting(monkeypatch, solver)
    # the benchmark serves prebuilt instances through this module global
    built = _counting(monkeypatch, script, "generate_synthetic")
    row = script.audit_seed(0, 20, 50)
    assert calls.n == 1 and built.n == 1
    assert row["violations"] <= row["budget"]
    assert row["regime"] == "linear"


def test_identification_batch_row_of_a_skipped_seed(monkeypatch):
    # ex_cq converges in one iteration, so its rate audit is skipped
    script = _batch_script()
    problem, _ = _build_problem(ExperimentConfig(builtin_name="ex_cq"))
    monkeypatch.setattr(script, "generate_synthetic", lambda m, n, seed: problem)
    assert script.audit_seed(3, 1, 2) == {
        "seed": 3,
        "violations": 0,
        "budget": 0,
        "identified_at": 1,
        "esupp_size": 2,
        "regime": "skipped",
        "epsilon": None,
        "r_squared": None,
    }


def test_run_from_config_echo_reproduces_trace(tmp_path):
    text = f"""\
[problem]
source = synthetic
m = 10
n = 24
seed = 2

[output]
dir = {tmp_path / "first"}
"""
    cfg = parse_experiment_config(write_config(tmp_path, text))
    code, summary = run_experiment(cfg)
    assert code == 0
    echo = parse_experiment_config(
        write_config(tmp_path, summary["config_ini"], "echo.ini")
    )
    echo.outdir = str(tmp_path / "second")
    run_experiment(echo)
    first = (tmp_path / "first" / "run_trace.csv").read_bytes()
    second = (tmp_path / "second" / "run_trace.csv").read_bytes()
    assert first == second


def write_files_config(tmp_path, a_path, y_path, extra=""):
    text = (
        f"[problem]\nsource = files\nmatrix = {a_path}\ny = {y_path}\n{extra}"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    return write_config(tmp_path, text)


def test_run_with_data_files(tmp_path):
    assert main(["gen", "6", "9", "4", "--outdir", str(tmp_path), "--prefix", "inst"]) == 0
    cfg = parse_experiment_config(
        write_files_config(tmp_path, tmp_path / "inst_A.csv", tmp_path / "inst_y.csv")
    )
    code, summary = run_experiment(cfg)
    assert code == 0
    assert summary["m"] == 6 and summary["n"] == 9
    assert summary["converged"]


def _write_csv(path, rows):
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    return path


@pytest.mark.parametrize("y, warned", [([0.5, 3.0], True), ([3.0, 0.5], False)])
def test_run_warns_when_esupp_touches_the_last_coordinate(tmp_path, y, warned):
    # A = I: x_bar is y soft-thresholded, so esupp is where |y_k| >= 1
    cfg = write_files_config(
        tmp_path,
        _write_csv(tmp_path / "A.csv", [[1.0, 0.0], [0.0, 1.0]]),
        _write_csv(tmp_path / "y.csv", [[v] for v in y]),
    )
    _, summary = run_experiment(parse_experiment_config(cfg))
    assert summary["support"]["esupp"] == ([1] if warned else [0])
    message = (
        "extended support touches the last coordinate; if this instance "
        "truncates a larger problem, the truncation is too short"
    )
    assert (message in summary["warnings"]) is warned


def test_run_gamma_skipped_on_a_duplicated_column(tmp_path):
    # batch instance seed 3, with a copy of a column where x_bar is nonzero
    problem = generate_synthetic(20, 50, 3)
    trace = solver.run(problem, solver.SolverConfig(residual_tol=1e-10))
    k = int(np.flatnonzero(polish(problem, trace)[0])[0])
    a = np.column_stack([problem.h.op, problem.h.op[:, k]])
    cfg = write_files_config(
        tmp_path,
        _write_csv(tmp_path / "A.csv", a),
        _write_csv(tmp_path / "y.csv", problem.h.y[:, None]),
    )
    code, summary = run_experiment(parse_experiment_config(cfg))
    assert code == 0
    assert {k, 50} <= set(summary["support"]["esupp"])
    assert len(summary["support"]["esupp"]) == 10
    assert summary["audits"]["gamma"] == (
        "skipped: minimizer not certified unique: rank(A_D) = 9 of |D| = 10"
    )
    assert "gamma" not in summary


def test_main_certifies_a_strictly_convex_problem(tmp_path):
    # A = [[1, 1]]: the columns are parallel, but the power penalty makes
    # every coordinate strictly convex, so the minimizer is unique
    cfg = write_files_config(
        tmp_path,
        _write_csv(tmp_path / "A.csv", [[1.0, 1.0]]),
        _write_csv(tmp_path / "y.csv", [[3.0]]),
        "[regularizer]\ninterval = -0.1 0.1\npenalty = power 2 1e-4\n",
    )
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    # unique, yet A_J is rank-deficient: no growth constant on the face
    assert summary["audits"]["gamma"] == (
        "skipped: no growth certificate: rank(A_J) = 1 of |J| = 2"
    )
    assert "gamma" not in summary
    assert summary["audits"]["rate"].startswith("skipped: converged at iteration 1 ")


def test_run_writes_the_distances_analyze_measured(tmp_path):
    cfg = ExperimentConfig(
        source="synthetic", m=20, n=50, seed=3, outdir=str(tmp_path)
    )
    _, summary = run_experiment(cfg)
    result = analyze(generate_synthetic(20, 50, 3), solver.SolverConfig())
    want = result.trace.distances_to(result.x_bar)
    assert result.dists.tobytes() == want.tobytes()
    written = solver.read_trace_csv(summary["artifacts"]["trace"])[3]
    assert np.array(written).tobytes() == want.tobytes()


def test_run_auto_lipschitz_is_exact_where_power_iteration_stalls(tmp_path):
    # A's top right singular vector q2 is orthogonal to v, so a power
    # iteration started at v (seeded as below) stays on q1 and reads
    # ||A||^2 = 1 instead of 4; the step 1/1.01 > 2/4 then diverges
    rng = np.random.default_rng(20210607)
    v = rng.random(3) + 0.5
    v /= np.linalg.norm(v)
    e1, e2, e3 = np.eye(3)
    q, _ = np.linalg.qr(np.column_stack([v, e2, e3]))
    q1, q2, q3 = q.T
    a = 2.0 * np.outer(e1, q2) + np.outer(e2, q1) + 0.5 * np.outer(e3, q3)
    y = a @ np.array([3.0, -2.0, 1.0])
    cfg = write_files_config(
        tmp_path,
        _write_csv(tmp_path / "A.csv", a),
        _write_csv(tmp_path / "y.csv", y[:, None]),
        "[regularizer]\ninterval = -0.1 0.1\n",
    )
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["converged"]
    assert summary["lam"] == pytest.approx(0.25, rel=1e-14)
    assert summary["diagnostics"]["lipschitz"]["source"] == "exact"


@pytest.mark.parametrize(
    "extra, source",
    [("lipschitz = auto\n", "exact"), ("lipschitz = 5.0\n", "config")],
)
def test_run_records_where_lipschitz_came_from(tmp_path, extra, source):
    from threshgrad.operators import operator_norm, read_dense_matrix

    assert main(["gen", "6", "9", "4", "--outdir", str(tmp_path), "--prefix", "inst"]) == 0
    a_path = tmp_path / "inst_A.csv"
    cfg = write_files_config(tmp_path, a_path, tmp_path / "inst_y.csv", extra)
    code, summary = run_experiment(parse_experiment_config(cfg))
    assert code == 0
    want = 5.0 if source == "config" else operator_norm(read_dense_matrix(a_path)) ** 2
    assert summary["diagnostics"]["lipschitz"] == {"value": want, "source": source}
    on_disk = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert on_disk["diagnostics"]["lipschitz"] == {"value": want, "source": source}


@pytest.mark.parametrize(
    "where, bad, message",
    [
        ("A", math.nan, "the matrix has non-finite entries"),
        ("y", math.inf, "the data vector has non-finite entries"),
    ],
)
def test_run_rejects_non_finite_data_and_writes_nothing(tmp_path, capsys, where, bad, message):
    assert main(["gen", "4", "5", "1", "--outdir", str(tmp_path), "--prefix", "inst"]) == 0
    path = tmp_path / f"inst_{where}.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[1][0] = repr(bad)
    _write_csv(path, rows)
    cfg = write_files_config(tmp_path, tmp_path / "inst_A.csv", tmp_path / "inst_y.csv")
    assert main(["run", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_matrix_market_file_and_writes_nothing(tmp_path, capsys):
    # matrix input is CSV only: the Matrix Market header is not a number
    a_path = tmp_path / "A.mtx"
    a_path.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0\n2.0\n")
    y_path = _write_csv(tmp_path / "y.csv", [[1.0], [2.0]])
    assert main(["run", str(write_files_config(tmp_path, a_path, y_path))]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra",
    ["[solver]\nlambda = 2.0\n", "[solver]\nx0 = file:{x0}\n"],
)
def test_run_rejects_its_step_or_start_and_writes_nothing(tmp_path, extra):
    x0 = _write_csv(tmp_path / "x0.csv", [[1.0], [2.0]])  # ex_nocq has n = 1
    text = MINIMAL + f"[output]\ndir = {tmp_path / 'out'}\n" + extra.format(x0=x0)
    assert main(["run", str(write_config(tmp_path, text))]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, value, needle",
    [
        ("problem", "m", "0", "m and n must be >= 1, got m=0, n=4"),
        ("problem", "seed", "-1", "seed must be >= 0, got -1"),
        ("problem", "scale", "0", "scale must be a finite number > 0, got 0.0"),
        ("problem", "scale", "nan", "scale must be a finite number > 0, got nan"),
        ("problem", "lipschitz", "0", "lipschitz must be a finite number > 0, got 0.0"),
        ("problem", "lipschitz", "nan", "lipschitz must be a finite number > 0, got nan"),
        ("problem", "lipschitz", "-1", "lipschitz must be a finite number > 0, got -1.0"),
        ("solver", "lambda", "0", "step lam=0.0 outside"),
        ("solver", "lambda", "nan", "step lam=nan outside"),
        ("solver", "lambda", "inf", "step lam=inf outside"),
        ("solver", "max_iter", "-1", "max_iter must be >= 0, got -1"),
    ],
)
def test_run_rejects_an_out_of_range_value_and_writes_nothing(
    tmp_path, capsys, section, key, value, needle
):
    # the INI parses syntax only; the constructor that owns the value
    # rejects it when `run` builds the problem, before anything is written
    if key == "lipschitz":
        assert main(["gen", "3", "4", "1", "--outdir", str(tmp_path), "--prefix", "inst"]) == 0
        capsys.readouterr()
        problem = {"source": "files", "matrix": tmp_path / "inst_A.csv", "y": tmp_path / "inst_y.csv"}
    elif key in ("m", "seed", "scale"):
        problem = {"source": "synthetic", "m": 3, "n": 4, "seed": 1}
    else:
        problem = {"source": "builtin", "name": "ex_nocq"}
    sections = {"problem": problem, "solver": {}, "output": {"dir": tmp_path / "out"}}
    sections[section][key] = value
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )
    assert main(["run", str(write_config(tmp_path, text))]) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_files_config_built_in_code_rejects_a_zero_lipschitz(tmp_path):
    # a zero L is no Lipschitz constant: the term rejects it before any output
    assert main(["gen", "3", "4", "1", "--outdir", str(tmp_path), "--prefix", "inst"]) == 0
    cfg = ExperimentConfig(
        source="files",
        matrix_path=str(tmp_path / "inst_A.csv"),
        y_path=str(tmp_path / "inst_y.csv"),
        lipschitz=0.0,
        outdir=str(tmp_path / "out"),
    )
    with pytest.raises(ValueError, match="lipschitz must be a finite number > 0"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_auto_lipschitz_builds_the_term_once(tmp_path, monkeypatch):
    from threshgrad.operators import LeastSquaresTerm

    assert main(["gen", "6", "9", "4", "--outdir", str(tmp_path), "--prefix", "inst"]) == 0
    cfg = parse_experiment_config(
        write_files_config(
            tmp_path, tmp_path / "inst_A.csv", tmp_path / "inst_y.csv", "lipschitz = auto\n"
        )
    )
    calls = []
    post_init = LeastSquaresTerm.__post_init__

    def spy(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(LeastSquaresTerm, "__post_init__", spy)
    problem, l_source = _build_problem(cfg)
    assert len(calls) == 1 and l_source == "exact"
    assert calls[0] is problem.h


# ---------------------------------------------------------------------------
# prox gallery


def write_gallery(tmp_path, reg_lines, out_name="curve.csv", lo=-3, hi=3, steps=7):
    text = (
        f"[grid]\nlo = {lo}\nhi = {hi}\nsteps = {steps}\n"
        + reg_lines
        + f"[output]\npath = {tmp_path / out_name}\n"
    )
    return write_config(tmp_path, text, "gal.ini")


def read_curve(path):
    rows = path.read_text().strip().split("\n")[1:]
    pts = [tuple(map(float, row.split(","))) for row in rows]
    return [t for t, _ in pts], [v for _, v in pts]


def test_gallery_soft_threshold_curve(tmp_path):
    spec = parse_gallery_spec(write_gallery(tmp_path, ""))
    emit_prox_gallery(spec)
    ts, vs = read_curve(tmp_path / "curve.csv")
    assert ts == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    assert vs == [-2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0]


def test_gallery_quadratic_penalty_halves_soft_output(tmp_path):
    spec = parse_gallery_spec(
        write_gallery(tmp_path, "[regularizer]\npenalty = power 2\n")
    )
    emit_prox_gallery(spec)
    _, vs = read_curve(tmp_path / "curve.csv")
    assert vs == [-1.0, -0.5, 0.0, 0.0, 0.0, 0.5, 1.0]


def test_gallery_box_constrained_curve(tmp_path):
    spec = parse_gallery_spec(
        write_gallery(tmp_path, "[regularizer]\nbox = -0.5 0.75\n")
    )
    assert (spec.penalty, spec.box) == (ZeroPenalty(), (-0.5, 0.75))
    emit_prox_gallery(spec)
    _, vs = read_curve(tmp_path / "curve.csv")
    assert vs == [-0.5, -0.5, 0.0, 0.0, 0.0, 0.75, 0.75]


def test_gallery_power_box_penalty(tmp_path):
    spec = parse_gallery_spec(
        write_gallery(tmp_path, "[regularizer]\npenalty = power 2 1\nbox = -0.25 0.25\n")
    )
    assert (spec.penalty, spec.box) == (PowerPenalty(2.0, 1.0), (-0.25, 0.25))
    emit_prox_gallery(spec)
    _, vs = read_curve(tmp_path / "curve.csv")
    assert vs == [-0.25, -0.25, 0.0, 0.0, 0.0, 0.25, 0.25]


@pytest.mark.parametrize(
    "name",
    [
        "gallery_l1",
        "gallery_asymmetric_box",
        "gallery_power2",
        "gallery_power4",
        "gallery_power15_box",
    ],
)
def test_gallery_csv_equals_the_per_point_reference(tmp_path, name):
    # one prox_separable call over the grid writes the bytes that one
    # call per grid point writes
    spec = parse_gallery_spec(CONFIGS / f"{name}.ini")
    spec.out_path = str(tmp_path / "curve.csv")
    emit_prox_gallery(spec)
    assert (tmp_path / "curve.csv").read_text() == gallery_csv_by_point(spec)


@pytest.mark.parametrize(
    "unboxed, lo, hi, tol",
    [("none", 0.0, 1.0, 0.0), ("none", 0.25, 1.0, 0.0), ("power 1.05 1", -1.0, 1.0, 1e-12)],
)
def test_gallery_box_is_the_clamp_of_the_unboxed_curve(tmp_path, unboxed, lo, hi, tol):
    # the boxed power curve takes `prox_power_root`, the unboxed one
    # `prox_separable`; at this general order both solve the root to 1e-13
    curves = []
    for name, box in (("free", ""), ("boxed", f"box = {lo} {hi}\n")):
        text = f"[regularizer]\npenalty = {unboxed}\n{box}"
        spec = write_gallery(tmp_path, text, f"{name}.csv", lo=-3, hi=3, steps=61)
        assert main(["gallery", str(spec)]) == 0
        curves.append(read_curve(tmp_path / f"{name}.csv")[1])
    free, boxed = curves
    assert boxed == pytest.approx(np.clip(free, lo, hi).tolist(), abs=tol, rel=0)


def boxed_power15_spec(tmp_path, penalty, box=(-1.0, 1.0), name="curve.csv"):
    """`gallery_power15_box` (601 points, lam 0.5, I = [-1, 1]) with another
    penalty and box, written under tmp_path."""
    spec = parse_gallery_spec(CONFIGS / "gallery_power15_box.ini")
    return replace(spec, penalty=penalty, box=box, out_path=str(tmp_path / name))


def test_gallery_boxed_weightless_power_is_the_boxed_l1_curve(tmp_path):
    # c = lam * 0 leaves the soft-thresholded grid as it is, with no solve
    curves = []
    for name, pen in (("l1", ZeroPenalty()), ("power", PowerPenalty(1.5, 0.0))):
        spec = boxed_power15_spec(tmp_path, pen, name=f"{name}.csv")
        emit_prox_gallery(spec)
        curves.append((tmp_path / f"{name}.csv").read_bytes())
    assert curves[0] == curves[1]


@pytest.mark.parametrize(
    "p, weight",
    [
        (2.0, 1.0),
        (3.0, 1.0),
        (2.0, 0.3),
        pytest.param(
            3.0,
            0.3,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the root lands on r(s) == 0.0 at t = ±2.72, bisects away "
                "from it and returns 1.0009e-13 off the exact root",
            ),
        ),
    ],
)
def test_gallery_boxed_closed_form_orders_run_the_root(tmp_path, p, weight):
    # a boxed curve solves the Newton root at p = 2 and 3 too, and lies
    # within its 1e-13 tolerance of the closed forms
    spec = boxed_power15_spec(tmp_path, PowerPenalty(p, weight), box=(-3.0, 3.0))
    emit_prox_gallery(spec)
    ts, vs = read_curve(tmp_path / "curve.csv")
    v = soft_interval(np.array(ts), Interval(-spec.lam, spec.lam))
    a, c = np.abs(v), spec.lam * weight
    s = a / (1.0 + c) if p == 2.0 else 2.0 * a / (1.0 + np.sqrt(1.0 + 4.0 * c * a))
    assert np.max(np.abs(np.array(vs) - np.sign(v) * s)) <= 1e-13


def test_gallery_spec_validation(tmp_path):
    bad = [
        "[grid]\nlo = 0\nhi = 1\nsteps = 1\n[output]\npath = x.csv\n",
        "[grid]\nlo = 1\nhi = 0\nsteps = 5\n[output]\npath = x.csv\n",
        "[grid]\nlo = 0\nhi = 1\nsteps = 5\n",
        "[grid]\nlo = 0\nhi = 1\nsteps = 5\n[regularizer]\nbox = 1 0\n"
        "[output]\npath = x.csv\n",
        "[grid]\nlo = 0\nhi = 1\nsteps = 5\n[regularizer]\nbox = 0\n"
        "[output]\npath = x.csv\n",
        # the box is its own key, not a penalty form
        "[grid]\nlo = 0\nhi = 1\nsteps = 5\n[regularizer]\npenalty = box 0 1\n"
        "[output]\npath = x.csv\n",
        "[grid]\nhi = 1\nsteps = 5\n[output]\npath = x.csv\n",
        "[grid]\nlo = 0\nsteps = 5\n[output]\npath = x.csv\n",
        "[grid]\nlo = 0\nhi = 1\n[output]\npath = x.csv\n",
        "[grid]\nlo = 0\nhi = inf\nsteps = 5\n[output]\npath = x.csv\n",
        "[grid]\nlo = nan\nhi = 1\nsteps = 5\n[output]\npath = x.csv\n",
        "[grid]\nlo = 0\nhi = 1\nsteps = 5\nlam = 0\n[output]\npath = x.csv\n",
    ]
    for text in bad:
        path = write_config(tmp_path, text, "bad.ini")
        with pytest.raises(ConfigError):
            parse_gallery_spec(path)
        assert main(["gallery", str(path)]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_gallery_spec_rejects_a_default_section(tmp_path, capsys):
    text = (
        "[DEFAULT]\nlam = 2\n[grid]\nlo = 0\nhi = 1\nsteps = 5\n"
        f"[output]\npath = {tmp_path / 'x.csv'}\n"
    )
    path = write_config(tmp_path, text, "gal.ini")
    with pytest.raises(ConfigError, match=r"\[DEFAULT\] section is not allowed"):
        parse_gallery_spec(path)
    assert main(["gallery", str(path)]) == 2
    assert "[DEFAULT]" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "fields",
    [
        dict(lo=1.0, hi=0.0),
        dict(lo=0.0, hi=0.0),
        dict(lo=-math.inf, hi=1.0),
        dict(steps=1),
        dict(box=(1.0, 0.0)),
        dict(box=(0.5, 0.5)),
        dict(lam=math.inf),
        dict(lam=0.0),
        dict(lam=math.nan),
    ],
)
def test_gallery_spec_built_in_code_checks_itself(fields):
    with pytest.raises(ValueError):
        GallerySpec(**{"lo": -2.0, "hi": 2.0, "steps": 5, "out_path": "x.csv", **fields})


# ---------------------------------------------------------------------------
# instance generation


def test_gen_writes_deterministic_instance(tmp_path):
    outs = []
    for sub in ("one", "two"):
        d = tmp_path / sub
        assert main(["gen", "8", "20", "3", "--outdir", str(d)]) == 0
        outs.append(
            tuple((d / f"instance_{k}.csv").read_bytes() for k in ("A", "y", "x_true"))
        )
    assert outs[0] == outs[1]
    from threshgrad.operators import read_dense_matrix, read_vector

    a = read_dense_matrix(tmp_path / "one" / "instance_A.csv")
    assert a.shape == (8, 20)
    x_true = read_vector(tmp_path / "one" / "instance_x_true.csv")
    nz = x_true[x_true != 0.0]
    assert len(nz) == math.ceil(20 / 10)
    assert np.all((np.abs(nz) >= 10.0) & (np.abs(nz) <= 20.0))


@pytest.mark.parametrize(
    "missing, message",
    [
        ("m", "m and n must be >= 1, got m=None, n=50"),
        ("n", "m and n must be >= 1, got m=20, n=None"),
        ("seed", "seed must be >= 0, got None"),
    ],
)
def test_synthetic_config_built_in_code_names_a_missing_size(tmp_path, missing, message):
    sizes = {"m": 20, "n": 50, "seed": 7, missing: None}
    cfg = ExperimentConfig(source="synthetic", outdir=str(tmp_path / "out"), **sizes)
    with pytest.raises(ValueError) as raised:
        run_experiment(cfg)
    assert str(raised.value) == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "sizes, message",
    [
        ({"m": 3.0}, "m must be an integer, got 3.0"),
        ({"n": "50"}, "n must be an integer, got '50'"),
        ({"seed": 0.5}, "seed must be an integer, got 0.5"),
    ],
)
def test_synthetic_config_built_in_code_names_a_non_integer_size(tmp_path, sizes, message):
    sizes = {"m": 20, "n": 50, "seed": 7, **sizes}
    cfg = ExperimentConfig(source="synthetic", outdir=str(tmp_path / "out"), **sizes)
    with pytest.raises(ValueError) as raised:
        run_experiment(cfg)
    assert str(raised.value) == message
    assert not (tmp_path / "out").exists()


def test_synthetic_data_takes_numpy_integers():
    from threshgrad.analysis import _synthetic_data

    got = _synthetic_data(np.int64(7), np.int32(30), np.uint8(5), 0.5)
    for a, b in zip(got, _synthetic_data(7, 30, 5, 0.5)):
        assert a.tobytes() == b.tobytes()


def test_gen_files_are_the_repr_rows(tmp_path):
    from threshgrad.analysis import _synthetic_data

    # an older, longer file is overwritten to the new length
    (tmp_path / "inst_y.csv").write_text("9" * 10_000)
    assert main(["gen", "7", "30", "5", "--scale", "0.5", "--outdir", str(tmp_path),
                 "--prefix", "inst"]) == 0
    a, y, x_true = _synthetic_data(7, 30, 5, 0.5)
    for name, data in (("A", a), ("y", y[:, None]), ("x_true", x_true[:, None])):
        rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in data)
        assert (tmp_path / f"inst_{name}.csv").read_bytes() == rows.encode(), name


@pytest.mark.parametrize(
    "args",
    [
        ["0", "5", "1"],
        ["3", "4", "-1"],
        *(["3", "4", "1", "--scale", s] for s in ("nan", "inf", "0")),
    ],
)
def test_gen_rejects_out_of_domain_sizes_and_scales(tmp_path, args):
    out = tmp_path / "gen"
    assert main(["gen", *args, "--outdir", str(out)]) == 2
    assert not out.exists()


def test_generate_synthetic_problem():
    p = generate_synthetic(6, 15, seed=0, scale=3.0)
    assert p.h.lipschitz == 3.0
    top = np.linalg.svd(p.h.op, compute_uv=False)[0]
    assert top ** 2 == pytest.approx(3.0, rel=1e-12)
    q = generate_synthetic(6, 15, seed=0, scale=3.0)
    assert np.array_equal(p.h.op, q.h.op)
    assert np.array_equal(p.h.y, q.h.y)
    with pytest.raises(ValueError):
        generate_synthetic(0, 5, seed=0)


@pytest.mark.parametrize("m, n, seed, scale", [(6, 15, 0, 3.0), (20, 50, 7, 1.0), (9, 4, 11, 0.5)])
def test_synthetic_scaling_is_bitwise_the_full_svd(m, n, seed, scale):
    # the pinned synthetic artifacts depend on these exact bits
    from threshgrad.analysis import _synthetic_data

    a = np.random.default_rng(seed).standard_normal((m, n))
    a *= math.sqrt(scale) / np.linalg.svd(a, compute_uv=False)[0]
    assert _synthetic_data(m, n, seed, scale)[0].tobytes() == a.tobytes()


# ---------------------------------------------------------------------------
# artifact audit subcommand


def emitted_artifacts(tmp_path):
    run_builtin(tmp_path, "ex_nocq", "[solver]\nlambda = 0.5\nx0 = ones\n")
    return str(tmp_path / "run_trace.csv"), str(tmp_path / "run_support.json")


def test_audit_passes_on_fresh_artifacts(tmp_path, capsys):
    trace, support = emitted_artifacts(tmp_path)
    assert main(["audit", trace, support]) == 0
    assert "ok:" in capsys.readouterr().out


def test_audit_flags_corrupted_trace(tmp_path, capsys):
    trace, support = emitted_artifacts(tmp_path)
    lines = open(trace).read().strip().split("\n")
    parts = lines[3].split(",")
    parts[1] = "100.0"  # objective gap jumps upward
    lines[3] = ",".join(parts)
    open(trace, "w").write("\n".join(lines) + "\n")
    assert main(["audit", trace, support]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("blanked", [slice(None), slice(2, 3)])
def test_audit_fails_a_blank_distance_column(tmp_path, capsys, blanked):
    trace, support = emitted_artifacts(tmp_path)
    head, *rows = open(trace).read().strip().split("\n")
    # every row, or one row, without its distance to the reference
    rows[blanked] = [row.rsplit(",", 1)[0] + "," for row in rows[blanked]]
    open(trace, "w").write("\n".join([head, *rows]) + "\n")
    assert main(["audit", trace, support]) == 1
    line = 2 + range(len(rows))[blanked][0]
    want = f"FAIL trace: line {line}: expected 5 numbers, got {rows[line - 2]!r}"
    assert want in capsys.readouterr().out


def test_audit_flags_corrupted_support(tmp_path, capsys):
    trace, support = emitted_artifacts(tmp_path)
    rep = json.loads(open(support).read())
    rep["supp"] = [0]
    rep["esupp"] = []
    json.dump(rep, open(support, "w"))
    assert main(["audit", trace, support]) == 1
    out = capsys.readouterr().out
    assert "supp not contained" in out


def test_audit_missing_files(tmp_path):
    assert main(["audit", str(tmp_path / "no.csv"), str(tmp_path / "no.json")]) == 1


@pytest.mark.parametrize(
    "key,value,want",
    [
        ("rho_sol", None, "FAIL support: missing key 'rho_sol'\n"),
        ("esupp", None, "FAIL support: missing key 'esupp'\n"),
        ("identification_bound", "x", "FAIL support: identification_bound is not a number\n"),
        ("supp", [0.5], "FAIL support: supp is not a list of ints\n"),
    ],
)
def test_audit_flags_a_malformed_report(tmp_path, capsys, key, value, want):
    # the file loads, so the support rules name its defect
    trace, support = emitted_artifacts(tmp_path)
    rep = json.loads(open(support).read())
    if value is None:
        del rep[key]
    else:
        rep[key] = value
    json.dump(rep, open(support, "w"))
    capsys.readouterr()
    assert main(["audit", trace, support]) == 1
    assert capsys.readouterr().out == want


def test_audit_cannot_load_a_support_file_that_is_not_json(tmp_path, capsys):
    trace, support = emitted_artifacts(tmp_path)
    Path(support).write_text("{")
    capsys.readouterr()
    assert main(["audit", trace, support]) == 1
    assert capsys.readouterr().out.startswith("FAIL support: cannot load: JSONDecodeError")


def test_audit_requires_identification(tmp_path, capsys):
    trace, support = emitted_artifacts(tmp_path)
    rep = json.loads(open(support).read())
    rep["identification_iteration"] = None
    json.dump(rep, open(support, "w"))
    assert main(["audit", trace, support]) == 1
    assert "not identified" in capsys.readouterr().out


def test_audit_requires_the_summary(tmp_path, capsys):
    trace, support = emitted_artifacts(tmp_path)
    os.remove(tmp_path / "run_summary.json")
    assert main(["audit", trace, support]) == 1
    assert "FAIL summary" in capsys.readouterr().out


def shipped_run(tmp_path, name):
    """The summary of a shipped config run into ``tmp_path``."""
    cfg = parse_experiment_config(CONFIGS / f"{name}.ini")
    cfg.outdir = str(tmp_path)
    return run_experiment(cfg)[1]


@pytest.mark.parametrize("name", EXPERIMENT_CONFIGS)
def test_audit_re_derives_the_summary_verdicts_from_the_files(tmp_path, name):
    summary = shipped_run(tmp_path, name)
    arts = summary["artifacts"]
    columns = solver.read_trace_csv(arts["trace"])
    report = json.loads(Path(arts["support"]).read_text())
    audits, _, rate = decide_audits(
        columns, summary["f_star"], summary["converged"], report
    )
    assert audits == {k: summary["audits"][k] for k in ("trace", "support", "rate")}
    # the files do not name the penalty, so the tail bound is not re-derived
    want = dict(summary.get("rate", {}))
    want.pop("tail_bound", None)
    assert (rate or {}) == want
    assert main(["audit", arts["trace"], arts["support"]]) == 0


@pytest.mark.parametrize("case", ["epsilon", "regime", "deleted", "stray"])
def test_audit_fails_a_rate_file_that_is_not_the_trace_s_rate(tmp_path, capsys, case):
    name = "ex_cq" if case == "stray" else "lasso"
    summary = shipped_run(tmp_path, name)
    arts = summary["artifacts"]
    rate_file = tmp_path / f"{name}_rate.json"
    if case == "stray":
        # the document a run that had not converged would have written
        columns = solver.read_trace_csv(arts["trace"])
        rate = fit_rate(columns[0], columns[1], summary["f_star"], False)[2]
        rate_file.write_text(json.dumps(rate))
        want = f"FAIL rate: {rate_file.name} exists, but the rate audit is skipped: "
    elif case == "deleted":
        rate_file.unlink()
        want = "FAIL rate: cannot load: FileNotFoundError"
    else:
        rate = json.loads(rate_file.read_text())
        rate[case] = {"epsilon": rate["epsilon"] / 2, "regime": "sublinear"}[case]
        rate_file.write_text(json.dumps(rate))
        want = f"FAIL rate: {rate_file.name} differs from the trace's rate in {case}\n"
    capsys.readouterr()
    assert main(["audit", arts["trace"], arts["support"]]) == 1
    [line] = capsys.readouterr().out.splitlines(keepends=True)
    assert line.startswith(want)


LARGE_F_STAR = 3577.30190131785  # f* of the 1000x5000 synthetic instance, seed 0


def hand_written_artifacts(tmp_path, last_gap):
    """Trace, summary and support report of a run with f* = LARGE_F_STAR
    whose objective gap ends with a rise from 0 to ``last_gap``."""
    rows = [(0, 10.0, 4.0), (1, 1.0, 2.0), (2, 0.0, 1.0), (3, last_gap, 0.5)]
    trace = tmp_path / "big_trace.csv"
    trace.write_text(
        "n,f_gap,residual,supp_size,dist_to_ref\n"
        + "".join(f"{n},{gap!r},{res!r},1,{res!r}\n" for n, gap, res in rows)
    )
    # converged, with one tail point: the rate audit is skipped
    summary = {"f_star": LARGE_F_STAR, "converged": True}
    (tmp_path / "big_summary.json").write_text(json.dumps(summary))
    support = tmp_path / "big_support.json"
    support.write_text(
        json.dumps(
            {
                "supp": [0],
                "esupp": [0],
                "rho_sol": None,
                "identification_bound": 0.0,
                "observed_violations": 0,
                "identification_iteration": 1,
                "qualification_holds": True,
                "dual_point": [1.0],
            }
        )
    )
    return str(trace), str(support)


def test_audit_descent_slack_scales_with_f_star(tmp_path, capsys):
    # a rise of 4 ulp of f* is rounding in the objective values, not ascent
    rise = 4 * math.ulp(LARGE_F_STAR)
    assert rise > 1e-12
    assert main(["audit", *hand_written_artifacts(tmp_path, rise)]) == 0
    assert main(["audit", *hand_written_artifacts(tmp_path, 1e-6)]) == 1
    assert "objective gap increases" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# entry point plumbing


def test_main_run_exit_codes(tmp_path):
    bad = write_config(tmp_path, "[problem]\nsource = builtin\nname = nope\n")
    assert main(["run", str(bad)]) == 2
    good = write_config(
        tmp_path,
        MINIMAL + f"[solver]\nlambda = 0.5\nx0 = ones\n[output]\ndir = {tmp_path}\n",
        "good.ini",
    )
    assert main(["run", str(good)]) == 0
    old = write_config(tmp_path, MINIMAL + "[analysis]\nfejer = false\n", "old.ini")
    assert main(["run", str(old)]) == 2


def test_main_gallery_missing_spec():
    assert main(["gallery", "/no/such/spec.ini"]) == 2


def test_main_rejects_a_zero_endpoint_at_parse_time(tmp_path, capsys):
    # lo < 0 < hi: an endpoint at 0 leaves no margin omega > 0
    out = tmp_path / "out"
    cases = [
        ("run", "ex_nocq", "interval = 0 1"),
        ("run", "ex_cq", "interval_1 = -1 0"),
        ("gallery", None, "interval = 0 1"),
    ]
    for command, name, line in cases:
        if command == "run":
            head = f"[problem]\nsource = builtin\nname = {name}\n"
            tail = f"[output]\ndir = {out}\n"
        else:
            head = "[grid]\nlo = -1\nhi = 1\nsteps = 5\n"
            tail = f"[output]\npath = {out / 'curve.csv'}\n"
        path = write_config(tmp_path, f"{head}[regularizer]\n{line}\n{tail}")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        key = line.split(" = ")[0]
        assert err.startswith("config error: ")
        lo, hi = map(float, line.split(" = ")[1].split())
        assert f"[regularizer] {key}: interval [{lo}, {hi}] must have lo < 0 < hi" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "name",
    ["lasso", "lasso_power15", "lasso_power4", "ex_cq", "ex_nocq"]
    + [f"seed{s}" for s in range(10)],
)
def test_recorded_residuals_are_the_fixed_point_residuals(name):
    if name.startswith("seed"):
        problem, cfg = generate_synthetic(20, 50, int(name[4:])), solver.SolverConfig()
    else:
        c = parse_experiment_config(CONFIGS / f"{name}.ini")
        problem, _ = _build_problem(c)
        cfg = solver.SolverConfig(
            lam=c.lam, max_iter=c.max_iter, x0=_resolve_x0(c, problem.n)
        )
    trace = solver.run(problem, cfg)
    assert trace.residuals[-1] == solver.fixed_point_residual(
        problem, trace.lam, trace.x_final
    )
    # every earlier row is ||x^i - x^{i+1}|| / lam, read off the iterate log
    xs = list(iterates(trace))
    want = [np.linalg.norm(a - b) / trace.lam for a, b in zip(xs, xs[1:])]
    assert trace.residuals[:-1].tobytes() == np.array(want).tobytes()
