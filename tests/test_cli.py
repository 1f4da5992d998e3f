import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from threshgrad.cli import (
    ConfigError,
    _cap_threads,
    emit_prox_gallery,
    generate_synthetic,
    main,
    parse_experiment_config,
    parse_gallery_spec,
    run_experiment,
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
    assert cfg.penalty == ("none",)
    assert cfg.support_audit and cfg.rate_fit and cfg.fejer
    assert not cfg.gamma


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
residual_tol = 1e-8
record_every = 1
x0 = ones

[analysis]
gamma = true
gamma_p = 4.0
window_fraction = 0.25

[output]
dir = out
prefix = exp
"""
    cfg = parse_experiment_config(write_config(tmp_path, text))
    assert (cfg.m, cfg.n, cfg.seed, cfg.scale) == (20, 50, 7, 2.0)
    assert cfg.interval == (-0.5, 1.5)
    assert cfg.interval_overrides == {3: (-2.0, 2.0)}
    assert cfg.penalty == ("power", 4.0, 0.5)
    assert cfg.lam == 0.25
    assert cfg.x0 == "ones"
    assert cfg.gamma and cfg.gamma_p == 4.0
    assert cfg.window_fraction == 0.25
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
        (MINIMAL + "[regularizer]\nomega = 1.0\ninterval = -1 1\n", "not both"),
        (MINIMAL + "[regularizer]\npenalty = cubic\n", "penalty"),
        (MINIMAL + "[regularizer]\ninterval_x = -1 1\n", "bad key"),
        (MINIMAL + "[solver]\nrecord_every = 5\n", "record_every"),
        (MINIMAL + "[analysis]\nwindow_fraction = 0\n", "window_fraction"),
        (MINIMAL + "[solver]\nx0 = file:/does/not/exist.csv\n", "not found"),
        ("[solver]\nlambda = 0.5\n", "required"),
        (MINIMAL + "[solver]\nresidual_tol = nan\n", "residual_tol"),
        (MINIMAL + "[analysis]\ngamma_samples = 0\n", "gamma_samples"),
        (MINIMAL + "[analysis]\ngamma_delta = -1\n", "gamma_delta"),
        (MINIMAL + "[regularizer]\npenalty = power inf\n", "penalty"),
        (MINIMAL + "[analysis]\npolish_tol = nan\n", "polish_tol"),
    ],
)
def test_parse_rejects_bad_configs(tmp_path, text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_experiment_config(write_config(tmp_path, text))


def test_parse_missing_file():
    with pytest.raises(ConfigError):
        parse_experiment_config("/no/such/config.ini")


def test_files_source_requires_existing_data(tmp_path):
    text = "[problem]\nsource = files\nmatrix = missing.csv\ny = missing.csv\n"
    with pytest.raises(ConfigError, match="not found"):
        parse_experiment_config(write_config(tmp_path, text))


def test_sparse_recording_allowed_when_audits_are_off(tmp_path):
    text = MINIMAL + (
        "[solver]\nrecord_every = 100\n"
        "[analysis]\nsupport_audit = false\nfejer = false\n"
    )
    cfg = parse_experiment_config(write_config(tmp_path, text))
    assert cfg.record_every == 100


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

[analysis]
gamma = true
gamma_delta = 0.1

[output]
prefix = round
"""
    cfg = parse_experiment_config(write_config(tmp_path, text))
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
        "fejer": "pass",
        "gamma": "off",
    }
    for key in ("trace", "support", "rate", "summary"):
        assert os.path.exists(summary["artifacts"][key])
    on_disk = json.loads((tmp_path / "run_summary.json").read_text())
    assert on_disk["exit_code"] == 0


def test_run_segment_builtin(tmp_path):
    code, summary = run_builtin(
        tmp_path, "ex_cq", "[analysis]\nrate_fit = false\n", prefix="seg"
    )
    assert code == 0
    assert summary["f_star"] == pytest.approx(0.75, abs=1e-12)
    x = summary["x_bar"]
    assert x[0] - x[1] == pytest.approx(0.5, abs=1e-10)
    assert summary["support"]["esupp"] == [0, 1]
    assert summary["support"]["qualification_holds"] is True
    assert summary["audits"]["rate"] == "off"
    report = json.loads((tmp_path / "seg_support.json").read_text())
    assert report["rho_sol"] is None
    assert report["dual_point"] == pytest.approx([1.0, -1.0], abs=1e-10)


def test_run_with_gamma_estimate(tmp_path):
    code, summary = run_builtin(
        tmp_path,
        "ex_nocq",
        "[solver]\nlambda = 0.5\nx0 = ones\n[analysis]\ngamma = true\n",
        prefix="gam",
    )
    assert code == 0
    assert summary["audits"]["gamma"] == "pass"
    assert summary["gamma"]["gamma"] == pytest.approx(1.0, abs=1e-2)
    assert summary["gamma"]["p"] == 2.0


def test_run_gamma_skipped_on_segment(tmp_path):
    code, summary = run_builtin(
        tmp_path,
        "ex_cq",
        "[analysis]\nrate_fit = false\ngamma = true\n",
        prefix="skip",
    )
    assert code == 0
    assert summary["audits"]["gamma"].startswith("skipped")
    assert "gamma" not in summary


def test_run_applies_the_report_rules(tmp_path, monkeypatch):
    from threshgrad import support

    original = support.build_support_report

    def claims_qualification(*args, **kwargs):
        report = original(*args, **kwargs)
        report.qualification_holds = True  # ex_nocq: supp () != esupp (0,)
        return report

    monkeypatch.setattr(support, "build_support_report", claims_qualification)
    code, summary = run_builtin(
        tmp_path, "ex_nocq", "[solver]\nlambda = 0.5\nx0 = ones\n"
    )
    assert code == 1
    assert summary["audits"]["support"] == "fail"
    assert any("qualification claimed" in w for w in summary["warnings"])


def test_run_reports_nonconvergence(tmp_path):
    code, summary = run_builtin(
        tmp_path,
        "ex_nocq",
        "[solver]\nlambda = 0.5\nx0 = ones\nmax_iter = 3\n"
        "[analysis]\nsupport_audit = false\nrate_fit = false\nfejer = false\n",
        prefix="stall",
    )
    assert code == 1
    assert not summary["converged"]
    assert any("without reaching" in w for w in summary["warnings"])


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
    """Replace ``owner.name`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(kwargs.get("reference"))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_run_experiment_solves_once_with_fejer(tmp_path, monkeypatch):
    from threshgrad import solver

    # polish calls the solver through its own binding, so only the solves
    # made by run_experiment itself are counted
    calls = _counting(monkeypatch, solver)
    text = "[problem]\nsource = synthetic\nm = 12\nn = 30\nseed = 5\n"
    cfg = parse_experiment_config(
        write_config(tmp_path, text + f"[output]\ndir = {tmp_path / 'out'}\n")
    )
    assert cfg.fejer
    code, summary = run_experiment(cfg)
    assert code == 0
    assert summary["audits"]["fejer"] == "pass"
    assert calls == [None]
    diag = summary["diagnostics"]
    assert diag["solves"] == 1
    assert diag["matvecs_per_iteration"] == 2
    assert diag["fejer_distances"] == "iterate log"
    assert diag["support_changes"] > 0
    assert diag["iterate_log_bytes"] > 0
    rows = (tmp_path / "out" / "run_trace.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[4] for row in rows)  # every distance written


def test_identification_batch_solves_once_per_seed(monkeypatch):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "identification_batch.py"
    spec = importlib.util.spec_from_file_location("identification_batch", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = _counting(monkeypatch, script)
    row = script.audit_seed(0, 20, 50)
    assert calls == [None]
    assert row["violations"] <= row["budget"]
    assert row["regime"] == "linear"


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


def test_run_with_data_files(tmp_path):
    assert main(["gen", "6", "9", "4", "--outdir", str(tmp_path), "--prefix", "inst"]) == 0
    text = f"""\
[problem]
source = files
matrix = {tmp_path / "inst_A.csv"}
y = {tmp_path / "inst_y.csv"}

[output]
dir = {tmp_path / "out"}
"""
    cfg = parse_experiment_config(write_config(tmp_path, text))
    code, summary = run_experiment(cfg)
    assert code == 0
    assert summary["m"] == 6 and summary["n"] == 9
    assert summary["converged"]


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
        write_gallery(tmp_path, "[regularizer]\npenalty = box -0.5 0.75\n")
    )
    emit_prox_gallery(spec)
    _, vs = read_curve(tmp_path / "curve.csv")
    assert vs == [-0.5, -0.5, 0.0, 0.0, 0.0, 0.75, 0.75]


def test_gallery_power_box_penalty(tmp_path):
    spec = parse_gallery_spec(
        write_gallery(tmp_path, "[regularizer]\npenalty = power 2 1 box -0.25 0.25\n")
    )
    assert spec.penalty == ("power_box", 2.0, 1.0, -0.25, 0.25)
    emit_prox_gallery(spec)
    _, vs = read_curve(tmp_path / "curve.csv")
    assert vs == [-0.25, -0.25, 0.0, 0.0, 0.0, 0.25, 0.25]


def test_gallery_spec_validation(tmp_path):
    bad = [
        "[grid]\nlo = 0\nhi = 1\nsteps = 1\n[output]\npath = x.csv\n",
        "[grid]\nlo = 1\nhi = 0\nsteps = 5\n[output]\npath = x.csv\n",
        "[grid]\nlo = 0\nhi = 1\nsteps = 5\n",
        "[grid]\nlo = 0\nhi = 1\nsteps = 5\n[regularizer]\npenalty = box 1 0\n"
        "[output]\npath = x.csv\n",
        "[grid]\nhi = 1\nsteps = 5\n[output]\npath = x.csv\n",
        "[grid]\nlo = 0\nsteps = 5\n[output]\npath = x.csv\n",
        "[grid]\nlo = 0\nhi = 1\n[output]\npath = x.csv\n",
        "[grid]\nlo = 0\nhi = inf\nsteps = 5\n[output]\npath = x.csv\n",
    ]
    for text in bad:
        path = write_config(tmp_path, text, "bad.ini")
        with pytest.raises(ConfigError):
            parse_gallery_spec(path)
        assert main(["gallery", str(path)]) == 2
    assert not (tmp_path / "x.csv").exists()


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
    "key,value", [("rho_sol", None), ("identification_bound", "x")]
)
def test_audit_flags_a_malformed_report(tmp_path, capsys, key, value):
    trace, support = emitted_artifacts(tmp_path)
    rep = json.loads(open(support).read())
    if value is None:
        del rep[key]
    else:
        rep[key] = value
    json.dump(rep, open(support, "w"))
    assert main(["audit", trace, support]) == 1
    assert "FAIL support: cannot load" in capsys.readouterr().out


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


LARGE_F_STAR = 3577.30190131785  # f* of the 1000x5000 synthetic instance, seed 0


def hand_written_artifacts(tmp_path, last_gap):
    """Trace, summary and support report of a run with f* = LARGE_F_STAR
    whose objective gap ends with a rise from 0 to ``last_gap``."""
    rows = [(0, 10.0, 4.0), (1, 1.0, 2.0), (2, 0.0, 1.0), (3, last_gap, 0.5)]
    trace = tmp_path / "big_trace.csv"
    trace.write_text(
        "n,f_gap,residual,supp_size,dist_to_ref\n"
        + "".join(f"{n},{gap!r},{res!r},1,\n" for n, gap, res in rows)
    )
    (tmp_path / "big_summary.json").write_text(json.dumps({"f_star": LARGE_F_STAR}))
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


def test_main_gallery_missing_spec():
    assert main(["gallery", "/no/such/spec.ini"]) == 2


def test_thread_cap(monkeypatch):
    monkeypatch.setenv("THRESHGRAD_MAX_THREADS", "2")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    _cap_threads()
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_thread_cap_ignores_garbage(monkeypatch, capsys):
    monkeypatch.setenv("THRESHGRAD_MAX_THREADS", "many")
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    _cap_threads()
    assert os.environ["OMP_NUM_THREADS"] == "8"
    assert "ignoring" in capsys.readouterr().err
