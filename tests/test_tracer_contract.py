"""The benchmark's layer tracer (perfbench/tracer.py) names package
functions by module and attribute, and reconciles its counts on the
assumption that only ``solver.run`` and ``solver.fixed_point_residual``
call ``fb_step``.  These tests load the tracer as it is and check that the
package still meets both."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from threshgrad import cli

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer_module = _load_tracer()


def test_every_tracer_target_resolves_in_the_package():
    for span, modname, attr in tracer_module.TARGETS:
        owner = importlib.import_module(modname)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert leaf in vars(owner), span


@pytest.mark.parametrize(
    "name, route",
    [
        # a power penalty sends polish down the FB continuation, and f(x)
        # is read off traces: the objective is never evaluated
        (
            "lasso_power15",
            lambda t: t.counts["fb_fallbacks"] > 0
            and t.calls.get("solver.objective", 0) == 0,
        ),
        # the growth certificate reads one rank test: no second solve or
        # polish, and no sampling; the objective is evaluated once, at the
        # accepted face candidate
        (
            "ex_nocq",
            lambda t: t.calls["conditioning.verify_unique_minimizer"] == 1
            and t.calls["solver.run"] == 1
            and t.calls["conditioning.polish"] == 1
            and t.calls.get("conditioning.estimate_gamma", 0) == 0
            and t.calls["solver.objective"] == 1,
        ),
    ],
)
def test_traced_run_reconciles(tmp_path, name, route):
    cfg = cli.parse_experiment_config(ROOT / "configs" / f"{name}.ini")
    cfg.outdir = str(tmp_path)
    tracer = tracer_module.Tracer()
    with tracer.installed():
        code, _ = cli.run_experiment(cfg)
    assert code == 0
    assert route(tracer)
    assert tracer.reconcile() == []
