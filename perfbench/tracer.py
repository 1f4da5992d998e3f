"""Outside-in layer tracer.

The package knows nothing about it: ``Tracer.installed()`` rebinds each
wrapped function in every namespace that holds it -- the defining module,
every module that pulled the name in with ``from .x import f``, and the
batch script (module ``identification_batch``) -- and restores the
originals on exit.  Spans are aggregated
in memory per name (calls, inclusive time, self time); a layer's self time
is its inclusive time minus the time of wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

# (span name, defining module, attribute); "Class.method" patches the class
TARGETS = (
    ("cli.run_experiment", "threshgrad.cli", "run_experiment"),
    ("cli.emit_prox_gallery", "threshgrad.cli", "emit_prox_gallery"),
    ("solver.run", "threshgrad.solver", "run"),
    ("solver.fb_step", "threshgrad.solver", "fb_step"),
    ("solver.fixed_point_residual", "threshgrad.solver", "fixed_point_residual"),
    ("solver.objective", "threshgrad.solver", "Problem.objective"),
    ("solver.write_trace_csv", "threshgrad.solver", "write_trace_csv"),
    ("solver.fejer_check", "threshgrad.solver", "fejer_check"),
    ("operators.gradient", "threshgrad.operators", "LeastSquaresTerm.gradient"),
    ("operators.value", "threshgrad.operators", "LeastSquaresTerm.value"),
    ("regularizers.prox_separable", "threshgrad.regularizers", "prox_separable"),
    ("regularizers.g_value", "threshgrad.regularizers", "g_value"),
    ("support.build_support_report", "threshgrad.support", "build_support_report"),
    ("support.write_support_report", "threshgrad.support", "write_support_report"),
    ("conditioning.polish", "threshgrad.conditioning", "polish"),
    ("conditioning.fit_rate", "threshgrad.conditioning", "fit_rate"),
    ("conditioning.verify_unique_minimizer", "threshgrad.conditioning", "verify_unique_minimizer"),
    ("conditioning.estimate_gamma", "threshgrad.conditioning", "estimate_gamma"),
)

# modules outside the package whose from-imports must be wrapped too
EXTRA_MODULES = ("identification_batch",)
PROX_KINDS = ("l1", "power1.5", "power4", "custom")
# matrix-vector products per call: the gradient is A^T (A x - y), the value A x - y
MATVECS = {"operators.gradient": 2, "operators.value": 1}


def prox_kind(g) -> str:
    """Penalty kind of a regularizer: custom, power<p>, or l1 when only
    the interval (soft-threshold) part is present."""
    from threshgrad.regularizers import CustomPenalty, PowerPenalty

    pens = [pen for _, pen in g._groups]
    if any(isinstance(pen, CustomPenalty) for pen in pens):
        return "custom"
    for pen in pens:
        if isinstance(pen, PowerPenalty) and pen.weight > 0.0:
            return f"power{pen.p:g}"
    return "l1"


class Tracer:
    def __init__(self):
        self.calls: dict = {}
        self.total: dict = {}
        self.self_time: dict = {}
        self.counts = dict.fromkeys(
            ("iterations", "matvecs", "run_matvecs", "bytes_computed", "fb_fallbacks", "gamma_samples"), 0
        )
        self._stack: list = []  # [time in wrapped callees] per open span
        self._depth = {"solver.run": 0, "conditioning.polish": 0}

    def _modules(self):
        return [
            m
            for name, m in list(sys.modules.items())
            if name == "threshgrad" or name.startswith("threshgrad.") or name in EXTRA_MODULES
        ]

    def _bindings(self, original):
        """Every (namespace, attribute) bound to ``original``."""
        found = []
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    found.append((module, attr))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    found += [(value, a) for a, v in list(vars(value).items()) if v is original]
        return found

    def _originals(self):
        for span, modname, attr in TARGETS:
            owner = sys.modules[modname]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            yield span, vars(owner)[leaf]

    @contextmanager
    def installed(self):
        originals = list(self._originals())
        patched = []
        try:
            for span, original in originals:
                wrapper = self._wrap(span, original)
                for ns, attr in self._bindings(original):
                    setattr(ns, attr, wrapper)
                    patched.append((ns, attr, original))
            yield self
        finally:
            for ns, attr, original in reversed(patched):
                setattr(ns, attr, original)

    def _wrap(self, span, fn):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span
            if span == "regularizers.prox_separable":
                g = args[2] if len(args) > 2 else kwargs["g"]
                name = f"{span}.{prox_kind(g)}"
            elif span in MATVECS:
                k = MATVECS[span]
                m, n = args[0].op.shape
                tracer.counts["matvecs"] += k
                tracer.counts["bytes_computed"] += k * m * n * 8
                if tracer._depth["solver.run"]:
                    tracer.counts["run_matvecs"] += k
            elif span == "solver.run" and tracer._depth["conditioning.polish"]:
                tracer.counts["fb_fallbacks"] += 1
            elif span == "conditioning.estimate_gamma":
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.counts["gamma_samples"] += int(bound.arguments["n_samples"])
            if span in tracer._depth:
                tracer._depth[span] += 1
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._stack.pop()
                if span in tracer._depth:
                    tracer._depth[span] -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.total[name] = tracer.total.get(name, 0.0) + dt
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + dt - frame[0]
            if span == "solver.run":
                tracer.counts["iterations"] += out.n_iterations
            return out

        return wrapper

    def layer_metrics(self, passes: int, wall_s: float) -> dict:
        """Per-pass layer metrics, as {name: (value, unit)}; ``wall_s`` is
        the summed wall time of the ``passes`` traced passes, of which the
        ``.pct`` figures are shares."""
        out = {}
        names = [span for span, _, _ in TARGETS if span != "regularizers.prox_separable"]
        names += [f"regularizers.prox_separable.{kind}" for kind in PROX_KINDS]
        for name in names:
            total, own = self.total.get(name, 0.0), self.self_time.get(name, 0.0)
            out[f"{name}.calls"] = (self.calls.get(name, 0) / passes, "count")
            out[f"{name}.s"] = (total / passes, "s")
            out[f"{name}.self_s"] = (own / passes, "s")
            out[f"{name}.pct"] = (100.0 * total / wall_s, "%")
            out[f"{name}.self_pct"] = (100.0 * own / wall_s, "%")
        c = self.counts
        out["solver.iterations"] = (c["iterations"] / passes, "count")
        out["operators.matvecs"] = (c["matvecs"] / passes, "count")
        out["operators.bytes_computed"] = (c["bytes_computed"] / passes, "B")
        op_s = self.total.get("operators.gradient", 0.0) + self.total.get("operators.value", 0.0)
        out["operators.gbps_computed"] = (c["bytes_computed"] / op_s / 1e9 if op_s else 0.0, "GB/s")
        out["operators.matvecs_per_iter"] = (
            c["run_matvecs"] / c["iterations"] if c["iterations"] else 0.0,
            "count",
        )
        step_s = self.total.get("solver.fb_step", 0.0)
        out["solver.run_to_step_ratio"] = (self.total.get("solver.run", 0.0) / step_s if step_s else 0.0, "ratio")
        out["conditioning.polish.fb_fallbacks"] = (c["fb_fallbacks"] / passes, "count")
        gamma_s = self.total.get("conditioning.estimate_gamma", 0.0)
        out["conditioning.estimate_gamma.samples_per_s"] = (c["gamma_samples"] / gamma_s if gamma_s else 0.0, "1/s")
        return out

    def reconcile(self) -> list[str]:
        """Count identities every complete trace satisfies; a failure means
        calls escaped the wrappers.

        ``solver.run`` makes n + 1 ``fb_step`` calls for n iterations and
        ``fixed_point_residual`` makes one, and nothing else in the package
        calls ``fb_step``, so a missed binding of ``run`` or
        ``fixed_point_residual`` (or of ``fb_step`` itself) breaks the
        equality.
        """
        problems = []
        grad = self.calls.get("operators.gradient", 0)
        steps = self.calls.get("solver.fb_step", 0)
        runs = self.calls.get("solver.run", 0)
        residuals = self.calls.get("solver.fixed_point_residual", 0)
        expected = self.counts["iterations"] + runs + residuals
        if grad < steps:
            problems.append(f"operators.gradient.calls {grad} < solver.fb_step.calls {steps}")
        if steps != expected:
            problems.append(
                f"solver.fb_step.calls {steps} != iterations {self.counts['iterations']}"
                f" + solver.run.calls {runs} + solver.fixed_point_residual.calls {residuals}"
            )
        if not runs:
            problems.append("no solver.run call was traced")
        return problems
