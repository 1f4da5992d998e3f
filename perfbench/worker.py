"""One workload in its own process: set up, signal readiness, run passes
for the given number of seconds, write a result file.

Started by run.py, from the root of a checkout, with the BLAS thread
variables already in its environment (they must be set before numpy is
imported).  Prints exactly one line, ``ready``, when set-up is done, so the
parent can time set-up from process start.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

ROOT = Path.cwd()


def import_package():
    """Import every threshgrad module from the checkout's src/, never from
    an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import threshgrad
    from threshgrad import cli, conditioning, operators, regularizers, solver, support  # noqa: F401

    if Path(threshgrad.__file__).resolve().parent != (ROOT / "src" / "threshgrad").resolve():
        raise ImportError(f"threshgrad imported from {threshgrad.__file__}, not from src/")


def _openblas():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if not libs:
        return None, None
    lib = ctypes.CDLL(libs[0])
    info = {}
    for key, suffix, restype in (("config", "get_config", ctypes.c_char_p), ("threads", "get_num_threads", ctypes.c_int)):
        for symbol in (f"scipy_openblas_{suffix}64_", f"openblas_{suffix}64_", f"openblas_{suffix}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                info[key] = value.decode() if isinstance(value, bytes) else value
                break
    return info.get("config"), info.get("threads")


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine_context(workload: str, seed: int, size: str) -> dict:
    import numpy

    blas_config, blas_threads = _openblas()
    ctx = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas_config,
        "blas_threads_in_effect": blas_threads,
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "THRESHGRAD_MAX_THREADS": os.environ.get("THRESHGRAD_MAX_THREADS"),
        "workload_seed": seed,
        "size": size,
    }
    if workload == "large":
        m, n = workloads.LARGE_SHAPE[size]
        ctx["large_matrix"] = (
            f"{m}x{n} float64 = {m * n * 8 / 2**20:.1f} MiB against L3 {ctx['caches'].get('L3')}; "
            "operators.gbps_computed counts m*n*8 bytes per matvec and ignores cache hits, "
            "so it is not DRAM bandwidth"
        )
    return ctx


def run_pass(ops, pinned, after_op=None) -> dict:
    """Run every operation once; time each call, then gate it."""
    latencies, failures, digests = [], [], {}
    for op in ops:
        t0 = perf_counter()
        try:
            value = op.run()
            error = None
        except Exception as exc:  # a raising operation is a counted failure
            value, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        if after_op is not None:
            after_op(op, value)
        if error is not None:
            failures.append({"op": op.name, "reasons": [error]})
            continue
        try:
            reasons, got = op.gate(value)
        except Exception as exc:
            reasons, got = [f"gate raised {type(exc).__name__}: {exc}"], {}
        want = workloads.pinned_for(pinned, op.key)
        if want is None:
            reasons.append("no pinned digests for this input")
        elif got != want:
            reasons.append(f"artifact digests {got} differ from pinned {want}")
        digests[op.name] = got
        if reasons:
            failures.append({"op": op.name, "reasons": reasons})
    return {"wall_s": sum(latencies), "latencies": latencies, "failures": failures, "digests": digests}


def run_passes(ops, pinned, seconds: float, trace: bool, tracer: Tracer) -> tuple[list, list]:
    """Closed loop of passes until the next one would overrun ``seconds``.

    Untraced only, or untraced and traced passes alternating when tracing;
    at least one of each kind runs.
    """
    plain, traced = [], []
    start = perf_counter()
    while True:
        p = run_pass(ops, pinned)
        plain.append(p)
        cost = p["wall_s"]
        if trace:
            with tracer.installed():
                t = run_pass(ops, pinned)
            traced.append(t)
            cost += t["wall_s"]
        if perf_counter() - start + cost > seconds:
            return plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", help="result file; omit to stop after set-up")
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    import_package()
    context = machine_context(args.workload, args.seed, args.size)
    mismatch = workloads.context_mismatch(context)
    if mismatch:
        print(f"error: cannot check outputs here: {'; '.join(mismatch)}; re-pin with pin_digests.py", file=sys.stderr)
        return workloads.CONTEXT_MISMATCH
    ops = workloads.build(args.workload, args.seed, args.size, ROOT, workdir)
    pinned = workloads.load_pinned(args.size)
    print("ready", flush=True)
    if args.out is None:
        return 0

    tracer = Tracer()
    plain, traced = run_passes(ops, pinned, args.seconds, bool(args.trace), tracer)
    selfcheck, layers = [], {}
    if traced:
        selfcheck += tracer.reconcile()
        selfcheck += [
            f"traced pass {i} digests differ from the untraced pass before it"
            for i, t in enumerate(traced)
            if t["digests"] != plain[i]["digests"]
        ]
        layers = tracer.layer_metrics(len(traced), sum(t["wall_s"] for t in traced))
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        layers["trace.wall_s"] = (traced_wall, "s")
        layers["trace.overhead_s"] = (traced_wall - statistics.median(p["wall_s"] for p in plain), "s")
    result = {
        "context": context,
        "plain": plain,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "selfcheck": selfcheck,
    }
    Path(args.out).write_text(json.dumps(result))
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
