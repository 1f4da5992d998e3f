"""threshgrad benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload configs --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Set-up is timed in seven fresh worker processes, from process start to the
worker's ``ready`` line, and reported as the median; the last of them then
runs passes of the workload for ``--seconds``.  ``--trace 0`` prints the
end-to-end metrics named in BENCHMARK.json, ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object; the full result, with the machine
context, goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPS = 7
DEADLINE_S = 170.0
REQUIRED = ("BENCHMARK.json", "src/threshgrad/__init__.py", "configs", "scripts/identification_batch.py")

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def percentile(values: list, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class ContextMismatch(RuntimeError):
    """The pinned digests do not hold in this machine context."""


def spawn(args, workdir: Path, out: Path | None, env: dict, deadline: float):
    """Run a worker to completion; return its set-up time (start to ``ready``)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--workdir", str(workdir),
    ]
    if out is not None:
        cmd += ["--out", str(out)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    try:
        proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker overran the benchmark's deadline")
    finally:
        proc.stdout.close()
    if proc.returncode == workloads.CONTEXT_MISMATCH:
        raise ContextMismatch("the machine context differs from the one digests.json was pinned in")
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}) before finishing")
    return setup


def end_to_end(workload: str, result: dict, setups: list) -> dict:
    plain = result["plain"]
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    if workload == "batch100":
        # per-seed latency; the other workloads' operations are not alike
        latencies = [lat for p in plain for lat in p["latencies"]]
        metrics["instance_s.p50"] = (percentile(latencies, 50), "s")
        metrics["instance_s.p90"] = (percentile(latencies, 90), "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full", help="toy is for selftest.py")
    args = ap.parse_args(argv)

    missing = [rel for rel in REQUIRED if not (ROOT / rel).exists()]
    if missing:
        print(f"error: run from the root of a threshgrad checkout; missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = perf_counter() + DEADLINE_S
    env = dict(os.environ, **workloads.blas_env())
    outdir = BENCH / "out"
    outdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir = outdir / f"work-{tag}"
    raw = outdir / f"raw-{tag}.json"
    try:
        setups = [spawn(args, workdir, None, env, deadline) for _ in range(SETUP_REPS - 1)]
        setups.append(spawn(args, workdir, raw, env, deadline))
        result = json.loads(raw.read_text())
    except ContextMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return workloads.CONTEXT_MISMATCH
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        raw.unlink(missing_ok=True)

    passes = result["plain"] + result["traced"]
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    correct = not failures and not result["selfcheck"]
    e2e = end_to_end(args.workload, result, setups)
    layers = {k: tuple(v) for k, v in result["layers"].items()}

    walls = sorted(p["wall_s"] for p in result["plain"])
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(result['plain'])} untraced and {len(result['traced'])} traced passes")
    if len(walls) > 1:
        q1, _, q3 = statistics.quantiles(walls, n=4, method="inclusive")
        print(f"  pass wall_s quartiles {q1:.4f} .. {q3:.4f} s")
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_rate = {len(failures) / attempted:.6g} ({len(failures)}/{attempted} operations)")
    for f in failures[:10]:
        print(f"  FAILED {f['op']}: {'; '.join(f['reasons'])}")
    for problem in result["selfcheck"]:
        print(f"  SELF-CHECK FAILED: {problem}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]} for m in wanted}
    report = {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    full = dict(report, end_to_end=e2e, layers=layers, context=result["context"],
                failures=failures, selfcheck=result["selfcheck"],
                setup_s_samples=setups, pass_wall_s=[p["wall_s"] for p in result["plain"]],
                pass_latencies=[p["latencies"] for p in result["plain"]])
    (outdir / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(full, indent=1))
    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
