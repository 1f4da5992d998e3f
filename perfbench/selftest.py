"""Fast self-test of the benchmark harness (about half a minute; not part of
the tier-1 test suite).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that every workload at toy size
prints every metric BENCHMARK.json names, with its unit, and no failures,
with and without tracing; that a corrupted artifact is counted as a failed
operation; that the trace reconciliation catches a binding left unwrapped;
and that the benchmark refuses to run in another BLAS context than the
digests were pinned in, or without the program.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

os.environ.update(workloads.blas_env())  # before numpy loads, as in run.py

import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()


def check_runs(spec: dict) -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--size", "toy"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            if not report["correct"] or report["failed"] != 0 or report["attempted"] < 1:
                problems.append(f"{where}: {report['failed']}/{report['attempted']} failed, correct={report['correct']}")
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in report["metrics"].items()}
            if got != wanted:
                problems.append(f"{where}: metrics {sorted(got.items())} != {sorted(wanted.items())}")
            bad = [k for k, v in report["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{where}: non-finite values for {bad}")
            if "fail_rate = 0 " not in proc.stdout:
                problems.append(f"{where}: fail_rate line missing or non-zero")
    return problems


def check_corruption_counts() -> list[str]:
    """A corrupted trace file must fail its operation, and only that one."""
    worker.import_package()
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        ops = workloads.build("configs", 0, "toy", ROOT, Path(tmp))
        pinned = workloads.load_pinned("toy")

        def corrupt(op, value):
            if op.name == "lasso":
                with open(value[1]["artifacts"]["trace"], "ab") as fh:
                    fh.write(b"\n")

        result = worker.run_pass(ops, pinned, after_op=corrupt)
    failed = [f["op"] for f in result["failures"]]
    return [] if failed == ["lasso"] else [f"corrupted artifact: failed ops {failed}, expected ['lasso']"]


def check_reconcile_catches_missed_binding() -> list[str]:
    """With ``conditioning.run`` left unwrapped, the solves nested in
    ``polish`` escape the trace, and the reconciliation must say so."""
    worker.import_package()
    from threshgrad import conditioning

    problems = []
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        ops = workloads.build("configs", 0, "toy", ROOT, Path(tmp))
        original = conditioning.run
        for leave_unwrapped in (False, True):
            tracer = Tracer()
            with tracer.installed():
                if leave_unwrapped:
                    conditioning.run = original
                worker.run_pass(ops, {})
            found = tracer.reconcile()
            if bool(found) != leave_unwrapped:
                problems.append(f"reconcile with conditioning.run unwrapped={leave_unwrapped}: {found or 'no problem found'}")
        if conditioning.run is not original:
            problems.append("the tracer did not restore conditioning.run")
    return problems


def check_refuses_other_context() -> list[str]:
    """Digests pinned under another BLAS context: a distinct exit code and
    no result."""
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        copy = Path(tmp, "perfbench")
        shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
        doc = json.loads((copy / "digests.json").read_text())
        doc["context"]["blas_threads_in_effect"] = -1
        (copy / "digests.json").write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "configs", "--seed", "1",
                               "--seconds", "1", "--trace", "0", "--size", "toy"],
                              capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != workloads.CONTEXT_MISMATCH or proc.stdout.strip():
        return [f"other context: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def check_refuses_bare_directory() -> list[str]:
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "configs", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=tmp, timeout=170)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    (BENCH / "out").mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = (check_runs(spec) + check_corruption_counts() + check_reconcile_catches_missed_binding()
                + check_refuses_other_context() + check_refuses_bare_directory())
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
