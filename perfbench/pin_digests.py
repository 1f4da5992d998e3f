"""Regenerate digests.json: run every pinned input of every size and
workload once and record the digests of its artifacts.

    python3 perfbench/pin_digests.py

Run from the root of a checkout, only at a commit whose outputs are known
to be right: the benchmark then fails any later commit whose artifacts
differ by a single byte.  Operations that fail a non-digest gate are not
pinned.  The machine context is recorded with the digests; the benchmark
refuses to run in another one (see workloads.context_mismatch).
"""

import json
import os
import sys
from pathlib import Path

import workloads

os.environ.update(workloads.blas_env())  # before numpy loads, as in run.py

import worker  # noqa: E402


def main() -> int:
    worker.import_package()
    doc = {"digests": {}}
    bad = 0
    for size in workloads.SIZES:
        table = doc["digests"][size] = {}
        for workload in workloads.WORKLOADS:
            # every input a workload seed can reach
            seeds = range(workloads.SEED_CYCLE) if workload == "large" else [0]
            entries = {}
            for seed in seeds:
                ops = workloads.build(workload, seed, size, worker.ROOT, Path(worker.ROOT, "perfbench", "out", "pin"))
                result = worker.run_pass(ops, {})
                for f in result["failures"]:
                    real = [r for r in f["reasons"] if r != "no pinned digests for this input"]
                    if real:
                        bad += 1
                        print(f"not pinned: {workload} {f['op']}: {real}", file=sys.stderr)
                        result["digests"].pop(f["op"], None)
                entries.update({op.key[1]: result["digests"][op.name] for op in ops if op.name in result["digests"]})
            table[workload] = dict(sorted(entries.items(), key=lambda kv: (len(kv[0]), kv[0])))
            print(f"{size} {workload}: {len(entries)} inputs pinned", file=sys.stderr)
    doc["context"] = worker.machine_context("configs", 0, "full")
    workloads.DIGESTS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
