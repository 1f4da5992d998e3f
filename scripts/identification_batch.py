"""Identification-bound audit over a batch of seeded synthetic instances.

For every seed, `threshgrad.analysis.analyze` solves and polishes the
instance once; the row compares the observed count of iterates whose
support escapes the extended support of the limit against the a-priori
budget ceil(rho^-2 lambda^-2 ||x0 - x_bar||^2), and records the fitted
tail rate.  One CSV row per seed; floats use repr so reruns are
byte-identical.
"""

import argparse
import csv
import math
import sys
import time
from pathlib import Path

from threshgrad.analysis import analyze, generate_synthetic
from threshgrad.solver import SolverConfig


def audit_seed(seed: int, m: int, n: int) -> dict:
    result = analyze(generate_synthetic(m, n, seed), SolverConfig())
    report = result.report
    # a seed whose rate audit is skipped has no rate document
    rate = result.rate or {"regime": "skipped", "epsilon": None, "r_squared": None}
    return {
        "seed": seed,
        "violations": report["observed_violations"],
        "budget": math.ceil(report["identification_bound"]),
        "identified_at": report["identification_iteration"],
        "esupp_size": len(report["esupp"]),
        "regime": rate["regime"],
        "epsilon": rate["epsilon"],
        "r_squared": rate["r_squared"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--m", type=int, default=20)
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--out", default="results/identification_batch.csv")
    args = ap.parse_args()

    t0 = time.perf_counter()
    rows = [audit_seed(seed, args.m, args.n) for seed in range(args.seeds)]
    elapsed = time.perf_counter() - t0

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        # csv writes floats by repr and None as an empty cell
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    over = [r["seed"] for r in rows if r["violations"] > r["budget"]]
    linear = sum(r["regime"] == "linear" for r in rows)
    print(f"{len(rows)} instances in {elapsed:.1f}s -> {out}")
    print(f"within identification budget: {len(rows) - len(over)}/{len(rows)}")
    print(f"classified linear: {linear}/{len(rows)}")
    if over:
        print(f"over budget: {over}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
