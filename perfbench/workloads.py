"""The benchmark's workloads: inputs built from a seed, the operations of one
pass, and the correctness gate applied to every operation.

Every workload is a closed loop: one caller, and the next operation starts
when the previous one has returned.  An operation fails when it raises,
returns a non-zero exit code, has an enabled audit report ``fail``, misses
a workload-specific gate, or writes an artifact whose digest differs from
the one pinned in ``digests.json`` (the byte-identity contract).
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("configs", "batch100", "large")
SIZES = ("full", "toy")

CONFIGS = ("lasso", "lasso_power15", "lasso_power4", "ex_cq", "ex_nocq")
GALLERIES = ("gallery_l1", "gallery_power15_box")

# Digests are pinned for a finite set of inputs, so large runs instance
# seed (workload seed % SEED_CYCLE).  batch100 always runs the repository's
# batch, instance seeds 0..99 as the script and the test fixture do, in an
# order drawn from the workload seed; 12 of seeds 100..999 are not classified
# linear by fit_rate (see README.md), so they cannot be gated on it.
SEED_CYCLE = 10
BATCH_SHAPE = (20, 50)
BATCH_SEEDS = {"full": 100, "toy": 5}
LARGE_SHAPE = {"full": (1000, 5000), "toy": (100, 500)}

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# BLAS pools are capped at two threads (at most nproc) before numpy loads;
# the large digests depend on the thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env() -> dict:
    threads = str(min(2, len(os.sched_getaffinity(0))))
    return {var: threads for var in BLAS_THREAD_VARS}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def file_digest(path) -> str:
    return digest(Path(path).read_bytes())


def batch_row_line(row: dict) -> str:
    """One row of the batch script's CSV, formatted the way the script
    writes it (floats by repr, None as empty)."""
    return ",".join(
        repr(v) if isinstance(v, float) else ("" if v is None else str(v))
        for v in row.values()
    )


def batch_seeds(seed: int, size: str) -> list[int]:
    seeds = list(range(BATCH_SEEDS[size]))
    random.Random(seed).shuffle(seeds)
    return seeds


def large_instance_seed(seed: int) -> int:
    return seed % SEED_CYCLE


@dataclass
class Op:
    """One operation of a pass.

    ``key`` locates its pinned digests; ``run`` is the timed call;
    ``gate`` turns the returned value into (failure reasons, artifact
    digests) and is not timed.
    """

    name: str
    key: tuple
    run: Callable
    gate: Callable


def _experiment_gate(value):
    code, summary = value
    reasons = [] if code == 0 else [f"exit code {code}"]
    reasons += [f"audit {k} failed" for k, v in summary["audits"].items() if v == "fail"]
    arts = summary["artifacts"]
    digests = {kind: file_digest(arts[kind]) for kind in ("trace", "support", "rate") if kind in arts}
    return reasons, digests


def _experiment_op(cli, name: str, key: tuple, cfg) -> Op:
    # looked up on the module at call time so the tracer's patch applies
    return Op(name, key, lambda: cli.run_experiment(cfg), _experiment_gate)


def _gallery_op(cli, name: str, spec) -> Op:
    def run():
        cli.emit_prox_gallery(spec)
        return spec.out_path

    return Op(name, ("configs", name), run, lambda path: ([], {"csv": file_digest(path)}))


def _batch_gate(row: dict):
    reasons = []
    if row["violations"] > row["budget"]:
        reasons.append(f"{row['violations']} violations over budget {row['budget']}")
    if row["regime"] != "linear":
        reasons.append(f"rate regime {row['regime']!r}, expected 'linear'")
    return reasons, {"row": digest(batch_row_line(row).encode())}


def load_batch_script(root: Path):
    """Import scripts/identification_batch.py as a module, registered in
    sys.modules so the tracer finds the names it imported."""
    path = root / "scripts" / "identification_batch.py"
    spec = importlib.util.spec_from_file_location("identification_batch", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def build(workload: str, seed: int, size: str, root: Path, workdir: Path) -> list[Op]:
    """Parse, generate and build every input of one pass; this is the
    workload's set-up.  Artifacts go under ``workdir``."""
    from threshgrad import cli

    if workload == "configs":
        ops = []
        for name in CONFIGS:
            cfg = cli.parse_experiment_config(root / "configs" / f"{name}.ini")
            cfg.outdir = str(workdir / name)
            ops.append(_experiment_op(cli, name, ("configs", name), cfg))
        for name in GALLERIES:
            spec = cli.parse_gallery_spec(root / "configs" / f"{name}.ini")
            spec.out_path = str(workdir / f"{name}.csv")
            ops.append(_gallery_op(cli, name, spec))
        # the inputs are the shipped files; the seed fixes the order of a pass
        random.Random(seed).shuffle(ops)
        return ops

    if workload == "batch100":
        script = load_batch_script(root)
        m, n = BATCH_SHAPE
        problems = {s: cli.generate_synthetic(m, n, s) for s in batch_seeds(seed, size)}

        # the script generates each instance inside audit_seed; serving the
        # prebuilt ones keeps generation in set-up and the rest of the
        # script's per-seed path unchanged
        def prebuilt(m_, n_, s):
            return problems[s]

        script.generate_synthetic = prebuilt
        return [
            Op(f"seed{s}", ("batch100", str(s)), lambda s=s: script.audit_seed(s, m, n), _batch_gate)
            for s in problems
        ]

    if workload == "large":
        m, n = LARGE_SHAPE[size]
        s = large_instance_seed(seed)
        cfg = cli.ExperimentConfig(
            source="synthetic", m=m, n=n, seed=s, outdir=str(workdir / "large"), prefix="large"
        )
        return [_experiment_op(cli, f"large{s}", ("large", str(s)), cfg)]

    raise ValueError(f"unknown workload {workload!r}")


# exit code of a run refused because the digests were pinned elsewhere
CONTEXT_MISMATCH = 3
# the machine context the artifact bytes depend on
DIGEST_CONTEXT = ("openblas", "blas_threads_in_effect")


def context_mismatch(context: dict) -> list[str]:
    """How this run's machine context differs from the one the digests were
    pinned in; the pinned bytes hold only there (another BLAS thread count
    or OpenBLAS kernel changes the large artifacts)."""
    with open(DIGESTS_PATH) as fh:
        pinned = json.load(fh)["context"]
    return [
        f"{key} is {context.get(key)!r}, digests pinned under {pinned.get(key)!r}"
        for key in DIGEST_CONTEXT
        if context.get(key) != pinned.get(key)
    ]


def load_pinned(size: str) -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)["digests"][size]


def pinned_for(pinned: dict, key: tuple):
    workload, name = key
    return pinned.get(workload, {}).get(name)
