"""The benchmark's byte-identity contract, checked in process: the five
shipped experiment configs, the two benchmark galleries and the 100-seed
identification batch (instance seeds 0..99) write the artifacts whose
digests `perfbench/digests.json` pins, built and digested by
`perfbench/workloads.py` as the benchmark does.

The pins hold only under the OpenBLAS build and BLAS thread count they
were made with, so elsewhere the tests skip and name the difference.  The
`large` workload (one 1000x5000 run, about 4 s) is left out.  Nothing
under `perfbench/` is written.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OPS = {"configs": 7, "batch100": 100}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import worker
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    mismatch = workloads.context_mismatch(worker.machine_context("configs", 0, "full"))
    if mismatch:
        pytest.skip("digests pinned in another context: " + "; ".join(mismatch))
    return workloads


@pytest.mark.parametrize("workload", sorted(OPS))
def test_artifacts_are_the_pinned_bytes(workloads, workload, tmp_path, monkeypatch):
    # the batch workload registers the batch script as a module; drop it after
    monkeypatch.setitem(sys.modules, "identification_batch", None)
    pinned = workloads.load_pinned("full")
    ops = workloads.build(workload, 0, "full", ROOT, tmp_path)
    assert len(ops) == OPS[workload]
    wrong = {}
    for op in ops:
        reasons, got = op.gate(op.run())
        want = workloads.pinned_for(pinned, op.key)
        if reasons or got != want:
            wrong[op.name] = {"reasons": reasons, "digests": got, "pinned": want}
    assert wrong == {}
