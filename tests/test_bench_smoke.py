"""Smoke test of the benchmark workloads: round 0 of each workload at
seed 0, every op checked by its benchmark oracle.

The oracles do not come from the code under test (forced positives
must pass, duals must agree with primals, generated scenes hold by
construction), so a change that flips a verdict fails here and not only
in a benchmark run.  Failures that reproduce a defect listed in
ROADMAP.md carry a known label and are allowed.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
MODULES = ("core", "generate", "pencils", "reduction", "registry",
           "bisectors", "dsl", "render", "cli")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", ["verify-all", "reduce-exhaustive", "scenes"])
def test_round_zero_passes_its_oracles(workloads, name, tmp_path):
    h = SimpleNamespace(
        **{m: importlib.import_module(f"harmonica.{m}") for m in MODULES}
    )
    # the scenes workload reads root/scenes and writes under root/.bench_out
    (tmp_path / "scenes").symlink_to(ROOT / "scenes")
    wl = workloads.WORKLOADS[name](h, 0, tmp_path)
    try:
        prior: dict = {}
        unexplained = []
        ops = wl.round(0)
        for op in ops:
            out = workloads.call_op(op)
            prior[op.id] = out
            reason = op.check(out, prior)
            if reason is not None and op.known(out) is None:
                unexplained.append(f"{op.id}: {reason}")
    finally:
        wl.close()
    assert ops
    assert unexplained == []
