"""Smoke test of the benchmark workloads: round 0 of each workload at
seed 0, every op checked by its benchmark oracle, and the same round
run under the span tracer of the traced benchmark run.

The oracles do not come from the code under test (forced positives
must pass, duals must agree with primals, generated scenes hold by
construction), so a change that flips a verdict fails here and not only
in a benchmark run.  Failures that reproduce a defect listed in
ROADMAP.md carry a known label and are allowed.

The tracer patches harmonica functions by name, so renaming one that
it wraps breaks `bench/run.py --trace 1`; the traced test catches that.
"""

import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
MODULES = ("core", "generate", "pencils", "reduction", "registry",
           "bisectors", "dsl", "render", "cli")
WORKLOAD_NAMES = ["verify-all", "reduce-exhaustive", "scenes"]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        yield SimpleNamespace(
            workloads=importlib.import_module("workloads"),
            tracer=importlib.import_module("tracer"),
        )
    finally:
        sys.path.remove(str(BENCH))


def make_workload(bench, name, root):
    h = SimpleNamespace(
        **{m: importlib.import_module(f"harmonica.{m}") for m in MODULES}
    )
    # the scenes workload reads root/scenes and writes under root/.bench_out
    (root / "scenes").symlink_to(ROOT / "scenes")
    return bench.workloads.WORKLOADS[name](h, 0, root)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_round_zero_passes_its_oracles(bench, name, tmp_path):
    workloads = bench.workloads
    wl = make_workload(bench, name, tmp_path)
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


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_round_zero_traced_gives_layer_metrics(bench, name, tmp_path):
    wl = make_workload(bench, name, tmp_path)
    tracer = bench.tracer.Tracer()
    try:
        # uninstall undoes whatever part of the install happened
        tracer.install()
        for op in wl.round(0):
            tracer.run_op(op.id, lambda: bench.workloads.call_op(op))
    finally:
        tracer.uninstall()
        wl.close()
    metrics = tracer.layer_metrics()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # bench/run.py adds the overhead ratio from an untraced pass
    missing = [
        m["name"] for m in declared
        if m["name"] != "trace.overhead_ratio" and m["name"] not in metrics
    ]
    assert missing == []
    assert metrics["core.join.calls"] > 0
    # one _run_reduction call per verdict, exhaustive or not
    verdicts = sum(
        calls
        for span, (calls, _, _) in tracer.totals().items()
        if span in ("reduction.is_pseudo_concurrent", "reduction.is_pseudo_collinear")
    )
    assert verdicts > 0
    assert metrics["reduction.orders_run"] == verdicts
