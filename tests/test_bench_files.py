"""The committed BENCH_<pr>.json records: each parses and holds one run
of every workload that BENCHMARK.json declares.  No speed is gated."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_bench_file_names_every_workload():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {workload["name"] for workload in declared["workloads"]}
    assert len(names) == 3
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        runs = json.loads(path.read_text(encoding="utf-8"))["workloads"]
        assert set(runs) == names, path.name
        for name, run in runs.items():
            assert run["header"]["workload"] == name, path.name
            assert "ops_per_s" in run["result"]["metrics"], path.name
