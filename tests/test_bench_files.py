"""The committed BENCH_<pr>.json records: each parses and holds one
correct run of every workload that BENCHMARK.json declares, all under
one protocol (seed 0, 8 s, untraced), so files compare across changes.
No speed is gated."""

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
            header, result = run["header"], run["result"]
            assert header["workload"] == name, path.name
            protocol = (header["seed"], header["seconds"], header["trace"])
            assert protocol == (0, 8.0, 0), path.name
            assert result["correct"] is True, path.name
            assert "ops_per_s" in result["metrics"], path.name
