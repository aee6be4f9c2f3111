"""harmonica benchmark: one closed-loop client in one process.

    python3 bench/run.py --workload verify-all --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

With --trace 0 the run times rounds of ops until --seconds have passed
and at least one whole cycle of the workload's rounds has run, and
reports the end-to-end metrics. With --trace 1 it runs a fixed
number of rounds (set by --seconds) once untraced and twice under the
span tracer, reports the per-layer metrics of the first traced pass,
checks that the counts of both traced passes are identical, and writes
the spans to .bench_out/spans-<workload>.tsv. --workload all runs every
workload with both settings, each in its own process.

Times are scaled to a nominal machine speed measured by probe.py
during the run; the raw times are printed too. Every op's output is
checked against its oracle. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. attempted and
failed count distinct ops (an op fails if any of its runs fails), so
they depend on the seed alone and not on how many rounds fit in the
time.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from probe import NOMINAL_MS, SpeedProbe, probe_ms  # noqa: E402
from workloads import WORKLOADS, call_op  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s is their median
MIN_OPS = 100  # at least 10 latency samples beyond p90
MODULES = ("core", "generate", "pencils", "reduction", "registry",
           "bisectors", "dsl", "render", "cli")


def import_fresh() -> SimpleNamespace:
    """Import harmonica from this checkout's src/, dropping any copy
    already loaded so that each set-up pays the import."""
    for name in [m for m in sys.modules if m == "harmonica" or m.startswith("harmonica.")]:
        del sys.modules[name]
    mods = SimpleNamespace(
        **{m: importlib.import_module(f"harmonica.{m}") for m in MODULES}
    )
    loaded = Path(sys.modules["harmonica"].__file__).resolve()
    if ROOT / "src" not in loaded.parents:
        raise SystemExit(f"harmonica was imported from {loaded}, not from this checkout")
    return mods


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


class Outcomes:
    """Attempted and failed ops, counted once per distinct op id, and
    the failing ops by id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.ops: set[str] = set()
        self.runs = 0
        self.failed_runs = 0
        self.failures: dict[str, list] = {}  # id -> [seed, reason, known, count]

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexpected(self) -> int:
        return sum(1 for _, _, known, _ in self.failures.values() if known is None)

    def record(self, op, out, prior: dict) -> None:
        self.ops.add(op.id)
        self.runs += 1
        reason = op.check(out, prior)
        if reason is None:
            return
        self.failed_runs += 1
        entry = self.failures.setdefault(op.id, [op.seed, reason, op.known(out), 0])
        entry[3] += 1

    def report(self) -> None:
        for op_id, (seed, reason, known, count) in sorted(self.failures.items()):
            tag = f"known defect: {known}" if known else "UNEXPECTED"
            print(f"FAIL workload={self.workload} op={op_id} seed={seed} x{count}"
                  f" [{tag}] {reason}")
        ratio = self.failed / self.attempted
        print(f"fail_ratio = {ratio:.6f} ({self.failed} of {self.attempted} distinct ops;"
              f" {self.unexpected} not a known defect; {self.failed_runs} of"
              f" {self.runs} op runs failed)")


def run_round(wl, k: int, outcomes: Outcomes, speed: SpeedProbe, tracer=None):
    """Run round k; return per-op wall ns, CPU ns and speed-probe index."""
    walls, cpus, probes = array("q"), array("q"), array("i")
    prior: dict = {}
    for op in wl.round(k % wl.cycle):
        probes.append(speed.tick())
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        if tracer is None:
            out = call_op(op)
        else:
            out = tracer.run_op(op.id, lambda: call_op(op))
        t1 = time.perf_counter_ns()
        c1 = time.process_time_ns()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        prior[op.id] = out
        outcomes.record(op, out, prior)
    return walls, cpus, probes


def summarize(rounds: list, scale) -> tuple[dict, int]:
    """End-to-end timing metrics from per-round op times, each time
    multiplied by scale(probe index), and the number of latency samples
    beyond p90."""
    latencies = []
    rates = []
    cpu_per_op = []
    for walls, cpus, probes in rounds:
        factors = [scale(p) for p in probes]
        scaled = [w * f for w, f in zip(walls, factors)]
        latencies += [w / 1e6 for w in scaled]
        rates.append(len(scaled) / (sum(scaled) / 1e9))
        cpu_per_op.append(sum(c * f for c, f in zip(cpus, factors)) / 1e6 / len(cpus))
    deciles = statistics.quantiles(latencies, n=10)
    values = {
        "ops_per_s": statistics.median(rates),
        "op_ms_p50": deciles[4],
        "op_ms_p90": deciles[8],
        "cpu_ms_per_op": statistics.median(cpu_per_op),
    }
    return values, sum(1 for x in latencies if x > deciles[8])


def measure(wl, seconds: float, outcomes: Outcomes, speed: SpeedProbe) -> dict:
    rounds = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    ops = 0
    while len(rounds) < wl.cycle or time.perf_counter() < deadline or ops < MIN_OPS:
        rounds.append(run_round(wl, len(rounds), outcomes, speed))
        ops += len(rounds[-1][0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values, beyond = summarize(rounds, speed.scale)
    raw, _ = summarize(rounds, lambda p: 1.0)
    print(f"rounds = {len(rounds)}, ops = {ops}, latency samples beyond p90 = {beyond},"
          f" speed probes = {len(speed.samples)}")
    print("raw (unscaled) " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    values["peak_rss_mb"] = peak_rss_mb
    return values


def traced(wl, name: str, seconds: float, outcomes: Outcomes,
           speed: SpeedProbe) -> tuple[dict, bool]:
    from tracer import STABLE_COUNTS, Tracer

    def pass_ns(with_tracer=None) -> tuple[float, float]:
        """Raw and speed-scaled op time of one pass over the rounds."""
        gc.collect()
        times = [run_round(wl, k, outcomes, speed, with_tracer) for k in range(rounds)]
        raw = sum(sum(walls) for walls, _, _ in times)
        scaled = sum(w * speed.scale(p) for walls, _, probes in times
                     for w, p in zip(walls, probes))
        return raw, scaled

    rounds = max(1, round(seconds * wl.trace_rounds_per_s))
    _, untraced_ns = pass_ns()
    tracer = Tracer()
    passes = []
    tracer.install()
    try:
        for _ in range(2):
            tracer.reset()
            raw_ns, scaled_ns = pass_ns(tracer)
            metrics = tracer.layer_metrics(scaled_ns / raw_ns)
            metrics["trace.overhead_ratio"] = scaled_ns / untraced_ns
            passes.append(metrics)
            if len(passes) == 1:
                out_dir = ROOT / ".bench_out"
                out_dir.mkdir(exist_ok=True)
                tracer.write_spans(out_dir / f"spans-{name}.tsv")
    finally:
        tracer.uninstall()
    print(f"traced rounds = {rounds} per pass, spans in .bench_out/spans-{name}.tsv")
    stable = True
    for key in STABLE_COUNTS:
        if passes[0][key] != passes[1][key]:
            stable = False
            print(f"UNSTABLE count {key}: {passes[0][key]} then {passes[1][key]}")
    print(f"count stability over two traced passes: {'ok' if stable else 'FAILED'}")
    return passes[0], stable


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            status |= subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "harmonica" / "__init__.py").is_file():
        print(f"error: no harmonica sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    setup_times = []
    wl = None
    try:
        for _ in range(SETUPS):
            if wl is not None:
                wl.close()
            probe = statistics.median(probe_ms() for _ in range(5))
            t0 = time.perf_counter()
            h = import_fresh()
            wl = WORKLOADS[args.workload](h, args.seed, ROOT)
            setup_times.append((time.perf_counter() - t0) * NOMINAL_MS / probe)
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds}"
              f" trace={args.trace} git={git_sha()} python={platform.python_version()}"
              f" nproc={os.cpu_count()}")
        outcomes = Outcomes(args.workload)
        stable = True
        speed = SpeedProbe()
        if args.trace:
            values, stable = traced(wl, args.workload, args.seconds, outcomes, speed)
            table = PER_LAYER
        else:
            values = measure(wl, args.seconds, outcomes, speed)
            values["ok_ratio"] = 1 - outcomes.failed / outcomes.attempted
            values["setup_s"] = statistics.median(setup_times)
            table = END_TO_END
    finally:
        if wl is not None:
            wl.close()

    outcomes.report()
    for name, unit, note in table:
        print(f"{name} = {values[name]:.6g} {unit}  ({note})")
    result = {
        "correct": stable and outcomes.unexpected == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
