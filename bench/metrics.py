"""Metric names, units and, for each layer metric, the end-to-end metric
and workload it is expected to move. The names are the contract that
later performance changes cite."""

# Times are scaled to the nominal machine speed of probe.py.
END_TO_END = (
    ("ops_per_s", "1/s", "completed ops per second of op time, median over rounds"),
    ("op_ms_p50", "ms", "median op latency"),
    ("op_ms_p90", "ms", "90th percentile op latency"),
    ("cpu_ms_per_op", "ms", "process CPU time per op, median over rounds"),
    ("ok_ratio", "ratio", "ops with a correct result over ops attempted, 1 - fail_ratio"),
    ("setup_s", "s", "import plus input generation, median of the set-ups of a run"),
    ("peak_rss_mb", "MB", "ru_maxrss of the benchmark process"),
)

VA, RE, SC = "verify-all", "reduce-exhaustive", "scenes"

# (name, unit, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("core.join.calls", "count", f"predicts ops_per_s on {VA}, {RE}"),
    ("core.meet.calls", "count", f"predicts ops_per_s on {VA}, {RE}"),
    ("core.predicate.calls", "count", f"predicts ops_per_s on {VA}, {RE}"),
    ("core.crossratio.calls", "count", f"predicts ops_per_s on {VA}, {RE}"),
    ("core.self_s", "s", f"predicts ops_per_s on {VA}, {RE}"),
    ("core.max_coord_bits", "bits", f"predicts cpu_ms_per_op on the exact half of {RE}, not the float half"),
    ("generate.calls", "count", f"predicts ops_per_s, op_ms_p50 on {VA}; setup_s only on {RE}, {SC}"),
    ("generate.self_s", "s", f"predicts ops_per_s, op_ms_p50 on {VA}; setup_s only on {RE}, {SC}"),
    ("generate.draws", "count", f"predicts ops_per_s, op_ms_p50 on {VA}; setup_s only on {RE}, {SC}"),
    ("generate.draws_per_instance", "ratio", f"predicts ops_per_s, op_ms_p50 on {VA}"),
    ("generate.share", "ratio", f"predicts ops_per_s, op_ms_p50 on {VA}"),
    ("pencils.calls", "count", f"predicts ops_per_s on {VA}"),
    ("pencils.self_s", "s", f"predicts ops_per_s on {VA}"),
    ("pencils.calls_per_trial", "ratio", f"predicts ops_per_s on {VA}"),
    ("reduction.calls", "count", f"predicts op_ms_p50, op_ms_p90 on {RE}; little on {VA}, nil on {SC}"),
    ("reduction.self_s", "s", f"predicts op_ms_p50, op_ms_p90 on {RE}; little on {VA}, nil on {SC}"),
    ("reduction.gons_built", "count", f"predicts op_ms_p50, op_ms_p90 on {RE}"),
    ("reduction.gons_per_verdict", "ratio", f"predicts op_ms_p50, op_ms_p90 on {RE}"),
    ("reduction.orders_run", "count", f"predicts op_ms_p50, op_ms_p90 on {RE}"),
    ("registry.trials", "count", f"predicts op_ms_p50 on {VA}"),
    ("registry.check.self_s", "s", f"predicts op_ms_p50 on {VA}"),
    ("bisectors.calls", "count", f"predicts op_ms_p90 on {VA}"),
    ("bisectors.self_s", "s", f"predicts op_ms_p90 on {VA}"),
    ("dsl.parse.self_s", "s", f"predicts ops_per_s on {SC}"),
    ("dsl.evaluate.self_s", "s", f"predicts ops_per_s on {SC}"),
    ("dsl.statements", "count", f"predicts ops_per_s on {SC}"),
    ("dsl.statements_per_s", "1/s", f"predicts ops_per_s on {SC}"),
    ("render.self_s", "s", f"predicts op_ms_p90 on {SC}"),
    ("render.bytes", "bytes", f"predicts op_ms_p90 on {SC}"),
    ("cli.self_s", "s", f"predicts op_ms_p50 on {SC}"),
    ("trace.overhead_ratio", "ratio", "traced over untraced wall time of the same ops"),
)
