"""Every metric the benchmark reports: its unit, its direction, and for each
per-layer metric the end-to-end metric and workload it should move.

BENCHMARK.json names the workloads and the subset of these metrics that the
regression gate reads. Its schema has no room for the layer-to-end-to-end
mapping, so the mapping lives here and `python3 perfbench/run.py
--list-metrics` prints it.
"""

# name -> (unit, better). The percentiles follow the ten-beyond rule and may
# be null, so BENCHMARK.json gates the medians, which always exist.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ttft_ms.median": ("ms", "lower"),
    "ttft_ms.p50": ("ms", "lower"),
    "ttft_ms.p90": ("ms", "lower"),
    "ttft_ms.samples": ("count", "higher"),
    "tpot_ms.median": ("ms", "lower"),
    "tpot_ms.p50": ("ms", "lower"),
    "tpot_ms.p90": ("ms", "lower"),
    "tpot_ms.samples": ("count", "higher"),
    "prefill_tok_per_s": ("tokens/s", "higher"),
    "decode_tok_per_s": ("tokens/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("share", "lower"),
}
# Times above are scaled to the probe's reference speed (see speed.py); the
# same metrics measured as plain wall time carry the suffix ".raw".
SCALED = ("setup_s", "wall_s", "ttft_ms.median", "ttft_ms.p50", "ttft_ms.p90",
          "tpot_ms.median", "tpot_ms.p50", "tpot_ms.p90", "prefill_tok_per_s", "decode_tok_per_s")
END_TO_END.update({f"{name}.raw": END_TO_END[name] for name in SCALED})

_LP = "long-prefill"
_DL = "decode-long"
_EG = "example-grid"

# name -> (unit, better, what it should move). Times are per measured pass,
# plus the traced set-up where the function runs there.
PER_LAYER = {
    "numerics.seeded_gaussian.ms": ("ms", "lower", "setup_s on every workload"),
    "numerics.row_softmax.ms": ("ms", "lower", f"ttft_ms.median on {_LP}"),
    "masks.build_mask.calls": ("count", "lower", f"ttft_ms.median and wall_s on {_LP}"),
    "masks.build_mask.ms": ("ms", "lower", f"ttft_ms.median and wall_s on {_LP}"),
    "attention.masked.calls": ("count", "lower", f"ttft_ms.median on {_LP}"),
    "attention.masked.ms": ("ms", "lower", f"ttft_ms.median on {_LP}"),
    "attention.masked.weight_bytes": ("bytes", "lower", f"peak_rss_mb on {_LP}"),
    "attention.streaming_masked.calls": ("count", "lower", f"tpot_ms.median on {_DL} and {_EG}"),
    "attention.streaming_masked.ms": ("ms", "lower", f"tpot_ms.median on {_DL}; ttft on {_LP}"),
    "attention.streaming_masked.tiles": ("count", "lower", f"tpot_ms.median on {_DL}; ttft on {_LP}"),
    "attention.streaming_masked.pairs_scored": ("count", "lower", f"ttft_ms.median on {_LP}"),
    "attention.streaming_masked.pairs_allowed": ("count", "lower", f"ttft_ms.median on {_LP}"),
    "attention.streaming_masked.useful_ratio": ("ratio", "higher", f"ttft_ms.median on {_LP}"),
    "attention.prefill.materialized_ms": ("ms", "lower", f"ttft_ms.median on {_LP}"),
    "attention.prefill.streaming_ms": ("ms", "lower", f"ttft_ms.median on {_LP}"),
    "attention.decode_ms": ("ms", "lower", f"tpot_ms.median on {_DL} and {_EG}"),
    "attention.instrumented_ms": ("ms", "lower", f"wall_s on {_EG}"),
    "attention.scored_vs_mac_ratio": ("ratio", "lower", "prefill work the MAC model does not credit"),
    "cache.append.calls": ("count", "lower", f"tpot_ms.p90 on {_DL}"),
    "cache.append.ms": ("ms", "lower", f"tpot_ms.p90 on {_DL}"),
    "cache.append.bytes_copied": ("bytes", "lower", f"tpot_ms.p90 on {_DL}"),
    "cache.kv_bytes_held.after_compression": ("bytes", "lower", "peak_rss_mb"),
    "cache.kv_bytes_held.end": ("bytes", "lower", "peak_rss_mb"),
    "cache.accumulate_recent_attention.ms": ("ms", "lower", f"ttft_ms.median on {_LP}"),
    "cache.select_retained.ms": ("ms", "lower", f"ttft_ms.median on {_EG}"),
    "cache.evict.ms": ("ms", "lower", f"ttft_ms.median on {_EG}"),
    "cache.baseline_h2o_score.calls": ("count", "lower", f"ttft_ms.median on {_EG}"),
    "cache.baseline_h2o_score.ms": ("ms", "lower", f"ttft_ms.median on {_EG}"),
    "stats.permutation_pvalue.calls": ("count", "lower", f"wall_s on {_EG} only"),
    "stats.permutation_pvalue.ms": ("ms", "lower", f"wall_s on {_EG} only"),
    "stats.spearman_rho.ms": ("ms", "lower", f"wall_s on {_EG} only"),
    "engine.init_model.ms": ("ms", "lower", "setup_s"),
    "engine.prefill.calls": ("count", "lower", f"wall_s on {_EG}"),
    "engine.prefill.ms": ("ms", "lower", f"ttft_ms.median on {_LP}"),
    "engine.prefill.self_ms": ("ms", "lower", f"ttft_ms.median on {_LP}"),
    "engine.apply_compression.ms": ("ms", "lower", f"wall_s on {_EG}"),
    "engine.apply_compression.self_ms": ("ms", "lower", f"wall_s on {_EG}"),
    "engine.validate_cross_layer.calls": ("count", "lower", f"wall_s on {_EG}"),
    "engine.validate_cross_layer.ms": ("ms", "lower", f"wall_s on {_EG}"),
    "engine.decode_step.calls": ("count", "lower", "decode_tok_per_s"),
    "engine.decode_step.ms": ("ms", "lower", "tpot_ms.*"),
    "engine.decode_step.self_ms": ("ms", "lower", "tpot_ms.*"),
    "harness.generate_workload.ms": ("ms", "lower", "setup_s"),
    "harness.run_experiment.calls": ("count", "lower", f"wall_s on {_EG}"),
    "harness.run_experiment.self_ms": ("ms", "lower", f"wall_s on {_EG}"),
    "harness.estimate_macs.ms": ("ms", "lower", f"wall_s on {_EG}"),
    "harness.render_report.ms": ("ms", "lower", f"wall_s on {_EG}"),
    "harness.report_identical": ("count", "higher", f"report bytes on {_EG}"),
    "cli.main.calls": ("count", "lower", f"wall_s on {_EG}"),
    "cli.main.self_ms": ("ms", "lower", f"wall_s on {_EG}"),
    "trace.overhead_s": ("s", "lower", "traced wall_s minus untraced wall_s"),
    "trace.uncovered_share": ("share", "lower", "traced wall_s not inside any top-level span"),
}


def unit_of(name: str) -> str:
    table = END_TO_END if name in END_TO_END else PER_LAYER
    return table[name][0]
