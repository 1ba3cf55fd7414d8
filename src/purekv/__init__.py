"""Desk-scale KV-cache compression testbed.

Pipeline pieces: sparsity masks over video token layouts, materialized and
streaming attention, recent-window importance scoring with V-norm weighting
and cross-layer reuse, budgeted eviction with simplified baselines, rank
correlation validation, and a deterministic experiment harness.
"""

from .attention import masked, streaming_masked
from .cache import (
    KvCacheLayer,
    PolicyConfig,
    accumulate_recent_attention,
    baseline_h2o_score,
    baseline_streaming,
    budget_to_wh,
    evict,
    score_low,
    select_retained,
)
from .engine import (
    Model,
    ModelConfig,
    SessionState,
    apply_compression,
    decode_step,
    init_model,
    init_session,
    prefill,
    validate_cross_layer,
)
from .errors import ConfigurationError
from .harness import (
    WorkloadSpec,
    emit_report,
    estimate_macs,
    generate_workload,
    run_experiment,
    salient_recall,
)
from .masks import (
    SparsityPattern,
    TokenLayout,
    build_mask,
    mask_density,
    mask_to_text,
    parse_pattern,
)
from .numerics import l2_norm_rows, row_softmax, seeded_gaussian
from .stats import permutation_pvalue, rank, spearman_rho

__all__ = [
    "ConfigurationError",
    "KvCacheLayer",
    "Model",
    "ModelConfig",
    "PolicyConfig",
    "SessionState",
    "SparsityPattern",
    "TokenLayout",
    "WorkloadSpec",
    "accumulate_recent_attention",
    "apply_compression",
    "baseline_h2o_score",
    "baseline_streaming",
    "budget_to_wh",
    "build_mask",
    "decode_step",
    "emit_report",
    "estimate_macs",
    "evict",
    "generate_workload",
    "init_model",
    "init_session",
    "l2_norm_rows",
    "mask_density",
    "mask_to_text",
    "masked",
    "parse_pattern",
    "permutation_pvalue",
    "prefill",
    "rank",
    "row_softmax",
    "run_experiment",
    "salient_recall",
    "score_low",
    "seeded_gaussian",
    "select_retained",
    "spearman_rho",
    "streaming_masked",
    "validate_cross_layer",
]

__version__ = "0.1.0"
