"""Desk-scale causal transformer with grouped-query attention and the
cross-layer cache-compression pipeline.

Layer wiring for a prompt, for estimation layer index e = clie_layer_index
and sparsity start s = st_layer_index (config requires s > e):

    layers 0..s-1    dense causal mask
    layers s..L-1    the configured sparsity pattern's mask

_forward is the only loop over layers for a prompt. Three passes run it and
differ only in the attention callable they hand it:

    prefill          streaming attention, one call per layer for all query
                     heads; layers 0..e also materialize the last w query
                     rows only, a (w, l) slab per query head, for the layer's
                     recent-window accumulator
    validation       the same streamed pass, keeping every layer's slab
                     accumulator and value rows
    h2o_like         masked attention over all l rows at every layer, only
                     for the heavy-hitter baseline's column sums

Prefill keeps each layer's accumulators in session.importance[layer], one
vector per KV head, for layers 0..e and None above (and everywhere when
w >= l). Compression runs once after prefill, and only when the budget
leaves something to evict: layers at or below e are scored with their own
accumulator, layers above reuse layer e's accumulator, both weighted by the
layer's own value-row norms. The retained set is stored only in the cache:
cache[layer].positions[g] holds the original positions KV head g kept.

Decode runs the same transformer block as the prompt passes. At each layer
it appends the new token's key and value row to every KV head, past the
committed rows of the layer's preallocated (Hkv, capacity, d) buffers, and
makes one attention.decode call: the (Hkv, group_size, d_k) query against
the (Hkv, n, d) stacked views, no mask and no key tiles. A step is all or
nothing: if any layer raises, every layer is truncated back to the lengths
it had before the step, and step_count is unchanged. Decode never calls
masked, and its one softmax row per query head lives only inside the
kernel, so decode stays streaming-compatible: no caller can read its
attention weights.

Embeddings that enter prefill or decode must be finite; anything else is
rejected before the session changes.

Positions enter only through causal masking; there is no rotary or learned
positional encoding, and embeddings are supplied by the caller. The block is
pre-norm with a two-layer ReLU MLP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import attention
from .cache import (
    KvCacheLayer,
    PolicyConfig,
    accumulate_recent_attention,
    baseline_h2o_score,
    baseline_streaming,
    budget_to_wh,
    evict,
    select_retained,
)
from .errors import ConfigurationError
from .masks import SparsityPattern, TokenLayout, build_mask
from .numerics import derive_seed, l2_norm_rows, seeded_gaussian

_FF_MULT = 2
_NORM_EPS = 1e-12
_WEIGHT_TAG = 11
_VOCAB_TAG = 13


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    d_model: int
    num_q_heads: int
    num_kv_heads: int
    d_k: int
    d_v: int
    vocab_size: int
    seed: int

    def __post_init__(self):
        for name in ("num_layers", "d_model", "num_q_heads", "num_kv_heads",
                     "d_k", "d_v", "vocab_size"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"model.{name} must be >= 1")
        if self.num_q_heads % self.num_kv_heads != 0:
            raise ConfigurationError(
                f"num_q_heads ({self.num_q_heads}) must be divisible by "
                f"num_kv_heads ({self.num_kv_heads})"
            )
        if self.d_model != self.num_q_heads * self.d_k:
            raise ConfigurationError(
                f"d_model ({self.d_model}) must equal num_q_heads * d_k "
                f"({self.num_q_heads} * {self.d_k})"
            )

    @property
    def group_size(self) -> int:
        return self.num_q_heads // self.num_kv_heads

    def kv_group(self, q_head: int) -> int:
        return q_head // self.group_size


@dataclass(frozen=True)
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray


@dataclass(frozen=True)
class Model:
    """Immutable after init; safe to share across concurrent sessions."""

    config: ModelConfig
    layers: tuple[LayerWeights, ...]
    w_vocab: np.ndarray


def init_model(config: ModelConfig) -> Model:
    """Draw all projection weights from the seeded counter stream."""
    c = config
    scale = 1.0 / np.sqrt(c.d_model)
    d_ff = _FF_MULT * c.d_model

    def draw(rows, cols, *tags):
        return seeded_gaussian(rows, cols, derive_seed(c.seed, _WEIGHT_TAG, *tags)) * scale

    layers = []
    for layer in range(c.num_layers):
        layers.append(LayerWeights(
            wq=draw(c.d_model, c.num_q_heads * c.d_k, layer, 0),
            wk=draw(c.d_model, c.num_kv_heads * c.d_k, layer, 1),
            wv=draw(c.d_model, c.num_kv_heads * c.d_v, layer, 2),
            wo=draw(c.num_q_heads * c.d_v, c.d_model, layer, 3),
            w_up=draw(c.d_model, d_ff, layer, 4),
            w_down=draw(d_ff, c.d_model, layer, 5),
        ))
    w_vocab = seeded_gaussian(c.d_model, c.vocab_size, derive_seed(c.seed, _VOCAB_TAG)) * scale
    return Model(config=c, layers=tuple(layers), w_vocab=w_vocab)


@dataclass
class SessionState:
    layout: TokenLayout
    policy: PolicyConfig
    pattern: SparsityPattern
    tile_size: int = attention.DEFAULT_TILE
    cache: list[KvCacheLayer] = field(default_factory=list)
    importance: list[list[np.ndarray] | None] = field(default_factory=list)
    prefill_embeddings: np.ndarray | None = None
    prefill_len: int = 0
    w: int = 0
    h: int = 0
    compressed: bool = False
    step_count: int = 0


def check_layer_depth(policy: PolicyConfig, num_layers: int, path: str = "") -> None:
    """Reject layer indices a model of this depth cannot hold; path prefixes field names."""
    clie, st = policy.clie_layer_index, policy.st_layer_index
    if clie >= num_layers:
        raise ConfigurationError(f"{path}clie_layer_index ({clie}) must be below "
                                 f"num_layers ({num_layers})")
    if st > num_layers:
        raise ConfigurationError(f"{path}st_layer_index ({st}) must be at most "
                                 f"num_layers ({num_layers})")


def init_session(model: Model, layout: TokenLayout, policy: PolicyConfig,
                 pattern: SparsityPattern, tile_size: int = attention.DEFAULT_TILE) -> SessionState:
    """Validate the policy against this model's depth and open a session."""
    check_layer_depth(policy, model.config.num_layers)
    if tile_size < 1:
        raise ConfigurationError("tile_size must be >= 1")
    return SessionState(layout=layout, policy=policy, pattern=pattern, tile_size=tile_size)


def _require_finite(x: np.ndarray, what: str):
    """Reject NaN or inf input before it reaches any session state."""
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")


def _rmsnorm(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt((x * x).mean(axis=1, keepdims=True) + _NORM_EPS)


def _project_heads(h: np.ndarray, weights: LayerWeights, config: ModelConfig):
    n = h.shape[0]
    q = (h @ weights.wq).reshape(n, config.num_q_heads, config.d_k)
    k = (h @ weights.wk).reshape(n, config.num_kv_heads, config.d_k)
    v = (h @ weights.wv).reshape(n, config.num_kv_heads, config.d_v)
    return q, k, v


def _streaming_heads(q: np.ndarray, kv: KvCacheLayer, mask: np.ndarray, tile_size: int,
                     config: ModelConfig) -> np.ndarray:
    """Every query head of a layer in one streaming call.

    q is (l_q, num_q_heads, d_k); query head g * group_size + j reads KV
    head g. Returns the head outputs side by side, (l_q, num_q_heads * d_v).
    """
    l_q = q.shape[0]
    grouped = q.reshape(l_q, config.num_kv_heads, config.group_size, config.d_k)
    keys, values = kv.stacked()
    out = attention.streaming_masked(
        grouped.transpose(1, 2, 0, 3), keys[:, None], values[:, None], mask, tile_size,
    )
    return out.transpose(2, 0, 1, 3).reshape(l_q, -1)


def _block(x: np.ndarray, weights: LayerWeights, config: ModelConfig, attend) -> np.ndarray:
    """One pre-norm layer; attend(q, k, v) returns the head outputs side by side."""
    q, k, v = _project_heads(_rmsnorm(x), weights, config)
    x = x + attend(q, k, v) @ weights.wo
    return x + np.maximum(_rmsnorm(x) @ weights.w_up, 0.0) @ weights.w_down


def _forward(model: Model, session: SessionState, x: np.ndarray, attend) -> np.ndarray:
    """The one loop over layers for a prompt; returns the final hidden states.

    Each layer's projected keys and values arrive wrapped in a KvCacheLayer,
    and attend(layer, q, kv, mask) returns that layer's head outputs.
    """
    c = model.config
    st = session.policy.st_layer_index
    dense_mask = sparse_mask = build_mask(session.layout, SparsityPattern.dense())
    if session.pattern.kind != "dense" and st < c.num_layers:
        sparse_mask = build_mask(session.layout, session.pattern)
    for layer in range(c.num_layers):
        mask = dense_mask if layer < st else sparse_mask

        def attend_heads(q, k, v):
            return attend(layer, q, KvCacheLayer.from_projections(k, v), mask)

        x = _block(x, model.layers[layer], c, attend_heads)
    return x


def _recent_accumulators(q: np.ndarray, kv: KvCacheLayer, mask: np.ndarray, w: int,
                         config: ModelConfig) -> list[np.ndarray]:
    """Per KV head, the mean over its query heads of the recent-window accumulator.

    Only the last w query rows are materialized: a (w, l) slab per query head.
    """
    l = q.shape[0]
    keys, values = kv.stacked()
    accumulators = [[] for _ in range(config.num_kv_heads)]
    for q_head in range(config.num_q_heads):
        g = config.kv_group(q_head)
        _, weights = attention.masked(q[l - w:, q_head, :], keys[g], values[g], mask[l - w:])
        accumulators[g].append(accumulate_recent_attention(weights, w))
    return [np.mean(acc, axis=0) for acc in accumulators]


def prefill(model: Model, session: SessionState, token_embeddings) -> np.ndarray:
    """Run the whole prompt, populate the cache, and return (l, vocab) logits."""
    c = model.config
    x = np.asarray(token_embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != c.d_model:
        raise ConfigurationError(
            f"embeddings must be (tokens, {c.d_model}), got {x.shape}"
        )
    if x.shape[0] != session.layout.total_len:
        raise ConfigurationError(
            f"embeddings rows ({x.shape[0]}) must match layout total_len "
            f"({session.layout.total_len})"
        )
    if session.cache:
        raise ConfigurationError("session already prefilled")
    _require_finite(x, "embeddings")

    l = x.shape[0]
    w, h_count = budget_to_wh(session.policy.budget_fraction, l, session.policy.recent_window_w)
    session.w, session.h = w, h_count
    session.prefill_len = l
    session.prefill_embeddings = x.copy()
    clie = session.policy.clie_layer_index

    def attend(layer, q, kv, mask):
        session.cache.append(kv)
        session.importance.append(
            _recent_accumulators(q, kv, mask, w, c) if layer <= clie and w < l else None
        )
        return _streaming_heads(q, kv, mask, session.tile_size, c)

    return _rmsnorm(_forward(model, session, x, attend)) @ model.w_vocab


def _instrumented_stats(model: Model, session: SessionState) -> list[list[np.ndarray]]:
    """The h2o_like pass: full attention weights materialized at every layer.

    Never called by prefill, decode or validation. Returns, per layer, each
    KV head's column-sum score averaged over its query heads.
    """
    c = model.config
    colsums = []

    def attend(layer, q, kv, mask):
        keys, values = kv.stacked()
        per_head = [[] for _ in range(c.num_kv_heads)]
        head_outs = []
        for q_head in range(c.num_q_heads):
            g = c.kv_group(q_head)
            out, weights = attention.masked(q[:, q_head, :], keys[g], values[g], mask)
            head_outs.append(out)
            per_head[g].append(baseline_h2o_score(weights))
        colsums.append([np.mean(cs, axis=0) for cs in per_head])
        return np.concatenate(head_outs, axis=1)

    _forward(model, session, session.prefill_embeddings, attend)
    return colsums


def apply_compression(model: Model, session: SessionState) -> SessionState:
    """Score, select, and evict once at the end of prefill."""
    if not session.cache:
        raise ConfigurationError("apply_compression requires a completed prefill")
    if session.compressed:
        raise ConfigurationError("compression already applied")
    c = model.config
    policy = session.policy
    l = session.prefill_len
    w, h_count = session.w, session.h
    clie = policy.clie_layer_index

    if policy.policy_kind == "full" or w + h_count >= l:
        session.compressed = True
        return session

    h2o_colsums = _instrumented_stats(model, session) if policy.policy_kind == "h2o_like" else None

    retained_all = []
    for layer in range(c.num_layers):
        per_head = []
        for g in range(c.num_kv_heads):
            if policy.policy_kind == "pure_kv":
                source = layer if layer <= clie else clie
                accumulators = session.importance[source]
                if accumulators is None or accumulators[g].size != l - w:
                    raise ConfigurationError(
                        f"layer {layer}: missing recent-window accumulator for head {g}"
                    )
                values = session.cache[layer].values[g]
                scores = accumulators[g] * l2_norm_rows(values[: l - w])
                per_head.append(select_retained(scores, w, h_count, l))
            elif policy.policy_kind == "h2o_like":
                scores = h2o_colsums[layer][g][: l - w]
                per_head.append(select_retained(scores, w, h_count, l))
            else:  # streaming_like
                n_keep = w + h_count
                sink = min(policy.sink_len, n_keep)
                per_head.append(baseline_streaming(l, sink, n_keep - sink))
        retained_all.append(per_head)

    for layer in range(c.num_layers):
        session.cache[layer] = evict(session.cache[layer], retained_all[layer])
        session.cache[layer].check_invariants()
    session.compressed = True
    return session


def decode_step(model: Model, session: SessionState, token_embedding) -> np.ndarray:
    """One autoregressive step over the retained cache; returns (vocab,) logits."""
    if not session.compressed:
        raise ConfigurationError("decode requires apply_compression (or the full policy) first")
    c = model.config
    x = np.asarray(token_embedding, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != c.d_model:
        raise ConfigurationError(f"token embedding must have length {c.d_model}")
    _require_finite(x, "token embedding")

    position = session.prefill_len + session.step_count
    committed = [kv.lengths for kv in session.cache]
    try:
        for layer in range(c.num_layers):
            kv = session.cache[layer]

            def attend(q, k, v):
                for g in range(c.num_kv_heads):
                    kv.append(g, k[0, g, :], v[0, g, :], position)
                keys, values = kv.stacked()
                grouped = q.reshape(c.num_kv_heads, c.group_size, c.d_k)
                return attention.decode(grouped, keys, values).reshape(1, -1)

            x = _block(x, model.layers[layer], c, attend)
    except BaseException:
        # All or nothing: the rows this step appended are dropped again.
        for kv, lengths in zip(session.cache, committed):
            kv.truncate(lengths)
        raise

    session.step_count += 1
    return (_rmsnorm(x) @ model.w_vocab)[0]


def validate_cross_layer(model: Model, session: SessionState, analysis_layer: int | None = None,
                         n_perm: int = 999, seed: int = 0) -> dict:
    """Rank agreement between reused-accumulator scores and own-layer scores.

    For every layer above the analysis layer and every KV head, correlate
    the estimate (analysis layer's accumulator times this layer's V norms)
    with the ground truth (the layer's own accumulator times the same
    norms). Reruns prefill's forward pass on the prompt, recording every
    layer's recent-window accumulator from its (w, l) slab and its value rows.
    Returns the report's validation dict: analysis_layer, median_rho,
    median_p and per_layer entries (layer, median_rho, median_p, heads).
    """
    # Looked up at call time, so that a wrapper installed on purekv.stats
    # (as the traced benchmark does) sees these calls.
    from .stats import permutation_pvalue, spearman_rho

    c = model.config
    analysis = session.policy.clie_layer_index if analysis_layer is None else analysis_layer
    if not (0 <= analysis < c.num_layers):
        raise ConfigurationError(f"analysis layer {analysis} out of range")
    if analysis == c.num_layers - 1:
        raise ConfigurationError("no layers above the analysis layer to validate")
    l, w = session.prefill_len, session.w
    if l <= w:
        raise ConfigurationError(f"validation needs l > w, got l={l}, w={w}")
    accumulators, values = [], []

    def attend(layer, q, kv, mask):
        accumulators.append(_recent_accumulators(q, kv, mask, w, c))
        values.append(kv.values)
        return _streaming_heads(q, kv, mask, session.tile_size, c)

    _forward(model, session, session.prefill_embeddings, attend)

    per_layer, all_rho, all_p = [], [], []
    for layer in range(analysis + 1, c.num_layers):
        rhos, ps = [], []
        for g in range(c.num_kv_heads):
            norms = l2_norm_rows(values[layer][g][: l - w])
            truth = accumulators[layer][g] * norms
            estimate = accumulators[analysis][g] * norms
            rhos.append(spearman_rho(estimate, truth))
            ps.append(permutation_pvalue(estimate, truth, n_perm, derive_seed(seed, layer, g)))
        per_layer.append({
            "layer": layer,
            "median_rho": float(np.median(rhos)),
            "median_p": float(np.median(ps)),
            "heads": [{"head": g, "rho": r, "p": p} for g, (r, p) in enumerate(zip(rhos, ps))],
        })
        all_rho += rhos
        all_p += ps
    return {
        "analysis_layer": analysis,
        "median_rho": float(np.median(all_rho)),
        "median_p": float(np.median(all_p)),
        "per_layer": per_layer,
    }
