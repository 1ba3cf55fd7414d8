"""Desk-scale causal transformer with grouped-query attention and the
cross-layer cache-compression pipeline.

Layer wiring for a prompt, for estimation layer index e = clie_layer_index
and sparsity start s = st_layer_index (config requires s > e):

    layers 0..s-1    dense causal mask
    layers s..L-1    the configured sparsity pattern's mask

Head layout: _project_heads gives q as (Hkv, G, n, d_k), k and v as
(Hkv, n, d), where query head g * G + j is q[g, j] and reads KV head g;
every attention call takes that layout, and _block turns the
(Hkv, G, n, d_v) head outputs back into (n, Hq * d_v). No other code
reshapes or transposes head axes.

prompt_pass and decode_step each run one loop over the layers. prompt_pass
builds one attention.TilePlan per distinct mask, not per layer, and makes
one streaming_masked call per layer for all query heads on the layer's plan
(column_mass through _instrumented_stats for h2o_like column sums) and, at
the lowest layers, one masked call on the last w_max query rows of the
plan's mask, whose (w_max, l) slab gives every window's accumulators. Every
array of the PromptPass it returns is read-only, so a grid runs one per
pattern. prefill, all or nothing, adopts a pass that covers the session or
runs one for it alone, and keeps it as session.prompt; it copies nothing.
Validation needs no session: it reads one window's accumulators and every
layer's value rows from each of a sequence of passes covering every layer
(one per pattern, say), and scores a KV head of every pass against one
draw of permutations.

Compression runs once after prefill and builds every layer's cache from
session.prompt, which it then drops, so a private pass is freed. Each layer
is scored, selected and evicted as one table: score_low weights the layer's
own accumulator (layers at or below e) or layer e's (above) by the layer's
value-row norms, select_retained turns those (Hkv, l - w) scores into an
(Hkv, w + h) table of positions, and evict gathers those rows of the pass's
K/V into the cache, where cache[layer].positions[g] holds the original
positions KV head g kept. The full policy, and any budget that keeps every
row, retains all l positions through the same evict.

session.phase is "new", then "prefilled", then "compressed"; every session
entry point checks it first and raises before changing anything.

Decode projects and finishes each layer as the prompt pass does. At each
layer it appends the new token's key and value row to every KV head, past
the committed rows of the layer's preallocated (Hkv, capacity, d) buffers,
and makes one attention.decode call: the (Hkv, group_size, d_k) query
against the (Hkv, n, d) stacked views, no mask and no key tiles. A step is
all or nothing: if any layer raises, every layer is truncated back to the
one row count its heads held before the step, and step_count is unchanged.
Decode never calls masked, and its one softmax row per query head lives only
inside the kernel, so decode stays streaming-compatible: no caller can read
its attention weights. Decode reads only the cache's rows, with no mask and
no positional encoding, so two sessions whose caches hold the same rows
decode to bit-identical logits; the harness uses that to decode each
distinct cache of a grid once.

Embeddings that enter prefill or decode must be finite, and small enough
that RMSNorm's sum of squares of each row stays finite; anything else is
rejected with a ValueError before the session changes.

Positions enter only through causal masking; there is no rotary or learned
positional encoding, and embeddings are supplied by the caller. The block is
pre-norm with a two-layer ReLU MLP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import attention, stats
from .cache import (
    KvCacheLayer,
    PolicyConfig,
    accumulate_recent_attention,
    baseline_h2o_score,  # noqa: F401  a traced benchmark site looks this name up here
    baseline_streaming,
    budget_to_wh,
    evict,
    score_low,
    select_retained,
)
from .errors import ConfigurationError
from .masks import SparsityPattern, TokenLayout, build_mask
from .numerics import derive_seed, seeded_gaussian
from .numerics import l2_norm_rows  # noqa: F401  a traced benchmark site wraps engine.l2_norm_rows

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
    prompt: PromptPass | None = None  # from prefill until compression
    prefill_len: int = 0
    w: int = 0
    h: int = 0
    phase: str = "new"  # "new", then "prefilled", then "compressed"
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
    """Reject NaN or inf input, and rows whose squares _rmsnorm could not sum
    (about 1e154 and up), before they reach any session state."""
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    with np.errstate(over="ignore"):
        sums = (x * x).sum(axis=1)
    if not np.isfinite(sums).all():
        raise ValueError(f"{what} must be small enough that RMSNorm's sum of squares stays "
                         f"finite, got max |x| = {np.abs(x).max():.3g}")


def _rmsnorm(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True) / x.shape[1] + _NORM_EPS)


def _project_heads(h: np.ndarray, weights: LayerWeights, config: ModelConfig):
    """q as (Hkv, G, n, d_k), k and v as (Hkv, n, d): query head g * G + j is q[g, j]."""
    c = config
    n = h.shape[0]
    q = (h @ weights.wq).reshape(n, c.num_kv_heads, c.group_size, c.d_k).transpose(1, 2, 0, 3)
    k = (h @ weights.wk).reshape(n, c.num_kv_heads, c.d_k).transpose(1, 0, 2)
    v = (h @ weights.wv).reshape(n, c.num_kv_heads, c.d_v).transpose(1, 0, 2)
    return q, k, v


def _block(x: np.ndarray, weights: LayerWeights, heads: np.ndarray) -> np.ndarray:
    """Finish one pre-norm layer from its (Hkv, G, n, d_v) head outputs."""
    x = x + heads.transpose(2, 0, 1, 3).reshape(x.shape[0], -1) @ weights.wo
    return x + np.maximum(_rmsnorm(x) @ weights.w_up, 0.0) @ weights.w_down


@dataclass(frozen=True)
class PromptPass:
    """One forward over a prompt, shared by every session it covers; its arrays are read-only.

    wiring is (layout, pattern, st_layer_index, tile_size). keys[layer] and
    values[layer] are (Hkv, l, d). accumulators[w] lists the (Hkv, l - w)
    recent-window accumulators of layers 0..layers-1, or is None when w >= l;
    colsums lists every layer's (Hkv, l) column sums, or is None.
    """

    model: Model
    wiring: tuple[TokenLayout, SparsityPattern, int, int]
    layers: int
    logits: np.ndarray
    keys: list[np.ndarray]
    values: list[np.ndarray]
    accumulators: dict[int, list[np.ndarray] | None]
    colsums: list[np.ndarray] | None


def prompt_pass(model: Model, layout: TokenLayout, pattern: SparsityPattern, st_layer_index: int,
                token_embeddings, windows, layers: int, column_sums: bool = False,
                tile_size: int = attention.DEFAULT_TILE) -> PromptPass:
    """Run the prompt once: logits, every layer's K/V and the statistics asked for.
    Layers 0..layers-1 take every window's accumulators from one (max w, l) slab."""
    x = np.asarray(token_embeddings, dtype=np.float64)
    if x.shape != (layout.total_len, model.config.d_model):
        raise ConfigurationError(f"embeddings must be (layout rows, d_model) = "
                                 f"{(layout.total_len, model.config.d_model)}, got {x.shape}")
    _require_finite(x, "embeddings")
    l = x.shape[0]
    accumulators = {w: [] if w < l else None for w in windows}
    first = l - max((w for w in windows if w < l), default=0)
    keys, values, colsums, plans = [], [], [], {}
    for layer, weights in enumerate(model.layers):
        kind = pattern if layer >= st_layer_index else SparsityPattern.dense()
        if kind not in plans:  # one TilePlan per distinct mask, not per layer
            mask = build_mask(layout, kind)
            mask.flags.writeable = False  # so the plan keeps this fresh mask instead of a copy
            plans[kind] = attention.TilePlan(mask, tile_size)
        plan = plans[kind]
        q, k, v = _project_heads(_rmsnorm(x), weights, model.config)
        keys.append(k)
        values.append(v)
        if layer < layers and first < l:
            _, slab = attention.masked(q[:, :, first:], k[:, None], v[:, None], plan.mask[first:])
            for w, table in accumulators.items():
                if table is not None:
                    table.append(accumulate_recent_attention(slab, w).mean(axis=1))
            del slab  # so two layers' slabs are never held at once
        if column_sums:
            heads, mass = _instrumented_stats(q, k, v, plan)
            colsums.append(mass)
        else:
            heads = attention.streaming_masked(q, k[:, None], v[:, None], plan)
        x = _block(x, weights, heads)
    logits = _rmsnorm(x) @ model.w_vocab
    for array in [logits, *keys, *values, *colsums,
                  *(a for table in accumulators.values() for a in table or ())]:
        array.flags.writeable = False
    return PromptPass(model, (layout, pattern, st_layer_index, tile_size), layers, logits,
                      keys, values, accumulators, colsums if column_sums else None)


def _instrumented_stats(q, k, v, plan):
    """One layer's h2o_like step: the streamed output and the (Hkv, l) column sums
    of one column_mass call, averaged over each KV head's query heads."""
    out, mass = attention.column_mass(q, k[:, None], v[:, None], plan)
    return out, mass.mean(axis=1)


def prefill(model: Model, session: SessionState, prompt) -> np.ndarray:
    """Adopt a PromptPass that covers the session, or run one of its own from embeddings;
    returns a copy of its logits. Compression builds the cache from the pass."""
    if session.phase != "new":
        raise ConfigurationError("session already prefilled")
    policy, l = session.policy, session.layout.total_len
    clie, h2o = policy.clie_layer_index, policy.policy_kind == "h2o_like"
    w, h_count = budget_to_wh(policy.budget_fraction, l, policy.recent_window_w)
    wiring = (session.layout, session.pattern, policy.st_layer_index, session.tile_size)
    if not isinstance(prompt, PromptPass):
        prompt = prompt_pass(model, *wiring[:3], prompt, (w,), clie + 1, h2o, session.tile_size)
    if (prompt.model is not model or prompt.wiring != wiring or w not in prompt.accumulators
            or prompt.layers <= clie or (h2o and prompt.colsums is None)):
        raise ConfigurationError(
            f"prompt pass does not cover this session's model, layout, pattern, st_layer_index, "
            f"tile_size, window {w}, layers 0..{clie}{' or column sums' if h2o else ''}")
    session.prompt = prompt
    session.w, session.h, session.prefill_len, session.phase = w, h_count, l, "prefilled"
    return prompt.logits.copy()


def apply_compression(model: Model, session: SessionState) -> SessionState:
    """Score, select, and evict once at the end of prefill, building the cache from the pass."""
    if session.phase == "new":
        raise ConfigurationError("apply_compression requires a completed prefill")
    if session.phase == "compressed":
        raise ConfigurationError("compression already applied")
    policy, kind, prompt = session.policy, session.policy.policy_kind, session.prompt
    l, w, h_count = session.prefill_len, session.w, session.h
    sink = min(policy.sink_len, w + h_count)
    keep = (np.arange(l) if kind == "full" or w + h_count >= l else
            baseline_streaming(l, sink, w + h_count - sink) if kind == "streaming_like" else None)
    cache = []
    for layer, (keys, values) in enumerate(zip(prompt.keys, prompt.values)):
        if keep is not None:
            retained = np.broadcast_to(keep, (len(keys), keep.size))
        elif kind == "pure_kv":
            accumulators = prompt.accumulators[w][min(layer, policy.clie_layer_index)]
            retained = select_retained(score_low(accumulators, values), w, h_count, l)
        else:
            retained = select_retained(prompt.colsums[layer][:, : l - w], w, h_count, l)
        cache.append(evict(keys, values, retained))
        cache[-1].check_invariants()
    # All or nothing: the session changes only once every layer is evicted.
    session.cache, session.prompt, session.phase = cache, None, "compressed"
    return session


def decode_step(model: Model, session: SessionState, token_embedding) -> np.ndarray:
    """One autoregressive step over the retained cache; returns (vocab,) logits."""
    if session.phase != "compressed":
        raise ConfigurationError("decode requires apply_compression (or the full policy) first")
    c = model.config
    x = np.asarray(token_embedding, dtype=np.float64)
    if x.shape != (c.d_model,):
        raise ConfigurationError(f"token embedding must have length {c.d_model}, "
                                 f"got shape {x.shape}")
    x = x.reshape(1, -1)
    _require_finite(x, "token embedding")

    position = session.prefill_len + session.step_count
    committed = [kv.rows(0) for kv in session.cache]
    try:
        for kv, weights in zip(session.cache, model.layers):
            q, k, v = _project_heads(_rmsnorm(x), weights, c)
            for g in range(c.num_kv_heads):
                kv.append(g, k[g, 0], v[g, 0], position)
            keys, values, _ = kv.stacked()
            x = _block(x, weights, attention.decode(q[:, :, 0], keys, values)[:, :, None])
    except BaseException:
        # All or nothing: the rows this step appended are dropped again.
        for kv, n in zip(session.cache, committed):
            kv.truncate(n)
        raise

    session.step_count += 1
    return (_rmsnorm(x) @ model.w_vocab)[0]


def validate_cross_layer(prompts, w: int, analysis_layer: int, n_perm: int = 999,
                         seed: int = 0) -> list[dict]:
    """Rank agreement between reused-accumulator scores and own-layer scores.

    For every layer above the analysis layer, score_low weights two
    (Hkv, l - w) accumulator tables by this layer's value-row norms: the
    analysis layer's (the estimate) and the layer's own (the ground truth),
    and each KV head's two rows are correlated. Reads window w's
    accumulators and every layer's value rows from each of prompts, a
    sequence of passes over one model and layout (one per pattern, say)
    that hold them on every layer. A KV head's permutation seed depends only
    on the layer and head, so one permutation_pvalue call scores that head
    for every pass. Returns one report validation dict per pass:
    analysis_layer, median_rho, median_p and per_layer entries (layer,
    median_rho, median_p, heads).
    """
    prompts = list(prompts)
    if not prompts:
        raise ConfigurationError("validation needs at least one prompt pass")
    model, layout = prompts[0].model, prompts[0].wiring[0]
    num_layers, l = model.config.num_layers, layout.total_len
    for prompt in prompts:
        if prompt.model is not model or prompt.wiring[0] != layout:
            raise ConfigurationError("validated prompt passes must share one model and layout")
        if prompt.layers < num_layers or w not in prompt.accumulators:
            raise ConfigurationError(f"validation needs a prompt pass with window {w}'s "
                                     f"accumulators on layers 0..{num_layers - 1}")
    if l - w < 3:  # the permutation test needs at least 3 non-recent keys
        raise ConfigurationError(f"validation needs l > w + 2, got l={l}, w={w}")
    if not 0 <= analysis_layer < num_layers:
        raise ConfigurationError(f"analysis layer {analysis_layer} out of range")
    if analysis_layer == num_layers - 1:
        raise ConfigurationError("no layers above the analysis layer to validate")

    per_layer = [[] for _ in prompts]
    for layer in range(analysis_layer + 1, num_layers):
        # (P, Hkv, l - w) tables: pass i's KV head g is row [i, g].
        truth = np.stack([score_low(prompt.accumulators[w][layer], prompt.values[layer])
                          for prompt in prompts])
        estimate = np.stack([score_low(prompt.accumulators[w][analysis_layer],
                                       prompt.values[layer]) for prompt in prompts])
        heads = [[] for _ in prompts]
        for g in range(truth.shape[1]):
            ps, rhos = stats.permutation_pvalue(estimate[:, g], truth[:, g], n_perm,
                                                derive_seed(seed, layer, g), with_rho=True)
            for entries, rho, p in zip(heads, rhos, ps):
                entries.append({"head": g, "rho": float(rho), "p": float(p)})
        for entries, layer_heads in zip(per_layer, heads):
            entries.append({"layer": layer, **_medians(layer_heads), "heads": layer_heads})
    return [{"analysis_layer": analysis_layer,
             **_medians([head for entry in entries for head in entry["heads"]]),
             "per_layer": entries} for entries in per_layer]


def _medians(heads: list[dict]) -> dict:
    return {"median_rho": float(np.median([head["rho"] for head in heads])),
            "median_p": float(np.median([head["p"] for head in heads]))}
