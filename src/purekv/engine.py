"""Desk-scale causal transformer with grouped-query attention and the
cross-layer cache-compression pipeline.

Layer wiring for a prompt, for estimation layer index e = clie_layer_index
and sparsity start s = st_layer_index (config requires s > e):

    layers 0..s-1    dense causal mask
    layers s..L-1    the configured sparsity pattern's mask

Head layout: q is (Hkv, G, n, d_k), k and v are (Hkv, n, d), where query
head g * G + j is q[g, j] and reads KV head g. _project_heads builds it for
a prompt and decode_step for its one row; every attention call takes it.
_block takes the head outputs as (n, Hq * d_v) rows: prompt_pass transposes
its (Hkv, G, n, d_v) outputs into them, and decode's (Hkv, G, d_v) output is
already in that order. No other code reshapes or transposes head axes.

prompt_pass and decode_step each run one loop over the layers. prompt_pass
builds each distinct mask once, not per layer, makes its attention.TilePlan,
keeps a copy of its last w_max rows and drops the mask, so no (l, l) array
is held while a layer runs. It makes one streaming_masked call per layer for
all query heads on the layer's plan (column_mass through _instrumented_stats
for h2o_like column sums) and, at the lowest layers, one masked call on the
last w_max query rows against those mask rows, whose (w_max, l) slab gives
every window's accumulators. Once its plans are dropped it norms every value
row in one l2_norm_rows call and stacks the column sums as one (L, Hkv, l)
array. Every array of the PromptPass it returns is read-only, so a grid runs
one per pattern, whose statistics every cell reads. prefill, all or nothing,
adopts a pass that covers the session or runs one for it alone, and keeps it
as session.prompt; it copies nothing. Validation needs no session: it reads
one window's accumulators and the value-row norms from each of a sequence of
passes covering every layer (one per pattern, say), and scores a KV head of
every pass against one draw of permutations.

Compression runs once after prefill and builds every layer's cache from
session.prompt, which it then drops, so a private pass is freed. The whole
layer stack is scored, selected and evicted as one table: the accumulators
of layer min(layer, e) times each layer's value-row norms from the pass
(score_low's product), or for h2o_like a view of the pass's column sums, are
(L, Hkv, l - w) scores that select_retained turns into an (L, Hkv, w + h)
table of positions, and evict writes those rows of the pass's stacked K/V
once, into caches with room for as many again; cache[layer].positions[g]
holds the positions KV head g kept. Keep-all budgets, streaming_like, and
pure_kv or h2o_like at h = 0 (the window alone) broadcast one position list
through evict and score nothing.

session.phase is "new", then "prefilled", then "compressed"; every session
entry point checks it first and raises before changing anything.

Decode runs each layer through the prompt pass's _block, but projects with
one product, the row's RMSNorm times wqkv, and reshapes its slices into q
and k, v; layer 0's RMSNorm reuses the finite check's sum of squares, as the
prompt pass's does. It appends the key and value row to every KV head, past
the rows of the layer's (Hkv, capacity, d) buffers, where compression left
room for m steps, and makes one unchecked attention._decode call, decode's
kernel: the query against the cache's (Hkv, n, d) keys and values, which
show the new row once every head holds it, with no mask and no key tiles. A
step is all or nothing: if any layer raises, every layer is truncated back
to the row count its heads held before the step, read from the cache's
lengths, and step_count is unchanged. Decode never calls masked, and its one
softmax row per query head lives only inside the kernel, so decode stays
streaming-compatible: no caller can read its attention weights. Decode reads
only the cache's rows, with no mask and no positional encoding, so two
sessions whose caches hold the same rows decode to bit-identical logits; the
harness uses that to decode each distinct cache of a grid once.

Embeddings that enter prefill or decode must be finite, and small enough
that RMSNorm's sum of squares of each row stays finite; anything else is
rejected with a ValueError before the session changes.

Positions enter only through causal masking; there is no rotary or learned
positional encoding, and embeddings are supplied by the caller. The block is
pre-norm with a two-layer ReLU MLP.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class LayerWeights:
    wqkv: np.ndarray  # wq, wk and wv side by side; those three are column views of it
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
    q_end, k_end = c.d_model, c.d_model + c.num_kv_heads * c.d_k  # d_model = Hq * d_k
    for layer in range(c.num_layers):
        wqkv = np.hstack([draw(c.d_model, cols, layer, tag) for tag, cols in
                          enumerate((q_end, k_end - q_end, c.num_kv_heads * c.d_v))])
        layers.append(LayerWeights(
            wqkv=wqkv, wq=wqkv[:, :q_end], wk=wqkv[:, q_end:k_end], wv=wqkv[:, k_end:],
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


def check_layer_depth(policy: PolicyConfig, num_layers: int) -> None:
    """Reject layer indices a model of this depth cannot hold."""
    clie, st = policy.clie_layer_index, policy.st_layer_index
    if clie >= num_layers:
        raise ConfigurationError(f"clie_layer_index ({clie}) must be below "
                                 f"num_layers ({num_layers})")
    if st > num_layers:
        raise ConfigurationError(f"st_layer_index ({st}) must be at most "
                                 f"num_layers ({num_layers})")


def check_validation(l: int, w: int, analysis_layer: int, num_layers: int) -> None:
    """Reject a validation with no layer above the analysis layer, or with
    fewer than the 3 non-recent keys the permutation test needs."""
    if analysis_layer >= num_layers - 1:
        raise ConfigurationError(f"no layers above analysis layer {analysis_layer} to validate")
    if l - w < 3:
        raise ConfigurationError(f"recent window {w} leaves {max(l - w, 0)} non-recent keys "
                                 f"at l = {l}; validation needs at least 3")


def init_session(model: Model, layout: TokenLayout, policy: PolicyConfig,
                 pattern: SparsityPattern, tile_size: int = attention.DEFAULT_TILE) -> SessionState:
    """Validate the policy against this model's depth and open a session."""
    check_layer_depth(policy, model.config.num_layers)
    if tile_size < 1:
        raise ConfigurationError("tile_size must be >= 1")
    return SessionState(layout=layout, policy=policy, pattern=pattern, tile_size=tile_size)


def _require_finite(x: np.ndarray, what: str) -> np.ndarray:
    """Reject NaN or inf input, and rows whose squares _rmsnorm could not sum
    (about 1e154 and up), before they reach any session state: one check of
    the sums, which a NaN or inf also makes non-finite, finds both. Returns
    the row sums of squares, which the first layer's _rmsnorm reuses."""
    with np.errstate(over="ignore"):
        sums = np.add.reduce(x * x, axis=1)
    if not np.isfinite(sums).all():
        if not np.isfinite(x).all():
            raise ValueError(f"{what} must be finite")
        raise ValueError(f"{what} must be small enough that RMSNorm's sum of squares stays "
                         f"finite, got max |x| = {np.abs(x).max():.3g}")
    return sums


def _rmsnorm(x: np.ndarray, sums: np.ndarray | None = None) -> np.ndarray:
    """x's rows over their root mean square; sums, when given, are their sums of squares."""
    if sums is None:
        sums = np.add.reduce(x * x, axis=1)
    if len(x) == 1:  # decode's one row: the same correctly rounded steps on a Python float
        return x / math.sqrt(float(sums[0]) / x.shape[1] + _NORM_EPS)
    return x / np.sqrt(sums[:, None] / x.shape[1] + _NORM_EPS)


def _project_heads(h: np.ndarray, weights: LayerWeights, config: ModelConfig):
    """q as (Hkv, G, n, d_k), k and v as (Hkv, n, d): query head g * G + j is q[g, j]."""
    c = config
    n = h.shape[0]
    q = (h @ weights.wq).reshape(n, c.num_kv_heads, c.group_size, c.d_k).transpose(1, 2, 0, 3)
    k = (h @ weights.wk).reshape(n, c.num_kv_heads, c.d_k).transpose(1, 0, 2)
    v = (h @ weights.wv).reshape(n, c.num_kv_heads, c.d_v).transpose(1, 0, 2)
    return q, k, v


def _block(x: np.ndarray, weights: LayerWeights, heads: np.ndarray) -> np.ndarray:
    """Finish one pre-norm layer from its head outputs as (n, Hq * d_v) rows."""
    x = x + heads @ weights.wo
    return x + np.maximum(_rmsnorm(x) @ weights.w_up, 0.0) @ weights.w_down


@dataclass(frozen=True)
class PromptPass:
    """One forward over a prompt, shared by every session it covers; its arrays are read-only.

    wiring is (layout, pattern, st_layer_index, tile_size). keys and values
    are (L, Hkv, l, d) stacks, and norms (L, Hkv, l) holds each value row's
    norm. accumulators[w] lists the (Hkv, l - w) recent-window accumulators of
    layers 0..layers-1, or is None when w >= l; colsums stacks every layer's
    (Hkv, l) column sums as one (L, Hkv, l) array, or is None.
    """

    model: Model
    wiring: tuple[TokenLayout, SparsityPattern, int, int]
    layers: int
    logits: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    norms: np.ndarray
    accumulators: dict[int, list[np.ndarray] | None]
    colsums: np.ndarray | None


def prompt_pass(model: Model, layout: TokenLayout, pattern: SparsityPattern, st_layer_index: int,
                token_embeddings, windows, layers: int, column_sums: bool = False,
                tile_size: int = attention.DEFAULT_TILE) -> PromptPass:
    """Run the prompt once: logits, every layer's K/V and value-row norms, and the statistics
    asked for. Layers 0..layers-1 take every window's accumulators from one (max w, l) slab."""
    if min(windows, default=1) < 1:
        raise ConfigurationError(f"recent windows must be >= 1, got {sorted(windows)}")
    x = np.asarray(token_embeddings, dtype=np.float64)
    if x.shape != (layout.total_len, model.config.d_model):
        raise ConfigurationError(f"embeddings must be (layout rows, d_model) = "
                                 f"{(layout.total_len, model.config.d_model)}, got {x.shape}")
    sums = _require_finite(x, "embeddings")
    l = x.shape[0]
    accumulators = {w: [] if w < l else None for w in windows}
    first = l - max((w for w in windows if w < l), default=0)
    keys, values, colsums, plans = [], [], [], {}
    for layer, weights in enumerate(model.layers):
        kind = pattern if layer >= st_layer_index else SparsityPattern.dense()
        if kind not in plans:  # one TilePlan per distinct mask, not per layer
            mask = build_mask(layout, kind)
            plans[kind] = attention.TilePlan(mask, tile_size), mask[first:].copy()
            del mask  # so no (l, l) array outlives the building of its plan
        plan, recent = plans[kind]
        q, k, v = _project_heads(_rmsnorm(x, sums), weights, model.config)
        sums = None  # only layer 0 normalizes the embeddings the finite check summed
        keys.append(k)
        values.append(v)
        if layer < layers and first < l:
            _, slab = attention.masked(q[:, :, first:], k[:, None], v[:, None], recent)
            for w, table in accumulators.items():
                if table is not None:
                    table.append(accumulate_recent_attention(slab, w).mean(axis=1))
            del slab  # so two layers' slabs are never held at once
        if column_sums:
            heads, mass = _instrumented_stats(q, k, v, plan)
            colsums.append(mass)
        else:
            heads = attention.streaming_masked(q, k[:, None], v[:, None], plan)
        heads = heads.transpose(2, 0, 1, 3).reshape(l, -1)  # rebound, so one copy is held
        x = _block(x, weights, heads)
        del q, k, v, heads  # so the next layer projects without this one's arrays
    del plans, plan, recent  # so no tile plan is held while the norms are computed
    logits = _rmsnorm(x) @ model.w_vocab
    # Stacked once the layers are done: (L, Hkv, l, d) buffers taken before the
    # first layer raised long-prefill peak_rss_mb by 2.5-2.9 MB (2-CPU VM).
    keys, values, colsums = np.array(keys), np.array(values), np.array(colsums)
    norms = l2_norm_rows(values.reshape(-1, values.shape[-1])).reshape(values.shape[:-1])
    for array in [logits, keys, values, norms, colsums,
                  *(a for table in accumulators.values() for a in table or ())]:
        array.flags.writeable = False
    return PromptPass(model, (layout, pattern, st_layer_index, tile_size), layers, logits,
                      keys, values, norms, accumulators, colsums if column_sums else None)


def _instrumented_stats(q, k, v, plan):
    """One layer's h2o_like step: the streamed output and the (Hkv, l) column sums
    of one column_mass call, averaged over each KV head's query heads."""
    out, mass = attention.column_mass(q, k[:, None], v[:, None], plan)
    return out, mass.mean(axis=1)


def prefill(model: Model, session: SessionState, prompt) -> np.ndarray:
    """Adopt a PromptPass that covers the session, or run one of its own from embeddings;
    returns the pass's read-only logits. Compression builds the cache from the pass."""
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
    return prompt.logits


def apply_compression(model: Model, session: SessionState) -> SessionState:
    """Score, select, and evict the whole layer stack once at the end of prefill,
    building every layer's cache from the pass; all or nothing."""
    if session.phase == "new":
        raise ConfigurationError("apply_compression requires a completed prefill")
    if session.phase == "compressed":
        raise ConfigurationError("compression already applied")
    policy, kind, prompt = session.policy, session.policy.policy_kind, session.prompt
    l, w, h_count = session.prefill_len, session.w, session.h
    sink = min(policy.sink_len, w + h_count)
    keep = (np.arange(l) if w + h_count >= l else
            baseline_streaming(l, sink, w + h_count - sink) if kind == "streaming_like" else
            np.arange(l - w, l) if h_count == 0 else None)  # h = 0: no row to score for
    if keep is not None:
        retained = np.broadcast_to(keep, prompt.keys.shape[:2] + keep.shape)
    elif kind == "pure_kv":
        # Layers above the estimation layer reuse its accumulators.
        table = prompt.accumulators[w]
        used = np.stack([table[min(layer, policy.clie_layer_index)]
                         for layer in range(len(prompt.keys))])
        retained = select_retained(used * prompt.norms[..., : l - w], w, h_count, l)
    else:
        retained = select_retained(prompt.colsums[..., : l - w], w, h_count, l)
    cache = evict(prompt.keys, prompt.values, retained)
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
    sums = _require_finite(x, "token embedding")

    position = session.prefill_len + session.step_count
    committed = [min(kv._lengths) for kv in session.cache]
    hkv, q_end, k_end = c.num_kv_heads, c.d_model, c.d_model + c.num_kv_heads * c.d_k
    try:
        for kv, weights in zip(session.cache, model.layers):
            qkv = (_rmsnorm(x, sums) @ weights.wqkv)[0]
            sums = None
            k, v = qkv[q_end:k_end].reshape(hkv, -1), qkv[k_end:].reshape(hkv, -1)
            for g in range(hkv):
                kv.append(g, k[g], v[g], position)
            q = qkv[:q_end].reshape(hkv, c.group_size, -1)
            x = _block(x, weights, attention._decode(q, kv.keys, kv.values).reshape(1, -1))
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

    For every layer above the analysis layer, two accumulator tables are
    weighted by that layer's value-row norms, as score_low does: the
    analysis layer's (the estimate) and the layer's own (the ground truth),
    each built for all those layers at once, and each KV head's two rows are
    correlated. Reads window w's accumulators and value-row norms from each
    of prompts, a sequence of passes over one model and layout (one per
    pattern, say) that hold them on every layer. A KV head's
    permutation seed depends only on the layer and head, so one
    permutation_pvalue call scores that head for every pass. Returns one
    report validation dict per pass: analysis_layer, median_rho, median_p
    and per_layer entries (layer, median_rho, median_p, heads).
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
    if not 0 <= analysis_layer < num_layers:
        raise ConfigurationError(f"analysis layer {analysis_layer} out of range")
    check_validation(l, w, analysis_layer, num_layers)

    # (P, layers above, Hkv, l - w) tables: row [i, j, g] is pass i's KV head g
    # on layer analysis_layer + 1 + j.
    above = slice(analysis_layer + 1, num_layers)
    truth, estimate = [], []
    for prompt in prompts:
        table, norms = prompt.accumulators[w], prompt.norms[above, :, : l - w]
        truth.append(np.stack(table[above]) * norms)
        estimate.append(table[analysis_layer] * norms)
    truth, estimate = np.stack(truth), np.stack(estimate)
    per_layer = [[] for _ in prompts]
    for index, layer in enumerate(range(num_layers)[above]):
        heads = [[] for _ in prompts]
        for g in range(truth.shape[2]):
            ps, rhos = stats.permutation_pvalue(estimate[:, index, g], truth[:, index, g],
                                                n_perm, derive_seed(seed, layer, g))
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
