"""Desk-scale causal transformer with grouped-query attention and the
cross-layer cache-compression pipeline.

Layer wiring for a prompt, for estimation layer index e = clie_layer_index
and sparsity start s = st_layer_index (config requires s > e):

    layers 0..s-1    dense causal mask
    layers s..L-1    the configured sparsity pattern's mask

Decode never calls masked, and its one softmax row per query head lives only
inside attention._decode, so decode stays streaming-compatible: no caller can
read its attention weights.

Positions enter only through causal masking; there is no rotary or learned
positional encoding, and embeddings are supplied by the caller. The block is
pre-norm with a two-layer ReLU MLP.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import NamedTuple

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
    phase: str = "new"  # then "prefilled", then "compressed"; entry points check it first
    step_count: int = 0
    lender: SessionState | None = None  # the session whose layers below st_layer_index cache shares
    last_step: DecodeRecord | None = None  # what a session borrowing this one's layers reads


class DecodeRecord(NamedTuple):
    """A session's latest decode step, as a borrower follows it: the model and the
    embedding's bytes it took and the (1, d_model) hidden row that entered
    st_layer_index."""

    model: Model
    embedding: bytes
    hidden: np.ndarray


def check_layer_depth(policy: PolicyConfig, num_layers: int) -> None:
    """Reject layer indices a model of this depth cannot hold."""
    clie, st = policy.clie_layer_index, policy.st_layer_index
    if clie >= num_layers:
        raise ConfigurationError(f"clie_layer_index ({clie}) must be below "
                                 f"num_layers ({num_layers})")
    if st > num_layers:
        raise ConfigurationError(f"st_layer_index ({st}) must be at most "
                                 f"num_layers ({num_layers})")


def check_validation(l: int, windows, analysis_layer: int, num_layers: int) -> None:
    """Reject a validation with no layer above the analysis layer, or whose
    widest window leaves fewer than the 3 non-recent keys the permutation test
    needs."""
    if analysis_layer >= num_layers - 1:
        raise ConfigurationError(f"no layers above analysis layer {analysis_layer} to validate")
    w = max(windows, default=0)
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
    (about 1e154 and up), with a ValueError before they reach any session
    state: one check of the sums, which a NaN or inf also makes non-finite,
    finds both. Returns the row sums of squares, which the first layer's
    _rmsnorm reuses."""
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
    """q as (Hkv, G, n, d_k), k and v as (Hkv, n, d), the head layout every attention
    call takes: query head g * G + j is q[g, j] and reads KV head g."""
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
    norm. accumulators[w] stacks the (Hkv, l - w) recent-window accumulators
    of layers 0..layers-1 as one (layers, Hkv, l - w) array, or is None when
    w >= l; colsums stacks every layer's (Hkv, l) column sums as one
    (L, Hkv, l) array, or is None. Passes that prompt_passes made together
    hold the same values in every layer below st_layer_index.
    """

    model: Model
    wiring: tuple[TokenLayout, SparsityPattern, int, int]
    layers: int
    logits: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    norms: np.ndarray
    accumulators: dict[int, np.ndarray | None]
    colsums: np.ndarray | None


def prompt_pass(model: Model, layout: TokenLayout, pattern: SparsityPattern, st_layer_index: int,
                token_embeddings, windows, layers: int, column_sums: bool = False,
                tile_size: int = attention.DEFAULT_TILE) -> PromptPass:
    """Run the prompt once for one pattern: prompt_passes with a one-pattern list."""
    return prompt_passes(model, layout, [pattern], st_layer_index, token_embeddings, windows,
                         layers, column_sums, tile_size)[0]


def prompt_passes(model: Model, layout: TokenLayout, patterns, st_layer_index: int,
                  token_embeddings, windows, layers: int, column_sums: bool = False,
                  tile_size: int = attention.DEFAULT_TILE) -> list[PromptPass]:
    """Run the prompt once for each pattern: logits, every layer's K/V and value-row norms,
    and the statistics asked for, as one PromptPass per entry of patterns (a repeated
    pattern gets the same pass). Layers 0..st_layer_index-1 run dense whatever the
    pattern, so they run once and every pattern continues from their hidden rows.
    Layers 0..layers-1 take every window's accumulators from one (max w, l) slab."""
    if min(windows, default=1) < 1:
        raise ConfigurationError(f"recent windows must be >= 1, got {sorted(windows)}")
    x = np.asarray(token_embeddings, dtype=np.float64)
    if x.shape != (layout.total_len, model.config.d_model):
        raise ConfigurationError(f"embeddings must be (layout rows, d_model) = "
                                 f"{(layout.total_len, model.config.d_model)}, got {x.shape}")
    sums = _require_finite(x, "embeddings")
    l, split = x.shape[0], min(st_layer_index, len(model.layers))
    first = l - max((w for w in windows if w < l), default=0)
    plans = {}

    def run(state, sums, span, kind):
        """Layers span on kind's mask, from state = [rows, records]: each layer appends
        its (keys, values, accumulators by window, column sums) record, and state ends
        holding the last layer's rows."""
        x, records = state
        state[0] = None  # so the loop's x is the state's only hold on its rows
        if span and kind not in plans:  # one TilePlan per distinct mask, not per layer
            mask = build_mask(layout, kind)
            plans[kind] = attention.TilePlan(mask, tile_size), mask[first:].copy()
            del mask  # so no (l, l) array outlives the building of its plan
        for layer in span:
            weights = model.layers[layer]
            plan, recent = plans[kind]
            q, k, v = _project_heads(_rmsnorm(x, sums), weights, model.config)
            sums = None  # only layer 0 normalizes the embeddings the finite check summed
            tables, mass = {}, None
            if layer < layers and first < l:
                _, slab = attention.masked(q[:, :, first:], k[:, None], v[:, None], recent)
                tables = {w: accumulate_recent_attention(slab, w).mean(axis=1)
                          for w in windows if w < l}
                del slab  # so two layers' slabs are never held at once
            if column_sums:
                heads, mass = _instrumented_stats(q, k, v, plan)
            else:
                heads = attention.streaming_masked(q, k[:, None], v[:, None], plan)
            records.append((k, v, tables, mass))
            heads = heads.transpose(2, 0, 1, 3).reshape(l, -1)  # rebound, so one copy is held
            x = _block(x, weights, heads)
            del q, k, v, heads  # so the next layer projects without this one's arrays
        state[0] = x

    state = [x, []]
    del x
    run(state, sums, range(split), SparsityPattern.dense())
    sums = None if split else sums  # only layer 0 normalizes the embeddings it summed
    unique, states = list(dict.fromkeys(patterns)), {}
    for pattern in unique:
        # Every pattern but the last continues from a copy of the shared records; the
        # last takes them over, so a one-pattern pass holds what one layer loop holds.
        states[pattern] = state if pattern == unique[-1] else [state[0], [*state[1]]]
        run(states[pattern], sums, range(split, len(model.layers)), pattern)
    del plans  # so no tile plan is held while the passes are stacked and normed
    passes = {pattern: _finish(model, (layout, pattern, st_layer_index, tile_size), layers,
                               windows, states.pop(pattern)) for pattern in unique}
    return [passes[pattern] for pattern in patterns]


def _finish(model, wiring, layers, windows, state) -> PromptPass:
    """The read-only PromptPass of a finished layer loop, from its state: the last
    rows and each layer's (keys, values, accumulators by window, column sums)."""
    x = state[0]
    keys, values, tables, colsums = zip(*state[1])
    state.clear()  # so each layer's arrays are freed once they are stacked
    logits = _rmsnorm(x) @ model.w_vocab
    # Stacked once the layers are done: (L, Hkv, l, d) buffers taken before the
    # first layer raised long-prefill peak_rss_mb by 2.5-2.9 MB (2-CPU VM), and
    # freeing the layers' keys before stacking the values read decode-long's
    # ttft_ms.median 9% slower.
    keys, values = np.array(keys), np.array(values)
    colsums = None if colsums[0] is None else np.array(colsums)
    norms = l2_norm_rows(values.reshape(-1, values.shape[-1])).reshape(values.shape[:-1])
    l = keys.shape[2]
    accumulators = {w: None if w >= l else np.array([table[w] for table in tables[:layers]])
                    for w in windows}
    for array in [logits, keys, values, norms, colsums, *accumulators.values()]:
        if array is not None:
            array.flags.writeable = False
    return PromptPass(model, wiring, layers, logits, keys, values, norms, accumulators, colsums)


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


def apply_compression(model: Model, session: SessionState,
                      lender: SessionState | None = None) -> SessionState:
    """Score, select, and evict the whole layer stack once at the end of prefill,
    building every layer's cache from the pass; all or nothing. A lender is a
    compressed session, not yet decoded, of the same prompt length and
    st_layer_index whose layers below st_layer_index hold this session's rows bit
    for bit; the session keeps those layer objects in place of its own."""
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
        # Layers above the estimation layer reuse its accumulators: one product
        # each for the layers up to it and above it, into one score table.
        table, clie = prompt.accumulators[w], policy.clie_layer_index
        norms = prompt.norms[..., : l - w]
        scores = np.empty(norms.shape)
        np.multiply(table[: clie + 1], norms[: clie + 1], out=scores[: clie + 1])
        np.multiply(table[clie], norms[clie + 1:], out=scores[clie + 1:])
        retained = select_retained(scores, w, h_count, l)
    else:
        retained = select_retained(prompt.colsums[..., : l - w], w, h_count, l)
    cache = evict(prompt.keys, prompt.values, retained)
    if lender is not None:
        split = policy.st_layer_index
        if lender.phase != "compressed" or lender.step_count:
            raise ConfigurationError("lender must be a compressed session that has not decoded")
        if (lender.prefill_len, lender.policy.st_layer_index) != (l, split):
            raise ConfigurationError(
                f"lender must share the prompt length {l} and st_layer_index {split}, "
                f"got {lender.prefill_len} and {lender.policy.st_layer_index}")
        for layer, (own, lent) in enumerate(zip(cache[:split], lender.cache)):
            if not own.same_rows(lent):
                raise ConfigurationError(f"lender's layer {layer} does not hold this "
                                         f"session's positions, keys and values")
        cache[:split] = lender.cache[:split]
    # All or nothing: the session changes only once every layer is evicted and checked.
    session.cache, session.prompt, session.lender, session.phase = cache, None, lender, "compressed"
    return session


def decode_step(model: Model, session: SessionState, token_embedding) -> np.ndarray:
    """One autoregressive step over the retained cache; returns (vocab,) logits.

    A session with a lender follows the step the lender has just taken, with
    this model on a bit-identical embedding, into the layers they share: it runs
    only the layers from st_layer_index up, from the hidden row the lender kept
    there, and its logits and rows are a lone session's, bit for bit. A failed
    step rolls back only the layers the session owns."""
    if session.phase != "compressed":
        raise ConfigurationError("decode requires apply_compression (or the full policy) first")
    c = model.config
    x = np.asarray(token_embedding, dtype=np.float64)
    if x.shape != (c.d_model,):
        raise ConfigurationError(f"token embedding must have length {c.d_model}, "
                                 f"got shape {x.shape}")
    x = x.reshape(1, -1)
    sums = _require_finite(x, "token embedding")
    embedding, split, lender = x.tobytes(), session.policy.st_layer_index, session.lender
    start = 0
    if lender is not None:
        if lender.step_count != session.step_count + 1:
            raise ConfigurationError(
                f"lender must be exactly one step ahead: it has taken {lender.step_count} "
                f"steps, this session {session.step_count}")
        if lender.last_step.model is not model:
            raise ConfigurationError("lender took its latest step with another model")
        if lender.last_step.embedding != embedding:
            raise ConfigurationError("lender took its latest step on a different token embedding")
        x, sums, start = lender.last_step.hidden, None, split

    position = session.prefill_len + session.step_count
    own = session.cache[start:]
    committed = session.w + session.h + session.step_count  # the rows every layer holds
    hkv, q_end, k_end = c.num_kv_heads, c.d_model, c.d_model + c.num_kv_heads * c.d_k
    hidden = x  # the row entering st_layer_index, once the layers below it have run
    try:
        for layer, (kv, weights) in enumerate(zip(own, model.layers[start:]), start):
            qkv = (_rmsnorm(x, sums) @ weights.wqkv)[0]
            sums = None
            k, v = qkv[q_end:k_end].reshape(hkv, -1), qkv[k_end:].reshape(hkv, -1)
            for g in range(hkv):
                kv.append(g, k[g], v[g], position)
            q = qkv[:q_end].reshape(hkv, c.group_size, -1)
            x = _block(x, weights, attention._decode(q, kv.keys, kv.values).reshape(1, -1))
            if layer < split:
                hidden = x
    except BaseException:
        # All or nothing: the rows this step appended to the session's own layers are dropped.
        for kv in own:
            kv.truncate(committed)
        raise

    session.step_count += 1
    session.last_step = DecodeRecord(model, embedding, hidden)
    return (_rmsnorm(x) @ model.w_vocab)[0]


def validate_cross_layer(prompts, windows, analysis_layer: int, n_perm: int = 999,
                         seed: int = 0) -> list[list[dict]]:
    """Rank agreement between reused-accumulator scores and own-layer scores.

    For every layer above the analysis layer, two accumulator tables are
    weighted by that layer's value-row norms, as score_low does: the
    analysis layer's (the estimate) and the layer's own (the ground truth),
    each built for all those layers at once, and each KV head's two rows are
    correlated. Reads each recent window's accumulators and value-row norms
    from each of prompts, a sequence of passes over one model and layout
    (one per pattern, say) that hold them on every layer, and checks every
    window before any scoring. A KV head's permutation seed depends only on
    the layer and head, so one permutation_pvalues call scores that head for
    every window and pass, drawing the stream's words once for all windows.
    Returns, for each window in windows, one report validation dict per
    pass: analysis_layer, median_rho, median_p and per_layer entries (layer,
    median_rho, median_p, heads), each what a call with that window alone
    would return.
    """
    prompts, windows = list(prompts), list(windows)
    if not prompts or not windows:
        raise ConfigurationError("validation needs at least one prompt pass and one window")
    model, layout = prompts[0].model, prompts[0].wiring[0]
    num_layers, l = model.config.num_layers, layout.total_len
    for prompt in prompts:
        if prompt.model is not model or prompt.wiring[0] != layout:
            raise ConfigurationError("validated prompt passes must share one model and layout")
        for w in windows:
            if prompt.layers < num_layers or w not in prompt.accumulators:
                raise ConfigurationError(f"validation needs a prompt pass with window {w}'s "
                                         f"accumulators on layers 0..{num_layers - 1}")
    if not 0 <= analysis_layer < num_layers:
        raise ConfigurationError(f"analysis layer {analysis_layer} out of range")
    check_validation(l, windows, analysis_layer, num_layers)

    # Per window, (estimate, truth): (P, layers above, Hkv, l - w) tables whose
    # row [i, j, g] is pass i's KV head g on layer analysis_layer + 1 + j.
    above = slice(analysis_layer + 1, num_layers)

    def weighted(w, rows):  # each pass's accumulator rows times its value-row norms
        return np.stack([p.accumulators[w][rows] * p.norms[above, :, : l - w] for p in prompts])

    tables = [(weighted(w, analysis_layer), weighted(w, above)) for w in windows]
    per_layer = [[] for _ in windows for _ in prompts]  # window-major, like the tables' rows
    for index, layer in enumerate(range(num_layers)[above]):
        heads = [[] for _ in per_layer]
        for g in range(model.config.num_kv_heads):
            tests = [(estimate[:, index, g], truth[:, index, g]) for estimate, truth in tables]
            scored = stats.permutation_pvalues(tests, n_perm, derive_seed(seed, layer, g))
            for entries, p, rho in zip(heads, *map(np.concatenate, zip(*scored))):
                entries.append({"head": g, "rho": float(rho), "p": float(p)})
        for entries, layer_heads in zip(per_layer, heads):
            entries.append({"layer": layer, **_medians(layer_heads), "heads": layer_heads})
    reports = [{"analysis_layer": analysis_layer,
                **_medians([head for entry in entries for head in entry["heads"]]),
                "per_layer": entries} for entries in per_layer]
    return [reports[i:i + len(prompts)] for i in range(0, len(reports), len(prompts))]


def _medians(heads: list[dict]) -> dict:
    return {"median_rho": statistics.median(head["rho"] for head in heads),
            "median_p": statistics.median(head["p"] for head in heads)}
