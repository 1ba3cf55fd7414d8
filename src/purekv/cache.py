"""KV-cache storage, importance scoring, budgeted eviction, and baselines.

Scoring pipeline for one layer and KV head, sequence length l, recent
window w:

    C[j]  = sum of attention mass rows l-w..l-1 put on non-recent key j
    S[j]  = C[j] * ||V row j||          (a layer scored with its own weights)
    S^[j] = C_low[j] * ||V row j||      (a high layer reusing a low layer's C)

score_low computes either product. select_retained keeps the recent window
plus the top-h non-recent entries by score, ties broken toward the smaller
index. Two simplified baselines are provided: column-sum ("heavy hitter")
scoring and sink-plus-window retention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .numerics import l2_norm_rows

POLICY_KINDS = ("pure_kv", "h2o_like", "streaming_like", "full")


@dataclass
class KvCacheLayer:
    """Per-KV-head key/value rows plus the original token position of each row."""

    keys: list[np.ndarray]
    values: list[np.ndarray]
    positions: list[np.ndarray]

    @classmethod
    def from_projections(cls, keys_per_head: list[np.ndarray],
                         values_per_head: list[np.ndarray]) -> "KvCacheLayer":
        n = keys_per_head[0].shape[0]
        positions = [np.arange(n, dtype=np.int64) for _ in keys_per_head]
        return cls(list(keys_per_head), list(values_per_head), positions)

    @property
    def num_heads(self) -> int:
        return len(self.keys)

    def rows(self, head: int) -> int:
        return self.keys[head].shape[0]

    def append(self, head: int, key_row: np.ndarray, value_row: np.ndarray, position: int):
        if self.positions[head].size and position <= self.positions[head][-1]:
            raise ConfigurationError(
                f"appended position {position} does not extend head {head}"
            )
        self.keys[head] = np.concatenate([self.keys[head], key_row.reshape(1, -1)])
        self.values[head] = np.concatenate([self.values[head], value_row.reshape(1, -1)])
        self.positions[head] = np.concatenate(
            [self.positions[head], np.array([position], dtype=np.int64)]
        )

    def check_invariants(self):
        for h in range(self.num_heads):
            if not (self.keys[h].shape[0] == self.values[h].shape[0] == self.positions[h].size):
                raise ConfigurationError(f"head {h}: keys/values/positions row counts differ")
            if self.positions[h].size > 1 and not np.all(np.diff(self.positions[h]) > 0):
                raise ConfigurationError(f"head {h}: positions not strictly increasing")


@dataclass(frozen=True)
class PolicyConfig:
    """Compression policy: what to keep, and where estimation/sparsity start.

    st_layer_index must exceed clie_layer_index: layers at and above
    st_layer_index never materialize attention weights, so the estimation
    layer has to sit below them.
    """

    policy_kind: str
    budget_fraction: float
    recent_window_w: int
    sink_len: int
    clie_layer_index: int
    st_layer_index: int

    def __post_init__(self):
        if self.policy_kind not in POLICY_KINDS:
            raise ConfigurationError(
                f"unknown policy_kind {self.policy_kind!r}, expected one of {POLICY_KINDS}"
            )
        if not (0.0 < self.budget_fraction <= 1.0):
            raise ConfigurationError(
                f"budget_fraction must be in (0, 1], got {self.budget_fraction}"
            )
        if self.recent_window_w < 1:
            raise ConfigurationError("recent_window_w must be >= 1")
        if self.sink_len < 0:
            raise ConfigurationError("sink_len must be >= 0")
        if self.clie_layer_index < 0:
            raise ConfigurationError("clie_layer_index must be >= 0")
        if self.st_layer_index <= self.clie_layer_index:
            raise ConfigurationError(
                f"st_layer_index ({self.st_layer_index}) must be greater than "
                f"clie_layer_index ({self.clie_layer_index})"
            )


def accumulate_recent_attention(A, w: int) -> np.ndarray:
    """Attention mass the last w query rows put on each non-recent key.

    A holds rows of a row-stochastic attention matrix over l keys with causal
    support, at least the last w query rows: the full (l, l) matrix or just
    its (w, l) slab. Only A[-w:] is read. Returns a length l-w vector over
    keys 0..l-w-1.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ConfigurationError(f"expected a 2-D attention matrix, got {A.shape}")
    l = A.shape[1]
    if w < 1:
        raise ConfigurationError(f"recent window must be >= 1, got {w}")
    if w >= l:
        raise ConfigurationError(
            f"recent window w={w} leaves no non-recent segment for l={l}"
        )
    if A.shape[0] < w:
        raise ConfigurationError(f"need the last {w} query rows, got {A.shape[0]}")
    return A[-w:, : l - w].sum(axis=0)


def score_low(C, V_low) -> np.ndarray:
    """Weight a layer's own accumulator by its V-row norms."""
    C = np.asarray(C, dtype=np.float64)
    V_low = np.asarray(V_low, dtype=np.float64)
    if C.ndim != 1:
        raise ConfigurationError("score_low expects a 1-D accumulator")
    if V_low.shape[0] < C.size:
        raise ConfigurationError(
            f"V has {V_low.shape[0]} rows but the accumulator covers {C.size} keys"
        )
    return C * l2_norm_rows(V_low[: C.size])


def select_retained(S, w: int, h: int, l: int) -> np.ndarray:
    """Last w positions plus the h top-scoring non-recent positions.

    Ties break toward the smaller index. Returns sorted original positions,
    exactly min(l, w + h) of them.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 1 or S.size != l - w:
        raise ConfigurationError(
            f"score length {S.size} does not match l - w = {l - w}"
        )
    if h > l - w:
        raise ConfigurationError(f"h={h} exceeds the non-recent segment length {l - w}")
    if h < 0:
        raise ConfigurationError("h must be >= 0")
    # Stable sort on -S keeps the original (ascending-index) order inside ties.
    top = np.argsort(-S, kind="stable")[:h]
    recent = np.arange(l - w, l, dtype=np.int64)
    return np.sort(np.concatenate([top.astype(np.int64), recent]))


def evict(layer: KvCacheLayer, retained) -> KvCacheLayer:
    """Drop rows whose positions are not retained; survivors keep their order.

    retained holds one position set per head.
    """
    if len(retained) != layer.num_heads:
        raise ConfigurationError(
            f"got {len(retained)} retained sets for {layer.num_heads} heads"
        )
    keys, values, positions = [], [], []
    for h in range(layer.num_heads):
        want = np.asarray(retained[h], dtype=np.int64)
        if want.ndim != 1:
            raise ConfigurationError(f"head {h}: expected a 1-D retained set, got {want.shape}")
        want = np.unique(want)
        have = layer.positions[h]
        missing = np.setdiff1d(want, have)
        if missing.size:
            raise ConfigurationError(
                f"head {h}: retained positions {missing.tolist()} not present in cache"
            )
        keep = np.isin(have, want)
        keys.append(layer.keys[h][keep])
        values.append(layer.values[h][keep])
        positions.append(have[keep])
    return KvCacheLayer(keys, values, positions)


def baseline_h2o_score(A) -> np.ndarray:
    """Column sums of the attention matrix over its causal support.

    The uniform-attention case shows the well-known early-token bias: older
    keys collect mass from more query rows.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigurationError(f"expected a square attention matrix, got {A.shape}")
    return np.tril(A).sum(axis=0)


def baseline_streaming(l: int, sink: int, window: int) -> np.ndarray:
    """Sink-plus-recent-window retention; overlaps clamp to all indices."""
    if l < 1:
        raise ConfigurationError("sequence length must be >= 1")
    if sink < 0 or window < 0:
        raise ConfigurationError("sink and window must be >= 0")
    head = np.arange(min(sink, l), dtype=np.int64)
    tail = np.arange(max(l - window, 0), l, dtype=np.int64)
    return np.union1d(head, tail)


def budget_keep_count(budget_fraction: float, l: int) -> int:
    """ceil(budget * l), snapping near-integer products to the integer.

    Decimal budgets are not exact doubles; without the snap, 0.35 * 40 can
    land epsilon above 14 and ceil would overshoot the budget by one row.
    """
    if not (0.0 < budget_fraction <= 1.0):
        raise ConfigurationError(
            f"budget_fraction must be in (0, 1], got {budget_fraction}"
        )
    if l < 1:
        raise ConfigurationError("l must be >= 1")
    product = budget_fraction * l
    nearest = round(product)
    if abs(product - nearest) < 1e-9 * max(1.0, abs(product)):
        n_keep = int(nearest)
    else:
        n_keep = int(np.ceil(product))
    return max(1, min(n_keep, l))


def budget_to_wh(budget_fraction: float, l: int, w_config: int) -> tuple[int, int]:
    """Split a fractional budget into (recent window, top-h count)."""
    if w_config < 1:
        raise ConfigurationError("w_config must be >= 1")
    n_keep = budget_keep_count(budget_fraction, l)
    w = min(w_config, n_keep)
    return w, n_keep - w
