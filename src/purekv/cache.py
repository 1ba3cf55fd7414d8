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

Storage: KvCacheLayer holds one layer's rows in head-stacked buffers,
(Hkv, capacity, d) for keys and values and (Hkv, capacity) for positions,
with a committed row count per head. Appending writes in place and doubles
the capacity when the buffers are full, so a decode step copies nothing but
its new rows; evict builds new buffers sized to what it keeps; truncate
rolls heads back to earlier counts, which makes a failed decode step
undoable. Readers see only committed rows, through per-head views or the
stacked views of stacked().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .numerics import l2_norm_rows

POLICY_KINDS = ("pure_kv", "h2o_like", "streaming_like", "full")


class KvCacheLayer:
    """One layer's KV rows in preallocated, head-stacked buffers.

    The buffers are keys (Hkv, capacity, d_k), values (Hkv, capacity, d_v)
    and positions (Hkv, capacity); head g has committed the first rows(g)
    rows of its slot. keys[g], values[g] and positions[g] are views of
    exactly those rows, so nothing past the committed length is ever seen.
    append writes one row past a head's committed length and commits it,
    doubling the capacity when the buffers are full; truncate rolls heads
    back to earlier lengths.
    """

    def __init__(self, keys, values, positions):
        """Copy head g's keys[g], values[g] and positions[g] into fresh buffers.

        Each argument is indexed by head: a list of per-head arrays, or a
        stacked array. Heads may hold different numbers of rows.
        """
        lengths = [len(p) for p in positions]
        if not lengths or not (len(keys) == len(values) == len(lengths)):
            raise ConfigurationError(
                f"got {len(keys)} key, {len(values)} value and {len(lengths)} position "
                "sets; need the same positive number of heads for each"
            )
        for h, n in enumerate(lengths):
            if not (len(keys[h]) == len(values[h]) == n):
                raise ConfigurationError(f"head {h}: keys/values/positions row counts differ")
        heads, capacity = len(lengths), max(lengths)
        self._keys = np.empty((heads, capacity, np.shape(keys[0])[-1]))
        self._values = np.empty((heads, capacity, np.shape(values[0])[-1]))
        self._positions = np.empty((heads, capacity), dtype=np.int64)
        for h, n in enumerate(lengths):
            self._keys[h, :n] = keys[h]
            self._values[h, :n] = values[h]
            self._positions[h, :n] = positions[h]
        self._lengths = lengths

    @property
    def num_heads(self) -> int:
        return len(self._lengths)

    @property
    def capacity(self) -> int:
        return self._positions.shape[1]

    @property
    def lengths(self) -> tuple[int, ...]:
        """Committed row count of every head."""
        return tuple(self._lengths)

    def rows(self, head: int) -> int:
        return self._lengths[head]

    @property
    def keys(self) -> list[np.ndarray]:
        return [self._keys[h, :n] for h, n in enumerate(self._lengths)]

    @property
    def values(self) -> list[np.ndarray]:
        return [self._values[h, :n] for h, n in enumerate(self._lengths)]

    @property
    def positions(self) -> list[np.ndarray]:
        return [self._positions[h, :n] for h, n in enumerate(self._lengths)]

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Every head's committed (keys, values) as (Hkv, n, d) views.

        Needs every head to hold the same n rows, as they do in a session.
        """
        n = self._lengths[0]
        if any(m != n for m in self._lengths):
            raise ConfigurationError(f"heads hold different row counts {self._lengths}")
        return self._keys[:, :n], self._values[:, :n]

    def append(self, head: int, key_row: np.ndarray, value_row: np.ndarray, position: int):
        n = self._lengths[head]
        if n and position <= self._positions[head, n - 1]:
            raise ConfigurationError(
                f"appended position {position} does not extend head {head}"
            )
        if n == self.capacity:
            self._grow()
        self._keys[head, n] = key_row
        self._values[head, n] = value_row
        self._positions[head, n] = position
        self._lengths[head] = n + 1

    def _grow(self):
        """Double the capacity, keeping every committed row."""
        capacity = max(1, 2 * self.capacity)
        for name in ("_keys", "_values", "_positions"):
            old = getattr(self, name)
            new = np.empty((old.shape[0], capacity) + old.shape[2:], dtype=old.dtype)
            new[:, : old.shape[1]] = old
            setattr(self, name, new)

    def truncate(self, lengths):
        """Roll every head back to an earlier committed length."""
        lengths = [int(n) for n in lengths]
        if len(lengths) != self.num_heads or any(
                not 0 <= n <= m for n, m in zip(lengths, self._lengths)):
            raise ConfigurationError(
                f"cannot truncate committed lengths {self._lengths} to {lengths}"
            )
        self._lengths = lengths

    def check_invariants(self):
        for h, n in enumerate(self._lengths):
            if not 0 <= n <= self.capacity:
                raise ConfigurationError(f"head {h}: {n} committed rows exceed the buffers")
            if n > 1 and not np.all(np.diff(self._positions[h, :n]) > 0):
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
    keys, values, positions = layer.keys, layer.values, layer.positions
    for h in range(layer.num_heads):
        want = np.asarray(retained[h], dtype=np.int64)
        if want.ndim != 1:
            raise ConfigurationError(f"head {h}: expected a 1-D retained set, got {want.shape}")
        want = np.unique(want)
        missing = np.setdiff1d(want, positions[h])
        if missing.size:
            raise ConfigurationError(
                f"head {h}: retained positions {missing.tolist()} not present in cache"
            )
        keep = np.isin(positions[h], want)
        keys[h], values[h], positions[h] = keys[h][keep], values[h][keep], positions[h][keep]
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
