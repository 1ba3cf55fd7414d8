"""KV-cache storage, importance scoring, budgeted eviction, and baselines.

Scoring pipeline for one layer and KV head, sequence length l, recent
window w:

    C[j]  = sum of attention mass rows l-w..l-1 put on non-recent key j
    S[j]  = C[j] * ||V row j||          (a layer scored with its own weights)
    S^[j] = C_low[j] * ||V row j||      (a high layer reusing a low layer's C)

score_low computes either product, and select_retained keeps the recent
window plus the top-h non-recent entries. Two simplified baselines are
provided: column-sum ("heavy hitter") scoring and sink-plus-window retention.

evict is the only way to build a cache. It writes each retained row of a
session's prompt pass once, into fresh buffers of capacity 2m that each
layer's KvCacheLayer takes over privately: no dropped row is copied, and the
first m decode appends grow nothing. truncate makes a failed decode step
undoable, and same_rows is what compression checks before a session takes
another's layer in place of its own."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError
from .numerics import l2_norm_rows

POLICY_KINDS = ("pure_kv", "h2o_like", "streaming_like", "full")


class KvCacheLayer:
    """One layer's KV rows in preallocated, head-stacked buffers.

    The buffers are keys (Hkv, capacity, d_k), values (Hkv, capacity, d_v)
    and positions (Hkv, capacity); head g has appended rows(g) rows of its
    slot. keys, values and positions are (Hkv, n, ·) views of the first
    n = min(rows(g)) rows, which every head holds; a row that only some
    heads have appended stays staged, unseen. append writes one row past a
    head's count, doubling the capacity when full; truncate rolls every head
    back to one earlier count. Only evict builds one.
    """

    def __init__(self, keys, values, positions, rows: int):
        """Take over buffers that no one else writes, every head holding its first rows rows."""
        self._keys, self._values, self._positions = keys, values, positions
        self._lengths = [rows] * len(positions)

    @property
    def num_heads(self) -> int:
        return len(self._lengths)

    @property
    def capacity(self) -> int:
        return self._positions.shape[1]

    def rows(self, head: int) -> int:
        return self._lengths[head]

    @property
    def keys(self) -> np.ndarray:
        return self._keys[:, : min(self._lengths)]

    @property
    def values(self) -> np.ndarray:
        return self._values[:, : min(self._lengths)]

    @property
    def positions(self) -> np.ndarray:
        return self._positions[:, : min(self._lengths)]

    def append(self, head: int, key_row: np.ndarray, value_row: np.ndarray, position: int):
        n = self._lengths[head]
        if n and position <= self._positions[head, n - 1]:
            raise ConfigurationError(f"appended position {position} does not extend head {head}")
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

    def truncate(self, n: int):
        """Roll every head back to its first n committed rows."""
        if not 0 <= n <= min(self._lengths):
            raise ConfigurationError(f"cannot truncate committed lengths {self._lengths} to {n}")
        self._lengths = [n] * self.num_heads

    def same_rows(self, other: KvCacheLayer) -> bool:
        """Whether this layer commits other's positions, keys and values, bit for bit."""
        return all(mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
                   for mine, theirs in ((self.positions, other.positions),
                                        (self.keys, other.keys), (self.values, other.values)))

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
        if self.policy_kind == "full" and self.budget_fraction != 1.0:
            raise ConfigurationError(f"the full policy keeps every row, so its "
                                     f"budget_fraction must be 1.0, got {self.budget_fraction}")
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
    its (w, l) slab, or a stack of them, (..., rows, l). Only the last w rows
    are read. Returns the (..., l-w) sums over keys 0..l-w-1.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim < 2:
        raise ConfigurationError(f"expected an attention matrix or a stack of them, got {A.shape}")
    l = A.shape[-1]
    if w < 1:
        raise ConfigurationError(f"recent window must be >= 1, got {w}")
    if w >= l:
        raise ConfigurationError(f"recent window w={w} leaves no non-recent segment for l={l}")
    if A.shape[-2] < w:
        raise ConfigurationError(f"need the last {w} query rows, got {A.shape[-2]}")
    return A[..., -w:, : l - w].sum(axis=-2)


def score_low(C, V_low) -> np.ndarray:
    """Weight accumulators by the norms of their layer's value rows.

    C (..., m) holds accumulators over m keys and V_low (..., n, d_v) the value
    rows of each, over the same leading axes: one head, a layer's Hkv heads or
    a stack of layers. n >= m, and V_low's first m rows weigh C.
    """
    C = np.asarray(C, dtype=np.float64)
    V_low = np.asarray(V_low, dtype=np.float64)
    if C.ndim < 1 or V_low.ndim != C.ndim + 1 or V_low.shape[:-2] != C.shape[:-1]:
        raise ConfigurationError(
            f"score_low expects C (..., m) with V (..., n, d) over the same leading axes, "
            f"got {C.shape} and {V_low.shape}"
        )
    m = C.shape[-1]
    if V_low.shape[-2] < m:
        raise ConfigurationError(
            f"V has {V_low.shape[-2]} rows but the accumulator covers {m} keys"
        )
    # Every row is normed, so a contiguous stack is read in place instead of
    # copied down to its first m rows (2 MB at l = 2060).
    norms = l2_norm_rows(V_low.reshape(-1, V_low.shape[-1])).reshape(V_low.shape[:-1])
    return C * norms[..., :m]


def select_retained(S, w: int, h: int, l: int) -> np.ndarray:
    """Last w positions plus the h top-scoring non-recent positions.

    S holds scores over the l - w non-recent positions along its last axis:
    one head's (l - w,) vector, a layer's (Hkv, l - w) table or a stack of
    layers' (L, Hkv, l - w). Ties break toward the smaller index, and a NaN
    score raises ValueError. Returns sorted original positions along the last
    axis, exactly min(l, w + h) of them per head.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.shape[-1:] != (l - w,):
        raise ConfigurationError(f"score shape {S.shape} does not end in l - w = {l - w}")
    if h > l - w:
        raise ConfigurationError(f"h={h} exceeds the non-recent segment length {l - w}")
    if h < 0:
        raise ConfigurationError("h must be >= 0")
    if np.isnan(S).any():
        raise ValueError("select_retained needs scores that are not NaN")
    # Keep every score above the h-th largest, then ties at it from the smallest
    # index; the recent window follows them, so each row's positions come out sorted.
    n, keep = l - w, np.ones(S.shape[:-1] + (l,), dtype=bool)
    if h < n:
        kept = keep[..., :n]  # a view: the non-recent rows
        kth = np.partition(S, n - h, axis=-1)[..., n - h, None] if h else np.inf
        np.greater_equal(S, kth, out=kept)
        if np.count_nonzero(kept) > h * (S.size // n):  # more ties at the h-th score than fit
            tie = S == kth
            kept &= ~tie | (np.cumsum(tie, axis=-1) <= h - (S > kth).sum(axis=-1, keepdims=True))
    return np.nonzero(keep)[-1].reshape(S.shape[:-1] + (w + h,))


def evict(keys, values, retained) -> list[KvCacheLayer]:
    """One session's caches: layer i keeps the rows KV head g lists in retained[i, g].

    keys (L, Hkv, l, d_k) and values (L, Hkv, l, d_v) hold a prompt pass's
    rows, row i at position i; retained (L, Hkv, m) lists rows strictly
    increasing and inside [0, l), and is checked whole before any cache is
    built. Returns one KvCacheLayer per layer, each holding capacity 2m.
    """
    keys, values = np.asarray(keys, dtype=np.float64), np.asarray(values, dtype=np.float64)
    want = np.asarray(retained, dtype=np.int64)
    if keys.ndim != 4 or values.shape[:-1] != keys.shape[:-1]:
        raise ConfigurationError(f"keys {keys.shape} and values {values.shape} must be "
                                 f"(L, Hkv, l, d) stacks of the same heads and rows")
    if want.ndim != 3 or want.shape[:2] != keys.shape[:2]:
        raise ConfigurationError(f"expected a ({keys.shape[0]}, {keys.shape[1]}, m) retained "
                                 f"table, got shape {want.shape}")
    if not want.shape[1]:
        raise ConfigurationError("a cache needs Hkv >= 1 heads")
    l = keys.shape[2]
    # Checked whole; the bad layer and head are searched for only when that fails, and
    # rows that increase stay inside [0, l) when their first and last do.
    if want.size and (want.min() < 0 or want.max() >= l
                      or not (want[..., 1:] > want[..., :-1]).all()):
        layer, g = np.argwhere((want[..., 0] < 0) | (want[..., -1] >= l)
                               | (np.diff(want, axis=-1) <= 0).any(axis=-1))[0].tolist()
        raise ConfigurationError(f"layer {layer} head {g}: retained rows {want[layer, g].tolist()} "
                                 f"are not strictly increasing in [0, {l})")
    # One take per stack writes each row once into (2m, L, Hkv, d) buffers, rows
    # outermost, whose first m rows are one contiguous block that np.take fills with
    # no temporary (mode "raise" would use one); a layer's buffer is a strided view.
    num_layers, hkv, m = want.shape
    rows = (want + l * np.arange(num_layers * hkv).reshape(num_layers, hkv, 1)).transpose(2, 0, 1)
    buffers = []
    for source in (keys, values):
        buffer = np.empty((2 * m, num_layers, hkv, source.shape[-1]))
        np.take(source.reshape(-1, source.shape[-1]), rows, axis=0, out=buffer[:m], mode="clip")
        buffers.append(buffer.transpose(1, 2, 0, 3))
    positions = np.empty((num_layers, hkv, 2 * m), dtype=np.int64)
    positions[..., :m] = want
    return [KvCacheLayer(*layer, m) for layer in zip(*buffers, positions)]


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


@functools.lru_cache(maxsize=1024)
def budget_keep_count(budget_fraction: float, l: int) -> int:
    """ceil(budget * l), with the budget read as the shortest decimal that prints it.

    Decimal budgets are not exact doubles: in floating point 0.35 * 40 lands
    epsilon above 14, and ceil would overshoot the budget by one row. The parse
    is most of an adopting prefill, so it is cached; a rejection is not.
    """
    if not (0.0 < budget_fraction <= 1.0):
        raise ConfigurationError(f"budget_fraction must be in (0, 1], got {budget_fraction}")
    if l < 1:
        raise ConfigurationError("l must be >= 1")
    return max(1, min(l, math.ceil(Fraction(repr(float(budget_fraction))) * l)))


def budget_to_wh(budget_fraction: float, l: int, w_config: int) -> tuple[int, int]:
    """Split a fractional budget into (recent window, top-h count)."""
    if w_config < 1:
        raise ConfigurationError("w_config must be >= 1")
    n_keep = budget_keep_count(budget_fraction, l)
    w = min(w_config, n_keep)
    return w, n_keep - w
