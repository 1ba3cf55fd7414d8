"""KV-cache storage, importance scoring, budgeted eviction, and baselines.

Scoring pipeline for one layer and KV head, sequence length l, recent
window w:

    C[j]  = sum of attention mass rows l-w..l-1 put on non-recent key j
    S[j]  = C[j] * ||V row j||          (a layer scored with its own weights)
    S^[j] = C_low[j] * ||V row j||      (a high layer reusing a low layer's C)

score_low computes either product. select_retained keeps the recent window
plus the top-h non-recent entries by score, ties broken toward the smaller
index. Both work along the last axis, on one head's vector or on a layer's
(Hkv, l - w) table. Two simplified baselines are provided: column-sum
("heavy hitter") scoring and sink-plus-window retention.

Storage: KvCacheLayer holds one layer's rows in head-stacked buffers,
(Hkv, capacity, d) for keys and values and (Hkv, capacity) for positions,
with a committed row count per head. evict builds one from an (Hkv, m)
table of retained rows of a prompt pass's (Hkv, l, d) keys and values, so
its heads start equal, no dropped row is ever copied, and each kept row is
copied once: the cache adopts the gathered buffers, while the public
constructor copies what it is given, so no cache aliases a caller's array.
Appending writes in place and doubles the capacity when the buffers are
full, so a decode step copies nothing but its new rows; truncate(n) rolls every head back to n
rows, which makes a failed decode step undoable. Readers see only committed
rows, through per-head views or the stacked views of stacked()."""

from __future__ import annotations

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
    and positions (Hkv, capacity); head g has committed the first rows(g)
    rows of its slot. keys[g], values[g] and positions[g] are views of
    exactly those rows, so nothing past the committed length is ever seen.
    append writes one row past a head's committed length and commits it,
    doubling the capacity when the buffers are full; truncate rolls every
    head back to one earlier count.
    """

    def __init__(self, keys, values, positions):
        """Copy stacked keys (Hkv, n, d_k), values (Hkv, n, d_v) and positions (Hkv, n)."""
        self._own(np.array(keys, dtype=np.float64), np.array(values, dtype=np.float64),
                  np.array(positions, dtype=np.int64))

    @classmethod
    def _adopt(cls, keys, values, positions) -> KvCacheLayer:
        """A cache built on fresh float64 keys and values and int64 positions that
        nothing else holds, without copying them again."""
        layer = cls.__new__(cls)
        layer._own(keys, values, positions)
        return layer

    def _own(self, keys, values, positions):
        self._keys, self._values, self._positions = keys, values, positions
        shapes = self._keys.shape, self._values.shape, self._positions.shape
        if (self._keys.ndim != 3 or self._values.ndim != 3 or not self._keys.shape[0]
                or not self._keys.shape[:2] == self._values.shape[:2] == self._positions.shape):
            raise ConfigurationError(
                f"need keys (Hkv, n, d_k), values (Hkv, n, d_v) and positions (Hkv, n) "
                f"for the same Hkv >= 1 heads and n rows, got shapes {shapes}"
            )
        self._lengths = [self._positions.shape[1]] * len(self._positions)

    @property
    def num_heads(self) -> int:
        return len(self._lengths)

    @property
    def capacity(self) -> int:
        return self._positions.shape[1]

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

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every head's committed (keys, values, positions) as (Hkv, n, ·) views.

        Needs every head to hold the same n rows, as they do in a session.
        """
        n = self._lengths[0]
        if any(m != n for m in self._lengths):
            raise ConfigurationError(f"heads hold different row counts {self._lengths}")
        return self._keys[:, :n], self._values[:, :n], self._positions[:, :n]

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

    def truncate(self, n: int):
        """Roll every head back to its first n committed rows."""
        if not 0 <= n <= min(self._lengths):
            raise ConfigurationError(f"cannot truncate committed lengths {self._lengths} to {n}")
        self._lengths = [n] * self.num_heads

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
        raise ConfigurationError(
            f"recent window w={w} leaves no non-recent segment for l={l}"
        )
    if A.shape[-2] < w:
        raise ConfigurationError(f"need the last {w} query rows, got {A.shape[-2]}")
    return A[..., -w:, : l - w].sum(axis=-2)


def score_low(C, V_low) -> np.ndarray:
    """Weight a layer's own accumulator by its V-row norms.

    C is one head's accumulator (m,) with V_low (n, d_v), or a table of them
    (Hkv, m) with V_low (Hkv, n, d_v); n >= m, and only V_low's first m rows
    are read.
    """
    C = np.asarray(C, dtype=np.float64)
    V_low = np.asarray(V_low, dtype=np.float64)
    if C.ndim not in (1, 2) or V_low.ndim != C.ndim + 1 or V_low.shape[:-2] != C.shape[:-1]:
        raise ConfigurationError(
            f"score_low expects C (m,) with V (n, d) or C (Hkv, m) with V (Hkv, n, d), "
            f"got {C.shape} and {V_low.shape}"
        )
    m = C.shape[-1]
    if V_low.shape[-2] < m:
        raise ConfigurationError(
            f"V has {V_low.shape[-2]} rows but the accumulator covers {m} keys"
        )
    rows = V_low[..., :m, :].reshape(-1, V_low.shape[-1])
    return C * l2_norm_rows(rows).reshape(C.shape)


def select_retained(S, w: int, h: int, l: int) -> np.ndarray:
    """Last w positions plus the h top-scoring non-recent positions.

    S holds scores over the l - w non-recent positions along its last axis:
    one head's (l - w,) vector or an (Hkv, l - w) table. Ties break toward
    the smaller index. Returns sorted original positions along the last
    axis, exactly min(l, w + h) of them per head.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.shape[-1:] != (l - w,):
        raise ConfigurationError(
            f"score shape {S.shape} does not end in l - w = {l - w}"
        )
    if h > l - w:
        raise ConfigurationError(f"h={h} exceeds the non-recent segment length {l - w}")
    if h < 0:
        raise ConfigurationError("h must be >= 0")
    # Stable sort on -S keeps the original (ascending-index) order inside ties.
    top = np.argsort(-S, axis=-1, kind="stable")[..., :h]
    recent = np.broadcast_to(np.arange(l - w, l, dtype=np.int64), S.shape[:-1] + (w,))
    return np.sort(np.concatenate([top.astype(np.int64), recent], axis=-1), axis=-1)


def evict(keys, values, retained) -> KvCacheLayer:
    """A cache of the rows each KV head g lists in retained[g].

    keys (Hkv, l, d_k) and values (Hkv, l, d_v) hold a prompt's rows, row i
    at position i; retained is an (Hkv, m) table of rows, strictly
    increasing along each head's row and inside [0, l).
    """
    want = np.array(retained, dtype=np.int64)  # a copy, so the cache owns its positions
    if want.ndim != 2 or len(want) != len(keys):
        raise ConfigurationError(
            f"expected a ({len(keys)}, m) retained table, got shape {want.shape}"
        )
    l = keys.shape[1]
    bad = np.flatnonzero((want < 0).any(axis=1) | (want >= l).any(axis=1)
                         | (np.diff(want, axis=1) <= 0).any(axis=1))
    if bad.size:
        g = int(bad[0])
        raise ConfigurationError(
            f"head {g}: retained rows {want[g].tolist()} are not strictly increasing in [0, {l})"
        )
    # The gathers are fresh arrays, so the cache adopts them instead of copying.
    rows = want[:, :, None]
    keys = np.take_along_axis(np.asarray(keys, dtype=np.float64), rows, axis=1)
    values = np.take_along_axis(np.asarray(values, dtype=np.float64), rows, axis=1)
    return KvCacheLayer._adopt(keys, values, want)


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
    """ceil(budget * l), with the budget read as the shortest decimal that prints it.

    Decimal budgets are not exact doubles: in floating point 0.35 * 40 lands
    epsilon above 14, and ceil would overshoot the budget by one row.
    """
    if not (0.0 < budget_fraction <= 1.0):
        raise ConfigurationError(
            f"budget_fraction must be in (0, 1], got {budget_fraction}"
        )
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
