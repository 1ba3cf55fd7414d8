"""Scaled dot-product attention: masked, streaming and decode.

masked materializes the weight matrix and returns it alongside the output.
streaming_masked walks the queries in tiles of rows and returns the output
only: callers above it structurally cannot read attention weights. decode is
the unmasked, untiled case for one new token: every query head's single
softmax row is built and consumed inside the call, and only the output
leaves it.

All three broadcast over leading dimensions, so one call runs every query
head of a layer: q of shape (Hkv, G, l_q, d_k) against k and v of shape
(Hkv, 1, l_k, d), with masked and streaming_masked sharing one (l_q, l_k)
mask across all of them. For each tile of query rows streaming_masked
gathers the union of keys those rows may attend to (a slice when it is
contiguous, as under causal and dense masks), scores that one block, masks
it only when some pair in it is not allowed, and normalizes each row
exactly with its own max subtracted. Every row sees all of its keys in its
tile's block, so one softmax per block is exact, and at most one block of
scores per head is held at a time (query chunking, Rabe & Staats, arXiv
2112.05682).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .numerics import row_softmax

DEFAULT_TILE = 16


def _check_inputs(q, k, v):
    """q, k, v as float64, plus the shape their leading dimensions broadcast to.

    The last two dimensions are (rows, features): q's and k's features must
    match, as must k's and v's rows.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ConfigurationError("attention inputs must be matrices or stacks of matrices")
    if q.shape[-1] != k.shape[-1]:
        raise ConfigurationError(
            f"query dim {q.shape[-1]} does not match key dim {k.shape[-1]}"
        )
    if k.shape[-2] != v.shape[-2]:
        raise ConfigurationError(
            f"key rows {k.shape[-2]} do not match value rows {v.shape[-2]}"
        )
    try:
        lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    except ValueError:
        raise ConfigurationError(
            f"leading dimensions {q.shape[:-2]}, {k.shape[:-2]}, {v.shape[:-2]} do not broadcast"
        ) from None
    return q, k, v, lead


def masked(q, k, v, mask) -> tuple[np.ndarray, np.ndarray]:
    """Attention restricted to mask (True = allowed). Returns (out, weights).

    Masked weights are exactly zero; each allowed row renormalizes to 1.
    Leading dimensions of q, k and v broadcast; mask is (l_q, l_k) and is
    shared by all of them, and weights is (..., l_q, l_k).
    """
    q, k, v, _ = _check_inputs(q, k, v)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (q.shape[-2], k.shape[-2]):
        raise ConfigurationError(
            f"mask shape {mask.shape} does not match (l_q, l_k)=({q.shape[-2]}, {k.shape[-2]})"
        )
    scale = 1.0 / np.sqrt(q.shape[-1])
    weights = row_softmax(q @ np.swapaxes(k, -1, -2) * scale, mask)
    return weights @ v, weights


def streaming_masked(q, k, v, mask, tile_size: int = DEFAULT_TILE) -> np.ndarray:
    """Attention over tiles of query rows; the weight matrix is never built.

    Queries are consumed in tiles of tile_size rows (experiment.tile_size
    in a config counts query rows too). Each tile scores one (..., T, U)
    block against the U keys that any of its rows may attend to, so every
    row sees all of its keys at once and is normalized exactly.
    Leading dimensions of q, k and v broadcast; mask is (l_q, l_k) and is
    shared by all of them.
    """
    q, k, v, lead = _check_inputs(q, k, v)
    mask = np.asarray(mask, dtype=bool)
    l_q, l_k = q.shape[-2], k.shape[-2]
    if mask.shape != (l_q, l_k):
        raise ConfigurationError(
            f"mask shape {mask.shape} does not match (l_q, l_k)=({l_q}, {l_k})"
        )
    if tile_size < 1:
        raise ConfigurationError(f"tile_size must be >= 1, got {tile_size}")
    empty = ~mask.any(axis=1)
    if empty.any():
        row = int(np.flatnonzero(empty)[0])
        raise ValueError(f"streaming_masked: row {row} is fully masked")

    scale = 1.0 / np.sqrt(q.shape[-1])
    out = np.empty(lead + (l_q, v.shape[-1]))
    for start in range(0, l_q, tile_size):
        rows = slice(start, start + tile_size)
        keys = _tile_keys(mask[rows])
        allowed = mask[rows, keys]
        scores = q[..., rows, :] @ np.swapaxes(k[..., keys, :], -1, -2) * scale
        if not allowed.all():
            scores = np.where(allowed, scores, -np.inf)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out[..., rows, :] = (weights @ v[..., keys, :]) / weights.sum(axis=-1, keepdims=True)
    return out


def _tile_keys(block: np.ndarray):
    """The keys that some row of a mask block may attend to.

    A slice when they are contiguous (as under causal and dense masks), else
    an index array.
    """
    keys = np.flatnonzero(block.any(axis=0))
    if keys.size and keys[-1] - keys[0] + 1 == keys.size:
        return slice(int(keys[0]), int(keys[-1]) + 1)
    return keys


def decode(q, k, v) -> np.ndarray:
    """Unmasked attention of a few query rows over all keys; output only.

    For one decode step q is (Hkv, G, d_k), the G query heads that share
    each KV head, and k, v are that head's cached rows, (Hkv, n, d_k) and
    (Hkv, n, d_v); the result is (Hkv, G, d_v). Leading dimensions
    broadcast as in streaming_masked. The softmax subtracts each row's max.
    """
    q, k, v, _ = _check_inputs(q, k, v)
    if k.shape[-2] == 0:
        raise ValueError("decode attention needs at least one key")
    scores = q @ np.swapaxes(k, -1, -2) * (1.0 / np.sqrt(q.shape[-1]))
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return (weights @ v) / weights.sum(axis=-1, keepdims=True)
