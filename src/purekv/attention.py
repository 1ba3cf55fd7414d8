"""Scaled dot-product attention: dense causal, masked, and streaming.

dense_causal and masked take 2-D matrices, materialize the full weight
matrix and return it alongside the output. streaming_masked processes keys
in fixed-size tiles with a running max and running normalizer, never holds
more than one tile of scores, and returns the output only: callers above it
structurally cannot read attention weights.

streaming_masked also broadcasts over leading dimensions, so one call runs
every query head of a layer: q of shape (Hkv, G, l_q, d_k) against k and v
of shape (Hkv, 1, l_k, d), all sharing one (l_q, l_k) mask. For each key
tile it scores only the query rows with at least one allowed key in that
tile (a slice when those rows are contiguous, as under a causal mask); a
skipped row's update would be exactly s*1 + 0 and acc*1 + 0, so skipping
changes no result.
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


def dense_causal(q, k, v) -> tuple[np.ndarray, np.ndarray]:
    """Causal attention with the mask aligned to the right edge.

    Query row i stands at absolute position l_k - l_q + i, so decode-time
    queries (l_q < l_k) attend to the whole cache. Returns (out, weights).
    """
    q, k, v, _ = _check_inputs(q, k, v)
    l_q, l_k = q.shape[-2], k.shape[-2]
    if l_q > l_k:
        raise ConfigurationError(f"dense_causal requires l_q <= l_k, got {l_q} > {l_k}")
    offset = l_k - l_q
    mask = np.arange(l_k)[None, :] <= (np.arange(l_q)[:, None] + offset)
    return masked(q, k, v, mask)


def masked(q, k, v, mask) -> tuple[np.ndarray, np.ndarray]:
    """Attention restricted to mask (True = allowed). Returns (out, weights).

    Masked weights are exactly zero; each allowed row renormalizes to 1.
    """
    q, k, v, lead = _check_inputs(q, k, v)
    if lead:
        raise ConfigurationError("masked attention takes 2-D matrices")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (q.shape[0], k.shape[0]):
        raise ConfigurationError(
            f"mask shape {mask.shape} does not match (l_q, l_k)=({q.shape[0]}, {k.shape[0]})"
        )
    scale = 1.0 / np.sqrt(q.shape[1])
    weights = row_softmax(q @ k.T * scale, mask)
    return weights @ v, weights


def streaming_masked(q, k, v, mask, tile_size: int = DEFAULT_TILE) -> np.ndarray:
    """Tiled online-softmax attention; the weight matrix is never built.

    Keys are consumed in tiles of tile_size. Per query row we carry the
    running max m, running normalizer s, and the weighted value accumulator;
    finished tiles are rescaled by exp(m_old - m_new) when the max moves.
    Leading dimensions of q, k and v broadcast; mask is (l_q, l_k) and is
    shared by all of them. A key tile only visits the query rows it has an
    allowed pair with.
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
    m = np.full(lead + (l_q,), -np.inf)
    s = np.zeros(lead + (l_q,))
    acc = np.zeros(lead + (l_q, v.shape[-1]))
    k_t = np.swapaxes(k, -1, -2)
    for start, rows in _tile_blocks(mask, tile_size):
        stop = min(start + tile_size, l_k)
        scores = q[..., rows, :] @ k_t[..., start:stop] * scale
        scores = np.where(mask[rows, start:stop], scores, -np.inf)
        # Every visited row has an allowed key in this tile, so new_m is
        # finite and a first visit gets correction exp(-inf) = 0.
        m_rows = m[..., rows]
        new_m = np.maximum(m_rows, scores.max(axis=-1))
        correction = np.exp(m_rows - new_m)
        weights = np.exp(scores - new_m[..., None])
        s[..., rows] = s[..., rows] * correction + weights.sum(axis=-1)
        acc[..., rows, :] = (acc[..., rows, :] * correction[..., None]
                             + weights @ v[..., start:stop, :])
        m[..., rows] = new_m
    return acc / s[..., None]


def _tile_blocks(mask: np.ndarray, tile_size: int):
    """(start, rows) for each key tile with at least one allowed pair.

    rows selects the query rows with an allowed key in the tile: a slice when
    they are contiguous, else an index array.
    """
    l_q = mask.shape[0]
    if mask.size == 0:
        return
    starts = np.arange(0, mask.shape[1], tile_size)
    live = np.logical_or.reduceat(mask, starts, axis=1)
    n_live = live.sum(axis=0)
    first = live.argmax(axis=0)
    end = l_q - live[::-1].argmax(axis=0)
    for t, (lo, hi, count) in enumerate(zip(first.tolist(), end.tolist(), n_live.tolist())):
        if count:
            rows = slice(lo, hi) if hi - lo == count else np.flatnonzero(live[:, t])
            yield t * tile_size, rows
