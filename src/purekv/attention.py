"""Scaled dot-product attention: masked, streaming, column mass and decode.

masked materializes the weight matrix and returns it alongside the output.
streaming_masked walks the queries in tiles of rows and returns the output
only: callers above it structurally cannot read attention weights.
column_mass runs the same tile loop and also returns each key's column sum
of weights, all the h2o_like baseline needs, so no (l, l) matrix is built.
decode is the unmasked, untiled case for one new token: one score buffer,
scaled, shifted and exponentiated in place, holds every query head's softmax row.

All four broadcast over leading dimensions, so one call runs every query
head of a layer: q of shape (Hkv, G, l_q, d_k) against k and v of shape
(Hkv, 1, l_k, d), the masked kernels sharing one (l_q, l_k) mask. The
tiled kernels take it as a TilePlan, built once per mask and tile size,
which holds for each tile of query rows the union of keys those rows may
attend to (a slice when it is contiguous, as under causal and dense masks)
and its own copy of the allowed pairs from the first column some row may
not see, and not the mask itself, so no (l_q, l_k) array outlives the
plan's building. The tile loop scores that one block, adds a 0/-inf bias
only from that column, and normalizes each row exactly with its own max
subtracted. Every row sees all of its keys in its tile's block, so one
softmax per block is exact and its column sums are final, and at most one
block of scores per head is held at a time (query chunking, Rabe & Staats,
arXiv 2112.05682).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .numerics import row_softmax

DEFAULT_TILE = 16


def _check_inputs(q, k, v, mask_shape=None):
    """q, k, v as float64 and the shape their leading dimensions broadcast to.

    The last two dimensions are (rows, features): q's and k's features must
    match, as must k's and v's rows. A mask_shape, when given, must be (l_q, l_k).
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
    lead = q.shape[:-2]
    if not lead == k.shape[:-2] == v.shape[:-2]:  # equal shapes, as in decode, need no broadcast
        try:
            lead = np.broadcast_shapes(lead, k.shape[:-2], v.shape[:-2])
        except ValueError:
            raise ConfigurationError(f"leading dimensions {lead}, {k.shape[:-2]}, "
                                     f"{v.shape[:-2]} do not broadcast") from None
    if mask_shape is not None and mask_shape != (q.shape[-2], k.shape[-2]):
        raise ConfigurationError(f"mask shape {mask_shape} does not match "
                                 f"(l_q, l_k)=({q.shape[-2]}, {k.shape[-2]})")
    return q, k, v, lead


def masked(q, k, v, mask) -> tuple[np.ndarray, np.ndarray]:
    """Attention restricted to mask (True = allowed). Returns (out, weights).

    Masked weights are exactly zero; each allowed row renormalizes to 1.
    Leading dimensions of q, k and v broadcast; mask is (l_q, l_k) and is
    shared by all of them, and weights is (..., l_q, l_k).
    """
    mask = np.asarray(mask, dtype=bool)
    q, k, v, _ = _check_inputs(q, k, v, mask.shape)
    scale = 1.0 / np.sqrt(q.shape[-1])
    weights = row_softmax(q @ np.swapaxes(k, -1, -2) * scale, mask)
    return weights @ v, weights


class TilePlan:
    """One mask's query tiles for one tile size, analysed once for every call under it.

    shape is the mask's (l_q, l_k). schedule has one (rows, keys, first,
    block) per tile of query rows: keys is a slice when contiguous, else a
    read-only index array; block is a read-only copy of the allowed pairs
    from column first, the first some row may not see, or is None when every
    row sees every key. tiles, pairs_scored (the sum of rows times keys) and
    pairs_allowed count one head's work. The plan keeps neither the mask nor
    a view of it; np.asarray(plan) rebuilds the mask from the schedule.
    """

    def __init__(self, mask, tile_size: int = DEFAULT_TILE):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ConfigurationError(f"mask must be (l_q, l_k), got shape {mask.shape}")
        if tile_size < 1:
            raise ConfigurationError(f"tile_size must be >= 1, got {tile_size}")
        empty = ~mask.any(axis=1)
        if empty.any():
            raise ValueError(f"row {int(np.flatnonzero(empty)[0])} is fully masked")
        self.shape, self.tile_size, self.schedule = mask.shape, tile_size, []
        self.pairs_scored, self.pairs_allowed = 0, int(np.count_nonzero(mask))
        for start in range(0, mask.shape[0], tile_size):
            rows = slice(start, start + tile_size)
            keys = np.flatnonzero(mask[rows].any(axis=0))  # the keys some row may attend to
            keys.flags.writeable = False
            if keys[-1] - keys[0] + 1 == keys.size:  # contiguous, as under causal and dense masks
                keys = slice(int(keys[0]), int(keys[-1]) + 1)
            allowed = mask[rows, keys]
            first = int(np.argmin(allowed.all(axis=0)))
            block = None
            if not allowed[:, first].all():
                block = allowed[:, first:].copy()  # its own copy: a view would keep the mask alive
                block.flags.writeable = False
            self.schedule.append((rows, keys, first, block))
            self.pairs_scored += allowed.size
        self.tiles = len(self.schedule)

    def __array__(self, dtype=None, copy=None):  # the traced benchmark counts the plan's pairs
        mask = np.zeros(self.shape, dtype=bool)
        for rows, keys, first, block in self.schedule:
            mask[rows, keys] = True
            if block is not None:
                mask[rows, np.arange(self.shape[1])[keys][first:]] = block
        return np.asarray(mask, dtype=dtype)


def streaming_masked(q, k, v, plan: TilePlan) -> np.ndarray:
    """Attention over tiles of query rows; the weight matrix is never built.

    Queries are consumed in the plan's tiles of tile_size rows
    (experiment.tile_size in a config counts query rows too). Each tile
    scores one (..., T, U) block against the U keys that any of its rows may
    attend to, so every row sees all of its keys at once and is normalized
    exactly. Leading dimensions of q, k and v broadcast; the plan's
    (l_q, l_k) shape and schedule are shared by all of them.
    """
    return _query_tiles(q, k, v, plan, mass=False)[0]


def column_mass(q, k, v, plan: TilePlan) -> tuple[np.ndarray, np.ndarray]:
    """streaming_masked's output, bit for bit, and each key's column mass.

    mass is (..., l_k): the sum over query rows of each key's normalized weight.
    """
    return _query_tiles(q, k, v, plan, mass=True)


def _query_tiles(q, k, v, plan: TilePlan, mass: bool):
    """The tile loop behind streaming_masked and column_mass; mass is None unless asked."""
    q, k, v, lead = _check_inputs(q, k, v, plan.shape)
    scale = 1.0 / np.sqrt(q.shape[-1])
    out = np.empty(lead + (q.shape[-2], v.shape[-1]))
    colsums = np.zeros(lead + (k.shape[-2],)) if mass else None
    for rows, keys, first, block in plan.schedule:
        scores = q[..., rows, :] @ np.swapaxes(k[..., keys, :], -1, -2)
        scores *= scale
        if block is not None:
            scores[..., first:] += np.where(block, 0.0, -np.inf)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        sums = scores.sum(axis=-1, keepdims=True)
        out[..., rows, :] = (scores @ v[..., keys, :]) / sums
        if mass:
            scores /= sums
            colsums[..., keys] += scores.sum(axis=-2)
    return out, colsums


def decode(q, k, v) -> np.ndarray:
    """Unmasked attention of a few query rows over all keys; output only.

    For one decode step q is (Hkv, G, d_k), the G query heads that share
    each KV head, and k, v are that head's cached rows, (Hkv, n, d_k) and
    (Hkv, n, d_v); the result is (Hkv, G, d_v). Leading dimensions
    broadcast as in streaming_masked. One (Hkv, G, n) score buffer is scaled, shifted
    by each row's max and exponentiated in place; the output is divided in place by its sums.
    """
    q, k, v, _ = _check_inputs(q, k, v)
    if k.shape[-2] == 0:
        raise ValueError("decode attention needs at least one key")
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= 1.0 / np.sqrt(q.shape[-1])
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    out = scores @ v
    out /= np.add.reduce(scores, axis=-1, keepdims=True)
    return out
