"""Scaled dot-product attention: masked, streaming, column mass and decode.

Only masked returns attention weights. streaming_masked and column_mass
walk the queries in tiles of rows, so callers above them structurally cannot
read weights, and decode is the unmasked, untiled case for one new token.
All four broadcast over leading dimensions, so one call runs every query
head of a layer: q of shape (Hkv, G, l_q, d_k) against k and v of shape
(Hkv, 1, l_k, d). A TilePlan reads its mask in row slabs and keeps no view
of one, so no (l_q, l_k) array need ever exist. Every row sees all of its
keys in its tile's block, so one softmax per block is exact and its column
sums are final, and at most one block of scores is held at a time per
worker (query chunking, Rabe & Staats, arXiv 2112.05682).

A tiled call whose plan scores at least PARALLEL_KEYS_PER_ROW keys per query
row on average runs its KV heads, each with its G query heads, on parallel
threads, one chunk of heads per usable CPU, as FlashAttention-2 splits work
across heads (arXiv 2307.08691). numpy releases the GIL inside matmul, ufunc
and reduction loops, so the threads overlap, but each handoff between numpy
calls costs about the same however long the call is: the rule counts keys
per row because that sets the work in each call, and short calls lose more
to handoffs than a second CPU wins. Threads share no output and each head
runs the same numpy calls on the same rows as it does alone, so the bits do
not change.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import ConfigurationError
from .numerics import row_softmax

DEFAULT_TILE = 16
# The threading rule's bound (see the module docstring). On a 2-CPU VM with
# one BLAS thread (BENCH_parallel_heads.json), splitting the heads of every
# call made a spatial_temporal layer at l = 2060 (230 keys per row) 31% slower
# and a dense one at l = 524 (270) 23% slower, while a dense one at l = 2060
# (1,038) ran in 69 ms instead of 116.
PARALLEL_KEYS_PER_ROW = 512
# The most rows a long prompt pass holds in any one array besides its layer's
# inputs and outputs (engine._row_blocks), and the side of the square of cells
# a TilePlan reads of its mask at once. On a 2-CPU VM, 1,024 kept
# decode-long's l = 524 in one block and cut long-prefill's (l = 2,060)
# peak_rss_mb, where 256 read decode-long's ttft_ms.median 8-10% slower.
ROW_BLOCK = 1024
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= 1.0 / np.sqrt(q.shape[-1])
    weights = row_softmax(scores, mask)
    return weights @ v, weights


class TilePlan:
    """One mask's query tiles for one tile size, analysed once for every call under it.

    mask is an (l_q, l_k) bool array, or any object with its shape whose
    mask[a:b] returns rows a..b-1 of one, such as a prompt pass's mask that
    builds only the rows asked for. The plan reads it one slab of whole tiles
    at a time, about ROW_BLOCK² cells (ROW_BLOCK rows of a ROW_BLOCK-key
    mask), so no more of the mask is held at once.

    shape is the mask's (l_q, l_k). schedule has one (rows, keys, first,
    block) per tile of query rows: keys is a slice when contiguous, else a
    read-only index array; block is a read-only copy of the allowed pairs
    from column first, the first some row may not see, or is None when every
    row sees every key. tiles, pairs_scored (the sum of rows times keys) and
    pairs_allowed count one head's work. The plan keeps neither the mask nor
    a view of it; np.asarray(plan) rebuilds the mask from the schedule.
    """

    def __init__(self, mask, tile_size: int = DEFAULT_TILE):
        if not hasattr(mask, "shape"):
            mask = np.asarray(mask, dtype=bool)
        if len(mask.shape) != 2:
            raise ConfigurationError(f"mask must be (l_q, l_k), got shape {mask.shape}")
        if tile_size < 1:
            raise ConfigurationError(f"tile_size must be >= 1, got {tile_size}")
        self.shape, self.tile_size, self.schedule = tuple(mask.shape), tile_size, []
        self.pairs_scored = self.pairs_allowed = 0
        step = tile_size * max(1, ROW_BLOCK * ROW_BLOCK // (tile_size * max(self.shape[1], 1)))
        for top in range(0, self.shape[0], step):
            self._add_tiles(np.asarray(mask[top:top + step], dtype=bool), top)
        self.tiles = len(self.schedule)

    def _add_tiles(self, slab: np.ndarray, top: int):
        """Schedule and count the tiles of slab, the mask's rows from top on; the
        slab dies with the call, so two are never held at once."""
        empty = ~slab.any(axis=1)
        if empty.any():
            raise ValueError(f"row {top + int(np.flatnonzero(empty)[0])} is fully masked")
        self.pairs_allowed += int(np.count_nonzero(slab))
        for start in range(0, len(slab), self.tile_size):
            tile = slab[start:start + self.tile_size]
            keys = np.flatnonzero(tile.any(axis=0))  # the keys some row may attend to
            keys.flags.writeable = False
            if keys[-1] - keys[0] + 1 == keys.size:  # contiguous, as under causal and dense masks
                keys = slice(int(keys[0]), int(keys[-1]) + 1)
            allowed = tile[:, keys]
            first = int(np.argmin(allowed.all(axis=0)))
            block = None
            if not allowed[:, first].all():
                block = allowed[:, first:].copy()  # its own copy: a view would keep the slab alive
                block.flags.writeable = False
            rows = slice(top + start, top + start + self.tile_size)
            self.schedule.append((rows, keys, first, block))
            self.pairs_scored += allowed.size

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
    """The tile loop behind streaming_masked and column_mass; mass is None unless asked.

    A threaded call splits the first leading axis, the KV heads, into chunks:
    this thread runs the first and a pool worker each other one, all through
    _tile_loop, each writing only its own heads' rows of out and colsums.
    Every worker is joined before the call returns, even when this thread's
    chunk raises, whose exception then wins; otherwise a worker's is raised here.
    """
    q, k, v, lead = _check_inputs(q, k, v, plan.shape)
    out = np.empty(lead + (q.shape[-2], v.shape[-1]))
    colsums = np.zeros(lead + (k.shape[-2],)) if mass else None
    chunks = 1
    if lead and plan.shape[0] and plan.pairs_scored >= PARALLEL_KEYS_PER_ROW * plan.shape[0]:
        chunks = min(lead[0], _CPUS)
    if chunks < 2:  # zero heads too
        _tile_loop(plan, q, k, v, out, colsums)
        return out, colsums
    # Imported here: at module level, the logging it loads would cost every process
    # start 7-12 ms (python -X importtime, 2-CPU VM), and most never thread.
    from concurrent.futures import ThreadPoolExecutor

    bounds = [lead[0] * i // chunks for i in range(chunks + 1)]
    # An input without the heads axis, or with it as 1, broadcasts: every chunk reads it whole.
    parts = [[a[lo:hi] if a.ndim - 2 == len(lead) and a.shape[0] > 1 else a for a in (q, k, v)]
             + [out[lo:hi], None if colsums is None else colsums[lo:hi]]
             for lo, hi in zip(bounds, bounds[1:])]
    with ThreadPoolExecutor(chunks - 1) as pool:  # leaving the block joins every worker
        futures = [pool.submit(_tile_loop, plan, *part) for part in parts[1:]]
        _tile_loop(plan, *parts[0])
    for future in futures:
        future.result()
    return out, colsums


def _tile_loop(plan: TilePlan, q, k, v, out, colsums):
    """Write every tile's rows of out, and add to colsums unless it is None.

    Only numpy runs here, since this may run on a worker thread and the
    benchmark's tracer (perfbench/spans.py) keeps one span stack that is
    not thread-safe: no function it wraps may be called from here."""
    scale, k_t = 1.0 / np.sqrt(q.shape[-1]), np.swapaxes(k, -1, -2)
    for rows, keys, first, block in plan.schedule:
        scores = q[..., rows, :] @ k_t[..., keys]
        scores *= scale
        if block is not None:
            scores[..., first:] += np.where(block, 0.0, -np.inf)
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        sums = np.add.reduce(scores, axis=-1, keepdims=True)
        np.divide(scores @ v[..., keys, :], sums, out=out[..., rows, :])
        if colsums is not None:
            scores /= sums
            colsums[..., keys] += scores.sum(axis=-2)


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
    return _decode(q, k, v)


def _decode(q, k, v) -> np.ndarray:
    """decode's arithmetic without its checks, for float64 arrays decode would accept."""
    scores = q @ k.swapaxes(-1, -2)
    scores *= 1.0 / math.sqrt(q.shape[-1])
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    out = scores @ v
    out /= np.add.reduce(scores, axis=-1, keepdims=True)
    return out
