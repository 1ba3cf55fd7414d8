"""Spearman rank correlation and a seeded permutation significance test.

spearman_rho is the Pearson correlation of average-rank vectors: identical to
the classic 1 - 6*sum(d^2)/(n(n^2-1)) form when there are no ties, and still
well defined when importance scores tie (e.g. zero-norm value rows).

The permutation test is one-sided (large rho = agreement) and fully
deterministic: permutation i is derived from (seed, i) with a counter RNG, so
results never depend on evaluation order. It runs over blocks of
_PERM_BLOCK permutations, so memory stays O(_PERM_BLOCK * n) for any n_perm.
A (P, n) batch of pairs with the same seed draws and sorts each block once
and scores every pair against it, with the arithmetic of a lone call.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .numerics import random_u64

_PERM_TAG = 0x5045524D  # stream offset so permutations never reuse other draws
_PERM_BLOCK = 64  # permutations drawn, sorted and scored together


def rank(values) -> np.ndarray:
    """Ascending 1-based ranks; tied values share the average of their ranks."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ConfigurationError("rank expects a non-empty 1-D vector")
    if np.isnan(values).any():
        raise ValueError("rank is undefined for NaN inputs")
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # Equal values fill sorted positions stop-count..stop-1: ranks stop-count+1..stop.
    stops = np.cumsum(counts)
    return ((stops - counts + stops + 1) / 2.0)[inverse]


def spearman_rho(x, y) -> float:
    """Rank correlation in [-1, 1]; raises when either ranking is constant."""
    rx, ry = _rank_pair(x, y)
    return _pearson(rx, ry)


def permutation_pvalue(x, y, n_perm: int, seed: int):
    """One-sided permutation p-value for positive rank agreement.

    p = (1 + #{permutations with rho >= observed}) / (1 + n_perm); the +1
    counts the identity, so p is never 0 and never below 1/(1 + n_perm).
    x and y are (n,) vectors, which give a float, or (P, n) tables, which
    give a (P,) array: row p is scored against the same permutations as a
    lone call on x[p] and y[p] would draw, and gets the same p-value.
    """
    if n_perm < 100:
        raise ConfigurationError(f"n_perm must be >= 100, got {n_perm}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xs, ys = np.atleast_2d(x), np.atleast_2d(y)
    if x.shape != y.shape or x.ndim not in (1, 2) or not len(xs):
        raise ConfigurationError(
            f"expected equal-shape (n,) vectors or non-empty (P, n) tables, "
            f"got {x.shape} and {y.shape}"
        )
    rows = []  # (centred rx, centred ry, norm, observed rho) per row
    for row_x, row_y in zip(xs, ys):
        rx, ry = _rank_pair(row_x, row_y)
        rxc = rx - rx.mean()
        ryc = ry - ry.mean()
        norm = np.sqrt((rxc * rxc).sum() * (ryc * ryc).sum())
        rows.append((rxc, ryc, norm, float((rxc * ryc).sum() / norm)))
    n = x.shape[-1]
    if n < 3:
        raise ConfigurationError(f"permutation test needs n >= 3, got {n}")

    # Ranks of a permuted vector are the permuted ranks, so permute ryc
    # directly. Permutation i is the argsort of counter words
    # [i * n, (i + 1) * n), so a block needs no other block's words, and
    # every row is scored against one draw and one sort of them.
    counts = np.zeros(len(rows), dtype=np.int64)
    for first in range(0, n_perm, _PERM_BLOCK):
        block = min(_PERM_BLOCK, n_perm - first)
        words = random_u64(seed, _PERM_TAG + first * n, block * n).reshape(block, n)
        idx = np.argsort(words, axis=1)
        # Only tied words make the sort kind matter; they keep the stable order.
        if (np.diff(np.take_along_axis(words, idx, axis=1), axis=1) == 0).any():
            idx = np.argsort(words, axis=1, kind="stable")
        for p, (rxc, ryc, norm, observed) in enumerate(rows):
            counts[p] += int(((ryc[idx] @ rxc) / norm >= observed).sum())
    pvalues = (1 + counts) / (1 + n_perm)
    return float(pvalues[0]) if x.ndim == 1 else pvalues


def _rank_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigurationError(
            f"expected equal-length 1-D vectors, got {x.shape} and {y.shape}"
        )
    if x.size < 2:
        raise ConfigurationError(f"correlation needs n >= 2, got n={x.size}")
    return rank(x), rank(y)


def _pearson(rx: np.ndarray, ry: np.ndarray) -> float:
    rxc = rx - rx.mean()
    ryc = ry - ry.mean()
    var_x = (rxc * rxc).sum()
    var_y = (ryc * ryc).sum()
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("undefined correlation: a rank vector has zero variance")
    return float((rxc * ryc).sum() / np.sqrt(var_x * var_y))
