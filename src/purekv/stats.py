"""Spearman rank correlation and a seeded permutation significance test.

spearman_rho is the Pearson correlation of average-rank vectors: identical to
the classic 1 - 6*sum(d^2)/(n(n^2-1)) form when there are no ties, and still
well defined when importance scores tie (e.g. zero-norm value rows).

The permutation test is one-sided (large rho = agreement) and fully
deterministic: permutation i is derived from (seed, i) with a counter RNG, so
results never depend on evaluation order. It runs over blocks of
_PERM_BLOCK permutations, so memory stays O(_PERM_BLOCK * n) for any n_perm.
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


def permutation_pvalue(x, y, n_perm: int, seed: int) -> float:
    """One-sided permutation p-value for positive rank agreement.

    p = (1 + #{permutations with rho >= observed}) / (1 + n_perm); the +1
    counts the identity, so p is never 0 and never below 1/(1 + n_perm).
    """
    if n_perm < 100:
        raise ConfigurationError(f"n_perm must be >= 100, got {n_perm}")
    rx, ry = _rank_pair(x, y)
    n = rx.size
    if n < 3:
        raise ConfigurationError(f"permutation test needs n >= 3, got {n}")
    rxc = rx - rx.mean()
    ryc = ry - ry.mean()
    norm = np.sqrt((rxc * rxc).sum() * (ryc * ryc).sum())
    observed = float((rxc * ryc).sum() / norm)

    # Ranks of a permuted vector are the permuted ranks, so permute ryc
    # directly. Permutation i is the argsort of counter words
    # [i * n, (i + 1) * n), so a block needs no other block's words.
    count = 0
    for first in range(0, n_perm, _PERM_BLOCK):
        block = min(_PERM_BLOCK, n_perm - first)
        words = random_u64(seed, _PERM_TAG + first * n, block * n).reshape(block, n)
        idx = np.argsort(words, axis=1)
        # Only tied words make the sort kind matter; they keep the stable order.
        if (np.diff(np.take_along_axis(words, idx, axis=1), axis=1) == 0).any():
            idx = np.argsort(words, axis=1, kind="stable")
        rho_perm = (ryc[idx] @ rxc) / norm
        count += int((rho_perm >= observed).sum())
    return (1 + count) / (1 + n_perm)


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
