"""Spearman rank correlation and a seeded permutation significance test.

spearman_rho is the Pearson correlation of average-rank vectors: identical to
the classic 1 - 6*sum(d^2)/(n(n^2-1)) form when there are no ties, and still
well defined when importance scores tie (e.g. zero-norm value rows).

The permutation test is one-sided (large rho = agreement) and fully
deterministic: permutation i is derived from (seed, i) with a counter RNG, so
results never depend on evaluation order. It runs over blocks of
_PERM_BLOCK permutations, so memory stays O(_PERM_BLOCK * n) for any n_perm.
It takes a (P, n) table of pairs, draws and sorts each block once and scores
every pair against it, so a row's p-value does not depend on the other rows.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .numerics import random_u64

_PERM_TAG = 0x5045524D  # stream offset so permutations never reuse other draws
_PERM_BLOCK = 128  # drawn and sorted together; at 256 the grid's block arrays map fresh pages


def rank(values) -> np.ndarray:
    """Ascending 1-based ranks; tied values share the average of their ranks."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ConfigurationError("rank expects a non-empty 1-D vector")
    if np.isnan(values).any():
        raise ValueError("rank is undefined for NaN inputs")
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    stops = np.r_[starts[1:], len(values)]  # equal values fill sorted positions start..stop-1
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + stops + 1) / 2.0, stops - starts)  # start+1..stop
    return ranks


def spearman_rho(x, y) -> float:
    """Rank correlation in [-1, 1]; raises when either ranking is constant."""
    rxc, ryc, norm = _centred(*_rank_pair(x, y))
    return float((rxc * ryc).sum() / norm)


def permutation_pvalue(x, y, n_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One-sided permutation p-values for positive rank agreement of each row pair.

    x and y are (P, n) tables. Returns (p, rho), two (P,) arrays: p[i] =
    (1 + #{permutations with rho >= observed}) / (1 + n_perm), where the +1
    counts the identity, so p is never below 1/(1 + n_perm); rho[i] is the
    observed spearman_rho of x[i] and y[i], bit for bit, from the ranks the
    test needs anyway. Every row is scored against the same permutations, so
    it gets the p-value a one-row table of it would. A constant row raises
    ValueError, as spearman_rho does.
    """
    if n_perm < 100:
        raise ConfigurationError(f"n_perm must be >= 100, got {n_perm}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 2 or not len(x):
        raise ConfigurationError(
            f"expected equal-shape non-empty (P, n) tables, got {x.shape} and {y.shape}"
        )
    n = x.shape[1]
    if n < 3:
        raise ConfigurationError(f"permutation test needs n >= 3, got {n}")
    rows = []  # (centred rx, centred ry, norm, observed rho) per row
    for row_x, row_y in zip(x, y):
        rxc, ryc, norm = _centred(*_rank_pair(row_x, row_y))
        rows.append((rxc, ryc, norm, float((rxc * ryc).sum() / norm)))

    # Ranks of a permuted vector are the permuted ranks, so permute ryc
    # directly. Permutation i is the argsort of counter words
    # [i * n, (i + 1) * n), so a block needs no other block's words, and
    # every row is scored against one draw and one sort of them.
    counts = np.zeros(len(rows), dtype=np.int64)
    for first in range(0, n_perm, _PERM_BLOCK):
        block = min(_PERM_BLOCK, n_perm - first)
        idx = _argsort_rows(random_u64(seed, _PERM_TAG + first * n, block * n).reshape(block, n))
        for p, (rxc, ryc, norm, observed) in enumerate(rows):
            counts[p] += int(((ryc[idx] @ rxc) / norm >= observed).sum())
    return (1 + counts) / (1 + n_perm), np.array([observed for *_, observed in rows])


def _argsort_rows(words: np.ndarray) -> np.ndarray:
    """np.argsort(words, axis=1) for rows of distinct uint64 words, as random_u64's are:
    each word's high bits, with its column in the low bits, sort as one key, cheaper
    than an argsort; a table where two of a row's words share high bits is argsorted."""
    low = np.uint64((1 << max(1, (words.shape[1] - 1).bit_length())) - 1)
    keys = (words & ~low) | np.arange(words.shape[1], dtype=np.uint64)
    keys.sort(axis=1)
    if ((keys[:, 1:] ^ keys[:, :-1]) <= low).any():
        return np.argsort(words, axis=1)
    return (keys & low).astype(np.intp)


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


def _centred(rx: np.ndarray, ry: np.ndarray):
    """Both rank vectors minus their means, and Pearson's denominator."""
    rxc = rx - rx.mean()
    ryc = ry - ry.mean()
    var_x = (rxc * rxc).sum()
    var_y = (ryc * ryc).sum()
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("undefined correlation: a rank vector has zero variance")
    return rxc, ryc, np.sqrt(var_x * var_y)
