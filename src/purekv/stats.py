"""Spearman rank correlation and a seeded permutation significance test.

spearman_rho is the Pearson correlation of average-rank vectors: identical to
the classic 1 - 6*sum(d^2)/(n(n^2-1)) form when there are no ties, and still
well defined when importance scores tie (e.g. zero-norm value rows).

The permutation test is one-sided (large rho = agreement) and fully
deterministic: permutation i of width n is the argsort of counter words
[i * n, (i + 1) * n), so results never depend on evaluation order. It takes
(P, n) tables of pairs, of any widths n, and runs over blocks of _PERM_BLOCK
permutations. A block draws each maximal run of overlapping word ranges once,
sorts each width's words once and scores every row of that width against
them, so a row's p-value depends on neither the other rows nor the other
tables, and a block holds at most _PERM_BLOCK * sum(n) words for any n_perm.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .numerics import random_u64

_PERM_TAG = 0x5045524D  # stream offset so permutations never reuse other draws
# Drawn and sorted together. On the example grid, 256 made validation 3% faster
# but the grid 10% slower (its block arrays map fresh pages); 64 made validation
# 12% slower.
_PERM_BLOCK = 128


def rank(values) -> np.ndarray:
    """Ascending 1-based ranks; tied values share the average of their ranks."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ConfigurationError("rank expects a non-empty 1-D vector")
    return _rank_rows(values[None])[0]


def _rank_rows(table: np.ndarray) -> np.ndarray:
    """rank of each row of a non-empty (P, n) float64 table, all rows at once."""
    if np.isnan(table).any():
        raise ValueError("rank is undefined for NaN inputs")
    rows = np.arange(0, table.size, table.shape[1])[:, None]  # each row's first flat position
    order = np.argsort(table, axis=1, kind="stable") + rows  # flat positions, row by row
    ordered = table.ravel()[order]
    # Each row starts a run of equal values, so no run spans two rows; a run
    # of length k from sorted position s of its row holds ranks s+1..s+k.
    new = np.concatenate([np.ones(rows.shape, bool), ordered[:, 1:] != ordered[:, :-1]], axis=1)
    starts = np.flatnonzero(new)
    lengths = np.diff(starts, append=table.size)
    ranks = np.empty(table.size)
    ranks[order.ravel()] = np.repeat((2 * (starts % table.shape[1]) + lengths + 1) / 2.0, lengths)
    return ranks.reshape(table.shape)


def spearman_rho(x, y) -> float:
    """Rank correlation in [-1, 1]; raises when either ranking is constant."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigurationError(f"expected equal-length 1-D vectors, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ConfigurationError(f"correlation needs n >= 2, got n={x.size}")
    return float(_rank_correlations(x[None], y[None])[3][0])


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
    return permutation_pvalues([(x, y)], n_perm, seed)[0]


def permutation_pvalues(tables, n_perm: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """permutation_pvalue's (p, rho) for each (x, y) pair of (P, n) tables, whose
    widths n may differ, from one stream: each gets what a call on it alone would."""
    if n_perm < 100:
        raise ConfigurationError(f"n_perm must be >= 100, got {n_perm}")
    scored = []  # (centred rx, centred ry, norms, observed rhos, counts) per table
    for x, y in tables:
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 2 or not len(x):
            raise ConfigurationError("expected equal-shape non-empty (P, n) tables, "
                                     f"got {x.shape} and {y.shape}")
        if x.shape[1] < 3:
            raise ConfigurationError(f"permutation test needs n >= 3, got {x.shape[1]}")
        scored.append((*_rank_correlations(x, y), np.zeros(len(x), dtype=np.int64)))

    # Ranks of a permuted vector are the permuted ranks, so permute ryc
    # directly. Centred ranks are multiples of 0.5, so each dot is exact.
    widths = np.unique([rxc.shape[1] for rxc, *_ in scored])
    for first in range(0, n_perm, _PERM_BLOCK):
        perms = dict(_permutations(widths, first, min(_PERM_BLOCK, n_perm - first), seed))
        for rxc, ryc, norm, observed, count in scored:
            dots = (np.take(ryc, perms[rxc.shape[1]], axis=1) @ rxc[:, :, None])[..., 0]
            count += (dots / norm[:, None] >= observed[:, None]).sum(axis=1)
    return [((1 + count) / (1 + n_perm), observed) for *_, observed, count in scored]


def _permutations(widths: np.ndarray, first: int, block: int, seed: int):
    """(n, permutations first..first+block-1 of width n) for each of the ascending
    widths. Each maximal run of overlapping word ranges [first * n, (first + block) * n)
    is drawn once, so a block draws no more words than one draw per width would."""
    breaks = np.flatnonzero(first * widths[1:] > (first + block) * widths[:-1]) + 1
    for run in filter(len, np.split(widths, breaks)):
        start = first * int(run[0])
        words = random_u64(seed, _PERM_TAG + start, (first + block) * int(run[-1]) - start)
        for n in run.tolist():
            yield n, _argsort_rows(words[first * n - start:][:block * n].reshape(block, n))


def _argsort_rows(words: np.ndarray) -> np.ndarray:
    """np.argsort(words, axis=1) for rows of distinct uint64 words, as random_u64's are:
    each word's high bits, with its column in the low bits, sort as one key, cheaper
    than an argsort. Where two adjacent keys of the sorted block are at most low apart
    (keys with equal high bits are; a rare false alarm, within a row or across a row
    boundary, can be), the block is argsorted instead."""
    low = np.uint64((1 << max(1, (words.shape[1] - 1).bit_length())) - 1)
    keys = words & ~low
    keys |= np.arange(words.shape[1], dtype=np.uint64)
    keys.sort(axis=1)
    if np.diff(keys.ravel()).min() <= low:  # a row ending above the next one's start wraps
        return np.argsort(words, axis=1)
    return np.bitwise_and(keys, low, out=keys).view(np.intp)


def _rank_correlations(x: np.ndarray, y: np.ndarray):
    """Each row pair's ranks minus their means, Pearson's denominator and rho.
    Ranks are multiples of 0.5 that sum to n(n+1)/2, so every sum here is exact."""
    rxc, ryc = (r - r.mean(axis=1, keepdims=True) for r in (_rank_rows(x), _rank_rows(y)))
    var_x, var_y = (rxc * rxc).sum(axis=1), (ryc * ryc).sum(axis=1)
    if not (var_x.all() and var_y.all()):
        raise ValueError("undefined correlation: a rank vector has zero variance")
    norm = np.sqrt(var_x * var_y)
    return rxc, ryc, norm, (rxc * ryc).sum(axis=1) / norm
