"""Summaries of timing samples."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def percentile(samples, p: float):
    """The p-th percentile, or None unless at least ten samples lie beyond it.

    "Beyond" counts the share (100 - p)% of the sample above the percentile,
    so p50 needs 20 samples and p90 needs 100.
    """
    n = len(samples)
    if n * (100 - p) / 100 < MIN_BEYOND:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[int(p) - 1]


def median(samples):
    return statistics.median(samples) if samples else None


def timing(prefix: str, samples_s) -> dict:
    """Median, p50 and p90 in milliseconds, with the sample count."""
    ms = [1000.0 * s for s in samples_s]
    return {
        f"{prefix}.median": median(ms),
        f"{prefix}.p50": percentile(ms, 50),
        f"{prefix}.p90": percentile(ms, 90),
        f"{prefix}.samples": len(ms),
    }
