"""Dense linear algebra primitives and seeded randomness.

Matrices are plain float64 numpy arrays of shape (rows, cols). Every exported
operation returns finite values or raises; callers never see NaN/Inf.
row_softmax always takes a mask, as attention.masked, its caller, always has one.

Randomness comes from a SplitMix64 counter generator: output k of stream
`seed` is a pure function of (seed, k), so matrices are bit-identical across
platforms and independent of draw order. Gaussians are produced from counter
pairs via Box-Muller. Counter k maps to (k + 1) * GOLDEN + seed, a bijection
mod 2**64 because GOLDEN is odd, and every finalizer step (an xorshift right,
or a multiply by an odd constant) is invertible, so the words of one stream
are pairwise distinct across any 2**64 consecutive counters.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _finalize(z):
    """SplitMix64 finalizer (wrapping arithmetic); works in place on a uint64 array."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def random_u64(seed: int, start: int, count: int) -> np.ndarray:
    """Words [start, start+count) of the SplitMix64 stream keyed by seed."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    return _finalize(z)


def derive_seed(seed: int, *parts: int) -> int:
    """Fold integer tags into seed, giving independent named substreams."""
    s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        for p in parts:
            s = _finalize((s + _GOLDEN) ^ np.uint64(p & 0xFFFFFFFFFFFFFFFF))
    return int(s)


def seeded_gaussian(rows: int, cols: int, seed: int) -> np.ndarray:
    """Standard-normal (rows, cols) matrix, bit-identical for identical seeds.

    Each entry uses one counter pair via Box-Muller, so the value at a given
    index never depends on how many entries were drawn before it.
    """
    if rows < 1 or cols < 1:
        raise ConfigurationError(f"seeded_gaussian needs rows, cols >= 1, got ({rows}, {cols})")
    n = rows * cols
    words = random_u64(seed, 0, 2 * n)
    # 53-bit mantissa draws mapped into the open interval (0, 1)
    u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    u2 = ((words[1::2] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return z.reshape(rows, cols)


def row_softmax(m, mask) -> np.ndarray:
    """Masked softmax along the last axis, stabilized by per-row max subtraction.

    m is a matrix or a stack of them; mask (True = keep), one matrix shared by
    the stack, uses -inf semantics: masked logits are excluded from the row
    max and their weights are exactly 0. A fully masked row raises.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2:
        raise ConfigurationError(f"m must be a matrix or a stack of them, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("row_softmax requires finite inputs")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != m.shape[-2:]:
        raise ConfigurationError(
            f"mask shape {mask.shape} does not match matrix shape {m.shape[-2:]}"
        )
    empty = ~mask.any(axis=1)
    if empty.any():
        row = int(np.flatnonzero(empty)[0])
        raise ValueError(f"row_softmax: row {row} is fully masked")
    scores = np.where(mask, m, -np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def l2_norm_rows(v) -> np.ndarray:
    """Per-row Euclidean norms, length v.rows."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise ConfigurationError(f"v must be a 2-D matrix, got ndim={v.ndim}")
    if v.shape[0] == 0:
        raise ConfigurationError("l2_norm_rows requires a non-empty matrix")
    norms = np.sqrt((v * v).sum(axis=1))
    if not np.all(np.isfinite(norms)):
        raise ValueError("l2_norm_rows produced non-finite entries")
    return norms
