"""Cache-free reference forward, independent of purekv's attention and engine.

It reads only the model's weight matrices and the masks from
`purekv.masks.build_mask` (whose algebra the acceptance suite checks
exhaustively), and uses a plain softmax over materialized scores. Rows are
processed in blocks that stop at the causal edge, so no l x l matrix is held.

The sequence may extend the prompt with decode rows: those attend to every
earlier row, as a decode step over a full (uncompressed) cache does.
"""

from __future__ import annotations

import numpy as np

_NORM_EPS = 1e-12
_BLOCK = 256


def _normalize(x):
    return x / np.sqrt((x * x).mean(axis=1, keepdims=True) + _NORM_EPS)


def _attend(q, k, v, mask):
    out = np.empty((q.shape[0], v.shape[1]))
    scale = 1.0 / np.sqrt(q.shape[1])
    for i in range(0, q.shape[0], _BLOCK):
        j = min(i + _BLOCK, q.shape[0])
        scores = np.where(mask[i:j, :j], q[i:j] @ k[:j].T * scale, -np.inf)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        out[i:j] = (weights / weights.sum(axis=1, keepdims=True)) @ v[:j]
    return out


def _layer(model, index, x, mask):
    c = model.config
    w = model.layers[index]
    n = x.shape[0]
    hidden = _normalize(x)
    q = (hidden @ w.wq).reshape(n, c.num_q_heads, c.d_k)
    k = (hidden @ w.wk).reshape(n, c.num_kv_heads, c.d_k)
    v = (hidden @ w.wv).reshape(n, c.num_kv_heads, c.d_v)
    group = c.num_q_heads // c.num_kv_heads
    heads = [_attend(q[:, h], k[:, h // group], v[:, h // group], mask)
             for h in range(c.num_q_heads)]
    x = x + np.concatenate(heads, axis=1) @ w.wo
    return x + np.maximum(_normalize(x) @ w.w_up, 0.0) @ w.w_down


def _extend(prompt_mask, total: int):
    l = prompt_mask.shape[0]
    mask = np.tril(np.ones((total, total), dtype=bool))
    mask[:l, :l] = prompt_mask
    return mask


def reference_logits(model, layout, patterns, st_layer_index: int, rows) -> dict:
    """Logits for every row of `rows` (prompt first), one array per pattern.

    Layers below st_layer_index use the dense causal mask, the rest the
    pattern's mask, as the engine's wiring documents; the shared lower
    layers are computed once.
    """
    from purekv.masks import SparsityPattern, build_mask

    total = rows.shape[0]
    dense = _extend(build_mask(layout, SparsityPattern.dense()), total)
    lower = min(st_layer_index, model.config.num_layers)
    x = np.asarray(rows, dtype=np.float64)
    for index in range(lower):
        x = _layer(model, index, x, dense)
    out = {}
    for pattern in patterns:
        mask = _extend(build_mask(layout, pattern), total)
        y = x
        for index in range(lower, model.config.num_layers):
            y = _layer(model, index, y, mask)
        out[pattern.describe()] = _normalize(y) @ model.w_vocab
    return out
