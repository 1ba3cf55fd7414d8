"""Independent reference implementations used as test oracles.

Everything here recomputes results from model weights with plain numpy and
explicit softmax, touching none of the package's attention or engine code
paths beyond reading weight matrices and configuration.
"""

import numpy as np

NORM_EPS = 1e-12


def normalize_rows(x):
    return x / np.sqrt((x * x).mean(axis=1, keepdims=True) + NORM_EPS)


def decode_attention(q, k, v):
    """attention.decode's arithmetic as one expression, kept as the bits decode must match."""
    scores = q @ np.swapaxes(k, -1, -2) * (1.0 / np.sqrt(q.shape[-1]))
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return (weights @ v) / weights.sum(axis=-1, keepdims=True)


def plain_softmax(scores, mask):
    scores = np.where(mask, scores, -np.inf)
    shifted = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=1, keepdims=True)


def reference_forward(model, embeddings, layer_masks, collect_attention=False):
    """Cache-free forward pass with materialized attention at every layer.

    layer_masks: one (n, n) bool mask per layer. Returns (logits, records)
    where records[layer] holds per-query-head attention matrices and
    per-KV-head value matrices when collect_attention is set.
    """
    c = model.config
    x = np.asarray(embeddings, dtype=np.float64).copy()
    n = x.shape[0]
    records = []
    for layer in range(c.num_layers):
        weights_l = model.layers[layer]
        hidden = normalize_rows(x)
        q = (hidden @ weights_l.wq).reshape(n, c.num_q_heads, c.d_k)
        k = (hidden @ weights_l.wk).reshape(n, c.num_kv_heads, c.d_k)
        v = (hidden @ weights_l.wv).reshape(n, c.num_kv_heads, c.d_v)
        head_outs = []
        attn_per_qhead = []
        for q_head in range(c.num_q_heads):
            g = q_head // (c.num_q_heads // c.num_kv_heads)
            scores = q[:, q_head, :] @ k[:, g, :].T / np.sqrt(c.d_k)
            attn = plain_softmax(scores, layer_masks[layer])
            attn_per_qhead.append(attn)
            head_outs.append(attn @ v[:, g, :])
        if collect_attention:
            records.append({
                "attention": attn_per_qhead,
                "values": [v[:, g, :].copy() for g in range(c.num_kv_heads)],
            })
        x = x + np.concatenate(head_outs, axis=1) @ weights_l.wo
        hidden2 = normalize_rows(x)
        x = x + np.maximum(hidden2 @ weights_l.w_up, 0.0) @ weights_l.w_down
    return normalize_rows(x) @ model.w_vocab, records


def causal_masks(num_layers, n):
    causal = np.tril(np.ones((n, n), dtype=bool))
    return [causal for _ in range(num_layers)]


def brute_force_select(scores, w, h, l):
    """Exhaustive sort with the smaller-index tie rule, plus the recent window."""
    indexed = sorted(range(l - w), key=lambda j: (-scores[j], j))
    kept = sorted(indexed[:h]) + list(range(l - w, l))
    return sorted(kept)
