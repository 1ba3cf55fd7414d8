"""Independent reference implementations used as test oracles.

Everything here recomputes results from model weights with plain numpy and
explicit softmax, touching none of the package's attention or engine code
paths beyond reading weight matrices and configuration, except naive_grid,
which runs the engine's public entry points one cell at a time.
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


def out_of_place_softmax(m, mask):
    """numerics.row_softmax as it ran with a new array for each step: the bits
    its in-place steps must match."""
    scores = np.where(mask, np.asarray(m, dtype=np.float64), -np.inf)
    row_max = scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores - row_max)
    return weights / weights.sum(axis=-1, keepdims=True)


def out_of_place_masked(q, k, v, mask):
    """attention.masked as it ran with the scale applied out of place: (out, weights)."""
    scale = 1.0 / np.sqrt(q.shape[-1])
    weights = out_of_place_softmax(q @ np.swapaxes(k, -1, -2) * scale, mask)
    return weights @ v, weights


def unique_rank(values):
    """stats.rank as it ran through np.unique: ascending 1-based average ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    stops = np.cumsum(counts)
    return ((stops - counts + stops + 1) / 2.0)[inverse]


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


def query_tiles(q, k, v, mask, tile_size, mass=False):
    """The tile loop with each tile's analysis redone inline, as attention ran it
    before TilePlan: the bits streaming_masked and column_mass must match.

    Returns (out, colsums), colsums being None unless mass is set.
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    mask = np.asarray(mask, dtype=bool)
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    scale = 1.0 / np.sqrt(q.shape[-1])
    out = np.empty(lead + (q.shape[-2], v.shape[-1]))
    colsums = np.zeros(lead + (k.shape[-2],)) if mass else None
    for start in range(0, q.shape[-2], tile_size):
        rows = slice(start, start + tile_size)
        keys = np.flatnonzero(mask[rows].any(axis=0))
        if keys[-1] - keys[0] + 1 == keys.size:
            keys = slice(int(keys[0]), int(keys[-1]) + 1)
        allowed = mask[rows, keys]
        scores = q[..., rows, :] @ np.swapaxes(k[..., keys, :], -1, -2)
        scores *= scale
        first = int(np.argmin(allowed.all(axis=0)))
        if not allowed[:, first].all():
            scores[..., first:] += np.where(allowed[:, first:], 0.0, -np.inf)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        sums = scores.sum(axis=-1, keepdims=True)
        out[..., rows, :] = (scores @ v[..., keys, :]) / sums
        if mass:
            scores /= sums
            colsums[..., keys] += scores.sum(axis=-2)
    return out, colsums


def whole_prompt_pass(model, layout, pattern, st_layer_index, embeddings, windows, layers,
                      column_sums, tile_size):
    """engine.prompt_pass over whole matrices: every layer's RMSNorm, projections,
    output projection and MLP over all l rows at once, its streamed attention from
    the whole (l, l) mask (query_tiles) and its estimation slab from that mask's last
    rows (out_of_place_masked). Returns the pass's arrays by name, the bits a pass
    run in row blocks and mask slabs must match."""
    from purekv.masks import SparsityPattern, build_mask

    c = model.config
    x = np.asarray(embeddings, dtype=np.float64)
    l = x.shape[0]
    recent = [w for w in windows if w < l]
    keys, values, tables, colsums = [], [], [], []
    for layer, weights in enumerate(model.layers):
        mask = build_mask(layout, SparsityPattern.dense() if layer < st_layer_index else pattern)
        h = normalize_rows(x)
        q = (h @ weights.wq).reshape(l, c.num_kv_heads, c.group_size, c.d_k).transpose(1, 2, 0, 3)
        k = (h @ weights.wk).reshape(l, c.num_kv_heads, c.d_k).transpose(1, 0, 2)
        v = (h @ weights.wv).reshape(l, c.num_kv_heads, c.d_v).transpose(1, 0, 2)
        if layer < layers and recent:
            first = l - max(recent)
            _, slab = out_of_place_masked(q[:, :, first:], k[:, None], v[:, None], mask[first:])
            tables.append({w: slab[..., -w:, : l - w].sum(axis=-2).mean(axis=1) for w in recent})
        heads, mass = query_tiles(q, k[:, None], v[:, None], mask, tile_size, mass=column_sums)
        keys.append(k), values.append(v)
        colsums.append(None if mass is None else mass.mean(axis=1))
        x = x + heads.transpose(2, 0, 1, 3).reshape(l, -1) @ weights.wo
        x = x + np.maximum(normalize_rows(x) @ weights.w_up, 0.0) @ weights.w_down
    keys, values = np.array(keys), np.array(values)
    arrays = {"logits": normalize_rows(x) @ model.w_vocab, "keys": keys, "values": values,
              "norms": np.sqrt((values * values).sum(axis=-1)),
              "colsums": np.array(colsums) if column_sums else None}
    arrays.update({f"accumulators[{w}]": None if w >= l else
                   np.array([table[w] for table in tables]) for w in windows})
    return arrays


def tie_checked_permutation_pvalue(x, y, n_perm, seed):
    """stats.permutation_pvalue on (P, n) tables as it ran with a tie check:
    each block's words were argsorted, and sorted again with the stable kind
    when two words were equal; ranks came from np.unique. Returns (p-values,
    rhos), the bits the function without the check must match."""
    from purekv.numerics import random_u64
    from purekv.stats import _PERM_BLOCK, _PERM_TAG

    rows = []
    for row_x, row_y in zip(np.atleast_2d(x), np.atleast_2d(y)):
        rx, ry = unique_rank(row_x), unique_rank(row_y)
        rxc, ryc = rx - rx.mean(), ry - ry.mean()
        norm = np.sqrt((rxc * rxc).sum() * (ryc * ryc).sum())
        rows.append((rxc, ryc, norm, float((rxc * ryc).sum() / norm)))
    n = len(rows[0][0])
    counts = np.zeros(len(rows), dtype=np.int64)
    for first in range(0, n_perm, _PERM_BLOCK):
        block = min(_PERM_BLOCK, n_perm - first)
        words = random_u64(seed, _PERM_TAG + first * n, block * n).reshape(block, n)
        idx = np.argsort(words, axis=1)
        if (np.diff(np.take_along_axis(words, idx, axis=1), axis=1) == 0).any():
            idx = np.argsort(words, axis=1, kind="stable")
        for p, (rxc, ryc, norm, observed) in enumerate(rows):
            counts[p] += int(((ryc[idx] @ rxc) / norm >= observed).sum())
    return (1 + counts) / (1 + n_perm), np.array([observed for *_, observed in rows])


def per_layer_compression(prompt, policy, w, h):
    """apply_compression as it ran layer by layer before it took the whole layer
    stack: each layer scored, selected and gathered head by head on its own,
    a pure_kv layer from layer min(layer, clie)'s (Hkv, l - w) row of the
    pass's stacked (layers, Hkv, l - w) accumulators. These are the bits the
    stacked path must match. Returns one (keys, values, positions) triple of
    (Hkv, w + h, ·) arrays per layer."""
    l = prompt.keys[0].shape[-2]
    sink = min(policy.sink_len, w + h)
    out = []
    for layer, (keys, values) in enumerate(zip(prompt.keys, prompt.values)):
        if w + h >= l:
            table = [np.arange(l)] * len(keys)
        elif policy.policy_kind == "streaming_like":
            kept = np.union1d(np.arange(min(sink, l)), np.arange(max(l - (w + h - sink), 0), l))
            table = [kept] * len(keys)
        else:
            if policy.policy_kind == "pure_kv":
                stacked = prompt.accumulators[w]
                assert stacked.shape == (min(prompt.layers, len(prompt.keys)), len(keys), l - w)
                accumulators = stacked[min(layer, policy.clie_layer_index)]
                rows = values[:, : l - w].reshape(-1, values.shape[-1])
                scores = accumulators * np.sqrt((rows * rows).sum(axis=1)).reshape(-1, l - w)
            else:
                scores = prompt.colsums[layer, :, : l - w]
            top = np.argsort(-scores, axis=-1, kind="stable")[:, :h]
            table = [np.sort(np.concatenate([rows, np.arange(l - w, l)])) for rows in top]
        out.append((np.stack([k[rows] for k, rows in zip(keys, table)]),
                    np.stack([v[rows] for v, rows in zip(values, table)]), np.stack(table)))
    return out


def argsort_select(S, w, h, l):
    """cache.select_retained as it ran with a full stable argsort of -S: the
    positions the partial selection must match, bit for bit."""
    S = np.asarray(S, dtype=np.float64)
    top = np.argsort(-S, axis=-1, kind="stable")[..., :h]
    recent = np.broadcast_to(np.arange(l - w, l, dtype=np.int64), S.shape[:-1] + (w,))
    return np.sort(np.concatenate([top.astype(np.int64), recent], axis=-1), axis=-1)


def score_low_scores(prompt, policy, w):
    """The (L, Hkv, l - w) scores apply_compression selected from when it
    normed the pass's values through cache.score_low (pure_kv) and stacked the
    per-layer column sums (h2o_like): the bits read from the pass must match."""
    from purekv.cache import score_low

    l = prompt.keys.shape[-2]
    if policy.policy_kind == "h2o_like":
        return np.stack(list(prompt.colsums))[..., : l - w]
    table = prompt.accumulators[w]  # (layers, Hkv, l - w), one row per estimation layer
    used = np.stack([table[min(layer, policy.clie_layer_index)]
                     for layer in range(len(prompt.keys))])
    return score_low(used, prompt.values)


def score_low_validation(prompts, w, analysis_layer):
    """validate_cross_layer's (estimate, truth) tables as it built them through
    cache.score_low: (P, layers above, Hkv, l - w), the bits its permutation
    tests must receive."""
    from purekv.cache import score_low

    above = slice(analysis_layer + 1, prompts[0].model.config.num_layers)
    truth, estimate = [], []
    for prompt in prompts:
        table, values = prompt.accumulators[w], prompt.values[above]
        own = np.stack(table[above])
        truth.append(score_low(own, values))
        estimate.append(score_low(np.broadcast_to(table[analysis_layer], own.shape), values))
    return np.stack(estimate), np.stack(truth)


def naive_grid(config):
    """run_experiment's report cells, each cell run alone: its own prompt pass
    from the embeddings, its own compression with no lender, its own decode, and
    one validate_cross_layer call on a pass of its own pattern. No pass, cache,
    decode or validation is shared, so these are the bits the grid's reuse
    must reproduce."""
    from purekv import engine
    from purekv.harness import (_experiment_cells, decode_embeddings, estimate_macs,
                                generate_workload, salient_recall)
    from purekv.masks import SparsityPattern, build_mask, mask_density

    model = engine.init_model(config.model)
    embeddings, salient = generate_workload(config.workload, config.model.d_model)
    rows = decode_embeddings(config.workload, config.model.d_model, config.decode_steps)

    def run(kind, pattern, budget):
        session = engine.init_session(model, config.layout, config.policy(kind, budget),
                                      pattern, config.tile_size)
        engine.prefill(model, session, embeddings)
        engine.apply_compression(model, session)
        recall = None
        if salient.size:
            table = np.concatenate([kv.positions for kv in session.cache])
            recall = float(np.mean(salient_recall(table, salient)))
        return session, recall, [engine.decode_step(model, session, row) for row in rows]

    reference = run("full", SparsityPattern.dense(), 1.0)[2]
    cells = []
    for kind, pattern, budget in _experiment_cells(config):
        session, recall, logits = run(kind, pattern, budget)
        l, w, h = session.prefill_len, session.w, session.h
        divergence = 0.0
        for ours, theirs in zip(logits, reference):
            divergence = max(divergence, float(np.max(np.abs(ours - theirs))))
        validation = None
        if config.validate:
            prompt = engine.prompt_pass(model, config.layout, pattern, config.st_layer_index,
                                        embeddings, (w,), config.model.num_layers, False,
                                        config.tile_size)
            [[validation]] = engine.validate_cross_layer([prompt], [w], config.clie_layer_index,
                                                         config.n_perm, config.stats_seed)
        prefill_macs = estimate_macs(config.layout, pattern, config.model, "prefill")
        decode_macs = estimate_macs(config.layout, pattern, config.model, "decode",
                                    retained_count=w + h)
        cells.append({
            "policy": kind, "pattern": pattern.describe(), "budget_fraction": budget,
            "sequence_len": l, "recent_window": w, "top_h": h, "retained_per_head": w + h,
            "compression_ratio": float(l / (w + h)),
            "mask_density": mask_density(build_mask(config.layout, pattern)),
            "prefill_macs_total": prefill_macs.total,
            "prefill_macs_attention": prefill_macs.attention,
            "decode_macs_total_per_step": decode_macs.total,
            "decode_macs_attention_per_step": decode_macs.attention,
            "output_divergence_vs_full": divergence, "salient_recall": recall,
            "validation": validation,
        })
    return cells
