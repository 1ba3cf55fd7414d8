"""Engine wiring: prefill/compress/decode vs. cache-free reference forwards."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import purekv.attention
import purekv.engine
from _oracles import brute_force_select, causal_masks, normalize_rows, reference_forward
from purekv.cache import PolicyConfig, baseline_streaming
from purekv.engine import (
    ModelConfig,
    apply_compression,
    decode_step,
    init_model,
    init_session,
    prefill,
    prompt_pass,
    validate_cross_layer,
)
from purekv.errors import ConfigurationError
from purekv.masks import SparsityPattern, TokenLayout, build_mask, parse_pattern
from purekv.numerics import seeded_gaussian
from purekv.stats import spearman_rho


SMALL = ModelConfig(num_layers=4, d_model=32, num_q_heads=4, num_kv_heads=2,
                    d_k=8, d_v=8, vocab_size=40, seed=3)
LAYOUT = TokenLayout(text_prefix_len=2, num_frames=3, patches_per_frame=4, text_suffix_len=2)
PATTERNS = ["dense", "local:3", "atrous:2", "spatial", "temporal", "spatial_temporal"]


def make_policy(kind="pure_kv", budget=1.0, w=4, sink=2, clie=1, st=2):
    return PolicyConfig(policy_kind=kind, budget_fraction=budget, recent_window_w=w,
                        sink_len=sink, clie_layer_index=clie, st_layer_index=st)


def embeddings_for(layout, seed=77):
    return seeded_gaussian(layout.total_len, SMALL.d_model, seed)


def layer_masks_for(layout, pattern, st_layer_index, num_layers):
    """The engine's wiring: dense causal below st_layer_index, the pattern from it up."""
    dense, sparse = build_mask(layout, SparsityPattern.dense()), build_mask(layout, pattern)
    return [dense if i < st_layer_index else sparse for i in range(num_layers)]


def decode_masks(prefill_masks, size):
    """Prefill rows keep their masks; each decode row attends to every earlier row."""
    n = prefill_masks[0].shape[0]
    masks = []
    for mask in prefill_masks:
        grown = np.tril(np.ones((size, size), dtype=bool))
        grown[:n, :n] = mask
        masks.append(grown)
    return masks


def oracle_accumulators(records, config, w):
    """Per layer and KV head, the group mean of A[l-w:, :l-w].sum(0) over its query heads."""
    group = config.group_size
    out = []
    for record in records:
        attn = record["attention"]
        l = attn[0].shape[0]
        out.append([
            np.mean([attn[q_head][l - w:, : l - w].sum(axis=0)
                     for q_head in range(g * group, (g + 1) * group)], axis=0)
            for g in range(config.num_kv_heads)
        ])
    return out


class TestModelInit:
    def test_same_seed_same_logits(self):
        emb = embeddings_for(LAYOUT)
        logits = []
        for _ in range(2):
            model = init_model(SMALL)
            session = init_session(model, LAYOUT, make_policy(), SparsityPattern.dense())
            logits.append(prefill(model, session, emb))
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_project_heads_groups_four_query_heads_per_kv_head(self):
        config = ModelConfig(num_layers=1, d_model=64, num_q_heads=8, num_kv_heads=2,
                             d_k=8, d_v=6, vocab_size=10, seed=0)
        weights = init_model(config).layers[0]
        h = seeded_gaussian(5, config.d_model, 9)
        q, k, v = purekv.engine._project_heads(h, weights, config)
        assert config.group_size == 4
        assert (q.shape, k.shape, v.shape) == ((2, 4, 5, 8), (2, 5, 8), (2, 5, 6))
        for g in range(2):
            for j in range(4):
                head = 4 * g + j
                np.testing.assert_array_equal(q[g, j], (h @ weights.wq)[:, 8 * head: 8 * head + 8])
            np.testing.assert_array_equal(k[g], (h @ weights.wk)[:, 8 * g: 8 * g + 8])
            np.testing.assert_array_equal(v[g], (h @ weights.wv)[:, 6 * g: 6 * g + 6])

    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigurationError, match="divisible"):
            ModelConfig(num_layers=2, d_model=48, num_q_heads=6, num_kv_heads=4,
                        d_k=8, d_v=8, vocab_size=10, seed=0)

    def test_head_packing_enforced(self):
        with pytest.raises(ConfigurationError, match="d_model"):
            ModelConfig(num_layers=2, d_model=60, num_q_heads=8, num_kv_heads=2,
                        d_k=8, d_v=8, vocab_size=10, seed=0)


class TestLayerConstraints:
    def test_st_must_exceed_clie_exhaustive(self):
        for clie in range(8):
            for st in range(8):
                kwargs = dict(policy_kind="pure_kv", budget_fraction=0.5,
                              recent_window_w=4, sink_len=2,
                              clie_layer_index=clie, st_layer_index=st)
                if st <= clie:
                    with pytest.raises(ConfigurationError):
                        PolicyConfig(**kwargs)
                else:
                    PolicyConfig(**kwargs)

    def test_indices_checked_against_model_depth(self):
        model = init_model(SMALL)
        with pytest.raises(ConfigurationError, match="clie_layer_index"):
            init_session(model, LAYOUT, make_policy(clie=4, st=5), SparsityPattern.dense())
        with pytest.raises(ConfigurationError, match="st_layer_index"):
            init_session(model, LAYOUT, make_policy(clie=1, st=5), SparsityPattern.dense())
        # st == num_layers is a legal boundary: no sparse layers at all
        init_session(model, LAYOUT, make_policy(clie=1, st=4), SparsityPattern.spatial())


class TestPrefill:
    def test_full_dense_matches_reference_forward(self):
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT)
        session = init_session(model, LAYOUT, make_policy(), SparsityPattern.dense())
        logits = prefill(model, session, emb)
        expected, _ = reference_forward(
            model, emb, causal_masks(SMALL.num_layers, LAYOUT.total_len)
        )
        np.testing.assert_allclose(logits, expected, atol=1e-9)

    def test_st_at_depth_equals_dense_pipeline(self):
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT)
        out = {}
        for pattern, st in ((SparsityPattern.dense(), 2), (SparsityPattern.spatial(), 4)):
            session = init_session(model, LAYOUT, make_policy(st=st), pattern)
            out[pattern.kind] = prefill(model, session, emb)
        np.testing.assert_array_equal(out["dense"], out["spatial"])

    def test_sparse_prefill_matches_materialized_oracle(self):
        config = ModelConfig(num_layers=8, d_model=32, num_q_heads=4, num_kv_heads=2,
                             d_k=8, d_v=8, vocab_size=40, seed=9)
        layout = TokenLayout(1, 4, 4, 1)
        model = init_model(config)
        emb = seeded_gaussian(layout.total_len, config.d_model, 123)
        pattern = SparsityPattern.spatial_temporal()
        session = init_session(model, layout, make_policy(clie=2, st=4), pattern)
        logits = prefill(model, session, emb)
        expected, _ = reference_forward(model, emb, layer_masks_for(layout, pattern, 4, 8))
        np.testing.assert_allclose(logits, expected, atol=1e-5)

    def test_embedding_shape_validated(self):
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(), SparsityPattern.dense())
        with pytest.raises(ConfigurationError, match="rows"):
            prefill(model, session, np.zeros((3, SMALL.d_model)))
        with pytest.raises(ConfigurationError):
            prefill(model, session, np.zeros((LAYOUT.total_len, 5)))

    def test_importance_recorded_only_at_or_below_clie(self):
        """The pass a session runs for itself holds accumulators for layers 0..clie only."""
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(clie=1, st=3), SparsityPattern.dense())
        prefill(model, session, embeddings_for(LAYOUT))
        assert session.prompt.layers == 2
        assert list(session.prompt.accumulators) == [session.w]
        assert len(session.prompt.accumulators[session.w]) == 2
        for accumulators in session.prompt.accumulators[session.w]:
            assert accumulators.shape == (SMALL.num_kv_heads, LAYOUT.total_len - session.w)
            assert np.all(accumulators >= 0)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_recent_window_slab_matches_instrumented_accumulator(self, pattern):
        """The (w, l) slab on the streamed activations gives the accumulator an
        instrumented reference forward (weights materialized at every layer) gives."""
        model = init_model(SMALL)
        policy = make_policy(budget=0.5, clie=2, st=3)
        parsed = parse_pattern(pattern, LAYOUT)
        session = init_session(model, LAYOUT, policy, parsed)
        emb = embeddings_for(LAYOUT, seed=20)
        prefill(model, session, emb)
        assert 0 < session.w < LAYOUT.total_len
        masks = layer_masks_for(LAYOUT, parsed, policy.st_layer_index, SMALL.num_layers)
        _, records = reference_forward(model, emb, masks, collect_attention=True)
        expected = oracle_accumulators(records, SMALL, session.w)
        for layer in range(policy.clie_layer_index + 1):
            for g in range(SMALL.num_kv_heads):
                np.testing.assert_allclose(session.prompt.accumulators[session.w][layer][g],
                                           expected[layer][g], rtol=0, atol=1e-12)


class TestCompression:
    def test_budget_one_leaves_caches_unchanged(self):
        """At budget one every layer's cache holds every row of the prompt pass."""
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(budget=1.0), SparsityPattern.dense())
        prefill(model, session, embeddings_for(LAYOUT))
        assert_compression_keeps_every_row(session, session.prompt)

    def test_budget_exactness_at_l_200(self):
        layout = TokenLayout(4, 12, 16, 4)
        assert layout.total_len == 200
        model = init_model(SMALL)
        session = init_session(model, layout, make_policy(budget=0.2, w=8),
                               SparsityPattern.dense())
        prefill(model, session, embeddings_for(layout, seed=5))
        apply_compression(model, session)
        for layer in session.cache:
            for g in range(SMALL.num_kv_heads):
                assert layer.rows(g) == 40

    def test_pure_kv_uses_own_scores_below_and_reused_above(self):
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=6)
        policy = make_policy(kind="pure_kv", budget=0.5, w=4, clie=1, st=2)
        session = init_session(model, LAYOUT, policy, SparsityPattern.dense())
        prefill(model, session, emb)
        l = LAYOUT.total_len
        w, h = session.w, session.h
        # independent scoring from a fully materialized reference forward
        _, records = reference_forward(
            model, emb, causal_masks(SMALL.num_layers, l), collect_attention=True
        )
        c_per_layer = oracle_accumulators(records, SMALL, w)
        apply_compression(model, session)
        for layer in range(SMALL.num_layers):
            source = layer if layer <= policy.clie_layer_index else policy.clie_layer_index
            for g in range(SMALL.num_kv_heads):
                norms = np.sqrt((records[layer]["values"][g][: l - w] ** 2).sum(axis=1))
                scores = c_per_layer[source][g] * norms
                expected = brute_force_select(scores.tolist(), w, h, l)
                assert session.cache[layer].positions[g].tolist() == expected
                # decode attends over exactly the rows at those positions
                np.testing.assert_allclose(session.cache[layer].values[g],
                                           records[layer]["values"][g][expected], atol=1e-9)

    def test_h2o_retained_matches_column_sum_ranking(self):
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=8)
        session = init_session(model, LAYOUT, make_policy(kind="h2o_like", budget=0.5),
                               SparsityPattern.dense())
        prefill(model, session, emb)
        l, w, h = LAYOUT.total_len, session.w, session.h
        _, records = reference_forward(
            model, emb, causal_masks(SMALL.num_layers, l), collect_attention=True
        )
        apply_compression(model, session)
        group = SMALL.num_q_heads // SMALL.num_kv_heads
        for layer in range(SMALL.num_layers):
            for g in range(SMALL.num_kv_heads):
                colsum = np.zeros(l)
                for q_head in range(g * group, (g + 1) * group):
                    colsum += np.tril(records[layer]["attention"][q_head]).sum(axis=0)
                scores = (colsum / group)[: l - w]
                expected = brute_force_select(scores.tolist(), w, h, l)
                assert session.cache[layer].positions[g].tolist() == expected

    def test_streaming_like_retains_sink_and_window(self):
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(kind="streaming_like", budget=0.5),
                               SparsityPattern.dense())
        prefill(model, session, embeddings_for(LAYOUT, seed=9))
        apply_compression(model, session)
        l = LAYOUT.total_len
        n_keep = session.w + session.h
        expected = baseline_streaming(l, min(2, n_keep), n_keep - min(2, n_keep)).tolist()
        for layer in range(SMALL.num_layers):
            for g in range(SMALL.num_kv_heads):
                assert session.cache[layer].positions[g].tolist() == expected
                assert len(expected) == n_keep

    def test_double_compression_rejected(self):
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(), SparsityPattern.dense())
        prefill(model, session, embeddings_for(LAYOUT))
        apply_compression(model, session)
        with pytest.raises(ConfigurationError, match="already"):
            apply_compression(model, session)


class TestDecode:
    def test_full_policy_matches_reference_decode(self):
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=11)
        session = init_session(model, LAYOUT, make_policy(), SparsityPattern.dense())
        prefill(model, session, emb)
        apply_compression(model, session)
        extra = seeded_gaussian(6, SMALL.d_model, 12)
        rows = emb
        for step in range(6):
            logits = decode_step(model, session, extra[step])
            rows = np.vstack([rows, extra[step][None, :]])
            expected, _ = reference_forward(
                model, rows, causal_masks(SMALL.num_layers, rows.shape[0])
            )
            np.testing.assert_allclose(logits, expected[-1], atol=1e-9)

    def test_cache_grows_by_one_per_step(self):
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(budget=0.5), SparsityPattern.dense())
        prefill(model, session, embeddings_for(LAYOUT, seed=13))
        apply_compression(model, session)
        base_rows = session.cache[0].rows(0)
        extra = seeded_gaussian(10, SMALL.d_model, 14)
        for step in range(10):
            decode_step(model, session, extra[step])
        for layer in session.cache:
            for g in range(SMALL.num_kv_heads):
                assert layer.rows(g) == base_rows + 10
        assert session.step_count == 10

    def test_decode_requires_compression(self):
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(), SparsityPattern.dense())
        prefill(model, session, embeddings_for(LAYOUT))
        with pytest.raises(ConfigurationError, match="apply_compression"):
            decode_step(model, session, np.zeros(SMALL.d_model))

    def test_decode_rejects_every_shape_but_one_row_before_touching_the_session(self):
        # A (d_model / 8, 8) grid or a (1, 1, d_model) stack holds d_model
        # numbers but is not one token's embedding.
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(budget=0.5), SparsityPattern.spatial())
        prefill(model, session, embeddings_for(LAYOUT, seed=13))
        apply_compression(model, session)
        before = session_snapshot(session)
        d = SMALL.d_model
        for shape in ((d // 8, 8), (1, 1, d), (1, d), (d, 1), (d + 1,), ()):
            with pytest.raises(ConfigurationError,
                               match=rf"token embedding must have length {d}, got shape"):
                decode_step(model, session, np.ones(shape))
            np.testing.assert_equal(session_snapshot(session), before)
        decode_step(model, session, np.ones(d))
        assert session.step_count == 1


class TestGroupedQueryHeads:
    def test_prefill_and_full_decode_match_reference(self):
        # Three query heads per KV head, two KV heads, d_v != d_k, and a
        # sparse mask above st, so the batched streaming call skips work.
        config = ModelConfig(num_layers=4, d_model=30, num_q_heads=6, num_kv_heads=2,
                             d_k=5, d_v=4, vocab_size=20, seed=21)
        assert config.group_size == 3
        layout = TokenLayout(2, 4, 5, 1)
        pattern = SparsityPattern.spatial_temporal()
        model = init_model(config)
        emb = seeded_gaussian(layout.total_len, config.d_model, 22)
        session = init_session(model, layout, make_policy(kind="full", clie=0, st=2),
                               pattern, tile_size=3)
        prefill_masks = layer_masks_for(layout, pattern, 2, config.num_layers)
        expected, _ = reference_forward(model, emb, prefill_masks)
        np.testing.assert_allclose(prefill(model, session, emb), expected, atol=1e-9)

        apply_compression(model, session)
        extra = seeded_gaussian(5, config.d_model, 23)
        rows = emb
        for step in range(5):
            logits = decode_step(model, session, extra[step])
            rows = np.vstack([rows, extra[step][None, :]])
            expected, _ = reference_forward(model, rows, decode_masks(prefill_masks, len(rows)))
            np.testing.assert_allclose(logits, expected[-1], atol=1e-9)


class TestFullCacheIdentity:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_full_prefill_and_decode_match_reference(self, data):
        # Random GQA shapes (d_v may differ from d_k), patterns and sparsity
        # start; decode rows attend to every earlier row.
        kv_heads, group = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        d_k, d_v = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        num_layers = data.draw(st.integers(1, 4))
        config = ModelConfig(num_layers=num_layers, d_model=kv_heads * group * d_k,
                             num_q_heads=kv_heads * group, num_kv_heads=kv_heads,
                             d_k=d_k, d_v=d_v, vocab_size=11, seed=data.draw(st.integers(0, 99)))
        layout = TokenLayout(data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3)),
                             data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2)))
        pattern = parse_pattern(data.draw(st.sampled_from(PATTERNS)), layout)
        sparse_from = data.draw(st.integers(1, num_layers))
        steps = data.draw(st.integers(0, 4))
        model = init_model(config)
        session = init_session(model, layout, make_policy(kind="full", clie=sparse_from - 1,
                                                          st=sparse_from),
                               pattern, tile_size=data.draw(st.integers(1, 8)))
        n = layout.total_len
        rows = seeded_gaussian(n + steps, config.d_model, data.draw(st.integers(0, 99)))
        prefill_masks = layer_masks_for(layout, pattern, sparse_from, num_layers)
        expected, _ = reference_forward(model, rows[:n], prefill_masks)
        np.testing.assert_allclose(prefill(model, session, rows[:n]), expected, atol=1e-9)

        apply_compression(model, session)
        for step in range(1, steps + 1):
            logits = decode_step(model, session, rows[n + step - 1])
            expected, _ = reference_forward(model, rows[:n + step],
                                            decode_masks(prefill_masks, n + step))
            np.testing.assert_allclose(logits, expected[-1], atol=1e-9)


def assert_compression_keeps_every_row(session, prompt):
    """Compress the session and check that its cache is the pass's K/V, row for row."""
    apply_compression(prompt.model, session)
    assert len(session.cache) == len(prompt.keys)
    for layer, kv in enumerate(session.cache):
        keys, values, positions = kv.stacked()
        np.testing.assert_array_equal(keys, prompt.keys[layer])
        np.testing.assert_array_equal(values, prompt.values[layer])
        np.testing.assert_array_equal(positions,
                                      np.broadcast_to(np.arange(session.prefill_len), keys.shape[:2]))


def cache_snapshot(session):
    return [[(layer.keys[g].copy(), layer.values[g].copy(), layer.positions[g].copy())
             for g in range(layer.num_heads)] for layer in session.cache]


def assert_same_cache(before, after):
    assert len(before) == len(after)
    for layer_before, layer_after in zip(before, after):
        for head_before, head_after in zip(layer_before, layer_after):
            for a, b in zip(head_before, head_after):
                np.testing.assert_array_equal(a, b)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_prefill_rejects_before_touching_the_session(self, bad):
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(budget=0.5), SparsityPattern.dense())
        emb = embeddings_for(LAYOUT, seed=31)
        poisoned = emb.copy()
        poisoned[3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            prefill(model, session, poisoned)
        assert session.cache == [] and session.prompt is None
        assert session.prefill_len == 0 and session.w == 0 and session.h == 0

        logits = prefill(model, session, emb)
        fresh = init_session(model, LAYOUT, make_policy(budget=0.5), SparsityPattern.dense())
        np.testing.assert_array_equal(logits, prefill(model, fresh, emb))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_decode_rejects_before_touching_the_session(self, bad):
        model = init_model(SMALL)
        sessions = []
        for _ in range(2):
            session = init_session(model, LAYOUT, make_policy(budget=0.5),
                                   SparsityPattern.spatial())
            prefill(model, session, embeddings_for(LAYOUT, seed=32))
            apply_compression(model, session)
            sessions.append(session)
        session, clean = sessions
        extra = seeded_gaussian(2, SMALL.d_model, 33)
        decode_step(model, session, extra[0])
        decode_step(model, clean, extra[0])
        before = cache_snapshot(session)

        poisoned = extra[1].copy()
        poisoned[0] = bad
        with pytest.raises(ValueError, match="finite"):
            decode_step(model, session, poisoned)
        assert session.step_count == 1
        assert_same_cache(before, cache_snapshot(session))

        np.testing.assert_array_equal(decode_step(model, session, extra[1]),
                                      decode_step(model, clean, extra[1]))
        assert session.step_count == 2


class TestOverflowingInput:
    """RMSNorm squares its input, so rows above about 1e154 would overflow."""

    def test_prefill_rejects_squares_that_overflow_before_touching_the_session(self):
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(budget=0.5), SparsityPattern.dense())
        with pytest.raises(ValueError, match="sum of squares"):
            prefill(model, session, embeddings_for(LAYOUT, seed=31) * 1e160)
        assert session == init_session(model, LAYOUT, make_policy(budget=0.5),
                                       SparsityPattern.dense())

    def test_decode_rejects_squares_that_overflow_before_touching_the_session(self):
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(budget=0.5), SparsityPattern.spatial())
        prefill(model, session, embeddings_for(LAYOUT, seed=32))
        apply_compression(model, session)
        row = seeded_gaussian(1, SMALL.d_model, 33)[0]
        decode_step(model, session, row)
        before = session_snapshot(session)
        with pytest.raises(ValueError, match="sum of squares"):
            decode_step(model, session, row * 1e160)
        np.testing.assert_equal(session_snapshot(session), before)

    def test_large_inputs_below_the_limit_still_run(self):
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(budget=0.5), SparsityPattern.spatial())
        logits = prefill(model, session, embeddings_for(LAYOUT, seed=32) * 1e150)
        apply_compression(model, session)
        step = decode_step(model, session, seeded_gaussian(1, SMALL.d_model, 33)[0] * 1e150)
        for out in (logits, step):
            assert np.isfinite(out).all() and np.abs(out).max() > 0.1


class TestRmsnormBits:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 96), st.integers(-150, 150),
           st.integers(0, 2**32 - 1))
    def test_matches_the_mean_expression_bit_for_bit(self, rows, width, exponent, seed):
        # The example report's bytes rest on _rmsnorm's exact arithmetic.
        x = np.random.default_rng(seed).standard_normal((rows, width)) * 10.0 ** exponent
        np.testing.assert_array_equal(purekv.engine._rmsnorm(x), normalize_rows(x))


class TestFiniteOrRaise:
    """Every session entry point returns finite values, or raises ConfigurationError
    or ValueError and leaves the session as it was, at any input scale."""

    @staticmethod
    def state(session):
        return (session.phase, session.step_count,
                [[kv.rows(g) for g in range(kv.num_heads)] for kv in session.cache])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_entry_points_at_scales_from_1e_minus_300_to_1e300(self, data):
        draw = data.draw
        hkv, group, d_k = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
        num_layers = draw(st.integers(2, 4))
        config = ModelConfig(num_layers, hkv * group * d_k, hkv * group, hkv, d_k,
                             draw(st.integers(1, 4)), draw(st.integers(1, 12)),
                             draw(st.integers(0, 99)))
        frames = draw(st.integers(0, 3))
        layout = TokenLayout(draw(st.integers(0, 3)), frames, draw(st.integers(int(frames > 0), 3)),
                             draw(st.integers(int(frames == 0), 3)))
        clie = draw(st.integers(0, num_layers - 2))
        policy = PolicyConfig(draw(st.sampled_from(["full", "pure_kv", "h2o_like",
                                                    "streaming_like"])),
                              draw(st.sampled_from([1.0, 0.5, 0.2])), draw(st.integers(1, 4)),
                              draw(st.integers(0, 2)), clie,
                              draw(st.integers(clie + 1, num_layers)))
        pattern = parse_pattern(draw(st.sampled_from(PATTERNS)), layout)
        model = init_model(config)
        session = init_session(model, layout, policy, pattern, draw(st.integers(1, 8)))
        scale = st.integers(-300, 300).map(lambda e: 10.0 ** e)
        embeddings = seeded_gaussian(layout.total_len, config.d_model, 5)

        def call(entry, *args):
            before = self.state(session)
            try:
                return entry(model, session, *args)
            except (ConfigurationError, ValueError):
                assert self.state(session) == before
                return None

        logits = call(prefill, embeddings * draw(scale))
        if logits is None:
            logits = call(prefill, embeddings)
        assert logits is not None and np.isfinite(logits).all()
        prompt = session.prompt
        for array in [*prompt.keys, *prompt.values, *(prompt.colsums or ()),
                      *(a for table in prompt.accumulators.values() for a in table or ())]:
            assert np.isfinite(array).all()
        assert call(apply_compression) is session
        for kv in session.cache:
            assert all(np.isfinite(a).all() for a in kv.stacked())
        for row in seeded_gaussian(3, config.d_model, 6):
            step = call(decode_step, row * draw(scale))
            assert step is None or np.isfinite(step).all()


def fail_at_layer_3(monkeypatch):
    """Let layers 0..2 run, then raise at layer 3's streaming_masked call in a
    prompt pass, or its decode call, which comes after its rows are appended."""
    for name in ("streaming_masked", "decode"):
        real, layers_run = getattr(purekv.attention, name), []

        def failing_at_layer_3(*args, real=real, layers_run=layers_run):
            if len(layers_run) == 3:
                raise RuntimeError("injected failure at layer 3")
            layers_run.append(True)
            return real(*args)

        monkeypatch.setattr(purekv.attention, name, failing_at_layer_3)


class TestAllOrNothingDecode:
    def test_failure_at_a_middle_layer_leaves_the_session_unchanged(self, monkeypatch):
        # Layers 0..2 finish and layer 3 appends its row before the step
        # raises; a retry must match a session that never failed.
        model = init_model(SMALL)
        sessions = []
        for _ in range(2):
            session = init_session(model, LAYOUT, make_policy(budget=0.5),
                                   SparsityPattern.spatial())
            prefill(model, session, embeddings_for(LAYOUT, seed=34))
            apply_compression(model, session)
            sessions.append(session)
        session, clean = sessions
        extra = seeded_gaussian(2, SMALL.d_model, 35)
        decode_step(model, session, extra[0])
        decode_step(model, clean, extra[0])
        before = cache_snapshot(session)

        fail_at_layer_3(monkeypatch)
        with pytest.raises(RuntimeError, match="injected"):
            decode_step(model, session, extra[1])
        monkeypatch.undo()
        assert session.step_count == 1
        assert_same_cache(before, cache_snapshot(session))

        np.testing.assert_array_equal(decode_step(model, session, extra[1]),
                                      decode_step(model, clean, extra[1]))
        assert session.step_count == 2
        assert_same_cache(cache_snapshot(clean), cache_snapshot(session))


class TestAllOrNothingPrefill:
    def test_failure_at_a_middle_layer_leaves_the_session_fresh(self, monkeypatch):
        # Layers 0..2 finish and layer 3 projects and records its K/V before
        # prefill raises; the session must still equal a fresh one, and a
        # retry must succeed.
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=36)

        def fresh():
            return init_session(model, LAYOUT, make_policy(budget=0.5), SparsityPattern.spatial())

        session, clean = fresh(), fresh()
        fail_at_layer_3(monkeypatch)
        with pytest.raises(RuntimeError, match="injected"):
            prefill(model, session, emb)
        monkeypatch.undo()
        assert session == fresh()

        np.testing.assert_array_equal(prefill(model, session, emb), prefill(model, clean, emb))
        assert_same_cache(cache_snapshot(clean), cache_snapshot(session))
        apply_compression(model, session)
        apply_compression(model, clean)
        assert_same_cache(cache_snapshot(clean), cache_snapshot(session))


def session_in(model, phase):
    session = init_session(model, LAYOUT, make_policy(budget=0.5), SparsityPattern.dense())
    if phase != "new":
        prefill(model, session, embeddings_for(LAYOUT))
    if phase == "compressed":
        apply_compression(model, session)
    assert session.phase == phase
    return session


def session_snapshot(session):
    """The session's fields, with the pass it holds by identity and its cache by value."""
    return [session.phase, session.step_count, session.w, session.h, session.prefill_len,
            id(session.prompt), cache_snapshot(session)]


class TestSessionPhase:
    def test_phases_in_order(self):
        model = init_model(SMALL)
        session = session_in(model, "new")
        prefill(model, session, embeddings_for(LAYOUT))
        assert session.phase == "prefilled"
        apply_compression(model, session)
        assert session.phase == "compressed"
        decode_step(model, session, np.ones(SMALL.d_model))
        assert session.phase == "compressed" and session.step_count == 1

    @pytest.mark.parametrize("entry, phase, message", [
        ("prefill", "prefilled", "already prefilled"),
        ("prefill", "compressed", "already prefilled"),
        ("apply_compression", "new", "requires a completed prefill"),
        ("apply_compression", "compressed", "already applied"),
        ("decode_step", "new", "requires apply_compression"),
        ("decode_step", "prefilled", "requires apply_compression"),
    ])
    def test_wrong_phase_raises_and_changes_nothing(self, entry, phase, message):
        model = init_model(SMALL)
        session = session_in(model, phase)
        before = session_snapshot(session)
        args = {"prefill": (embeddings_for(LAYOUT),),
                "decode_step": (np.ones(SMALL.d_model),)}.get(entry, ())
        with pytest.raises(ConfigurationError, match=message):
            getattr(purekv.engine, entry)(model, session, *args)
        np.testing.assert_equal(session_snapshot(session), before)

    def test_failed_compression_leaves_the_session_prefilled(self, monkeypatch):
        model = init_model(SMALL)
        session, clean = session_in(model, "prefilled"), session_in(model, "prefilled")
        before = session_snapshot(session)
        real_evict, calls = purekv.engine.evict, []

        def evict_until_layer_2(keys, values, retained):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("injected")
            return real_evict(keys, values, retained)

        monkeypatch.setattr(purekv.engine, "evict", evict_until_layer_2)
        with pytest.raises(RuntimeError, match="injected"):
            apply_compression(model, session)
        monkeypatch.undo()
        np.testing.assert_equal(session_snapshot(session), before)
        apply_compression(model, session)
        apply_compression(model, clean)
        np.testing.assert_equal(session_snapshot(session), session_snapshot(clean))


class TestValidation:
    def test_reported_rho_matches_reference_forward_scores(self):
        # Estimate: the analysis layer's accumulator times this layer's value
        # norms; truth: this layer's own accumulator times the same norms.
        model = init_model(SMALL)
        pattern = SparsityPattern.spatial_temporal()
        emb = embeddings_for(LAYOUT, seed=16)
        l, w = LAYOUT.total_len, 4
        prompt = prompt_pass(model, LAYOUT, pattern, 2, emb, (w,), SMALL.num_layers)
        masks = layer_masks_for(LAYOUT, pattern, 2, SMALL.num_layers)
        _, records = reference_forward(model, emb, masks, collect_attention=True)
        accumulators = oracle_accumulators(records, SMALL, w)
        for analysis in (1, 2):
            report = validate_cross_layer([prompt], w, analysis, n_perm=199, seed=1)[0]
            assert report["analysis_layer"] == analysis
            assert ([entry["layer"] for entry in report["per_layer"]]
                    == list(range(analysis + 1, SMALL.num_layers)))
            for entry in report["per_layer"]:
                layer = entry["layer"]
                assert [head["head"] for head in entry["heads"]] == list(range(SMALL.num_kv_heads))
                for head in entry["heads"]:
                    g = head["head"]
                    norms = np.sqrt((records[layer]["values"][g][: l - w] ** 2).sum(axis=1))
                    estimate = accumulators[analysis][g] * norms
                    truth = accumulators[layer][g] * norms
                    assert head["rho"] == pytest.approx(spearman_rho(estimate, truth), abs=1e-12)

    def test_identical_score_vectors_correlate_perfectly(self):
        scores = np.array([0.3, 0.9, 0.1, 0.5])
        assert spearman_rho(scores, scores) == pytest.approx(1.0, abs=1e-12)

    def test_planted_workload_median_rho_positive(self):
        from purekv.harness import WorkloadSpec, generate_workload
        config = ModelConfig(num_layers=6, d_model=32, num_q_heads=4, num_kv_heads=2,
                             d_k=8, d_v=8, vocab_size=40, seed=21)
        layout = TokenLayout(2, 4, 8, 2)
        spec = WorkloadSpec(layout=layout, num_salient=4, salient_gain=4.0, seed=22)
        emb, _ = generate_workload(spec, config.d_model)
        model = init_model(config)
        prompt = prompt_pass(model, layout, SparsityPattern.spatial_temporal(), 2, emb, (6,),
                             config.num_layers)
        report = validate_cross_layer([prompt], 6, 1, n_perm=199, seed=2)[0]
        assert report["median_rho"] > 0

    def test_rejects_an_analysis_layer_with_no_layer_above(self, monkeypatch):
        """Raised before any statistic is computed."""
        model = init_model(SMALL)
        prompt = prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, embeddings_for(LAYOUT),
                             (4,), SMALL.num_layers)
        monkeypatch.setattr(purekv.stats, "rank", None)
        for analysis, message in ((SMALL.num_layers - 1, "no layers above"),
                                  (SMALL.num_layers, "out of range"), (-1, "out of range")):
            with pytest.raises(ConfigurationError, match=message):
                validate_cross_layer([prompt], 4, analysis, n_perm=199, seed=0)

    def test_one_call_for_several_passes_equals_one_call_per_pass(self):
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=18)
        passes = [prompt_pass(model, LAYOUT, parse_pattern(text, LAYOUT), 2, emb, (4,),
                              SMALL.num_layers) for text in ("dense", "spatial", "temporal")]
        together = validate_cross_layer(passes, 4, 1, n_perm=199, seed=5)
        assert together == [validate_cross_layer([p], 4, 1, n_perm=199, seed=5)[0]
                            for p in passes]
        assert together[0] != together[1]

    def test_rejects_passes_it_cannot_validate_together(self):
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=18)
        prompt = prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, emb, (4,),
                             SMALL.num_layers)
        other_model = prompt_pass(init_model(SMALL), LAYOUT, SparsityPattern.dense(), 2, emb,
                                  (4,), SMALL.num_layers)
        longer = TokenLayout(2, 4, 4, 2)
        other_layout = prompt_pass(model, longer, SparsityPattern.dense(), 2,
                                   embeddings_for(longer), (4,), SMALL.num_layers)
        for passes in ([prompt, other_model], [prompt, other_layout]):
            with pytest.raises(ConfigurationError, match="one model and layout"):
                validate_cross_layer(passes, 4, 1, n_perm=199)
        with pytest.raises(ConfigurationError, match="at least one"):
            validate_cross_layer([], 4, 1, n_perm=199)

    def test_requires_nonrecent_segment(self):
        model = init_model(SMALL)
        tiny = TokenLayout(0, 1, 3, 0)
        prompt = prompt_pass(model, tiny, SparsityPattern.dense(), 2,
                             embeddings_for(tiny, seed=17), (8,), SMALL.num_layers)
        with pytest.raises(ConfigurationError, match="l > w"):
            validate_cross_layer([prompt], 8, 1, n_perm=199, seed=0)

    def test_rejects_fewer_than_three_nonrecent_keys_before_scoring(self, monkeypatch):
        """At l - w of 1 or 2 the permutation test is undefined; validation
        raises before it scores a layer or computes a statistic. The rank
        spy stands where a spearman_rho spy stood: the observed rho now
        comes from the permutation test's own ranks, so validation ranks
        each (estimate, truth) pair once, two rank calls per KV head."""
        model = init_model(SMALL)
        l = LAYOUT.total_len
        windows = (l - 1, l - 2, l - 3)
        prompt = prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, embeddings_for(LAYOUT),
                             windows, SMALL.num_layers)
        calls = []
        for owner, name in ((purekv.engine, "score_low"), (purekv.stats, "rank"),
                            (purekv.stats, "permutation_pvalue")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, real=real, name=name, **k:
                                calls.append(name) or real(*a, **k))
        for w in windows[:2]:
            with pytest.raises(ConfigurationError, match=f"l > w \\+ 2, got l={l}, w={w}"):
                validate_cross_layer([prompt], w, 1, n_perm=100, seed=0)
        assert calls == []
        validate_cross_layer([prompt], l - 3, 1, n_perm=100, seed=0)
        assert {"score_low", "rank", "permutation_pvalue"} <= set(calls)
        assert calls.count("rank") == 2 * (SMALL.num_layers - 2) * SMALL.num_kv_heads


class TestStreamingCompatibilityContract:
    def test_no_materialized_attention_above_clie(self, monkeypatch):
        """Audit: the production path calls masked() once per layer <= clie,
        and decode never calls it at all."""
        calls = []
        real_masked = purekv.attention.masked

        def spy(q, k, v, mask):
            calls.append(q.shape)
            return real_masked(q, k, v, mask)

        monkeypatch.setattr(purekv.attention, "masked", spy)
        model = init_model(SMALL)
        policy = make_policy(kind="pure_kv", budget=0.5, clie=1, st=2)
        session = init_session(model, LAYOUT, policy, SparsityPattern.spatial())
        prefill(model, session, embeddings_for(LAYOUT, seed=18))
        prefill_calls = len(calls)
        assert prefill_calls == policy.clie_layer_index + 1
        assert all(shape[:2] == (SMALL.num_kv_heads, SMALL.group_size) for shape in calls)

        apply_compression(model, session)
        compression_calls = len(calls) - prefill_calls
        assert compression_calls == 0  # pure_kv reuses recorded accumulators

        decode_step(model, session, np.zeros(SMALL.d_model))
        assert len(calls) == prefill_calls  # decode is streaming-only

    def test_a_prompt_pass_builds_one_tile_plan_per_distinct_mask(self, monkeypatch):
        """Not one per layer: the dense mask's plan serves layers below
        st_layer_index and the pattern's every layer from it on, in the
        streamed call and, as its mask, in the estimation-layer slab."""
        built, streamed, slabs = [], [], []
        real_plan, real_streaming = purekv.attention.TilePlan, purekv.attention.streaming_masked
        real_masked = purekv.attention.masked

        class PlanSpy(real_plan):
            def __init__(self, mask, tile_size):
                super().__init__(mask, tile_size)
                built.append(self)

        def streaming_spy(q, k, v, plan):
            streamed.append(plan)
            return real_streaming(q, k, v, plan)

        def masked_spy(q, k, v, mask):
            slabs.append(mask)
            return real_masked(q, k, v, mask)

        monkeypatch.setattr(purekv.attention, "TilePlan", PlanSpy)
        monkeypatch.setattr(purekv.attention, "streaming_masked", streaming_spy)
        monkeypatch.setattr(purekv.attention, "masked", masked_spy)
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=25)
        layers = SMALL.num_layers
        for pattern, st, plans in ((SparsityPattern.spatial_temporal(), 2, 2),
                                   (SparsityPattern.spatial_temporal(), layers, 1),
                                   (SparsityPattern.dense(), 2, 1)):
            built.clear(), streamed.clear(), slabs.clear()
            prompt_pass(model, LAYOUT, pattern, st, emb, (4,), layers, tile_size=3)
            assert len(built) == plans and all(plan.tile_size == 3 for plan in built)
            assert streamed == [built[0]] * min(st, layers) + [built[-1]] * (layers - st)
            assert all(slab.base is plan.mask for slab, plan in zip(slabs, streamed))
        np.testing.assert_array_equal(built[0].mask, build_mask(LAYOUT, pattern))

    def test_prefill_materializes_only_the_recent_window(self, monkeypatch):
        """Audit: every masked() call prefill makes has at most w query rows;
        an h2o_like prefill streams its column sums through one column_mass()
        call per layer for all query heads, and compression then calls
        neither kernel."""
        rows, mass_calls = [], []
        real_masked, real_mass = purekv.attention.masked, purekv.attention.column_mass

        def spy(q, k, v, mask):
            rows.append(q.shape[-2])
            return real_masked(q, k, v, mask)

        def mass_spy(q, k, v, plan):
            mass_calls.append(q.shape)
            return real_mass(q, k, v, plan)

        monkeypatch.setattr(purekv.attention, "masked", spy)
        monkeypatch.setattr(purekv.attention, "column_mass", mass_spy)
        model = init_model(SMALL)
        policy = make_policy(kind="h2o_like", budget=0.5, clie=1, st=2)
        session = init_session(model, LAYOUT, policy, SparsityPattern.spatial_temporal())
        prefill(model, session, embeddings_for(LAYOUT, seed=19))
        prefill_rows = list(rows)
        assert 0 < session.w < LAYOUT.total_len
        assert len(prefill_rows) == policy.clie_layer_index + 1
        assert all(r <= session.w for r in prefill_rows)
        assert mass_calls == [
            (SMALL.num_kv_heads, SMALL.group_size, LAYOUT.total_len, SMALL.d_k)
        ] * SMALL.num_layers

        apply_compression(model, session)
        assert rows == prefill_rows
        assert len(mass_calls) == SMALL.num_layers

    def test_validation_materializes_only_the_recent_window(self, monkeypatch):
        """Audit: a pass over every layer reads each layer's (w_max, l) slab,
        never all l rows, and validating it calls no attention kernel."""
        model = init_model(SMALL)
        windows = (2, 4)
        rows = []
        real_masked = purekv.attention.masked

        def spy(q, k, v, mask):
            rows.append(q.shape[-2])
            return real_masked(q, k, v, mask)

        monkeypatch.setattr(purekv.attention, "masked", spy)
        prompt = prompt_pass(model, LAYOUT, SparsityPattern.spatial_temporal(), 2,
                             embeddings_for(LAYOUT, seed=24), windows, SMALL.num_layers)
        assert len(rows) == SMALL.num_layers
        assert all(r <= max(windows) for r in rows)

        def forbidden(*args, **kwargs):
            raise AssertionError("validation ran attention or a forward")

        for name in ("masked", "streaming_masked", "column_mass", "decode"):
            monkeypatch.setattr(purekv.attention, name, forbidden)
        monkeypatch.setattr(purekv.engine, "prompt_pass", forbidden)
        for w in windows:
            validate_cross_layer([prompt], w, 1, n_perm=199, seed=0)

    def test_h2o_at_full_budget_skips_the_instrumented_pass(self, monkeypatch):
        """Audit: with nothing to evict, h2o_like compression materializes no
        weights and keeps every row of the pass."""
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(kind="h2o_like", budget=1.0),
                               SparsityPattern.spatial())
        prefill(model, session, embeddings_for(LAYOUT, seed=25))
        assert session.w < LAYOUT.total_len
        prompt = session.prompt
        calls = []
        real_masked = purekv.attention.masked

        def spy(q, k, v, mask):
            calls.append(q.shape)
            return real_masked(q, k, v, mask)

        monkeypatch.setattr(purekv.attention, "masked", spy)
        assert_compression_keeps_every_row(session, prompt)
        assert calls == []
        assert session.phase == "compressed"

    def test_streaming_interface_returns_no_matrix(self):
        import inspect
        sig = inspect.signature(purekv.attention.streaming_masked)
        assert list(sig.parameters) == ["q", "k", "v", "plan"]  # the plan carries its tile size
        rng = np.random.default_rng(0)
        plan = purekv.attention.TilePlan(np.tril(np.ones((2, 2), dtype=bool)))
        out = purekv.attention.streaming_masked(
            rng.standard_normal((2, 3)), rng.standard_normal((2, 3)),
            rng.standard_normal((2, 2)), plan
        )
        assert isinstance(out, np.ndarray) and out.shape == (2, 2)


def adopted_state(session, logits):
    """Everything prefill and compression leave in a session, with the cache's committed buffers."""
    cache = [tuple(a.copy() for a in layer.stacked()) for layer in session.cache]
    return [session.phase, session.w, session.h, session.prefill_len, logits, cache,
            session.prompt is None]


class TestPromptPass:
    @pytest.fixture(scope="class")
    def example(self):
        from purekv.harness import generate_workload, load_config
        config = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "example.json"))
        model = init_model(config.model)
        embeddings, _ = generate_workload(config.workload, config.model.d_model)
        return config, model, embeddings

    def test_shared_pass_prefill_equals_prefill_from_embeddings(self, example):
        """Every (policy, budget) of the example grid on both patterns: a session
        adopting the pattern's shared pass (every window, every layer, column
        sums) compresses bit for bit to what a pass of its own gives."""
        config, model, embeddings = example
        l = config.layout.total_len
        windows = {purekv.engine.budget_to_wh(b, l, config.recent_window_w)[0]
                   for b in config.budgets + (1.0,)}
        assert len(windows) > 1  # the shared slab serves windows shorter than itself
        for text in config.patterns:
            pattern = parse_pattern(text, config.layout)
            shared = prompt_pass(model, config.layout, pattern, config.st_layer_index, embeddings,
                                 windows, config.model.num_layers, True, config.tile_size)
            for kind in config.policies:
                for budget in (1.0,) if kind == "full" else config.budgets:
                    states = []
                    for source in (shared, embeddings):
                        session = init_session(model, config.layout, config.policy(kind, budget),
                                               pattern, config.tile_size)
                        logits = prefill(model, session, source)
                        apply_compression(model, session)
                        states.append(adopted_state(session, logits))
                    np.testing.assert_equal(states[0], states[1])

    def test_sessions_own_their_cache_and_logits(self):
        model = init_model(SMALL)
        shared = prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, embeddings_for(LAYOUT),
                             (4,), 2)
        sessions = [init_session(model, LAYOUT, make_policy(budget=0.5), SparsityPattern.dense())
                    for _ in range(2)]
        logits = [prefill(model, session, shared) for session in sessions]
        logits[0][:] = 0.0
        np.testing.assert_array_equal(logits[1], shared.logits)
        for session in sessions:
            apply_compression(model, session)
        before = cache_snapshot(sessions[1])
        decode_step(model, sessions[0], np.ones(SMALL.d_model))
        sessions[0].cache[0].keys[0][:] = 0.0
        assert_same_cache(before, cache_snapshot(sessions[1]))
        kept = sessions[1].cache[0]
        assert kept.rows(0) == sessions[0].cache[0].rows(0) - 1 < LAYOUT.total_len
        np.testing.assert_array_equal(kept.keys[0], shared.keys[0][0][kept.positions[0]])

    def test_prefill_from_a_shared_pass_copies_nothing(self, monkeypatch):
        """The session holds the shared pass itself and builds no cache layer
        until compression, which then builds one per layer."""
        model = init_model(SMALL)
        shared = prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, embeddings_for(LAYOUT),
                             (4,), 2)
        session = init_session(model, LAYOUT, make_policy(budget=0.5), SparsityPattern.dense())
        built = []
        real_own = purekv.cache.KvCacheLayer._own

        def counting_own(self, *args):  # every cache layer, copied or adopted, is built here
            built.append(1)
            real_own(self, *args)

        monkeypatch.setattr(purekv.cache.KvCacheLayer, "_own", counting_own)
        prefill(model, session, shared)
        assert session.prompt is shared and session.cache == [] and built == []
        apply_compression(model, session)
        assert len(built) == len(session.cache) == SMALL.num_layers
        assert session.prompt is None

    @pytest.mark.parametrize("change, kind, message", [
        ("model", "pure_kv", "model"),
        ("layout", "pure_kv", "layout"),
        ("pattern", "pure_kv", "pattern"),
        ("st_layer_index", "pure_kv", "st_layer_index"),
        ("tile_size", "pure_kv", "tile_size"),
        ("window", "pure_kv", "window 4"),
        ("clie_layer_index", "pure_kv", "layers 0..2"),
        ("column_sums", "h2o_like", "column sums"),
    ])
    def test_a_pass_that_does_not_cover_the_session_is_rejected(self, change, kind, message):
        """The session is still new after the rejection, and prefills from a pass that covers it."""
        model = init_model(SMALL)
        policy = make_policy(kind=kind, budget=0.5, clie=2 if change == "clie_layer_index" else 1,
                             st=3)
        session = init_session(model, LAYOUT, policy, SparsityPattern.spatial(), tile_size=4)
        args = dict(model=model, layout=LAYOUT, pattern=SparsityPattern.spatial(),
                    st_layer_index=3, token_embeddings=embeddings_for(LAYOUT), windows=(4,),
                    layers=2, column_sums=kind == "h2o_like", tile_size=4)
        bad = dict(args)
        if change == "model":
            bad["model"] = init_model(SMALL)
        elif change == "layout":
            bad["layout"] = TokenLayout(2, 4, 3, 2)  # as many tokens, other frames
            assert bad["layout"].total_len == LAYOUT.total_len
        elif change == "pattern":
            bad["pattern"] = SparsityPattern.temporal()
        elif change in ("st_layer_index", "tile_size"):
            bad[change] = 2
        elif change == "window":
            bad["windows"] = (3, 5)
        elif change == "column_sums":
            bad["column_sums"] = False
        before = session_snapshot(session)
        with pytest.raises(ConfigurationError, match=message):
            prefill(model, session, prompt_pass(**bad))
        assert session.phase == "new"
        np.testing.assert_equal(session_snapshot(session), before)
        if change == "clie_layer_index":
            args["layers"] = 3
        prefill(model, session, prompt_pass(**args))
        assert session.phase == "prefilled"

    def test_prefill_from_embeddings_runs_no_more_than_its_session_needs(self, monkeypatch):
        """Column sums only for h2o_like, accumulators only up to clie and only
        for the session's own window; the session keeps that pass until compression."""
        model = init_model(SMALL)
        passes = []
        real_pass = purekv.engine.prompt_pass

        def spy(*args):
            passes.append(real_pass(*args))
            return passes[-1]

        monkeypatch.setattr(purekv.engine, "prompt_pass", spy)
        for kind in ("pure_kv", "h2o_like", "streaming_like", "full"):
            session = init_session(model, LAYOUT, make_policy(kind=kind, budget=0.5, clie=1, st=2),
                                   SparsityPattern.spatial())
            prefill(model, session, embeddings_for(LAYOUT))
            made = passes[-1]
            assert (made.colsums is not None) == (kind == "h2o_like")
            assert list(made.accumulators) == [session.w] and made.layers == 2
            assert len(made.accumulators[session.w]) == 2
            assert session.prompt is made

    def test_prefill_from_embeddings_keeps_no_pass(self, monkeypatch):
        """The session holds its private pass until compression; once
        apply_compression returns, nothing does, so the retained rows exist
        only as the session's cache."""
        import weakref
        refs = []
        real_pass = purekv.engine.prompt_pass

        def spy(*args):
            made = real_pass(*args)
            refs.append(weakref.ref(made))
            return made

        monkeypatch.setattr(purekv.engine, "prompt_pass", spy)
        model = init_model(SMALL)
        for kind in ("pure_kv", "h2o_like", "streaming_like", "full"):
            session = init_session(model, LAYOUT, make_policy(kind=kind, budget=0.5),
                                   SparsityPattern.spatial())
            prefill(model, session, embeddings_for(LAYOUT))
            assert refs[-1]() is session.prompt
            apply_compression(model, session)
            assert session.prompt is None and refs[-1]() is None
        assert len(refs) == 4

    def test_validation_reads_the_pass_and_runs_no_forward(self, monkeypatch):
        """Sessions that adopt, compress and decode from a pass leave it as it
        was: validating it afterwards equals validating a fresh pass."""
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=26)

        def make_pass():
            return prompt_pass(model, LAYOUT, SparsityPattern.spatial_temporal(), 2, emb, (4,),
                               SMALL.num_layers, True)

        expected = validate_cross_layer([make_pass()], 4, 1, n_perm=199, seed=3)[0]
        shared = make_pass()
        for kind in ("pure_kv", "h2o_like"):
            session = init_session(model, LAYOUT, make_policy(kind=kind, budget=0.5, clie=1, st=2),
                                   SparsityPattern.spatial_temporal())
            prefill(model, session, shared)
            apply_compression(model, session)
            decode_step(model, session, np.ones(SMALL.d_model))
        forwards = []
        real_pass = purekv.engine.prompt_pass
        monkeypatch.setattr(purekv.engine, "prompt_pass",
                            lambda *args: forwards.append(1) or real_pass(*args))
        assert validate_cross_layer([shared], 4, 1, n_perm=199, seed=3)[0] == expected
        assert forwards == []

    def test_validation_rejects_a_pass_it_cannot_read(self):
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=27)
        partial = prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, emb, (4,), 2)
        with pytest.raises(ConfigurationError, match="layers 0..3"):
            validate_cross_layer([partial], 4, 1, n_perm=199)
        full = prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, emb, (4,), SMALL.num_layers)
        with pytest.raises(ConfigurationError, match="window 3"):
            validate_cross_layer([full], 3, 1, n_perm=199)

    def test_a_shared_pass_cannot_be_written_through_a_session(self, example):
        """Writing the pass a session holds raises, and a sibling session still
        keeps what it would keep from a pass of its own. The caller's
        embeddings are read, not copied, and stay writable."""
        config, model, embeddings = example
        l, dense = config.layout.total_len, SparsityPattern.dense()
        windows = {purekv.engine.budget_to_wh(b, l, config.recent_window_w)[0]
                   for b in config.budgets + (1.0,)}
        shared = prompt_pass(model, config.layout, dense, config.st_layer_index, embeddings,
                             windows, config.model.num_layers, True, config.tile_size)
        sessions = []
        for source in (shared, shared, embeddings):
            sessions.append(init_session(model, config.layout, config.policy("h2o_like", 0.2),
                                         dense, config.tile_size))
            prefill(model, sessions[-1], source)
        a, b, own = sessions
        assert a.prompt is shared and embeddings.flags.writeable
        for array in (shared.colsums[5], shared.keys[5], shared.values[5], shared.logits,
                      shared.accumulators[a.w][0]):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 0
        for session in (b, own):
            apply_compression(model, session)
        for layer in range(config.model.num_layers):
            np.testing.assert_array_equal(b.cache[layer].stacked()[2],
                                          own.cache[layer].stacked()[2])


class TestValidationWindows:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=4), st.integers(1, 13),
           st.integers(0, 2))
    def test_other_windows_in_the_pass_do_not_change_the_result(self, others, w, analysis):
        """Validating window w is bit-identical whatever other windows the pass holds."""
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=29)

        def validate(windows):
            prompt = prompt_pass(model, LAYOUT, SparsityPattern.spatial_temporal(), 2, emb,
                                 windows, SMALL.num_layers)
            return validate_cross_layer([prompt], w, analysis, n_perm=100, seed=4)[0]

        assert validate((w,)) == validate(tuple(others) + (w,))
