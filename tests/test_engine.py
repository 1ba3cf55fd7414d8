"""Engine wiring: prefill/compress/decode vs. cache-free reference forwards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import purekv.attention
import purekv.engine
from _oracles import brute_force_select, causal_masks, reference_forward
from purekv.cache import PolicyConfig, baseline_streaming
from purekv.engine import (
    ModelConfig,
    apply_compression,
    decode_step,
    init_model,
    init_session,
    prefill,
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
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(clie=1, st=3), SparsityPattern.dense())
        prefill(model, session, embeddings_for(LAYOUT))
        assert session.importance[0] is not None
        assert session.importance[1] is not None
        assert session.importance[2] is None
        assert session.importance[3] is None
        for accumulators in session.importance[:2]:
            assert len(accumulators) == SMALL.num_kv_heads
            for c in accumulators:
                assert c.size == LAYOUT.total_len - session.w
                assert np.all(c >= 0)

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
                np.testing.assert_allclose(session.importance[layer][g],
                                           expected[layer][g], rtol=0, atol=1e-12)


class TestCompression:
    def test_budget_one_leaves_caches_unchanged(self):
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(budget=1.0), SparsityPattern.dense())
        prefill(model, session, embeddings_for(LAYOUT))
        before = [layer.keys[0].copy() for layer in session.cache]
        apply_compression(model, session)
        for layer, keys in zip(session.cache, before):
            np.testing.assert_array_equal(layer.keys[0], keys)

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
        assert session.cache == [] and session.importance == []
        assert session.prefill_len == 0 and session.w == 0 and session.h == 0
        assert session.prefill_embeddings is None

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


def fail_at_layer_3(monkeypatch):
    """Let engine._block run layers 0..2, then attend at layer 3 and raise."""
    real_block = purekv.engine._block
    layers_run = []

    def block_failing_at_layer_3(x, weights, config, attend):
        if len(layers_run) < 3:
            layers_run.append(True)
            return real_block(x, weights, config, attend)

        def attend_then_fail(q, k, v):
            attend(q, k, v)
            raise RuntimeError("injected failure at layer 3")

        return real_block(x, weights, config, attend_then_fail)

    monkeypatch.setattr(purekv.engine, "_block", block_failing_at_layer_3)


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
        # Layers 0..2 finish and layer 3 attends before prefill raises; the
        # session must still equal a fresh one, and a retry must succeed.
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


class TestValidation:
    def test_reported_rho_matches_reference_forward_scores(self):
        # Estimate: the analysis layer's accumulator times this layer's value
        # norms; truth: this layer's own accumulator times the same norms.
        model = init_model(SMALL)
        policy = make_policy(clie=1, st=2)
        pattern = SparsityPattern.spatial_temporal()
        session = init_session(model, LAYOUT, policy, pattern)
        emb = embeddings_for(LAYOUT, seed=16)
        prefill(model, session, emb)
        l, w = LAYOUT.total_len, session.w
        masks = layer_masks_for(LAYOUT, pattern, policy.st_layer_index, SMALL.num_layers)
        _, records = reference_forward(model, emb, masks, collect_attention=True)
        accumulators = oracle_accumulators(records, SMALL, w)
        for analysis in (1, 2):
            report = validate_cross_layer(model, session, analysis_layer=analysis,
                                          n_perm=199, seed=1)
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
        session = init_session(model, layout, make_policy(clie=1, st=2, w=6),
                               SparsityPattern.spatial_temporal())
        prefill(model, session, emb)
        report = validate_cross_layer(model, session, n_perm=199, seed=2)
        assert report["median_rho"] > 0

    def test_requires_a_prefilled_session_before_any_other_check(self):
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(), SparsityPattern.dense())
        for analysis in (None, SMALL.num_layers - 1, SMALL.num_layers):
            with pytest.raises(ConfigurationError, match="requires a completed prefill"):
                validate_cross_layer(model, session, analysis_layer=analysis, n_perm=199, seed=0)

    def test_requires_nonrecent_segment(self):
        model = init_model(SMALL)
        tiny = TokenLayout(0, 1, 3, 0)
        session = init_session(model, tiny, make_policy(w=8), SparsityPattern.dense())
        prefill(model, session, embeddings_for(tiny, seed=17))
        with pytest.raises(ConfigurationError, match="l > w"):
            validate_cross_layer(model, session, n_perm=199, seed=0)


class TestStreamingCompatibilityContract:
    def test_no_materialized_attention_above_clie(self, monkeypatch):
        """Audit: the production path calls masked() only for layers <= clie,
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
        assert prefill_calls == (policy.clie_layer_index + 1) * SMALL.num_q_heads

        apply_compression(model, session)
        compression_calls = len(calls) - prefill_calls
        assert compression_calls == 0  # pure_kv reuses recorded accumulators

        decode_step(model, session, np.zeros(SMALL.d_model))
        assert len(calls) == prefill_calls  # decode is streaming-only

    def test_prefill_materializes_only_the_recent_window(self, monkeypatch):
        """Audit: every masked() call prefill makes has at most w query rows;
        only the instrumentation pass (here for h2o_like) passes all l rows."""
        rows = []
        real_masked = purekv.attention.masked

        def spy(q, k, v, mask):
            rows.append(q.shape[0])
            return real_masked(q, k, v, mask)

        monkeypatch.setattr(purekv.attention, "masked", spy)
        model = init_model(SMALL)
        policy = make_policy(kind="h2o_like", budget=0.5, clie=1, st=2)
        session = init_session(model, LAYOUT, policy, SparsityPattern.spatial_temporal())
        prefill(model, session, embeddings_for(LAYOUT, seed=19))
        prefill_rows = list(rows)
        assert 0 < session.w < LAYOUT.total_len
        assert len(prefill_rows) == (policy.clie_layer_index + 1) * SMALL.num_q_heads
        assert all(r <= session.w for r in prefill_rows)

        apply_compression(model, session)
        assert rows[len(prefill_rows):] == (
            [LAYOUT.total_len] * SMALL.num_layers * SMALL.num_q_heads
        )

    def test_validation_materializes_only_the_recent_window(self, monkeypatch):
        """Audit: validation reads each layer's (w, l) slab, never all l rows."""
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(budget=0.5, clie=1, st=2),
                               SparsityPattern.spatial_temporal())
        prefill(model, session, embeddings_for(LAYOUT, seed=24))
        assert 0 < session.w < LAYOUT.total_len
        rows = []
        real_masked = purekv.attention.masked

        def spy(q, k, v, mask):
            rows.append(q.shape[0])
            return real_masked(q, k, v, mask)

        monkeypatch.setattr(purekv.attention, "masked", spy)
        validate_cross_layer(model, session, n_perm=199, seed=0)
        assert len(rows) == SMALL.num_layers * SMALL.num_q_heads
        assert all(r <= session.w for r in rows)

    def test_h2o_at_full_budget_skips_the_instrumented_pass(self, monkeypatch):
        """Audit: with nothing to evict, h2o_like materializes no weights and
        leaves the cache as prefill wrote it."""
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(kind="h2o_like", budget=1.0),
                               SparsityPattern.spatial())
        prefill(model, session, embeddings_for(LAYOUT, seed=25))
        assert session.w < LAYOUT.total_len
        before = cache_snapshot(session)
        calls = []
        real_masked = purekv.attention.masked

        def spy(q, k, v, mask):
            calls.append(q.shape)
            return real_masked(q, k, v, mask)

        monkeypatch.setattr(purekv.attention, "masked", spy)
        apply_compression(model, session)
        assert calls == []
        assert session.compressed
        assert_same_cache(before, cache_snapshot(session))

    def test_streaming_interface_returns_no_matrix(self):
        import inspect
        sig = inspect.signature(purekv.attention.streaming_masked)
        assert "tile_size" in sig.parameters
        rng = np.random.default_rng(0)
        out = purekv.attention.streaming_masked(
            rng.standard_normal((2, 3)), rng.standard_normal((2, 3)),
            rng.standard_normal((2, 2)), np.tril(np.ones((2, 2), dtype=bool))
        )
        assert isinstance(out, np.ndarray) and out.shape == (2, 2)
