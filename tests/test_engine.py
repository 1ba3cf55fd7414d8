"""Engine wiring: prefill/compress/decode vs. cache-free reference forwards."""

import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import purekv.attention
import purekv.cache
import purekv.engine
from _oracles import (
    argsort_select,
    brute_force_select,
    causal_masks,
    decode_attention,
    normalize_rows,
    per_layer_compression,
    reference_forward,
    score_low_scores,
    score_low_validation,
    whole_prompt_pass,
)
from purekv.cache import (
    POLICY_KINDS,
    KvCacheLayer,
    PolicyConfig,
    baseline_streaming,
    budget_to_wh,
    evict,
)
from purekv.engine import (
    ModelConfig,
    apply_compression,
    decode_step,
    init_model,
    init_session,
    prefill,
    prompt_pass,
    prompt_passes,
    validate_cross_layer,
)
from purekv.errors import ConfigurationError
from purekv.masks import SparsityPattern, TokenLayout, build_mask, parse_pattern
from purekv.numerics import derive_seed, l2_norm_rows, seeded_gaussian
from purekv.stats import spearman_rho


SMALL = ModelConfig(num_layers=4, d_model=32, num_q_heads=4, num_kv_heads=2,
                    d_k=8, d_v=8, vocab_size=40, seed=3)
LAYOUT = TokenLayout(text_prefix_len=2, num_frames=3, patches_per_frame=4, text_suffix_len=2)
PATTERNS = ["dense", "local:3", "atrous:2", "spatial", "temporal", "spatial_temporal"]
# Every policy kind at budget 0.5, but full, which keeps every row, at 1.0.
KIND_BUDGETS = (("pure_kv", 0.5), ("h2o_like", 0.5), ("streaming_like", 0.5), ("full", 1.0))


def example_config():
    from purekv.harness import load_config
    return load_config(str(Path(__file__).resolve().parents[1] / "configs" / "example.json"))


def make_policy(kind="pure_kv", budget=1.0, w=4, sink=2, clie=1, st=2):
    return PolicyConfig(policy_kind=kind, budget_fraction=budget, recent_window_w=w,
                        sink_len=sink, clie_layer_index=clie, st_layer_index=st)


def draw_prefilled_session(data, kind):
    """A drawn model and a session of the given policy kind, prefilled from a
    pass of its own: any budget (keep-all and h = 0 among them), estimation
    layer, KV head count, pattern and layout, with or without column sums."""
    kv_heads, group, d_k = (data.draw(st.integers(1, 3), label=name)
                            for name in ("kv heads", "group", "d_k"))
    config = ModelConfig(num_layers=data.draw(st.integers(1, 4), label="layers"),
                         d_model=kv_heads * group * d_k, num_q_heads=kv_heads * group,
                         num_kv_heads=kv_heads, d_k=d_k, d_v=data.draw(st.integers(1, 3)),
                         vocab_size=5, seed=data.draw(st.integers(0, 99), label="seed"))
    model = init_model(config)
    layout = TokenLayout(data.draw(st.integers(0, 4)), data.draw(st.integers(1, 4)),
                         data.draw(st.integers(1, 6)), data.draw(st.integers(0, 3)))
    l = layout.total_len
    budget = 1.0 if kind == "full" else data.draw(
        st.sampled_from([1.0, 0.5, 0.35, 0.2, 0.1, 0.05]), label="budget")
    clie = data.draw(st.integers(0, config.num_layers - 1), label="clie")
    policy = make_policy(kind, budget, w=data.draw(st.integers(1, 4), label="w"),
                         sink=data.draw(st.integers(0, 3), label="sink"), clie=clie,
                         st=data.draw(st.integers(clie + 1, config.num_layers), label="st"))
    pattern = parse_pattern(data.draw(st.sampled_from(PATTERNS), label="pattern"), layout)
    session = init_session(model, layout, policy, pattern, tile_size=4)
    w, _ = budget_to_wh(budget, l, policy.recent_window_w)
    column_sums = kind == "h2o_like" or data.draw(st.booleans(), label="column sums")
    prefill(model, session, prompt_pass(
        model, layout, pattern, policy.st_layer_index,
        seeded_gaussian(l, config.d_model, data.draw(st.integers(0, 99), label="prompt")),
        (w,), data.draw(st.integers(clie + 1, config.num_layers), label="pass layers"),
        column_sums, tile_size=4))
    return model, session


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

    @pytest.mark.parametrize("row_block", [1024, 3])
    def test_project_heads_groups_four_query_heads_per_kv_head(self, monkeypatch, row_block):
        """The RMS-normed rows' projections in the head layout, whole or in row blocks."""
        monkeypatch.setattr(purekv.attention, "ROW_BLOCK", row_block)
        config = ModelConfig(num_layers=1, d_model=64, num_q_heads=8, num_kv_heads=2,
                             d_k=8, d_v=6, vocab_size=10, seed=0)
        weights = init_model(config).layers[0]
        x = seeded_gaussian(5, config.d_model, 9)
        q, k, v = purekv.engine._project_heads(x, weights, config)
        h = normalize_rows(x)
        assert config.group_size == 4
        assert (q.shape, k.shape, v.shape) == ((2, 4, 5, 8), (2, 5, 8), (2, 5, 6))
        for g in range(2):
            for j in range(4):
                head = 4 * g + j
                np.testing.assert_array_equal(q[g, j], (h @ weights.wq)[:, 8 * head: 8 * head + 8])
            np.testing.assert_array_equal(k[g], (h @ weights.wk)[:, 8 * g: 8 * g + 8])
            np.testing.assert_array_equal(v[g], (h @ weights.wv)[:, 6 * g: 6 * g + 6])

    @pytest.mark.parametrize("name", ["example", "small", "d_v_below_d_k"])
    def test_wq_wk_wv_are_column_views_of_one_fused_weight(self, name):
        # The prompt pass projects with the three views and decode with wqkv:
        # both must give the bits of the three weights drawn on their own.
        c = {"example": example_config().model, "small": SMALL,
             "d_v_below_d_k": ModelConfig(2, 48, 6, 2, 8, 4, 20, 21)}[name]
        model = init_model(c)
        widths = (c.num_q_heads * c.d_k, c.num_kv_heads * c.d_k, c.num_kv_heads * c.d_v)
        for layer, weights in enumerate(model.layers):
            views = (weights.wq, weights.wk, weights.wv)
            assert weights.wqkv.shape == (c.d_model, sum(widths))
            for tag, (view, width) in enumerate(zip(views, widths)):
                assert view.shape == (c.d_model, width) and np.shares_memory(view, weights.wqkv)
                seed = derive_seed(c.seed, purekv.engine._WEIGHT_TAG, layer, tag)
                np.testing.assert_array_equal(
                    view, seeded_gaussian(c.d_model, width, seed) * (1.0 / np.sqrt(c.d_model)))
        for rows in (1, 7, 140, 524, 2060):
            h = seeded_gaussian(rows, c.d_model, rows)
            separate = [h @ view for view in views]
            np.testing.assert_array_equal(h @ weights.wqkv, np.hstack(separate))
            for product, view in zip(separate, views):  # the unfused layout's products
                np.testing.assert_array_equal(product, h @ np.ascontiguousarray(view))

    def test_odd_widths_keep_the_prompt_bits_and_move_a_fused_row_by_rounding_only(self):
        # BLAS computes a product's columns in blocks, so where d_k = 5 puts a
        # column of wq at a different place in its block than in wqkv, one row's
        # fused product may differ from the separate ones in the last bits. The
        # prompt pass's views keep the unfused layout's bits from two rows up.
        weights = init_model(ModelConfig(2, 30, 6, 2, 5, 4, 20, 21)).layers[0]
        views = (weights.wq, weights.wk, weights.wv)
        for rows in (1, 7, 140):
            h = seeded_gaussian(rows, 30, rows)
            separate = np.hstack([h @ view for view in views])
            np.testing.assert_allclose(h @ weights.wqkv, separate, rtol=0, atol=1e-13)
            if rows > 1:
                for view in views:
                    np.testing.assert_array_equal(h @ view, h @ np.ascontiguousarray(view))

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
        accumulators = session.prompt.accumulators[session.w]
        assert accumulators.shape == (2, SMALL.num_kv_heads, LAYOUT.total_len - session.w)
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

    def test_w_plus_h_counts_the_rows_of_every_layer(self):
        """For every policy the constructor accepts, each cache layer holds
        w + h rows on every head; full accepts no budget below 1.0."""
        model = init_model(SMALL)
        for kind in POLICY_KINDS:
            for budget in (1.0, 0.5, 0.2):
                if kind == "full" and budget < 1.0:
                    with pytest.raises(ConfigurationError, match="full policy keeps every row"):
                        make_policy(kind=kind, budget=budget)
                    continue
                session = init_session(model, LAYOUT, make_policy(kind=kind, budget=budget),
                                       SparsityPattern.spatial())
                prefill(model, session, embeddings_for(LAYOUT))
                apply_compression(model, session)
                for kv in session.cache:
                    assert kv.positions.shape == (SMALL.num_kv_heads, session.w + session.h)

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

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_stacked_compression_matches_the_per_layer_loop(self, kind, data):
        """Compressing the whole layer stack at once gives the bits of the
        per-layer loop, for every policy kind, budget (keep-all and h = 0
        among them), estimation layer and KV head count, from a pass with or
        without column sums. A bad retained row names its layer and head."""
        model, session = draw_prefilled_session(data, kind)
        config, l, prompt = model.config, session.prefill_len, session.prompt
        kv_heads = config.num_kv_heads
        event("keeps every row" if session.w + session.h >= l else f"h = 0: {session.h == 0}")
        expected = per_layer_compression(prompt, session.policy, session.w, session.h)
        apply_compression(model, session)
        assert len(session.cache) == len(expected)
        for kv, triple in zip(session.cache, expected):
            for got, want in zip((kv.keys, kv.values, kv.positions), triple):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

        table = np.stack([positions for *_, positions in expected])
        layer = data.draw(st.integers(0, config.num_layers - 1), label="bad layer")
        g = data.draw(st.integers(0, kv_heads - 1), label="bad head")
        repeat = [table[layer, g, 0]] if table.shape[-1] > 1 else []
        table[layer, g, -1] = data.draw(st.sampled_from([l, l + 3, -1] + repeat), label="bad row")
        with pytest.raises(ConfigurationError,
                           match=rf"^layer {layer} head {g}: .* not strictly increasing"):
            evict(prompt.keys, prompt.values, table)

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_compressed_caches_are_ready_to_decode_and_own_their_rows(self, kind, data):
        """Every layer holds capacity for at least 2m rows after compression, so
        the first m decode steps append into the same buffers; no cache shares
        memory with the pass or with a sibling session compressed from it; and
        the rows and positions are the per-layer loop's."""
        model, session = draw_prefilled_session(data, kind)
        prompt = session.prompt
        sibling = init_session(model, session.layout, session.policy, session.pattern,
                               session.tile_size)
        prefill(model, sibling, prompt)
        expected = per_layer_compression(prompt, session.policy, session.w, session.h)
        apply_compression(model, session)
        apply_compression(model, sibling)
        m = session.w + session.h

        def buffers(kv):
            return kv._keys, kv._values, kv._positions

        for kv, other, triple in zip(session.cache, sibling.cache, expected):
            assert kv.capacity >= 2 * m
            for got, want in zip((kv.keys, kv.values, kv.positions), triple):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            for mine in buffers(kv):
                assert not any(np.may_share_memory(mine, theirs)
                               for theirs in (prompt.keys, prompt.values, *buffers(other)))
        held = [buffers(kv) for kv in session.cache]
        rows = seeded_gaussian(m, model.config.d_model, data.draw(st.integers(0, 99), label="rows"))
        for row in rows:
            decode_step(model, session, row)
        for kv, before in zip(session.cache, held):
            assert all(now is then for now, then in zip(buffers(kv), before))
            assert [kv.rows(g) for g in range(kv.num_heads)] == [2 * m] * kv.num_heads

    @pytest.mark.parametrize("kind", ["pure_kv", "h2o_like"])
    def test_h_zero_keeps_the_recent_window_without_scoring(self, kind, monkeypatch):
        """When the window takes the whole budget, no row beyond it can be kept:
        compression keeps the window and scores and sorts nothing."""
        model = init_model(SMALL)
        session = init_session(model, LAYOUT, make_policy(kind, budget=0.1),
                               SparsityPattern.dense())
        prefill(model, session, embeddings_for(LAYOUT))
        l, w = LAYOUT.total_len, session.w
        assert session.h == 0 and 0 < w < l
        expected = per_layer_compression(session.prompt, session.policy, w, 0)
        monkeypatch.setattr(purekv.engine, "select_retained", None)  # calling it would raise
        for name in ("norms", "colsums"):  # and so would scoring from the pass's statistics
            object.__setattr__(session.prompt, name, None)
        apply_compression(model, session)
        for kv, triple in zip(session.cache, expected):
            assert kv.positions.tolist() == [list(range(l - w, l))] * SMALL.num_kv_heads
            for got, want in zip((kv.keys, kv.values, kv.positions), triple):
                assert got.tobytes() == want.tobytes()

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

    def test_decode_long_logits_match_the_separate_projection_oracle_bit_for_bit(self):
        # decode-long's shapes: the example model at l = 524, spatial_temporal,
        # pure_kv at 0.1. The oracle projects with wq, wk and wv apart and
        # normalizes with the mean expression; decode's fused product and
        # one-row RMSNorm must give its bits at every step.
        config = example_config()
        c, model, layout = config.model, init_model(config.model), TokenLayout(8, 16, 32, 4)
        session = init_session(model, layout, config.policy("pure_kv", 0.1),
                               SparsityPattern.spatial_temporal(), config.tile_size)
        prefill(model, session, seeded_gaussian(layout.total_len, c.d_model, 41))
        apply_compression(model, session)
        keys = [kv.keys.copy() for kv in session.cache]
        values = [kv.values.copy() for kv in session.cache]
        for row in seeded_gaussian(200, c.d_model, 42):
            x = row[None, :]
            for layer, weights in enumerate(model.layers):
                h = normalize_rows(x)
                q = (h @ weights.wq).reshape(c.num_kv_heads, c.group_size, c.d_k)
                k = (h @ weights.wk).reshape(c.num_kv_heads, 1, c.d_k)
                keys[layer] = np.concatenate([keys[layer], k], axis=1)
                v = (h @ weights.wv).reshape(c.num_kv_heads, 1, c.d_v)
                values[layer] = np.concatenate([values[layer], v], axis=1)
                heads = decode_attention(q, keys[layer], values[layer])
                x = x + heads.reshape(1, -1) @ weights.wo
                x = x + np.maximum(normalize_rows(x) @ weights.w_up, 0.0) @ weights.w_down
            np.testing.assert_array_equal(decode_step(model, session, row),
                                          (normalize_rows(x) @ model.w_vocab)[0])
        assert session.step_count == 200

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
        keys, values, positions = kv.keys, kv.values, kv.positions
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
    @example(rows=1, width=1, exponent=150, seed=0)  # one row takes the Python-float branch
    @example(rows=1, width=1, exponent=-150, seed=1)
    @example(rows=1, width=64, exponent=150, seed=2)
    @example(rows=1, width=64, exponent=-150, seed=3)
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
        kind = draw(st.sampled_from(["full", "pure_kv", "h2o_like", "streaming_like"]))
        budget = 1.0 if kind == "full" else draw(st.sampled_from([1.0, 0.5, 0.2]))
        policy = PolicyConfig(kind, budget, draw(st.integers(1, 4)), draw(st.integers(0, 2)), clie,
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
        for array in [prompt.keys, prompt.values, prompt.norms,
                      *(() if prompt.colsums is None else (prompt.colsums,)),
                      *(table for table in prompt.accumulators.values() if table is not None)]:
            assert np.isfinite(array).all()
        assert call(apply_compression) is session
        for kv in session.cache:
            assert all(np.isfinite(a).all() for a in (kv.keys, kv.values, kv.positions))
        for row in seeded_gaussian(3, config.d_model, 6):
            step = call(decode_step, row * draw(scale))
            assert step is None or np.isfinite(step).all()


def fail_at_layer_3(monkeypatch):
    """Let layers 0..2 run, then raise at layer 3's streaming_masked call in a
    prompt pass, or its call of the decode kernel, attention._decode, which
    comes after its rows are appended. Returns the key rows that failing
    kernel call was given, one count per failure."""
    failed_with = []
    for name in ("streaming_masked", "_decode"):
        real, layers_run = getattr(purekv.attention, name), []

        def failing_at_layer_3(*args, real=real, layers_run=layers_run):
            if len(layers_run) == 3:
                failed_with.append(args[1].shape[-2])
                raise RuntimeError("injected failure at layer 3")
            layers_run.append(True)
            return real(*args)

        monkeypatch.setattr(purekv.attention, name, failing_at_layer_3)
    return failed_with


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
        rows = session.cache[3].keys.shape[1]

        failed_with = fail_at_layer_3(monkeypatch)
        with pytest.raises(RuntimeError, match="injected"):
            decode_step(model, session, extra[1])
        monkeypatch.undo()
        assert failed_with == [rows + 1]  # layer 3's kernel saw the row it had appended
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
        built = []

        class FailsOnLayer2(KvCacheLayer):
            """evict builds layers 0 and 1's caches, then layer 2's raises."""

            def __init__(self, *args):
                if len(built) == 2:
                    raise RuntimeError("injected")
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(purekv.cache, "KvCacheLayer", FailsOnLayer2)
        with pytest.raises(RuntimeError, match="injected"):
            apply_compression(model, session)
        monkeypatch.undo()
        assert len(built) == 2
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
            report = validate_cross_layer([prompt], [w], analysis, n_perm=199, seed=1)[0][0]
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
        report = validate_cross_layer([prompt], [6], 1, n_perm=199, seed=2)[0][0]
        assert report["median_rho"] > 0

    def test_rejects_an_analysis_layer_with_no_layer_above(self, monkeypatch):
        """Raised before any statistic is computed."""
        model = init_model(SMALL)
        prompt = prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, embeddings_for(LAYOUT),
                             (4,), SMALL.num_layers)
        monkeypatch.setattr(purekv.stats, "rank", None)
        for analysis, message in ((SMALL.num_layers - 1, "no layers above analysis layer 3 to"),
                                  (SMALL.num_layers, "out of range"), (-1, "out of range")):
            with pytest.raises(ConfigurationError, match=message):
                validate_cross_layer([prompt], [4], analysis, n_perm=199, seed=0)

    def test_one_call_for_several_passes_equals_one_call_per_pass(self):
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=18)
        passes = [prompt_pass(model, LAYOUT, parse_pattern(text, LAYOUT), 2, emb, (4,),
                              SMALL.num_layers) for text in ("dense", "spatial", "temporal")]
        [together] = validate_cross_layer(passes, [4], 1, n_perm=199, seed=5)
        assert together == [validate_cross_layer([p], [4], 1, n_perm=199, seed=5)[0][0]
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
                validate_cross_layer(passes, [4], 1, n_perm=199)
        with pytest.raises(ConfigurationError, match="at least one"):
            validate_cross_layer([], [4], 1, n_perm=199)

    def test_requires_nonrecent_segment(self):
        model = init_model(SMALL)
        tiny = TokenLayout(0, 1, 3, 0)
        prompt = prompt_pass(model, tiny, SparsityPattern.dense(), 2,
                             embeddings_for(tiny, seed=17), (8,), SMALL.num_layers)
        with pytest.raises(ConfigurationError, match="recent window 8 leaves 0 non-recent keys "
                                                     "at l = 3; validation needs at least 3"):
            validate_cross_layer([prompt], [8], 1, n_perm=199, seed=0)

    def test_rejects_fewer_than_three_nonrecent_keys_before_scoring(self, monkeypatch):
        """At l - w of 1 or 2 the permutation test is undefined; validation
        raises before it scores a layer or computes a statistic, also when
        the bad window comes after a good one. Scoring reads the pass's
        value-row norms, which are taken away until the rejections are done.
        The stats spies are looked up through purekv.stats at call time:
        one permutation_pvalues call per (layer, KV head) scores every
        window, and ranks each window's (estimate, truth) tables once, two
        _rank_rows calls per window."""
        model = init_model(SMALL)
        l = LAYOUT.total_len
        windows = (l - 1, l - 2, l - 3, l - 4)
        prompt = prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, embeddings_for(LAYOUT),
                             windows, SMALL.num_layers)
        calls, norms = [], prompt.norms
        for name in ("rank", "_rank_rows", "permutation_pvalue", "permutation_pvalues"):
            real = getattr(purekv.stats, name)
            monkeypatch.setattr(purekv.stats, name, lambda *a, real=real, name=name, **k:
                                calls.append(name) or real(*a, **k))
        object.__setattr__(prompt, "norms", None)  # scoring would raise a TypeError
        for w in windows[:2]:
            for bad in ([w], [l - 3, w]):
                with pytest.raises(ConfigurationError, match=f"recent window {w} leaves {l - w} "
                                                             f"non-recent keys at l = {l}"):
                    validate_cross_layer([prompt], bad, 1, n_perm=100, seed=0)
        assert calls == []
        object.__setattr__(prompt, "norms", norms)
        validate_cross_layer([prompt], windows[2:], 1, n_perm=100, seed=0)
        tests = (SMALL.num_layers - 2) * SMALL.num_kv_heads
        assert calls.count("permutation_pvalues") == tests
        assert calls.count("_rank_rows") == 2 * len(windows[2:]) * tests
        assert set(calls) == {"permutation_pvalues", "_rank_rows"}


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
        streamed call, and the estimation-layer slab reads the same mask's
        last w rows."""
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
        first = LAYOUT.total_len - 4
        for pattern, st, plans in ((SparsityPattern.spatial_temporal(), 2, 2),
                                   (SparsityPattern.spatial_temporal(), layers, 1),
                                   (SparsityPattern.dense(), 2, 1)):
            built.clear(), streamed.clear(), slabs.clear()
            prompt_pass(model, LAYOUT, pattern, st, emb, (4,), layers, tile_size=3)
            assert len(built) == plans and all(plan.tile_size == 3 for plan in built)
            assert streamed == [built[0]] * min(st, layers) + [built[-1]] * (layers - st)
            kinds = [SparsityPattern.dense()] * min(st, layers) + [pattern] * (layers - st)
            assert len(slabs) == layers
            for slab, plan, kind in zip(slabs, streamed, kinds):
                np.testing.assert_array_equal(slab, build_mask(LAYOUT, kind)[first:])
                np.testing.assert_array_equal(np.asarray(plan), build_mask(LAYOUT, kind))

    def test_no_mask_outlives_the_building_of_its_plan(self, monkeypatch):
        """The pass builds its masks only by row ranges, and by the time any
        layer's streamed or column-mass attention runs, the only rows it still
        holds are each mask's last w (the estimation slab's): plans keep copies
        of what they need, never a slab or a view of one."""
        refs, alive, asked = [], [], []
        real_build = purekv.engine.build_mask
        real_streaming, real_mass = purekv.attention.streaming_masked, purekv.attention.column_mass

        def build_spy(layout, pattern, rows=None):
            asked.append(rows)
            mask = real_build(layout, pattern, rows)
            refs.append(weakref.ref(mask))
            return mask

        def watch(real):
            def spy(*args):
                alive.append(sorted(len(ref()) for ref in refs if ref() is not None))
                return real(*args)
            return spy

        monkeypatch.setattr(purekv.engine, "build_mask", build_spy)
        monkeypatch.setattr(purekv.attention, "streaming_masked", watch(real_streaming))
        monkeypatch.setattr(purekv.attention, "column_mass", watch(real_mass))
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=26)
        for pattern, column_sums in ((SparsityPattern.spatial_temporal(), False),
                                     (SparsityPattern.spatial_temporal(), True),
                                     (SparsityPattern.dense(), False)):
            refs.clear(), alive.clear(), asked.clear()
            prompt_pass(model, LAYOUT, pattern, 2, emb, (4, 9), SMALL.num_layers, column_sums)
            kinds = 1 if pattern == SparsityPattern.dense() else 2
            # One slab per plan at this length, and the recent rows of each.
            assert len(refs) == 2 * kinds and all(isinstance(rows, slice) for rows in asked)
            layers = [[9]] * 2 + [[9, 9]] * (SMALL.num_layers - 2)  # the dense rows, then both
            assert alive == (layers if kinds == 2 else [[9]] * SMALL.num_layers)

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

        for name in ("masked", "streaming_masked", "column_mass", "decode", "_decode"):
            monkeypatch.setattr(purekv.attention, name, forbidden)
        monkeypatch.setattr(purekv.engine, "prompt_pass", forbidden)
        for w in windows:
            validate_cross_layer([prompt], [w], 1, n_perm=199, seed=0)

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
    cache = [(layer.keys.copy(), layer.values.copy(), layer.positions.copy())
             for layer in session.cache]
    return [session.phase, session.w, session.h, session.prefill_len, logits, cache,
            session.prompt is None]


class TestPromptPass:
    @pytest.fixture(scope="class")
    def example(self):
        from purekv.harness import generate_workload
        config = example_config()
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
        for pattern in config.patterns:
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
        assert all(got is shared.logits for got in logits)  # the pass's read-only array, not a copy
        with pytest.raises(ValueError, match="read-only"):
            logits[0][:] = 0.0
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
        real_init = KvCacheLayer.__init__

        def counting_init(self, *args):
            built.append(self)
            real_init(self, *args)

        monkeypatch.setattr(KvCacheLayer, "__init__", counting_init)
        prefill(model, session, shared)
        assert session.prompt is shared and session.cache == [] and built == []
        apply_compression(model, session)
        assert built == session.cache and len(session.cache) == SMALL.num_layers
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
        for kind, budget in KIND_BUDGETS:
            session = init_session(model, LAYOUT, make_policy(kind, budget, clie=1, st=2),
                                   SparsityPattern.spatial())
            prefill(model, session, embeddings_for(LAYOUT))
            made = passes[-1]
            assert (made.colsums is not None) == (kind == "h2o_like")
            assert list(made.accumulators) == [session.w] and made.layers == 2
            assert made.accumulators[session.w].shape[0] == 2
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
        for kind, budget in KIND_BUDGETS:
            session = init_session(model, LAYOUT, make_policy(kind=kind, budget=budget),
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

        expected = validate_cross_layer([make_pass()], [4], 1, n_perm=199, seed=3)[0][0]
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
        assert validate_cross_layer([shared], [4], 1, n_perm=199, seed=3)[0][0] == expected
        assert forwards == []

    def test_validation_rejects_a_pass_it_cannot_read(self):
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=27)
        partial = prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, emb, (4,), 2)
        with pytest.raises(ConfigurationError, match="layers 0..3"):
            validate_cross_layer([partial], [4], 1, n_perm=199)
        full = prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, emb, (4,), SMALL.num_layers)
        with pytest.raises(ConfigurationError, match="window 3"):
            validate_cross_layer([full], [3], 1, n_perm=199)

    @pytest.mark.parametrize("windows", [(0,), (-3,), (4, 0)], ids=["0", "-3", "4,0"])
    def test_a_window_below_one_is_rejected_before_any_work(self, monkeypatch, windows):
        """A window below 1 has no accumulators to hold: prompt_pass raises
        before it projects a layer, so validation of w = 0 finds no pass with
        that window and says so."""
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=28)
        monkeypatch.setattr(purekv.engine, "_project_heads", None)
        with pytest.raises(ConfigurationError, match=r"recent windows must be >= 1"):
            prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, emb, windows, SMALL.num_layers)
        monkeypatch.undo()
        full = prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, emb, (4,), SMALL.num_layers)
        with pytest.raises(ConfigurationError, match="window 0"):
            validate_cross_layer([full], [0], 2, n_perm=100)

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
        for array in (shared.colsums, shared.norms, shared.keys, shared.values, shared.logits,
                      shared.accumulators[a.w], shared.accumulators[a.w][0]):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 0
        for session in (b, own):
            apply_compression(model, session)
        for layer in range(config.model.num_layers):
            np.testing.assert_array_equal(b.cache[layer].positions, own.cache[layer].positions)


class TestPassStatistics:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(POLICY_KINDS))
    def test_norms_are_each_layers_value_row_norms_and_read_only(self, data, kind):
        """A pass holds l2_norm_rows of each layer's value rows, bit for bit,
        and neither its norms nor its stacked column sums can be written."""
        _, session = draw_prefilled_session(data, kind)
        prompt = session.prompt
        assert prompt.norms.shape == prompt.values.shape[:-1]
        for layer, values in enumerate(prompt.values):
            want = l2_norm_rows(values.reshape(-1, values.shape[-1])).reshape(values.shape[:-1])
            assert prompt.norms[layer].tobytes() == want.tobytes()
        for array in (prompt.norms, prompt.colsums):
            if array is not None:
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["pure_kv", "h2o_like"]))
    def test_compression_scores_equal_the_score_low_path(self, data, kind):
        """pure_kv and h2o_like compression select from the bits that norming
        the pass's values through score_low, or stacking its column sums,
        gave; an h2o_like selection reads a view of the pass's stacked sums.
        The retained rows are the full argsort's."""
        model, session = draw_prefilled_session(data, kind)
        prompt, w, h, l = session.prompt, session.w, session.h, session.prefill_len
        scores = []
        real = purekv.engine.select_retained
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(purekv.engine, "select_retained",
                          lambda S, *args: scores.append(S) or real(S, *args))
            apply_compression(model, session)
        if w + h >= l or h == 0:
            assert scores == []
            return
        [got] = scores
        want = score_low_scores(prompt, session.policy, w)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert (kind == "h2o_like") == np.shares_memory(got, prompt.colsums)
        table = argsort_select(want, w, h, l)
        for layer, kv in enumerate(session.cache):
            assert kv.positions.tobytes() == table[layer].tobytes()

    @pytest.mark.parametrize("w, analysis", [(4, 0), (4, 1), (3, 2), (11, 1)])
    def test_validation_equals_the_score_low_path(self, monkeypatch, w, analysis):
        """Every permutation test of a validation over two passes and two
        windows gets each window's (estimate, truth) rows that score_low gave,
        bit for bit."""
        model = init_model(SMALL)
        emb = embeddings_for(LAYOUT, seed=31)
        windows = (w, 2)
        prompts = [prompt_pass(model, LAYOUT, pattern, 2, emb, windows, SMALL.num_layers)
                   for pattern in (SparsityPattern.dense(), SparsityPattern.spatial_temporal())]
        calls = []
        real = purekv.stats.permutation_pvalues
        monkeypatch.setattr(purekv.stats, "permutation_pvalues",
                            lambda tables, *rest: calls.append(tables) or real(tables, *rest))
        validate_cross_layer(prompts, windows, analysis, n_perm=100, seed=2)
        expected = [score_low_validation(prompts, window, analysis) for window in windows]
        assert len(calls) == expected[0][0].shape[1] * SMALL.num_kv_heads
        for index, tables in enumerate(calls):
            layer, g = divmod(index, SMALL.num_kv_heads)
            assert len(tables) == len(windows)
            for (x, y), (estimate, truth) in zip(tables, expected):
                assert x.tobytes() == estimate[:, layer, g].tobytes()
                assert y.tobytes() == truth[:, layer, g].tobytes()

    def test_a_grid_norms_each_pass_once_and_stacks_no_column_sums(self, monkeypatch):
        """run_experiment on the example config makes its two pattern passes in
        one prompt_passes call, norms each pass's value stack in one
        l2_norm_rows call, through the engine or score_low, and every h2o_like
        cell that scores selects from a view of its pass's stacked column sums."""
        from purekv.harness import run_experiment

        passes, norm_calls, scores = [], [], []

        def spy(real, calls):
            def call(*args, **kwargs):
                calls.append((args, real(*args, **kwargs)))
                return calls[-1][1]
            return call

        for owner, name, calls in ((purekv.engine, "prompt_passes", passes),
                                   (purekv.engine, "l2_norm_rows", norm_calls),
                                   (purekv.cache, "l2_norm_rows", norm_calls),
                                   (purekv.engine, "select_retained", scores)):
            monkeypatch.setattr(owner, name, spy(getattr(owner, name), calls))
        report = run_experiment(example_config())
        assert len(passes) == 1
        made = passes[0][1]
        assert len(made) == 2 and len(norm_calls) == len(made)
        for ((values,), norms), prompt in zip(norm_calls, made):
            assert np.shares_memory(values, prompt.values) and values.size == prompt.values.size
            assert np.shares_memory(norms, prompt.norms)

        def scored(kind):  # cells of this kind that select top-h rows
            return sum(cell["policy"] == kind and 0 < cell["top_h"]
                       < cell["sequence_len"] - cell["recent_window"] for cell in report["cells"])

        from_sums = [S for (S, *_), _ in scores
                     if any(np.shares_memory(S, prompt.colsums) for prompt in made)]
        assert scored("h2o_like") > 0 and len(from_sums) == scored("h2o_like")
        assert len(scores) == scored("h2o_like") + scored("pure_kv")


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
            return validate_cross_layer([prompt], [w], analysis, n_perm=100, seed=4)[0][0]

        assert validate((w,)) == validate(tuple(others) + (w,))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), prefix=st.integers(0, 3), frames=st.integers(1, 4),
           patches=st.integers(1, 6), suffix=st.integers(0, 3), n_perm=st.integers(100, 400),
           seed=st.integers(0, 2**32), analysis=st.integers(0, 2))
    def test_one_call_for_several_windows_equals_one_call_per_window(
            self, data, prefix, frames, patches, suffix, n_perm, seed, analysis):
        """Every window's reports from one call match a call with that window
        alone, bit for bit, for any window order and repeats: windows share
        their permutation streams' words, never their permutations."""
        layout = TokenLayout(prefix, frames, patches, suffix)
        l = layout.total_len
        assume(l >= 4)
        windows = data.draw(st.lists(st.integers(1, l - 3), min_size=1, max_size=4),
                            label="windows")
        model = init_model(SMALL)
        emb = embeddings_for(layout, seed=30)
        prompts = [prompt_pass(model, layout, pattern, 2, emb, windows, SMALL.num_layers)
                   for pattern in (SparsityPattern.dense(), SparsityPattern.temporal())]
        together = validate_cross_layer(prompts, windows, analysis, n_perm, seed)
        assert len(together) == len(windows)
        for w, reports in zip(windows, together):
            assert reports == validate_cross_layer(prompts, [w], analysis, n_perm, seed)[0]

    def test_rejects_an_empty_window_list(self):
        model = init_model(SMALL)
        prompt = prompt_pass(model, LAYOUT, SparsityPattern.dense(), 2, embeddings_for(LAYOUT),
                             (4,), SMALL.num_layers)
        with pytest.raises(ConfigurationError, match="one window"):
            validate_cross_layer([prompt], [], 1, n_perm=199)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_medians_are_numpys_bit_for_bit(self, data):
        """_medians takes statistics.median, which averages a middle pair as
        (a + b) / 2, as np.median does, so the two agree on any list with ties.
        They can differ in the sign of a zero median, so the values are drawn
        as validation makes them: its rho is never -0.0 (a sum of exact rank
        products, one of them +0.0 if all are zero) and its p is at least
        1 / (1 + n_perm)."""
        pool = data.draw(st.lists(st.floats(-1, 1).map(lambda x: x + 0.0), min_size=1,
                                  max_size=29, unique=True), label="values")
        drawn = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=29), label="list")
        medians = purekv.engine._medians([{"rho": x, "p": -x + 0.0} for x in drawn])
        assert medians["median_rho"].hex() == float(np.median(drawn)).hex()
        assert medians["median_p"].hex() == float(np.median([-x + 0.0 for x in drawn])).hex()


@st.composite
def row_block_cases(draw):
    """A row block B, a prompt of B - 1, B, B + 1 or 2B + 5 tokens, a small model
    and a pass's wiring over it."""
    block = draw(st.integers(3, 12), label="row block")
    l = block + draw(st.sampled_from([-1, 0, 1, block + 5]), label="rows past the block")
    frames = draw(st.integers(1, min(4, l)), label="frames")
    patches = draw(st.integers(1, min(4, l // frames)), label="patches")
    prefix = draw(st.integers(0, l - frames * patches), label="prefix")
    layout = TokenLayout(prefix, frames, patches, l - frames * patches - prefix)
    kv_heads, group, d_k = (draw(st.integers(1, 2), label=name) for name in ("kv", "group", "d_k"))
    num_layers = draw(st.integers(1, 3), label="layers")
    model = init_model(ModelConfig(num_layers=num_layers, d_model=kv_heads * group * d_k,
                                   num_q_heads=kv_heads * group, num_kv_heads=kv_heads, d_k=d_k,
                                   d_v=draw(st.integers(1, 3), label="d_v"), vocab_size=5,
                                   seed=draw(st.integers(0, 99), label="model seed")))
    return {"block": block, "model": model, "layout": layout,
            "pattern": parse_pattern(draw(st.sampled_from(PATTERNS), label="pattern"), layout),
            "st": draw(st.integers(0, num_layers), label="st_layer_index"),
            "windows": tuple(draw(st.sets(st.integers(1, l + 1), min_size=1, max_size=2))),
            "layers": draw(st.integers(0, num_layers), label="statistics layers"),
            "column_sums": draw(st.booleans(), label="column sums"),
            "tile": draw(st.integers(1, 5), label="tile size"),
            "seed": draw(st.integers(0, 99), label="embedding seed")}


class TestRowBlocks:
    """A prompt longer than attention.ROW_BLOCK runs its row work in blocks and
    reads its masks in row slabs, with the bits of the whole-matrix pass."""

    @settings(max_examples=60, deadline=None)
    @given(row_block_cases())
    def test_a_pass_in_row_blocks_equals_the_whole_matrix_pass(self, case):
        """At l = B - 1, B, B + 1 and 2B + 5, every array of a pass, and of the
        dense pass made beside it, equals the whole-matrix oracle's, bit for bit."""
        model, layout = case["model"], case["layout"]
        emb = seeded_gaussian(layout.total_len, model.config.d_model, case["seed"])
        wiring = (case["st"], emb, case["windows"], case["layers"], case["column_sums"],
                  case["tile"])
        patterns = [case["pattern"], SparsityPattern.dense()]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(purekv.attention, "ROW_BLOCK", case["block"])
            passes = prompt_passes(model, layout, patterns, *wiring)
        for pattern, prompt in zip(patterns, passes):
            expected = whole_prompt_pass(model, layout, pattern, *wiring)
            got = {"logits": prompt.logits, "keys": prompt.keys, "values": prompt.values,
                   "norms": prompt.norms, "colsums": prompt.colsums,
                   **{f"accumulators[{w}]": table for w, table in prompt.accumulators.items()}}
            assert got.keys() == expected.keys()
            for name, array in expected.items():
                if array is None:
                    assert got[name] is None, name
                else:
                    assert got[name].shape == array.shape, name
                    assert got[name].tobytes() == array.tobytes(), name

    def test_block_on_more_rows_than_the_row_block_holds_less_than_its_mlp_rows(self,
                                                                                monkeypatch):
        """_block over l = 12 ROW_BLOCK rows peaks, above its inputs, below one
        (l, 2 d_model) float64 array, where the whole-matrix MLP holds two at
        once, and gives the whole-matrix call's bits."""
        config = example_config().model
        weights = init_model(config).layers[0]
        l, width = 12 * purekv.attention.ROW_BLOCK, config.num_q_heads * config.d_v
        x, heads = seeded_gaussian(l, config.d_model, 1), seeded_gaussian(l, width, 2)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            blocked = purekv.engine._block(x, weights, heads)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        bound = l * 2 * config.d_model * 8
        assert peak < bound, f"{peak} bytes at the peak, bound {bound}"
        monkeypatch.setattr(purekv.attention, "ROW_BLOCK", l)
        assert blocked.tobytes() == purekv.engine._block(x, weights, heads).tobytes()

    def test_projections_and_logits_in_row_blocks_equal_the_whole_matrix_products(self):
        """At the example model's dims and l = 12 ROW_BLOCK rows, the blocked
        RMSNorm and q, k, v projections, and the blocked logits as _finish runs
        them, equal the whole-matrix products byte for byte."""
        model = init_model(example_config().model)
        l = 12 * purekv.attention.ROW_BLOCK
        x = seeded_gaussian(l, model.config.d_model, 3)

        def logits(rows):
            return [purekv.engine._rmsnorm(x[rows]) @ model.w_vocab]

        blocked = (*purekv.engine._project_heads(x, model.layers[0], model.config),
                   purekv.engine._by_rows(l, logits)[0])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(purekv.attention, "ROW_BLOCK", l)
            whole = (*purekv.engine._project_heads(x, model.layers[0], model.config),
                     purekv.engine._by_rows(l, logits)[0])
        for name, got, expected in zip(("q", "k", "v", "logits"), blocked, whole):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name

    def test_the_long_prefill_pass_equals_the_whole_matrix_pass(self):
        """The example model's prompt passes at l = 2,060 (8 + 16 x 128 + 4), dense
        and spatial_temporal, in row blocks and mask slabs give the bits of the same
        passes with a row block of l, which run whole matrices and whole masks."""
        config = example_config()
        model, layout = init_model(config.model), TokenLayout(8, 16, 128, 4)
        l = layout.total_len
        assert l > purekv.attention.ROW_BLOCK
        emb = seeded_gaussian(l, config.model.d_model, 0)
        wiring = ([SparsityPattern.spatial_temporal(), SparsityPattern.dense()],
                  config.st_layer_index, emb, (208, 412), config.clie_layer_index + 1, True,
                  config.tile_size)
        blocked = prompt_passes(model, layout, *wiring)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(purekv.attention, "ROW_BLOCK", l)
            whole = prompt_passes(model, layout, *wiring)
        for got, expected in zip(blocked, whole):
            for name in ("logits", "keys", "values", "norms", "colsums"):
                assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
            assert got.accumulators.keys() == expected.accumulators.keys()
            for w, table in expected.accumulators.items():
                assert got.accumulators[w].tobytes() == table.tobytes(), w
