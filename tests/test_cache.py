"""Scoring, selection, eviction, and baselines vs. hand sums and brute force."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purekv.cache import (
    KvCacheLayer,
    PolicyConfig,
    accumulate_recent_attention,
    baseline_h2o_score,
    baseline_streaming,
    budget_keep_count,
    budget_to_wh,
    evict,
    score_low,
    select_retained,
)
from purekv.errors import ConfigurationError
from purekv.numerics import seeded_gaussian


def uniform_causal(l):
    a = np.tril(np.ones((l, l)))
    return a / a.sum(axis=1, keepdims=True)


class TestAccumulateRecentAttention:
    def test_single_recent_row(self):
        a = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        np.testing.assert_allclose(accumulate_recent_attention(a, 1), [0.2, 0.3], atol=1e-15)

    def test_uniform_causal_hand_sum(self):
        c = accumulate_recent_attention(uniform_causal(4), 2)
        np.testing.assert_allclose(c, [7 / 12, 7 / 12], atol=1e-12)

    def test_window_covering_all_but_one(self):
        c = accumulate_recent_attention(uniform_causal(5), 4)
        assert c.shape == (1,)

    def test_window_too_large_raises(self):
        with pytest.raises(ConfigurationError):
            accumulate_recent_attention(uniform_causal(3), 3)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40), st.data())
    def test_recent_slab_equals_full_matrix(self, l, data):
        """Any trailing slab of at least w rows gives the full matrix's result."""
        w = data.draw(st.integers(1, l - 1))
        rows = data.draw(st.integers(w, l))
        seed = data.draw(st.integers(0, 2**32 - 1))
        a = np.tril(np.random.default_rng(seed).random((l, l))) + np.eye(l)
        a /= a.sum(axis=1, keepdims=True)
        full = accumulate_recent_attention(a, w)
        assert full.shape == (l - w,)
        np.testing.assert_array_equal(accumulate_recent_attention(a[l - rows:], w), full)
        with pytest.raises(ConfigurationError):
            accumulate_recent_attention(a, l)  # w >= l
        if w > 1:
            with pytest.raises(ConfigurationError):
                accumulate_recent_attention(a[l - w + 1:], w)  # fewer than w rows


class TestScoring:
    def test_elementwise_product(self):
        s = score_low(np.array([0.5]), np.array([[0.0, 2.0]]))
        np.testing.assert_allclose(s, [1.0], atol=1e-15)

    def test_zero_value_rows_annihilate(self):
        s = score_low(np.array([0.7, 0.3]), np.zeros((2, 4)))
        np.testing.assert_array_equal(s, [0.0, 0.0])

    def test_equal_accumulators_rank_by_norm(self):
        v = np.diag([1.0, 2.0, 3.0])
        s = score_low(np.ones(3), v)
        assert int(np.argmax(s)) == 2

    def test_seeded_instance_matches_product_oracle(self):
        c = np.abs(seeded_gaussian(1, 5, seed=3)[0])
        v = seeded_gaussian(7, 4, seed=4)
        expected = [c[j] * float(np.sqrt((v[j] ** 2).sum())) for j in range(5)]
        np.testing.assert_allclose(score_low(c, v), expected, atol=1e-12)

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            score_low(np.ones(5), np.zeros((3, 2)))

    def test_scale_covariance_in_v(self):
        rng = np.random.default_rng(6)
        c = rng.uniform(0, 1, size=10)
        v = rng.standard_normal((10, 4))
        base = score_low(c, v)
        for scale in (0.5, 3.0):
            scaled = score_low(c, scale * v)
            np.testing.assert_allclose(scaled, scale * base, atol=1e-12)
            np.testing.assert_array_equal(np.argsort(scaled), np.argsort(base))


class TestSelectRetained:
    def test_top_h_plus_recent_window(self):
        retained = select_retained(np.array([3.0, 1.0, 2.0]), w=1, h=2, l=4)
        assert retained.tolist() == [0, 2, 3]

    def test_h_equal_to_segment_keeps_everything(self):
        retained = select_retained(np.array([5.0, 1.0]), w=2, h=2, l=4)
        assert retained.tolist() == [0, 1, 2, 3]

    def test_tie_breaks_to_smaller_index(self):
        retained = select_retained(np.array([1.0, 1.0]), w=1, h=1, l=3)
        assert retained.tolist() == [0, 2]

    def test_h_too_large_raises(self):
        with pytest.raises(ConfigurationError):
            select_retained(np.array([1.0, 2.0]), w=1, h=3, l=3)

    def test_recent_window_always_present(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            l = int(rng.integers(3, 40))
            w = int(rng.integers(1, l))
            h = int(rng.integers(0, l - w + 1))
            s = rng.standard_normal(l - w)
            retained = select_retained(s, w, h, l)
            assert retained.size == w + h
            assert set(range(l - w, l)).issubset(retained.tolist())
            assert np.all(np.diff(retained) > 0)


class TestEvict:
    def make_layer(self, rows=5, heads=2):
        keys = [seeded_gaussian(rows, 3, seed=10 + h) for h in range(heads)]
        values = [seeded_gaussian(rows, 3, seed=20 + h) for h in range(heads)]
        return KvCacheLayer.from_projections(keys, values)

    def test_retain_all_is_identity(self):
        layer = self.make_layer()
        out = evict(layer, [np.arange(5)] * 2)
        for h in range(2):
            np.testing.assert_array_equal(out.keys[h], layer.keys[h])
            np.testing.assert_array_equal(out.positions[h], layer.positions[h])

    def test_window_only_retention(self):
        layer = self.make_layer(rows=6)
        out = evict(layer, [np.array([4, 5])] * 2)
        assert out.rows(0) == 2 and out.rows(1) == 2

    def test_rows_survive_bit_identically(self):
        layer = self.make_layer()
        out = evict(layer, [np.array([0, 2])] * 2)
        for h in range(2):
            np.testing.assert_array_equal(out.keys[h], layer.keys[h][[0, 2]])
            np.testing.assert_array_equal(out.values[h], layer.values[h][[0, 2]])
            assert out.positions[h].tolist() == [0, 2]

    def test_per_head_retained_sets(self):
        layer = self.make_layer()
        out = evict(layer, [np.array([0, 1]), np.array([3, 4])])
        assert out.positions[0].tolist() == [0, 1]
        assert out.positions[1].tolist() == [3, 4]

    def test_unknown_position_raises(self):
        layer = self.make_layer()
        with pytest.raises(ConfigurationError, match="not present"):
            evict(layer, [np.array([0, 1]), np.array([0, 9])])

    def test_positions_stay_increasing_after_eviction(self):
        layer = self.make_layer(rows=8)
        out = evict(layer, [np.array([1, 4, 6])] * 2)
        out.check_invariants()
        assert out.positions[0].tolist() == [1, 4, 6]

    def test_append_after_eviction_extends_positions(self):
        layer = self.make_layer(rows=4)
        out = evict(layer, [np.array([0, 3])] * 2)
        out.append(0, np.zeros(3), np.zeros(3), position=4)
        assert out.positions[0].tolist() == [0, 3, 4]
        with pytest.raises(ConfigurationError):
            out.append(0, np.zeros(3), np.zeros(3), position=2)

    def test_one_set_per_head_required(self):
        layer = self.make_layer()
        with pytest.raises(ConfigurationError, match="1 retained sets for 2 heads"):
            evict(layer, [np.array([0, 1])])
        # one flat set of two positions is not a set per head
        with pytest.raises(ConfigurationError, match="1-D retained set"):
            evict(layer, np.array([0, 1]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), heads=st.integers(1, 4), rows=st.integers(1, 24))
    def test_random_per_head_sets(self, data, heads, rows):
        # Start from positions with gaps, as after an earlier eviction.
        layer = self.make_layer(rows=rows, heads=heads)
        layer.positions = [np.arange(rows, dtype=np.int64) * 3 + h for h in range(heads)]
        sets = [data.draw(st.sets(st.sampled_from(layer.positions[h].tolist())), label=f"head {h}")
                for h in range(heads)]
        out = evict(layer, [list(s) for s in sets])
        for h in range(heads):
            keep = np.isin(layer.positions[h], sorted(sets[h]))
            np.testing.assert_array_equal(out.keys[h], layer.keys[h][keep])
            np.testing.assert_array_equal(out.values[h], layer.values[h][keep])
            assert out.positions[h].tolist() == sorted(sets[h])
            assert np.all(np.diff(out.positions[h]) > 0)
            end = int(layer.positions[h][-1]) + 1
            out.append(h, np.ones(3), np.ones(3), position=end)
            assert out.positions[h].tolist() == sorted(sets[h]) + [end]
            np.testing.assert_array_equal(out.keys[h][-1], np.ones(3))
        out.check_invariants()

        unknown = data.draw(st.integers(0, 3 * rows + heads).filter(
            lambda p: p not in layer.positions[0]), label="unknown")
        with pytest.raises(ConfigurationError, match="not present"):
            evict(layer, [[unknown]] + [sorted(s) for s in sets[1:]])
        with pytest.raises(ConfigurationError, match="retained sets"):
            evict(layer, [sorted(s) for s in sets] + [[]])


class TestBaselines:
    def test_h2o_single_token(self):
        np.testing.assert_array_equal(baseline_h2o_score(np.array([[1.0]])), [1.0])

    def test_h2o_uniform_hand_sum(self):
        score = baseline_h2o_score(uniform_causal(3))
        np.testing.assert_allclose(score, [1 + 1 / 2 + 1 / 3, 1 / 2 + 1 / 3, 1 / 3], atol=1e-12)

    def test_h2o_uniform_scores_decay_with_position(self):
        score = baseline_h2o_score(uniform_causal(6))
        assert np.all(np.diff(score) <= 0)

    def test_streaming_sink_plus_window(self):
        assert baseline_streaming(10, 2, 3).tolist() == [0, 1, 7, 8, 9]

    def test_streaming_full_coverage(self):
        assert baseline_streaming(4, 0, 4).tolist() == [0, 1, 2, 3]

    def test_streaming_overlap_clamps(self):
        assert baseline_streaming(3, 2, 2).tolist() == [0, 1, 2]


class TestBudget:
    def test_budget_split_example(self):
        assert budget_to_wh(0.2, 100, 8) == (8, 12)

    def test_budget_one_keeps_everything(self):
        w, h = budget_to_wh(1.0, 57, 8)
        assert w + h == 57

    def test_five_fold_compression(self):
        assert budget_keep_count(0.2, 1000) == 200  # 5.0x ratio

    def test_decimal_budgets_are_not_overshot_by_float_noise(self):
        for l in (40, 100, 200, 1000):
            for budget, num, den in ((0.5, 1, 2), (0.35, 7, 20), (0.2, 1, 5),
                                     (0.1, 1, 10), (0.05, 1, 20)):
                exact = -(-num * l // den)  # ceil of the exact rational
                assert budget_keep_count(budget, l) == exact

    def test_small_window_config_caps_w(self):
        w, h = budget_to_wh(0.05, 40, 8)
        assert (w, h) == (2, 0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 1000), st.integers(1, 5000), st.integers(1, 64))
    def test_random_budgets_keep_the_exact_ceiling(self, n, l, w_config):
        # ceil(budget * l) with the budget read as the decimal it was written as.
        budget = n / 1000
        n_keep = max(1, min(l, math.ceil(Fraction(repr(budget)) * l)))
        assert budget_keep_count(budget, l) == n_keep
        w, h = budget_to_wh(budget, l, w_config)
        assert w == min(w_config, n_keep)
        assert w + h == n_keep


def test_retained_sets_serialize_as_json_arrays():
    import json
    retained = select_retained(np.array([3.0, 1.0, 2.0]), w=1, h=2, l=4)
    text = json.dumps(retained.tolist())
    assert json.loads(text) == [0, 2, 3]


class TestPolicyConfig:
    def test_layer_order_constraint(self):
        with pytest.raises(ConfigurationError, match="greater than"):
            PolicyConfig("pure_kv", 0.2, 8, 4, clie_layer_index=3, st_layer_index=3)
        cfg = PolicyConfig("pure_kv", 0.2, 8, 4, clie_layer_index=2, st_layer_index=5)
        assert cfg.st_layer_index > cfg.clie_layer_index

    def test_budget_range(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig("pure_kv", 0.0, 8, 4, 2, 4)
        with pytest.raises(ConfigurationError):
            PolicyConfig("pure_kv", 1.2, 8, 4, 2, 4)

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig("snap_kv", 0.5, 8, 4, 2, 4)
