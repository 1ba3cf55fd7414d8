"""Attention routines vs. a direct per-row oracle, plus streaming invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import out_of_place_masked
from purekv.attention import TilePlan, masked, streaming_masked
from purekv.errors import ConfigurationError
from purekv.masks import SparsityPattern, TokenLayout, build_mask


def oracle_attention(q, k, v, mask):
    """Per-row softmax attention spelled out with scalar loops."""
    l_q, d_k = q.shape
    l_k = k.shape[0]
    out = np.zeros((l_q, v.shape[1]))
    for i in range(l_q):
        logits = []
        for j in range(l_k):
            if mask[i, j]:
                logits.append((j, sum(q[i, d] * k[j, d] for d in range(d_k)) / math.sqrt(d_k)))
        top = max(x for _, x in logits)
        weights = [(j, math.exp(x - top)) for j, x in logits]
        z = sum(wt for _, wt in weights)
        for j, wt in weights:
            out[i] += (wt / z) * v[j]
    return out


def seeded_inputs(rng, l_q, l_k, d_k=4, d_v=3):
    return (rng.standard_normal((l_q, d_k)),
            rng.standard_normal((l_k, d_k)),
            rng.standard_normal((l_k, d_v)))


def causal(n):
    return np.tril(np.ones((n, n), dtype=bool))


class TestDenseCausal:
    """Square causal attention, run through masked with an explicit np.tril mask."""

    def test_single_token_returns_value_row(self):
        q = np.array([[1.0, 2.0]])
        k = np.array([[0.5, -1.0]])
        v = np.array([[3.0, 4.0, 5.0]])
        out, weights = masked(q, k, v, causal(1))
        np.testing.assert_array_equal(out, v)
        np.testing.assert_array_equal(weights, [[1.0]])

    def test_identical_keys_give_uniform_weights(self):
        q = np.tile([[1.0, -1.0]], (3, 1))
        k = np.tile([[2.0, 0.5]], (3, 1))
        v = np.arange(6.0).reshape(3, 2)
        out, weights = masked(q, k, v, causal(3))
        np.testing.assert_allclose(weights, causal(3) / np.arange(1.0, 4.0)[:, None], atol=1e-12)
        np.testing.assert_allclose(out[2], v.mean(axis=0), atol=1e-12)

    def test_matches_direct_oracle_on_seeded_instance(self):
        rng = np.random.default_rng(11)
        q, k, v = seeded_inputs(rng, 4, 4)
        out, _ = masked(q, k, v, causal(4))
        np.testing.assert_allclose(out, oracle_attention(q, k, v, causal(4)), atol=1e-12)


class TestMasked:
    def test_full_causal_mask_equals_dense(self):
        rng = np.random.default_rng(21)
        q, k, v = seeded_inputs(rng, 6, 6)
        out, weights = masked(q, k, v, causal(6))
        np.testing.assert_allclose(out, oracle_attention(q, k, v, causal(6)), atol=1e-12)
        np.testing.assert_array_equal(weights, np.tril(weights))
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_diagonal_only_mask_copies_values(self):
        rng = np.random.default_rng(22)
        q, k, v = seeded_inputs(rng, 5, 5)
        out, weights = masked(q, k, v, np.eye(5, dtype=bool))
        np.testing.assert_allclose(out, v, atol=1e-12)
        np.testing.assert_array_equal(weights, np.eye(5))

    def test_spatial_mask_zeroes_middle_frame_for_last_frame_queries(self):
        layout = TokenLayout(0, 3, 2, 0)
        mask = build_mask(layout, SparsityPattern.spatial())
        rng = np.random.default_rng(23)
        q, k, v = seeded_inputs(rng, 6, 6)
        _, weights = masked(q, k, v, mask)
        # queries in frame 2 (rows 4, 5) place zero weight on frame-1 keys
        assert weights[4, 2] == 0.0 and weights[4, 3] == 0.0
        assert weights[5, 2] == 0.0 and weights[5, 3] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), heads=st.integers(1, 3), group=st.integers(1, 3),
           l_q=st.integers(1, 7), l_k=st.integers(1, 9), d=st.integers(1, 5))
    def test_bit_identical_to_the_out_of_place_oracle(self, data, heads, group, l_q, l_k, d):
        """Scaling the scores in place gives the out-of-place output and weights bit for bit."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        q = rng.standard_normal((heads, group, l_q, d))
        k, v = rng.standard_normal((2, heads, 1, l_k, d))
        mask = rng.random((l_q, l_k)) < 0.6
        mask[np.arange(l_q), rng.integers(0, l_k, l_q)] = True  # no row fully masked
        for got, want in zip(masked(q, k, v, mask), out_of_place_masked(q, k, v, mask)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_empty_row_mask_raises(self):
        rng = np.random.default_rng(24)
        q, k, v = seeded_inputs(rng, 2, 2)
        mask = np.array([[True, False], [False, False]])
        with pytest.raises(ValueError, match="row 1"):
            masked(q, k, v, mask)


class TestStreaming:
    @pytest.mark.parametrize("pattern", [
        SparsityPattern.dense(), SparsityPattern.local(3), SparsityPattern.atrous(2),
        SparsityPattern.spatial(), SparsityPattern.temporal(),
        SparsityPattern.spatial_temporal(),
    ], ids=lambda p: p.describe())
    def test_agrees_with_materialized_oracle(self, pattern):
        layout = TokenLayout(2, 3, 4, 1)
        mask = build_mask(layout, pattern)
        rng = np.random.default_rng(31)
        n = layout.total_len
        q, k, v = seeded_inputs(rng, n, n, d_k=8, d_v=5)
        expected, _ = masked(q, k, v, mask)
        got = streaming_masked(q, k, v, TilePlan(mask, 4))
        np.testing.assert_allclose(got, expected, atol=1e-5)

    def test_tile_size_invariance(self):
        rng = np.random.default_rng(32)
        q, k, v = seeded_inputs(rng, 9, 9)
        mask = np.tril(np.ones((9, 9), dtype=bool))
        one = streaming_masked(q, k, v, TilePlan(mask, 1))
        whole = streaming_masked(q, k, v, TilePlan(mask, 9))
        np.testing.assert_allclose(one, whole, atol=1e-6)
        for tile in (2, 3, 5, 16):
            np.testing.assert_allclose(
                streaming_masked(q, k, v, TilePlan(mask, tile)), whole, atol=1e-6
            )

    def test_single_token_exact(self):
        q = np.array([[0.3, -0.7]])
        k = np.array([[1.0, 1.0]])
        v = np.array([[4.0, -2.0]])
        out = streaming_masked(q, k, v, TilePlan(np.ones((1, 1), dtype=bool)))
        np.testing.assert_array_equal(out, v)

    def test_returns_output_only(self):
        rng = np.random.default_rng(33)
        q, k, v = seeded_inputs(rng, 3, 3)
        result = streaming_masked(q, k, v, TilePlan(np.tril(np.ones((3, 3), dtype=bool))))
        assert isinstance(result, np.ndarray)
        assert result.shape == (3, v.shape[1])

    def test_empty_row_mask_raises(self):
        rng = np.random.default_rng(34)
        q, k, v = seeded_inputs(rng, 2, 2)
        mask = np.array([[False, False], [True, True]])
        with pytest.raises(ValueError, match="row 0"):
            streaming_masked(q, k, v, TilePlan(mask))


class TestAttentionProperties:
    def test_causality_under_future_mutation(self):
        rng = np.random.default_rng(41)
        q, k, v = seeded_inputs(rng, 6, 6)
        mask = np.tril(np.ones((6, 6), dtype=bool))
        base = streaming_masked(q, k, v, TilePlan(mask))
        k2, v2 = k.copy(), v.copy()
        k2[5] += 100.0
        v2[5] -= 50.0
        mutated = streaming_masked(q, k2, v2, TilePlan(mask))
        np.testing.assert_array_equal(base[:5], mutated[:5])
        assert not np.allclose(base[5], mutated[5])

    def test_outputs_inside_allowed_value_hull(self):
        layout = TokenLayout(0, 2, 3, 0)
        mask = build_mask(layout, SparsityPattern.temporal())
        rng = np.random.default_rng(42)
        n = layout.total_len
        q, k, v = seeded_inputs(rng, n, n)
        out = streaming_masked(q, k, v, TilePlan(mask))
        for i in range(n):
            allowed = v[mask[i]]
            assert (out[i] >= allowed.min(axis=0) - 1e-9).all()
            assert (out[i] <= allowed.max(axis=0) + 1e-9).all()
