"""Head-batched streaming attention: property tests against per-head routes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purekv.attention import _tile_blocks, masked, streaming_masked
from purekv.errors import ConfigurationError

MASK_KINDS = ("random", "causal", "band")


def draw_mask(rng, kind, l_q, l_k):
    """A (l_q, l_k) mask of the given family with at least one allowed key per row."""
    rows = np.arange(l_q)[:, None] + (l_k - l_q)
    cols = np.arange(l_k)[None, :]
    if kind == "random":
        mask = rng.random((l_q, l_k)) < rng.uniform(0.05, 1.0)
    elif kind == "causal":
        mask = cols <= rows
    else:
        mask = (cols <= rows) & (cols > rows - int(rng.integers(1, 6)))
    mask[np.arange(l_q), rng.integers(0, l_k, l_q)] |= ~mask.any(axis=1)
    return mask


@st.composite
def batched_cases(draw):
    l_k = draw(st.integers(1, 48))
    case = {
        "hkv": draw(st.integers(1, 3)),
        "group": draw(st.integers(1, 3)),
        "l_q": draw(st.integers(1, l_k)),
        "l_k": l_k,
        "d_k": draw(st.integers(1, 6)),
        "d_v": draw(st.integers(1, 5)),
        "tile": draw(st.integers(1, 64)),
        "kind": draw(st.sampled_from(MASK_KINDS)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }
    rng = np.random.default_rng(case["seed"])
    case["mask"] = draw_mask(rng, case["kind"], case["l_q"], l_k)
    case["q"] = rng.standard_normal((case["hkv"], case["group"], case["l_q"], case["d_k"]))
    case["k"] = rng.standard_normal((case["hkv"], 1, l_k, case["d_k"]))
    case["v"] = rng.standard_normal((case["hkv"], 1, l_k, case["d_v"]))
    return case


def has_row_without_keys_in_a_tile(mask, tile):
    starts = np.arange(0, mask.shape[1], tile)
    return not np.logical_or.reduceat(mask, starts, axis=1).all()


class TestBatchedStreaming:
    @settings(max_examples=150, deadline=None)
    @given(batched_cases())
    def test_matches_per_head_routes(self, case):
        q, k, v, mask, tile = case["q"], case["k"], case["v"], case["mask"], case["tile"]
        got = streaming_masked(q, k, v, mask, tile_size=tile)
        assert got.shape == (case["hkv"], case["group"], case["l_q"], case["d_v"])
        for g in range(case["hkv"]):
            for j in range(case["group"]):
                expected, _ = masked(q[g, j], k[g, 0], v[g, 0], mask)
                assert np.max(np.abs(got[g, j] - expected)) <= 1e-10
                per_head = streaming_masked(q[g, j], k[g, 0], v[g, 0], mask, tile_size=tile)
                assert np.max(np.abs(got[g, j] - per_head)) <= 1e-12

    def test_mask_families_reach_tiles_without_keys(self):
        # The strategy must reach the skipped-row path, not only full blocks.
        rng = np.random.default_rng(5)
        for kind in ("causal", "band"):
            mask = draw_mask(rng, kind, 20, 24)
            assert has_row_without_keys_in_a_tile(mask, 4)

    def test_rows_skipped_in_a_tile_keep_their_outputs(self):
        # Tile 0 visits rows 0 and 2 (not contiguous); tile 1 visits row 1 only.
        mask = np.zeros((3, 8), dtype=bool)
        mask[0, :2] = mask[2, 1:3] = True
        mask[1, 5:7] = True
        rng = np.random.default_rng(7)
        q = rng.standard_normal((2, 2, 3, 4))
        k, v = rng.standard_normal((2, 1, 8, 4)), rng.standard_normal((2, 1, 8, 3))
        got = streaming_masked(q, k, v, mask, tile_size=4)
        for g in range(2):
            for j in range(2):
                expected, _ = masked(q[g, j], k[g, 0], v[g, 0], mask)
                np.testing.assert_allclose(got[g, j], expected, atol=1e-12)

    def test_shared_keys_broadcast_against_2d_queries(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((3, 4, 5, 2))
        k, v = rng.standard_normal((6, 2)), rng.standard_normal((6, 3))
        mask = np.tril(np.ones((5, 6), dtype=bool), k=1)
        got = streaming_masked(q, k, v, mask, tile_size=2)
        for index in np.ndindex(3, 4):
            np.testing.assert_array_equal(
                got[index], streaming_masked(q[index], k, v, mask, tile_size=2)
            )

    def test_empty_row_raises_for_batched_inputs(self):
        q = np.ones((2, 1, 2, 3))
        k = v = np.ones((2, 1, 2, 3))
        mask = np.array([[True, False], [False, False]])
        with pytest.raises(ValueError, match="row 1"):
            streaming_masked(q, k, v, mask)

    def test_leading_dims_must_broadcast(self):
        with pytest.raises(ConfigurationError, match="broadcast"):
            streaming_masked(np.ones((2, 3, 4)), np.ones((3, 3, 4)), np.ones((3, 3, 4)),
                             np.ones((3, 3), dtype=bool))

    def test_materialized_route_stays_2d(self):
        with pytest.raises(ConfigurationError, match="2-D"):
            masked(np.ones((2, 3, 4)), np.ones((2, 3, 4)), np.ones((2, 3, 4)),
                   np.ones((3, 3), dtype=bool))


class TestTileBlocks:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 64),
           st.sampled_from(MASK_KINDS), st.integers(0, 2**32 - 1))
    def test_visits_exactly_the_non_empty_row_tiles(self, l_q, l_k, tile, kind, seed):
        l_q = min(l_q, l_k)
        mask = draw_mask(np.random.default_rng(seed), kind, l_q, l_k)
        visited = set()
        for start, rows in _tile_blocks(mask, tile):
            assert mask[rows, start:start + tile].any(axis=1).all()
            if kind == "causal":
                assert isinstance(rows, slice)
            visited |= {(int(r), start) for r in np.arange(l_q)[rows]}
        expected = {(r, s) for r in range(l_q) for s in range(0, l_k, tile)
                    if mask[r, s:s + tile].any()}
        assert visited == expected
