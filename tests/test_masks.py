"""Sparsity mask construction checked against a direct rule-by-rule oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purekv.errors import ConfigurationError
from purekv.masks import (
    SparsityPattern,
    TokenLayout,
    build_mask,
    mask_density,
    mask_to_text,
    parse_pattern,
)

ALL_PATTERNS = (
    SparsityPattern.dense(),
    SparsityPattern.local(2),
    SparsityPattern.atrous(2),
    SparsityPattern.spatial(),
    SparsityPattern.temporal(),
    SparsityPattern.spatial_temporal(),
)


def oracle_allowed(layout: TokenLayout, pattern: SparsityPattern, q: int, k: int) -> bool:
    """Scalar restatement of the mask semantics, evaluated pair by pair."""
    video = range(layout.text_prefix_len, layout.text_prefix_len + layout.video_len)
    if k > q:
        return False
    if k == q:
        return True
    if q not in video:
        return True
    if k < layout.text_prefix_len:
        return True
    if k not in video:
        return False
    fq, pq = divmod(q - layout.text_prefix_len, layout.patches_per_frame)
    fk, pk = divmod(k - layout.text_prefix_len, layout.patches_per_frame)
    if pattern.kind == "dense":
        return True
    if pattern.kind == "local":
        return q - k < pattern.param
    if pattern.kind == "atrous":
        return (q - k) % pattern.param == 0
    spatial = fk == 0 or fk == fq
    temporal = fk == 0 or (fk == fq - 1 and pk == pq)
    if pattern.kind == "spatial":
        return spatial
    if pattern.kind == "temporal":
        return temporal
    return spatial or temporal


def oracle_mask(layout: TokenLayout, pattern: SparsityPattern) -> np.ndarray:
    n = layout.total_len
    out = np.zeros((n, n), dtype=bool)
    for q in range(n):
        for k in range(n):
            out[q, k] = oracle_allowed(layout, pattern, q, k)
    return out


class TestLayout:
    def test_invalid_layouts_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenLayout(-1, 2, 2, 0)
        with pytest.raises(ConfigurationError):
            TokenLayout(0, 2, 0, 0)
        with pytest.raises(ConfigurationError):
            TokenLayout(0, 0, 0, 0)


class TestPatternParsing:
    def test_window_and_stride_validation(self):
        with pytest.raises(ConfigurationError):
            SparsityPattern.local(0)
        with pytest.raises(ConfigurationError):
            SparsityPattern.atrous(1)
        with pytest.raises(ConfigurationError):
            SparsityPattern("bogus")

    def test_a_kind_takes_only_its_own_parameter(self):
        # A parameter its kind ignores would make a pattern that describes
        # itself as dense compare unequal to SparsityPattern.dense().
        for kind in ("dense", "spatial", "temporal", "spatial_temporal"):
            with pytest.raises(ConfigurationError, match=f"^{kind} pattern takes no parameter"):
                SparsityPattern(kind, 3)
            with pytest.raises(ConfigurationError, match="takes no parameter"):
                parse_pattern(f"{kind}:3")
        with pytest.raises(ConfigurationError, match="local pattern needs window >= 1"):
            SparsityPattern("local")
        with pytest.raises(ConfigurationError, match="atrous pattern needs stride >= 2"):
            SparsityPattern("atrous", 1)
        with pytest.raises(TypeError):
            SparsityPattern("local", window=3, stride=5)  # one parameter field, not two
        assert SparsityPattern("local", 3) == SparsityPattern.local(3) == parse_pattern("local:3")
        assert SparsityPattern.atrous(3).describe() == "atrous:3"
        assert SparsityPattern("dense") == SparsityPattern.dense() == parse_pattern("dense")

    def test_parse_defaults(self):
        layout = TokenLayout(0, 3, 5, 0)
        assert parse_pattern("local", layout).param == 5  # one frame
        assert parse_pattern("atrous", layout).param == 2
        assert parse_pattern("local:7", layout).param == 7
        assert parse_pattern("atrous:3", layout).param == 3
        assert parse_pattern("spatial_temporal", layout).kind == "spatial_temporal"
        with pytest.raises(ConfigurationError):
            parse_pattern("dense:4", layout)
        with pytest.raises(ConfigurationError):
            parse_pattern("wat", layout)


class TestMaskSemantics:
    def test_spatial_query_in_third_frame(self):
        # layout(0, T=3, P=2, 0), query position 4 sits in frame 2, patch 0
        mask = build_mask(TokenLayout(0, 3, 2, 0), SparsityPattern.spatial())
        assert np.flatnonzero(mask[4]).tolist() == [0, 1, 4]

    def test_spatial_temporal_union_row(self):
        mask = build_mask(TokenLayout(0, 3, 2, 0), SparsityPattern.spatial_temporal())
        assert np.flatnonzero(mask[4]).tolist() == [0, 1, 2, 4]

    def test_dense_is_exactly_lower_triangular(self):
        layout = TokenLayout(1, 2, 3, 2)
        mask = build_mask(layout, SparsityPattern.dense())
        n = layout.total_len
        np.testing.assert_array_equal(mask, np.tril(np.ones((n, n), dtype=bool)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 6), st.integers(1, 8), st.integers(0, 5),
           st.sampled_from(ALL_PATTERNS + (SparsityPattern.local(5), SparsityPattern.atrous(3))))
    def test_matches_the_pairwise_rule_on_any_layout(self, prefix, frames, patches, suffix,
                                                     pattern):
        """build_mask returns dense as the causal triangle and narrows only the
        video block for the others; the rule, pair by pair, must agree."""
        if prefix + frames * patches + suffix == 0:
            prefix = 1
        layout = TokenLayout(prefix, frames, patches, suffix)
        mask = build_mask(layout, pattern)
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, oracle_mask(layout, pattern))

    def test_temporal_golden_grid(self):
        # T=3, P=2, no text: first-frame anchor plus same-patch previous frame.
        mask = build_mask(TokenLayout(0, 3, 2, 0), SparsityPattern.temporal())
        assert mask_to_text(mask) == (
            "100000\n"
            "110000\n"
            "111000\n"
            "110100\n"
            "111010\n"
            "110101"
        )

    def test_text_rows_are_causal_dense(self):
        layout = TokenLayout(2, 2, 2, 2)
        for pattern in ALL_PATTERNS:
            mask = build_mask(layout, pattern)
            for q in (0, 1, 6, 7):  # prefix and suffix rows
                np.testing.assert_array_equal(
                    mask[q, : q + 1], np.ones(q + 1, dtype=bool)
                )

    @pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=lambda p: p.describe())
    def test_matches_pairwise_oracle(self, pattern):
        for layout in (TokenLayout(0, 4, 3, 0), TokenLayout(2, 3, 4, 2),
                       TokenLayout(5, 1, 6, 1)):
            np.testing.assert_array_equal(
                build_mask(layout, pattern), oracle_mask(layout, pattern)
            )


class TestMaskAlgebra:
    LAYOUTS = [
        TokenLayout(p, t, pp, s)
        for t in range(1, 7)
        for pp in range(1, 9)
        for p in range(3)
        for s in range(3)
        if p + t * pp + s <= 30
    ]

    def test_union_identity_and_causality(self):
        for layout in self.LAYOUTS:
            spatial = build_mask(layout, SparsityPattern.spatial())
            temporal = build_mask(layout, SparsityPattern.temporal())
            st = build_mask(layout, SparsityPattern.spatial_temporal())
            np.testing.assert_array_equal(st, spatial | temporal)
            causal = build_mask(layout, SparsityPattern.dense())
            for mask in (spatial, temporal, st):
                assert not (mask & ~causal).any()  # no acausal leakage
                assert mask.diagonal().all()

    def test_single_and_two_frame_spatial_equals_dense(self):
        for layout in self.LAYOUTS:
            if layout.num_frames > 2:
                continue
            np.testing.assert_array_equal(
                build_mask(layout, SparsityPattern.spatial()),
                build_mask(layout, SparsityPattern.dense()),
            )

    def test_every_row_has_an_allowed_entry(self):
        for layout in self.LAYOUTS[::7]:
            for pattern in ALL_PATTERNS:
                assert build_mask(layout, pattern).any(axis=1).all()


class TestMaskDensity:
    def test_dense_density_is_one(self):
        for layout in (TokenLayout(0, 2, 2, 0), TokenLayout(3, 4, 4, 1)):
            assert mask_density(build_mask(layout, SparsityPattern.dense())) == 1.0

    def test_causal_pair_count_denominator(self):
        mask = build_mask(TokenLayout(0, 2, 2, 0), SparsityPattern.dense())
        assert int(mask.sum()) == 10  # n=4: n(n+1)/2

    def test_density_matches_brute_force(self):
        layout = TokenLayout(0, 3, 2, 0)
        pattern = SparsityPattern.spatial()
        mask = build_mask(layout, pattern)
        n = layout.total_len
        expected = sum(
            oracle_allowed(layout, pattern, q, k) for q in range(n) for k in range(n)
        ) / (n * (n + 1) / 2)
        assert mask_density(mask) == pytest.approx(expected, abs=1e-12)


def test_mask_to_text_round_trip():
    mask = build_mask(TokenLayout(1, 2, 2, 1), SparsityPattern.spatial())
    text = mask_to_text(mask)
    parsed = np.array([[ch == "1" for ch in line] for line in text.splitlines()])
    np.testing.assert_array_equal(parsed, mask)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.integers(1, 5), st.integers(0, 3),
       st.sampled_from(["dense", "local:1", "local:3", "atrous:2", "atrous:3", "spatial",
                        "temporal", "spatial_temporal"]), st.data())
def test_a_row_range_is_those_rows_of_the_whole_mask(prefix, frames, patches, suffix, text, data):
    """build_mask(layout, pattern, rows) equals build_mask(layout, pattern)[rows]
    for any slice of step 1: bounds inside, past either end, negative or None."""
    if prefix + frames * patches + suffix == 0:
        suffix = 1
    layout = TokenLayout(prefix, frames, patches, suffix)
    pattern = parse_pattern(text, layout)
    n = layout.total_len
    bound = st.none() | st.integers(-n - 2, n + 2)
    rows = slice(data.draw(bound, label="start"), data.draw(bound, label="stop"))
    np.testing.assert_array_equal(build_mask(layout, pattern, rows),
                                  build_mask(layout, pattern)[rows])


def test_a_row_range_must_step_by_one():
    with pytest.raises(ConfigurationError, match="step 1"):
        build_mask(TokenLayout(1, 2, 2, 1), SparsityPattern.spatial(), slice(0, 4, 2))
