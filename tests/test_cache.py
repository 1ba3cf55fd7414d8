"""Scoring, selection, eviction, and baselines vs. hand sums and brute force."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import purekv.cache
from _oracles import argsort_select
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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 20), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_table_matches_each_head(self, heads, m, extra, seed):
        """A (Hkv, m) accumulator table scores like each head's own vector."""
        rng = np.random.default_rng(seed)
        c = rng.uniform(0, 1, size=(heads, m))
        v = rng.standard_normal((heads, m + extra, 3))
        table = score_low(c, v)
        assert table.shape == (heads, m)
        for g in range(heads):
            np.testing.assert_array_equal(table[g], score_low(c[g], v[g]))
        with pytest.raises(ConfigurationError):
            score_low(c, v[0])  # a table needs one V per head

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 12), st.integers(0, 3),
           st.integers(0, 2**32 - 1))
    def test_a_stack_of_layers_scores_like_each_layer(self, layers, heads, m, extra, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(0, 1, size=(layers, heads, m))
        v = rng.standard_normal((layers, heads, m + extra, 3))
        stack = score_low(c, v)
        assert stack.shape == (layers, heads, m)
        for layer in range(layers):
            assert stack[layer].tobytes() == score_low(c[layer], v[layer]).tobytes()
        with pytest.raises(ConfigurationError, match="same leading axes"):
            score_low(c, v[0])

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


    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 30), st.data())
    def test_table_with_ties_matches_each_row(self, heads, l, data):
        """Small integer scores tie often; a table selects as its rows do."""
        w = data.draw(st.integers(1, l - 1), label="w")
        h = data.draw(st.integers(0, l - w), label="h")
        scores = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=l - w, max_size=l - w),
            min_size=heads, max_size=heads), label="scores"), dtype=np.float64)
        table = select_retained(scores, w, h, l)
        assert table.shape == (heads, w + h)
        for g in range(heads):
            np.testing.assert_array_equal(table[g], select_retained(scores[g], w, h, l))


    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 40), st.data())
    def test_partial_selection_matches_the_full_argsort(self, layers, heads, n, data):
        """Over (L, Hkv, l - w) stacks drawn mostly from a few values, so that
        ties, -0.0 against 0.0 and infinities are common, the partial
        selection keeps the full stable argsort's positions bit for bit, at
        h = 0, 1 and l - w and at any h between."""
        w = data.draw(st.integers(1, 5), label="w")
        h = data.draw(st.sampled_from([0, 1, n]) | st.integers(0, n), label="h")
        few = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, 5e-324])
        scores = np.array(data.draw(st.lists(few | st.floats(allow_nan=False),
                                             min_size=layers * heads * n,
                                             max_size=layers * heads * n), label="scores"),
                          dtype=np.float64).reshape(layers, heads, n)
        got, want = select_retained(scores, w, h, n + w), argsort_select(scores, w, h, n + w)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("h", [0, 1, 3])
    def test_a_nan_score_is_rejected_before_selection(self, h):
        """No engine path scores NaN. A NaN anywhere in the table is rejected,
        even where it could not be kept or where every row is kept."""
        scores = np.array([[[0.0, 1.0, 2.0], [1.0, 2.0, np.nan]]])
        with pytest.raises(ValueError, match="not NaN"):
            select_retained(scores, 1, h, 4)


class TestEvict:
    def make_pass(self, rows=5, heads=2, d_v=3):
        """A prompt pass's stacked (Hkv, rows, 3) keys and (Hkv, rows, d_v) values."""
        keys = np.stack([seeded_gaussian(rows, 3, seed=10 + h) for h in range(heads)])
        values = np.stack([seeded_gaussian(rows, d_v, seed=20 + h) for h in range(heads)])
        return keys, values

    def test_retain_all_is_identity(self):
        keys, values = self.make_pass()
        out = evict(keys, values, [np.arange(5)] * 2)
        for h in range(2):
            np.testing.assert_array_equal(out.keys[h], keys[h])
            np.testing.assert_array_equal(out.values[h], values[h])
            np.testing.assert_array_equal(out.positions[h], np.arange(5))

    def test_window_only_retention(self):
        out = evict(*self.make_pass(rows=6), [np.array([4, 5])] * 2)
        assert out.rows(0) == 2 and out.rows(1) == 2

    def test_rows_survive_bit_identically(self):
        keys, values = self.make_pass()
        out = evict(keys, values, [np.array([0, 2])] * 2)
        for h in range(2):
            np.testing.assert_array_equal(out.keys[h], keys[h][[0, 2]])
            np.testing.assert_array_equal(out.values[h], values[h][[0, 2]])
            assert out.positions[h].tolist() == [0, 2]

    def test_per_head_retained_sets(self):
        out = evict(*self.make_pass(), [np.array([0, 1]), np.array([3, 4])])
        assert out.positions[0].tolist() == [0, 1]
        assert out.positions[1].tolist() == [3, 4]

    def test_unknown_position_raises(self):
        for row in (5, 9, -1):
            with pytest.raises(ConfigurationError, match=r"head 1: .* in \[0, 5\)"):
                evict(*self.make_pass(), [np.array([0, 1]), np.array([0, row])])

    def test_the_cache_owns_its_rows(self):
        keys, values = self.make_pass()
        out = evict(keys, values, [np.array([1, 3])] * 2)
        keys[:], values[:] = 0.0, 0.0
        assert np.all(out.keys[0] != 0.0) and np.all(out.values[1] != 0.0)

    def test_the_cache_aliases_no_array_it_was_given(self):
        """evict adopts its own gathers and copies the table; the public
        constructor copies all three arrays. Read-only inputs, such as a
        shared prompt pass's rows or a broadcast table, still give a cache
        that appends."""
        keys, values = self.make_pass(rows=6)
        table = np.array([[0, 2, 5], [1, 2, 3]])
        keep_all = np.broadcast_to(np.arange(6), (2, 6))
        for array in (keys, values):
            array.flags.writeable = False
        built = [evict(keys, values, table), evict(keys, values, keep_all),
                 KvCacheLayer(keys, values, keep_all)]
        for out in built:
            for mine in (out.keys, out.values, out.positions):
                assert not any(np.shares_memory(mine, given)
                               for given in (keys, values, table, keep_all))
            out.append(0, np.ones(3), np.ones(3), position=6)
            out.append(1, np.ones(3), np.ones(3), position=6)
        table[:] = 4
        assert built[0].positions[0].tolist() == [0, 2, 5, 6]
        np.testing.assert_array_equal(built[2].keys[1][:6], keys[1])

    def test_a_stack_of_layers_evicts_like_each_layer(self, monkeypatch):
        """A (L, Hkv, m) table gives one cache per layer, each equal to that
        layer's own eviction; the table is checked whole first, and a bad row
        (negative, at or past l, repeated or decreasing, in the first or only
        a later layer and head) names its layer, head and rows before any
        cache is built."""
        passes = [self.make_pass(rows=6) for _ in range(3)]
        keys, values = np.stack([k for k, _ in passes]), np.stack([v for _, v in passes])
        table = np.array([[[0, 2, 5], [1, 2, 3]], [[3, 4, 5]] * 2, [[0, 1, 2], [0, 4, 5]]])
        built = evict(keys, values, table)
        assert len(built) == 3
        for layer, out in enumerate(built):
            alone = evict(keys[layer], values[layer], table[layer])
            for mine, want in ((out.keys, alone.keys), (out.values, alone.values),
                               (out.positions, alone.positions)):
                assert mine.tobytes() == want.tobytes()
        built = []
        monkeypatch.setattr(purekv.cache, "_caches", lambda *args: built.append(args))
        for layer, g, bad in ((0, 1, [1, 2, 6]), (2, 0, [0, 0, 2]), (1, 1, [-1, 4, 5]),
                              (0, 0, [-3, 2, 5]), (1, 0, [3, 4, 9]), (2, 1, [0, 5, 5]),
                              (2, 1, [0, 5, 4]), (0, 0, [2, 0, 5]), (2, 1, [4, 6, 5])):
            broken = table.copy()
            broken[layer, g] = bad
            rows = ", ".join(map(str, bad))
            with pytest.raises(ConfigurationError, match=rf"^layer {layer} head {g}: retained "
                               rf"rows \[{rows}\] are not strictly increasing in \[0, 6\)$"):
                evict(keys, values, broken)
        assert built == []
        monkeypatch.undo()
        with pytest.raises(ConfigurationError, match=r"\(3, 2, m\) retained table"):
            evict(keys, values, table[:2])
        with pytest.raises(ConfigurationError, match="same heads and rows"):
            evict(keys, values[:, :, :5], table)

    def test_positions_stay_increasing_after_eviction(self):
        out = evict(*self.make_pass(rows=8), [np.array([1, 4, 6])] * 2)
        out.check_invariants()
        assert out.positions[0].tolist() == [1, 4, 6]

    def test_append_after_eviction_extends_positions(self):
        out = evict(*self.make_pass(rows=4), [np.array([0, 3])] * 2)
        for g in range(2):
            out.append(g, np.zeros(3), np.zeros(3), position=4)
        assert out.positions.tolist() == [[0, 3, 4], [0, 3, 4]]
        with pytest.raises(ConfigurationError, match="does not extend head 0"):
            out.append(0, np.zeros(3), np.zeros(3), position=2)

    def test_one_set_per_head_required(self):
        keys, values = self.make_pass()
        with pytest.raises(ConfigurationError, match=r"\(2, m\) retained table, got shape \(1, 2\)"):
            evict(keys, values, [np.array([0, 1])])
        # one flat set of two positions is not a table with a row per head
        with pytest.raises(ConfigurationError, match="retained table"):
            evict(keys, values, np.array([0, 1]))
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            evict(keys, values, [[0, 0], [1, 2]])
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            evict(keys, values, [[0, 1], [2, 1]])
        with pytest.raises(ConfigurationError, match="Hkv >= 1"):
            evict(keys[:0], values[:0], np.zeros((0, 2)))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), heads=st.integers(1, 4), rows=st.integers(1, 24),
           d_v=st.integers(1, 4))
    def test_random_per_head_sets(self, data, heads, rows, d_v):
        """Every head's rows equal keys[g][retained[g]]; repeated, unsorted,
        out-of-range and wrong-shape tables are rejected."""
        keys, values = self.make_pass(rows, heads, d_v)
        m = data.draw(st.integers(0, rows), label="rows kept")
        table = np.array([sorted(data.draw(st.lists(st.integers(0, rows - 1), min_size=m,
                                                    max_size=m, unique=True), label=f"head {g}"))
                          for g in range(heads)], dtype=np.int64).reshape(heads, m)
        out = evict(keys, values, table)
        for g in range(heads):
            np.testing.assert_array_equal(out.keys[g], keys[g][table[g]])
            np.testing.assert_array_equal(out.values[g], values[g][table[g]])
            np.testing.assert_array_equal(out.positions[g], table[g])
        ends = [rows if m == 0 else int(table[g, -1]) + 1 for g in range(heads)]
        for g in range(heads):
            out.append(g, np.ones(3), np.ones(d_v), position=ends[g])
        for g in range(heads):
            assert out.positions[g].tolist() == table[g].tolist() + [ends[g]]
        out.check_invariants()

        g = data.draw(st.integers(0, heads - 1), label="bad head")
        bad_tables = [table[:, ::-1]] if m > 1 else []  # unsorted
        if m > 1:
            repeated = table.copy()
            repeated[g, 1] = repeated[g, 0]
            bad_tables.append(repeated)
        if m:
            outside = table.copy()
            outside[g, data.draw(st.sampled_from([0, m - 1]))] = data.draw(
                st.sampled_from([-1, rows, rows + 5]))
            bad_tables.append(outside)
        for bad in bad_tables:
            with pytest.raises(ConfigurationError, match="strictly increasing"):
                evict(keys, values, bad)
        for bad in (np.concatenate([table, table[:1]]), table[None], table.ravel()):
            if bad.shape != table.shape:
                with pytest.raises(ConfigurationError, match="retained table"):
                    evict(keys, values, bad)


def assert_views_equal(layer, keys, values, positions):
    """The layer's views are the per-head oracle lists cut to their smallest count."""
    n = min(p.size for p in positions)
    for view, oracle in ((layer.keys, keys), (layer.values, values), (layer.positions, positions)):
        want = np.stack([rows[:n] for rows in oracle])
        # Comparing shapes first: no row past the smallest count shows.
        assert view.shape == want.shape and np.array_equal(view, want)


class TestStackedBuffers:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), heads=st.integers(1, 3), rows=st.integers(0, 3))
    def test_matches_per_head_concatenation(self, data, heads, rows):
        # Appends (one head or all heads), evictions of equal heads and
        # rollbacks against a per-head concatenate oracle, through at least 3
        # capacity doublings.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        keys = [rng.standard_normal((rows, 3)) for _ in range(heads)]
        values = [rng.standard_normal((rows, 2)) for _ in range(heads)]
        positions = [np.arange(rows, dtype=np.int64) * 2 + h for h in range(heads)]
        layer = KvCacheLayer(np.stack(keys), np.stack(values), np.stack(positions))
        doublings = 0

        def append(h):
            nonlocal doublings
            position = 0
            if positions[h].size:
                position = int(positions[h][-1]) + data.draw(st.integers(1, 3))
            k, v = rng.standard_normal(3), rng.standard_normal(2)
            before = layer.capacity
            layer.append(h, k, v, position)
            doublings += layer.capacity > before
            keys[h] = np.concatenate([keys[h], k[None]])
            values[h] = np.concatenate([values[h], v[None]])
            positions[h] = np.concatenate([positions[h], [position]])

        def keep(h, rows):
            keys[h], values[h], positions[h] = keys[h][rows], values[h][rows], positions[h][rows]

        def check():
            layer.check_invariants()
            assert layer.num_heads == heads
            for h in range(heads):
                assert layer.rows(h) == positions[h].size <= layer.capacity
            assert_views_equal(layer, keys, values, positions)

        ops = data.draw(st.lists(st.sampled_from(["head", "step", "evict", "truncate"]),
                                 max_size=40), label="ops")
        for op in ops:
            counts = [p.size for p in positions]
            if op == "head":
                append(data.draw(st.integers(0, heads - 1)))
            elif op == "step":
                for h in range(heads):
                    append(h)
            elif op == "evict" and len(set(counts)) == 1:
                # Gather rows of the oracle's stacked arrays, as compression
                # gathers a prompt pass's rows: row i becomes position i.
                m = data.draw(st.integers(0, counts[0]))
                table = np.array([sorted(data.draw(st.lists(st.integers(0, counts[0] - 1),
                                                            min_size=m, max_size=m, unique=True)))
                                  if m else [] for _ in range(heads)],
                                 dtype=np.int64).reshape(heads, m)
                layer = evict(np.stack(keys), np.stack(values), table)
                for h in range(heads):
                    keep(h, table[h])
                    positions[h] = table[h]
            elif op == "truncate":
                cut = data.draw(st.integers(0, min(counts)))
                layer.truncate(cut)
                for h in range(heads):
                    keep(h, slice(0, cut))
            check()
        while doublings < 3:
            for h in range(heads):
                append(h)
            check()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), heads=st.integers(1, 4), rows=st.integers(1, 6))
    def test_views_show_the_rows_every_head_holds(self, data, heads, rows):
        """An evicted layer takes rounds of one append per head, in a drawn head
        order, with truncations in between. After every call the views equal the
        per-head oracle cut to the smallest count, and rows(g) counts head g's rows."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        prompt_keys, prompt_values = rng.standard_normal((2, heads, rows, 3))
        m = data.draw(st.integers(0, rows), label="rows kept")
        table = np.array([sorted(data.draw(st.lists(st.integers(0, rows - 1), min_size=m,
                                                    max_size=m, unique=True), label=f"head {g}"))
                          for g in range(heads)], dtype=np.int64).reshape(heads, m)
        layer = evict(prompt_keys, prompt_values, table)
        keys = [prompt_keys[g][table[g]] for g in range(heads)]
        values = [prompt_values[g][table[g]] for g in range(heads)]
        positions = list(table)

        def check():
            assert [layer.rows(g) for g in range(heads)] == [p.size for p in positions]
            assert_views_equal(layer, keys, values, positions)

        check()
        for _ in range(data.draw(st.integers(1, 4), label="rounds")):
            position = max((int(p[-1]) + 1 for p in positions if p.size), default=rows)
            new_keys, new_values = rng.standard_normal((2, heads, 3))
            for g in data.draw(st.permutations(range(heads)), label="head order"):
                layer.append(g, new_keys[g], new_values[g], position)
                keys[g] = np.concatenate([keys[g], new_keys[g][None]])
                values[g] = np.concatenate([values[g], new_values[g][None]])
                positions[g] = np.append(positions[g], position)
                check()
                if data.draw(st.booleans(), label="truncate"):
                    cut = data.draw(st.integers(0, layer.positions.shape[1]), label="cut")
                    layer.truncate(cut)
                    keys, values, positions = ([a[:cut] for a in oracle]
                                               for oracle in (keys, values, positions))
                    check()

    def test_truncate_only_rolls_back(self):
        layer = KvCacheLayer(np.ones((2, 2, 3)), np.ones((2, 2, 3)), [[0, 1], [0, 1]])
        layer.append(0, np.ones(3), np.ones(3), position=2)
        with pytest.raises(ConfigurationError, match="cannot truncate"):
            layer.truncate(3)  # head 1 holds only 2 rows
        with pytest.raises(ConfigurationError, match="cannot truncate"):
            layer.truncate(-1)
        layer.truncate(2)
        assert [layer.rows(h) for h in range(2)] == [2, 2]

    def test_heads_need_matching_row_counts(self):
        with pytest.raises(ConfigurationError, match="got shapes"):
            KvCacheLayer(np.ones((1, 2, 3)), np.ones((1, 1, 3)), [[0, 1]])
        with pytest.raises(ConfigurationError, match="got shapes"):
            KvCacheLayer(np.ones((2, 2, 3)), np.ones((2, 2, 3)), [[0, 1]])
        with pytest.raises(ConfigurationError, match="got shapes"):
            KvCacheLayer(np.ones((2, 3)), np.ones((2, 3)), [0, 1])  # one head, not stacked
        with pytest.raises(ConfigurationError, match="got shapes"):
            KvCacheLayer(np.ones((0, 2, 3)), np.ones((0, 2, 3)), np.zeros((0, 2)))


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

    @pytest.mark.parametrize("budget, l", [(0.0, 10), (1.5, 10), (float("nan"), 10), (0.5, 0)])
    def test_an_invalid_budget_is_rejected_on_every_call(self, budget, l):
        """The split is computed once per (budget, l), but a rejection is never
        remembered as a result: every call raises, before and after valid ones."""
        for _ in range(3):
            with pytest.raises(ConfigurationError):
                budget_keep_count(budget, l)
            with pytest.raises(ConfigurationError):
                budget_to_wh(budget, l, 4)
            assert budget_keep_count(0.5, 10) == 5 and budget_to_wh(0.5, 10, 4) == (4, 1)

    def test_small_window_config_caps_w(self):
        w, h = budget_to_wh(0.05, 40, 8)
        assert (w, h) == (2, 0)

    def test_products_just_above_an_integer_round_up(self):
        # The float products land a few millionths above the integer, so the
        # exact decimal product does too: ceil keeps one row more.
        for budget, l, n_keep in ((0.711202, 8802, 6261), (0.465095, 18579, 8642),
                                  (0.900691, 11288, 10168)):
            assert budget_keep_count(budget, l) == n_keep

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 1_000_000), st.integers(1, 20_000), st.integers(1, 64))
    def test_random_budgets_keep_the_exact_ceiling(self, n, l, w_config):
        # ceil(budget * l) with the budget read as the decimal it was written as.
        budget = n / 1_000_000
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
        # Below 1.0, a full session's w + h would not count its cache's rows.
        for budget in (0.5, 0.999):
            with pytest.raises(ConfigurationError, match="full policy keeps every row"):
                PolicyConfig("full", budget, 8, 4, 2, 4)

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig("snap_kv", 0.5, 8, 4, 2, 4)
