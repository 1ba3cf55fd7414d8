"""Head-batched attention: property tests against per-head routes."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import decode_attention, query_tiles
from purekv import attention
from purekv.attention import TilePlan, column_mass, decode, masked, streaming_masked
from purekv.cache import evict
from purekv.errors import ConfigurationError
from purekv.masks import SparsityPattern, TokenLayout, build_mask

MASK_KINDS = ("random", "causal", "band", "spatial_temporal")


def draw_mask(rng, kind, l_q, l_k):
    """A (l_q, l_k) mask of the given family with at least one allowed key per row.

    spatial_temporal takes the last l_q rows of the pattern's mask over a
    drawn layout of l_k tokens, so a tile of query rows in a late frame may
    attend to the prefix, the first frame and its own and the previous frame
    but not the frames between: a key union that is not contiguous.
    """
    if kind == "spatial_temporal":
        prefix = int(rng.integers(0, min(3, l_k) + 1))
        patches = int(rng.integers(1, 5))
        frames = (l_k - prefix) // patches
        layout = TokenLayout(prefix, frames, patches, l_k - prefix - frames * patches)
        return build_mask(layout, SparsityPattern.spatial_temporal())[l_k - l_q:]
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


def tile_gathers(mask, tile):
    """The keys a TilePlan gathers for every tile of query rows."""
    return [keys for _, keys, _, _ in TilePlan(mask, tile).schedule]


def assert_column_mass(q, k, v, mask, tile):
    """column_mass against streaming_masked and per-head materialized weights.

    Its output must equal streaming_masked's bit for bit, and its column sums
    must match each query head's masked weights summed over rows, both per
    head and averaged over the G query heads that share a KV head.
    """
    plan = TilePlan(mask, tile)
    out, mass = column_mass(q, k, v, plan)
    np.testing.assert_array_equal(out, streaming_masked(q, k, v, plan))
    expected = np.empty(q.shape[:2] + (k.shape[-2],))
    for g, j in np.ndindex(q.shape[:2]):
        expected[g, j] = masked(q[g, j], k[g, 0], v[g, 0], mask)[1].sum(axis=0)
    assert mass.shape == expected.shape
    assert np.max(np.abs(mass - expected)) <= 1e-12
    assert np.max(np.abs(mass.mean(axis=1) - expected.mean(axis=1))) <= 1e-12


class TestBatchedStreaming:
    @settings(max_examples=150, deadline=None)
    @given(batched_cases())
    def test_matches_per_head_routes(self, case):
        q, k, v, mask, tile = case["q"], case["k"], case["v"], case["mask"], case["tile"]
        got = streaming_masked(q, k, v, TilePlan(mask, tile))
        assert got.shape == (case["hkv"], case["group"], case["l_q"], case["d_v"])
        batched_out, batched_weights = masked(q, k, v, mask)
        assert batched_weights.shape == (case["hkv"], case["group"], case["l_q"], case["l_k"])
        assert np.max(np.abs(got - batched_out)) <= 1e-12
        for g in range(case["hkv"]):
            for j in range(case["group"]):
                expected, weights = masked(q[g, j], k[g, 0], v[g, 0], mask)
                assert np.max(np.abs(got[g, j] - expected)) <= 1e-12
                per_head = streaming_masked(q[g, j], k[g, 0], v[g, 0], TilePlan(mask, tile))
                assert np.max(np.abs(got[g, j] - per_head)) <= 1e-12
                assert np.max(np.abs(batched_out[g, j] - expected)) <= 1e-12
                assert np.max(np.abs(batched_weights[g, j] - weights)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(batched_cases(), st.integers(0, 8))
    def test_one_row_tiles_and_one_block_match_masked(self, case, extra):
        q, k, v, mask = case["q"], case["k"], case["v"], case["mask"]
        expected, _ = masked(q, k, v, mask)
        for tile in (1, case["l_q"] + extra):
            got = streaming_masked(q, k, v, TilePlan(mask, tile))
            assert np.max(np.abs(got - expected)) <= 1e-12

    def test_mask_kinds_reach_partial_blocks_and_gathers(self):
        # The strategy must reach blocks that need np.where and key unions
        # gathered by index array, not only full blocks and slices.
        rng = np.random.default_rng(5)
        for kind in ("causal", "band", "spatial_temporal"):
            mask = draw_mask(rng, kind, 20, 24)
            assert any(not mask[start:start + 4, keys].all()
                       for start, keys in zip(range(0, 20, 4), tile_gathers(mask, 4)))
        mask = draw_mask(np.random.default_rng(6), "spatial_temporal", 32, 40)
        assert any(not isinstance(keys, slice) for keys in tile_gathers(mask, 4))

    def test_noncontiguous_key_union_matches_masked(self):
        # One tile of rows 0-2 gathers keys [0, 1, 2, 5, 6]: an index array.
        mask = np.zeros((3, 8), dtype=bool)
        mask[0, :2] = mask[2, 1:3] = True
        mask[1, 5:7] = True
        [keys] = tile_gathers(mask, 4)
        np.testing.assert_array_equal(keys, [0, 1, 2, 5, 6])
        rng = np.random.default_rng(7)
        q = rng.standard_normal((2, 2, 3, 4))
        k, v = rng.standard_normal((2, 1, 8, 4)), rng.standard_normal((2, 1, 8, 3))
        got = streaming_masked(q, k, v, TilePlan(mask, 4))
        for g in range(2):
            for j in range(2):
                expected, _ = masked(q[g, j], k[g, 0], v[g, 0], mask)
                np.testing.assert_allclose(got[g, j], expected, atol=1e-12)
        assert_column_mass(q, k, v, mask, 4)
        _, mass = column_mass(q, k, v, TilePlan(mask, 4))
        np.testing.assert_array_equal(mass[..., [3, 4, 7]], 0.0)  # keys no row may see
        np.testing.assert_allclose(mass.sum(axis=-1), 3.0, atol=1e-12)

    def test_shared_keys_broadcast_against_2d_queries(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((3, 4, 5, 2))
        k, v = rng.standard_normal((6, 2)), rng.standard_normal((6, 3))
        mask = np.tril(np.ones((5, 6), dtype=bool), k=1)
        got = streaming_masked(q, k, v, TilePlan(mask, 2))
        for index in np.ndindex(3, 4):
            np.testing.assert_array_equal(
                got[index], streaming_masked(q[index], k, v, TilePlan(mask, 2))
            )

    def test_no_query_rows_give_an_empty_output(self):
        for l_k in (0, 5):
            args = (np.ones((2, 3, 0, 4)), np.ones((2, 1, l_k, 4)),
                    np.ones((2, 1, l_k, 3)), TilePlan(np.ones((0, l_k), dtype=bool)))
            assert streaming_masked(*args).shape == (2, 3, 0, 3)
            out, mass = column_mass(*args)
            assert out.shape == (2, 3, 0, 3)
            np.testing.assert_array_equal(mass, np.zeros((2, 3, l_k)))

    def test_empty_row_raises_for_batched_inputs(self):
        q = np.ones((2, 1, 2, 3))
        k = v = np.ones((2, 1, 2, 3))
        mask = np.array([[True, False], [False, False]])
        for route in (streaming_masked, column_mass):
            with pytest.raises(ValueError, match="row 1"):
                route(q, k, v, TilePlan(mask))
        mask = np.tril(np.ones((5, 5), dtype=bool))
        mask[3] = False
        for tile in (1, 2, 16):
            for route in (streaming_masked, column_mass):
                with pytest.raises(ValueError, match="row 3 is fully masked"):
                    route(np.ones((2, 1, 5, 3)), np.ones((2, 1, 5, 3)),
                          np.ones((2, 1, 5, 3)), TilePlan(mask, tile))

    def test_leading_dims_must_broadcast(self):
        mask = np.ones((3, 3), dtype=bool)
        for q_lead, k_lead, v_lead in (((2,), (3,), (3,)), ((3,), (3,), (2,))):
            q, k, v = (np.ones(lead + (3, 4)) for lead in (q_lead, k_lead, v_lead))
            for route, extra in ((streaming_masked, (TilePlan(mask),)), (masked, (mask,)),
                                 (column_mass, (TilePlan(mask),)), (decode, ())):
                with pytest.raises(ConfigurationError, match="broadcast"):
                    route(q, k, v, *extra)

    def test_one_mask_is_shared_by_every_head(self):
        q = k = v = np.ones((2, 3, 4))
        for shape in ((2, 3, 3), (3, 2)):
            with pytest.raises(ConfigurationError, match="mask shape"):
                masked(q, k, v, np.ones(shape, dtype=bool))
        with pytest.raises(ConfigurationError, match=r"mask must be \(l_q, l_k\)"):
            TilePlan(np.ones((2, 3, 3), dtype=bool))
        for route in (streaming_masked, column_mass):
            with pytest.raises(ConfigurationError, match="mask shape"):
                route(q, k, v, TilePlan(np.ones((3, 2), dtype=bool)))


class TestColumnMass:
    @settings(max_examples=100, deadline=None)
    @given(batched_cases(), st.integers(0, 8))
    def test_matches_streaming_output_and_masked_column_sums(self, case, extra):
        for tile in (case["tile"], 1, case["l_q"] + extra):
            assert_column_mass(case["q"], case["k"], case["v"], case["mask"], tile)

    @pytest.mark.parametrize("kind", MASK_KINDS)
    def test_every_mask_kind_and_tile_size(self, kind):
        mask = draw_mask(np.random.default_rng(6), kind, 32, 40)
        if kind == "spatial_temporal":
            assert any(not isinstance(keys, slice) for keys in tile_gathers(mask, 4))
        rng = np.random.default_rng(10)
        q = rng.standard_normal((2, 3, 32, 4))
        k, v = rng.standard_normal((2, 1, 40, 4)), rng.standard_normal((2, 1, 40, 5))
        for tile in (1, 4, 16, 32, 100):
            assert_column_mass(q, k, v, mask, tile)


class TestTilePlan:
    @settings(max_examples=150, deadline=None)
    @given(batched_cases(), st.integers(0, 8), st.booleans())
    def test_plan_route_equals_the_per_tile_oracle(self, case, extra, flat_keys):
        """Bit for bit, for one-row tiles up to one tile past every row, and
        for keys shared by every query head or broadcast from a flat (l_k, d)."""
        q, k, v, mask = case["q"], case["k"], case["v"], case["mask"]
        if flat_keys:
            k, v = k[0, 0], v[0, 0]
        for tile in (1, case["tile"], case["l_q"] + extra):
            plan = TilePlan(mask, tile)
            out, mass = query_tiles(q, k, v, mask, tile, mass=True)
            np.testing.assert_array_equal(streaming_masked(q, k, v, plan), out)
            got_out, got_mass = column_mass(q, k, v, plan)
            np.testing.assert_array_equal(got_out, out)
            np.testing.assert_array_equal(got_mass, mass)

    def test_counts_one_heads_work_at_the_long_layout(self):
        layout = TokenLayout(8, 16, 128, 4)
        for pattern, scored, allowed in ((SparsityPattern.dense(), 2_138_256, 2_122_830),
                                         (SparsityPattern.spatial_temporal(), 473_360, 404_302)):
            plan = TilePlan(build_mask(layout, pattern), 16)
            assert (plan.tiles, plan.pairs_scored, plan.pairs_allowed) == (129, scored, allowed)
            assert np.count_nonzero(plan) == allowed  # what a tracer reads from the argument

    @pytest.mark.parametrize("kind", MASK_KINDS)
    def test_a_plan_keeps_no_caller_array(self, kind):
        """np.asarray(plan) is the mask for every tile size; the plan shares no
        memory with the caller's mask, so mutating it afterwards changes
        nothing; keys and blocks are read-only."""
        mask = draw_mask(np.random.default_rng(6), kind, 32, 40)
        expected = mask.copy()
        rng = np.random.default_rng(7)
        q, k, v = (rng.standard_normal((2, 1, n, 3)) for n in (32, 40, 40))
        for tile in (1, 3, 4, 16, 32, 40):
            plan = TilePlan(mask, tile)
            before = streaming_masked(q, k, v, plan)
            assert plan.shape == mask.shape and np.asarray(plan).dtype == bool
            np.testing.assert_array_equal(np.asarray(plan), expected)
            for _, keys, _, block in plan.schedule:
                for array in (keys, block):
                    if isinstance(array, np.ndarray):
                        assert not np.shares_memory(array, mask)
                        assert not array.flags.writeable
                        with pytest.raises(ValueError, match="read-only"):
                            array[...] = 0
            mask[:] = ~mask
            np.testing.assert_array_equal(np.asarray(plan), expected)
            np.testing.assert_array_equal(streaming_masked(q, k, v, plan), before)
            mask[:] = expected
        if kind == "spatial_temporal":
            plan = TilePlan(mask, 4)
            assert any(isinstance(keys, np.ndarray) for _, keys, _, _ in plan.schedule)
            assert any(block is not None for *_, block in plan.schedule)

    def test_validation_keeps_its_order_and_messages(self):
        q = k = v = np.ones((2, 1, 5, 3))
        mask = np.tril(np.ones((5, 5), dtype=bool))
        for route in (streaming_masked, column_mass):  # a plan's mask must fit the inputs
            with pytest.raises(ConfigurationError, match="mask shape"):
                route(q, k, v, TilePlan(mask[:4], 2))
        for bad in (0, -1):
            with pytest.raises(ConfigurationError, match="tile_size must be >= 1"):
                TilePlan(mask, bad)
        mask[3] = False
        with pytest.raises(ValueError, match="row 3 is fully masked"):
            TilePlan(mask, 2)
        # A plan checks each before the next: rank, then tile size, then an empty row.
        with pytest.raises(ConfigurationError, match=r"mask must be \(l_q, l_k\)"):
            TilePlan(mask[None], 0)
        with pytest.raises(ConfigurationError, match="tile_size must be >= 1"):
            TilePlan(mask, 0)


def tile_loop_threads(monkeypatch, cpus):
    """Pretend cpus CPUs are usable and record the thread each _tile_loop runs on."""
    monkeypatch.setattr(attention, "_CPUS", cpus)
    threads, loop = [], attention._tile_loop

    def spy(*args):
        threads.append(threading.get_ident())
        return loop(*args)

    monkeypatch.setattr(attention, "_tile_loop", spy)
    return threads


def assert_ran_in_chunks(threads, chunks):
    """One _tile_loop call per chunk, exactly one of them on the calling thread.
    The workers' threads need not be distinct: a pool worker that finishes its
    chunk before the next is submitted takes that one too, and a thread that
    has exited may pass its identity on to a later one."""
    assert len(threads) == chunks
    assert threads.count(threading.get_ident()) == 1


class TestParallelHeads:
    """A plan scoring at least PARALLEL_KEYS_PER_ROW keys per query row splits
    the KV heads over threads, and must give the serial loop's bits."""

    @pytest.mark.parametrize("pattern, threaded", [(SparsityPattern.dense(), True),
                                                   (SparsityPattern.spatial_temporal(), False)],
                             ids=["dense", "spatial_temporal"])
    def test_bit_identical_at_the_long_layout(self, monkeypatch, pattern, threaded):
        mask = build_mask(TokenLayout(8, 16, 128, 4), pattern)
        plan = TilePlan(mask, 16)
        assert (plan.pairs_scored >= attention.PARALLEL_KEYS_PER_ROW * plan.shape[0]) == threaded
        rng = np.random.default_rng(23)
        l = mask.shape[0]
        q = rng.standard_normal((2, 4, l, 8))
        k, v = rng.standard_normal((2, 1, l, 8)), rng.standard_normal((2, 1, l, 8))
        threads = tile_loop_threads(monkeypatch, 2)
        out, mass = column_mass(q, k, v, plan)
        assert_ran_in_chunks(threads, 2 if threaded else 1)
        threads.clear()
        streamed = streaming_masked(q, k, v, plan)
        assert_ran_in_chunks(threads, 2 if threaded else 1)
        expected, expected_mass = query_tiles(q, k, v, mask, 16, mass=True)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(streamed, expected)
        np.testing.assert_array_equal(mass, expected_mass)

    @pytest.mark.parametrize("cpus, kv_shape", [(2, (3, 1, 1100, 4)), (3, (3, 1, 1100, 4)),
                                                (2, (1100, 4)), (2, (1, 1, 1100, 4)),
                                                (2, (2, 1100, 4))])
    def test_uneven_chunks_and_shared_inputs_match_the_oracle(self, monkeypatch, cpus, kv_shape):
        """Three KV heads in two or three chunks; k and v without the heads axis,
        or with it as 1, are read whole by every chunk."""
        rng = np.random.default_rng(cpus + len(kv_shape))
        mask = np.tril(np.ones((1100, 1100), dtype=bool))
        q = rng.standard_normal((3, 2, 1100, 4))
        k, v = rng.standard_normal(kv_shape), rng.standard_normal(kv_shape)
        threads = tile_loop_threads(monkeypatch, cpus)
        out, mass = column_mass(q, k, v, TilePlan(mask, 16))
        assert_ran_in_chunks(threads, cpus)
        expected, expected_mass = query_tiles(q, k, v, mask, 16, mass=True)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(mass, expected_mass)

    def test_more_workers_than_cores_under_short_switch_intervals(self, monkeypatch):
        """Five chunks of one KV head each, the GIL handed over every microsecond:
        a worker that wrote another's heads of out or colsums would change bits."""
        rng = np.random.default_rng(5)
        l = 1100
        mask = np.tril(np.ones((l, l), dtype=bool))
        q, k, v = (rng.standard_normal((5, 1, l, 2)) for _ in range(3))
        threads = tile_loop_threads(monkeypatch, 5)
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out, mass = column_mass(q, k, v, TilePlan(mask, 16))
        finally:
            sys.setswitchinterval(interval)
        assert_ran_in_chunks(threads, 5)
        assert threading.active_count() == before
        expected, expected_mass = query_tiles(q, k, v, mask, 16, mass=True)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(mass, expected_mass)

    @pytest.mark.parametrize("failing", ["worker", "caller", "both"])
    def test_an_exception_is_raised_after_every_worker_is_joined(self, monkeypatch, failing):
        """When both sides raise, the calling thread's exception is the one raised."""
        caller, exp = threading.get_ident(), np.exp

        def failing_exp(*args, **kwargs):
            side = "caller" if threading.get_ident() == caller else "worker"
            if failing in (side, "both"):
                raise FloatingPointError(f"exp failed on the {side}")
            return exp(*args, **kwargs)

        monkeypatch.setattr(attention, "_CPUS", 2)
        l = 1100
        plan = TilePlan(np.tril(np.ones((l, l), dtype=bool)), 16)
        q, k = np.ones((2, 1, l, 4)), np.ones((2, 1, l, 4))
        before = threading.active_count()
        monkeypatch.setattr(np, "exp", failing_exp)
        with pytest.raises(FloatingPointError,
                           match="on the " + ("caller" if failing == "both" else failing)):
            streaming_masked(q, k, k, plan)
        monkeypatch.undo()
        assert threading.active_count() == before


class TestTileKeys:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 64),
           st.sampled_from(MASK_KINDS), st.integers(0, 2**32 - 1))
    def test_gathers_exactly_the_keys_its_rows_may_attend_to(self, l_q, l_k, tile, kind, seed):
        l_q = min(l_q, l_k)
        mask = draw_mask(np.random.default_rng(seed), kind, l_q, l_k)
        for start, keys in zip(range(0, l_q, tile), tile_gathers(mask, tile)):
            block = mask[start:start + tile]
            gathered = np.zeros(l_k, dtype=bool)
            gathered[keys] = True
            assert not (block & ~gathered).any()
            assert block[:, gathered].any(axis=0).all()
            if kind == "causal":
                assert isinstance(keys, slice)


class TestDecodeKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_query_head_masked(self, data):
        hkv, group = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        n, d_k = data.draw(st.integers(1, 64)), data.draw(st.integers(1, 8))
        d_v = data.draw(st.integers(1, 8).filter(lambda d: d != d_k))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.sampled_from([0.1, 1.0, 10.0]))  # 10 makes peaked softmaxes
        q = scale * rng.standard_normal((hkv, group, d_k))
        k, v = rng.standard_normal((hkv, n, d_k)), rng.standard_normal((hkv, n, d_v))
        got = decode(q, k, v)
        assert got.shape == (hkv, group, d_v)
        everything = np.ones((1, n), dtype=bool)
        for g in range(hkv):
            for j in range(group):
                expected, _ = masked(q[g, j][None], k[g], v[g], everything)
                assert np.max(np.abs(got[g, j] - expected[0])) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bit_identical_to_the_one_expression_oracle(self, data):
        # The example report's bytes rest on decode's exact arithmetic, so any
        # reordering of it must fail here, also on the cache's capacity views.
        hkv, group = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        n, d_k = data.draw(st.just(1) | st.integers(1, 64)), data.draw(st.integers(1, 8))
        d_v = data.draw(st.integers(1, 8).filter(lambda d: d != d_k))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0]))
        q = scale * rng.standard_normal((hkv, group, d_k))
        k, v = rng.standard_normal((hkv, n, d_k)), rng.standard_normal((hkv, n, d_v))
        np.testing.assert_array_equal(decode(q, k, v), decode_attention(q, k, v))

        held = data.draw(st.integers(0, n - 1))
        cache, = evict(k[None], v[None], np.broadcast_to(np.arange(held), (1, hkv, held)))
        for position in range(held, n):
            for g in range(hkv):
                cache.append(g, k[g, position], v[g, position], position)
        keys, values = cache.keys, cache.values
        np.testing.assert_array_equal(keys, k)
        np.testing.assert_array_equal(decode(q, keys, values), decode_attention(q, keys, values))

    def test_needs_a_key(self):
        with pytest.raises(ValueError, match="at least one key"):
            decode(np.ones((2, 1, 3)), np.ones((2, 0, 3)), np.ones((2, 0, 4)))

    def test_public_decode_rejects_bad_inputs_before_the_kernel(self, monkeypatch):
        # The engine calls the unchecked kernel on its own arrays; every
        # other caller goes through decode's checks, which must run first.
        def kernel(*args):
            raise AssertionError("the kernel ran on inputs decode rejects")

        monkeypatch.setattr(attention, "_decode", kernel)
        rng = np.random.default_rng(5)
        q, k, v = (rng.standard_normal(shape) for shape in ((2, 3, 4), (2, 5, 4), (2, 5, 6)))
        for args, error, match in (
            ((q[..., :3], k, v), ConfigurationError, "query dim 3 does not match key dim 4"),
            ((q, k, v[:, :4]), ConfigurationError, "key rows 5 do not match value rows 4"),
            ((q, np.concatenate([k] * 2), v), ConfigurationError, "do not broadcast"),
            ((q[0, 0], k, v), ConfigurationError, "matrices"),
            ((q, k[:, :0], v[:, :0]), ValueError, "at least one key"),
        ):
            with pytest.raises(error, match=match):
                decode(*args)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_public_decode_returns_the_kernels_bits(self, data):
        hkv, group = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        n, d_k, d_v = (data.draw(st.integers(1, 16)) for _ in range(3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        q = rng.standard_normal((hkv, group, d_k))
        k, v = rng.standard_normal((hkv, n, d_k)), rng.standard_normal((hkv, n, d_v))
        np.testing.assert_array_equal(decode(q, k, v), attention._decode(q, k, v))
        # decode takes what converts to float64, here lists and float32 keys.
        k32 = k.astype(np.float32)
        np.testing.assert_array_equal(decode(q.tolist(), k32, v.tolist()),
                                      attention._decode(q, k32.astype(np.float64), v))
