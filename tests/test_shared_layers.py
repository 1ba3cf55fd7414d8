"""Work below st_layer_index done once: prompt passes made together for several
patterns, decode steps that borrow a twin's lower layers, and the whole grid
that reuses both, each against the work done alone, bit for bit."""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
from _oracles import naive_grid
from hypothesis import given, settings
from hypothesis import strategies as st

import purekv.attention
import purekv.engine
from purekv.cache import PolicyConfig, budget_to_wh
from purekv.engine import (
    ModelConfig,
    apply_compression,
    decode_step,
    init_model,
    init_session,
    prefill,
    prompt_pass,
    prompt_passes,
)
from purekv.errors import ConfigurationError
from purekv.harness import load_config, run_experiment
from purekv.masks import SparsityPattern, TokenLayout, parse_pattern
from purekv.numerics import seeded_gaussian

PATTERNS = ["dense", "local:3", "atrous:2", "spatial", "temporal", "spatial_temporal"]
KINDS = ["pure_kv", "h2o_like", "streaming_like", "full"]
SMALL = ModelConfig(num_layers=4, d_model=32, num_q_heads=4, num_kv_heads=2,
                    d_k=8, d_v=8, vocab_size=40, seed=3)
LAYOUT = TokenLayout(text_prefix_len=2, num_frames=3, patches_per_frame=4, text_suffix_len=2)


def draw_model(data):
    kv_heads, group, d_k = (data.draw(st.integers(1, 3), label=name)
                            for name in ("kv heads", "group", "d_k"))
    return init_model(ModelConfig(
        num_layers=data.draw(st.integers(1, 4), label="layers"), d_model=kv_heads * group * d_k,
        num_q_heads=kv_heads * group, num_kv_heads=kv_heads, d_k=d_k,
        d_v=data.draw(st.integers(1, 3), label="d_v"), vocab_size=5,
        seed=data.draw(st.integers(0, 99), label="model seed")))


def draw_layout(data):
    return TokenLayout(data.draw(st.integers(0, 4)), data.draw(st.integers(1, 4)),
                       data.draw(st.integers(1, 6)), data.draw(st.integers(0, 3)))


def pass_arrays(prompt):
    """Every array a pass holds, by name."""
    arrays = {"logits": prompt.logits, "keys": prompt.keys, "values": prompt.values,
              "norms": prompt.norms, "colsums": prompt.colsums}
    arrays.update({f"accumulators[{w}]": table for w, table in prompt.accumulators.items()})
    return arrays


def compressed_twins(model, layout, patterns, policy, embeddings, tile_size=4):
    """One compressed session per pattern, each prefilled from its pass of one
    prompt_passes call."""
    w, _ = budget_to_wh(policy.budget_fraction, layout.total_len, policy.recent_window_w)
    passes = prompt_passes(model, layout, patterns, policy.st_layer_index, embeddings, (w,),
                           policy.clie_layer_index + 1, policy.policy_kind == "h2o_like",
                           tile_size)
    sessions = []
    for pattern, prompt in zip(patterns, passes):
        session = init_session(model, layout, policy, pattern, tile_size)
        prefill(model, session, prompt)
        sessions.append(apply_compression(model, session))
    return sessions


def committed(session):
    """Each layer's committed keys, values and positions, as bytes."""
    return [(kv.keys.tobytes(), kv.values.tobytes(), kv.positions.tobytes())
            for kv in session.cache]


def whole_state(session):
    """What a step may change: the step count and record, and every layer's row
    counts and whole buffers, rows past the committed ones included."""
    return (session.step_count, session.last_step,
            [(list(kv._lengths), kv._keys.tobytes(), kv._values.tobytes(),
              kv._positions.tobytes()) for kv in session.cache])


class TestPromptPasses:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_passes_made_together_equal_passes_made_alone_bit_for_bit(self, data):
        """Logits, keys, values, norms, every window's accumulators and the
        column sums, for pattern lists with repeats and without dense, at any
        sparsity start from clie_layer_index + 1 up to the model's depth; a
        repeated pattern gets the same pass, and every array is read-only."""
        model, layout = draw_model(data), draw_layout(data)
        num_layers, l = model.config.num_layers, layout.total_len
        clie = data.draw(st.integers(0, num_layers - 1), label="clie")
        split = data.draw(st.integers(clie + 1, num_layers), label="st")
        patterns = [parse_pattern(p, layout) for p in data.draw(
            st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=4), label="patterns")]
        windows = data.draw(st.sets(st.integers(1, l + 2), min_size=1, max_size=3),
                            label="windows")
        layers = data.draw(st.integers(clie + 1, num_layers), label="pass layers")
        column_sums = data.draw(st.booleans(), label="column sums")
        tile_size = data.draw(st.integers(1, 6), label="tile size")
        embeddings = seeded_gaussian(l, model.config.d_model,
                                     data.draw(st.integers(0, 99), label="prompt"))

        together = prompt_passes(model, layout, patterns, split, embeddings, windows, layers,
                                 column_sums, tile_size)
        assert len(together) == len(patterns)
        for index, (pattern, made) in enumerate(zip(patterns, together)):
            alone = prompt_pass(model, layout, pattern, split, embeddings, windows, layers,
                                column_sums, tile_size)
            assert made.model is model and made.wiring == alone.wiring
            assert made.wiring[1] == pattern and made.layers == alone.layers
            ours, theirs = pass_arrays(made), pass_arrays(alone)
            assert ours.keys() == theirs.keys()
            for name, array in ours.items():
                if theirs[name] is None:
                    assert array is None, name
                    continue
                assert array.shape == theirs[name].shape, name
                assert array.tobytes() == theirs[name].tobytes(), name
                assert not array.flags.writeable, name
            for w, table in made.accumulators.items():
                assert (table is None) == (w >= l)
                assert table is None or table.shape == (min(layers, num_layers),
                                                        model.config.num_kv_heads, l - w)
            for other, twin in zip(patterns[:index], together):
                assert (twin is made) == (other == pattern)


def draw_twins(data):
    """A model, a policy and two compressed sessions of it on two drawn patterns
    (perhaps the same one) from one prompt_passes call, and a third on the
    second pattern from a pass of its own."""
    model, layout = draw_model(data), draw_layout(data)
    num_layers = model.config.num_layers
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    budget = 1.0 if kind == "full" else data.draw(
        st.sampled_from([1.0, 0.5, 0.35, 0.2, 0.1, 0.05]), label="budget")
    clie = data.draw(st.integers(0, num_layers - 1), label="clie")
    policy = PolicyConfig(kind, budget, data.draw(st.integers(1, 4), label="w"),
                          data.draw(st.integers(0, 3), label="sink"), clie,
                          data.draw(st.integers(clie + 1, num_layers), label="st"))
    patterns = [parse_pattern(data.draw(st.sampled_from(PATTERNS), label=name), layout)
                for name in ("base pattern", "twin pattern")]
    embeddings = seeded_gaussian(layout.total_len, model.config.d_model,
                                 data.draw(st.integers(0, 99), label="prompt"))
    base, twin = compressed_twins(model, layout, patterns, policy, embeddings)
    alone, = compressed_twins(model, layout, patterns[1:], policy, embeddings)
    return model, base, twin, alone


class TestTwinDecode:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_a_step_that_borrows_equals_an_independent_step_bit_for_bit(self, data):
        """Sessions of one policy on two patterns keep the same positions below
        st_layer_index. A twin that borrows those layers from the other, at
        every step or at some, matches a session that decodes alone in its
        logits, every layer's committed rows and positions, and step_count."""
        model, base, twin, alone = draw_twins(data)
        split = twin.policy.st_layer_index
        assert committed(twin)[:split] == committed(base)[:split]
        steps = data.draw(st.integers(1, 6), label="steps")
        rows = seeded_gaussian(steps, model.config.d_model,
                               data.draw(st.integers(0, 99), label="decode"))
        for row in rows:
            decode_step(model, base, row)
            borrow = data.draw(st.booleans(), label="borrow")
            got = decode_step(model, twin, row, *([base] if borrow else []))
            assert got.tobytes() == decode_step(model, alone, row).tobytes()
            assert committed(twin) == committed(alone)
            assert twin.step_count == alone.step_count == base.step_count
            for kv in twin.cache:
                assert len(set(kv._lengths)) == 1

    def test_a_twin_can_lend_what_it_borrowed(self):
        """A session that borrowed its lower layers is itself a valid base."""
        model = init_model(SMALL)
        patterns = [SparsityPattern.dense(), SparsityPattern.spatial(), SparsityPattern.temporal()]
        policy = PolicyConfig("pure_kv", 0.5, 4, 2, 1, 2)
        first, second, third = compressed_twins(model, LAYOUT, patterns, policy,
                                                seeded_gaussian(LAYOUT.total_len, 32, 5))
        alone, = compressed_twins(model, LAYOUT, patterns[2:], policy,
                                  seeded_gaussian(LAYOUT.total_len, 32, 5))
        for row in seeded_gaussian(3, 32, 6):
            decode_step(model, first, row)
            decode_step(model, second, row, first)
            got = decode_step(model, third, row, second)
            assert got.tobytes() == decode_step(model, alone, row).tobytes()
            assert committed(third) == committed(alone)


@pytest.fixture
def twins():
    """A pure_kv base on the dense pattern that has taken one step, and its twin
    on spatial_temporal that has taken none."""
    model = init_model(SMALL)
    policy = PolicyConfig("pure_kv", 0.5, 4, 2, 1, 2)
    embeddings = seeded_gaussian(LAYOUT.total_len, SMALL.d_model, 7)
    base, twin = compressed_twins(model, LAYOUT, [SparsityPattern.dense(),
                                                  SparsityPattern.spatial_temporal()],
                                  policy, embeddings)
    rows = seeded_gaussian(3, SMALL.d_model, 8)
    decode_step(model, base, rows[0])
    return model, policy, embeddings, base, twin, rows


def other_base(model, layout, policy, rows):
    """A compressed dense session on the fixture's prompt that took a step on each of rows."""
    embeddings = seeded_gaussian(layout.total_len, model.config.d_model, 7)
    base, = compressed_twins(model, layout, [SparsityPattern.dense()], policy, embeddings)
    for row in rows:
        decode_step(model, base, row)
    return base


def next_up(array, index):
    array[index] = np.nextafter(array[index], np.inf)


# Each case breaks one condition on base, and the message says which.
BAD_BASES = {
    "another model": "decoded with this model",
    "another prompt length": r"prompt length 16 and st_layer_index 2, got 17 and 2",
    "another st_layer_index": r"prompt length 16 and st_layer_index 2, got 16 and 3",
    "the session itself": "has decoded",
    "a session that has not decoded": "has decoded",
    "two steps ahead": "exactly one step ahead: it has taken 2 steps, this session 0",
    "no step ahead": "exactly one step ahead: it has taken 1 steps, this session 1",
    "another embedding": "different token embedding",
    "a lower key changed": "layer 1 does not hold",
    "a lower value changed": "layer 0 does not hold",
    "a lower position changed": "layer 1 does not hold",
    "a lower row dropped": "layer 0 does not hold",
}


def bad_base(case, model, policy, base, twin, rows):
    """The base of the case, from the twins fixture's sessions."""
    if case == "another model":
        return other_base(init_model(SMALL), LAYOUT, policy, rows[:1])
    if case == "another prompt length":
        return other_base(model, TokenLayout(2, 3, 4, 3), policy, rows[:1])
    if case == "another st_layer_index":
        return other_base(model, LAYOUT, PolicyConfig("pure_kv", 0.5, 4, 2, 1, 3), rows[:1])
    if case == "the session itself":
        return twin
    if case == "a session that has not decoded":
        return other_base(model, LAYOUT, policy, rows[:0])
    if case == "two steps ahead":
        decode_step(model, base, rows[1])
    elif case == "no step ahead":
        decode_step(model, twin, rows[0])
    elif case == "another embedding":
        return other_base(model, LAYOUT, policy, rows[1:2])
    elif case == "a lower key changed":
        next_up(base.cache[1].keys, (1, 1, 0))
    elif case == "a lower value changed":
        next_up(base.cache[0].values, (0, 1, 0))
    elif case == "a lower position changed":
        base.cache[1].positions[0, 2] = base.cache[1].positions[0, 3]
    elif case == "a lower row dropped":
        base.cache[0].truncate(base.cache[0].positions.shape[1] - 1)
    return base


class TestTwinRejection:
    @pytest.mark.parametrize("case", BAD_BASES)
    def test_a_wrong_base_is_rejected_before_the_session_changes(self, twins, case):
        """Each condition on base fails on its own and raises ConfigurationError
        with the session's row counts, buffers, step_count and record as they
        were; the session still decodes to an independent session's logits."""
        model, policy, embeddings, base, twin, rows = twins
        bad = bad_base(case, model, policy, base, twin, rows)
        step = twin.step_count
        before = whole_state(twin)
        with pytest.raises(ConfigurationError, match=BAD_BASES[case]):
            decode_step(model, twin, rows[step], bad)
        assert whole_state(twin) == before
        alone, = compressed_twins(model, LAYOUT, [SparsityPattern.spatial_temporal()], policy,
                                  embeddings)
        for row in rows[: step + 1]:
            expected = decode_step(model, alone, row)
        assert decode_step(model, twin, rows[step]).tobytes() == expected.tobytes()
        assert committed(twin) == committed(alone)

    def test_a_failure_above_the_sparsity_start_rolls_the_borrowed_rows_back(self, twins,
                                                                          monkeypatch):
        """The borrowed rows are appended before the upper layers run; when the
        first of them raises, every layer is back at its row count and the step
        count, record and retried logits are a session's that never failed."""
        model, policy, embeddings, base, twin, rows = twins
        before = committed(twin), [list(kv._lengths) for kv in twin.cache]

        def failing(*args):
            raise RuntimeError("injected failure above the sparsity start")

        monkeypatch.setattr(purekv.attention, "_decode", failing)
        with pytest.raises(RuntimeError, match="injected"):
            decode_step(model, twin, rows[0], base)
        monkeypatch.undo()
        assert (committed(twin), [list(kv._lengths) for kv in twin.cache]) == before
        assert twin.step_count == 0 and twin.last_step is None
        alone, = compressed_twins(model, LAYOUT, [SparsityPattern.spatial_temporal()], policy,
                                  embeddings)
        got = decode_step(model, twin, rows[0], base)
        assert got.tobytes() == decode_step(model, alone, rows[0]).tobytes()
        assert committed(twin) == committed(alone)


def draw_grid(data):
    """A small experiment config: every pattern kind, with repeats and perhaps
    without dense, and drawn depth, layer indices, window, sink, budgets,
    tile size, decode steps, salient count and validation."""
    def draw(strategy, label):
        return data.draw(strategy, label=label)

    def draw_list(options, label, repeat=True):
        """One to three distinct options, and perhaps one of them again."""
        size = draw(st.sampled_from([2, 3, 1]), f"{label} count")
        drawn = draw(st.lists(st.sampled_from(options), min_size=size, max_size=size,
                              unique=True), label)
        if repeat and draw(st.booleans(), f"{label} repeat"):
            drawn.append(draw(st.sampled_from(drawn), f"{label} repeated"))
        return drawn

    num_layers, validate = draw(st.integers(2, 5), "layers"), draw(st.booleans(), "validate")
    kv_heads, group, d_k = (draw(st.integers(1, 2), name) for name in ("kv heads", "group", "d_k"))
    frames, patches = draw(st.integers(1, 3), "frames"), draw(st.integers(2, 5), "patches")
    layout = {"text_prefix_len": draw(st.integers(2 * validate, 3), "prefix"),
              "num_frames": frames, "patches_per_frame": patches,
              "text_suffix_len": draw(st.integers(0, 2), "suffix")}
    l = layout["text_prefix_len"] + frames * patches + layout["text_suffix_len"]
    # Validation needs a layer above the estimation layer and three non-recent
    # keys in every validated window, which never exceeds recent_window_w
    # (l >= 4 with the two prefix tokens).
    clie = draw(st.integers(0, num_layers - 1 - validate), "clie")
    window = draw(st.integers(1, min(4, l - 3) if validate else 4), "w")
    return load_config({
        "model": {"num_layers": num_layers, "d_model": kv_heads * group * d_k,
                  "num_q_heads": kv_heads * group, "num_kv_heads": kv_heads, "d_k": d_k,
                  "d_v": draw(st.integers(1, 3), "d_v"), "vocab_size": 5,
                  "seed": draw(st.integers(0, 99), "model seed")},
        "layout": layout,
        "workload": {"num_salient": draw(st.integers(0, min(3, frames * patches)), "salient"),
                     "salient_gain": 4.0, "seed": draw(st.integers(0, 99), "workload seed")},
        "policy": {"recent_window_w": window, "sink_len": draw(st.integers(0, 3), "sink"),
                   "clie_layer_index": clie,
                   "st_layer_index": draw(st.integers(clie + 1, num_layers), "st")},
        "experiment": {
            "policies": draw_list(KINDS, "policies", repeat=False),
            "patterns": draw_list(PATTERNS + ["local", "atrous"], "patterns"),
            "budgets": draw_list([1.0, 0.5, 0.35, 0.2, 0.1], "budgets"),
            "decode_steps": draw(st.integers(0, 4), "steps"),
            "tile_size": draw(st.integers(1, 8), "tile size"),
            "validate": validate, "n_perm": 100,
        },
    })


class TestWholeGrid:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_the_grid_equals_every_cell_run_alone(self, data):
        """run_experiment shares one prompt_passes call, decodes each distinct
        cache once, lends lower layers between twins and validates every
        pattern of a window in one call; its cells equal, exactly, those of a
        grid that runs every cell on its own."""
        config = draw_grid(data)
        assert run_experiment(config)["cells"] == naive_grid(config)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_group_keeps_one_set_of_positions_below_the_sparsity_start(self, data):
        """The premise of the grid's lender rule: below st_layer_index every
        score comes from the dense layers all patterns share, so every
        compressed cache of a (policy, budget) group keeps the same positions
        in each of those layers. Each drawn grid runs every policy and pattern
        kind, so every group holds each pattern."""
        raw = draw_grid(data).raw
        raw["experiment"].update(policies=KINDS, patterns=PATTERNS)
        config, kept, real = load_config(raw), {}, purekv.engine.apply_compression

        def apply_compression(model, session):
            real(model, session)
            policy = session.policy
            kept.setdefault((policy.policy_kind, policy.budget_fraction), set()).add(
                tuple(kv.positions.tobytes() for kv in session.cache[:policy.st_layer_index]))
            return session

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(purekv.engine, "apply_compression", apply_compression)
            run_experiment(config)
        assert kept and all(len(lower) == 1 for lower in kept.values())


def test_no_session_outlives_its_policy_budget_group(monkeypatch):
    """When a session opens, every session of an earlier (policy, budget)
    group is gone: the grid holds one group's caches at a time."""
    opened, real_init = [], purekv.engine.init_session

    def init_session(model, layout, policy, *args):
        group = (policy.policy_kind, policy.budget_fraction)
        gc.collect()
        alive = {key for key, ref in opened if ref() is not None}
        assert alive <= {group}, f"{sorted(alive - {group})} alive when {group} opens"
        session = real_init(model, layout, policy, *args)
        opened.append((group, weakref.ref(session)))
        return session

    monkeypatch.setattr(purekv.engine, "init_session", init_session)
    report = run_experiment(str(Path(__file__).resolve().parents[1] / "configs" / "example.json"))
    assert len(opened) == 1 + len(report["cells"])


def test_a_prompt_pass_holds_one_layers_hidden_rows_at_a_time(monkeypatch):
    """When a layer of a one-pattern pass finishes, the rows of every layer
    before the one it reads are gone, across the sparsity start too."""
    outputs, real_block = [], purekv.engine._block

    def block(x, weights, heads):
        gc.collect()
        alive = [index for index, ref in enumerate(outputs) if ref() is not None]
        assert alive in ([], [len(outputs) - 1]), f"layers {alive} alive at layer {len(outputs)}"
        out = real_block(x, weights, heads)
        outputs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(purekv.engine, "_block", block)
    model = init_model(SMALL)
    prompt_pass(model, LAYOUT, SparsityPattern.spatial_temporal(), 2,
                seeded_gaussian(LAYOUT.total_len, SMALL.d_model, 9), (4,), 2, True, 4)
    assert len(outputs) == SMALL.num_layers
