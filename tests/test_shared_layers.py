"""Work below st_layer_index done once: prompt passes made together for several
patterns, sessions that hold a lender's lower layers, and the whole grid that
reuses both, each against the work done alone, bit for bit."""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
from _oracles import naive_grid
from hypothesis import example, given, settings
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


def prefilled(model, layout, patterns, policy, embeddings, tile_size=4):
    """One prefilled session per pattern, each from its pass of one prompt_passes call."""
    w, _ = budget_to_wh(policy.budget_fraction, layout.total_len, policy.recent_window_w)
    passes = prompt_passes(model, layout, patterns, policy.st_layer_index, embeddings, (w,),
                           policy.clie_layer_index + 1, policy.policy_kind == "h2o_like",
                           tile_size)
    sessions = []
    for pattern, prompt in zip(patterns, passes):
        session = init_session(model, layout, policy, pattern, tile_size)
        prefill(model, session, prompt)
        sessions.append(session)
    return sessions


def compressed(model, layout, patterns, policy, embeddings, lend=False):
    """prefilled's sessions, compressed in turn; with lend, each session after the
    first borrows the layers of the one before it."""
    sessions = prefilled(model, layout, patterns, policy, embeddings)
    for lender, session in zip([None, *sessions], sessions):
        apply_compression(model, session, lender if lend else None)
    return sessions


def committed(session):
    """Each layer's committed keys, values and positions, as bytes."""
    return [(kv.keys.tobytes(), kv.values.tobytes(), kv.positions.tobytes())
            for kv in session.cache]


def lengths(session):
    """Each layer's row count per head."""
    return [list(kv._lengths) for kv in session.cache]


def whole_state(session):
    """What a call may change: the phase, the prompt, lender and record held, the
    step count, and every layer's identity, row counts and whole buffers, rows
    past the committed ones included."""
    return (session.phase, id(session.prompt), id(session.lender), id(session.last_step),
            session.step_count,
            [(id(kv), list(kv._lengths), kv._keys.tobytes(), kv._values.tobytes(),
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


def draw_lent(data):
    """A model, a lender and a borrower compressed from it on two drawn patterns
    (perhaps the same one) of one prompt_passes call, and a session alone on
    each of the two patterns, from a pass of its own."""
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
                for name in ("lender pattern", "borrower pattern")]
    embeddings = seeded_gaussian(layout.total_len, model.config.d_model,
                                 data.draw(st.integers(0, 99), label="prompt"))
    lender, borrower = compressed(model, layout, patterns, policy, embeddings, lend=True)
    alone = [compressed(model, layout, [pattern], policy, embeddings)[0] for pattern in patterns]
    return model, lender, borrower, alone


class TestLentLayers:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_a_borrower_that_follows_its_lender_equals_a_session_alone_bit_for_bit(self, data):
        """Sessions of one policy on two patterns keep the same rows below
        st_layer_index, so one holds the other's layer objects there and no layer
        above. Stepping after its lender at every step, it matches a session
        that decodes alone in its logits, every layer's committed rows and
        positions, and step_count, and so does the lender."""
        model, lender, borrower, (lone_lender, alone) = draw_lent(data)
        split = borrower.policy.st_layer_index
        assert borrower.lender is lender and lender.lender is None
        for layer, kv in enumerate(borrower.cache):
            assert any(kv is lent for lent in lender.cache) == (layer < split)
            assert (kv is lender.cache[layer]) == (layer < split)
        steps = data.draw(st.integers(1, 6), label="steps")
        rows = seeded_gaussian(steps, model.config.d_model,
                               data.draw(st.integers(0, 99), label="decode"))
        for row in rows:
            lent = decode_step(model, lender, row)
            assert lent.tobytes() == decode_step(model, lone_lender, row).tobytes()
            got = decode_step(model, borrower, row)
            assert got.tobytes() == decode_step(model, alone, row).tobytes()
            assert committed(borrower) == committed(alone)
            assert committed(lender) == committed(lone_lender)
            assert borrower.step_count == alone.step_count == lender.step_count
            for kv in borrower.cache:
                assert len(set(kv._lengths)) == 1

    def test_a_borrower_can_lend_what_it_borrowed(self):
        """A session that holds its lender's lower layers can lend them on: the
        third of a chain holds the first's layer objects and decodes as if alone."""
        model = init_model(SMALL)
        patterns = [SparsityPattern.dense(), SparsityPattern.spatial(), SparsityPattern.temporal()]
        policy = PolicyConfig("pure_kv", 0.5, 4, 2, 1, 2)
        embeddings = seeded_gaussian(LAYOUT.total_len, 32, 5)
        first, second, third = compressed(model, LAYOUT, patterns, policy, embeddings, lend=True)
        alone, = compressed(model, LAYOUT, patterns[2:], policy, embeddings)
        assert third.lender is second and second.lender is first
        assert all(kv is lent for kv, lent in zip(third.cache[:2], first.cache))
        for row in seeded_gaussian(3, 32, 6):
            decode_step(model, first, row)
            decode_step(model, second, row)
            got = decode_step(model, third, row)
            assert got.tobytes() == decode_step(model, alone, row).tobytes()
            assert committed(third) == committed(alone)


POLICY = PolicyConfig("pure_kv", 0.5, 4, 2, 1, 2)


@pytest.fixture
def pair():
    """A compressed pure_kv lender on the dense pattern that has not decoded, and a
    prefilled session on spatial_temporal that may borrow from it."""
    model = init_model(SMALL)
    embeddings = seeded_gaussian(LAYOUT.total_len, SMALL.d_model, 7)
    lender, session = prefilled(model, LAYOUT, [SparsityPattern.dense(),
                                                SparsityPattern.spatial_temporal()],
                                POLICY, embeddings)
    apply_compression(model, lender)
    rows = seeded_gaussian(3, SMALL.d_model, 8)
    return model, embeddings, lender, session, rows


def alone_on(model, embeddings, pattern=SparsityPattern.spatial_temporal()):
    """A compressed session on the fixture's prompt that borrows nothing."""
    return compressed(model, LAYOUT, [pattern], POLICY, embeddings)[0]


def other_lender(model, layout, policy, compress=True):
    """A dense session on the fixture's prompt, compressed unless compress is false."""
    embeddings = seeded_gaussian(layout.total_len, model.config.d_model, 7)
    session, = prefilled(model, layout, [SparsityPattern.dense()], policy, embeddings)
    return apply_compression(model, session) if compress else session


def next_up(array, index):
    array[index] = np.nextafter(array[index], np.inf)


# Each case breaks one condition on the lender at compression, and the message says which.
BAD_LENDERS = {
    "another prompt length": r"prompt length 16 and st_layer_index 2, got 17 and 2",
    "another st_layer_index": r"prompt length 16 and st_layer_index 2, got 16 and 3",
    "the session itself": "compressed session that has not decoded",
    "an uncompressed lender": "compressed session that has not decoded",
    "a lender that has decoded": "compressed session that has not decoded",
    "a lower key changed": "layer 1 does not hold",
    "a lower value changed": "layer 0 does not hold",
    "a lower position changed": "layer 1 does not hold",
    "a lower row dropped": "layer 0 does not hold",
}


def bad_lender(case, model, lender, session, rows):
    """The lender of the case, from the pair fixture's sessions."""
    if case == "another prompt length":
        return other_lender(model, TokenLayout(2, 3, 4, 3), POLICY)
    if case == "another st_layer_index":
        return other_lender(model, LAYOUT, PolicyConfig("pure_kv", 0.5, 4, 2, 1, 3))
    if case == "the session itself":
        return session
    if case == "an uncompressed lender":
        return other_lender(model, LAYOUT, POLICY, compress=False)
    if case == "a lender that has decoded":
        decode_step(model, lender, rows[0])
    elif case == "a lower key changed":
        next_up(lender.cache[1].keys, (1, 1, 0))
    elif case == "a lower value changed":
        next_up(lender.cache[0].values, (0, 1, 0))
    elif case == "a lower position changed":
        lender.cache[1].positions[0, 2] = lender.cache[1].positions[0, 3]
    elif case == "a lower row dropped":
        lender.cache[0].truncate(lender.cache[0].positions.shape[1] - 1)
    return lender


def test_a_borrower_allocates_rows_only_for_the_layers_it_owns(pair):
    """A borrower evicts only layers st_layer_index..L-1: the buffers behind its
    own layers hold those layers' rows and no room for the lent ones, as a lone
    session's upper layers do."""
    model, embeddings, lender, session, _ = pair
    apply_compression(model, session, lender)
    split, alone = POLICY.st_layer_index, alone_on(model, embeddings)
    assert all(mine is lent for mine, lent in zip(session.cache[:split], lender.cache))
    for kv, lone in zip(session.cache[split:], alone.cache[split:]):
        for mine, theirs in ((kv._keys, lone._keys), (kv._values, lone._values)):
            assert mine.base.shape == theirs.base.shape
            assert mine.base.shape[1] == SMALL.num_layers - split  # (2m, layers, Hkv, d)
            assert mine.strides == theirs.strides


# Each case breaks one condition on a borrower's step, and the message says which.
BAD_STEPS = {
    "another model": "with another model",
    "a lender no step ahead": "exactly one step ahead: it has taken 0 steps, this session 0",
    "a lender two steps ahead": "exactly one step ahead: it has taken 2 steps, this session 0",
    "another embedding": "different token embedding",
}


class TestLenderRejection:
    @pytest.mark.parametrize("case", BAD_LENDERS)
    def test_a_wrong_lender_is_rejected_before_the_session_compresses(self, pair, case):
        """Each condition on the lender fails on its own and raises
        ConfigurationError with the session and the lender as they were; the
        session then compresses alone and decodes to a lone session's logits."""
        model, embeddings, lender, session, rows = pair
        bad = bad_lender(case, model, lender, session, rows)
        before = whole_state(session), whole_state(bad)
        with pytest.raises(ConfigurationError, match=BAD_LENDERS[case]):
            apply_compression(model, session, bad)
        assert (whole_state(session), whole_state(bad)) == before
        apply_compression(model, session)
        alone = alone_on(model, embeddings)
        assert decode_step(model, session, rows[0]).tobytes() == \
            decode_step(model, alone, rows[0]).tobytes()
        assert committed(session) == committed(alone)

    @pytest.mark.parametrize("case", BAD_STEPS)
    def test_a_step_out_of_lockstep_is_rejected_before_the_session_changes(self, pair, case):
        """Each condition on a borrower's step fails on its own and raises
        ConfigurationError with the borrower and its lender as they were; once
        the lender's latest step can be followed, the borrower follows it to a
        lone session's logits."""
        model, embeddings, lender, session, rows = pair
        apply_compression(model, session, lender)
        if case == "another model":
            decode_step(init_model(SMALL), lender, rows[0])
        elif case == "a lender two steps ahead":
            decode_step(model, lender, rows[0])
            decode_step(model, lender, rows[1])
        elif case == "another embedding":
            decode_step(model, lender, rows[1])
        before = whole_state(session), whole_state(lender)
        with pytest.raises(ConfigurationError, match=BAD_STEPS[case]):
            decode_step(model, session, rows[0])
        assert (whole_state(session), whole_state(lender)) == before
        if case == "a lender no step ahead":
            decode_step(model, lender, rows[0])
        if lender.step_count == 1:
            followed, row = lender.last_step.model, np.frombuffer(lender.last_step.embedding)
            alone = alone_on(model, embeddings)
            assert decode_step(followed, session, row).tobytes() == \
                decode_step(model, alone, row).tobytes()
            assert committed(session) == committed(alone)

    def test_a_borrower_failing_above_the_sparsity_start_leaves_its_lender_untouched(
            self, pair, monkeypatch):
        """A borrower's step runs only its own layers; when the first of them
        raises, the lender's layers and record are as they were, the borrower is
        back at its row counts, step count and record, and its retried logits
        are a lone session's."""
        model, embeddings, lender, session, rows = pair
        apply_compression(model, session, lender)
        decode_step(model, lender, rows[0])
        before = whole_state(lender), committed(session), lengths(session)

        def failing(*args):
            raise RuntimeError("injected failure above the sparsity start")

        monkeypatch.setattr(purekv.attention, "_decode", failing)
        with pytest.raises(RuntimeError, match="injected"):
            decode_step(model, session, rows[0])
        monkeypatch.undo()
        assert (whole_state(lender), committed(session), lengths(session)) == before
        assert session.step_count == 0 and session.last_step is None
        alone = alone_on(model, embeddings)
        got = decode_step(model, session, rows[0])
        assert got.tobytes() == decode_step(model, alone, rows[0]).tobytes()
        assert committed(session) == committed(alone)

    def test_a_lender_failing_rolls_the_shared_rows_back(self, pair, monkeypatch):
        """A lender whose step fails above the sparsity start, after it appended
        the shared layers' rows, drops them again: both sessions are back at
        their rows, and once the lender retries, the borrower follows to a lone
        session's logits."""
        model, embeddings, lender, session, rows = pair
        apply_compression(model, session, lender)
        before = committed(lender), lengths(lender), committed(session), lengths(session)
        calls, real_kernel = [], purekv.attention._decode

        def failing_at_the_split(*args):
            calls.append(1)
            if len(calls) > POLICY.st_layer_index:
                raise RuntimeError("injected failure at the sparsity start")
            return real_kernel(*args)

        monkeypatch.setattr(purekv.attention, "_decode", failing_at_the_split)
        with pytest.raises(RuntimeError, match="injected"):
            decode_step(model, lender, rows[0])
        monkeypatch.undo()
        assert len(calls) == POLICY.st_layer_index + 1
        assert (committed(lender), lengths(lender), committed(session), lengths(session)) == before
        assert lender.step_count == 0 and lender.last_step is None
        lone_lender, alone = (alone_on(model, embeddings, pattern) for pattern in
                              (SparsityPattern.dense(), SparsityPattern.spatial_temporal()))
        assert decode_step(model, lender, rows[0]).tobytes() == \
            decode_step(model, lone_lender, rows[0]).tobytes()
        assert decode_step(model, session, rows[0]).tobytes() == \
            decode_step(model, alone, rows[0]).tobytes()
        assert committed(session) == committed(alone)


@st.composite
def grids(draw):
    """A small experiment config: every pattern kind, with repeats and perhaps
    without dense, and drawn depth, layer indices, window, sink, budgets,
    tile size, decode steps, salient count and validation."""
    def draw_list(options, repeat=True):
        """One to three distinct options, and perhaps one of them again."""
        size = draw(st.sampled_from([2, 3, 1]))
        drawn = draw(st.lists(st.sampled_from(options), min_size=size, max_size=size,
                              unique=True))
        if repeat and draw(st.booleans()):
            drawn.append(draw(st.sampled_from(drawn)))
        return drawn

    num_layers, validate = draw(st.integers(2, 5)), draw(st.booleans())
    kv_heads, group, d_k = (draw(st.integers(1, 2)) for _ in range(3))
    frames, patches = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    layout = {"text_prefix_len": draw(st.integers(2 * validate, 3)),
              "num_frames": frames, "patches_per_frame": patches,
              "text_suffix_len": draw(st.integers(0, 2))}
    l = layout["text_prefix_len"] + frames * patches + layout["text_suffix_len"]
    # Validation needs a layer above the estimation layer and three non-recent
    # keys in every validated window, which never exceeds recent_window_w
    # (l >= 4 with the two prefix tokens).
    clie = draw(st.integers(0, num_layers - 1 - validate))
    window = draw(st.integers(1, min(4, l - 3) if validate else 4))
    return load_config({
        "model": {"num_layers": num_layers, "d_model": kv_heads * group * d_k,
                  "num_q_heads": kv_heads * group, "num_kv_heads": kv_heads, "d_k": d_k,
                  "d_v": draw(st.integers(1, 3)), "vocab_size": 5,
                  "seed": draw(st.integers(0, 99))},
        "layout": layout,
        "workload": {"num_salient": draw(st.integers(0, min(3, frames * patches))),
                     "salient_gain": 4.0, "seed": draw(st.integers(0, 99))},
        "policy": {"recent_window_w": window, "sink_len": draw(st.integers(0, 3)),
                   "clie_layer_index": clie,
                   "st_layer_index": draw(st.integers(clie + 1, num_layers))},
        "experiment": {
            "policies": draw_list(KINDS, repeat=False),
            "patterns": draw_list(PATTERNS + ["local", "atrous"]),
            "budgets": draw_list([1.0, 0.5, 0.35, 0.2, 0.1]),
            "decode_steps": draw(st.integers(0, 4)),
            "tile_size": draw(st.integers(1, 8)),
            "validate": validate, "n_perm": 100,
        },
    })


# A fault in pure_kv's scores below st_layer_index shows only in a grid with a
# budget that scores rows (h > 0), a layer at or above st_layer_index whose rows
# the pattern changes, and a layer between clie_layer_index and st_layer_index;
# drawn grids have all three only now and then, so this one always runs.
SCORED_GRID = load_config({
    "model": {"num_layers": 4, "d_model": 8, "num_q_heads": 2, "num_kv_heads": 1, "d_k": 4,
              "d_v": 3, "vocab_size": 5, "seed": 1},
    "layout": {"text_prefix_len": 2, "num_frames": 3, "patches_per_frame": 4,
               "text_suffix_len": 1},
    "workload": {"num_salient": 2, "salient_gain": 4.0, "seed": 2},
    "policy": {"recent_window_w": 2, "sink_len": 1, "clie_layer_index": 0, "st_layer_index": 2},
    "experiment": {"policies": ["pure_kv", "h2o_like"],
                   "patterns": ["dense", "local:3", "spatial_temporal"], "budgets": [0.5, 0.2],
                   "decode_steps": 2, "tile_size": 4, "validate": True, "n_perm": 100},
})


class TestWholeGrid:
    @settings(max_examples=100, deadline=None)
    @given(grids())
    @example(SCORED_GRID)
    def test_the_grid_equals_every_cell_run_alone(self, config):
        """run_experiment shares one prompt_passes call, decodes each distinct
        cache once, lends lower layers within a group and validates every
        pattern of a window in one call; its cells equal, exactly, those of a
        grid that runs every cell on its own."""
        assert run_experiment(config)["cells"] == naive_grid(config)

    @settings(max_examples=100, deadline=None)
    @given(grids())
    @example(SCORED_GRID)
    def test_a_group_keeps_one_set_of_positions_below_the_sparsity_start(self, config):
        """The premise of the grid's lender rule: below st_layer_index every
        score comes from the dense layers all patterns share, so every
        compressed cache of a (policy, budget) group keeps the same positions
        in each of those layers (a borrower's compression rejects a lender that
        keeps others). Each grid runs every policy and pattern kind, so every
        group holds each pattern."""
        raw = {**config.raw, "experiment": {**config.raw["experiment"], "policies": KINDS,
                                             "patterns": PATTERNS}}
        config, kept, real = load_config(raw), {}, purekv.engine.apply_compression

        def apply_compression(model, session, *args):
            real(model, session, *args)
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
    # One session per distinct cell: the reference is the full dense cell.
    assert len(opened) == len(report["cells"])


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
