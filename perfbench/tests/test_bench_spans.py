import numpy as np
import pytest

import purekv
from purekv import attention, engine
from purekv.cache import PolicyConfig
from purekv.masks import SparsityPattern, TokenLayout
from purekv.numerics import seeded_gaussian

from reference import reference_logits
from sessions import SessionRecorder
from speed import NoProbe
from spans import SITES, Tracer, aggregate, leftover_wrappers, resolve

LAYOUT = TokenLayout(2, 3, 4, 2)
CONFIG = engine.ModelConfig(num_layers=3, d_model=16, num_q_heads=4, num_kv_heads=2,
                            d_k=4, d_v=4, vocab_size=11, seed=3)


def _bound_names():
    return {(owner, attr): vars(resolve(owner))[attr] for owner, attr, _ in SITES}


def _run_session(policy_kind="pure_kv", budget=0.5, steps=3):
    model = engine.init_model(CONFIG)
    policy = PolicyConfig(policy_kind, budget, 3, 1, 0, 2)
    session = engine.init_session(model, LAYOUT, policy, SparsityPattern.spatial_temporal())
    rows = seeded_gaussian(LAYOUT.total_len + steps, CONFIG.d_model, 5)
    outputs = [engine.prefill(model, session, rows[:LAYOUT.total_len])]
    engine.apply_compression(model, session)
    outputs += [engine.decode_step(model, session, row) for row in rows[LAYOUT.total_len:]]
    return model, rows, outputs


def test_tracer_restores_every_patched_name_and_leaves_results_bit_identical():
    before = _bound_names()
    _, _, plain = _run_session()
    tracer = Tracer()
    tracer.install()
    assert leftover_wrappers(purekv)
    try:
        _, _, traced = _run_session()
    finally:
        assert tracer.patches.restore() == []
    assert _bound_names() == before
    assert leftover_wrappers(purekv) == []
    assert all(np.array_equal(a, b) for a, b in zip(plain, traced))
    names = {span[0] for span in tracer.spans}
    assert {"engine.prefill", "attention.masked", "attention.streaming_masked",
            "cache.append", "cache.select_retained", "numerics.seeded_gaussian"} <= names


def test_spans_carry_parent_and_session():
    tracer = Tracer()
    tracer.install()
    try:
        _run_session()
        _run_session()
    finally:
        tracer.patches.restore()
    prefills = [i for i, span in enumerate(tracer.spans) if span[0] == "engine.prefill"]
    assert [tracer.spans[i][4] for i in prefills] == [0, 1]
    children = [span for span in tracer.spans if span[3] == prefills[0]]
    assert children and all(span[4] == 0 for span in children)
    assert all(span[1] <= span[2] for span in tracer.spans)


def test_a_call_that_raises_still_closes_its_span_and_restores():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(purekv.ConfigurationError):
            attention.masked(np.ones((2, 2)), np.ones((3, 2)), np.ones((3, 2)),
                             np.ones((1, 1), dtype=bool))
    finally:
        assert tracer.patches.restore() == []
    assert tracer._stack == []
    assert tracer.spans[-1][0] == "attention.masked" and tracer.spans[-1][6] is None


def test_self_time_is_span_time_minus_child_time():
    spans = [["outer", 0.0, 10.0, None, 0, "pass", None],
             ["inner", 1.0, 4.0, 0, 0, "pass", None],
             ["inner", 5.0, 7.0, 0, 0, "pass", None]]
    out = aggregate(spans, 1, [12.0], lambda key: 1.0)
    assert out["outer.ms"] == pytest.approx(10000.0)
    assert out["outer.self_ms"] == pytest.approx(5000.0)
    assert out["inner.calls"] == 2
    assert out["trace.uncovered_share"] == pytest.approx(2.0 / 12.0)


def test_session_recorder_restores_and_finds_no_problem():
    recorder = SessionRecorder(NoProbe())
    recorder.install()
    try:
        _run_session()
    finally:
        assert recorder.patches.restore() == []
    assert leftover_wrappers(purekv) == []
    (session,) = recorder.sessions
    assert session.problems == []
    assert len(session.decode) == 3 and session.ttft_s(lambda interval: interval.busy) > 0


def test_reference_matches_prefill_and_full_cache_decode():
    model, rows, outputs = _run_session("full", 1.0, steps=3)
    expected = reference_logits(model, LAYOUT, [SparsityPattern.spatial_temporal()], 2, rows)
    logits = expected["spatial_temporal"]
    l = LAYOUT.total_len
    assert np.max(np.abs(outputs[0] - logits[:l])) <= 1e-9
    for step, got in enumerate(outputs[1:]):
        assert np.max(np.abs(got - logits[l + step])) <= 1e-9
