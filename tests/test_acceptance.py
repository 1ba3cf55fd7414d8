"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion (the test names themselves carry the criterion numbers).
"""

import contextlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from _oracles import brute_force_select, causal_masks, reference_forward
from purekv.attention import TilePlan, masked, streaming_masked
from purekv.cache import (
    PolicyConfig,
    accumulate_recent_attention,
    budget_keep_count,
    score_low,
    select_retained,
)
from purekv.engine import (
    ModelConfig,
    apply_compression,
    decode_step,
    init_model,
    init_session,
    prefill,
    prompt_pass,
    validate_cross_layer,
)
from purekv.errors import ConfigurationError
from purekv.harness import WorkloadSpec, generate_workload, run_experiment
from purekv.masks import SparsityPattern, TokenLayout, build_mask
from purekv.numerics import seeded_gaussian
from purekv.stats import rank, spearman_rho

REPO = Path(__file__).resolve().parents[1]
EXAMPLE_CONFIG = REPO / "configs" / "example.json"
# `python -m purekv` in a subprocess finds the package in this checkout, installed or not.
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}

SPARSE_PATTERNS = (
    SparsityPattern.local(4),
    SparsityPattern.atrous(2),
    SparsityPattern.spatial(),
    SparsityPattern.temporal(),
    SparsityPattern.spatial_temporal(),
)


@contextlib.contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {num:02d}] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE {num:02d}] {name}: PASS")


def test_criterion_01_streaming_agrees_with_materialized_oracle():
    """Streaming attention vs. the materialized oracle: 100 seeded instances,
    all five sparse patterns, max-abs <= 1e-5, total runtime < 10 s."""
    with criterion(1, "streaming vs materialized oracle (100 instances, <10s)"):
        rng = np.random.default_rng(2024)
        started = time.monotonic()
        instances = 0
        for pattern_index, base in enumerate(SPARSE_PATTERNS):
            for _ in range(20):
                frames = int(rng.integers(1, 9))
                patches = int(rng.integers(1, 9))
                while frames * patches > 56:
                    patches = max(1, patches // 2)
                prefix = int(rng.integers(0, 5))
                suffix = int(rng.integers(0, 4))
                layout = TokenLayout(prefix, frames, patches, suffix)
                assert layout.total_len <= 64
                if base.kind == "local":
                    pattern = SparsityPattern.local(int(rng.integers(1, patches + 3)))
                elif base.kind == "atrous":
                    pattern = SparsityPattern.atrous(int(rng.integers(2, 6)))
                else:
                    pattern = base
                d_k = int(rng.choice([4, 8, 16]))
                d_v = int(rng.integers(2, 11))
                n = layout.total_len
                q = rng.standard_normal((n, d_k))
                k = rng.standard_normal((n, d_k))
                v = rng.standard_normal((n, d_v))
                mask = build_mask(layout, pattern)
                expected, _ = masked(q, k, v, mask)
                tile = int(rng.choice([1, 4, 16, 64]))
                got = streaming_masked(q, k, v, TilePlan(mask, tile))
                assert np.max(np.abs(got - expected)) <= 1e-5
                instances += 1
        assert instances == 100
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_mask_algebra():
    """Union identity, causal containment, and the one- and two-frame spatial
    identities, enumerated over layouts with total_len <= 48 (all frame/patch
    shapes; text affixes swept 0..3 everywhere and exhaustively at two fixed
    video shapes)."""
    with criterion(2, "mask algebra over layouts with total_len <= 48"):
        layouts = []
        for frames in range(1, 49):
            for patches in range(1, 49):
                if frames * patches > 48:
                    continue
                for prefix in range(4):
                    for suffix in range(4):
                        if prefix + frames * patches + suffix <= 48:
                            layouts.append(TokenLayout(prefix, frames, patches, suffix))
        for frames, patches in ((2, 3), (1, 5)):
            room = 48 - frames * patches
            for prefix in range(room + 1):
                for suffix in range(room - prefix + 1):
                    layouts.append(TokenLayout(prefix, frames, patches, suffix))

        checked_identity = 0
        for layout in layouts:
            dense = build_mask(layout, SparsityPattern.dense())
            spatial = build_mask(layout, SparsityPattern.spatial())
            temporal = build_mask(layout, SparsityPattern.temporal())
            union = build_mask(layout, SparsityPattern.spatial_temporal())
            assert np.array_equal(union, spatial | temporal)
            for pattern in SPARSE_PATTERNS:
                mask = build_mask(layout, pattern)
                assert not (mask & ~dense).any()
            if layout.num_frames <= 2 and layout.patches_per_frame <= 8:
                assert np.array_equal(spatial, dense)
                checked_identity += 1
        assert checked_identity > 100


def test_criterion_03_scoring_pipeline_vs_brute_force():
    """Recent-window scoring, V-norm weighting, reuse, and top-h selection vs.
    an exhaustive-sort oracle: 50 seeded instances, exact set equality."""
    with criterion(3, "scoring pipeline vs brute force (50 instances, exact)"):
        rng = np.random.default_rng(777)

        def random_causal_stochastic(l):
            logits = rng.standard_normal((l, l))
            weights = np.exp(logits) * np.tril(np.ones((l, l)))
            return weights / weights.sum(axis=1, keepdims=True)

        def oracle_accumulate(A, w, l):
            return [sum(A[i][j] for i in range(l - w, l)) for j in range(l - w)]

        def oracle_scores(C, V):
            return [c * math.sqrt(sum(x * x for x in row)) for c, row in zip(C, V)]

        instances = 0
        for _ in range(48):
            l = int(rng.integers(6, 41))
            w = int(rng.integers(1, l - 1))
            h = int(rng.integers(0, l - w + 1))
            a_low = random_causal_stochastic(l)
            v_low = rng.standard_normal((l, 5))
            v_high = rng.standard_normal((l, 5))

            c_low = accumulate_recent_attention(a_low, w)
            got_low = select_retained(score_low(c_low, v_low), w, h, l)
            got_high = select_retained(score_low(c_low, v_high), w, h, l)

            oc = oracle_accumulate(a_low.tolist(), w, l)
            exp_low = brute_force_select(
                oracle_scores(oc, v_low[: l - w].tolist()), w, h, l
            )
            exp_high = brute_force_select(
                oracle_scores(oc, v_high[: l - w].tolist()), w, h, l
            )
            assert got_low.tolist() == exp_low
            assert got_high.tolist() == exp_high
            instances += 1

        # two crafted instances with exact score ties: smaller index must win
        for l, w, h in ((10, 3, 4), (12, 2, 5)):
            uniform = np.tril(np.ones((l, l))) / np.arange(1, l + 1)[:, None]
            ones = np.ones((l, 4))
            c = accumulate_recent_attention(uniform, w)
            got = select_retained(score_low(c, ones), w, h, l)
            assert got.tolist() == list(range(h)) + list(range(l - w, l))
            instances += 1
        assert instances == 50


def test_criterion_04_budget_exactness_and_compression_ratio():
    """Retained rows equal ceil(budget * l) for every budget/length pair, and
    the reported compression ratio at budget 0.2 is 5.0 within 0.01."""
    with criterion(4, "budget exactness; 5.0x ratio at budget 0.2"):
        layouts = {
            40: TokenLayout(4, 4, 8, 4),
            100: TokenLayout(2, 6, 16, 2),
            200: TokenLayout(4, 12, 16, 4),
        }
        model_config = ModelConfig(num_layers=2, d_model=16, num_q_heads=2,
                                   num_kv_heads=1, d_k=8, d_v=8, vocab_size=13, seed=11)
        model = init_model(model_config)
        for l, layout in layouts.items():
            assert layout.total_len == l
            emb = seeded_gaussian(l, model_config.d_model, 50 + l)
            for budget in (0.5, 0.35, 0.2, 0.1, 0.05):
                expected = math.ceil(Fraction(str(budget)) * l)
                assert budget_keep_count(budget, l) == expected
                policy = PolicyConfig("pure_kv", budget, 8, 2, 0, 1)
                session = init_session(model, layout, policy, SparsityPattern.dense())
                prefill(model, session, emb)
                apply_compression(model, session)
                for layer in session.cache:
                    for g in range(model_config.num_kv_heads):
                        assert layer.rows(g) == expected

        for l, layout in layouts.items():
            cfg = {
                "model": {"num_layers": 2, "d_model": 16, "num_q_heads": 2,
                          "num_kv_heads": 1, "d_k": 8, "d_v": 8, "vocab_size": 13,
                          "seed": 11},
                "layout": {"text_prefix_len": layout.text_prefix_len,
                           "num_frames": layout.num_frames,
                           "patches_per_frame": layout.patches_per_frame,
                           "text_suffix_len": layout.text_suffix_len},
                "workload": {"num_salient": 0, "salient_gain": 1.0, "seed": 3},
                "policy": {"recent_window_w": 8, "sink_len": 2, "clie_layer_index": 0,
                           "st_layer_index": 1},
                "experiment": {"policies": ["pure_kv"], "patterns": ["dense"],
                               "budgets": [0.2], "decode_steps": 0, "tile_size": 16,
                               "validate": False},
            }
            cell = run_experiment(cfg)["cells"][0]
            assert cell["retained_per_head"] == l // 5
            assert abs(cell["compression_ratio"] - 5.0) <= 0.01


def test_criterion_05_full_cache_identity():
    """Full policy, dense pattern: prefill plus 16 decode steps match a
    cache-free reference forward within 1e-9, over 10 seeds."""
    with criterion(5, "full-cache pipeline == cache-free reference (1e-9)"):
        layout = TokenLayout(2, 2, 4, 2)
        for seed in range(10):
            config = ModelConfig(num_layers=3, d_model=24, num_q_heads=4,
                                 num_kv_heads=2, d_k=6, d_v=5, vocab_size=17, seed=seed)
            model = init_model(config)
            policy = PolicyConfig("full", 1.0, 4, 2, 0, 1)
            session = init_session(model, layout, policy, SparsityPattern.dense())
            emb = seeded_gaussian(layout.total_len, config.d_model, 900 + seed)
            logits = prefill(model, session, emb)
            expected, _ = reference_forward(
                model, emb, causal_masks(config.num_layers, layout.total_len)
            )
            assert np.max(np.abs(logits - expected)) <= 1e-9
            apply_compression(model, session)
            rows = emb
            steps = seeded_gaussian(16, config.d_model, 1900 + seed)
            for i in range(16):
                step_logits = decode_step(model, session, steps[i])
                rows = np.vstack([rows, steps[i][None, :]])
                ref, _ = reference_forward(
                    model, rows, causal_masks(config.num_layers, rows.shape[0])
                )
                assert np.max(np.abs(step_logits - ref[-1])) <= 1e-9


def test_criterion_06_spearman_correctness():
    """Closed forms exact to 1e-12, tie handling equal to a Pearson-on-ranks
    oracle on 100 tied vectors, and monotone-transform invariance."""
    with criterion(6, "rank correlation closed forms, ties, invariance"):
        x = np.array([3.0, 1.0, 4.0, 1.5])
        assert abs(spearman_rho(x, x) - 1.0) <= 1e-12
        assert abs(spearman_rho(x, -x) + 1.0) <= 1e-12
        assert abs(spearman_rho([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0]) - 0.6) <= 1e-12

        def oracle_rank(values):
            n = len(values)
            order = sorted(range(n), key=lambda i: (values[i], i))
            out = [0.0] * n
            i = 0
            while i < n:
                j = i
                while j < n and values[order[j]] == values[order[i]]:
                    j += 1
                for idx in order[i:j]:
                    out[idx] = (i + 1 + j) / 2.0
                i = j
            return out

        def oracle_pearson(a, b):
            n = len(a)
            ma, mb = sum(a) / n, sum(b) / n
            cov = sum((p - ma) * (q - mb) for p, q in zip(a, b))
            va = sum((p - ma) ** 2 for p in a)
            vb = sum((q - mb) ** 2 for q in b)
            return cov / math.sqrt(va * vb)

        rng = np.random.default_rng(4096)
        checked = 0
        while checked < 100:
            n = int(rng.integers(4, 30))
            a = rng.integers(0, 7, size=n).astype(float)
            b = rng.integers(0, 7, size=n).astype(float)
            if len(set(a)) < 2 or len(set(b)) < 2:
                continue
            expected = oracle_pearson(oracle_rank(list(a)), oracle_rank(list(b)))
            assert abs(spearman_rho(a, b) - expected) <= 1e-12
            np.testing.assert_array_equal(rank(a), oracle_rank(list(a)))
            checked += 1

        y = rng.standard_normal(25)
        z = rng.standard_normal(25)
        base = spearman_rho(y, z)
        assert abs(spearman_rho(np.exp(y), z) - base) <= 1e-12
        assert abs(spearman_rho(y, 5.0 * z + 2.0) - base) <= 1e-12


# Pinned on the first oracle run of this exact configuration (layout 8+8x16+4,
# 8 layers, seed 7 model, seed 1234 workload, 999 permutations, stats seed 0):
# {layer: (((rho, p) per KV head), median_rho, median_p)}.
PINNED_VALIDATION = {
    3: (((0.4193044846577498, 0.001), (0.4665743509047994, 0.001)),
        0.44293941778127455, 0.001),
    4: (((0.10931864673485445, 0.125), (0.3091424075531078, 0.001)),
        0.2092305271439811, 0.063),
    5: (((0.39705428796223446, 0.001), (0.15734382376081826, 0.051)),
        0.2771990558615264, 0.026),
    6: (((0.30172147915027536, 0.001), (0.3759307631785995, 0.001)),
        0.33882612116443744, 0.001),
    7: (((0.22406923682140048, 0.009), (0.1989110936270653, 0.014)),
        0.2114901652242329, 0.0115),
}
PINNED_MEDIAN_RHO = 0.30543194335169155


def test_criterion_07_cross_layer_validation_regression():
    """Planted-salient workload (T=8, P=16, 8 salient, gain 4, 8-layer model,
    fixed seeds): per-layer (rho, p) match the pinned first-run constants to
    1e-9 and the median rho is positive. Published full-scale thresholds
    (rho > 0.4 / 0.2, p < 0.05) are NOT asserted for toy random weights."""
    with criterion(7, "cross-layer validation pinned regression; median rho > 0"):
        config = ModelConfig(num_layers=8, d_model=64, num_q_heads=8, num_kv_heads=2,
                             d_k=8, d_v=8, vocab_size=64, seed=7)
        layout = TokenLayout(8, 8, 16, 4)
        spec = WorkloadSpec(layout=layout, num_salient=8, salient_gain=4.0, seed=1234)
        model = init_model(config)
        emb, _ = generate_workload(spec, config.d_model)
        # st_layer_index 4, recent window 16, every layer, tile 16; analysis layer 2.
        prompt = prompt_pass(model, layout, SparsityPattern.spatial_temporal(), 4, emb, (16,),
                             config.num_layers, tile_size=16)
        report = validate_cross_layer([prompt], [16], 2, n_perm=999, seed=0)[0][0]

        assert [lv["layer"] for lv in report["per_layer"]] == sorted(PINNED_VALIDATION)
        for lv in report["per_layer"]:
            heads, median_rho, median_p = PINNED_VALIDATION[lv["layer"]]
            for hv, (rho, p) in zip(lv["heads"], heads):
                assert abs(hv["rho"] - rho) <= 1e-9
                assert abs(hv["p"] - p) <= 1e-9
            assert abs(lv["median_rho"] - median_rho) <= 1e-9
            assert abs(lv["median_p"] - median_p) <= 1e-9
        assert abs(report["median_rho"] - PINNED_MEDIAN_RHO) <= 1e-9
        assert report["median_rho"] > 0.0


def test_criterion_08_layer_constraint_enforcement():
    """Every (estimation, sparsity) layer-index pair up to 8 layers: the
    configuration is rejected unless the sparsity index is strictly larger."""
    with criterion(8, "st_layer_index > clie_layer_index enforced exhaustively"):
        model = init_model(ModelConfig(num_layers=8, d_model=16, num_q_heads=2,
                                       num_kv_heads=1, d_k=8, d_v=8, vocab_size=9, seed=0))
        layout = TokenLayout(1, 2, 3, 1)
        for clie in range(8):
            for st in range(9):
                kwargs = dict(policy_kind="pure_kv", budget_fraction=0.5,
                              recent_window_w=2, sink_len=1,
                              clie_layer_index=clie, st_layer_index=st)
                if st <= clie:
                    with pytest.raises(ConfigurationError):
                        PolicyConfig(**kwargs)
                else:
                    policy = PolicyConfig(**kwargs)
                    init_session(model, layout, policy, SparsityPattern.dense())


def test_criterion_09_mac_accounting():
    """Prefill attention MACs scale exactly with mask pairs (so the ratio to
    dense equals the density ratio), and decode attention MACs at budget 0.2
    are 0.2 of full within ceil rounding. Wall-clock speedups are hardware
    facts, out of scope: only the deterministic counters are asserted."""
    with criterion(9, "MAC counters: density-exact prefill, 0.2 decode ratio"):
        from purekv.harness import estimate_macs

        layout = TokenLayout(8, 8, 16, 4)
        config = ModelConfig(num_layers=8, d_model=64, num_q_heads=8, num_kv_heads=2,
                             d_k=8, d_v=8, vocab_size=64, seed=7)
        dense = SparsityPattern.dense()
        st = SparsityPattern.spatial_temporal()
        dense_est = estimate_macs(layout, dense, config, "prefill")
        st_est = estimate_macs(layout, st, config, "prefill")
        dense_pairs = int(build_mask(layout, dense).sum())
        st_pairs = int(build_mask(layout, st).sum())
        # density ratio == pair-count ratio (same denominator); compare exactly
        assert st_est.attention * dense_pairs == dense_est.attention * st_pairs

        for l in (140, 37):
            keep = budget_keep_count(0.2, l)
            assert keep == math.ceil(Fraction("0.2") * l)
            fifth = estimate_macs(layout, dense, config, "decode", retained_count=keep)
            full = estimate_macs(layout, dense, config, "decode", retained_count=l)
            ratio = fifth.attention / full.attention
            assert ratio == keep / l
            assert abs(ratio - 0.2) <= 1.0 / l  # ceil rounding slack
        assert budget_keep_count(0.2, 140) == 28  # exact fifth: ratio 0.2


def test_criterion_10_cli_determinism():
    """Two CLI runs on the shipped example config produce byte-identical
    reports."""
    with criterion(10, "byte-identical reports on the shipped config"):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            outputs = []
            for name in ("a.json", "b.json"):
                out = Path(tmp) / name
                proc = subprocess.run(
                    [sys.executable, "-m", "purekv", "run",
                     "--config", str(EXAMPLE_CONFIG), "--out", str(out)],
                    capture_output=True, text=True, cwd=REPO, env=CLI_ENV,
                )
                assert proc.returncode == 0, proc.stderr
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]
            report = json.loads(outputs[0])
            assert len(report["cells"]) == 38
