"""Workload generation, MAC accounting, experiment orchestration, reports."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import purekv.engine
from purekv.cache import KvCacheLayer
from purekv.engine import ModelConfig
from purekv.errors import ConfigurationError
from purekv.harness import (
    CONFIG_FIELDS,
    MacEstimate,
    WorkloadSpec,
    decode_embeddings,
    emit_report,
    estimate_macs,
    generate_workload,
    load_config,
    render_report,
    run_experiment,
    salient_recall,
)
from purekv.masks import SparsityPattern, TokenLayout, build_mask, mask_density


MODEL = ModelConfig(num_layers=4, d_model=32, num_q_heads=4, num_kv_heads=2,
                    d_k=8, d_v=8, vocab_size=40, seed=3)
LAYOUT = TokenLayout(2, 4, 8, 2)
ROOT = Path(__file__).resolve().parents[1]


def base_config(**experiment):
    exp = {"policies": ["pure_kv"], "patterns": ["dense"], "budgets": [0.5],
           "decode_steps": 2, "tile_size": 8, "validate": False}
    exp.update(experiment)
    return {
        "model": {"num_layers": 4, "d_model": 32, "num_q_heads": 4, "num_kv_heads": 2,
                  "d_k": 8, "d_v": 8, "vocab_size": 40, "seed": 3},
        "layout": {"text_prefix_len": 2, "num_frames": 4, "patches_per_frame": 8,
                   "text_suffix_len": 2},
        "workload": {"num_salient": 4, "salient_gain": 4.0, "seed": 22},
        "policy": {"recent_window_w": 4, "sink_len": 2, "clie_layer_index": 1,
                   "st_layer_index": 2},
        "experiment": exp,
    }


class TestWorkload:
    def test_deterministic(self):
        spec = WorkloadSpec(layout=LAYOUT, num_salient=4, salient_gain=3.0, seed=9)
        a, sal_a = generate_workload(spec, MODEL.d_model)
        b, sal_b = generate_workload(spec, MODEL.d_model)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(sal_a, sal_b)

    def test_no_salient_is_pure_gaussian(self):
        plain = WorkloadSpec(layout=LAYOUT, num_salient=0, salient_gain=1.0, seed=9)
        emb, salient = generate_workload(plain, MODEL.d_model)
        assert salient.size == 0
        assert emb.shape == (LAYOUT.total_len, MODEL.d_model)

    def test_gain_one_is_the_degenerate_control(self):
        # With gain 1 the planted component vanishes: rows equal background.
        plain = WorkloadSpec(layout=LAYOUT, num_salient=0, salient_gain=1.0, seed=9)
        control = WorkloadSpec(layout=LAYOUT, num_salient=4, salient_gain=1.0, seed=9)
        emb_plain, _ = generate_workload(plain, MODEL.d_model)
        emb_control, salient = generate_workload(control, MODEL.d_model)
        np.testing.assert_array_equal(emb_plain, emb_control)
        assert salient.size == 4

    def test_salient_positions_are_video_tokens(self):
        spec = WorkloadSpec(layout=LAYOUT, num_salient=6, salient_gain=2.0, seed=10)
        _, salient = generate_workload(spec, MODEL.d_model)
        video = range(LAYOUT.text_prefix_len, LAYOUT.text_prefix_len + LAYOUT.video_len)
        assert all(int(p) in video for p in salient)
        assert np.all(np.diff(salient) > 0)

    def test_too_many_salient_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(layout=LAYOUT, num_salient=33, salient_gain=2.0, seed=0)

    def test_decode_rows_deterministic(self):
        spec = WorkloadSpec(layout=LAYOUT, num_salient=0, salient_gain=1.0, seed=9)
        np.testing.assert_array_equal(
            decode_embeddings(spec, 16, 4), decode_embeddings(spec, 16, 4)
        )


class TestSalientRecall:
    def test_superset_gives_one(self):
        assert salient_recall([0, 1, 2, 3], [1, 3]) == 1.0

    def test_disjoint_gives_zero(self):
        assert salient_recall([0, 1], [5, 6]) == 0.0

    def test_three_of_four(self):
        assert salient_recall([1, 2, 3, 9], [1, 2, 3, 4]) == 0.75

    def test_a_table_gives_each_rows_recall(self):
        table = np.array([[0, 1, 2, 3], [1, 2, 3, 9], [4, 5, 6, 7]])
        salient = [1, 2, 3, 4]
        got = salient_recall(table, salient)
        assert got.tolist() == [salient_recall(row, salient) for row in table] == [0.75, 0.75, 0.25]

    def test_empty_salient_rejected(self):
        with pytest.raises(ConfigurationError):
            salient_recall([0, 1], [])


class TestMacAccounting:
    def test_dense_vs_dense_ratio_is_one(self):
        a = estimate_macs(LAYOUT, SparsityPattern.dense(), MODEL, "prefill")
        b = estimate_macs(LAYOUT, SparsityPattern.dense(), MODEL, "prefill")
        assert a == b and a.total == b.total

    def test_attention_term_scales_exactly_with_mask_pairs(self):
        dense = estimate_macs(LAYOUT, SparsityPattern.dense(), MODEL, "prefill")
        for pattern in (SparsityPattern.spatial_temporal(), SparsityPattern.local(4)):
            sparse = estimate_macs(LAYOUT, pattern, MODEL, "prefill")
            dense_pairs = int(build_mask(LAYOUT, SparsityPattern.dense()).sum())
            sparse_pairs = int(build_mask(LAYOUT, pattern).sum())
            # exact integer proportionality: attn / pairs is the same constant
            assert sparse.attention * dense_pairs == dense.attention * sparse_pairs

    def test_density_halving_halves_attention_macs(self):
        # local window 1 on a pure-video layout keeps the diagonal only
        layout = TokenLayout(0, 2, 4, 0)
        dense = estimate_macs(layout, SparsityPattern.dense(), MODEL, "prefill")
        diag = estimate_macs(layout, SparsityPattern.local(1), MODEL, "prefill")
        n = layout.total_len
        assert diag.attention * (n * (n + 1) // 2) == dense.attention * n

    def test_decode_ratio_tracks_retained_rows(self):
        full = estimate_macs(LAYOUT, SparsityPattern.dense(), MODEL, "decode",
                             retained_count=100)
        fifth = estimate_macs(LAYOUT, SparsityPattern.dense(), MODEL, "decode",
                              retained_count=20)
        assert fifth.attention * 5 == full.attention

    def test_unknown_phase_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_macs(LAYOUT, SparsityPattern.dense(), MODEL, "train")


REQUIRED_FIELDS = [(section, key) for section, table in CONFIG_FIELDS.items()
                   for key, spec in table.items() if len(spec) < 3]


class TestConfigParsing:
    def test_missing_section_names_path(self):
        cfg = base_config()
        del cfg["layout"]
        with pytest.raises(ConfigurationError, match=r"config\.layout"):
            load_config(cfg)

    def test_bad_field_names_path(self):
        cfg = base_config()
        cfg["model"]["d_model"] = "wide"
        with pytest.raises(ConfigurationError, match=r"config\.model\.d_model"):
            load_config(cfg)

    def test_bad_budget_names_index(self):
        cfg = base_config(budgets=[0.5, 7])
        with pytest.raises(ConfigurationError, match=r"budgets\[1\]"):
            load_config(cfg)

    def test_unknown_policy_names_index(self):
        cfg = base_config(policies=["pure_kv", "snap_kv"])
        with pytest.raises(ConfigurationError, match=r"policies\[1\]"):
            load_config(cfg)

    def test_layer_order_rejected_at_parse_time(self):
        cfg = base_config()
        cfg["policy"]["st_layer_index"] = 1
        cfg["policy"]["clie_layer_index"] = 1
        with pytest.raises(ConfigurationError, match="greater than"):
            load_config(cfg)

    @pytest.mark.parametrize("section, key, value, message", [
        ("experiment", "patterns", ["dense", "bogus"],
         r"config\.experiment\.patterns\[1\]: unknown pattern 'bogus'"),
        ("experiment", "patterns", ["atrous:1"],
         r"config\.experiment\.patterns\[0\]: atrous pattern needs stride >= 2"),
        ("model", "num_q_heads", 3,
         r"config\.model: num_q_heads \(3\) must be divisible by num_kv_heads \(2\)"),
        ("layout", "patches_per_frame", 0,
         r"config\.layout: layout with frames needs patches_per_frame >= 1"),
        ("workload", "num_salient", 33,
         r"config\.workload: num_salient \(33\) exceeds video tokens \(32\)"),
        ("policy", "st_layer_index", 1,
         r"config\.policy: st_layer_index \(1\) must be greater than clie_layer_index \(1\)"),
        ("policy", "st_layer_index", 5,
         r"config\.policy: st_layer_index \(5\) must be at most num_layers \(4\)"),
    ], ids=["pattern-kind", "pattern-stride", "model", "layout", "workload", "policy-order",
            "policy-depth"])
    def test_errors_raised_past_field_parsing_name_their_path(self, section, key, value, message):
        cfg = base_config()
        cfg[section][key] = value
        with pytest.raises(ConfigurationError, match=message):
            load_config(cfg)

    @pytest.mark.parametrize("value", ["false", [0], 1, None])
    def test_validate_must_be_a_json_boolean(self, value):
        with pytest.raises(ConfigurationError, match=r"config\.experiment\.validate"):
            load_config(base_config(validate=value))

    def test_validate_needs_a_layer_above_the_estimation_layer(self, monkeypatch):
        # Rejected at load time, so run_experiment runs no prompt pass first.
        cfg = base_config(validate=True)
        cfg["policy"]["clie_layer_index"] = 3
        cfg["policy"]["st_layer_index"] = 4
        monkeypatch.setattr(purekv.engine, "prompt_pass", None)
        with pytest.raises(ConfigurationError, match=r"config\.experiment\.validate: no layers "
                           r"above analysis layer 3 to validate"):
            run_experiment(cfg)
        cfg["experiment"]["validate"] = False
        assert load_config(cfg).clie_layer_index == 3

    def test_validate_needs_three_non_recent_keys_in_every_validated_window(self, monkeypatch):
        # The full cell validates window min(34, l) = 34 at l = 36: rejected at
        # load time, naming the window, before any prompt pass.
        cfg = base_config(validate=True, policies=["pure_kv", "full"])
        cfg["policy"]["recent_window_w"] = 34
        monkeypatch.setattr(purekv.engine, "prompt_pass", None)
        with pytest.raises(ConfigurationError, match=r"config\.experiment\.validate: recent "
                           r"window 34 leaves 2 non-recent keys at l = 36"):
            run_experiment(cfg)
        cfg["experiment"]["policies"] = ["pure_kv"]  # budget 0.5 keeps 18 rows: window 18
        assert load_config(cfg).validate is True
        cfg["experiment"]["policies"] = ["pure_kv", "full"]
        cfg["experiment"]["validate"] = False
        assert load_config(cfg).recent_window_w == 34

    def test_validate_defaults_to_false(self):
        cfg = base_config()
        del cfg["experiment"]["validate"]
        assert load_config(cfg).validate is False
        assert load_config(base_config(validate=True)).validate is True

    @pytest.mark.parametrize("field, value, message", [
        ("n_perm", 99, r"config\.experiment\.n_perm: must be >= 100, got 99"),
        ("n_perm", True, r"config\.experiment\.n_perm: expected an integer"),
        ("stats_seed", "x", r"config\.experiment\.stats_seed: expected an integer, got 'x'"),
        ("stats_seed", None, r"config\.experiment\.stats_seed: expected an integer"),
    ])
    def test_optional_statistics_fields_name_their_path(self, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            load_config(base_config(**{field: value}))

    def test_optional_statistics_fields_default(self):
        config = load_config(base_config())
        assert (config.n_perm, config.stats_seed) == (999, 0)
        config = load_config(base_config(n_perm=100, stats_seed=-3))
        assert (config.n_perm, config.stats_seed) == (100, -3)

    def test_missing_file_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config("/nonexistent/purekv.json")

    @pytest.mark.parametrize("section", [None, *CONFIG_FIELDS])
    def test_an_unknown_field_names_its_path(self, section):
        cfg = base_config()
        (cfg if section is None else cfg[section])["valdiate"] = True
        path = "config" if section is None else f"config.{section}"
        with pytest.raises(ConfigurationError, match=rf"^{path}\.valdiate: unknown field$"):
            load_config(cfg)

    def test_the_first_unknown_field_in_document_order_is_named(self):
        cfg = base_config()
        cfg["policy"] = {"sink_length": 2, **cfg["policy"], "n_prem": 200}
        with pytest.raises(ConfigurationError, match=r"^config\.policy\.sink_length: unknown"):
            load_config(cfg)
        cfg = {"modle": {}, **base_config()}
        with pytest.raises(ConfigurationError, match=r"^config\.modle: unknown field$"):
            load_config(cfg)

    @pytest.mark.parametrize("section, key", REQUIRED_FIELDS,
                             ids=[f"{section}.{key}" for section, key in REQUIRED_FIELDS])
    def test_a_missing_required_field_names_its_path(self, section, key):
        cfg = base_config()
        del cfg[section][key]
        with pytest.raises(ConfigurationError,
                           match=rf"^config\.{section}\.{key}: missing required field$"):
            load_config(cfg)

    def test_an_integer_gain_reaches_the_workload_as_a_float(self):
        cfg = base_config()
        cfg["workload"]["salient_gain"] = 4
        gain = load_config(cfg).workload.salient_gain
        assert type(gain) is float and gain == 4.0


class TestRunExperiment:
    def test_full_dense_cell_has_zero_divergence(self):
        report = run_experiment(base_config(policies=["full"], budgets=[1.0]))
        cell = report["cells"][0]
        assert cell["output_divergence_vs_full"] == 0.0
        assert cell["retained_per_head"] == LAYOUT.total_len
        assert cell["salient_recall"] == 1.0

    def test_budget_fifth_reports_five_fold_compression(self):
        # l = 40 here so ceil(0.2 * l) = 8 exactly
        cfg = base_config(budgets=[0.2])
        cfg["layout"] = {"text_prefix_len": 4, "num_frames": 4, "patches_per_frame": 8,
                         "text_suffix_len": 4}
        report = run_experiment(cfg)
        cell = report["cells"][0]
        assert cell["retained_per_head"] == 8
        assert cell["compression_ratio"] == pytest.approx(5.0, abs=1e-9)

    def test_full_policy_runs_once_per_pattern(self):
        report = run_experiment(base_config(policies=["full"], budgets=[0.5, 0.2],
                                            patterns=["dense", "spatial"]))
        cells = [(c["policy"], c["pattern"], c["budget_fraction"]) for c in report["cells"]]
        assert cells == [("full", "dense", 1.0), ("full", "spatial", 1.0)]

    def test_mask_density_column_matches_module(self):
        report = run_experiment(base_config(patterns=["spatial_temporal"]))
        cell = report["cells"][0]
        expected = mask_density(build_mask(LAYOUT, SparsityPattern.spatial_temporal()))
        assert cell["mask_density"] == expected

    def test_planted_workload_recall_regression(self):
        """Seeded regression: values recorded from the first oracle run."""
        cfg = {
            "model": {"num_layers": 8, "d_model": 64, "num_q_heads": 8, "num_kv_heads": 2,
                      "d_k": 8, "d_v": 8, "vocab_size": 64, "seed": 7},
            "layout": {"text_prefix_len": 8, "num_frames": 8, "patches_per_frame": 16,
                       "text_suffix_len": 4},
            "workload": {"num_salient": 8, "salient_gain": 4.0, "seed": 1234},
            "policy": {"recent_window_w": 16, "sink_len": 4, "clie_layer_index": 2,
                       "st_layer_index": 4},
            "experiment": {"policies": ["pure_kv", "streaming_like"],
                           "patterns": ["spatial_temporal"], "budgets": [0.2],
                           "decode_steps": 2, "tile_size": 16, "validate": False},
        }
        report = run_experiment(cfg)
        recall = {c["policy"]: c["salient_recall"] for c in report["cells"]}
        assert recall["pure_kv"] >= recall["streaming_like"]
        assert recall["pure_kv"] == pytest.approx(0.171875, abs=1e-12)
        assert recall["streaming_like"] == pytest.approx(0.0, abs=1e-12)

    def test_validation_attached_when_enabled(self):
        report = run_experiment(base_config(validate=True, n_perm=199))
        cell = report["cells"][0]
        assert cell["validation"] is not None
        layers = [e["layer"] for e in cell["validation"]["per_layer"]]
        assert layers == [2, 3]  # layers above clie_layer_index = 1

    def test_validation_runs_once_per_grid_for_every_pattern_and_window(self, monkeypatch):
        """Validation depends on the pattern and w, never on the budget: one
        call per grid validates every pattern's pass at every cell window,
        and each (pattern, w) is validated exactly once."""
        calls = []
        real_validate = purekv.engine.validate_cross_layer

        def spy(prompts, windows, *args):
            calls.append([(prompt.wiring[1].describe(), w) for w in windows for prompt in prompts])
            return real_validate(prompts, windows, *args)

        monkeypatch.setattr(purekv.engine, "validate_cross_layer", spy)
        # l = 36, w_config = 4: budgets 1.0, 0.5 and 0.1 give w = 4, 0.05 gives w = 2.
        report = run_experiment(base_config(
            policies=["full", "pure_kv", "streaming_like"], patterns=["dense", "temporal"],
            budgets=[1.0, 0.5, 0.1, 0.05], validate=True, n_perm=199,
        ))
        by_key = {}
        for cell in report["cells"]:
            by_key.setdefault((cell["pattern"], cell["recent_window"]), []).append(cell)
        assert len(report["cells"]) == 18
        [keys] = calls
        assert sorted(keys) == sorted(by_key) and len(keys) == 4
        for cells in by_key.values():
            assert all(c["validation"] == cells[0]["validation"] for c in cells)


def count_forwards(monkeypatch, *entries):
    """Count engine.prompt_passes calls, in all and inside each named engine
    entry, the patterns of each call, and the layers all of them compute (one
    head projection each)."""
    counts = {"all": 0, "layers": 0, "patterns": [], **{name: 0 for name in entries}}
    inside = []
    real_passes, real_project = purekv.engine.prompt_passes, purekv.engine._project_heads

    def forward(model, layout, patterns, *args, **kwargs):
        counts["all"] += 1
        counts["patterns"].append([pattern.describe() for pattern in patterns])
        for name in inside:
            counts[name] += 1
        return real_passes(model, layout, patterns, *args, **kwargs)

    def project(*args):
        counts["layers"] += 1
        return real_project(*args)

    def spying(name, real):
        def entry(*args, **kwargs):
            inside.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()
        return entry

    monkeypatch.setattr(purekv.engine, "prompt_passes", forward)
    monkeypatch.setattr(purekv.engine, "_project_heads", project)
    for name in entries:
        monkeypatch.setattr(purekv.engine, name, spying(name, getattr(purekv.engine, name)))
    return counts


class TestSharedPromptPass:
    def test_example_grid_runs_one_forward_per_pattern(self, monkeypatch):
        """Two patterns, 38 cells and the reference: one prompt_passes call,
        none of it inside compression or validation, which computes the 4
        dense layers below st_layer_index once and the 4 above it once per
        pattern: 12 layers, where a pass per pattern computed 16."""
        counts = count_forwards(monkeypatch, "apply_compression", "validate_cross_layer")
        report = run_experiment(str(ROOT / "configs" / "example.json"))
        assert len(report["cells"]) == 38
        assert {c["pattern"] for c in report["cells"]} == {"dense", "spatial_temporal"}
        assert counts == {"all": 1, "layers": 4 + 2 * 4,
                          "patterns": [["dense", "spatial_temporal"]],
                          "apply_compression": 0, "validate_cross_layer": 0}

    def test_a_grid_without_the_dense_pattern_adds_the_reference_pass(self, monkeypatch):
        counts = count_forwards(monkeypatch)
        run_experiment(base_config(policies=["pure_kv", "h2o_like"], patterns=["temporal"],
                                   budgets=[0.5, 0.1], validate=True, n_perm=199))
        # 2 shared layers below st_layer_index, then 2 for each of the two patterns.
        assert counts == {"all": 1, "layers": 2 + 2 * 2, "patterns": [["dense", "temporal"]]}

    def test_masks_are_built_once_per_pattern(self, monkeypatch):
        import purekv.harness
        built = []
        real_build = purekv.harness.build_mask

        def spy(layout, pattern):
            built.append(pattern.describe())
            return real_build(layout, pattern)

        monkeypatch.setattr(purekv.harness, "build_mask", spy)
        run_experiment(base_config(policies=["pure_kv", "streaming_like"],
                                   patterns=["dense", "spatial"], budgets=[0.5, 0.2, 0.1]))
        # estimate_macs and mask_density each read one mask per pattern.
        assert sorted(built) == ["dense", "dense", "spatial", "spatial"]


def count_decodes(monkeypatch):
    """Record (policy, pattern) of the session behind every engine.decode_step call."""
    decoded = []
    real_decode = purekv.engine.decode_step

    def decode_step(model, session, *args):
        decoded.append((session.policy.policy_kind, session.pattern.describe()))
        return real_decode(model, session, *args)

    monkeypatch.setattr(purekv.engine, "decode_step", decode_step)
    return decoded


class TestDecodeSharing:
    def test_example_grid_decodes_each_distinct_cache_once(self, monkeypatch):
        """38 sessions hold 28 distinct caches: every policy keeps every row at
        budget 1.0, and at 0.1 and 0.05 pure_kv and h2o_like keep only the
        recent window. The report stays the golden copy."""
        decoded = count_decodes(monkeypatch)
        report = run_experiment(str(ROOT / "configs" / "example.json"))
        golden = (ROOT / "perfbench" / "golden" / "example-grid.report.json").read_text()
        assert render_report(report, "json") == golden
        assert len(decoded) == 28 * 8
        # The reference and the first keep-all cell of each pattern are full sessions.
        assert {key for key in decoded if key[0] == "full"} == {("full", "dense"),
                                                              ("full", "spatial_temporal")}

    def test_example_grid_twins_borrow_the_layers_below_the_sparsity_start(self, monkeypatch):
        """28 distinct caches, 8 steps and 8 layers are 1,792 decode layer
        steps. Below st_layer_index = 4 every cache of a (policy, budget) group
        keeps the same rows, so each of the 14 sessions compressed after its
        group's first new cache holds that dense cache's layers there (the full
        one that of the reference, which is the full dense cell). All 14 are
        new spatial_temporal caches, whose steps run only the 4 layers above:
        1,792 - 14 * 8 * 4 = 1,344 calls of the decode kernel, at 2 KV heads an
        append each. The report stays the golden copy."""
        kernel_calls, appends, lent, lent_steps = [], [], [], []
        real_kernel, real_append = purekv.attention._decode, KvCacheLayer.append
        real_compress, real_decode = purekv.engine.apply_compression, purekv.engine.decode_step

        def kernel(*args):
            kernel_calls.append(1)
            return real_kernel(*args)

        def append(*args):
            appends.append(1)
            return real_append(*args)

        def apply_compression(model, session, *args):
            if args:
                lent.append((session.policy.policy_kind, session.pattern.describe(),
                             args[0].pattern.describe()))
            return real_compress(model, session, *args)

        def decode_step(model, session, *args):
            if session.lender is not None:
                lent_steps.append(session.policy.policy_kind)
            return real_decode(model, session, *args)

        monkeypatch.setattr(purekv.attention, "_decode", kernel)
        monkeypatch.setattr(KvCacheLayer, "append", append)
        monkeypatch.setattr(purekv.engine, "apply_compression", apply_compression)
        monkeypatch.setattr(purekv.engine, "decode_step", decode_step)
        report = run_experiment(str(ROOT / "configs" / "example.json"))
        golden = (ROOT / "perfbench" / "golden" / "example-grid.report.json").read_text()
        assert render_report(report, "json") == golden
        assert len(kernel_calls) == 28 * 8 * 8 - 14 * 8 * 4 == 1344
        assert len(appends) == 2 * 1344 == 2688
        assert len(lent) == 14 and lent[0] == ("full", "spatial_temporal", "dense")
        assert {(pattern, lender) for _, pattern, lender in lent} == {
            ("spatial_temporal", "dense")}
        assert len(lent_steps) == 14 * 8 == 112
        assert set(lent_steps) == {"full", "pure_kv", "h2o_like", "streaming_like"}

    def test_a_cell_listed_twice_opens_one_session_and_is_reported_twice(self, monkeypatch):
        opened, real_init = [], purekv.engine.init_session

        def init_session(model, layout, policy, pattern, *args):
            opened.append((policy.policy_kind, pattern.describe(), policy.budget_fraction))
            return real_init(model, layout, policy, pattern, *args)

        monkeypatch.setattr(purekv.engine, "init_session", init_session)
        twice = run_experiment(base_config(policies=["pure_kv", "full", "pure_kv"],
                                           patterns=["temporal", "dense", "temporal"],
                                           validate=True, n_perm=199))
        listed = [(c["policy"], c["pattern"], c["budget_fraction"]) for c in twice["cells"]]
        # Three policies by three patterns, full at budget 1.0 only: 9 cells, 4 distinct,
        # of which the full dense one is the reference.
        assert len(listed) == 9 and len(opened) == len(set(opened)) == 4
        assert set(opened) == set(listed)
        once = run_experiment(base_config(policies=["pure_kv", "full"],
                                          patterns=["temporal", "dense"],
                                          validate=True, n_perm=199))
        values = {(c["policy"], c["pattern"], c["budget_fraction"]): c for c in once["cells"]}
        assert twice["cells"] == [values[cell] for cell in listed]

    def test_a_grid_of_distinct_caches_decodes_every_cell(self, monkeypatch):
        caches = []
        real_compress = purekv.engine.apply_compression

        def apply_compression(model, session, *args):
            real_compress(model, session, *args)
            caches.append((session.pattern.describe(),
                           *(kv.positions.tobytes() for kv in session.cache)))
            return session

        monkeypatch.setattr(purekv.engine, "apply_compression", apply_compression)
        decoded = count_decodes(monkeypatch)
        report = run_experiment(base_config(policies=["pure_kv", "streaming_like"],
                                            patterns=["dense", "temporal"], budgets=[0.5, 0.35]))
        # Eight cells and the keep-all reference, each with its own cache.
        assert len(report["cells"]) == 8
        assert len(set(caches)) == len(caches) == 9
        assert len(decoded) == 9 * 2


def test_every_cell_reports_the_rows_its_cache_commits(monkeypatch):
    """retained_per_head is w + h; every layer and KV head of the cell's cache
    commits exactly that many rows right after compression."""
    committed = []
    real_compress = purekv.engine.apply_compression

    def apply_compression(model, session, *args):
        real_compress(model, session, *args)
        policy = session.policy
        committed.append(((policy.policy_kind, session.pattern.describe(), policy.budget_fraction),
                          {kv.rows(g) for kv in session.cache for g in range(kv.num_heads)}))
        return session

    monkeypatch.setattr(purekv.engine, "apply_compression", apply_compression)
    report = run_experiment(str(ROOT / "configs" / "example.json"))
    # One compression per distinct cell, the reference (the full dense cell)
    # first; the cells follow a (policy, budget) group at a time, so each is
    # matched to its compression by its grid key.
    cells = {(c["policy"], c["pattern"], c["budget_fraction"]): {c["retained_per_head"]}
             for c in report["cells"]}
    assert len(committed) == len(cells) == len(report["cells"])
    assert committed[0] == (("full", "dense", 1.0), {report["cells"][0]["sequence_len"]})
    assert dict(committed) == cells
    assert len({c["retained_per_head"] for c in report["cells"]}) > 2


@pytest.fixture(scope="module")
def example_report():
    return run_experiment(str(ROOT / "configs" / "example.json"))


class TestReports:
    def test_byte_identical_across_runs(self):
        cfg = base_config(validate=True, n_perm=199)
        a = render_report(run_experiment(cfg), "json")
        b = render_report(run_experiment(cfg), "json")
        assert a == b
        assert render_report(run_experiment(cfg), "csv") == render_report(
            run_experiment(cfg), "csv"
        )

    def test_example_report_matches_benchmark_golden(self, example_report):
        # The benchmark checks the same bytes; here every refactor must keep them.
        golden = (ROOT / "perfbench" / "golden" / "example-grid.report.json").read_text()
        assert render_report(example_report, "json") == golden

    def test_example_report_matches_csv_golden(self, example_report):
        golden = (ROOT / "tests" / "golden" / "example.report.csv").read_text()
        assert render_report(example_report, "csv") == golden

    def test_empty_grid_gives_header_only_csv(self):
        report = run_experiment(base_config(policies=[]))
        text = render_report(report, "csv")
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("policy,pattern,budget_fraction")

    def test_an_empty_grid_validates_nothing_whatever_the_analysis_layer(self):
        """With validation on and clie_layer_index on the top layer, a grid with no
        cell has no window to validate: it loads and reports no cells, as it does
        with validation off. One cell makes the same config a rejection."""
        raw = base_config(policies=[], validate=True, n_perm=199)
        raw["policy"].update(clie_layer_index=3, st_layer_index=4)
        assert load_config(raw).validate
        assert run_experiment(raw)["cells"] == []
        raw["experiment"]["policies"] = ["pure_kv"]
        with pytest.raises(ConfigurationError, match="no layers above analysis layer 3"):
            load_config(raw)

    def test_json_csv_round_trip_preserves_printed_precision(self):
        report = run_experiment(base_config(validate=True, n_perm=199))
        parsed_json = json.loads(render_report(report, "json"))
        reader = csv.DictReader(io.StringIO(render_report(report, "csv")))
        for row, cell in zip(reader, parsed_json["cells"]):
            for key in ("budget_fraction", "compression_ratio", "mask_density",
                        "output_divergence_vs_full", "salient_recall"):
                assert float(row[key]) == float(cell[key])
            assert float(row["median_rho"]) == float(cell["validation"]["median_rho"])
            assert int(row["prefill_macs_total"]) == cell["prefill_macs_total"]

    def test_floats_carry_six_significant_digits(self):
        report = run_experiment(base_config(validate=True, n_perm=199))
        rendered = json.loads(render_report(report, "json"))
        value = rendered["cells"][0]["validation"]["median_rho"]
        assert value == float(f"{value:.6g}")

    def test_golden_csv_for_integer_stable_config(self):
        """First-run golden: every column is an integer or exact rational."""
        cfg = {
            "model": {"num_layers": 2, "d_model": 16, "num_q_heads": 2, "num_kv_heads": 1,
                      "d_k": 8, "d_v": 4, "vocab_size": 11, "seed": 5},
            "layout": {"text_prefix_len": 1, "num_frames": 2, "patches_per_frame": 3,
                       "text_suffix_len": 1},
            "workload": {"num_salient": 2, "salient_gain": 2.0, "seed": 6},
            "policy": {"recent_window_w": 2, "sink_len": 1, "clie_layer_index": 0,
                       "st_layer_index": 1},
            "experiment": {"policies": ["full"], "patterns": ["dense", "temporal"],
                           "budgets": [1.0], "decode_steps": 1, "tile_size": 4,
                           "validate": False},
        }
        golden = (
            "policy,pattern,budget_fraction,sequence_len,recent_window,top_h,"
            "retained_per_head,compression_ratio,mask_density,prefill_macs_total,"
            "prefill_macs_attention,decode_macs_total_per_step,"
            "decode_macs_attention_per_step,output_divergence_vs_full,salient_recall,"
            "median_rho,median_p\n"
            "full,dense,1,8,2,6,8,1,1,28736,1728,3760,384,0,1,,\n"
            "full,temporal,1,8,2,6,8,1,0.916667,28592,1584,3760,384,0,1,,\n"
        )
        assert render_report(run_experiment(cfg), "csv") == golden

    def test_emit_report_writes_file(self, tmp_path):
        report = run_experiment(base_config())
        out = emit_report(report, "json", tmp_path / "report.json")
        assert json.loads(out.read_text())["cells"]

    def test_emit_report_surfaces_path_on_failure(self, tmp_path):
        report = run_experiment(base_config())
        bad = tmp_path / "missing_dir" / "report.json"
        with pytest.raises(OSError, match="missing_dir"):
            emit_report(report, "json", bad)

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError):
            render_report({"cells": []}, "yaml")


def test_mac_estimate_total():
    est = MacEstimate(attention=10, projections=5)
    assert est.total == 15
