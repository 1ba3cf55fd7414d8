"""CLI surface: subcommands, output formats, and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from purekv.cli import main
from purekv.masks import SparsityPattern, TokenLayout, build_mask, mask_to_text

REPO = Path(__file__).resolve().parents[1]
EXAMPLE_CONFIG = REPO / "configs" / "example.json"


def small_config(tmp_path, **experiment):
    exp = {"policies": ["pure_kv"], "patterns": ["spatial"], "budgets": [0.5],
           "decode_steps": 1, "tile_size": 8, "validate": False}
    exp.update(experiment)
    cfg = {
        "model": {"num_layers": 3, "d_model": 16, "num_q_heads": 2, "num_kv_heads": 1,
                  "d_k": 8, "d_v": 8, "vocab_size": 12, "seed": 1},
        "layout": {"text_prefix_len": 1, "num_frames": 3, "patches_per_frame": 3,
                   "text_suffix_len": 1},
        "workload": {"num_salient": 2, "salient_gain": 3.0, "seed": 2},
        "policy": {"recent_window_w": 3, "sink_len": 1, "clie_layer_index": 0,
                   "st_layer_index": 1},
        "experiment": exp,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestMaskCommand:
    def test_prints_grid(self, capsys):
        assert main(["mask", "--layout", "3,2,0,0", "--pattern", "temporal"]) == 0
        out = capsys.readouterr().out
        expected = mask_to_text(build_mask(TokenLayout(0, 3, 2, 0), SparsityPattern.temporal()))
        assert out == expected + "\n"

    def test_pattern_parameter(self, capsys):
        assert main(["mask", "--layout", "2,3,1,1", "--pattern", "local:2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8 and set("".join(lines)) <= {"0", "1"}

    def test_bad_layout_is_config_error(self, capsys):
        assert main(["mask", "--layout", "3,2", "--pattern", "dense"]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_bad_pattern_is_config_error(self, capsys):
        assert main(["mask", "--layout", "3,2,0,0", "--pattern", "blocky"]) == 1
        assert "configuration error" in capsys.readouterr().err


class TestRunCommand:
    def test_json_to_stdout(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cells"][0]["policy"] == "pure_kv"

    def test_csv_to_file(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["run", "--config", str(cfg), "--format", "csv",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("policy,pattern")

    def test_seed_override_changes_report(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        main(["run", "--config", str(cfg)])
        base = capsys.readouterr().out
        main(["run", "--config", str(cfg), "--seed", "99"])
        overridden = capsys.readouterr().out
        assert base != overridden
        assert json.loads(overridden)["config"]["model"]["seed"] == 99

    def test_seed_override_matches_golden(self, capsys):
        assert main(["run", "--config", str(EXAMPLE_CONFIG), "--seed", "5"]) == 0
        golden = (REPO / "tests" / "golden" / "example.seed5.report.json").read_text()
        assert capsys.readouterr().out == golden

    def test_missing_config_exits_one(self, capsys):
        assert main(["run", "--config", "/no/such/config.json"]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_layer_order_exits_one(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["policy"]["st_layer_index"] = 0
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 1

    def test_usage_error_exits_one(self, capsys):
        assert main(["run"]) == 1  # missing --config

    def test_unreadable_out_path_exits_two(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "nope" / "report.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err


class TestValidateCommand:
    def test_prints_per_layer_stats(self, tmp_path, capsys):
        cfg = small_config(tmp_path, n_perm=199)
        assert main(["validate", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analysis_layer"] == 0
        assert [e["layer"] for e in payload["per_layer"]] == [1, 2]
        for entry in payload["per_layer"]:
            for head in entry["heads"]:
                assert -1.0 <= head["rho"] <= 1.0
                assert 0.0 < head["p"] <= 1.0


    def test_example_matches_golden(self, capsys):
        assert main(["validate", "--config", str(EXAMPLE_CONFIG)]) == 0
        golden = (REPO / "tests" / "golden" / "example.validate.json").read_text()
        assert capsys.readouterr().out == golden

    def test_seed_override_matches_golden(self, capsys):
        assert main(["validate", "--config", str(EXAMPLE_CONFIG), "--seed", "5"]) == 0
        golden = (REPO / "tests" / "golden" / "example.seed5.validate.json").read_text()
        assert capsys.readouterr().out == golden

    def test_runs_one_forward_and_opens_no_session(self, tmp_path, capsys, monkeypatch):
        import purekv.engine
        calls = []

        def spying(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in ("prompt_pass", "init_session", "prefill"):
            monkeypatch.setattr(purekv.engine, name, spying(name, getattr(purekv.engine, name)))
        assert main(["validate", "--config", str(small_config(tmp_path, n_perm=199))]) == 0
        assert calls == ["prompt_pass"]


class TestInstalledEntryPoint:
    def test_module_invocation_round_trip(self, tmp_path):
        cfg = small_config(tmp_path)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            proc = subprocess.run(
                [sys.executable, "-m", "purekv", "run", "--config", str(cfg),
                 "--out", str(out)],
                capture_output=True, text=True, cwd=REPO,
            )
            assert proc.returncode == 0, proc.stderr
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_example_config_parses(self):
        from purekv.harness import load_config
        config = load_config(EXAMPLE_CONFIG)
        assert config.model.num_q_heads // config.model.num_kv_heads == 4
        assert config.layout.total_len == 140
