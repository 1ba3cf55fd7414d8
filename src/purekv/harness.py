"""Synthetic workloads, experiment orchestration, metrics, and reports.

Workloads are seeded Gaussian embeddings with optional planted salient
tokens: a shared unit direction scaled by (gain - 1) * sqrt(d_model) is added
at known video positions, so retention quality has a ground truth.

Latency is modeled as deterministic multiply-accumulate counts, never
wall-clock. The MAC model (documented in the report under "mac_model"):

    prefill attention   = num_layers * num_q_heads * allowed_pairs * (d_k + d_v)
    prefill projections = num_layers * n * per_token + n * d_model * vocab_size
    decode attention    = num_layers * num_q_heads * retained * (d_k + d_v)
    decode projections  = num_layers * per_token + d_model * vocab_size
    per_token = d_model*(Hq*d_k + Hkv*d_k + Hkv*d_v) + Hq*d_v*d_model
                + 2 * d_model * d_ff

where allowed_pairs counts the pattern's mask entries as if the pattern were
applied at every layer; it is a pattern-level cost metric, deliberately
independent of the layer wiring.

The grid reuses work whose result it already holds. It runs one prompt
pass per pattern, the dense reference's included, and every cell prefills
from its pattern's pass. It decodes once per distinct cache, keyed by the
pattern and every layer's retained positions: decode reads only the cache's
rows, so a later cell with the same key reuses the first one's logits. It
validates each recent window once, for every pattern's pass in one
validate_cross_layer call, which draws each block of permutations once for
all of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import engine
from .cache import POLICY_KINDS, PolicyConfig, budget_to_wh
from .errors import ConfigurationError
from .masks import SparsityPattern, TokenLayout, build_mask, mask_density, parse_pattern
from .numerics import derive_seed, random_u64, seeded_gaussian

_BACKGROUND_TAG = 2
_SALIENT_POS_TAG = 3
_SALIENT_DIR_TAG = 5
_DECODE_TAG = 7

MAC_MODEL_NOTES = {
    "prefill": "layers*q_heads*allowed_mask_pairs*(d_k+d_v) attention; "
               "layers*tokens*per_token_projection + tokens*d_model*vocab projections",
    "decode": "layers*q_heads*retained_rows*(d_k+d_v) attention per step; "
              "layers*per_token_projection + d_model*vocab projections per step",
}


@dataclass(frozen=True)
class WorkloadSpec:
    layout: TokenLayout
    num_salient: int
    salient_gain: float
    seed: int

    def __post_init__(self):
        if self.num_salient < 0:
            raise ConfigurationError("num_salient must be >= 0")
        if self.num_salient > self.layout.video_len:
            raise ConfigurationError(
                f"num_salient ({self.num_salient}) exceeds video tokens "
                f"({self.layout.video_len})"
            )
        if self.salient_gain < 1.0:
            raise ConfigurationError("salient_gain must be >= 1")


def generate_workload(spec: WorkloadSpec, d_model: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded embeddings plus the planted salient positions (sorted)."""
    layout = spec.layout
    embeddings = seeded_gaussian(layout.total_len, d_model, derive_seed(spec.seed, _BACKGROUND_TAG))
    if spec.num_salient == 0:
        return embeddings, np.zeros(0, dtype=np.int64)
    keys = random_u64(derive_seed(spec.seed, _SALIENT_POS_TAG), 0, layout.video_len)
    picks = np.sort(np.argsort(keys, kind="stable")[: spec.num_salient])
    salient = (layout.text_prefix_len + picks).astype(np.int64)
    direction = seeded_gaussian(1, d_model, derive_seed(spec.seed, _SALIENT_DIR_TAG))[0]
    direction /= np.sqrt((direction * direction).sum())
    embeddings[salient] += (spec.salient_gain - 1.0) * np.sqrt(d_model) * direction
    return embeddings, salient


def decode_embeddings(spec: WorkloadSpec, d_model: int, steps: int) -> np.ndarray:
    """Seeded decode-phase inputs, shared by every cell of an experiment."""
    if steps == 0:
        return np.zeros((0, d_model))
    return seeded_gaussian(steps, d_model, derive_seed(spec.seed, _DECODE_TAG))


def salient_recall(retained, salient) -> float:
    """Fraction of planted positions that survived eviction."""
    salient = np.asarray(salient, dtype=np.int64)
    if salient.size == 0:
        raise ConfigurationError("salient_recall is undefined for an empty salient set")
    retained = np.asarray(retained, dtype=np.int64)
    return float(np.intersect1d(retained, salient).size / salient.size)


@dataclass(frozen=True)
class MacEstimate:
    attention: int
    projections: int

    @property
    def total(self) -> int:
        return self.attention + self.projections


def estimate_macs(layout: TokenLayout, pattern: SparsityPattern, model_config: engine.ModelConfig,
                  phase: str, retained_count: int | None = None) -> MacEstimate:
    """Deterministic multiply-accumulate counts for one phase; see MAC_MODEL_NOTES."""
    c = model_config
    d_ff = engine._FF_MULT * c.d_model
    per_token = (c.d_model * (c.num_q_heads * c.d_k + c.num_kv_heads * c.d_k
                              + c.num_kv_heads * c.d_v)
                 + c.num_q_heads * c.d_v * c.d_model
                 + 2 * c.d_model * d_ff)
    if phase == "prefill":
        n = layout.total_len
        allowed = int(build_mask(layout, pattern).sum())
        attention = c.num_layers * c.num_q_heads * allowed * (c.d_k + c.d_v)
        projections = c.num_layers * n * per_token + n * c.d_model * c.vocab_size
        return MacEstimate(attention=attention, projections=projections)
    if phase == "decode":
        if retained_count is None or retained_count < 0:
            raise ConfigurationError("decode MAC estimate needs retained_count >= 0")
        attention = c.num_layers * c.num_q_heads * retained_count * (c.d_k + c.d_v)
        projections = c.num_layers * per_token + c.d_model * c.vocab_size
        return MacEstimate(attention=attention, projections=projections)
    raise ConfigurationError(f"unknown phase {phase!r}, expected 'prefill' or 'decode'")


# --- config parsing -------------------------------------------------------

def _need(obj: dict, path: str, key: str):
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: expected an object")
    if key not in obj:
        raise ConfigurationError(f"{path}.{key}: missing required field")
    return obj[key]


def _int_field(obj: dict, path: str, key: str, minimum: int | None = None,
               default: int | None = None) -> int:
    value = obj.get(key, default) if default is not None else _need(obj, path, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{path}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return value


def _float_field(obj: dict, path: str, key: str) -> float:
    value = _need(obj, path, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path}.{key}: expected a number, got {value!r}")
    return float(value)


def _list_field(obj: dict, path: str, key: str) -> list:
    value = _need(obj, path, key)
    if not isinstance(value, list):
        raise ConfigurationError(f"{path}.{key}: expected a list")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    model: engine.ModelConfig
    layout: TokenLayout
    workload: WorkloadSpec
    recent_window_w: int
    sink_len: int
    clie_layer_index: int
    st_layer_index: int
    policies: tuple[str, ...]
    patterns: tuple[str, ...]
    budgets: tuple[float, ...]
    decode_steps: int
    tile_size: int
    validate: bool
    n_perm: int
    stats_seed: int
    raw: dict

    def policy(self, kind: str, budget: float) -> PolicyConfig:
        """The policy block with this kind and budget, as one cell runs it."""
        return PolicyConfig(policy_kind=kind, budget_fraction=budget,
                            recent_window_w=self.recent_window_w, sink_len=self.sink_len,
                            clie_layer_index=self.clie_layer_index,
                            st_layer_index=self.st_layer_index)


def load_config(source) -> ExperimentConfig:
    """Parse a config document (path or dict); errors name the JSON path."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from None
    elif isinstance(source, dict):
        raw = source
    else:
        raise ConfigurationError(f"config must be a path or dict, got {type(source)}")

    model_obj = _need(raw, "config", "model")
    model = engine.ModelConfig(**{
        f.name: _int_field(model_obj, "config.model", f.name, 0 if f.name == "seed" else 1)
        for f in fields(engine.ModelConfig)
    })
    layout_obj = _need(raw, "config", "layout")
    layout = TokenLayout(**{
        f.name: _int_field(layout_obj, "config.layout", f.name, 0) for f in fields(TokenLayout)
    })
    workload_obj = _need(raw, "config", "workload")
    workload = WorkloadSpec(
        layout=layout,
        num_salient=_int_field(workload_obj, "config.workload", "num_salient", 0),
        salient_gain=_float_field(workload_obj, "config.workload", "salient_gain"),
        seed=_int_field(workload_obj, "config.workload", "seed", 0),
    )
    policy_obj = _need(raw, "config", "policy")
    recent_window_w = _int_field(policy_obj, "config.policy", "recent_window_w", 1)
    sink_len = _int_field(policy_obj, "config.policy", "sink_len", 0)
    clie = _int_field(policy_obj, "config.policy", "clie_layer_index", 0)
    st = _int_field(policy_obj, "config.policy", "st_layer_index", 0)

    exp_obj = _need(raw, "config", "experiment")
    policies = _list_field(exp_obj, "config.experiment", "policies")
    for i, p in enumerate(policies):
        if p not in POLICY_KINDS:
            raise ConfigurationError(f"config.experiment.policies[{i}]: unknown policy {p!r}")
    patterns = _list_field(exp_obj, "config.experiment", "patterns")
    for i, p in enumerate(patterns):
        if not isinstance(p, str):
            raise ConfigurationError(f"config.experiment.patterns[{i}]: expected a string")
        parse_pattern(p, layout)
    budgets = _list_field(exp_obj, "config.experiment", "budgets")
    for i, b in enumerate(budgets):
        if isinstance(b, bool) or not isinstance(b, (int, float)) or not (0.0 < b <= 1.0):
            raise ConfigurationError(
                f"config.experiment.budgets[{i}]: expected a fraction in (0, 1], got {b!r}"
            )

    validate = exp_obj.get("validate", False)
    if not isinstance(validate, bool):
        raise ConfigurationError(
            f"config.experiment.validate: expected true or false, got {validate!r}"
        )

    config = ExperimentConfig(
        model=model,
        layout=layout,
        workload=workload,
        recent_window_w=recent_window_w,
        sink_len=sink_len,
        clie_layer_index=clie,
        st_layer_index=st,
        policies=tuple(policies),
        patterns=tuple(patterns),
        budgets=tuple(float(b) for b in budgets),
        decode_steps=_int_field(exp_obj, "config.experiment", "decode_steps", 0),
        tile_size=_int_field(exp_obj, "config.experiment", "tile_size", 1),
        validate=validate,
        n_perm=_int_field(exp_obj, "config.experiment", "n_perm", 100, default=999),
        stats_seed=_int_field(exp_obj, "config.experiment", "stats_seed", default=0),
        raw=raw,
    )
    # Fail fast on incoherent layer indices instead of inside the first cell.
    engine.check_layer_depth(config.policy("full", 1.0), model.num_layers, "config.policy.")
    if validate and clie == model.num_layers - 1:
        raise ConfigurationError(f"config.experiment.validate: no layers above "
                                 f"config.policy.clie_layer_index ({clie}) to validate")
    return config


# --- experiment loop ------------------------------------------------------

def _experiment_cells(config: ExperimentConfig):
    for policy in config.policies:
        budgets = (1.0,) if policy == "full" else config.budgets
        for pattern in config.patterns:
            for budget in budgets:
                yield policy, pattern, budget


def _run_cell(model, config: ExperimentConfig, policy_kind: str, pattern: SparsityPattern,
              budget: float, prompt: engine.PromptPass):
    session = engine.init_session(model, config.layout, config.policy(policy_kind, budget),
                                  pattern, config.tile_size)
    engine.prefill(model, session, prompt)
    engine.apply_compression(model, session)
    retained_counts = {kv.rows(g) for kv in session.cache for g in range(kv.num_heads)}
    if len(retained_counts) != 1:
        raise AssertionError(f"retained counts differ across heads: {retained_counts}")
    return session, int(next(iter(retained_counts)))


def run_experiment(source) -> dict:
    """Run the whole (policy x pattern x budget) grid; returns the report dict."""
    config = source if isinstance(source, ExperimentConfig) else load_config(source)
    model = engine.init_model(config.model)
    embeddings, salient = generate_workload(config.workload, config.model.d_model)
    decode_rows = decode_embeddings(config.workload, config.model.d_model, config.decode_steps)

    # One prompt pass per pattern serves the reference and every cell on it;
    # the prefill MACs and the mask density are the pattern's too.
    windows = {budget_to_wh(b, config.layout.total_len, config.recent_window_w)[0]
               for b in config.budgets + (1.0,)}
    layers = config.model.num_layers if config.validate else config.clie_layer_index + 1
    dense = SparsityPattern.dense()
    patterns = list(dict.fromkeys(parse_pattern(text, config.layout) for text in config.patterns))
    per_pattern = {pattern: (
        engine.prompt_pass(model, config.layout, pattern, config.st_layer_index, embeddings,
                           windows, layers, "h2o_like" in config.policies, config.tile_size),
        estimate_macs(config.layout, pattern, config.model, "prefill"),
        mask_density(build_mask(config.layout, pattern)),
    ) for pattern in dict.fromkeys([dense] + patterns)}

    # Decode reads only the cache's rows, so two sessions of one pass that keep
    # the same positions in every layer decode to bit-identical logits.
    decoded: dict[tuple, list[np.ndarray]] = {}

    def decode(session, pattern):
        key = (pattern, *(kv.stacked()[2].tobytes() for kv in session.cache))
        if key not in decoded:
            decoded[key] = [engine.decode_step(model, session, row) for row in decode_rows]
        return decoded[key]

    reference, _ = _run_cell(model, config, "full", dense, 1.0, per_pattern[dense][0])
    reference_logits = decode(reference, dense)

    # Validation reads the pattern and the recent window, never the budget;
    # one call validates a window for every pattern.
    validations: dict[tuple[SparsityPattern, int], dict] = {}
    cells = []
    for policy_kind, pattern_text, budget in _experiment_cells(config):
        pattern = parse_pattern(pattern_text, config.layout)
        prompt, prefill_macs, density = per_pattern[pattern]
        session, retained_count = _run_cell(model, config, policy_kind, pattern, budget, prompt)
        l = session.prefill_len
        divergence = 0.0
        for step_logits, ref in zip(decode(session, pattern), reference_logits):
            divergence = max(divergence, float(np.max(np.abs(step_logits - ref))))

        recall = None
        if salient.size:
            recall = float(np.mean([salient_recall(kv.positions[g], salient)
                                    for kv in session.cache for g in range(kv.num_heads)]))

        decode_macs = estimate_macs(config.layout, pattern, config.model, "decode",
                                    retained_count=retained_count)

        validation = None
        if config.validate:
            if (pattern, session.w) not in validations:
                reports = engine.validate_cross_layer(
                    [per_pattern[p][0] for p in patterns], session.w, config.clie_layer_index,
                    config.n_perm, config.stats_seed)
                validations.update({(p, session.w): r for p, r in zip(patterns, reports)})
            validation = validations[(pattern, session.w)]

        cells.append({
            "policy": policy_kind,
            "pattern": pattern.describe(),
            "budget_fraction": budget,
            "sequence_len": l,
            "recent_window": session.w,
            "top_h": session.h,
            "retained_per_head": retained_count,
            "compression_ratio": float(l / retained_count),
            "mask_density": density,
            "prefill_macs_total": prefill_macs.total,
            "prefill_macs_attention": prefill_macs.attention,
            "decode_macs_total_per_step": decode_macs.total,
            "decode_macs_attention_per_step": decode_macs.attention,
            "output_divergence_vs_full": divergence,
            "salient_recall": recall,
            "validation": validation,
        })

    return {
        "config": config.raw,
        "mac_model": dict(MAC_MODEL_NOTES),
        "cells": cells,
    }


# --- report emission ------------------------------------------------------

def _round6(value):
    """Recursively format floats at 6 significant digits, keeping ints exact."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round6(v) for v in value]
    return value


_CSV_CELL_COLUMNS = (
    "policy", "pattern", "budget_fraction", "sequence_len", "recent_window", "top_h",
    "retained_per_head", "compression_ratio", "mask_density",
    "prefill_macs_total", "prefill_macs_attention",
    "decode_macs_total_per_step", "decode_macs_attention_per_step",
    "output_divergence_vs_full", "salient_recall",
)
_CSV_VALIDATION_COLUMNS = ("median_rho", "median_p")


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_report(report: dict, fmt: str) -> str:
    """Serialize a report; floats carry 6 significant digits in either format."""
    if fmt == "json":
        return json.dumps(_round6(report), indent=2) + "\n"
    if fmt != "csv":
        raise ConfigurationError(f"unknown report format {fmt!r}, expected 'json' or 'csv'")

    layer_ids = []
    for cell in report["cells"]:
        if cell.get("validation"):
            layer_ids = [entry["layer"] for entry in cell["validation"]["per_layer"]]
            break
    header = list(_CSV_CELL_COLUMNS + _CSV_VALIDATION_COLUMNS) + [
        f"layer{i}_{stat}" for i in layer_ids for stat in _CSV_VALIDATION_COLUMNS
    ]
    lines = [",".join(header)]
    for cell in report["cells"]:
        validation = cell.get("validation")
        row = [_csv_value(cell[col]) for col in _CSV_CELL_COLUMNS]
        row += [_csv_value(validation[col] if validation else None)
                for col in _CSV_VALIDATION_COLUMNS]
        per_layer = {e["layer"]: e for e in validation["per_layer"]} if validation else {}
        for i in layer_ids:
            entry = per_layer.get(i)
            row += [_csv_value(entry[col] if entry else None) for col in _CSV_VALIDATION_COLUMNS]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def emit_report(report: dict, fmt: str, out_path) -> Path:
    """Write the rendered report; I/O failures surface the offending path."""
    path = Path(out_path)
    text = render_report(report, fmt)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"failed to write report to {path}: {exc}") from exc
    return path
