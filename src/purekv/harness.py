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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


def salient_recall(retained, salient):
    """Fraction of planted positions that survived eviction.

    retained holds one head's distinct positions, (m,), giving one recall, or
    an (n, m) table of them, giving each row's recall.
    """
    salient = np.asarray(salient, dtype=np.int64)
    if salient.size == 0:
        raise ConfigurationError("salient_recall is undefined for an empty salient set")
    return np.isin(np.asarray(retained, dtype=np.int64), salient).sum(axis=-1) / salient.size


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

# Every config field by section: (JSON type, minimum or None[, default]). A
# field without a default is required; a section or field not listed is rejected.
CONFIG_FIELDS = {
    "model": {"num_layers": ("integer", 1), "d_model": ("integer", 1),
              "num_q_heads": ("integer", 1), "num_kv_heads": ("integer", 1),
              "d_k": ("integer", 1), "d_v": ("integer", 1), "vocab_size": ("integer", 1),
              "seed": ("integer", 0)},
    "layout": {"text_prefix_len": ("integer", 0), "num_frames": ("integer", 0),
               "patches_per_frame": ("integer", 0), "text_suffix_len": ("integer", 0)},
    "workload": {"num_salient": ("integer", 0), "salient_gain": ("number", None),
                 "seed": ("integer", 0)},
    "policy": {"recent_window_w": ("integer", 1), "sink_len": ("integer", 0),
               "clie_layer_index": ("integer", 0), "st_layer_index": ("integer", 0)},
    "experiment": {"policies": ("list", None), "patterns": ("list", None),
                   "budgets": ("list", None), "decode_steps": ("integer", 0),
                   "tile_size": ("integer", 1), "validate": ("boolean", None, False),
                   "n_perm": ("integer", 100, 999), "stats_seed": ("integer", None, 0)},
}
# JSON type: its Python types and the message for a value of another type.
# bool subclasses int, but a JSON true is neither an integer nor a number.
_JSON_TYPES = {
    "integer": (int, "expected an integer, got {!r}"),
    "number": ((int, float), "expected a number, got {!r}"),
    "boolean": (bool, "expected true or false, got {!r}"),
    "list": (list, "expected a list"),
}


def _read_fields(obj, path: str, table: dict) -> dict:
    """obj's fields as table lists them, checked and with defaults filled in; a
    nested table is a section, read the same way. Numbers come back as floats."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: expected an object")
    for key in obj:
        if key not in table:
            raise ConfigurationError(f"{path}.{key}: unknown field")
    values = {}
    for key, spec in table.items():
        if key not in obj and (isinstance(spec, dict) or len(spec) < 3):
            raise ConfigurationError(f"{path}.{key}: missing required field")
        if isinstance(spec, dict):
            values[key] = _read_fields(obj[key], f"{path}.{key}", spec)
            continue
        kind, minimum, *default = spec
        value = obj.get(key, *default)
        types, message = _JSON_TYPES[kind]
        if not isinstance(value, types) or isinstance(value, bool) != (kind == "boolean"):
            raise ConfigurationError(f"{path}.{key}: {message.format(value)}")
        if minimum is not None and value < minimum:
            raise ConfigurationError(f"{path}.{key}: must be >= {minimum}, got {value}")
        values[key] = float(value) if kind == "number" else value
    return values


def _at(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), with path prefixed to any ConfigurationError it raises."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


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
    patterns: tuple[SparsityPattern, ...]
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

    sections = _read_fields(raw, "config", CONFIG_FIELDS)
    model = _at("config.model", engine.ModelConfig, **sections["model"])
    layout = _at("config.layout", TokenLayout, **sections["layout"])
    workload = _at("config.workload", WorkloadSpec, layout=layout, **sections["workload"])
    exp = sections["experiment"]
    for i, p in enumerate(exp["policies"]):
        if p not in POLICY_KINDS:
            raise ConfigurationError(f"config.experiment.policies[{i}]: unknown policy {p!r}")
    patterns = []  # parsed into a new list: the report echoes raw as it was given
    for i, p in enumerate(exp["patterns"]):
        if not isinstance(p, str):
            raise ConfigurationError(f"config.experiment.patterns[{i}]: expected a string")
        patterns.append(_at(f"config.experiment.patterns[{i}]", parse_pattern, p, layout))
    for i, b in enumerate(exp["budgets"]):
        if isinstance(b, bool) or not isinstance(b, (int, float)) or not (0.0 < b <= 1.0):
            raise ConfigurationError(
                f"config.experiment.budgets[{i}]: expected a fraction in (0, 1], got {b!r}"
            )
    exp.update(policies=tuple(exp["policies"]), patterns=tuple(patterns),
               budgets=tuple(float(b) for b in exp["budgets"]))
    config = ExperimentConfig(model=model, layout=layout, workload=workload,
                              **sections["policy"], **exp, raw=raw)
    # Fail fast on incoherent layer indices instead of inside the first cell.
    policy = _at("config.policy", config.policy, "full", 1.0)
    _at("config.policy", engine.check_layer_depth, policy, model.num_layers)
    if config.validate:  # every validated window, against the estimation layer
        ws = [budget_to_wh(budget, layout.total_len, config.recent_window_w)[0]
              for *_, budget in _experiment_cells(config)]
        _at("config.experiment.validate", engine.check_validation, layout.total_len, ws,
            config.clie_layer_index, model.num_layers)
    return config


# --- experiment loop ------------------------------------------------------

def _experiment_cells(config: ExperimentConfig):
    for policy in config.policies:
        budgets = (1.0,) if policy == "full" else config.budgets
        for pattern in config.patterns:
            for budget in budgets:
                yield policy, pattern, budget


def run_experiment(source) -> dict:
    """Run the whole (policy x pattern x budget) grid; returns the report dict."""
    config = source if isinstance(source, ExperimentConfig) else load_config(source)
    model = engine.init_model(config.model)
    embeddings, salient = generate_workload(config.workload, config.model.d_model)
    decode_rows = decode_embeddings(config.workload, config.model.d_model, config.decode_steps)

    # One call gives every pattern, the reference's included, its pass; the
    # prefill MACs and the mask density are the pattern's too.
    windows = {budget_to_wh(b, config.layout.total_len, config.recent_window_w)[0]
               for b in config.budgets + (1.0,)}
    layers = config.model.num_layers if config.validate else config.clie_layer_index + 1
    dense = SparsityPattern.dense()
    patterns = list(dict.fromkeys(config.patterns))
    every = list(dict.fromkeys([dense] + patterns))
    passes = engine.prompt_passes(model, config.layout, every, config.st_layer_index, embeddings,
                                  windows, layers, "h2o_like" in config.policies,
                                  config.tile_size)
    per_pattern = {pattern: (prompt, estimate_macs(config.layout, pattern, config.model, "prefill"),
                             mask_density(build_mask(config.layout, pattern)))
                   for pattern, prompt in zip(every, passes)}
    decoded: dict[tuple, list[np.ndarray]] = {}  # logits by cache key

    def run_group(cells):
        """Compress the cells of one (policy, budget) group, decode their caches
        not decoded before step by step together, and return each cell's
        (cache key, l, w, h, recall). Its sessions die with it."""
        runs, out, lender = {}, [], []
        for policy_kind, pattern, budget in cells:
            session = engine.init_session(model, config.layout, config.policy(policy_kind, budget),
                                          pattern, config.tile_size)
            engine.prefill(model, session, per_pattern[pattern][0])
            # Below st_layer_index every score comes from the dense layers all patterns
            # share, so each cache of the group keeps the same rows there: the first new
            # one lends the others those layer objects. Sharing them is safe because the
            # group compresses every cell before any decodes, and then decodes in
            # lockstep, the lender first at every step.
            engine.apply_compression(model, session, *lender)
            # Decode reads only the cache's rows, so caches of one pattern that keep
            # the same positions in every layer decode to bit-identical logits.
            key = (pattern, *(kv.positions.tobytes() for kv in session.cache))
            if key not in decoded:
                decoded[key] = []
                runs[key] = session
                lender = lender or [session]
            recall = None  # decode appends no prompt position, so it cannot change recall
            if salient.size:
                table = np.concatenate([kv.positions for kv in session.cache])
                recall = float(np.mean(salient_recall(table, salient)))
            out.append((key, session.prefill_len, session.w, session.h, recall))
        for row in decode_rows:
            for key, session in runs.items():
                decoded[key].append(engine.decode_step(model, session, row))
        return out

    # One session per distinct cell. The reference (the grid's full dense cell, when
    # it has one) leads the ("full", 1.0) group, and the groups run in turn, so only
    # one group's sessions are alive.
    reference = ("full", dense, 1.0)
    groups = {}
    for cell in dict.fromkeys([reference, *_experiment_cells(config)]):
        groups.setdefault((cell[0], cell[2]), []).append(cell)
    results = {}
    for group in groups.values():
        results.update(zip(group, run_group(group)))

    # Validation reads the pattern and the recent window, never the budget: one
    # call validates every pattern's pass at every window a cell uses.
    validations = {}
    ws = list(dict.fromkeys(results[cell][2] for cell in _experiment_cells(config)))
    if config.validate and ws:  # an empty grid has no window to validate
        reports = engine.validate_cross_layer([per_pattern[p][0] for p in patterns], ws,
                                              config.clie_layer_index, config.n_perm,
                                              config.stats_seed)
        validations = {(p, w): r for w, rs in zip(ws, reports) for p, r in zip(patterns, rs)}
    cells = []
    for policy_kind, pattern, budget in _experiment_cells(config):
        _, prefill_macs, density = per_pattern[pattern]
        key, l, w, h, recall = results[(policy_kind, pattern, budget)]
        divergence = 0.0
        for step_logits, ref in zip(decoded[key], decoded[results[reference][0]]):
            divergence = max(divergence, float(np.max(np.abs(step_logits - ref))))
        decode_macs = estimate_macs(config.layout, pattern, config.model, "decode",
                                    retained_count=w + h)
        cells.append({
            "policy": policy_kind,
            "pattern": pattern.describe(),
            "budget_fraction": budget,
            "sequence_len": l,
            "recent_window": w,
            "top_h": h,
            "retained_per_head": w + h,
            "compression_ratio": float(l / (w + h)),
            "mask_density": density,
            "prefill_macs_total": prefill_macs.total,
            "prefill_macs_attention": prefill_macs.attention,
            "decode_macs_total_per_step": decode_macs.total,
            "decode_macs_attention_per_step": decode_macs.attention,
            "output_divergence_vs_full": divergence,
            "salient_recall": recall,
            "validation": validations.get((pattern, w)),
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
