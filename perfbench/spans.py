"""Spans around purekv's public functions, recorded from outside the program.

Each function is wrapped where its caller looks it up (for example
`purekv.attention.streaming_masked`, which the engine reads through its
`attention` module, or `purekv.engine.select_retained`, which the engine
imported by name). A span holds its name, start, end, parent span, session id
and work counts computed from the call's arguments and result. Spans stay in
memory; `Patches.restore` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

ORIGINAL = "__perfbench_original__"

# (owner, attribute, span name). The owner is where the caller looks the
# name up: a module path, or "module:Class" for a method.
SITES = (
    ("purekv.engine", "seeded_gaussian", "numerics.seeded_gaussian"),
    ("purekv.harness", "seeded_gaussian", "numerics.seeded_gaussian"),
    ("purekv.engine", "derive_seed", "numerics.derive_seed"),
    ("purekv.harness", "derive_seed", "numerics.derive_seed"),
    ("purekv.harness", "random_u64", "numerics.random_u64"),
    ("purekv.stats", "random_u64", "numerics.random_u64"),
    ("purekv.attention", "row_softmax", "numerics.row_softmax"),
    ("purekv.engine", "l2_norm_rows", "numerics.l2_norm_rows"),
    ("purekv.engine", "build_mask", "masks.build_mask"),
    ("purekv.harness", "build_mask", "masks.build_mask"),
    ("purekv.harness", "mask_density", "masks.mask_density"),
    ("purekv.harness", "parse_pattern", "masks.parse_pattern"),
    ("purekv.attention", "masked", "attention.masked"),
    ("purekv.attention", "streaming_masked", "attention.streaming_masked"),
    ("purekv.engine", "accumulate_recent_attention", "cache.accumulate_recent_attention"),
    ("purekv.engine", "baseline_h2o_score", "cache.baseline_h2o_score"),
    ("purekv.engine", "baseline_streaming", "cache.baseline_streaming"),
    ("purekv.engine", "budget_to_wh", "cache.budget_to_wh"),
    ("purekv.engine", "evict", "cache.evict"),
    ("purekv.engine", "select_retained", "cache.select_retained"),
    ("purekv.cache:KvCacheLayer", "append", "cache.append"),
    ("purekv.cache:KvCacheLayer", "check_invariants", "cache.check_invariants"),
    # validate_cross_layer re-imports these from purekv.stats at call time.
    ("purekv.stats", "permutation_pvalue", "stats.permutation_pvalue"),
    ("purekv.stats", "spearman_rho", "stats.spearman_rho"),
    ("purekv.stats", "rank", "stats.rank"),
    ("purekv.engine", "init_model", "engine.init_model"),
    ("purekv.engine", "init_session", "engine.init_session"),
    ("purekv.engine", "prefill", "engine.prefill"),
    ("purekv.engine", "apply_compression", "engine.apply_compression"),
    ("purekv.engine", "decode_step", "engine.decode_step"),
    ("purekv.engine", "validate_cross_layer", "engine.validate_cross_layer"),
    ("purekv.engine", "_instrumented_stats", "engine.instrumented_stats"),
    ("purekv.harness", "load_config", "harness.load_config"),
    ("purekv.harness", "generate_workload", "harness.generate_workload"),
    ("purekv.harness", "decode_embeddings", "harness.decode_embeddings"),
    ("purekv.harness", "estimate_macs", "harness.estimate_macs"),
    ("purekv.harness", "salient_recall", "harness.salient_recall"),
    ("purekv.harness", "run_experiment", "harness.run_experiment"),
    ("purekv.harness", "render_report", "harness.render_report"),
    ("purekv.harness", "emit_report", "harness.emit_report"),
    ("purekv.cli", "main", "cli.main"),
)


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Patches:
    """Replaces attributes with wrappers and puts the originals back."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, make):
        original = vars(owner)[attr]
        wrapper = functools.wraps(original)(make(original))
        setattr(wrapper, ORIGINAL, original)
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> list[str]:
        """Restore in reverse order; return the names that did not come back."""
        wrong = []
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                wrong.append(f"{owner.__name__}.{attr}")
        self._saved.clear()
        return wrong


def leftover_wrappers(package) -> list[str]:
    """Names anywhere in the package's modules or classes still bound to a wrapper."""
    found = []
    prefix = package.__name__
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, ORIGINAL):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                found += [f"{name}.{attr}.{m}" for m, v in vars(value).items()
                          if hasattr(v, ORIGINAL)]
    return found


# --- work counts, computed from arguments and results ------------------------

def _attention_counts(result, q, k, v, mask, tile_size=None):
    import numpy as np

    l_q, l_k = len(q), len(k)
    counts = {"pairs_scored": l_q * l_k, "pairs_allowed": int(np.count_nonzero(mask))}
    if tile_size is None:
        counts["weight_bytes"] = l_q * l_k * 8
    else:
        counts["tiles"] = math.ceil(l_k / tile_size)
    return counts


def _streaming_counts(result, q, k, v, mask, tile_size=None):
    from purekv.attention import DEFAULT_TILE

    return _attention_counts(result, q, k, v, mask, tile_size or DEFAULT_TILE)


def _append_counts(result, layer, head, key_row, value_row, position):
    rows = layer.rows(head)
    return {"bytes_copied": rows * (layer.keys[head].itemsize * (key_row.size + value_row.size)
                                    + layer.positions[head].itemsize)}


def _kv_bytes_held(session) -> int:
    return sum(layer.keys[g].nbytes + layer.values[g].nbytes + layer.positions[g].nbytes
               for layer in session.cache for g in range(layer.num_heads))


def _prefill_counts(result, model, session, embeddings):
    return {"mac_key": (model.config, session.layout, session.pattern)}


def _held_counts(result, model, session, *rest):
    return {"kv_bytes_held": _kv_bytes_held(session)}


COUNTS = {
    "attention.masked": _attention_counts,
    "attention.streaming_masked": _streaming_counts,
    "cache.append": _append_counts,
    "engine.prefill": _prefill_counts,
    "engine.apply_compression": _held_counts,
    "engine.decode_step": _held_counts,
}


class Tracer:
    """Records spans in memory; `phase` tags them as set-up or measured pass."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, session, phase, counts]
        self.phase = "setup"
        self._stack = []
        self._session = None
        self._sessions = 0
        self.patches = Patches()

    def install(self):
        for owner, attr, name in SITES:
            self.patches.wrap(resolve(owner), attr, self._wrapper(name))

    def _wrapper(self, name: str):
        count = COUNTS.get(name)
        opens_session = name == "engine.init_session"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(original):
            def wrapper(*args, **kwargs):
                if opens_session:
                    self._session = self._sessions
                    self._sessions += 1
                record = [name, 0.0, 0.0, stack[-1] if stack else None,
                          self._session, self.phase, None]
                stack.append(len(spans))
                spans.append(record)
                record[1] = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                if count is not None:
                    record[6] = count(result, *args, **kwargs)
                return result
            return wrapper
        return make

    def dump(self, path):
        """Write the spans as JSON lines, one per span."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, session, phase, counts) in enumerate(self.spans):
                numeric = {k: v for k, v in (counts or {}).items() if k != "mac_key"}
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end, "parent": parent,
                    "session": session, "phase": phase, "counts": numeric,
                }) + "\n")


# --- aggregation -------------------------------------------------------------

_ROUTES = {"engine.prefill": "prefill", "engine.decode_step": "decode",
           "engine.instrumented_stats": "instrumented"}


def aggregate(spans, n_passes: int, pass_walls: list[float], mac_pairs) -> dict:
    """Per-layer metrics: set-up spans once plus measured spans per pass.

    mac_pairs(mac_key) gives the MAC model's credited attention pairs per
    query head for one prefill, summed over layers.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start

    calls = defaultdict(float)
    ms = defaultdict(float)
    self_ms = defaultdict(float)
    work = defaultdict(float)
    route_ms = defaultdict(float)
    held = {"after_compression": defaultdict(int), "end": defaultdict(int)}
    prefill_scored = 0
    mac_credit = 0.0
    q_heads = None
    top_level_s = 0.0
    for index, (name, start, end, parent, session, phase, counts) in enumerate(spans):
        weight = 1.0 if phase == "setup" else 1.0 / n_passes
        duration = end - start
        calls[name] += weight
        ms[name] += 1000.0 * duration * weight
        self_ms[name] += 1000.0 * (duration - child[index]) * weight
        if parent is None and phase != "setup":
            top_level_s += duration
        counts = counts or {}
        for key, value in counts.items():
            if key not in ("mac_key", "kv_bytes_held"):
                work[f"{name}.{key}"] += value * weight
        if name.startswith("attention.") and parent is not None:
            route = _ROUTES.get(spans[parent][0], "other")
            if route == "prefill":
                kind = "materialized" if name == "attention.masked" else "streaming"
                route_ms[f"attention.prefill.{kind}_ms"] += 1000.0 * duration * weight
                prefill_scored += counts["pairs_scored"]
            else:
                route_ms[f"attention.{route}_ms"] += 1000.0 * duration * weight
        if name == "engine.prefill" and counts:
            config = counts["mac_key"][0]
            q_heads = config.num_q_heads
            mac_credit += mac_pairs(counts["mac_key"])
        if name == "engine.apply_compression" and counts:
            held["after_compression"][session] = counts["kv_bytes_held"]
            held["end"][session] = counts["kv_bytes_held"]
        if name == "engine.decode_step" and counts:
            held["end"][session] = counts["kv_bytes_held"]

    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.ms"] = ms[name]
        out[f"{name}.self_ms"] = self_ms[name]
    out.update(work)
    for key in ("attention.prefill.materialized_ms", "attention.prefill.streaming_ms",
                "attention.decode_ms", "attention.instrumented_ms"):
        out[key] = route_ms[key]
    scored = work["attention.streaming_masked.pairs_scored"]
    out["attention.streaming_masked.useful_ratio"] = (
        work["attention.streaming_masked.pairs_allowed"] / scored if scored else 0.0)
    out["attention.scored_vs_mac_ratio"] = (
        prefill_scored / q_heads / mac_credit if mac_credit else 0.0)
    for when, per_session in held.items():
        out[f"cache.kv_bytes_held.{when}"] = max(per_session.values(), default=0)
    wall = sum(pass_walls)
    out["trace.uncovered_share"] = (wall - top_level_s) / wall if wall else 0.0
    return out
