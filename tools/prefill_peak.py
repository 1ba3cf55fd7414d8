"""Where one prompt pass's memory goes: tracemalloc's peak in each of its
phases, and the process's peak resident set.

    python tools/prefill_peak.py --config PATH [--layout prefix,frames,patches,suffix] [--pattern P]

Runs engine.prompt_pass once untraced and once under tracemalloc, on the
config's model, workload and policy (pure_kv's windows: the recent window on
layers 0..clie_layer_index), with BLAS and OpenMP pinned to one thread. The
untraced pass gives ru_maxrss before and after it; the traced pass gives, for
each phase, the peak of traced memory during its calls (arrays held from
earlier phases included) and the most it rose above what was held when a
call began. A phase is a set of functions wrapped where the engine looks
them up; a call inside another wrapped call counts toward the outer one:

    plan build   attention.TilePlan, and the mask rows the engine builds for itself
    projections  engine._project_heads: RMSNorm and the q, k, v projections
    slab         attention.masked: the estimation layers' recent-window rows
    tile loop    attention.streaming_masked and attention.column_mass
    block        engine._block: output projection and MLP, per row block
    finish       engine._finish: logits, stacking and value-row norms

ru_maxrss also counts what glibc keeps mapped after a free, so comparing it
with the traced peaks tells held arrays from heap layout. Prints one JSON
object.
"""

import argparse
import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from purekv import attention, engine, harness  # noqa: E402
from purekv.masks import parse_pattern  # noqa: E402

PHASES = {
    "plan build": ((attention, "TilePlan"), (engine, "build_mask")),
    "projections": ((engine, "_project_heads"),),
    "slab": ((attention, "masked"),),
    "tile loop": ((attention, "streaming_masked"), (attention, "column_mass")),
    "block": ((engine, "_block"),),
    "finish": ((engine, "_finish"),),
}
MB = 1024.0 * 1024.0


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_phases(run) -> tuple[dict, float]:
    """run() under tracemalloc with every phase's functions wrapped; returns each
    phase's calls and peaks, and the peak over the whole call, in MB."""
    stats = {phase: {"calls": 0, "peak_mb": 0.0, "rise_mb": 0.0} for phase in PHASES}
    depth = [0]

    def wrap(phase, real):
        def measured(*args, **kwargs):
            if depth[0]:
                return real(*args, **kwargs)
            depth[0] += 1
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1
                peak = tracemalloc.get_traced_memory()[1]
                entry = stats[phase]
                entry["calls"] += 1
                entry["peak_mb"] = max(entry["peak_mb"], peak / MB)
                entry["rise_mb"] = max(entry["rise_mb"], (peak - held) / MB)
                whole[0] = max(whole[0], peak)
        return measured

    originals = [(owner, name, getattr(owner, name)) for sites in PHASES.values()
                 for owner, name in sites]
    whole = [0]
    tracemalloc.start()
    try:
        for phase, sites in PHASES.items():
            for owner, name in sites:
                setattr(owner, name, wrap(phase, getattr(owner, name)))
        tracemalloc.reset_peak()
        run()
        whole[0] = max(whole[0], tracemalloc.get_traced_memory()[1])
    finally:
        for owner, name, real in originals:
            setattr(owner, name, real)
        tracemalloc.stop()
    for entry in stats.values():
        entry["peak_mb"], entry["rise_mb"] = round(entry["peak_mb"], 3), round(entry["rise_mb"], 3)
    return stats, round(whole[0] / MB, 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--layout", help="prefix,frames,patches,suffix; default: the config's")
    parser.add_argument("--pattern", default="spatial_temporal")
    args = parser.parse_args(argv)
    raw = json.loads(Path(args.config).read_text())
    if args.layout:
        values = [int(part) for part in args.layout.split(",")]
        if len(values) != 4:
            parser.error("--layout takes four integers: prefix,frames,patches,suffix")
        raw["layout"] = dict(zip(("text_prefix_len", "num_frames", "patches_per_frame",
                                  "text_suffix_len"), values))
    config = harness.load_config(raw)
    model = engine.init_model(config.model)
    embeddings, _ = harness.generate_workload(config.workload, config.model.d_model)
    pattern = parse_pattern(args.pattern, config.layout)
    l = config.layout.total_len

    def run():
        engine.prompt_pass(model, config.layout, pattern, config.st_layer_index, embeddings,
                           (min(config.recent_window_w, l),), config.clie_layer_index + 1,
                           tile_size=config.tile_size)

    before = maxrss_mb()
    started = time.perf_counter()
    run()
    seconds = time.perf_counter() - started
    after = maxrss_mb()
    phases, whole = traced_phases(run)
    print(json.dumps({
        "layout": list(raw["layout"].values()), "l": l, "pattern": pattern.describe(),
        "row_block": getattr(attention, "ROW_BLOCK", None), "tile_size": config.tile_size,
        "untraced_pass_s": round(seconds, 4),
        "ru_maxrss_mb": {"before_pass": round(before, 2), "after_pass": round(after, 2)},
        "traced_pass_peak_mb": whole, "phases": phases,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
