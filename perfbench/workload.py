"""One benchmark process: set up a workload, run measured passes, check outputs.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workload.py --workload NAME --seed N --setup-only

Prints one JSON object as its last line of standard output. numpy and purekv
are imported only after the set-up clock starts, and BLAS and OpenMP are
pinned to one thread before numpy loads.

Seed 0 keeps the config's own model and workload seeds, as `purekv run`
without `--seed` does; any other seed overrides both, as `--seed N` does.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import catalog
from speed import NoProbe, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "example.json"
GOLDEN = Path(__file__).resolve().parent / "golden" / "example-grid.report.json"
OUT_DIR = ROOT / ".perfbench-out"
DEFAULT_SEED = 0
TOLERANCE = 1e-9
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Prompt layout (text prefix, frames, patches per frame, text suffix); None
# keeps the config's layout.
LAYOUTS = {
    "example-grid": None,
    "long-prefill": (8, 16, 128, 4),
    "decode-long": (8, 16, 32, 4),
}
# One pass: a pure_kv session per (pattern, budget, decode steps).
SESSIONS = {
    "long-prefill": (("dense", 0.2, 32), ("spatial_temporal", 0.2, 32)),
    "decode-long": (("spatial_temporal", 0.1, 384),),
}


@dataclass
class Setup:
    config: object
    model: object
    embeddings: object
    decode_rows: object


def setup(workload: str, seed: int) -> Setup:
    """Import purekv, load the config, build the model and the inputs."""
    import purekv
    from purekv import engine, harness

    if not Path(purekv.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"purekv imported from {purekv.__file__}, not from {ROOT / 'src'}")
    raw = json.loads(CONFIG.read_text())
    if seed != DEFAULT_SEED:
        raw["model"]["seed"] = seed
        raw["workload"]["seed"] = seed
    if LAYOUTS[workload] is not None:
        prefix, frames, patches, suffix = LAYOUTS[workload]
        raw["layout"] = {"text_prefix_len": prefix, "num_frames": frames,
                         "patches_per_frame": patches, "text_suffix_len": suffix}
    config = harness.load_config(raw)
    model = engine.init_model(config.model)
    embeddings, _ = harness.generate_workload(config.workload, config.model.d_model)
    steps = max((s for _, _, s in SESSIONS.get(workload, ())), default=config.decode_steps)
    decode_rows = harness.decode_embeddings(config.workload, config.model.d_model, steps)
    return Setup(config, model, embeddings, decode_rows)


# --- passes ------------------------------------------------------------------

def grid_pass(ctx: Setup, seed: int, out: Path) -> dict:
    """`purekv run` on the example config, through the CLI's own entry point."""
    import purekv.cli as cli

    argv = ["run", "--config", str(CONFIG), "--out", str(out)]
    if seed != DEFAULT_SEED:
        argv += ["--seed", str(seed)]
    code = cli.main(argv)
    return {"exit_code": code, "report": out.read_bytes() if code == 0 else b""}


def session_pass(ctx: Setup, workload: str, recorder) -> dict:
    """The workload's sessions, driven through the engine's public functions."""
    from purekv import engine
    from purekv.cache import PolicyConfig
    from purekv.masks import parse_pattern

    c = ctx.config
    unrecorded = 0
    for pattern, budget, steps in SESSIONS[workload]:
        opened = len(recorder.sessions)
        policy = PolicyConfig("pure_kv", budget, c.recent_window_w, c.sink_len,
                              c.clie_layer_index, c.st_layer_index)
        try:
            session = engine.init_session(ctx.model, c.layout, policy,
                                          parse_pattern(pattern, c.layout), c.tile_size)
            engine.prefill(ctx.model, session, ctx.embeddings)
            engine.apply_compression(ctx.model, session)
            for row in ctx.decode_rows[:steps]:
                engine.decode_step(ctx.model, session, row)
        except Exception:  # noqa: BLE001 - a failed session is a counted failure
            traceback.print_exc(file=sys.stderr)
            unrecorded += len(recorder.sessions) == opened
    return {"unrecorded_failures": unrecorded}


# --- checks after the measured passes ----------------------------------------

def check_against_reference(ctx: Setup, recorder) -> list[str]:
    """Compare every kept prefill logit, and every `full` decode logit, with a
    cache-free forward over the same inputs."""
    import numpy as np
    from purekv.masks import parse_pattern

    from reference import reference_logits

    keys = recorder.logits.arrays
    if not keys:
        return []
    c = ctx.config
    l = c.layout.total_len
    steps = max((key[2] + 1 for key in keys if key[0] == "decode"), default=0)
    rows = np.vstack([ctx.embeddings, ctx.decode_rows[:steps]])
    patterns = sorted({key[1] for key in keys})
    expected = reference_logits(ctx.model, c.layout, [parse_pattern(p, c.layout) for p in patterns],
                                c.st_layer_index, rows)
    bad = {}
    for key, variants in keys.items():
        want = expected[key[1]][:l] if key[0] == "prefill" else expected[key[1]][l + key[2]]
        for index, got in enumerate(variants):
            diff = float(np.max(np.abs(got - want))) if got.shape == want.shape else float("inf")
            if not diff <= TOLERANCE:
                bad[(key, index)] = diff
    for rec in recorder.sessions:
        for output in rec.outputs:
            if output in bad:
                rec.problems.append(f"{output[0]} differs from the reference by {bad[output]:.3g}")
    return [f"{key}: {diff:.3g}" for (key, _), diff in bad.items()]


def machine() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
    }


# --- the run -----------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from sessions import SessionRecorder
    from spans import Tracer, leftover_wrappers

    tracer = Tracer() if trace else None
    probe = NoProbe() if trace else SpeedProbe()
    recorder = SessionRecorder(probe)
    passes = []
    unrecorded = 0
    problems = []
    with probe, tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        if trace:
            tracer.install()
        ctx = setup(workload, seed)
        if trace:
            problems += tracer.patches.restore()
            tracer.phase = "pass"
        recorder.install()
        started = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            if traced:
                tracer.install()
            if workload == "example-grid":
                result, interval = probe.timed(grid_pass, ctx, seed, Path(tmp) / "report.json")
            else:
                result, interval = probe.timed(session_pass, ctx, workload, recorder)
            if traced:
                problems += tracer.patches.restore()
            unrecorded += result.pop("unrecorded_failures", 0)
            result.update(traced=traced, interval=interval, digest=recorder.take_digest())
            passes.append(result)
            enough = time.perf_counter() - started >= seconds
            if enough and (not trace or len(passes) % 2 == 0):
                break
    import purekv

    problems += recorder.patches.restore()
    problems += leftover_wrappers(purekv)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems += check_against_reference(ctx, recorder)
    failed = unrecorded + sum(bool(rec.problems) for rec in recorder.sessions)
    attempted = unrecorded + len(recorder.sessions)
    for rec in recorder.sessions:
        problems += rec.problems
    identical = 0
    if workload == "example-grid":
        golden = GOLDEN.read_bytes() if seed == DEFAULT_SEED else passes[0]["report"]
        for result in passes:
            attempted += 1
            same = result["exit_code"] == 0 and result["report"] == golden
            identical += same
            if not same:
                failed += 1
                problems.append(f"CLI exit code {result['exit_code']}, report differs from "
                                f"{'the golden copy' if seed == DEFAULT_SEED else 'the first pass'}")
    if trace:
        for untraced, traced in zip(passes[0::2], passes[1::2]):
            if (untraced["digest"], untraced.get("report")) != (traced["digest"], traced.get("report")):
                failed += 1
                problems.append("a traced pass's outputs differ from the untraced pass before it")

    out = {"attempted": attempted, "failed": failed, "problems": problems[:20],
           "pass_wall_s": [p["interval"].busy for p in passes], "machine": machine()}
    if trace:
        out["metrics"] = traced_metrics(tracer, passes, identical, workload, seed)
    else:
        out["metrics"] = end_to_end_metrics(recorder, passes, probe.scaled)
        raw = end_to_end_metrics(recorder, passes, lambda interval: interval.busy)
        out["metrics"].update({f"{name}.raw": raw[name] for name in catalog.SCALED if name in raw})
        out["metrics"]["peak_rss_mb"] = peak_rss_mb
        out["metrics"]["error_rate"] = failed / attempted
    out["correct"] = failed == 0 and not problems
    return out


def end_to_end_metrics(recorder, passes, seconds) -> dict:
    """Timings, each interval converted to seconds by seconds(interval)."""
    from summary import timing

    recs = recorder.sessions
    prefill = [r for r in recs if r.prefill is not None]
    decode = [seconds(i) for r in recs for i in r.decode]
    ttft = [r.ttft_s(seconds) for r in recs if r.ttft_s(seconds) is not None]
    metrics = {"wall_s": sum(seconds(p["interval"]) for p in passes) / len(passes)}
    metrics.update(timing("ttft_ms", ttft))
    metrics.update(timing("tpot_ms", decode))
    metrics["prefill_tok_per_s"] = (sum(r.prompt_len for r in prefill)
                                    / sum(seconds(r.prefill) for r in prefill)) if prefill else None
    metrics["decode_tok_per_s"] = len(decode) / sum(decode) if decode else None
    return metrics


def traced_metrics(tracer, passes, identical, workload, seed) -> dict:
    from purekv import harness

    from summary import median
    from spans import aggregate

    credit = {}

    def mac_pairs(key):
        if key not in credit:
            config, layout, pattern = key
            macs = harness.estimate_macs(layout, pattern, config, "prefill").attention
            credit[key] = macs / (config.num_q_heads * (config.d_k + config.d_v))
        return credit[key]

    traced = [p["interval"].busy for p in passes if p["traced"]]
    untraced = [p["interval"].busy for p in passes if not p["traced"]]
    metrics = aggregate(tracer.spans, len(traced), traced, mac_pairs)
    metrics["harness.report_identical"] = identical
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    for name in catalog.PER_LAYER:
        metrics.setdefault(name, 0)  # a function this workload never calls
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(LAYOUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    for name in THREAD_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        with SpeedProbe() as probe:
            _, interval = probe.timed(setup, args.workload, args.seed)
        result = {"setup_s": probe.scaled(interval), "setup_s.raw": interval.busy}
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
