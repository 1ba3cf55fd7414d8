"""purekv benchmark: end-to-end metrics with tracing off, per-layer spans with it on.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list-metrics

Run from the root of a checkout. Each run starts fresh single-threaded
processes: several that only set up (their median is `setup_s`) and one
that runs the workload for at least S seconds and checks its outputs. The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the `end_to_end` metrics of BENCHMARK.json with
`--trace 0`, its `per_layer` metrics with `--trace 1`. The lines before it
list every metric by name with its unit, then the run's details as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
DEADLINE_S = 170


def _child(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"workload process {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def list_metrics(gate: dict) -> None:
    bounds = {m["name"]: m.get("bound") for m in gate["end_to_end"] + gate["per_layer"]}
    print(f"{'metric':45} {'unit':9} {'better':7} {'gate':6} affects")
    for name, (unit, better) in catalog.END_TO_END.items():
        gated = f"{bounds[name]:.2f}" if bounds.get(name) is not None else "-"
        print(f"{name:45} {unit:9} {better:7} {gated:6} end to end")
    for name, (unit, better, affects) in catalog.PER_LAYER.items():
        gated = "yes" if name in bounds else "-"
        print(f"{name:45} {unit:9} {better:7} {gated:6} {affects}")
    print()
    for workload in gate["workloads"]:
        print(f"{workload['name']}: {workload['why']}")


def main(argv=None) -> int:
    gate = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in gate["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true")
    args = parser.parse_args(argv)
    if args.list_metrics:
        list_metrics(gate)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    missing = [p for p in ("src/purekv/__init__.py", "configs/example.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a purekv checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_s = None
    if not args.trace:
        probes = [_child(common + ["--setup-only"], DEADLINE_S) for _ in range(SETUP_PROBES)]
        setup_s = {name: statistics.median(p[name] for p in probes)
                   for name in ("setup_s", "setup_s.raw")}
    left = DEADLINE_S - (time.perf_counter() - started)
    result = _child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], left)
    metrics = result.pop("metrics")
    if setup_s is not None:
        metrics.update(setup_s)

    table = catalog.END_TO_END if not args.trace else catalog.PER_LAYER
    for name in table:
        value = metrics.get(name)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:45} {shown:>14} {catalog.unit_of(name)}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "metrics": metrics, **result}))

    gated = [m["name"] for m in gate["per_layer" if args.trace else "end_to_end"]]
    absent = [name for name in gated if metrics.get(name) is None]
    if absent:
        print(f"no value for {', '.join(absent)}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": catalog.unit_of(name)}
                    for name in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
