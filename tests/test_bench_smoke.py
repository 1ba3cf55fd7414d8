"""Smoke test of the benchmark: it must run the program end to end and find
its outputs correct.

The traced run reaches paths the unit tests do not, such as the MAC estimate
it reads for each prefill span, and long-prefill's dense layers take
attention's threaded path at l = 2060, where the run checks that traced and
untraced outputs are bit-identical and that logits match the cache-free
reference. The untraced run is the one whose metrics are gated: it runs the
speed probe and the setup probes, reports every end-to-end metric (run.py
exits 3 when one is missing), and at seed 0 compares example-grid's report
with perfbench/golden/.

Each traced run writes its spans to the repository's gitignored .perfbench-out/.
The in-process test installs the benchmark's session checks on a grid run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def bench(workload, seed, trace):
    """The last line of perfbench/run.py's output, once it has exited with code 0."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["example-grid", "long-prefill", "decode-long"])
def test_traced_run_is_correct(workload):
    assert bench(workload, 1, 1)["correct"] is True


@pytest.mark.parametrize("workload", ["example-grid", "decode-long"])
def test_untraced_run_is_correct_and_reports_every_gated_metric(workload):
    result = bench(workload, 0, 0)
    gate = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in gate["end_to_end"]}


def test_the_benchmarks_session_checks_pass_on_a_grid_with_lenders(monkeypatch):
    """perfbench/sessions.py's SessionRecorder, imported as perfbench/tests does,
    checks every logit and every layer's and head's row count after each
    compression and decode step. On the example grid, whose borrowers hold
    their lenders' layers below st_layer_index, it finds no problem on any of
    the 38 sessions, one per cell, of which 14 borrow."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        monkeypatch.syspath_prepend(str(path))
    import purekv.engine
    from purekv.harness import run_experiment
    from sessions import SessionRecorder
    from speed import NoProbe

    prefilled, lenders = [], []  # one entry per call: the session, the lenders passed
    real_prefill, real_compress = purekv.engine.prefill, purekv.engine.apply_compression

    def prefill(model, session, *args):
        prefilled.append(session)
        return real_prefill(model, session, *args)

    def apply_compression(model, session, *args):
        lenders.append(args)
        return real_compress(model, session, *args)

    monkeypatch.setattr(purekv.engine, "prefill", prefill)
    monkeypatch.setattr(purekv.engine, "apply_compression", apply_compression)
    recorder = SessionRecorder(NoProbe())
    recorder.install()
    try:
        run_experiment(str(ROOT / "configs" / "example.json"))
    finally:
        assert recorder.patches.restore() == []
    assert len(recorder.sessions) == len(prefilled) == len(lenders) == 38
    assert sum(map(len, lenders)) == 14
    assert sum(len(rec.decode) for rec in recorder.sessions) == 28 * 8
    assert [rec.problems for rec in recorder.sessions if rec.problems] == []
