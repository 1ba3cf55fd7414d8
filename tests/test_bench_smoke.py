"""Smoke test of the traced benchmark: it must run the program end to end and
find its outputs correct. The traced run reaches paths the unit tests do not,
such as the MAC estimate it reads for each prefill span, and long-prefill's
dense layers take attention's threaded path at l = 2060, where the run checks
that traced and untraced outputs are bit-identical and that logits match the
cache-free reference.

Each run writes its spans to the repository's gitignored .perfbench-out/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["example-grid", "long-prefill", "decode-long"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
