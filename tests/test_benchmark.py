"""The benchmark's traced checks at full size, on two workloads: one 180²
factorization, and a 60² reconstruction whose 80-odd solves share a
factor.  The benchmark's own smoke tests run each workload only on its
tiny mesh.

Each case runs ``perfbench/run.py`` as its README shows, with
``--seconds 0``, so that it runs only the fewest operations a traced run
takes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["forward-180", "recon-tight-60"])
def test_full_size_traced_run_is_correct(workload):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "0", "--seconds", "0", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, out.stderr
