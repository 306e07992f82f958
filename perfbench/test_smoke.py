"""Smoke tests of the benchmark: each workload's code path and each check
at tiny mesh sizes, so that a broken harness fails in seconds.

Run from the repository root:  python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    assert result["attempted"] >= (4 if trace else 2)  # warm-up included
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_without_cdii_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = bench(tmp_path, "--workload", "pipeline-90", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_seed_zero_is_the_acceptance_configuration(tmp_path):
    wl = workloads.Workload("pipeline-90", 0, False, tmp_path)
    assert wl.cfg.side_nodes == 90
    assert wl.cfg.phantom_center == (0.5, 0.5)
    assert (wl.cfg.delta, wl.cfg.epsilon, wl.cfg.noise_seed) == (1e-7, 0.1, 0)
    (tmp_path / "other").mkdir()
    other = workloads.Workload("pipeline-90", 7, False, tmp_path / "other")
    assert other.cfg.phantom_center != (0.5, 0.5)
    assert max(abs(c - 0.5) for c in other.cfg.phantom_center) <= workloads.CENTRE_JITTER


def test_staged_checks_catch_changed_outputs(tmp_path):
    wl = workloads.Workload("staged-noisy-90", 2, True, tmp_path)
    out = tmp_path / "op"
    assert wl.run(out) is None
    digest = wl.digest(out, None)
    assert wl.check(out, None) <= workloads.MAX_RELATIVE_L2

    # The wall-time column of convergence.csv is the one output that may vary.
    conv = out / "convergence.csv"
    lines = conv.read_text().splitlines()
    conv.write_text("\n".join([lines[0]] + [ln.rsplit(",", 1)[0] + ",1.5"
                                            for ln in lines[1:]]) + "\n")
    assert wl.digest(out, None) == digest

    sigma = out / "sigma_final.csv"
    good = sigma.read_text()
    sigma.write_text(good.replace("\n1,", "\n1,9", 1))
    assert wl.digest(out, None) != digest
    header, ids, values = workloads.cdii.csvio.read_field(sigma)
    workloads.cdii.csvio.write_field(sigma, *header, values * 1.5)
    with pytest.raises(workloads.CheckFailed, match="relative_l2"):
        wl.check(out, None)


def test_forward_check_catches_wrong_voltages(tmp_path):
    wl = workloads.Workload("forward-180", 1, True, tmp_path)
    out = tmp_path / "op"
    wl.run(out)
    assert 0.0 < wl.check(out, None) < 1.0
    header, _, U = workloads.cdii.csvio.read_field(out / "U.csv")
    workloads.cdii.csvio.write_field(out / "U.csv", *header, U * (1 + 1e-6))
    with pytest.raises(workloads.CheckFailed, match="electrode 0"):
        wl.check(out, None)
    (out / "a.csv").unlink()
    with pytest.raises(workloads.CheckFailed, match="missing"):
        wl.digest(out, None)


def test_trace_accounts_for_the_operation(tmp_path):
    wl = workloads.Workload("pipeline-90", 1, True, tmp_path)
    tracer = tracing.Tracer()
    c0, t0 = time.thread_time(), time.perf_counter()
    tracer.operation(0, wl.run, tmp_path / "op")
    elapsed, cpu = time.perf_counter() - t0, time.thread_time() - c0
    spans = tracer.spans
    m = tracing.layer_metrics(spans, elapsed, cpu)
    assert m["trace.op_s"] == elapsed
    self_times = [v for k, v in m.items() if k.endswith(".self_s")]
    assert len(self_times) == len(tracing.LAYERS) + 1
    assert sum(self_times) == pytest.approx(elapsed, abs=tracing.ACCOUNT_TOL_S)
    # Work the spans do not cover fails the operation ...
    missed = 2 * tracing.ACCOUNT_TOL_S
    with pytest.raises(tracing.TraceError, match="sum to"):
        tracing.layer_metrics(spans, elapsed + missed, cpu + missed)
    # ... but time the thread spent descheduled outside the spans does not.
    tracing.layer_metrics(spans, elapsed + missed, cpu)
    assert m["fem_cem.solves"] == m["weighted_gradient.iterations"] + 2
    assert m["csvio.write_calls"] == 10 and m["csvio.read_calls"] == 0
    assert m["fem_cem.factor_fill_nnz"] > m["fem_cem.system_nnz"] > 0
    # The wrappers are gone once the operation ends.
    assert not hasattr(workloads.cdii.cli.solve_forward, "__wrapped__")
    assert workloads.cdii.fem_cem.spla is scipy.sparse.linalg

    child = next(s for s in spans if s["name"] == "fem_cem.splu")
    child["end"] = spans[0]["end"] + 1.0
    with pytest.raises(tracing.TraceError, match="does not nest"):
        tracing.layer_metrics(spans, elapsed, cpu)


def test_relative_l2():
    ref = np.array([1.0, 1.0, 2.0, 2.0])
    assert workloads.relative_l2(ref, ref) == 0.0
    assert workloads.relative_l2(ref, ref * 1.1) == pytest.approx(0.1)


def test_speed_probe_stops_its_helper():
    with speed.SpeedProbe() as probe:
        kernel = probe.after(0.0)
        assert len(kernel) == 1 and kernel[0] > 0.0
        assert sum(probe.after(4 * kernel[0] / speed.KERNEL_SHARE)) >= 4 * kernel[0]
        helper = probe._helper
    assert helper.poll() is not None
    assert speed.SpeedProbe.correct(2.0, [speed.REFERENCE_S / 4, speed.REFERENCE_S * 3 / 4]) \
        == pytest.approx(4.0)
