"""cdii benchmark: one workload, one process, a closed loop of operations.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline-90 --seed 0 --seconds 20 --trace 0

One operation runs at a time and the next starts when it returns; no
extra threads.  A warm-up operation of the same workload on its smoke-size
mesh first runs every code path once, at a fraction of the cost of a
full-size operation.  Full-size operations then repeat until ``--seconds``
have passed.

``--trace 0`` reports the end-to-end metrics: median operation wall time,
set-up time of fresh processes, accuracy, peak resident memory and the
share of operations that passed.  Each operation's and each set-up
probe's time is corrected for the host's speed, sampled just before and
just after it by ``speed.SpeedProbe`` on the CPU the run is pinned to;
the raw medians are printed beside them and kept in the run record.
``--trace 1`` alternates traced and untraced operations
and reports per-layer metrics from the traced ones, with the tracing
overhead.  ``--smoke`` shrinks every mesh so that each workload's code path
and checks run in a second or two.

Every operation is checked: exit codes, output files, byte-identical
output across operations of one run (the wall-time column of
convergence.csv aside), and a full check of the first operation's output
(see ``workloads.Workload.check``).  The last line of standard output is
the JSON result; the run record, with the environment and the spans of a
traced run, goes to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5

BLAS_VARS = ("CDII_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
        commit = out.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cdii").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_caps": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "seed": seed,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def setup_seconds(config_path: Path, probes: int, speed) -> tuple[list, list]:
    """Set-up times of ``probes`` fresh processes, and ``probes + 1``
    host-speed samples: one before the first probe and one after each."""
    speed.sample()  # the helper's first run warms it up and is not used
    times, kernel = [], [speed.sample()]
    for _ in range(probes):
        out = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(config_path)],
                             cwd=ROOT, text=True, capture_output=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
        kernel.append(speed.sample())
    return times, kernel


class Run:
    """The closed loop of one run: operations, their checks and timings."""

    def __init__(self, workload, warmup, speed, work: Path, seconds: float):
        self.workload = workload
        self.warmup = warmup
        self.speed = speed
        self.work = work
        self.seconds = seconds
        self.attempted = 0
        self.failed: set[int] = set()
        self.failures: list[str] = []
        self.reference = None  # (out_dir, outputs, digest) of the first operation
        # Host-speed samples before the first step and after each step.
        self.kernel: list[list[float]] = []
        self.cpu_s = 0.0  # this thread's CPU time in the last operation

    def fail(self, index: int, message: str) -> None:
        self.failed.add(index)
        self.failures.append(f"operation {index}: {message}")

    def operation(self, call=None) -> tuple[float, bool]:
        """Run, time and check one operation; ``call(fn, out)`` may wrap it."""
        index = self.attempted
        self.attempted += 1
        out = self.work / f"op{index}"
        call = call or (lambda fn, arg: fn(arg))
        c0, t0 = time.thread_time(), time.perf_counter()
        try:
            outputs = call(self.workload.run, out)
        except Exception as exc:  # any error of the program fails the operation
            elapsed = time.perf_counter() - t0
            self.cpu_s = time.thread_time() - c0
            self.fail(index, f"{type(exc).__name__}: {exc}")
            return elapsed, False
        elapsed = time.perf_counter() - t0
        self.cpu_s = time.thread_time() - c0
        try:
            digest = self.workload.digest(out, outputs)
        except Exception as exc:
            self.fail(index, str(exc))
            return elapsed, False
        if self.reference is None:
            self.reference = (out, outputs, digest)
            return elapsed, True
        shutil.rmtree(out, ignore_errors=True)
        if digest != self.reference[2]:
            self.fail(index, "outputs differ from the first operation's")
            return elapsed, False
        return elapsed, True

    def loop(self, step, done) -> None:
        """Warm up, then call ``step()`` until ``--seconds`` have passed and
        ``done()`` holds; an operation starts only if it should end by about
        the deadline (within half an operation).  The host's speed is
        sampled before the first step and after each step."""
        index = self.attempted
        self.attempted += 1
        try:
            self.warmup.run(self.work / "warmup")
        except Exception as exc:  # any error of the program fails the operation
            self.fail(index, f"warm-up: {type(exc).__name__}: {exc}")
        self.kernel.append(self.speed.after(0.0))
        start = time.perf_counter()
        times = []
        while not done() or (time.perf_counter() - start
                             < self.seconds - statistics.median(times) / 2):
            times.append(step())
            self.kernel.append(self.speed.after(times[-1]))

    def check_reference(self) -> float | None:
        """Full check of the first operation.  Every other operation that
        passed matched its bytes, so a failure here fails them all."""
        if self.reference is None:
            return None
        out, outputs, _ = self.reference
        try:
            return self.workload.check(out, outputs)
        except Exception as exc:
            self.failures.append(f"check of the first operation: {exc}")
            self.failed.update(range(self.attempted))
            return None


def end_to_end(run: Run, config_path: Path, probes: int) -> tuple[dict, dict]:
    walls: list[float] = []

    def step():
        elapsed, _ = run.operation()
        walls.append(elapsed)
        return elapsed

    setup, setup_kernel = setup_seconds(config_path, probes, run.speed)
    run.loop(step, lambda: len(walls) >= 1)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    accuracy = run.check_reference()
    correct = run.speed.correct
    # Each time is corrected by the host-speed samples just before and
    # just after it.
    metrics = {
        "wall_s": statistics.median(correct(t, before + after) for t, before, after
                                    in zip(walls, run.kernel, run.kernel[1:])),
        "setup_s": statistics.median(correct(t, [before, after]) for t, before, after
                                     in zip(setup, setup_kernel, setup_kernel[1:])),
        "relative_l2": accuracy,
        "peak_rss_mb": peak_mib,
        "ok_frac": 1.0 - len(run.failed) / run.attempted,
    }
    samples = {"wall_s": walls, "setup_s": setup, "setup_kernel_s": setup_kernel,
               "loop_kernel_s": run.kernel}
    return metrics, samples


def per_layer(run: Run, tracing) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    traced_layers: list[dict] = []
    traced: list[float] = []
    untraced: list[float] = []

    def step():
        if len(traced) <= len(untraced):
            first = len(tracer.spans)
            op_id = run.attempted
            elapsed, ok = run.operation(
                lambda fn, out: tracer.operation(op_id, fn, out))
            traced.append(elapsed)
            if ok:
                try:
                    layers = tracing.layer_metrics(tracer.spans[first:], elapsed,
                                                   run.cpu_s)
                    counts = [layers[k] for k in tracing.COUNTS]
                    if traced_layers and counts != [traced_layers[0][k]
                                                    for k in tracing.COUNTS]:
                        raise tracing.TraceError("counts differ from the first "
                                                 "traced operation")
                    traced_layers.append(layers)
                except tracing.TraceError as exc:
                    run.fail(op_id, str(exc))
                    traced_layers.append(None)
            else:
                traced_layers.append(None)
        else:
            elapsed, _ = run.operation()
            untraced.append(elapsed)
        return elapsed

    run.loop(step, lambda: len(traced) >= 2 and len(untraced) >= 1)
    run.check_reference()
    samples = {"spans": tracer.spans, "traced_op_s": traced, "untraced_op_s": untraced}
    good = [m for m in traced_layers if m is not None]
    if not good:
        return {}, samples
    metrics = {k: good[0][k] if k in tracing.COUNTS
               else statistics.median(m[k] for m in good) for k in good[0]}
    metrics["trace.untraced_op_s"] = statistics.median(untraced)
    # Each traced operation is paired with the untraced one right after it,
    # so that a drift of the host's speed cancels in the difference.
    metrics["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced, untraced))
    return metrics, samples


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny meshes: exercise each code path and check quickly")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")

    package = ROOT / "src" / "cdii" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: {package} not found; run from the root of a cdii "
              "source tree", file=sys.stderr)
        return 2
    # On a shared VM each CPU's speed drifts on its own, over seconds.
    # Pinned to one CPU, this process, the speed helper and the set-up
    # probes all run where the host-speed kernel measures; unpinned, the
    # helper ran on the other CPU and its times did not track the
    # operations'.  Pinned before numpy loads, BLAS starts one thread.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import cdii

    if Path(cdii.__file__).resolve() != package.resolve():
        print(f"perfbench: imported cdii from {cdii.__file__}, not {package}",
              file=sys.stderr)
        return 2
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" * args.smoke)
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.Workload(args.workload, args.seed, args.smoke, work)
        (work / "warmup").mkdir()
        warmup = workloads.Workload(args.workload, args.seed, True, work / "warmup")
        with speed.SpeedProbe() as probe:
            run = Run(workload, warmup, probe, work, args.seconds)
            if args.trace:
                metrics, samples = per_layer(run, tracing)
            else:
                metrics, samples = end_to_end(run, workload.config_path,
                                              1 if args.smoke else SETUP_PROBES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # A metric that could not be measured because operations failed is
    # reported as null; the run is then not correct anyway.
    metrics = {name: metrics.get(name) for name in units}

    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
              "env": env, "metrics": metrics, "samples": samples,
              "failures": run.failures}
    (WORK / f"{tag}.json").write_text(json.dumps(record))

    for failure in run.failures:
        print(f"perfbench: {failure}", file=sys.stderr)
    print(f"{tag}: {run.attempted} operations, {len(run.failed)} failed")
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s} {units[name]}")
    if not args.trace:
        kernels = {"wall_s": [k for ks in samples["loop_kernel_s"] for k in ks],
                   "setup_s": samples["setup_kernel_s"]}
        for name, kernel in kernels.items():
            print(f"  {name} before correction: median {statistics.median(samples[name]):.6g}"
                  f" s of {len(samples[name])}; host-speed kernel median "
                  f"{statistics.median(kernel):.4g} s of {len(kernel)}"
                  f" (reference {speed.REFERENCE_S} s)")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": not run.failed and None not in metrics.values(),
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
