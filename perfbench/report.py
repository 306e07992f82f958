"""Run every workload untraced and traced, and print every metric by name
with its unit.

Usage, from the repository root:

    python3 perfbench/report.py

Each run is a separate ``perfbench/run.py`` process at seed 0 for
``run_seconds`` of BENCHMARK.json, one after another.  For another seed or
a smoke run, call ``run.py`` directly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path


def main() -> int:
    declared = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    results = {}
    ok = True
    for trace in (0, 1):
        for workload in workloads:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", "0", "--seconds", str(declared["run_seconds"]),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = out.stdout.splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            results[workload, trace] = result
            if trace == 0 and workload == workloads[0]:
                print(next(line for line in lines if line.startswith("env ")))

    print(f"{'metric':44s} {'unit':6s}" + "".join(f"{w:>17s}" for w in workloads))
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        for metric in declared[group]:
            name = metric["name"]
            row = f"{name:44s} {metric['unit']:6s}"
            for workload in workloads:
                value = results[workload, trace]["metrics"][name]["value"]
                row += f"{'n/a' if value is None else format(value, '.6g'):>17s}"
            print(row)
    for trace in (0, 1):
        print(f"{'attempted/failed, trace ' + str(trace):51s}" + "".join(
            f"{results[w, trace]['attempted']:>13d}/{results[w, trace]['failed']:<3d}"
            for w in workloads))
    print("all operations correct" if ok else "SOME OPERATIONS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
