"""Set-up time of a fresh process: import the cdii CLI and build one
workload's problem (config, mesh, electrodes, currents, phantom) before any
solve.

Usage, from the repository root:
    python3 perfbench/probe.py <config file>
Prints the elapsed seconds.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, "src")

import cdii.cli  # noqa: E402

import workloads  # noqa: E402

cfg = cdii.load_config(sys.argv[1])
workloads.problem(cfg, cfg.side_nodes)
print(repr(time.perf_counter() - t0))
