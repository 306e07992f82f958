"""Host-speed probe: a fixed kernel, independent of cdii, timed between
operations so that timings can be corrected for the speed of the host.

On a shared cloud VM the same operation runs 10-15% slower or faster from
one operation to the next, and by up to 40% over minutes, with process CPU
time tracking wall time and steal time near zero: the host itself changes
speed.  The kernel mixes the two kinds of work that dominate cdii (SuperLU
factorizations and solves, and float formatting in Python), so its time
moves with the host's speed in a similar way.  A corrected time is the
measured time times ``REFERENCE_S`` over the mean kernel time measured
just before and just after it, so it reads as seconds on the baseline
machine.  Each CPU of the VM changes speed on its own, so the kernel only
tracks an operation's speed when both run on the same CPU: ``run.py`` pins
itself, and so this helper, to one.

The kernel runs in a helper process, started once per run and asked for
one sample at a time while no operation runs, so its memory never counts
toward the peak resident memory of the process that runs the operations.

Usage as the helper:  python3 perfbench/speed.py   (one line in, one
timing out, until standard input closes).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Median kernel time on the baseline machine (2-vCPU Intel Xeon VM,
#: Python 3.11, numpy 2.4, scipy 1.17).
REFERENCE_S = 0.09

#: Share of the run spent on the kernel after each operation; at least
#: one sample runs between any two operations.
KERNEL_SHARE = 0.1

# Kernel size: two factorizations of the 5-point Laplacian on a 100x100
# grid and 20000 floats formatted.
GRID = 100
FACTORIZATIONS = 2
FLOATS = 20000


def _kernel():
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
    eye = sp.identity(GRID)
    matrix = (sp.kron(eye, d) + sp.kron(d, eye)).tocsc()
    rhs = np.ones(GRID * GRID)
    floats = np.random.default_rng(0).standard_normal(FLOATS).tolist()

    def run() -> float:
        t0 = time.perf_counter()
        for _ in range(FACTORIZATIONS):
            spla.splu(matrix).solve(rhs)
        "\n".join(f"{x:.17g}" for x in floats)
        return time.perf_counter() - t0

    return run


class SpeedProbe:
    """Client of the helper process; use as a context manager."""

    def __init__(self):
        self._helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()

    def sample(self) -> float:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError("the speed helper process exited")
        return float(line)

    def after(self, op_seconds: float) -> list[float]:
        """Sample for about ``KERNEL_SHARE`` of the operation just run;
        returns the samples taken."""
        kernel = [self.sample()]
        while sum(kernel) < KERNEL_SHARE * op_seconds:
            kernel.append(self.sample())
        return kernel

    @staticmethod
    def correct(seconds: float, kernel: list[float]) -> float:
        """``seconds`` at the reference speed, given the kernel times
        measured just before and just after it."""
        return seconds * REFERENCE_S / statistics.fmean(kernel)


if __name__ == "__main__":
    kernel = _kernel()
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
