"""Span tracing of cdii from outside the package, and per-layer metrics.

``Tracer.operation`` replaces each public function of the cdii layer modules
with a wrapper at every module attribute that holds it, so a caller that
imported the function by name (``from .fem_cem import solve_forward``)
reaches the wrapper too.  The ``splu`` call ``cdii.fem_cem`` makes through
its ``scipy.sparse.linalg`` alias is wrapped through a proxy of that alias,
leaving scipy itself untouched.  Every attribute is restored when the
operation ends, so untraced operations run the plain code.

A span records its name, start, end, parent span and the operation it
belongs to.  Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

#: The cdii modules whose public functions are traced, one layer each.
LAYERS = ("mesh", "fem_cem", "weighted_gradient", "calibration", "phantom", "csvio")

#: Modules whose attributes are rebound to the wrappers (the callers).
CALLERS = ("cdii", "cdii.cli") + tuple(f"cdii.{m}" for m in LAYERS)

# csvio.fmt formats a single number and runs once per value written; a
# span per call would cost more than the write it measures.
SKIP = {"csvio.fmt"}

#: Per-layer counts that must repeat exactly between traced operations.
#: The ``csvio`` byte counts here leave out convergence.csv, whose
#: wall-time column is machine-dependent and so varies in length.
COUNTS = ("fem_cem.solves", "fem_cem.system_nnz", "fem_cem.unknowns",
          "fem_cem.factor_fill_nnz", "weighted_gradient.iterations",
          "weighted_gradient.converged", "calibration.breakpoints",
          "calibration.repaired", "csvio.write_calls", "csvio.read_calls",
          "csvio.write_bytes_fixed", "csvio.read_bytes_fixed")


def _file_size(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _system_size(args, result):
    nnz = (result.Lambda.nnz + 2 * int((result.Psi != 0).sum())
           + int((result.Upsilon != 0).sum()))
    return {"nnz": nnz, "unknowns": len(result.rhs)}


def _reconstruction(args, result):
    objective = [rec.objective for rec in result.log]
    rises = [b - a for a, b in zip(objective, objective[1:])]
    return {"iterations": result.iterations, "converged": int(result.converged),
            "max_increase": max(rises) if rises else 0.0}


def _phi(args, result):
    return {"breakpoints": len(result.breakpoints), "repaired": int(result.repaired)}


#: Facts read from a call's arguments or result once its span has closed.
ANNOTATE = {
    "fem_cem.assemble_system": _system_size,
    "fem_cem.splu": lambda args, lu: {"nnz": int(lu.nnz)},
    "weighted_gradient.reconstruct": _reconstruction,
    "calibration.build_monotone_map": _phi,
}


#: Largest gap allowed between the sum of the layers' self times and the
#: operation's wall time.  The gap is the time spent outside the root span,
#: installing and removing the wrappers: about 1 ms on the baseline
#: machine.  Time in that window during which the thread did not run (it
#: was descheduled on a busy host; 5 ms and more seen on a 2-vCPU VM under
#: load) is not counted against it: see ``layer_metrics``.
ACCOUNT_TOL_S = 0.01


class TraceError(Exception):
    """The spans of an operation do not nest or do not add up."""


class _AliasProxy:
    """Stands in for a module alias and overrides one of its functions."""

    def __init__(self, module, name, fn):
        self._module = module
        setattr(self, name, fn)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> dict:
        parent = self._stack[-1]
        span = {"id": len(self.spans), "name": name, "parent": parent["id"],
                "op": parent["op"], "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def operation(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` traced, as operation ``op_id`` under a root
        span ``cli``; the wrappers are in place only for that call.  The
        root span also records this thread's CPU time at its ends."""
        self._install()
        try:
            root = {"id": len(self.spans), "name": "cli", "parent": None,
                    "op": op_id, "start": time.perf_counter(), "end": None,
                    "cpu_start": time.thread_time()}
            self.spans.append(root)
            self._stack.append(root)
            try:
                return fn(*args)
            finally:
                self._close(root)
                root["cpu_end"] = time.thread_time()
        finally:
            self._uninstall()

    def _wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)
        if name.startswith("csvio.write_") or name.startswith("csvio.read_"):
            annotate = _file_size

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span["info"] = annotate(args, result)
            return result

        return traced

    # -- installing the wrappers ---------------------------------------------

    def _install(self) -> None:
        import scipy.sparse.linalg as spla

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cdii.{layer}")
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrappers[fn] = self._wrap(name, fn)
        for caller in CALLERS:
            module = importlib.import_module(caller)
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(module, attr, wrappers[value])

        fem_cem = importlib.import_module("cdii.fem_cem")
        splu = self._wrap("fem_cem.splu", spla.splu)
        for attr, value in list(vars(fem_cem).items()):
            if value is spla:
                self._rebind(fem_cem, attr, _AliasProxy(spla, "splu", splu))
            elif value is spla.splu:
                self._rebind(fem_cem, attr, splu)

    def _rebind(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], op_s: float, op_cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans (root first), its
    wall time ``op_s``, timed by the caller on the clock that times
    untraced operations, and the calling thread's CPU time ``op_cpu_s`` over
    the same interval.

    Checks that children nest inside their parent without overlapping one
    another, and that the layers' self times plus the root's account for
    ``op_s`` to within ``ACCOUNT_TOL_S``, once the time the thread was not
    running outside the root span is taken off the gap.  That time is the
    wall-clock gap less the CPU time the thread used outside the root span.
    """
    children: dict[int, list[dict]] = {s["id"]: [] for s in spans}
    for s in spans[1:]:
        children[s["parent"]].append(s)
    self_time: dict[str, float] = {}
    for s in spans:
        previous_end = s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            if c["start"] < previous_end or c["end"] > s["end"]:
                raise TraceError(f"span {c['name']} does not nest in {s['name']}")
            previous_end = c["end"]
        own = _duration(s) - sum(_duration(c) for c in children[s["id"]])
        layer = s["name"].split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + own

    by_id = {s["id"]: s for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(*names):
        return sum(_duration(s) for n in names for s in named(n))

    def info(name, key, reduce, default=0):
        values = [s["info"][key] for s in named(name)]
        return reduce(values) if values else default

    def inside(name, parent):
        return sum(_duration(s) for s in named(name)
                   if by_id[s["parent"]]["name"] == parent)

    # csvio.write_trace calls csvio.write_field; count only outermost calls.
    io = [s for s in spans if s["name"].startswith("csvio.")
          and not by_id[s["parent"]]["name"].startswith("csvio.")]
    writes = [s for s in io if s["name"].startswith("csvio.write_")]
    reads = [s for s in io if s["name"].startswith("csvio.read_")]

    def size(spans, fixed=False):
        return sum(s["info"]["bytes"] for s in spans
                   if not (fixed and s["name"].endswith("_convergence")))

    m = {
        "mesh.build_s": total("mesh.build_uniform_mesh", "mesh.locate_electrodes"),
        "mesh.self_s": self_time.get("mesh", 0.0),
        "fem_cem.solves": len(named("fem_cem.solve_forward")),
        "fem_cem.solve_s": total("fem_cem.solve_forward"),
        "fem_cem.assemble_s": total("fem_cem.assemble_system"),
        "fem_cem.solve_self_s": total("fem_cem.solve_forward")
        - inside("fem_cem.assemble_system", "fem_cem.solve_forward"),
        "fem_cem.factor_s": total("fem_cem.splu"),
        "fem_cem.factor_fill_nnz": info("fem_cem.splu", "nnz", max),
        "fem_cem.system_nnz": info("fem_cem.assemble_system", "nnz", max),
        "fem_cem.unknowns": info("fem_cem.assemble_system", "unknowns", max),
        "fem_cem.self_s": self_time.get("fem_cem", 0.0),
        "weighted_gradient.iterations": info("weighted_gradient.reconstruct",
                                             "iterations", sum),
        "weighted_gradient.converged": info("weighted_gradient.reconstruct",
                                            "converged", min),
        "weighted_gradient.reconstruct_s": total("weighted_gradient.reconstruct"),
        "weighted_gradient.self_s": self_time.get("weighted_gradient", 0.0),
        "weighted_gradient.functional_s": total("weighted_gradient.functional_value"),
        "weighted_gradient.clamp_s": total("weighted_gradient.clamp_conductivity"),
        "weighted_gradient.max_objective_increase": info(
            "weighted_gradient.reconstruct", "max_increase", max, 0.0),
        "calibration.s": total("calibration.collect_pairs",
                               "calibration.build_monotone_map",
                               "calibration.apply_calibration"),
        "calibration.breakpoints": info("calibration.build_monotone_map",
                                        "breakpoints", max),
        "calibration.repaired": info("calibration.build_monotone_map",
                                     "repaired", max),
        "calibration.self_s": self_time.get("calibration", 0.0),
        "phantom.simulate_s": total("phantom.simulate_data"),
        "phantom.noise_s": total("phantom.add_noise"),
        "phantom.self_s": self_time.get("phantom", 0.0),
        "csvio.write_s": sum(_duration(s) for s in writes),
        "csvio.write_bytes": size(writes),
        "csvio.write_bytes_fixed": size(writes, fixed=True),
        "csvio.write_calls": len(writes),
        "csvio.read_s": sum(_duration(s) for s in reads),
        "csvio.read_bytes": size(reads),
        "csvio.read_bytes_fixed": size(reads, fixed=True),
        "csvio.read_calls": len(reads),
        "csvio.self_s": self_time.get("csvio", 0.0),
        "cli.self_s": self_time["cli"],
        "trace.op_s": op_s,
    }
    accounted = sum(self_time.values())
    root = spans[0]
    cpu_outside = op_cpu_s - (root["cpu_end"] - root["cpu_start"])
    descheduled = max(0.0, (op_s - accounted) - cpu_outside)
    if abs(accounted + descheduled - op_s) > ACCOUNT_TOL_S:
        raise TraceError(f"layer self times sum to {accounted:.6f} s, "
                         f"the operation took {op_s:.6f} s, of which the "
                         f"thread did not run for {descheduled:.6f} s "
                         "outside the spans")
    return m
