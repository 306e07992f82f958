"""Boundary-curve calibration of the intermediate conductivity.

The reconstruction determines the conductivity only up to a monotone
reparameterization of the potential.  Measuring the true potential along a
boundary curve that joins the electrodes pins that freedom down: pairing
the computed potential with the measured one along the curve yields a
monotone map ``phi``, and dividing the intermediate conductivity by
``phi'`` restores the true one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem_cem import ConductivityField
from .mesh import ElectrodeSetup, Mesh, _centroid_values, _frozen
from .weighted_gradient import ReconstructionResult

#: Pairs whose computed potentials differ by less than this are merged.
MERGE_TOL = 1e-12

#: Adjacent measured values of the map that differ by at most this, relative
#: to the largest magnitude, differ only by the rounding of their averages;
#: they count as equal and are pooled.
VALUE_RTOL = 1e-12


@dataclass(frozen=True)
class PhiMap:
    """Monotone piecewise-linear map from computed to measured potential.

    ``breakpoints`` (computed potential) are strictly increasing,
    ``values`` (measured potential) strictly increasing, ``slopes`` has one
    positive entry per segment.  Outside the breakpoint range the map
    extends linearly with the first/last segment slope.  ``repaired`` marks
    that the input pairs violated monotonicity and were pooled.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    repaired: bool = False

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        s = np.asarray(self.slopes, dtype=float)
        if len(b) < 2 or len(v) != len(b) or len(s) != len(b) - 1:
            raise ValueError("map needs n >= 2 breakpoints, n values, n-1 slopes")
        if np.any(np.diff(b) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(np.diff(v) <= 0.0):
            raise ValueError("values must be strictly increasing")
        if not np.all(np.isfinite(s) & (s > 0.0)):
            raise ValueError("slopes must be finite and positive")
        object.__setattr__(self, "breakpoints", _frozen(b))
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "slopes", _frozen(s))

    def _segment(self, s) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints, s, side="right") - 1
        return np.clip(idx, 0, len(self.slopes) - 1)

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        i = self._segment(s_arr)
        out = self.values[i] + self.slopes[i] * (s_arr - self.breakpoints[i])
        return float(out) if np.isscalar(s) else out

    def derivative(self, s):
        """Piecewise-constant slope at ``s`` (right-continuous at breakpoints)."""
        out = self.slopes[self._segment(np.asarray(s, dtype=float))]
        return float(out) if np.isscalar(s) else out


@dataclass(frozen=True)
class BoundaryVoltageTrace:
    """Measured potential samples at distinct boundary nodes (V), finite."""

    node_ids: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.node_ids, dtype=np.int64)
        v = np.asarray(self.values, dtype=float)
        if ids.ndim != 1 or ids.shape != v.shape:
            raise ValueError("trace needs matching 1-d node ids and values")
        if len(ids) == 0:
            raise ValueError("trace is empty")
        if (row := self.first_repeated(ids)) is not None:
            raise ValueError(f"trace node {ids[row]} occurs twice; sample {row} repeats it")
        if not np.all(np.isfinite(v)):
            raise ValueError("trace values must be finite")
        object.__setattr__(self, "node_ids", _frozen(ids))
        object.__setattr__(self, "values", _frozen(v))

    @staticmethod
    def first_repeated(node_ids: np.ndarray) -> int | None:
        """Index of the first sample whose node an earlier sample holds, if any."""
        _, first = np.unique(node_ids, return_index=True)
        repeated = np.setdiff1d(np.arange(len(node_ids)), first)
        return int(repeated[0]) if len(repeated) else None


def side_trace(mesh: Mesh, side: str, values: np.ndarray) -> BoundaryVoltageTrace:
    """Trace covering one full mesh side, ordered by increasing coordinate.

    A full side touching both electrode-adjacent corners realizes the
    connectivity the calibration relies on in the two-electrode setup.
    """
    ids = mesh.nodes_on_side(side)
    values = np.asarray(values, dtype=float)
    if values.shape != ids.shape:
        raise ValueError(
            f"side {side!r} has {len(ids)} nodes but got {values.shape} values"
        )
    return BoundaryVoltageTrace(node_ids=ids.copy(), values=values.copy())


def _merge_close(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by s and average groups closer than MERGE_TOL."""
    order = np.argsort(s, kind="stable")
    s, t = s[order], t[order]
    group = np.concatenate([[0], np.cumsum(np.diff(s) > MERGE_TOL)])
    count = np.bincount(group)
    s_m = np.bincount(group, weights=s) / count
    t_m = np.bincount(group, weights=t) / count
    return s_m, t_m


def collect_pairs(mesh: Mesh, setup: ElectrodeSetup, recon: ReconstructionResult,
                  trace: BoundaryVoltageTrace,
                  electrode_trace: BoundaryVoltageTrace | None = None) -> np.ndarray:
    """Pair computed with measured potential along the boundary curve.

    Returns an array of ``(s, t)`` rows, ``s`` the reconstruction's
    potential at the trace node and ``t`` the measured value, sorted by
    ``s`` with near-duplicate ``s`` merged by averaging.  Measurements on
    the electrodes themselves may be passed separately; on an electrode the
    computed and true potentials differ by the same constant, so those
    pairs lie on the same monotone map and are simply appended.
    """
    boundary = set(int(i) for i in mesh.boundary_nodes())
    ids = [trace.node_ids]
    vals = [trace.values]
    for i in trace.node_ids:
        if int(i) not in boundary:
            raise ValueError(f"trace node {int(i)} is not on the mesh boundary")
    if electrode_trace is not None:
        electrode_nodes = set()
        for e in setup.electrodes:
            electrode_nodes |= set(int(i) for i in e.nodes())
        for i in electrode_trace.node_ids:
            if int(i) not in electrode_nodes:
                raise ValueError(
                    f"electrode-trace node {int(i)} does not lie on an electrode"
                )
        ids.append(electrode_trace.node_ids)
        vals.append(electrode_trace.values)

    node_ids = np.concatenate(ids)
    t = np.concatenate(vals)
    s = recon.solution.u[node_ids]
    s_m, t_m = _merge_close(s, t)
    if len(s_m) < 2:
        raise ValueError("need at least 2 distinct computed-potential values")
    return np.column_stack([s_m, t_m])


def _pool_adjacent_violators(t: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Pool adjacent values until each exceeds the one before by more than
    ``tol``; returns (pooled t, block ids)."""
    vals: list[float] = []
    weights: list[int] = []
    sizes: list[int] = []
    for y in t:
        vals.append(float(y))
        weights.append(1)
        sizes.append(1)
        while len(vals) > 1 and vals[-1] <= vals[-2] + tol:
            w = weights[-2] + weights[-1]
            vals[-2] = (vals[-2] * weights[-2] + vals[-1] * weights[-1]) / w
            weights[-2] = w
            sizes[-2] += sizes[-1]
            del vals[-1], weights[-1], sizes[-1]
    block = np.repeat(np.arange(len(sizes)), sizes)
    return np.asarray(vals), block


def build_monotone_map(pairs: np.ndarray) -> PhiMap:
    """Fit the monotone piecewise-linear calibration map through the pairs.

    Consecutive slopes must be positive; when the measured values violate
    that (noise, discretization), adjacent violators are averaged and each
    pooled block collapses to a single breakpoint at its mean computed
    potential, which restores strict monotonicity.  Values within
    ``VALUE_RTOL`` of each other count as equal, so each increase of the
    map exceeds rounding.  The result interpolates the (possibly repaired)
    pairs and extends with constant end slopes.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 2:
        raise ValueError("pairs must be an (n >= 2, 2) array of (s, t) rows")
    s, t = _merge_close(arr[:, 0], arr[:, 1])
    if len(s) < 2:
        raise ValueError("need at least 2 distinct computed-potential values")

    tol = VALUE_RTOL * float(np.max(np.abs(t)))
    repaired = bool(np.any(np.diff(t) <= tol))
    if repaired:
        pooled, block = _pool_adjacent_violators(t, tol)
        counts = np.bincount(block)
        s = np.bincount(block, weights=s) / counts
        t = pooled
    if len(s) < 2:
        raise ValueError("measured values have no increase; the map would be flat")

    slopes = np.diff(t) / np.diff(s)
    return PhiMap(breakpoints=s, values=t, slopes=slopes, repaired=repaired)


def apply_calibration(mesh: Mesh, recon: ReconstructionResult,
                      phi: PhiMap) -> ConductivityField:
    """Rescale the intermediate conductivity by the calibration slope.

    Each triangle is divided by ``phi'`` evaluated at the triangle's mean
    vertex potential (the centroid value of the piecewise-linear solution).
    """
    v_cent = _centroid_values(mesh, recon.solution.u)
    return ConductivityField(recon.sigma_v.values / phi.derivative(v_cent))
