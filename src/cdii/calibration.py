"""Boundary-curve calibration of the intermediate conductivity.

The reconstruction determines the conductivity only up to a monotone
reparameterization of the potential.  Measuring the true potential along a
boundary curve that joins the electrodes pins that freedom down: pairing
the computed potential with the measured one along the curve yields a
monotone map ``phi``, and dividing the intermediate conductivity by
``phi'`` restores the true one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem_cem import ConductivityField
from .mesh import ElectrodeSetup, Mesh, _centroid_values, _frozen
from .weighted_gradient import ReconstructionResult

#: ``build_monotone_map`` merges pairs whose sorted computed potentials differ
#: by at most this from the one before.
MERGE_TOL = 1e-12

#: Adjacent measured values of the map that differ by at most this, relative
#: to the largest magnitude, differ only by the rounding of their averages;
#: they count as equal and are pooled.
VALUE_RTOL = 1e-12


@dataclass(frozen=True)
class PhiMap:
    """Monotone piecewise-linear map from computed to measured potential.

    The map interpolates ``values`` (measured potential) at ``breakpoints``
    (computed potential), both strictly increasing with at least two
    entries, so it is continuous and strictly increasing.  ``slopes`` is
    derived, ``np.diff(values) / np.diff(breakpoints)``, and must be finite
    and positive.  Outside the breakpoint range the map extends linearly
    with the first/last segment slope.  ``repaired``, keyword-only, marks
    that the input pairs violated monotonicity and were pooled.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    repaired: bool = field(default=False, kw_only=True)
    slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if b.ndim != 1 or len(b) < 2 or v.shape != b.shape:
            raise ValueError("map needs n >= 2 breakpoints and n values")
        if np.any(np.diff(b) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(np.diff(v) <= 0.0):
            raise ValueError("values must be strictly increasing")
        s = np.diff(v) / np.diff(b)
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
    """Measured potential samples at distinct boundary nodes (V), finite;
    the node ids are integers of a dtype that casts to int64, never floats."""

    node_ids: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.node_ids)
        v = np.asarray(self.values, dtype=float)
        if ids.ndim != 1 or ids.shape != v.shape:
            raise ValueError("trace needs matching 1-d node ids and values")
        if len(ids) == 0:
            raise ValueError("trace is empty")
        if ids.dtype.kind not in "iu" or not np.can_cast(ids.dtype, np.int64):
            raise ValueError(f"trace node ids must be int64-castable integers, got {ids.dtype}")
        if (row := self.first_repeated(ids)) is not None:
            raise ValueError(f"trace node {ids[row]} occurs twice; sample {row} repeats it")
        if not np.all(np.isfinite(v)):
            raise ValueError("trace values must be finite")
        object.__setattr__(self, "node_ids", _frozen(ids.astype(np.int64)))
        object.__setattr__(self, "values", _frozen(v))

    @staticmethod
    def first_repeated(node_ids: np.ndarray) -> int | None:
        """Index of the first sample whose node an earlier sample holds, if any."""
        _, first = np.unique(node_ids, return_index=True)
        repeated = np.setdiff1d(np.arange(len(node_ids)), first)
        return int(repeated[0]) if len(repeated) else None


def collect_pairs(mesh: Mesh, setup: ElectrodeSetup, recon: ReconstructionResult,
                  trace: BoundaryVoltageTrace) -> np.ndarray:
    """Pair computed with measured potential along the boundary curve.

    Returns an array of ``(s, t)`` rows in trace order, ``s`` the
    reconstruction's potential at the trace node and ``t`` the measured
    value; ``build_monotone_map`` sorts and merges them.  ``setup`` is
    unused; it stays only because callers pass it positionally.
    """
    off = np.flatnonzero(~np.isin(trace.node_ids, mesh.boundary_edges))
    if len(off):
        raise ValueError(f"trace node {trace.node_ids[off[0]]} is not on the mesh boundary")
    return np.column_stack([recon.solution.u[trace.node_ids], trace.values])


def _pool_adjacent_violators(t: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Pool adjacent values until each exceeds the one before by more than
    ``tol``; returns (pooled t, block ids)."""
    vals: list[float] = []
    sizes: list[int] = []  # each block's value count, its weight in the mean
    for y in t:
        vals.append(float(y))
        sizes.append(1)
        while len(vals) > 1 and vals[-1] <= vals[-2] + tol:
            w = sizes[-2] + sizes[-1]
            vals[-2] = (vals[-2] * sizes[-2] + vals[-1] * sizes[-1]) / w
            sizes[-2] = w
            del vals[-1], sizes[-1]
    block = np.repeat(np.arange(len(sizes)), sizes)
    return np.asarray(vals), block


def build_monotone_map(pairs: np.ndarray) -> PhiMap:
    """Fit the monotone piecewise-linear calibration map through the pairs.

    The ``(s, t)`` rows may come in any order: they are sorted by ``s``,
    and rows whose ``s`` differ by at most ``MERGE_TOL`` are averaged into
    one; at least two distinct ``s`` must remain.  Consecutive slopes must
    be positive; when the measured values violate that (noise,
    discretization), adjacent violators are averaged and each
    pooled block collapses to a single breakpoint at its mean computed
    potential, which restores strict monotonicity.  Values within
    ``VALUE_RTOL`` of each other count as equal, so each increase of the
    map exceeds rounding.  The result interpolates the (possibly repaired)
    pairs and extends with constant end slopes.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) == 0:
        raise ValueError("pairs must be a nonempty (n, 2) array of (s, t) rows")
    arr = arr[np.argsort(arr[:, 0], kind="stable")]
    group = np.concatenate([[0], np.cumsum(np.diff(arr[:, 0]) > MERGE_TOL)])
    count = np.bincount(group)
    s = np.bincount(group, weights=arr[:, 0]) / count
    t = np.bincount(group, weights=arr[:, 1]) / count
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

    return PhiMap(breakpoints=s, values=t, repaired=repaired)


def apply_calibration(mesh: Mesh, recon: ReconstructionResult,
                      phi: PhiMap) -> ConductivityField:
    """Rescale the intermediate conductivity by the calibration slope.

    Each triangle is divided by ``phi'`` evaluated at the triangle's mean
    vertex potential (the centroid value of the piecewise-linear solution).
    """
    v_cent = _centroid_values(mesh, recon.solution.u)
    return ConductivityField(recon.sigma_v.values / phi.derivative(v_cent))
