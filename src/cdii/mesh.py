"""Uniform triangulation of the unit square and electrode placement.

Every grid cell is split along its southeast-to-northwest diagonal into a
lower triangle anchored at the cell's southwest corner and an upper triangle
anchored at the northeast corner.  Node numbering is row-major from the
southwest corner of the box; triangles are numbered cell by cell, west to
east then south to north, lower triangle before upper.  The order in which
a sparse factorization eliminates the nodes is the solver's to choose
(``fem_cem``), not the mesh's.

All geometry is exact: spacing is ``h = 1/(side_nodes - 1)``, every triangle
has area ``h**2 / 2``, every boundary edge has length ``h``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

SIDES = ("bottom", "right", "top", "left")

#: Tolerance for matching a coordinate along a side, an electrode interval's
#: endpoint or a measured trace's, to a grid node.
ALIGN_TOL = 1e-9


class ParameterError(ValueError):
    """An invalid value of one parameter; ``name`` names it, e.g. ``[1].z``."""

    def __init__(self, name: str, message: str):
        self.name = name
        super().__init__(message)


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _side_nodes(n: int, side: str) -> np.ndarray:
    """Node ids along one side of an ``n``-square grid, by increasing coordinate."""
    if side == "bottom":
        return np.arange(n)
    if side == "top":
        return np.arange(n) + (n - 1) * n
    if side == "left":
        return np.arange(n) * n
    if side == "right":
        return np.arange(n) * n + (n - 1)
    raise ValueError(f"unknown side tag {side!r}")


@dataclass(frozen=True)
class Mesh:
    """Uniform right-triangle mesh of the unit square, defined by its side count.

    ``Mesh(side_nodes)`` checks that ``side_nodes`` is an integer >= 2 and
    derives every other attribute from it; two meshes are equal when their
    side counts are.

    Attributes
    ----------
    side_nodes : int
        Nodes per side; the total node count is ``side_nodes**2``.
    h : float
        Grid spacing, ``1 / (side_nodes - 1)``.
    nodes : ndarray, shape (m, 2)
        Node coordinates, row-major from the southwest corner.
    triangles : ndarray, shape (n_tri, 3)
        Vertex indices in the local order the plane basis functions are
        defined in (lower: SW, SE, NW; upper: NE, SE, NW).
    boundary_edges : ndarray, shape (n_edges, 2)
        Node pairs of the boundary edges, grouped by side in the order
        bottom, right, top, left and oriented along increasing coordinate;
        ``edges_on_side`` gives the indices of one side's edges.
    """

    side_nodes: int
    h: float = field(init=False, repr=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    triangles: np.ndarray = field(init=False, repr=False, compare=False)
    boundary_edges: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.side_nodes
        if not _is_integer(n) or n < 2:
            raise ValueError(f"side_nodes must be an integer >= 2, got {n!r}")
        n = int(n)
        h = 1.0 / (n - 1)

        ids = np.arange(n * n)
        nodes = np.column_stack([(ids % n) * h, (ids // n) * h])

        cr, cc = np.meshgrid(np.arange(n - 1), np.arange(n - 1), indexing="ij")
        base = (cr * n + cc).ravel()  # SW node of each cell, cell-major west->east
        tri = np.empty((2 * (n - 1) ** 2, 3), dtype=np.int64)
        tri[0::2] = np.column_stack([base, base + 1, base + n])          # lower
        tri[1::2] = np.column_stack([base + n + 1, base + 1, base + n])  # upper

        sides = [_side_nodes(n, side) for side in SIDES]
        edges = np.vstack([np.column_stack([s[:-1], s[1:]]) for s in sides])

        object.__setattr__(self, "side_nodes", n)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", _frozen(nodes))
        object.__setattr__(self, "triangles", _frozen(tri))
        object.__setattr__(self, "boundary_edges", _frozen(edges))

    @property
    def node_count(self) -> int:
        return self.side_nodes ** 2

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    @property
    def triangle_area(self) -> float:
        """Unsigned area shared by every triangle."""
        return self.h * self.h / 2.0

    def nodes_on_side(self, side: str) -> np.ndarray:
        """Node ids along one side, ordered by increasing coordinate."""
        return _side_nodes(self.side_nodes, side)

    def edges_on_side(self, side: str) -> np.ndarray:
        """Indices into ``boundary_edges`` of the edges on one side."""
        if side not in SIDES:
            raise ValueError(f"unknown side tag {side!r}")
        per_side = self.side_nodes - 1
        offset = SIDES.index(side) * per_side
        return np.arange(offset, offset + per_side)


@dataclass(frozen=True)
class Electrode:
    """A contiguous run of boundary edges with a constant contact impedance;
    on a mesh of spacing ``h`` its length is ``len(edge_ids) * h``."""

    edge_ids: np.ndarray
    edges: np.ndarray  # (E, 2) node pairs
    impedance: float

    def __post_init__(self):
        if len(self.edge_ids) == 0:
            raise ValueError("electrode has no edges (zero surface measure)")

    def nodes(self) -> np.ndarray:
        return np.unique(self.edges)


@dataclass(frozen=True)
class ElectrodeSetup:
    """The full electrode configuration; holds N+1 disjoint electrodes, each
    with a positive, finite contact impedance whose reciprocal is finite."""

    electrodes: tuple[Electrode, ...]

    def __post_init__(self):
        if len(self.electrodes) < 2:
            raise ValueError("at least two electrodes are required")
        seen: set[int] = set()
        for k, e in enumerate(self.electrodes):
            z = float(e.impedance)
            if not (0.0 < z < np.inf and 1.0 / z < np.inf):
                raise ParameterError(
                    f"[{k}].z", f"electrode {k}: impedance must be positive and finite, "
                    f"with a finite reciprocal, got {e.impedance}")
            ids = set(int(i) for i in e.edge_ids)
            if seen & ids:
                raise ParameterError(f"[{k}].interval",
                                     f"electrode {k} shares boundary edges with another electrode")
            seen |= ids

    @property
    def count(self) -> int:
        return len(self.electrodes)

    @property
    def impedances(self) -> np.ndarray:
        return np.array([e.impedance for e in self.electrodes])


def build_uniform_mesh(side_nodes: int) -> Mesh:
    """Triangulate the unit square with ``side_nodes**2`` nodes.

    Parameters
    ----------
    side_nodes : int
        Grid nodes per side, at least 2.

    Returns
    -------
    Mesh
        ``2 * (side_nodes - 1)**2`` triangles on a grid of spacing
        ``1 / (side_nodes - 1)``.
    """
    return Mesh(side_nodes)


def triangle_gradients(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Per-triangle gradient of the piecewise-linear function with given nodal values.

    Each gradient is a difference of two corners of its cell over ``h``:
    ``((SE - SW)/h, (NW - SW)/h)`` on a lower triangle and
    ``((NE - NW)/h, (NE - SE)/h)`` on an upper one, the sums of the plane
    basis functions' gradients weighted by the nodal values, taken from
    four slices of the node grid.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.node_count,):
        raise ValueError(
            f"expected {mesh.node_count} nodal values, got shape {values.shape}"
        )
    n = mesh.side_nodes
    grid = values.reshape(n, n)
    sw, se, nw, ne = grid[:-1, :-1], grid[:-1, 1:], grid[1:, :-1], grid[1:, 1:]
    # (cell row, cell column, lower/upper, component): triangle order, reshaped
    grads = np.empty((n - 1, n - 1, 2, 2))
    np.subtract(se, sw, out=grads[:, :, 0, 0])
    np.subtract(nw, sw, out=grads[:, :, 0, 1])
    np.subtract(ne, nw, out=grads[:, :, 1, 0])
    np.subtract(ne, se, out=grads[:, :, 1, 1])
    grads /= mesh.h
    return grads.reshape(-1, 2)


def _gradient_norm(grad: np.ndarray) -> np.ndarray:
    """Per-triangle Euclidean norm ``|grad|`` of a gradient field.

    ``sqrt(gx*gx + gy*gy)``, vectorized, where ``np.hypot`` makes a libm
    call per element.  It is within 2 ulp of ``np.hypot`` while the
    components' magnitudes stay in [1e-150, 1e150]; outside that range the
    squares underflow or overflow, far from any potential gradient here.
    """
    gx, gy = grad[:, 0], grad[:, 1]
    return np.sqrt(gx * gx + gy * gy)


def centroids(mesh: Mesh) -> np.ndarray:
    """Triangle centroids, shape (n_tri, 2)."""
    return _centroid_values(mesh, mesh.nodes)


def _centroid_values(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Per-triangle vertex mean of a nodal field, scalar or not, from four
    slices of the node grid: ``(SW + SE + NW)/3`` on a lower triangle and
    ``(NE + SE + NW)/3`` on an upper one, bitwise the gathered mean."""
    n = mesh.side_nodes
    tail = values.shape[1:]
    grid = values.reshape(n, n, *tail)
    sw, se, nw, ne = grid[:-1, :-1], grid[:-1, 1:], grid[1:, :-1], grid[1:, 1:]
    # (cell row, cell column, lower/upper, ...): triangle order, reshaped
    c = np.empty((n - 1, n - 1, 2, *tail))
    np.add(sw, se, out=c[:, :, 0])
    np.add(ne, se, out=c[:, :, 1])
    c[:, :, 0] += nw
    c[:, :, 1] += nw
    c /= 3.0
    return c.reshape(-1, *tail)


def _grid_index(mesh: Mesh, coords) -> np.ndarray:
    """Index along a side of the grid node within ``ALIGN_TOL`` of each of
    ``coords``, or -1 where none is; a NaN matches no node."""
    c = np.asarray(coords, dtype=float)
    i = np.rint(np.clip(c, 0.0, 1.0) / mesh.h)
    return np.where(np.abs(c - i * mesh.h) <= ALIGN_TOL, i, -1).astype(np.int64)


def locate_electrodes(
    mesh: Mesh,
    side_spans: Sequence[tuple[str, tuple[float, float]]],
    impedances: Iterable[float],
) -> ElectrodeSetup:
    """Place electrodes on grid-aligned intervals of the boundary.

    Parameters
    ----------
    side_spans : sequence of (side, (lo, hi))
        Coordinate intervals along the named sides.  Endpoints must align
        with grid nodes to within ``ALIGN_TOL`` so boundary integrals of
        piecewise-linear traces stay exact.
    impedances : iterable of float
        Contact impedance of each electrode, positive and finite with a
        finite reciprocal (the rule of ``ElectrodeSetup``).

    Raises
    ------
    ParameterError
        Named ``[k].side``, ``[k].interval`` or ``[k].z`` for electrode
        ``k``: an unknown side, an interval that is empty, leaves [0, 1],
        misses the grid or overlaps an earlier one, or a non-positive
        impedance.
    """
    impedances = list(impedances)
    if len(impedances) != len(side_spans):
        raise ValueError(
            f"{len(side_spans)} spans but {len(impedances)} impedances"
        )
    electrodes = []
    for k, ((side, (lo, hi)), z) in enumerate(zip(side_spans, impedances)):
        if side not in SIDES:
            raise ParameterError(f"[{k}].side", f"electrode {k}: unknown side tag {side!r}")
        if not 0.0 <= lo < hi <= 1.0:
            raise ParameterError(
                f"[{k}].interval",
                f"electrode {k}: interval ({lo}, {hi}) is empty or leaves [0, 1]")
        i_lo, i_hi = _grid_index(mesh, (lo, hi))
        if min(i_lo, i_hi) < 0 or i_lo == i_hi:
            raise ParameterError(
                f"[{k}].interval",
                f"electrode {k}: interval ({lo}, {hi}) does not align with the "
                f"grid of spacing {mesh.h}")
        edge_ids = mesh.edges_on_side(side)[i_lo:i_hi]
        electrodes.append(
            Electrode(
                edge_ids=_frozen(edge_ids.copy()),
                edges=_frozen(mesh.boundary_edges[edge_ids].copy()),
                impedance=float(z),
            )
        )
    return ElectrodeSetup(electrodes=tuple(electrodes))
