"""Complete electrode model (CEM) forward solver on the unit square.

The discrete problem couples the nodal potential with the electrode
voltages.  With electrode voltages constrained to sum to zero, the last
voltage is eliminated and the remaining unknowns solve the symmetric
positive definite block system

    [ Lambda  Psi     ] [ u ]   [ 0         ]
    [ Psi^T   Upsilon ] [ U ] = [ I_k - I_N ]

where Lambda carries the conductivity stiffness plus electrode trace mass,
Psi couples nodes to voltages, and Upsilon is the voltage block.  All
electrode boundary integrals of products of linear traces are evaluated in
closed form (edge mass matrix h/6 * [[2, 1], [1, 2]]), so no quadrature
error enters the electrode terms.

Only the conductivity changes between the forward solves of a
reconstruction.  On this grid of right triangles the stiffness is a
5-point stencil: a grid edge couples its ends with minus half the
conductivity of the one or two triangles that have it as a leg, and a
cell's SE and NW corners, joined by the hypotenuse, are not coupled.
``_stencil`` computes those entries from slices of the conductivity on
the cell grid.  A ``CemOperator`` is built once per mesh and electrode
setup: it holds the block matrix's sparsity pattern with the nodes in
mesh order and the electrode voltages last, the fixed electrode entries,
and the stencil entry of each of the pattern's slots.  A solve gathers
the stencil at its conductivity into the slots of a matrix its
``LastFactor`` keeps, adds the fixed entries, and factorizes with
SuperLU's symmetric mode, in the multiple minimum-degree order SuperLU
computes for each factorization, without relaxed supernodes
(``LU_RELAX``).  ``assemble_system`` assembles the same stencil entries
and the electrode trace mass as triplets; the operator takes its pattern
and its electrode blocks from one call to it.

Every solve goes through a ``LastFactor``, which holds the last
factorization; the solves that pass the same one share it.  Each solve
runs preconditioned conjugate gradients on a factor, and a factorization
only renews that preconditioner.  A solve meets the relative residual its
caller asks for, ``SOLVER_TOL`` unless it asks for another, or a backward
error of 18 units of roundoff (``BACKWARD_TOL``).  The ``LastFactor``
docstring holds the design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import (ElectrodeSetup, Mesh, ParameterError, _frozen, _gradient_norm,
                   triangle_gradients)

#: Relative-residual tolerance of a linear solve whose caller names none:
#: every solve but a reconstruction's loose iterates.
SOLVER_TOL = 1e-10

#: A solve is also accepted when its residual is at most this multiple of
#: ``||M||_inf ||x||_2 + ||b||_2``: a normwise backward error of 18 units
#: of roundoff, 2^-53 each (Rigal & Gaches, J. ACM 14(3), 1967; Higham,
#: Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002,
#: sec. 7.1).  ``M`` is symmetric, so ``||M||_2 <= ||M||_inf``.  Rounding
#: alone leaves such a residual, and it can exceed ``SOLVER_TOL ||b||``
#: when ``||b||``, which holds only the currents, is small against
#: ``||M|| ||x||``: for impedances far apart, such as 1 and 1e6.  A floor of
#: 90 units (1e-14) moved ``relative_l2`` by 5e-5 relative at z = 1e4, so
#: it stays a small multiple.
BACKWARD_TOL = 2e-15

#: Relative tolerance for the zero-sum current / voltage invariants.
ZERO_SUM_TOL = 1e-12

#: Largest current magnitude (A) a ``CurrentPattern`` holds.  A solution is
#: linear in the currents, and a solve and the reconstruction square it:
#: the load vector's norm, ``|grad u|``, the functional's electrode terms
#: and current work.  The bound leaves a factor of 1e50 below the root of
#: the largest double, 1.3e154, for the mesh, impedances and conductivity.
MAX_CURRENT = 1e100

#: A sequence of solves sharing a ``LastFactor`` refactorizes after a solve
#: that needed more PCG iterations than this: a lower cap refactorizes more
#: often, and a higher one spends more PCG iterations than the
#: factorizations it saves cost.
PCG_REFACTOR_CAP = 6

#: Iteration limit of one PCG solve: about as many iterations as one
#: factorization costs.  An iterate that misses the contract when PCG stops
#: refactorizes on the last factor and fails the solve on a new one.
PCG_MAX_ITER = 25

#: A solve on a ``LastFactor`` starts PCG from the Galerkin combination of
#: this many last solutions; a deeper history saves iterations, not time.
PCG_RECENT = 4

#: Columns SuperLU updates together in a factorization: the minimum-degree
#: order leaves narrow supernodes, and ``LU_RELAX`` does not widen them,
#: so one column factors them faster than SuperLU's default panel
#: (``BENCH_ordering.json``, ``panel_size``).
LU_PANEL_SIZE = 1

#: Largest subtree of the elimination tree SuperLU factors as one relaxed
#: supernode, explicit zeros stored: the minimum-degree order's narrow
#: subtrees gain nothing from them, so 1 stores fewer entries and factors
#: faster than SuperLU's default (``BENCH_memory.json``, ``relax_sweep``).
LU_RELAX = 1

class SolverError(RuntimeError):
    """Linear solve failed to meet the residual contract."""


def _sums_to_zero(values: np.ndarray) -> bool:
    """Whether ``values`` are finite and sum to zero within ``ZERO_SUM_TOL`` of
    their largest magnitude; a NaN or inf fails before anything is summed."""
    scale = np.max(np.abs(values), initial=0.0)
    return bool(scale < np.inf and abs(values.sum()) <= ZERO_SUM_TOL * scale)


@dataclass(frozen=True)
class ConductivityField:
    """Piecewise-constant conductivity, one positive finite value per triangle (S/m)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("conductivity values must be a 1-d array")
        if not np.all((v > 0.0) & (v < np.inf)):
            raise ValueError("conductivity must be positive and finite on every triangle")
        object.__setattr__(self, "values", _frozen(v))


@dataclass(frozen=True)
class CurrentPattern:
    """Net injected currents (A), one per electrode, finite, summing to zero
    and at most ``MAX_CURRENT`` in magnitude."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < 2:
            raise ValueError("need one current per electrode (at least two)")
        # The bound first, as a NaN fails it: no sum of huge values overflows.
        if not (np.max(np.abs(v)) <= MAX_CURRENT and _sums_to_zero(v)):
            raise ValueError("currents must be finite and sum to zero with magnitudes "
                             f"at most {MAX_CURRENT:g} A, got {v.tolist()}")
        object.__setattr__(self, "values", _frozen(v))


@dataclass(frozen=True)
class ForwardSolution:
    """Nodal potential, electrode voltages on the zero-sum hyperplane, and
    the derived per-triangle potential gradient, all finite.  A broken rule
    raises a ``ParameterError`` named by the field (``u``, ``U``, ``grad_u``)."""

    u: np.ndarray
    U: np.ndarray
    grad_u: np.ndarray

    def __post_init__(self):
        for name in ("u", "U", "grad_u"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(arr).all():
                row = int(np.argwhere(~np.isfinite(arr))[0][0])
                raise ParameterError(name, f"{name} must be finite; entry {row} "
                                     f"holds {arr[row]}")
            object.__setattr__(self, name, _frozen(arr))
        if not _sums_to_zero(self.U):
            raise ParameterError("U", "electrode voltages must sum to zero")


@dataclass(frozen=True)
class BlockSystem:
    """Assembled blocks of the discrete CEM system."""

    Lambda: sp.csr_matrix
    Psi: np.ndarray
    Upsilon: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        d = sp.csr_matrix(self.Lambda - self.Lambda.T)
        scale = max(np.max(np.abs(self.Lambda.data)), 1.0)
        if d.nnz and np.max(np.abs(d.data)) > 1e-13 * scale:
            raise ValueError("stiffness block lost symmetry during assembly")

    def full_matrix(self) -> sp.csc_matrix:
        """The symmetric block matrix of the eliminated-voltage system.

        Unknowns are in mesh node order, then the electrode voltages.
        ``CemOperator`` takes its sparsity pattern from this matrix once.
        """
        return sp.bmat(
            [
                [self.Lambda, sp.csr_matrix(self.Psi)],
                [sp.csr_matrix(self.Psi.T), sp.csr_matrix(self.Upsilon)],
            ],
            format="csc",
        )


def _check_currents(setup: ElectrodeSetup, currents: CurrentPattern) -> None:
    if len(currents.values) != setup.count:
        raise ValueError(f"{len(currents.values)} currents for {setup.count} electrodes")


def _check_setup(mesh: Mesh, setup: ElectrodeSetup, currents: CurrentPattern) -> None:
    _check_currents(setup, currents)
    n_edges = len(mesh.boundary_edges)
    for k, e in enumerate(setup.electrodes):
        if (np.any(e.edge_ids < 0) or np.any(e.edge_ids >= n_edges)
                or not np.array_equal(mesh.boundary_edges[e.edge_ids], e.edges)):
            raise ValueError(f"electrode {k} was not located on this mesh")


def _check_sigma(mesh: Mesh, sigma: ConductivityField) -> None:
    if len(sigma.values) != mesh.triangle_count:
        raise ValueError(f"conductivity has {len(sigma.values)} values for "
                         f"{mesh.triangle_count} triangles")


def _edge_penalty(u: np.ndarray, U_k: float, edges: np.ndarray, h: float,
                  impedance: float) -> float:
    """Exact ``(1/2z) integral (u - U_k)^2`` over an electrode's edges.

    Each difference is divided by ``sqrt(z)`` before it is squared: ``u -
    U_k`` grows as ``z``, so its square would overflow at impedances where
    the penalty, which grows as ``z`` too, is still finite.
    """
    scale = 1.0 / np.sqrt(impedance)
    wp = (u[edges[:, 0]] - U_k) * scale
    wq = (u[edges[:, 1]] - U_k) * scale
    return float(np.sum(wp * wp + wp * wq + wq * wq)) * h / 6.0


def _electrode_terms(val: float, mesh: Mesh, setup: ElectrodeSetup,
                     currents: CurrentPattern, u: np.ndarray, U: np.ndarray) -> float:
    """The running sum ``val`` continued, in this order, by each electrode's
    ``(1/2z_k) integral (u - U_k)^2`` and then minus the current work ``I . U``."""
    for k, e in enumerate(setup.electrodes):
        val += _edge_penalty(u, U[k], e.edges, mesh.h, e.impedance)
    return val - float(np.dot(currents.values, U))


def assemble_system(mesh: Mesh, sigma: ConductivityField, setup: ElectrodeSetup,
                    currents: CurrentPattern) -> BlockSystem:
    """Assemble the discrete CEM block system.

    The stiffness block is the conductivity-weighted gradient inner product
    plus the electrode trace mass; the coupling block subtracts each
    electrode's single-basis edge integrals from the last electrode's; the
    voltage block is ``|e_N|/z_N + diag(|e_j|/z_j)``, the symmetric form
    obtained by eliminating the last voltage from the zero-sum constraint.
    """
    _check_sigma(mesh, sigma)
    _check_setup(mesh, setup, currents)
    m = mesh.node_count
    N = setup.count - 1
    h = mesh.h

    # The stencil's entries, then four trace-mass entries per electrode
    # edge: written into one block of triplets, whose indices are the
    # int32 the matrix keeps.
    stencil_rows, stencil_cols, at = _stencil_pairs(mesh.side_nodes)
    end = len(at)
    rows = np.empty(end + 4 * sum(len(e.edges) for e in setup.electrodes), dtype=np.int32)
    cols = np.empty_like(rows)
    vals = np.empty(len(rows))
    rows[:end], cols[:end] = stencil_rows, stencil_cols
    np.take(_stencil(mesh, sigma), at, out=vals[:end])
    for e in setup.electrodes:
        p, q = e.edges[:, 0], e.edges[:, 1]
        c = h / (6.0 * e.impedance)
        for row, col, val in ((p, p, 2.0 * c), (q, q, 2.0 * c), (p, q, c), (q, p, c)):
            start, end = end, end + len(p)
            rows[start:end], cols[start:end], vals[start:end] = row, col, val
    Lam = sp.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()

    # Per-node single-basis edge integrals, h/2 per incident electrode edge.
    w = np.array([np.bincount(e.edges.ravel(), minlength=m) for e in setup.electrodes]) * (h / 2)

    z = setup.impedances
    length = np.array([len(e.edge_ids) * h for e in setup.electrodes])
    Psi = (w[N] / z[N] - w[:N] / z[:N, None]).T
    Upsilon = np.full((N, N), length[N] / z[N]) + np.diag(length[:N] / z[:N])

    return BlockSystem(Lambda=Lam, Psi=Psi, Upsilon=Upsilon,
                       rhs=_load_vector(m, currents))


def _stencil_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The int32 (row, col) node pairs of the stiffness on a grid of ``n``
    nodes a side, and the index of each pair's entry in ``_stencil``:
    each node's diagonal, then each west-east and each south-north grid
    edge, once in each direction."""
    node = np.arange(n * n, dtype=np.int32).reshape(n, n)
    at = node + np.arange(n, dtype=np.int32)[:, None]  # r * (n + 1) + c
    we, sn = at[:, :-1] + n * (n + 1), at[:-1] + 2 * n * (n + 1)
    west, east, south, north = node[:, :-1], node[:, 1:], node[:-1], node[1:]
    triples = [(node, node, at), (west, east, we), (east, west, we),
               (south, north, sn), (north, south, sn)]
    return tuple(np.concatenate([t[i].ravel() for t in triples]) for i in range(3))


def _stencil(mesh: Mesh, sigma: ConductivityField) -> np.ndarray:
    """The stiffness entries at ``sigma``, at the indices ``_stencil_pairs``
    gives, followed by one zero.

    Each entry adds its triangles' terms in increasing triangle order, so
    it is bitwise the sum of the triangles' element matrices taken in that
    order: a node's diagonal adds ``sigma`` for a triangle whose right
    angle it is (one term: two halves would round differently) and
    ``sigma/2`` for one whose acute corner it is; an edge adds
    ``-sigma/2`` for each triangle that has it as a leg.
    """
    n = mesh.side_nodes
    w, size = n + 1, n * (n + 1)
    # Lower, then upper triangles on the cell grid, cell (r, c) at
    # [:, r + 1, c + 1] amid zeros, which add nothing to a sum.  The
    # diagonal and the two edge blocks each hold n grid rows of stride w,
    # so every term is one contiguous slice of a flattened plane; the
    # entries past a grid row's end are never read.
    s = np.zeros((2, n + 2, w))
    s[:, 1:n, 1:n] = sigma.values.reshape(n - 1, n - 1, 2).transpose(2, 0, 1)
    (lower, upper), (half_lower, half_upper) = s.reshape(2, -1), (s * 0.5).reshape(2, -1)
    entries = np.zeros(3 * size + 1)
    # Node (r, c) is the NE corner of upper (r-1, c-1), the NW corner of
    # lower and upper (r-1, c), the SE corner of lower and upper (r, c-1)
    # and the SW corner of lower (r, c).
    np.add(upper[:size], half_lower[1:size + 1], out=entries[:size])
    for term in half_upper[1:], half_lower[w:], half_upper[w:], lower[w + 1:]:
        entries[:size] += term[:size]
    # Edge (r, c)-(r, c+1) is the top leg of upper (r-1, c) and the bottom
    # leg of lower (r, c); edge (r, c)-(r+1, c) is the right leg of upper
    # (r, c-1) and the left leg of lower (r, c).
    np.add(half_upper[1:size + 1], half_lower[w + 1:w + 1 + size], out=entries[size:2 * size])
    np.add(half_upper[w:w + size], half_lower[w + 1:w + 1 + size], out=entries[2 * size:-1])
    np.negative(entries[size:-1], out=entries[size:-1])
    return entries


def _load_vector(m: int, currents: CurrentPattern) -> np.ndarray:
    """Right-hand side: no nodal load, then ``I_k - I_N`` per voltage."""
    N = len(currents.values) - 1
    rhs = np.zeros(m + N)
    rhs[m:] = currents.values[:N] - currents.values[N]
    return rhs


class CemOperator:
    """The CEM block matrix of one mesh and electrode setup, for any conductivity.

    Built from one call to ``assemble_system`` at unit conductivity, which
    validates the setup and checks symmetry; its pattern is the operator's,
    entries zero at unit conductivity included.  Unknowns are in the
    reference order: mesh nodes, then the electrode voltages.  Each slot
    keeps the index of its ``_stencil`` entry: the trailing zero for a slot
    no stiffness reaches.  The fixed electrode entries are kept as the
    slots where they are nonzero and their values, a few per electrode
    edge and voltage.
    """

    def __init__(self, mesh: Mesh, setup: ElectrodeSetup):
        unit = ConductivityField(np.ones(mesh.triangle_count))
        M = assemble_system(mesh, unit, setup, CurrentPattern(np.zeros(setup.count))).full_matrix()
        self.mesh = mesh
        self.setup = setup
        self._indices, self._indptr, self._shape = M.indices, M.indptr, M.shape

        # Slot of each stencil entry: look the pairs up in a table of the
        # pattern that stores slot + 1.  The table reads the CSC arrays as
        # CSR, so it is indexed (col, row).
        table = sp.csr_matrix((np.arange(1, M.nnz + 1, dtype=np.int32),
                               M.indices, M.indptr), shape=M.shape)
        rows, cols, at = _stencil_pairs(mesh.side_nodes)
        self._map = np.full(M.nnz, -1, dtype=np.intp)  # -1: the trailing zero
        self._map[np.asarray(table[cols, rows]).ravel() - 1] = at

        # What is left after the unit stiffness: the electrode trace mass,
        # Psi and Upsilon as assemble_system built them, up to rounding.
        fixed = M.data - np.take(_stencil(mesh, unit), self._map)
        self._fixed_slots = np.flatnonzero(fixed)
        self._fixed_values = fixed[self._fixed_slots]

    def _new_matrix(self) -> sp.csc_matrix:
        """A matrix on this operator's pattern, its entries not yet set."""
        return sp.csc_matrix((np.empty(len(self._indices)), self._indices, self._indptr),
                             shape=self._shape)

    def _fill(self, M: sp.csc_matrix, sigma: ConductivityField) -> sp.csc_matrix:
        """``M``, a matrix on this operator's pattern, with its entries
        overwritten by the block matrix's at conductivity ``sigma``."""
        _check_sigma(self.mesh, sigma)
        # mode "wrap" reads -1 as "raise" does, without buffering the output.
        np.take(_stencil(self.mesh, sigma), self._map, out=M.data, mode="wrap")
        # Bitwise the add of a dense fixed vector: every other slot would
        # add +0.0, which changes only a -0.0, and a stencil entry is -0.0
        # only where every sigma * 0.5 in it underflows to zero.
        M.data[self._fixed_slots] += self._fixed_values
        return M


class LastFactor:
    """The factor a sequence of forward solves on one operator shares.

    Successive conductivities of a reconstruction are close, so one
    factorization preconditions the solves that follow it.  Every solve
    runs the same conjugate gradients loop, preconditioned with a SuperLU
    factor, for at most ``PCG_MAX_ITER`` steps while the recurred residual
    misses the relative tolerance ``tol`` the solve was given; a zero load
    takes none.  Its last iterate is accepted by its true residual alone,
    whatever the step count, checked as ``M @ x - b``: when ``||M x - b|| <=
    tol ||b||``, or else when ``||M x - b|| <= BACKWARD_TOL (||M||_inf ||x||
    + ||b||)``, the residual rounding alone can leave.  ``||M||_inf`` is
    computed only for an iterate that misses ``tol``.  A solve uses the
    last factor, started from the combination of the last ``PCG_RECENT``
    solutions that is best in the new matrix's energy norm, unless there
    is none or the previous solve needed more than ``PCG_REFACTOR_CAP``
    iterations.  Otherwise, or when PCG on the last factor is not
    accepted, the solve factorizes its matrix, the new factor replacing
    the old, and starts PCG from the new factor's solve of ``b``: an exact
    factor is accepted there in no step.  PCG on a new factor that is not
    accepted fails the solve.  ``refine`` continues the last solve to
    ``SOLVER_TOL`` by the same rules, started from its solution.

    The CG loop is written out, not called as ``scipy.sparse.linalg.cg``.
    It repeats scipy 1.17's recurrence operation for operation, so its
    iterates are bitwise scipy's, without scipy's per-call wrappers
    (``make_system``, the ``LinearOperator`` around the factor and the
    step-counting callback), which cost more than a small solve's numerical
    work (``BENCH_loop.json``).  Only its stop differs: scipy steps while
    ``||r|| >= tol * ||b||`` and calls an exhausted loop unconverged.

    What does not change between solves is kept, not rebuilt:

    - one matrix on the operator's pattern, whose entries each solve
      overwrites with the block matrix at its conductivity, so a solve
      allocates no matrix.  It belongs to this factor, not the operator:
      two factors on one operator never share it.
    - the PCG start basis, as normalized rows: the last solution's
      direction, then the differences of successive recent solutions,
      newest first.  Each row is computed once, when its solution
      arrives, as Fischer's projection keeps its basis (Comput. Methods
      Appl. Mech. Engrg. 163, 1998).  It is allocated by the first solve,
      after its factorization, so a factor that solves once holds none
      while SuperLU factors.

    It also holds the last factor, the last solution and how many PCG
    iterations the last solve took, and counts the factorizations and PCG
    iterations of the sequence.  Its owner drops it when the sequence ends,
    and the factor, the matrix and the basis with it.
    """

    def __init__(self, operator: CemOperator):
        self.operator = operator
        self.factorizations = 0
        self.pcg_iterations = 0
        self._lu = None
        self._matrix = operator._new_matrix()
        self._last = None  # the last solution
        # The start basis, as the rows of W in _start's order; the first
        # _rows rows are in use.  Empty until the first solution arrives.
        self._basis = np.zeros((0, self._matrix.shape[0]))
        self._rows = 0
        self._last_pcg = 0

    def solve(self, sigma: ConductivityField, b: np.ndarray,
              tol: float | None = None) -> np.ndarray:
        """``M⁻¹b`` for the block matrix ``M`` at conductivity ``sigma``, to
        the relative residual ``tol`` (``SOLVER_TOL`` if None) or the
        backward error ``BACKWARD_TOL``: by PCG on the last factor where it
        can, otherwise by PCG on a new factorization.

        Raises
        ------
        ValueError
            If ``sigma`` does not hold one value per triangle of the
            operator's mesh.
        SolverError
            If ``||b||`` overflows, so no residual test can hold, SuperLU
            cannot factorize ``M``, or PCG on a new factorization meets
            neither bound; the message names both.
        """
        x = self._solve(self.operator._fill(self._matrix, sigma), b, tol, self._start)
        self._keep(x)
        return x

    def refine(self, b: np.ndarray) -> np.ndarray:
        """The last solve's solution continued to the relative residual
        ``SOLVER_TOL``: PCG on the same matrix, started from that solution,
        as ``solve`` runs it.  The start basis keeps the solution it
        started from.

        Raises
        ------
        ValueError
            If this factor has solved nothing yet.
        SolverError
            As ``solve``.
        """
        if self._last is None:
            raise ValueError("no solve to refine")
        return self._solve(self._matrix, b, None, lambda M, b: self._last.copy())

    def _solve(self, M: sp.csc_matrix, b: np.ndarray, tol: float | None,
               start) -> np.ndarray:
        """``M⁻¹b`` to ``tol`` by PCG from ``start(M, b)`` on the last
        factor, or from a new factorization's solve."""
        b_norm = _norm(b)
        if not b_norm < np.inf:
            raise SolverError("the norm of the load vector overflows, "
                              "so no residual test can hold")
        rtol = SOLVER_TOL if tol is None else tol
        bound = rtol * b_norm
        # PCG on the last factor, unless there is none or the last solve
        # needed more than the cap; then, or if it is not accepted, a new
        # factor.
        accepted = False
        if self._lu is not None and self._last_pcg <= PCG_REFACTOR_CAP:
            x, res = self._pcg(M, b, bound, start(M, b))
            accepted = res <= bound or res <= _backward_floor(M, x, b_norm)
        if not accepted:
            self._lu = None  # one factor alive at a time
            try:
                self._lu = spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                     relax=LU_RELAX, panel_size=LU_PANEL_SIZE,
                                     options={"SymmetricMode": True})
            except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
                raise SolverError(f"factorization failed: {exc}") from None
            self.factorizations += 1
            x, res = self._pcg(M, b, bound, self._lu.solve(b))
            if not (res <= bound or res <= _backward_floor(M, x, b_norm)):  # NaN fails
                raise SolverError(f"linear solve stalled at relative residual "
                                  f"{res / b_norm:.3e} (tolerance {rtol:.1e}, backward-error "
                                  f"floor {_backward_floor(M, x, b_norm) / b_norm:.1e})")
        return x

    def _keep(self, x: np.ndarray) -> None:
        """Take the solution ``x`` into the start basis: the kept
        differences move down a row, the oldest dropping out past
        ``PCG_RECENT`` rows, and ``x``'s direction and its difference from
        the last solution take the first two rows."""
        if not len(self._basis):
            self._basis = np.zeros((PCG_RECENT, len(x)))
        W = self._basis
        rows = self._rows = min(self._rows + 1, len(W))
        W[2:rows] = W[1:rows - 1]
        W[0] = x
        if rows > 1:
            np.subtract(x, self._last, out=W[1])
        # Normalized as the rows of one block, so the basis is to the bit
        # the one normalized as a block from the raw solutions: numpy's
        # einsum sums a lone row of over 8192 products in other chunks.
        new = W[:min(rows, 2)]
        norms = np.sqrt(np.einsum("ij,ij->i", new, new))
        new /= np.where(norms > 0.0, norms, 1.0)[:, None]
        self._last = x

    def _start(self, M: sp.csc_matrix, b: np.ndarray) -> np.ndarray:
        """The combination of the recent solutions closest to ``M⁻¹b`` in
        ``M``'s energy norm: ``W c`` with ``(WᵀMW) c = Wᵀb``.

        ``W``'s columns are the start basis: the last solution and the
        differences of successive ones, each normalized.  They are close to
        dependent, so the small system is solved by least squares.  The
        last solution is in the span, so the start is no worse than it.
        """
        W = self._basis[:self._rows]  # the columns of W, as rows
        MW = M @ np.ascontiguousarray(W.T)  # scipy multiplies C-order blocks fastest
        c = np.linalg.lstsq(W @ MW, W @ b, rcond=1e-14)[0]
        return c @ W

    def _pcg(self, M: sp.csc_matrix, b: np.ndarray, tol: float,
             x: np.ndarray) -> tuple[np.ndarray, float]:
        """PCG preconditioned with the last factor from the start ``x``, in
        scipy's ``cg`` recurrence, stepping while ``||r|| > tol`` and fewer
        than ``PCG_MAX_ITER`` steps have run; the last iterate and its true
        residual norm ``||M x - b||``."""
        r = b - M @ x
        steps = 0
        while _norm(r) > tol and steps < PCG_MAX_ITER:
            z = self._lu.solve(r)
            rho = np.dot(r, z)
            if steps:
                p *= rho / rho_prev
                p += z
            else:
                p = z
            q = M @ p
            alpha = rho / np.dot(p, q)
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
            steps += 1
        self.pcg_iterations += steps
        self._last_pcg = steps
        return x, _norm(M @ x - b)


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of a 1-d float vector: what ``np.linalg.norm``
    computes for one, without its dispatch."""
    return np.sqrt(v.dot(v))


def _backward_floor(M: sp.csc_matrix, x: np.ndarray, b_norm: float) -> float:
    """``BACKWARD_TOL (||M||_inf ||x|| + ||b||)``, the residual norm rounding
    alone can leave at ``x``; NaN, which bounds nothing, where it overflows.
    ``M`` is symmetric, so its largest absolute column sum is ``||M||_inf``."""
    m_norm = float(np.add.reduceat(np.abs(M.data), M.indptr[:-1]).max())
    floor = BACKWARD_TOL * (m_norm * float(_norm(x)) + float(b_norm))
    return floor if floor < np.inf else np.nan


def solve_forward(mesh: Mesh, sigma: ConductivityField, setup: ElectrodeSetup,
                  currents: CurrentPattern, *, factor: LastFactor | None = None,
                  tol: float | None = None) -> ForwardSolution:
    """Solve the forward problem for the nodal potential and electrode voltages.

    The conductivity's stencil is gathered into the factor's matrix, on
    the fixed pattern of its operator, and ``LastFactor.solve`` runs PCG
    on the last factor or on a new factorization, as the ``LastFactor``
    docstring describes.  A factorization is SuperLU's, in its multiple
    minimum-degree order of ``M + Mᵀ`` (Liu, ACM TOMS 11(2), 1985), in
    symmetric mode without pivoting (the matrix is symmetric positive
    definite).  The solution meets the relative residual
    ``||M x - b|| / ||b|| <= tol``, or the backward error ``BACKWARD_TOL``
    where rounding leaves more.  Deterministic for identical inputs.

    Parameters
    ----------
    factor : LastFactor, optional
        On a ``CemOperator`` of these ``mesh`` and ``setup`` objects.
        Callers that solve many times pass one, so the operator is built
        once and the solves share a factorization.  Without it, one is
        built for this solve.
    tol : float, optional
        The relative residual to meet; ``SOLVER_TOL`` if None.  A
        reconstruction solves its iterates more loosely.

    Raises
    ------
    ValueError
        If ``factor``'s operator was built for a different mesh or
        electrode setup, or an electrode was not located on ``mesh``.
    SolverError
        If the matrix cannot be factorized or the residual contract cannot
        be met.
    """
    # The operator checked the setup's edges when it was built from these
    # objects, and the factor's solve checks sigma.
    _check_currents(setup, currents)
    if factor is None:
        factor = LastFactor(CemOperator(mesh, setup))
    operator = factor.operator
    if operator.mesh is not mesh or operator.setup is not setup:
        raise ValueError("factor was built for a different mesh or electrode setup")
    return _solution(mesh, setup, factor.solve(sigma, _load_vector(mesh.node_count, currents),
                                               tol))


def _solution(mesh: Mesh, setup: ElectrodeSetup, x: np.ndarray) -> ForwardSolution:
    """The forward solution of the block system's solution ``x``: the last
    voltage restored from the zero-sum constraint, and the gradients."""
    m = mesh.node_count
    N = setup.count - 1
    u = x[:m]
    U = np.empty(N + 1)
    U[:N] = x[m:]
    U[N] = -np.sum(U[:N])
    return ForwardSolution(u=u, U=U, grad_u=triangle_gradients(mesh, u))


def electrode_flux(mesh: Mesh, setup: ElectrodeSetup, solution: ForwardSolution,
                   k: int) -> float:
    """Discrete current through electrode ``k`` via the Robin identity.

    Integrates ``(U_k - u) / z_k`` over the electrode with exact edge
    quadrature; for a converged forward solution this reproduces the
    injected current.
    """
    if not 0 <= k < setup.count:
        raise ValueError(f"electrode index {k} out of range")
    e = setup.electrodes[k]
    mid = 0.5 * (solution.u[e.edges[:, 0]] + solution.u[e.edges[:, 1]])
    return float(np.sum(solution.U[k] - mid)) * mesh.h / e.impedance


def interior_current(mesh: Mesh, sigma: ConductivityField,
                     solution: ForwardSolution) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle current density ``J = -sigma grad u`` and magnitude ``a``."""
    _check_sigma(mesh, sigma)
    if solution.grad_u.shape != (mesh.triangle_count, 2):
        raise ValueError("solution gradients do not match the mesh")
    J = -sigma.values[:, None] * solution.grad_u
    a = sigma.values * _gradient_norm(solution.grad_u)
    return J, a

