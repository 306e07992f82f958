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
reconstruction.  A ``CemOperator`` is therefore built once per mesh and
electrode setup: it holds the block matrix's sparsity pattern with the
nodes in mesh order and the electrode voltages last, the fixed electrode
entries, and a sparse map from the triangles' conductivities to the
pattern's slots, holding each triangle's seven nonzero stiffness entries.
A solve scatters the conductivity into the pattern with one product by
that map and factorizes with SuperLU's symmetric mode, in the multiple
minimum-degree order SuperLU computes for each factorization.
``assemble_system`` is the reference assembly.  It stores only those
seven stiffness entries per triangle, never the coupling of a cell's SE
and NW corners, which is zero for every conductivity; the operator takes
its pattern and its electrode blocks from one call to it, with nothing
to drop, and the tests compare the operator's matrix against it.

Every solve goes through a ``LastFactor``, which holds the last
factorization; the solves that pass the same one share it.  Its docstring
holds the design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import (ElectrodeSetup, Mesh, ParameterError, _frozen, _gradient_norm,
                   triangle_gradients)

#: Default relative-residual tolerance of the linear solve.
DEFAULT_SOLVER_TOL = 1e-10

#: Relative tolerance for the zero-sum current / voltage invariants.
ZERO_SUM_TOL = 1e-12

#: A sequence of solves sharing a ``LastFactor`` refactorizes after a solve
#: that needed more PCG iterations than this: a lower cap refactorizes more
#: often, and a higher one spends more PCG iterations than the
#: factorizations it saves cost.
PCG_REFACTOR_CAP = 6

#: Iteration limit of one PCG solve before it falls back to the direct
#: factorization: about as many iterations as one factorization costs.
PCG_MAX_ITER = 25

#: A solve on a ``LastFactor`` starts PCG from the Galerkin combination of
#: this many last solutions; a deeper history saves iterations, not time.
PCG_RECENT = 4

#: Columns SuperLU updates together in a factorization: the minimum-degree
#: order leaves narrow supernodes, which one column factors faster than
#: SuperLU's default panel (and as fast as 2; 4 is slower).
LU_PANEL_SIZE = 1

# Element stiffness pattern: area * (grad_i . grad_j) is h-independent and
# identical for lower and upper triangles in their local vertex orders.
_STIFF = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])

# The seven entries of _STIFF that are not zero: local vertices 1 and 2 of
# either triangle are the SE and NW corners of its cell, whose coupling
# vanishes for every conductivity.
_STIFF_ROWS, _STIFF_COLS = np.nonzero(_STIFF)
_STIFF_NZ = _STIFF[_STIFF_ROWS, _STIFF_COLS]


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
    """Net injected currents (A), one per electrode, finite and summing to zero."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < 2:
            raise ValueError("need one current per electrode (at least two)")
        if not _sums_to_zero(v):
            raise ValueError(f"currents must be finite and sum to zero, got {v.tolist()}")
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
        if np.any(e.edge_ids < 0) or np.any(e.edge_ids >= n_edges):
            raise ValueError(f"electrode {k} references edges outside the mesh")


def _check_sigma(mesh: Mesh, sigma: ConductivityField) -> None:
    if len(sigma.values) != mesh.triangle_count:
        raise ValueError(f"conductivity has {len(sigma.values)} values for "
                         f"{mesh.triangle_count} triangles")


def _edge_square_integral(u: np.ndarray, U_k: float, edges: np.ndarray, h: float) -> float:
    """Exact integral of (u - U_k)^2 over an electrode's edges."""
    wp = u[edges[:, 0]] - U_k
    wq = u[edges[:, 1]] - U_k
    return float(np.sum(wp * wp + wp * wq + wq * wq)) * h / 3.0


def _electrode_terms(val: float, mesh: Mesh, setup: ElectrodeSetup,
                     currents: CurrentPattern, u: np.ndarray, U: np.ndarray) -> float:
    """The running sum ``val`` continued, in this order, by each electrode's
    ``(1/2z_k) integral (u - U_k)^2`` and then minus the current work ``I . U``."""
    for k, e in enumerate(setup.electrodes):
        val += _edge_square_integral(u, U[k], e.edges, mesh.h) / (2.0 * e.impedance)
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
    tri = mesh.triangles
    h = mesh.h

    # The seven nonzero stiffness entries of each triangle, in the order of
    # the 3x3 element matrix, so that no entry zero for every sigma is stored.
    rows, cols, vals = [], [], []
    for i, j, s in zip(_STIFF_ROWS, _STIFF_COLS, _STIFF_NZ):
        rows.append(tri[:, i])
        cols.append(tri[:, j])
        vals.append(sigma.values * s)
    for e in setup.electrodes:
        p, q = e.edges[:, 0], e.edges[:, 1]
        c = h / (6.0 * e.impedance)
        rows += [p, q, p, q]
        cols += [p, q, q, p]
        vals += [np.full(len(p), 2.0 * c), np.full(len(p), 2.0 * c),
                 np.full(len(p), c), np.full(len(p), c)]
    Lam = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m),
    ).tocsr()

    # Per-node single-basis edge integrals, h/2 per incident electrode edge.
    w = np.zeros((N + 1, m))
    for k, e in enumerate(setup.electrodes):
        np.add.at(w[k], e.edges[:, 0], h / 2.0)
        np.add.at(w[k], e.edges[:, 1], h / 2.0)

    z = setup.impedances
    length = setup.lengths
    Psi = np.empty((m, N))
    for k in range(N):
        Psi[:, k] = w[N] / z[N] - w[k] / z[k]
    Upsilon = np.full((N, N), length[N] / z[N]) + np.diag(length[:N] / z[:N])

    return BlockSystem(Lambda=Lam, Psi=Psi, Upsilon=Upsilon,
                       rhs=_load_vector(m, currents))


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
    reference order: mesh nodes, then the electrode voltages.
    """

    def __init__(self, mesh: Mesh, setup: ElectrodeSetup):
        unit = assemble_system(mesh, ConductivityField(np.ones(mesh.triangle_count)),
                               setup, CurrentPattern(np.zeros(setup.count)))
        self.mesh = mesh
        self.setup = setup

        M = unit.full_matrix()
        M.sort_indices()
        self._indices, self._indptr, self._shape = M.indices, M.indptr, M.shape

        # Slot of each triangle's nonzero (row, col) entries: index a copy of
        # the pattern that stores slot + 1 (a missing entry would read 0).
        slots = sp.csc_matrix((np.arange(1, M.nnz + 1, dtype=np.int32),
                               M.indices, M.indptr), shape=M.shape)
        tri = mesh.triangles
        rows = tri[:, _STIFF_ROWS].reshape(-1)
        cols = tri[:, _STIFF_COLS].reshape(-1)
        slots = np.asarray(slots[rows, cols]).reshape(-1) - 1
        # Column t holds triangle t's stiffness entries in their slots, so
        # the stiffness at sigma is one product, summed in slot order.
        T = mesh.triangle_count
        self._scatter = sp.csc_matrix(
            (np.tile(_STIFF_NZ, T), slots,
             np.arange(0, len(_STIFF_NZ) * T + 1, len(_STIFF_NZ))),
            shape=(M.nnz, T))

        # What is left after the unit stiffness: the electrode trace mass,
        # Psi and Upsilon as assemble_system built them, up to rounding.
        self._fixed = M.data - self._scatter @ np.ones(T)

    def matrix(self, sigma: ConductivityField) -> sp.csc_matrix:
        """The block matrix at conductivity ``sigma``."""
        _check_sigma(self.mesh, sigma)
        return sp.csc_matrix((self._fixed + self._scatter @ sigma.values,
                              self._indices, self._indptr), shape=self._shape)


class LastFactor:
    """The factor a sequence of forward solves on one operator shares.

    Successive conductivities of a reconstruction are close, so one
    factorization preconditions the solves that follow it.  The first
    solve factorizes directly.  Each later one runs conjugate gradients
    preconditioned with the last SuperLU factor, started from the
    combination of the last ``PCG_RECENT`` solutions that is best in the
    new matrix's energy norm, unless the previous solve needed more than
    ``PCG_REFACTOR_CAP`` iterations.  Every solve, direct or PCG, meets the
    same true relative residual ``||M x - b|| / ||b|| <= solver_tol``,
    checked as ``M @ x - b``.  A PCG solve that does not, or that takes more
    than ``PCG_MAX_ITER`` iterations, falls back in the same call to the
    direct factorization, and the new factor replaces the old.

    The CG loop is written out, not called as ``scipy.sparse.linalg.cg``.
    It repeats scipy 1.17's recurrence and stopping test operation for
    operation: the residual starts as ``b - M x`` (``b`` when the start is
    zero), a step runs only while ``||r|| >= solver_tol * ||b||``, and
    running out of ``PCG_MAX_ITER`` steps is not convergence.  Its iterates
    are therefore bitwise scipy's, without scipy's per-call wrappers
    (``make_system``, the ``LinearOperator`` around the factor and the
    step-counting callback), which cost more than a solve's numerical work
    at 60² nodes.

    Holds the last factor, the last ``PCG_RECENT`` solutions and how many
    PCG iterations the last solve took, and counts the factorizations and
    PCG iterations of the sequence.  Its owner drops it when the sequence
    ends, and the factor and solutions with it.
    """

    def __init__(self, operator: CemOperator):
        self.operator = operator
        self.factorizations = 0
        self.pcg_iterations = 0
        self._lu = None
        self._recent = []  # oldest first
        self._last_pcg = 0

    def solve(self, M: sp.csc_matrix, b: np.ndarray, solver_tol: float) -> np.ndarray:
        """``M⁻¹b`` to the relative residual ``solver_tol``: by PCG where
        it can, otherwise by a new factorization.

        Raises
        ------
        SolverError
            If the direct factorization misses ``solver_tol``.
        """
        x = self._pcg(M, b, solver_tol)
        if x is None:
            self._lu, x = _factor_solve(M, b, solver_tol)
            self._last_pcg = 0
            self.factorizations += 1
        self._recent = (self._recent + [x])[-PCG_RECENT:]
        return x

    def _start(self, M: sp.csc_matrix, b: np.ndarray) -> np.ndarray:
        """The combination of the recent solutions closest to ``M⁻¹b`` in
        ``M``'s energy norm: ``W c`` with ``(WᵀMW) c = Wᵀb``.

        ``W`` holds the last solution and the differences of successive
        ones, each column normalized; they are close to dependent, so the
        small system is solved by least squares.  The last solution is in
        the span, so the start is no worse than it.
        """
        x = self._recent[::-1]
        W = np.empty((len(x), len(b)))  # the columns of W, as rows
        W[0] = x[0]
        for i in range(len(x) - 1):
            np.subtract(x[i], x[i + 1], out=W[i + 1])
        norms = np.sqrt(np.einsum("ij,ij->i", W, W))
        W /= np.where(norms > 0.0, norms, 1.0)[:, None]
        MW = M @ np.ascontiguousarray(W.T)  # scipy multiplies C-order blocks fastest
        c = np.linalg.lstsq(W @ MW, W @ b, rcond=1e-14)[0]
        return c @ W

    def _pcg(self, M: sp.csc_matrix, b: np.ndarray, solver_tol: float) -> np.ndarray | None:
        """Solve by PCG from the last factor and the recent solutions, in
        scipy's ``cg`` loop written out, or return None: without a factor,
        after a solve that needed more than ``PCG_REFACTOR_CAP`` iterations,
        or when PCG misses the contract."""
        if self._lu is None or self._last_pcg > PCG_REFACTOR_CAP:
            self._lu = None  # one factor alive at a time while refactorizing
            return None
        b_norm = np.linalg.norm(b)
        if b_norm == 0.0:  # the solution, in no steps
            self._last_pcg = 0
            return np.zeros_like(b)
        x = self._start(M, b)
        r = b - M @ x if x.any() else b.copy()
        tol = solver_tol * b_norm
        for steps in range(PCG_MAX_ITER):
            if np.linalg.norm(r) < tol:
                break
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
        else:
            steps = PCG_MAX_ITER  # not converged, as scipy reports it
        self.pcg_iterations += steps
        self._last_pcg = steps
        if steps == PCG_MAX_ITER or np.linalg.norm(M @ x - b) > tol:
            self._lu = None
            return None
        return x


def _factor_solve(M: sp.csc_matrix, b: np.ndarray, solver_tol: float):
    """Factorize ``M`` and solve, refining once; the factor and solution."""
    lu = spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   panel_size=LU_PANEL_SIZE, options={"SymmetricMode": True})
    x = lu.solve(b)

    b_norm = np.linalg.norm(b)
    res = np.linalg.norm(M @ x - b)
    if b_norm > 0.0 and res > solver_tol * b_norm:
        x = x + lu.solve(b - M @ x)
        res = np.linalg.norm(M @ x - b)
        if res > solver_tol * b_norm:
            raise SolverError(
                f"linear solve stalled at relative residual {res / b_norm:.3e} "
                f"(tolerance {solver_tol:.1e})"
            )
    return lu, x


def solve_forward(mesh: Mesh, sigma: ConductivityField, setup: ElectrodeSetup,
                  currents: CurrentPattern,
                  solver_tol: float = DEFAULT_SOLVER_TOL, *,
                  factor: LastFactor | None = None) -> ForwardSolution:
    """Solve the forward problem for the nodal potential and electrode voltages.

    The conductivity is scattered into the fixed pattern of the factor's
    operator, and ``LastFactor.solve`` chooses between PCG and a new
    factorization, as the ``LastFactor`` docstring describes.  A
    factorization is SuperLU's, in its multiple minimum-degree order of
    ``M + Mᵀ`` (Liu, ACM TOMS 11(2), 1985), in symmetric mode without
    pivoting (the matrix is symmetric positive definite), and is refined
    once before giving up.  The solution meets the relative residual
    ``||M x - b|| / ||b|| <= solver_tol``.  Deterministic for identical
    inputs.

    Parameters
    ----------
    factor : LastFactor, optional
        On a ``CemOperator`` of these ``mesh`` and ``setup`` objects.
        Callers that solve many times pass one, so the operator is built
        once and the solves share a factorization.  Without it, one is
        built for this solve.

    Raises
    ------
    ValueError
        If ``factor``'s operator was built for a different mesh or
        electrode setup.
    SolverError
        If the residual contract cannot be met.
    """
    # The operator checked the setup's edges when it was built from these
    # objects, and operator.matrix checks sigma.
    _check_currents(setup, currents)
    if factor is None:
        factor = LastFactor(CemOperator(mesh, setup))
    operator = factor.operator
    if operator.mesh is not mesh or operator.setup is not setup:
        raise ValueError("factor was built for a different mesh or electrode setup")
    b = _load_vector(mesh.node_count, currents)
    x = factor.solve(operator.matrix(sigma), b, solver_tol)

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


def max_principle_excess(mesh: Mesh, setup: ElectrodeSetup,
                         solution: ForwardSolution) -> float:
    """How far the potential's range off the electrodes leaves its range on them.

    The continuum potential attains its extrema on the electrode closures;
    the discrete scheme is not guaranteed monotone, so this is a diagnostic:
    nonpositive means the discrete solution honors the principle, a positive
    value is the worst overshoot (in V).
    """
    electrode_nodes = np.unique(np.concatenate([e.nodes() for e in setup.electrodes]))
    mask = np.zeros(mesh.node_count, dtype=bool)
    mask[electrode_nodes] = True
    if mask.all():
        return 0.0
    u = solution.u
    over = float(u[~mask].max() - u[mask].max())
    under = float(u[mask].min() - u[~mask].min())
    return max(over, under)
