"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

import cdii
from cdii.csvio import _read_table
from cdii.fem_cem import _edge_penalty, _electrode_terms
from cdii.mesh import _gradient_norm, triangle_gradients
from cdii.weighted_gradient import _functional, _max_grad_change, _stop_threshold

#: Tolerance for the per-electrode shift constraint of a reparameterization.
SHIFT_TOL = 1e-10


# Constant basis-function gradients, times h, in local vertex order.
# Lower triangles list vertices (SW, SE, NW); upper triangles (NE, SE, NW).
_LOWER_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
_UPPER_GRADS = np.array([[1.0, 1.0], [0.0, -1.0], [-1.0, 0.0]])


def basis_gradients(mesh: cdii.Mesh, triangle_id: int) -> np.ndarray:
    """Constant gradients of the three plane functions of one triangle.

    Returned in the triangle's local vertex order; they sum to zero since
    the plane functions partition unity.  The reference that
    ``triangle_gradients`` is checked against.
    """
    if not 0 <= triangle_id < mesh.triangle_count:
        raise ValueError(f"triangle index {triangle_id} out of range")
    pattern = _LOWER_GRADS if triangle_id % 2 == 0 else _UPPER_GRADS
    return pattern / mesh.h


def centroids_reference(mesh: cdii.Mesh, values: np.ndarray) -> np.ndarray:
    """Per-triangle mean of the gathered vertex values of a nodal field
    (``mesh.nodes`` for the centroids); the reference that the centroid
    kernel is checked against."""
    return values[mesh.triangles].mean(axis=1)


def dissection_order_reference(side_nodes: int) -> np.ndarray:
    """Nested-dissection order of a ``side_nodes``-square grid, by recursion
    on views of the node-id grid: a grid line across the middle of a
    block's longer side separates it, the halves come first and the
    separator last, and blocks under three nodes a side are taken
    row-major (George, SIAM J. Numer. Anal. 10, 1973).  The fill bar that
    the solver's own elimination order is checked against."""
    parts: list[np.ndarray] = []
    _dissect(np.arange(side_nodes ** 2).reshape(side_nodes, side_nodes), parts)
    return np.concatenate(parts)


def _dissect(block: np.ndarray, parts: list[np.ndarray]) -> None:
    rows, cols = block.shape
    if rows == 0 or cols == 0:
        return
    if max(rows, cols) < 3:
        parts.append(block.ravel())
    elif rows >= cols:
        mid = rows // 2
        _dissect(block[:mid], parts)
        _dissect(block[mid + 1:], parts)
        parts.append(block[mid])
    else:
        mid = cols // 2
        _dissect(block[:, :mid], parts)
        _dissect(block[:, mid + 1:], parts)
        parts.append(block[:, mid])


# Element stiffness pattern: area * (grad_i . grad_j) is h-independent and
# identical for lower and upper triangles in their local vertex orders.
# Local vertices 1 and 2 of either triangle are the SE and NW corners of
# its cell, whose coupling vanishes for every conductivity.
_STIFF = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])


def triplet_stiffness(mesh: cdii.Mesh, sigma: cdii.ConductivityField,
                      setup: cdii.ElectrodeSetup) -> sp.csr_matrix:
    """The stiffness block ``Lambda`` assembled per triangle: the seven
    nonzero entries of ``_STIFF`` times each triangle's conductivity, one
    local entry of all triangles at a time, then four trace-mass entries
    per electrode edge, summed by ``tocsr``.  The independent reference
    that ``assemble_system``'s stencil is checked against."""
    tri = mesh.triangles
    local_rows, local_cols = np.nonzero(_STIFF)
    rows = [tri[:, i] for i in local_rows]
    cols = [tri[:, j] for j in local_cols]
    vals = [sigma.values * _STIFF[i, j] for i, j in zip(local_rows, local_cols)]
    for e in setup.electrodes:
        p, q = e.edges[:, 0], e.edges[:, 1]
        c = mesh.h / (6.0 * e.impedance)
        for row, col, val in ((p, p, 2.0 * c), (q, q, 2.0 * c), (p, q, c), (q, p, c)):
            rows.append(row)
            cols.append(col)
            vals.append(np.full(len(p), val))
    m = mesh.node_count
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(m, m)).tocsr()


def operator_matrix(operator: cdii.CemOperator,
                    sigma: cdii.ConductivityField) -> sp.csc_matrix:
    """A new block matrix of ``operator`` at conductivity ``sigma``, filled
    as a ``LastFactor`` fills its own."""
    return operator._fill(operator._new_matrix(), sigma)


def energy_value(mesh, sigma, setup, currents, candidate) -> float:
    """Quadratic energy of the forward problem at a candidate ``(u, U)``.

    Half the conductivity-weighted Dirichlet integral, plus half the
    impedance-weighted electrode mismatch, minus the work of the injected
    currents.  Exact for piecewise-linear candidates.
    """
    u, U = candidate
    g = triangle_gradients(mesh, u)
    val = 0.5 * float(np.sum(sigma.values * (g[:, 0] ** 2 + g[:, 1] ** 2))) * mesh.triangle_area
    return _electrode_terms(val, mesh, setup, currents, u, U)


def energy_derivative(mesh, sigma, setup, currents, at, direction) -> float:
    """Directional (Gateaux) derivative of the energy at ``at`` along ``direction``.

    The energy is quadratic, so this equals the central difference
    ``(E(at + t d) - E(at - t d)) / 2t`` for any step ``t`` up to roundoff.
    The electrode terms integrate ``(u - U_k)(v - V_k)`` exactly with the
    edge mass matrix ``h/6 [[2, 1], [1, 2]]``.  The direction's voltage part
    is expected on the zero-sum hyperplane.
    """
    u, U = at
    v, V = direction
    gu = triangle_gradients(mesh, u)
    gv = triangle_gradients(mesh, v)
    val = float(np.sum(sigma.values * (gu[:, 0] * gv[:, 0] + gu[:, 1] * gv[:, 1]))) \
        * mesh.triangle_area
    for k, e in enumerate(setup.electrodes):
        ap, aq = u[e.edges[:, 0]] - U[k], u[e.edges[:, 1]] - U[k]
        bp, bq = v[e.edges[:, 0]] - V[k], v[e.edges[:, 1]] - V[k]
        val += float(np.sum(2.0 * ap * bp + ap * bq + aq * bp + 2.0 * aq * bq)) \
            * mesh.h / 6.0 / e.impedance
    return val - float(np.dot(currents.values, V))


def functional_value(mesh, data, setup, currents, candidate) -> float:
    """Weighted-gradient functional at a candidate ``(v, V)``, V zero-sum:
    the loop's own kernel, with ``|grad v|`` computed here."""
    v, V = candidate
    return _functional(mesh, data, setup, currents, v, V,
                       _gradient_norm(triangle_gradients(mesh, v)))


def minimum_value(mesh, setup, solution) -> float:
    """Value of the weighted-gradient functional at the forward solution,
    computed from electrode boundary integrals alone:
    ``-1/2 sum_k (1/z_k) integral (u - U_k)^2``."""
    val = 0.0
    for k, e in enumerate(setup.electrodes):
        val -= _edge_penalty(solution.u, solution.U[k], e.edges, mesh.h, e.impedance)
    return val


def electrode_nodes(electrode: cdii.Electrode) -> np.ndarray:
    """The sorted ids of the nodes an electrode's edges join."""
    return np.unique(electrode.edges)


def max_principle_excess(mesh: cdii.Mesh, setup: cdii.ElectrodeSetup,
                         solution: cdii.ForwardSolution) -> float:
    """How far the potential's range off the electrodes leaves its range on them.

    The continuum potential attains its extrema on the electrode closures;
    the discrete scheme is not guaranteed monotone, so this is a diagnostic:
    nonpositive means the discrete solution honors the principle, a positive
    value is the worst overshoot (in V).
    """
    mask = np.zeros(mesh.node_count, dtype=bool)
    mask[np.concatenate([electrode_nodes(e) for e in setup.electrodes])] = True
    if mask.all():
        return 0.0
    u = solution.u
    over = float(u[~mask].max() - u[mask].max())
    under = float(u[mask].min() - u[~mask].min())
    return max(over, under)


def should_stop(grad_n, grad_prev, delta, epsilon, essinf_a) -> bool:
    """The reconstruction loop's stop rule: the sup over triangles of the
    gradient change is at or below ``delta * epsilon / essinf_a``."""
    return _max_grad_change(grad_n, grad_prev) <= _stop_threshold(delta, epsilon, essinf_a)


def transform_conductivity(mesh, sigma, solution, setup,
                           phi: Callable[[np.ndarray], np.ndarray]) -> cdii.ConductivityField:
    """Build the conductivity whose potential is ``phi`` of the given one.

    ``phi`` must be strictly increasing on the potential's range and must
    reduce to a constant shift on each electrode's potential range, with
    the shifts summing to zero, so the transformed voltages stay on the
    zero-sum hyperplane.  The transformed pair then carries the same
    current density as the original: such conductivity changes are
    invisible to the interior magnitude.

    Per triangle the new conductivity is ``sigma * |grad u| / |grad(phi(u))|``
    with ``phi(u)`` composed nodewise.  Where ``grad(phi(u))`` is parallel to
    ``grad u`` on every triangle, as when the potential varies in one
    direction only, this divided-difference slope (rather than a pointwise
    ``phi'`` sample) makes the transformed pair satisfy the discrete problem
    exactly, so paired forward solves agree to solver precision.  Elsewhere
    ``phi(u)`` turns its gradient against ``grad u`` inside a triangle on
    which ``phi`` is not affine, and the pair agrees to discretization
    error.
    """
    u = solution.u
    lo, hi = float(u.min()), float(u.max())
    sample = np.linspace(lo, hi, 2049) if hi > lo else np.array([lo])
    if np.any(np.diff(np.asarray(phi(sample), dtype=float)) <= 0.0):
        raise ValueError("the reparameterization must be strictly increasing "
                         "on the potential range")

    shifts = []
    for k, e in enumerate(setup.electrodes):
        t = u[electrode_nodes(e)]
        c = np.asarray(phi(t), dtype=float) - t
        if np.ptp(c) > SHIFT_TOL:
            raise ValueError(
                f"reparameterization is not a constant shift on electrode {k} "
                f"(spread {np.ptp(c):.3e})"
            )
        shifts.append(float(c.mean()))
    if abs(sum(shifts)) > SHIFT_TOL:
        raise ValueError(
            f"electrode shifts must sum to zero, got {sum(shifts):.3e}"
        )

    grad_v = triangle_gradients(mesh, np.asarray(phi(u), dtype=float))
    norm_u = _gradient_norm(solution.grad_u)
    norm_v = _gradient_norm(grad_v)
    values = sigma.values.copy()
    live = norm_u > 0.0
    values[live] = sigma.values[live] * norm_u[live] / norm_v[live]
    return cdii.ConductivityField(values)


def read_convergence(path) -> list[tuple[int, float, float, float]]:
    """The rows of a ``convergence.csv``, parsed as the writer wrote them."""
    return _read_table(path, [int, float, float, float])


def two_electrode_case(side_nodes: int, z0: float, z1: float, alpha: float):
    """Full bottom/top electrodes, current alpha extracted below, injected above."""
    mesh = cdii.build_uniform_mesh(side_nodes)
    setup = cdii.locate_electrodes(
        mesh, [("bottom", (0.0, 1.0)), ("top", (0.0, 1.0))], [z0, z1]
    )
    currents = cdii.CurrentPattern(np.array([-alpha, alpha]))
    return mesh, setup, currents


def exact_linear_solution(mesh: cdii.Mesh, z0: float, z1: float, alpha: float):
    """Hand-derived solution of the two-electrode unit-conductivity problem.

    The potential is linear in y, so the piecewise-linear discretization
    reproduces it exactly: u = alpha*(y - (1 + z1 - z0)/2), voltages
    +-alpha*(1 + z0 + z1)/2.
    """
    offset = -(1.0 + z1 - z0) / 2.0
    u = alpha * (mesh.nodes[:, 1] + offset)
    U1 = alpha * (1.0 + z0 + z1) / 2.0
    return u, np.array([-U1, U1])


def random_case(rng: np.random.Generator, side_nodes: int = 20):
    """Random conductivity, impedances, spans, and zero-sum currents."""
    mesh = cdii.build_uniform_mesh(side_nodes)
    n_elec = int(rng.integers(2, 5))
    sides = [str(s) for s in rng.permutation(np.array(cdii.SIDES))[:n_elec]]
    h = mesh.h
    spans = []
    impedances = []
    for side in sides:
        n_edges = side_nodes - 1
        a = int(rng.integers(0, max(n_edges - 1, 1)))
        b = int(rng.integers(a + 1, n_edges + 1))
        spans.append((side, (a * h, b * h)))
        impedances.append(float(10.0 ** rng.uniform(-3.0, 0.0)))
    setup = cdii.locate_electrodes(mesh, spans, impedances)
    I = rng.normal(size=n_elec)
    while np.max(np.abs(I)) < 0.3:
        I = rng.normal(size=n_elec)
    currents = cdii.CurrentPattern(I - I.mean())
    sigma = cdii.ConductivityField(rng.uniform(0.5, 2.0, mesh.triangle_count))
    return mesh, setup, currents, sigma


def pi_vector(rng: np.random.Generator, count: int, scale: float = 1.0) -> np.ndarray:
    """Random electrode-voltage direction on the zero-sum hyperplane."""
    v = rng.normal(size=count) * scale
    return v - v.mean()


def quadratic_minimizer_oracle(mesh, sigma, setup, currents):
    """Minimize the forward energy as a black-box quadratic.

    Builds the dense Hessian and gradient from central differences of the
    energy (exact for a quadratic up to roundoff) and solves the Newton
    system.  Shares no code with the sparse assembly, so it is an
    independent check of the block system.
    """
    m = mesh.node_count
    N = setup.count - 1
    dim = m + N

    def energy(x):
        U = np.empty(N + 1)
        U[:N] = x[m:]
        U[N] = -np.sum(U[:N])
        return energy_value(mesh, sigma, setup, currents, (x[:m], U))

    basis = np.eye(dim)
    f0 = energy(np.zeros(dim))
    H = np.zeros((dim, dim))
    g = np.zeros(dim)
    for i in range(dim):
        fp, fm = energy(basis[i]), energy(-basis[i])
        g[i] = -(fp - fm) / 2.0
        H[i, i] = fp - 2.0 * f0 + fm
    for i in range(dim):
        for j in range(i + 1, dim):
            fpp = energy(basis[i] + basis[j])
            fpm = energy(basis[i] - basis[j])
            fmp = energy(basis[j] - basis[i])
            fmm = energy(-basis[i] - basis[j])
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / 4.0
    x = np.linalg.solve(H, g)
    U = np.empty(N + 1)
    U[:N] = x[m:]
    U[N] = -np.sum(U[:N])
    return x[:m], U


def start_reference(recent: list[np.ndarray], M, b: np.ndarray) -> np.ndarray:
    """The PCG start of ``fem_cem.LastFactor`` rebuilt from the raw recent
    solutions (oldest first), as it was before the factor kept its basis:
    the last solution and the differences of successive ones, newest first,
    stacked, normalized as rows of one block, and combined by the least
    squares Galerkin system ``(WᵀMW) c = Wᵀb``.  The reference that the
    kept basis is checked against bitwise."""
    x = recent[::-1]
    W = np.empty((len(x), len(b)))
    W[0] = x[0]
    for i in range(len(x) - 1):
        np.subtract(x[i], x[i + 1], out=W[i + 1])
    norms = np.sqrt(np.einsum("ij,ij->i", W, W))
    W /= np.where(norms > 0.0, norms, 1.0)[:, None]
    MW = M @ np.ascontiguousarray(W.T)
    c = np.linalg.lstsq(W @ MW, W @ b, rcond=1e-14)[0]
    return c @ W


class InexactFactor:
    """A SuperLU factor whose solves are 0.1% too large."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b):
        return 1.001 * self._lu.solve(b)


class SkewedFactor:
    """A SuperLU factor of ``M`` whose solves apply ``S M⁻¹ S`` for the
    fixed diagonal ``S`` that holds 1 and 2 in turn: symmetric positive
    definite, so PCG runs on it, but no multiple of ``M⁻¹``, so that one
    PCG step cannot correct the start it gives."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b):
        s = np.where(np.arange(len(b)) % 2, 2.0, 1.0)
        return s * self._lu.solve(s * b)


def assert_objective_descent(result: cdii.ReconstructionResult, slack: float = 1e-8):
    """The logged objective must be non-increasing up to relative slack."""
    values = [rec.objective for rec in result.log]
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + slack * abs(prev), (
            f"objective increased: {prev!r} -> {cur!r}"
        )


def rel_l2(candidate: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(candidate - reference) / np.linalg.norm(reference))


def output_bytes(out_dir: Path, names) -> dict[str, bytes]:
    """The bytes of each named output file, with the wall-time column (the
    last) of convergence.csv left out: the one machine-dependent value."""
    contents = {}
    for name in names:
        data = (Path(out_dir) / name).read_bytes()
        if name == "convergence.csv":
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.splitlines())
        contents[name] = data
    return contents
