"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np

import cdii


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


def centroids_reference(mesh: cdii.Mesh) -> np.ndarray:
    """Triangle centroids as the mean of the gathered vertex coordinates;
    the reference that ``centroids`` is checked against."""
    return mesh.nodes[mesh.triangles].mean(axis=1)


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
        return cdii.energy_value(mesh, sigma, setup, currents, (x[:m], U))

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
