"""Synthetic phantoms, interior-data simulation, and test transformations."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .calibration import BoundaryVoltageTrace, side_trace
from .fem_cem import (
    ConductivityField,
    CurrentPattern,
    DEFAULT_SOLVER_TOL,
    ForwardSolution,
    LastFactor,
    interior_current,
    solve_forward,
)
from .mesh import ElectrodeSetup, Mesh, ParameterError, centroids, triangle_gradients
from .weighted_gradient import GRAD_FLOOR, InteriorData

#: Noisy data is clamped from below at this floor.
NOISE_FLOOR = 1e-6

#: Tolerance for the per-electrode shift constraint of a reparameterization.
SHIFT_TOL = 1e-10


def gaussian_phantom(mesh: Mesh, center: tuple[float, float], amplitude: float,
                     width: float) -> ConductivityField:
    """Unit background with a Gaussian bump: ``1 + A exp(-|x - c|^2 / w)``.

    With amplitude 0.8 the values span (1.0, 1.8] S/m.

    Raises
    ------
    ParameterError
        Named ``amplitude`` unless it is finite and nonnegative, ``width``
        unless it is finite and positive, ``center`` unless it is two finite
        coordinates.
    """
    if not 0.0 <= amplitude < np.inf:
        raise ParameterError("amplitude",
                             f"amplitude must be finite and nonnegative, got {amplitude}")
    if not 0.0 < width < np.inf:
        raise ParameterError("width", f"width must be finite and positive, got {width}")
    if len(center) != 2 or not np.all(np.isfinite(center)):
        raise ParameterError("center", f"center must be two finite coordinates, got {center}")
    c = centroids(mesh)
    d2 = (c[:, 0] - center[0]) ** 2 + (c[:, 1] - center[1]) ** 2
    return ConductivityField(1.0 + amplitude * np.exp(-d2 / width))


def simulate_data(mesh: Mesh, sigma_true: ConductivityField, setup: ElectrodeSetup,
                  currents: CurrentPattern, solver_tol: float = DEFAULT_SOLVER_TOL,
                  gamma_side: str = "right", *, factor: LastFactor | None = None,
                  ) -> tuple[InteriorData, BoundaryVoltageTrace, ForwardSolution]:
    """Forward-solve a known conductivity and sample the measurements.

    Returns the per-triangle current-density magnitude, the potential trace
    along the named boundary side, and the generating solution.  The
    solution is returned for verification only; reconstruction must see
    nothing but the magnitude and the trace.  ``factor`` is passed on to
    ``solve_forward``, so a caller that holds the operator does not build
    it again.
    """
    sol = solve_forward(mesh, sigma_true, setup, currents, solver_tol, factor=factor)
    _, a = interior_current(mesh, sigma_true, sol)
    trace = side_trace(mesh, gamma_side, sol.u[mesh.nodes_on_side(gamma_side)])
    return InteriorData(a), trace, sol


def transform_conductivity(mesh: Mesh, sigma: ConductivityField,
                           solution: ForwardSolution, setup: ElectrodeSetup,
                           phi: Callable[[np.ndarray], np.ndarray]) -> ConductivityField:
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
        t = u[e.nodes()]
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
    norm_u = np.hypot(solution.grad_u[:, 0], solution.grad_u[:, 1])
    norm_v = np.hypot(grad_v[:, 0], grad_v[:, 1])
    values = sigma.values.copy()
    live = norm_u >= GRAD_FLOOR
    values[live] = sigma.values[live] * norm_u[live] / norm_v[live]
    return ConductivityField(values)


def add_noise(data: InteriorData, level: float, seed: int) -> InteriorData:
    """Multiplicative Gaussian noise ``a * (1 + level * g)``, seed-deterministic.

    Uses numpy's PCG64 generator, so identical seeds give identical data on
    every platform.  Noisy values are clamped from below at ``NOISE_FLOOR``.

    Raises
    ------
    ParameterError
        Named ``level`` unless it is finite and nonnegative, ``seed`` if it
        is negative; both are checked before the data is touched.
    """
    if not 0.0 <= level < np.inf:
        raise ParameterError("level", f"noise level must be finite and nonnegative, got {level}")
    if seed < 0:
        raise ParameterError("seed", f"seed must be nonnegative, got {seed}")
    if level == 0.0:
        return InteriorData(data.values.copy())
    g = np.random.default_rng(seed).standard_normal(len(data.values))
    return InteriorData(np.maximum(data.values * (1.0 + level * g), NOISE_FLOOR))
