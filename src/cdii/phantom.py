"""Synthetic phantoms, interior-data simulation, and seeded noise."""

from __future__ import annotations

import numpy as np

from .calibration import BoundaryVoltageTrace
from .fem_cem import (
    ConductivityField,
    CurrentPattern,
    ForwardSolution,
    LastFactor,
    interior_current,
    solve_forward,
)
from .mesh import ElectrodeSetup, Mesh, ParameterError, _is_integer, centroids
from .weighted_gradient import InteriorData

#: Noisy data is clamped from below at this floor.
NOISE_FLOOR = 1e-6


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
    with np.errstate(over="ignore"):  # a far centre or a tiny width: exp(-inf) is the exact 0
        d2 = (c[:, 0] - center[0]) ** 2 + (c[:, 1] - center[1]) ** 2
        bump = np.exp(-d2 / width)
    return ConductivityField(1.0 + amplitude * bump)


def simulate_data(mesh: Mesh, sigma_true: ConductivityField, setup: ElectrodeSetup,
                  currents: CurrentPattern, gamma_side: str = "right", *,
                  factor: LastFactor | None = None,
                  ) -> tuple[InteriorData, BoundaryVoltageTrace, ForwardSolution]:
    """Forward-solve a known conductivity and sample the measurements.

    Returns the per-triangle current-density magnitude, the potential trace
    at every node of the named side, and the generating solution.  A full
    side that touches both electrode-adjacent corners gives calibration the
    connectivity it relies on.  The solution is returned for verification
    only; reconstruction must see nothing but the magnitude and the trace.
    ``factor`` is passed on to ``solve_forward``, so a caller that holds the
    operator does not build it again.
    """
    sol = solve_forward(mesh, sigma_true, setup, currents, factor=factor)
    _, a = interior_current(mesh, sigma_true, sol)
    ids = mesh.nodes_on_side(gamma_side)
    return InteriorData(a), BoundaryVoltageTrace(ids, sol.u[ids]), sol


def add_noise(data: InteriorData, level: float, seed: int) -> InteriorData:
    """Multiplicative Gaussian noise ``a * (1 + level * g)``, seed-deterministic.

    Uses numpy's PCG64 generator, so identical seeds give identical data on
    every platform.  Noisy values are clamped from below at ``NOISE_FLOOR``.

    Raises
    ------
    ParameterError
        Named ``level`` unless it is finite and nonnegative, ``seed`` unless
        it is a nonnegative integer, not a bool; both are checked before the
        data is touched.  Named ``level`` also if the noisy data is not
        finite: a level near the largest double overflows where
        ``level * g`` does.
    """
    if not 0.0 <= level < np.inf:
        raise ParameterError("level", f"noise level must be finite and nonnegative, got {level}")
    if not _is_integer(seed):
        raise ParameterError("seed", f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ParameterError("seed", f"seed must be nonnegative, got {seed}")
    if level == 0.0:
        return InteriorData(data.values.copy())
    g = np.random.default_rng(seed).standard_normal(len(data.values))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        noisy = np.maximum(data.values * (1.0 + level * g), NOISE_FLOOR)
    bad = InteriorData.first_invalid(noisy)
    if bad is not None:
        raise ParameterError("level", f"noise level {level} overflows the noisy data; "
                             f"triangle {bad} holds {noisy[bad]}")
    return InteriorData(noisy)
