"""Weighted-gradient functional and the iterative conductivity reconstruction.

Given the interior magnitude ``a`` of one current density field, the
forward solution minimizes

    integral of a |grad v|  +  electrode mismatch penalty  -  current work

over candidates with zero-sum electrode voltages.  The reconstruction loop
alternates the update ``clamp_conductivity``, ``a / |grad u|`` clamped to
``[eps, 1/eps]``, with a forward solve, and stops once the per-triangle
gradients settle.  Its forward solves share one ``fem_cem.LastFactor``,
and the electrode terms of the functional are ``fem_cem``'s.  The loop
evaluates the functional only to log it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fem_cem import (
    CemOperator,
    ConductivityField,
    CurrentPattern,
    ForwardSolution,
    LastFactor,
    SolverError,
    _electrode_terms,
    solve_forward,
)
from .mesh import ElectrodeSetup, Mesh, ParameterError, _frozen, _gradient_norm, _is_integer

#: Gradient magnitudes below this floor are treated as degenerate in the
#: conductivity update; the clamp bounds the result anyway.
GRAD_FLOOR = 1e-14


@dataclass(frozen=True)
class InteriorData:
    """Per-triangle current-density magnitude (A/m^2), finite and nonnegative."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("interior data must be a 1-d array")
        bad = self.first_invalid(v)
        if bad is not None:
            raise ValueError("current-density magnitude must be finite and nonnegative; "
                             f"triangle {bad} holds {float(v[bad])}")
        object.__setattr__(self, "values", _frozen(v))

    @staticmethod
    def first_invalid(values: np.ndarray) -> int | None:
        """Index of the first value that is negative or not finite, if any."""
        bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0.0)))
        return int(bad[0]) if len(bad) else None

    @property
    def essinf(self) -> float:
        """Minimum over triangles; must be positive for reconstruction."""
        return float(self.values.min())


def _check_epsilon(epsilon: float) -> None:
    """The clamp's range rule: ``0 < epsilon < 1``, and its upper bound
    ``1/epsilon`` must not overflow."""
    if not (0.0 < epsilon < 1.0 and 1.0 / float(epsilon) < np.inf):
        raise ParameterError("epsilon", "epsilon must lie in (0, 1), with a finite "
                             f"reciprocal, got {epsilon}")


@dataclass(frozen=True)
class ReconstructionConfig:
    epsilon: float
    delta: float
    max_iter: int = 1000

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if not 0.0 < self.delta < np.inf:
            raise ParameterError("delta", f"delta must be positive and finite, got {self.delta}")
        if not _is_integer(self.max_iter) or self.max_iter < 1:
            raise ParameterError("max_iter",
                                 f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: float
    max_grad_diff: float  # nan for the initial solve
    wall_ms: float


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of the iterative reconstruction.

    ``sigma_v`` is the clamped intermediate conductivity ``a / |grad v|``
    built from the final solution ``solution``; it is determined only up to
    a monotone reparameterization of the potential and generally needs the
    boundary-curve calibration step to match the true conductivity.
    ``factorizations`` and ``pcg_iterations`` count the linear-solver work
    of all the forward solves.  ``stop_threshold`` is the gradient change
    ``delta * epsilon / essinf(a)`` the loop stopped at or did not reach
    (NaN where no loop ran).
    """

    sigma_v: ConductivityField
    solution: ForwardSolution
    log: list[IterationRecord] = field(repr=False)
    converged: bool
    iterations: int
    factorizations: int = 0
    pcg_iterations: int = 0
    stop_threshold: float = float("nan")


def _functional(mesh: Mesh, data: InteriorData, setup: ElectrodeSetup,
                currents: CurrentPattern, v: np.ndarray, V: np.ndarray,
                grad_norm: np.ndarray) -> float:
    """The weighted-gradient functional at ``(v, V)``, V zero-sum, with
    ``grad_norm`` the magnitude of the gradient of ``v``, unchecked.

    Exact for piecewise-linear candidates: the gradient term is a plain sum
    of ``a * |grad v| * area`` over triangles and the electrode terms use
    closed-form edge quadrature.
    """
    val = float(np.sum(data.values * grad_norm)) * mesh.triangle_area
    return _electrode_terms(val, mesh, setup, currents, v, V)


def clamp_conductivity(data: InteriorData, grad_norm: np.ndarray,
                       epsilon: float) -> ConductivityField:
    """Conductivity update ``clamp(a / grad_norm, eps, 1/eps)``, ``grad_norm = |grad u|``.

    Triangles whose gradient magnitude falls below ``GRAD_FLOOR`` map to
    the upper bound ``1/eps``.
    """
    _check_epsilon(epsilon)
    grad_norm = np.asarray(grad_norm, dtype=float)
    if grad_norm.shape != data.values.shape:
        raise ValueError("gradient magnitudes do not match the interior data")
    with np.errstate(over="ignore"):  # an overflow to inf is clipped below
        ratio = data.values / np.maximum(grad_norm, GRAD_FLOOR)
    values = np.clip(ratio, epsilon, 1.0 / epsilon)
    values[grad_norm < GRAD_FLOOR] = 1.0 / epsilon
    return ConductivityField(values)


def _stop_threshold(delta: float, epsilon: float, essinf_a: float) -> float:
    """The gradient change ``delta * epsilon / essinf_a`` at which to stop."""
    if not essinf_a > 0.0:
        raise ValueError(f"interior data must be bounded away from zero, min is {essinf_a:.3e}")
    return delta * epsilon / essinf_a


def _max_grad_change(grad_n: np.ndarray, grad_prev: np.ndarray) -> float:
    """Sup over triangles of the Euclidean norm of the gradient change.

    The square root of the largest squared change: sqrt is monotone and
    correctly rounded, so this is exactly the largest ``_gradient_norm``,
    for one square root instead of one per triangle.
    """
    d = grad_n - grad_prev
    dx, dy = d[:, 0], d[:, 1]
    return float(np.sqrt(np.max(dx * dx + dy * dy)))


def reconstruct(mesh: Mesh, data: InteriorData, setup: ElectrodeSetup,
                currents: CurrentPattern, config: ReconstructionConfig, *,
                factor: LastFactor | None = None) -> ReconstructionResult:
    """Run the fixed-point reconstruction from interior data.

    Starts from unit conductivity, then repeats clamp-update and forward
    solve until the gradient change drops to ``delta * epsilon / essinf(a)``
    (``_stop_threshold``; equality stops) or ``max_iter`` is reached.
    Every forward solve shares one ``fem_cem.LastFactor``, whose docstring
    describes when a solve runs PCG and when it refactorizes; each meets
    the relative residual ``fem_cem.SOLVER_TOL``.  The result counts the
    factorizations and PCG iterations of this reconstruction's solves and
    carries the stop threshold.  Each iterate's gradient magnitude is
    computed once, for the log and the clamp update.  The per-iteration log
    records the weighted-gradient objective (``_functional``), which is
    non-increasing along the iteration up to solver residual, and the
    sup-norm of the gradient change, which is the value the stop rule tests.

    Parameters
    ----------
    factor : LastFactor, optional
        On a ``CemOperator`` of these ``mesh`` and ``setup`` objects, so a
        caller that already built the operator does not build it again.  A
        fresh one gives the same result as the default, which builds one
        before the first solve and drops it when this returns.

    Raises
    ------
    ValueError
        If the interior data is not bounded away from zero, or ``factor``
        was built for a different mesh or electrode setup.
    SolverError
        If a forward solve fails; the message names the iteration.
    """
    if len(data.values) != mesh.triangle_count:
        raise ValueError("interior data does not match the mesh")
    threshold = _stop_threshold(config.delta, config.epsilon, data.essinf)

    t0 = time.perf_counter()
    if factor is None:
        factor = LastFactor(CemOperator(mesh, setup))
    factorizations, pcg_iterations = factor.factorizations, factor.pcg_iterations
    sigma = ConductivityField(np.ones(mesh.triangle_count))
    prev = None
    log = []
    for n in range(config.max_iter + 1):
        try:
            sol = solve_forward(mesh, sigma, setup, currents, factor=factor)
        except SolverError as exc:
            raise SolverError(f"iteration {n}: {exc}") from exc
        change = float("nan") if prev is None else _max_grad_change(sol.grad_u, prev.grad_u)
        grad_norm = _gradient_norm(sol.grad_u)
        log.append(IterationRecord(
            iteration=n,
            objective=_functional(mesh, data, setup, currents, sol.u, sol.U, grad_norm),
            max_grad_diff=change,
            wall_ms=(time.perf_counter() - t0) * 1e3,
        ))
        t0 = time.perf_counter()
        sigma = clamp_conductivity(data, grad_norm, config.epsilon)
        converged = change <= threshold  # false after the first solve (NaN)
        if converged:
            break
        prev = sol

    return ReconstructionResult(
        sigma_v=sigma,
        solution=sol,
        log=log,
        converged=converged,
        iterations=n,
        factorizations=factor.factorizations - factorizations,
        pcg_iterations=factor.pcg_iterations - pcg_iterations,
        stop_threshold=threshold,
    )
