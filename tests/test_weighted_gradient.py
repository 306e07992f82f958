import re

import numpy as np
import pytest
import scipy.sparse.linalg

import cdii.fem_cem
import cdii.weighted_gradient
from cdii.fem_cem import (
    CemOperator,
    ConductivityField,
    CurrentPattern,
    LastFactor,
    SolverError,
    interior_current,
    solve_forward,
)
from cdii.weighted_gradient import (
    InteriorData,
    ReconstructionConfig,
    _max_grad_change,
    _stop_threshold,
    clamp_conductivity,
    reconstruct,
)
from cdii.calibration import apply_calibration, build_monotone_map, collect_pairs
from cdii.mesh import ParameterError, _gradient_norm, triangle_gradients
from cdii.phantom import gaussian_phantom, simulate_data

from helpers import (
    SkewedFactor,
    assert_objective_descent,
    functional_value,
    minimum_value,
    pi_vector,
    random_case,
    rel_l2,
    should_stop,
    two_electrode_case,
)


def ones(mesh):
    return ConductivityField(np.ones(mesh.triangle_count))


# ------------------------------------------------------------ functional

def test_functional_zero_candidate():
    mesh, setup, currents = two_electrode_case(6, 0.1, 0.1, 1.0)
    data = InteriorData(np.ones(mesh.triangle_count))
    zero = (np.zeros(mesh.node_count), np.zeros(2))
    assert functional_value(mesh, data, setup, currents, zero) == 0.0


def test_functional_closed_form_minimum():
    # At the forward solution the functional collapses to the electrode
    # integrals, worth -alpha^2 (z0 + z1) / 2 in the two-electrode case.
    z0, z1, alpha = 0.9, 0.35, 0.6
    mesh, setup, currents = two_electrode_case(10, z0, z1, alpha)
    sol = solve_forward(mesh, ones(mesh), setup, currents)
    _, a = interior_current(mesh, ones(mesh), sol)
    expected = -0.5 * alpha ** 2 * (z0 + z1)
    got = functional_value(mesh, InteriorData(a), setup, currents, (sol.u, sol.U))
    assert got == pytest.approx(expected, rel=1e-11)
    assert minimum_value(mesh, setup, sol) == pytest.approx(expected, rel=1e-11)


def test_functional_is_the_straight_line_sum():
    # The gradient term, then each electrode's mismatch, then the current
    # work, added in that order: the logged objective keeps its bits.
    rng = np.random.default_rng(7)
    mesh, setup, currents, _ = random_case(rng, side_nodes=9)
    a = rng.uniform(0.5, 2.0, mesh.triangle_count)
    v = rng.normal(size=mesh.node_count)
    V = pi_vector(rng, setup.count)
    g = triangle_gradients(mesh, v)
    expected = float(np.sum(a * _gradient_norm(g))) * mesh.triangle_area
    for k, e in enumerate(setup.electrodes):
        wp, wq = v[e.edges[:, 0]] - V[k], v[e.edges[:, 1]] - V[k]
        expected += float(np.sum(wp * wp + wp * wq + wq * wq)) * mesh.h / 3.0 \
            / (2.0 * e.impedance)
    expected -= float(np.dot(currents.values, V))
    assert functional_value(mesh, InteriorData(a), setup, currents, (v, V)) == expected


def test_forward_solution_is_global_minimum():
    rng = np.random.default_rng(2)
    for _ in range(5):
        mesh, setup, currents, sigma = random_case(rng, 10)
        sol = solve_forward(mesh, sigma, setup, currents)
        _, a = interior_current(mesh, sigma, sol)
        data = InteriorData(a)
        best = functional_value(mesh, data, setup, currents, (sol.u, sol.U))
        scale = max(np.max(np.abs(sol.u)), 1e-6)
        for _ in range(50):
            cand = (sol.u + rng.normal(size=mesh.node_count) * scale * 0.3,
                    sol.U + pi_vector(rng, setup.count, scale * 0.3))
            assert functional_value(mesh, data, setup, currents, cand) >= best


def test_minimum_value_zero_problem():
    mesh, setup, _ = two_electrode_case(5, 0.2, 0.2, 1.0)
    sol = solve_forward(mesh, ones(mesh), setup, CurrentPattern(np.zeros(2)))
    assert minimum_value(mesh, setup, sol) == 0.0


def test_minimum_identity_cross_evaluation():
    # Two independent quadrature paths for the same number.
    mesh, setup, currents = two_electrode_case(30, 8.3e-3, 8.3e-3, 3e-3)
    sigma = gaussian_phantom(mesh, (0.5, 0.5), 0.8, 0.02)
    sol = solve_forward(mesh, sigma, setup, currents)
    _, a = interior_current(mesh, sigma, sol)
    lhs = functional_value(mesh, InteriorData(a), setup, currents, (sol.u, sol.U))
    rhs = minimum_value(mesh, setup, sol)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_minimum_identity_random_draws():
    rng = np.random.default_rng(13)
    for _ in range(20):
        mesh, setup, currents, sigma = random_case(rng, 14)
        sol = solve_forward(mesh, sigma, setup, currents)
        _, a = interior_current(mesh, sigma, sol)
        lhs = functional_value(mesh, InteriorData(a), setup, currents,
                               (sol.u, sol.U))
        assert lhs == pytest.approx(minimum_value(mesh, setup, sol), rel=1e-9)


# ------------------------------------------------------------ interior data

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_interior_data_rejects_nonfinite_and_negative(bad):
    values = np.array([1.0, 0.0, bad, np.nan])
    assert InteriorData.first_invalid(values) == 2
    with pytest.raises(ValueError, match="finite and nonnegative; triangle 2 holds"):
        InteriorData(values)


def test_interior_data_first_invalid_none_when_valid():
    assert InteriorData.first_invalid(np.array([0.0, 1.0, 1e300])) is None


# ----------------------------------------------------------------- clamp

def test_clamp_inside_bounds():
    data = InteriorData(np.array([1.0]))
    assert clamp_conductivity(data, np.array([1.0]), 0.1).values[0] == 1.0


def test_clamp_upper():
    data = InteriorData(np.array([1.0]))
    assert clamp_conductivity(data, np.array([0.01]), 0.2).values[0] == 5.0


def test_clamp_lower():
    data = InteriorData(np.array([0.01]))
    assert clamp_conductivity(data, np.array([1.0]), 0.2).values[0] == 0.2


def test_clamp_degenerate_gradient():
    data = InteriorData(np.array([1.0]))
    assert clamp_conductivity(data, np.array([0.0]), 0.1).values[0] == 10.0


def test_clamp_of_an_overflowing_ratio_is_the_upper_bound():
    # a / |grad u| overflows to inf and is clipped to 1/eps, with no warning.
    data = InteriorData(np.array([1e308, 1.0]))
    values = clamp_conductivity(data, np.array([1e-3, 1.0]), 0.1).values
    assert values.tolist() == [10.0, 1.0]


def test_clamp_range_always_held():
    rng = np.random.default_rng(4)
    data = InteriorData(rng.uniform(0.0, 10.0, 100))
    grad_norm = np.abs(rng.normal(size=100)) * 0.01
    values = clamp_conductivity(data, grad_norm, 0.25).values
    assert np.all(values >= 0.25) and np.all(values <= 4.0)


def test_clamp_validates_epsilon():
    # The clamp and ReconstructionConfig share one rule: 1/epsilon is the
    # clamp's upper bound, so an epsilon whose reciprocal overflows is
    # refused by name, not as an infinite conductivity.
    data = InteriorData(np.array([1.0, 1.0]))
    for epsilon in (1.5, 1e-320, 0.0, 1.0, np.nan):
        for check in (lambda: clamp_conductivity(data, np.array([1.0, 0.0]), epsilon),
                      lambda: ReconstructionConfig(epsilon=epsilon, delta=1e-7)):
            with pytest.raises(ParameterError, match=r"^epsilon must lie in \(0, 1\), "
                               r"with a finite reciprocal, got ") as err:
                check()
            assert err.value.name == "epsilon"


def test_clamp_rejects_a_gradient_field():
    # The update takes the magnitude |grad u|, one value per triangle.
    data = InteriorData(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="magnitudes"):
        clamp_conductivity(data, np.array([[1.0, 0.0], [0.0, 1.0]]), 0.1)


# -------------------------------------------------------------- stopping

def test_stop_on_identical_gradients():
    g = np.ones((5, 2))
    assert should_stop(g, g, delta=1e-7, epsilon=0.1, essinf_a=1.0)


def test_continue_above_threshold():
    g = np.zeros((5, 2))
    g2 = g.copy()
    thresh = 1e-7 * 0.1 / 2.0
    g2[3, 0] = thresh * 1.01
    assert not should_stop(g2, g, delta=1e-7, epsilon=0.1, essinf_a=2.0)


def test_stop_at_exact_threshold():
    g = np.zeros((5, 2))
    g2 = g.copy()
    g2[0, 1] = 1e-7 * 0.1 / 2.0
    assert should_stop(g2, g, delta=1e-7, epsilon=0.1, essinf_a=2.0)


def test_max_grad_change_is_bitwise_the_largest_gradient_norm():
    # One square root of the largest square: sqrt is monotone and
    # correctly rounded.
    rng = np.random.default_rng(11)
    for scale in (1e-12, 1e-3, 1.0, 1e6):
        g1, g2 = (rng.normal(size=(997, 2)) * scale for _ in range(2))
        expected = np.max(_gradient_norm(g1 - g2))
        assert _max_grad_change(g1, g2) == expected


def test_stopping_validates_inputs():
    with pytest.raises(ValueError, match="bounded away from zero"):
        _stop_threshold(1e-7, 0.1, 0.0)


# ----------------------------------------------------------- reconstruct

def test_reconstruct_fixed_point_of_flat_data():
    # Data from the unit-conductivity problem: the first solve already has
    # |grad u| = a, so the loop stops after one iteration with sigma = 1.
    alpha = 3e-3
    mesh, setup, currents = two_electrode_case(12, 8.3e-3, 8.3e-3, alpha)
    data = InteriorData(np.full(mesh.triangle_count, alpha))
    result = reconstruct(mesh, data, setup, currents,
                         ReconstructionConfig(epsilon=0.1, delta=1e-7))
    assert result.converged
    assert result.iterations == 1
    assert np.max(np.abs(result.sigma_v.values - 1.0)) < 1e-9
    assert_objective_descent(result)


def test_reconstruct_recovers_current_field():
    # Unit data in the shifted-impedance setup: the recovered current field
    # matches the generating one even before any calibration.
    mesh, setup, currents = two_electrode_case(16, 1.0 + 8.3e-3, 8.3e-3, 1.0)
    data = InteriorData(np.ones(mesh.triangle_count))
    result = reconstruct(mesh, data, setup, currents,
                         ReconstructionConfig(epsilon=0.1, delta=1e-7))
    assert result.converged
    J, a = interior_current(mesh, result.sigma_v, result.solution)
    assert np.max(np.abs(J - np.array([0.0, -1.0]))) < 1e-9
    assert np.max(np.abs(a - 1.0)) < 1e-9
    assert_objective_descent(result)


def test_reconstruct_phantom_descends_and_logs():
    mesh, setup, currents = two_electrode_case(24, 8.3e-3, 8.3e-3, 3e-3)
    sigma_true = gaussian_phantom(mesh, (0.5, 0.5), 0.8, 0.02)
    data, _, _ = simulate_data(mesh, sigma_true, setup, currents)
    result = reconstruct(mesh, data, setup, currents,
                         ReconstructionConfig(epsilon=0.1, delta=1e-7))
    assert result.converged
    assert_objective_descent(result)
    assert result.log[0].iteration == 0
    assert np.isnan(result.log[0].max_grad_diff)
    assert [rec.iteration for rec in result.log[1:]] == \
        list(range(1, result.iterations + 1))
    diffs = [rec.max_grad_diff for rec in result.log[1:]]
    assert diffs[-1] <= 1e-7 * 0.1 / data.essinf
    assert np.all(result.sigma_v.values >= 0.1)
    assert np.all(result.sigma_v.values <= 10.0)


def test_reconstruct_stop_agrees_with_should_stop():
    # Data and currents scaled so that essinf(a) = 1: with epsilon = 1/4 the
    # threshold delta * epsilon / essinf(a) is exact, so delta can make it
    # equal the gradient change of iteration k, where the loop must stop,
    # since equality stops, and not before.
    mesh, setup, currents = two_electrode_case(16, 8.3e-3, 8.3e-3, 3e-3)
    sigma_true = gaussian_phantom(mesh, (0.5, 0.5), 0.8, 0.02)
    simulated, _, _ = simulate_data(mesh, sigma_true, setup, currents)
    data = InteriorData(simulated.values / simulated.essinf)
    currents = CurrentPattern(currents.values / simulated.essinf)
    assert data.essinf == 1.0

    def run(delta, max_iter):
        return reconstruct(mesh, data, setup, currents,
                           ReconstructionConfig(epsilon=0.25, delta=delta, max_iter=max_iter))

    k = 3
    before = run(1e-12, k - 1)
    threshold = run(1e-12, k).log[k].max_grad_diff
    delta = 4.0 * threshold
    result = run(delta, 100)
    assert result.converged and result.iterations == k
    assert result.log[k].max_grad_diff == threshold
    assert all(rec.max_grad_diff > threshold for rec in result.log[1:k])
    assert should_stop(result.solution.grad_u, before.solution.grad_u,
                       delta, 0.25, data.essinf)


def test_reconstruct_honors_iteration_cap():
    mesh, setup, currents = two_electrode_case(16, 8.3e-3, 8.3e-3, 3e-3)
    sigma_true = gaussian_phantom(mesh, (0.5, 0.5), 0.8, 0.02)
    data, _, _ = simulate_data(mesh, sigma_true, setup, currents)
    result = reconstruct(mesh, data, setup, currents,
                         ReconstructionConfig(epsilon=0.1, delta=1e-7, max_iter=1))
    assert not result.converged
    assert result.iterations == 1
    assert_objective_descent(result)


@pytest.mark.parametrize("max_iter,converged", [(1000, True), (1, False)])
def test_sigma_v_is_the_clamp_of_the_final_solution(max_iter, converged):
    mesh, setup, currents = two_electrode_case(16, 8.3e-3, 8.3e-3, 3e-3)
    sigma_true = gaussian_phantom(mesh, (0.5, 0.5), 0.8, 0.02)
    data, _, _ = simulate_data(mesh, sigma_true, setup, currents)
    result = reconstruct(mesh, data, setup, currents,
                         ReconstructionConfig(epsilon=0.1, delta=1e-7, max_iter=max_iter))
    assert result.converged == converged
    g = result.solution.grad_u
    clamped = clamp_conductivity(data, _gradient_norm(g), 0.1)
    assert result.sigma_v.values.tobytes() == clamped.values.tobytes()


def test_reconstruct_assembles_once(monkeypatch):
    calls = {"assemble": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cdii.fem_cem, "assemble_system",
                        counted("assemble", cdii.fem_cem.assemble_system))
    monkeypatch.setattr(cdii.weighted_gradient, "solve_forward",
                        counted("solve", cdii.weighted_gradient.solve_forward))
    mesh, setup, currents = two_electrode_case(16, 8.3e-3, 8.3e-3, 3e-3)
    sigma_true = gaussian_phantom(mesh, (0.5, 0.5), 0.8, 0.02)
    data, _, _ = simulate_data(mesh, sigma_true, setup, currents)
    calls.update(assemble=0, solve=0)
    result = reconstruct(mesh, data, setup, currents,
                         ReconstructionConfig(epsilon=0.1, delta=1e-7))
    assert result.iterations > 1
    assert calls == {"assemble": 1, "solve": result.iterations + 1}


def test_logged_objective_is_bitwise_the_functional_value(monkeypatch):
    solutions = []

    def recorded(*args, **kwargs):
        solutions.append(solve_forward(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(cdii.weighted_gradient, "solve_forward", recorded)
    mesh, setup, currents = two_electrode_case(16, 8.3e-3, 8.3e-3, 3e-3)
    sigma_true = gaussian_phantom(mesh, (0.5, 0.5), 0.8, 0.02)
    data, _, _ = simulate_data(mesh, sigma_true, setup, currents)
    result = reconstruct(mesh, data, setup, currents,
                         ReconstructionConfig(epsilon=0.1, delta=1e-7))
    assert result.iterations > 1 and len(solutions) == len(result.log)
    for rec, sol in zip(result.log, solutions):
        assert rec.objective == functional_value(mesh, data, setup, currents,
                                                 (sol.u, sol.U))


def test_reconstruct_solver_error_names_iteration_0(monkeypatch):
    mesh, setup, currents = two_electrode_case(12, 8.3e-3, 8.3e-3, 3e-3)
    data = InteriorData(np.full(mesh.triangle_count, 3e-3))
    config = ReconstructionConfig(epsilon=0.1, delta=1e-7)
    monkeypatch.setattr(cdii.fem_cem, "SOLVER_TOL", 1e-30)
    with pytest.raises(SolverError, match=r"^iteration 0: linear solve stalled"):
        reconstruct(mesh, data, setup, currents, config)


def _phantom_case(side_nodes):
    mesh, setup, currents = two_electrode_case(side_nodes, 8.3e-3, 8.3e-3, 3e-3)
    sigma_true = gaussian_phantom(mesh, (0.5, 0.5), 0.8, 0.02)
    data, trace, _ = simulate_data(mesh, sigma_true, setup, currents)
    return mesh, setup, currents, sigma_true, data, trace


class _CountedFactor:
    """A SuperLU factor that counts its triangular solves."""

    def __init__(self, lu, counts):
        self._lu, self._counts = lu, counts

    def solve(self, b):
        self._counts["solve"] += 1
        return self._lu.solve(b)


def test_acceptance_reconstruction_shares_its_factorizations(monkeypatch):
    # Acceptance criterion 8's configuration through the library.  Every
    # triangular solve does solver work: one per factorization, for PCG's
    # start on the new factor, and one per PCG iteration, none to probe
    # the preconditioner.
    mesh, setup, currents, sigma_true, data, trace = _phantom_case(90)
    counts = {"solve": 0}

    class Linalg:
        def __getattr__(self, name):
            return getattr(scipy.sparse.linalg, name)

        @staticmethod
        def splu(*args, **kwargs):
            return _CountedFactor(scipy.sparse.linalg.splu(*args, **kwargs), counts)

    monkeypatch.setattr(cdii.fem_cem, "spla", Linalg())
    result = reconstruct(mesh, data, setup, currents,
                         ReconstructionConfig(epsilon=0.1, delta=1e-7))
    assert counts["solve"] == result.pcg_iterations + result.factorizations
    sigma = apply_calibration(mesh, result, build_monotone_map(
        collect_pairs(mesh, setup, result, trace))).values
    rel = np.linalg.norm(sigma - sigma_true.values) / np.linalg.norm(sigma_true.values)
    assert result.converged and result.iterations == 16 and len(result.log) == 17
    assert f"{rel:.5g}" == "0.0063911"
    assert result.factorizations == 2 and 0 < result.pcg_iterations <= 55


def test_acceptance_factor_stores_no_relaxed_supernode_zeros():
    # LU_RELAX = 1 keeps SuperLU from padding the minimum-degree order's
    # narrow subtrees into relaxed supernodes: 294,824 stored entries
    # against 315,934 with SuperLU's default relax at 90².
    mesh, setup, currents, _, data, _ = _phantom_case(90)
    factor = LastFactor(CemOperator(mesh, setup))
    reconstruct(mesh, data, setup, currents, ReconstructionConfig(epsilon=0.1, delta=1e-7),
                factor=factor)
    default = scipy.sparse.linalg.splu(
        factor._matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        panel_size=cdii.fem_cem.LU_PANEL_SIZE, options={"SymmetricMode": True})
    assert factor._lu.nnz < default.nnz


def test_error_shrinks_under_mesh_refinement():
    # The README's library path at a tight delta, so the stop rule leaves
    # discretization error, not the loop's, as the calibrated error: 0.0064,
    # 0.0026 and 0.0015 at 30², 60² and 120².
    errors = []
    for side_nodes in (30, 60, 120):
        mesh, setup, currents, sigma_true, data, trace = _phantom_case(side_nodes)
        result = reconstruct(mesh, data, setup, currents,
                             ReconstructionConfig(epsilon=0.1, delta=1e-9))
        assert result.converged, side_nodes
        sigma = apply_calibration(mesh, result, build_monotone_map(
            collect_pairs(mesh, setup, result, trace)))
        errors.append(rel_l2(sigma.values, sigma_true.values))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine * 1.5 <= coarse, errors


def test_delta_scaled_with_current_squared_stops_at_the_same_iterate():
    # The stop threshold delta*eps/essinf(a) falls as 1/I and the gradient
    # change grows as I, while the iterates do not depend on I: at 30², the
    # README problem stops after 16 iterations at ±3 mA with delta 1e-7 and
    # at ±3 A with delta 1e-7 * (1e3)² = 0.1.
    runs = []
    for current, delta in ((3e-3, 1e-7), (3.0, 0.1)):
        mesh, setup, currents = two_electrode_case(30, 8.3e-3, 8.3e-3, current)
        sigma_true = gaussian_phantom(mesh, (0.5, 0.5), 0.8, 0.02)
        data, trace, _ = simulate_data(mesh, sigma_true, setup, currents)
        result = reconstruct(mesh, data, setup, currents,
                             ReconstructionConfig(epsilon=0.1, delta=delta))
        assert (result.converged, result.iterations) == (True, 16), current
        sigma = apply_calibration(mesh, result, build_monotone_map(
            collect_pairs(mesh, setup, result, trace)))
        runs.append((result.sigma_v.values, rel_l2(sigma.values, sigma_true.values)))
    (milli_sigma, milli_error), (unit_sigma, unit_error) = runs
    np.testing.assert_allclose(unit_sigma, milli_sigma, rtol=1e-12, atol=0.0)
    assert unit_error == pytest.approx(milli_error, rel=1e-12, abs=0.0)


def test_reconstruct_is_bitwise_repeatable():
    mesh, setup, currents, _, data, _ = _phantom_case(30)
    config = ReconstructionConfig(epsilon=0.1, delta=1e-8)
    first, second = (reconstruct(mesh, data, setup, currents, config) for _ in range(2))
    assert first.pcg_iterations > 0
    assert first.sigma_v.values.tobytes() == second.sigma_v.values.tobytes()
    assert (first.factorizations, first.pcg_iterations) == \
        (second.factorizations, second.pcg_iterations)


def test_reconstruct_on_a_given_factor_is_bitwise_the_default():
    # A fresh factor on the caller's operator solves exactly as the one
    # reconstruct builds, and the result counts only its own solves.
    mesh, setup, currents, _, data, _ = _phantom_case(30)
    config = ReconstructionConfig(epsilon=0.1, delta=1e-8)
    default = reconstruct(mesh, data, setup, currents, config)
    operator = CemOperator(mesh, setup)
    given = reconstruct(mesh, data, setup, currents, config,
                        factor=LastFactor(operator))
    assert given.sigma_v.values.tobytes() == default.sigma_v.values.tobytes()
    assert given.solution.u.tobytes() == default.solution.u.tobytes()
    assert given.solution.U.tobytes() == default.solution.U.tobytes()

    def logged(result):  # the first change is NaN, so compare the bytes
        return np.array([(r.objective, r.max_grad_diff) for r in result.log]).tobytes()

    assert logged(given) == logged(default)
    assert (given.iterations, given.factorizations, given.pcg_iterations) == \
        (default.iterations, default.factorizations, default.pcg_iterations)

    used = LastFactor(operator)
    simulate_data(mesh, ConductivityField(np.ones(mesh.triangle_count)), setup,
                  currents, factor=used)
    before = (used.factorizations, used.pcg_iterations)
    again = reconstruct(mesh, data, setup, currents, config, factor=used)
    assert before == (1, 0)
    assert (again.factorizations, again.pcg_iterations) == \
        (used.factorizations - 1, used.pcg_iterations)


def test_reconstruct_and_simulate_reject_a_foreign_factor():
    mesh, setup, currents, sigma_true, data, _ = _phantom_case(12)
    other_mesh, other_setup, _ = two_electrode_case(12, 8.3e-3, 8.3e-3, 3e-3)
    config = ReconstructionConfig(epsilon=0.1, delta=1e-7)
    for foreign in (CemOperator(other_mesh, setup), CemOperator(mesh, other_setup)):
        with pytest.raises(ValueError, match="different mesh or electrode setup"):
            reconstruct(mesh, data, setup, currents, config, factor=LastFactor(foreign))
        with pytest.raises(ValueError, match="different mesh or electrode setup"):
            simulate_data(mesh, sigma_true, setup, currents, factor=LastFactor(foreign))


@pytest.mark.parametrize("located_on,solved_on,electrode", [(12, 20, 1), (30, 12, 0)])
def test_solves_refuse_a_setup_located_on_another_mesh(located_on, solved_on, electrode):
    # The 12² setup's edge ids all exist on a 20² mesh, where its top
    # electrode's edges would be interior; the 30² setup's top ids are out of
    # range on a 12² mesh, and its bottom ids name other edges there.
    mesh, setup, currents, sigma_true, data, _ = _phantom_case(solved_on)
    _, foreign, _ = two_electrode_case(located_on, 8.3e-3, 8.3e-3, 3e-3)
    config = ReconstructionConfig(epsilon=0.1, delta=1e-7)
    message = f"^electrode {electrode} was not located on this mesh$"
    with pytest.raises(ValueError, match=message):
        solve_forward(mesh, sigma_true, foreign, currents)
    with pytest.raises(ValueError, match=message):
        reconstruct(mesh, data, foreign, currents, config)
    with pytest.raises(ValueError, match=message):
        simulate_data(mesh, sigma_true, foreign, currents)


def test_reconstruct_solver_error_names_iteration_after_pcg_fallback(monkeypatch):
    # The first factorization is exact; PCG at iteration 1 misses the
    # contract in its one allowed step, and so does PCG on the new, skewed
    # factor, whose start one step cannot correct: the solve fails, naming
    # the true residual it measured.
    splu = scipy.sparse.linalg.splu
    factors = []

    def skewed_after_first(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1] if len(factors) == 1 else SkewedFactor(factors[-1])

    class Linalg:
        def __getattr__(self, name):
            return getattr(scipy.sparse.linalg, name)

        splu = staticmethod(skewed_after_first)

    mesh, setup, currents, _, data, _ = _phantom_case(12)
    monkeypatch.setattr(cdii.fem_cem, "spla", Linalg())
    monkeypatch.setattr(cdii.fem_cem, "PCG_MAX_ITER", 1)
    message = (r"^iteration 1: linear solve stalled at relative residual (\S+) "
               r"\(tolerance 1\.0e-10\)$")
    with pytest.raises(SolverError, match=message) as info:
        reconstruct(mesh, data, setup, currents,
                    ReconstructionConfig(epsilon=0.1, delta=1e-7))
    assert len(factors) == 2
    residual = float(re.match(message, str(info.value)).group(1))
    assert residual > cdii.fem_cem.SOLVER_TOL


def test_reconstruct_rejects_vanishing_data():
    mesh, setup, currents = two_electrode_case(6, 0.1, 0.1, 1.0)
    values = np.ones(mesh.triangle_count)
    values[0] = 0.0
    with pytest.raises(ValueError, match="bounded away"):
        reconstruct(mesh, InteriorData(values), setup, currents,
                    ReconstructionConfig(epsilon=0.1, delta=1e-7))


def test_config_validation():
    with pytest.raises(ValueError):
        ReconstructionConfig(epsilon=1.2, delta=1e-7)
    with pytest.raises(ValueError):
        ReconstructionConfig(epsilon=0.1, delta=0.0)
    with pytest.raises(ValueError):
        ReconstructionConfig(epsilon=0.1, delta=1e-7, max_iter=0)


@pytest.mark.parametrize("max_iter", [2.5, np.nan, 10.0, "10", True])
def test_max_iter_must_be_an_integer(max_iter):
    with pytest.raises(ParameterError, match="^max_iter must be an integer >= 1") as err:
        ReconstructionConfig(epsilon=0.1, delta=1e-7, max_iter=max_iter)
    assert err.value.name == "max_iter"
    assert ReconstructionConfig(epsilon=0.1, delta=1e-7, max_iter=np.int64(3)).max_iter == 3


def test_interior_data_validation():
    with pytest.raises(ValueError):
        InteriorData(np.array([1.0, -0.1]))
    data = InteriorData(np.array([0.5, 2.0]))
    assert data.essinf == 0.5
