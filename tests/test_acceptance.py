"""Acceptance suite: each criterion at its stated tolerance.

Every test prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s``
to see them on success; captured output is shown on failure anyway).
"""

import time

import numpy as np
import pytest

import cdii
from cdii.cli import cmd_pipeline
from cdii.config import ElectrodeSpec, PipelineConfig
from cdii.csvio import read_metrics
from cdii.fem_cem import (
    ConductivityField,
    assemble_system,
    electrode_flux,
    interior_current,
    solve_forward,
)
from cdii.phantom import simulate_data, add_noise
from cdii.weighted_gradient import (
    InteriorData,
    ReconstructionConfig,
    reconstruct,
)

from helpers import (
    assert_objective_descent,
    energy_derivative,
    exact_linear_solution,
    full_matrix,
    functional_value,
    minimum_value,
    pi_vector,
    quadratic_minimizer_oracle,
    random_case,
    transform_conductivity,
    two_electrode_case,
)

Z = 8.3e-3
ALPHA = 3e-3


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def draws():
    """Twenty random problems at side_nodes=20, solved once and shared."""
    rng = np.random.default_rng(2024)
    cases = []
    t0 = time.perf_counter()
    for _ in range(20):
        mesh, setup, currents, sigma = random_case(rng, 20)
        sol = solve_forward(mesh, sigma, setup, currents)
        _, a = interior_current(mesh, sigma, sol)
        cases.append((mesh, setup, currents, sigma, sol, InteriorData(a)))
    return cases, time.perf_counter() - t0


def test_criterion_1_closed_form_forward():
    t0 = time.perf_counter()
    worst = 0.0
    for side_nodes in (4, 10, 30):
        mesh, setup, currents = two_electrode_case(side_nodes, Z, Z, ALPHA)
        sol = solve_forward(mesh, ConductivityField(np.ones(mesh.triangle_count)),
                            setup, currents)
        u_exact, U_exact = exact_linear_solution(mesh, Z, Z, ALPHA)
        worst = max(worst,
                    np.max(np.abs(sol.u - u_exact)) / np.max(np.abs(u_exact)),
                    np.max(np.abs(sol.U - U_exact)) / np.max(np.abs(U_exact)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, ok, f"closed-form forward accuracy "
                   f"(worst rel err {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_2_flux_and_conservation(draws):
    cases, solve_seconds = draws
    t0 = time.perf_counter()
    worst_flux = 0.0
    worst_sum = 0.0
    for mesh, setup, currents, sigma, sol, _ in cases:
        fluxes = np.array([electrode_flux(mesh, setup, sol, k)
                           for k in range(setup.count)])
        scale = np.max(np.abs(currents.values))
        worst_flux = max(worst_flux,
                         np.max(np.abs(fluxes - currents.values)) / scale)
        worst_sum = max(worst_sum, abs(fluxes.sum()))
    elapsed = solve_seconds + time.perf_counter() - t0
    ok = worst_flux <= 1e-8 and worst_sum <= 1e-9 and elapsed < 10.0
    _report(2, ok, f"electrode flux matches injected currents "
                   f"(worst rel {worst_flux:.2e}, worst sum {worst_sum:.2e}, "
                   f"{elapsed:.1f} s)")


def test_criterion_3_minimum_value_identity(draws):
    cases, _ = draws
    worst = 0.0
    for mesh, setup, currents, sigma, sol, data in cases:
        direct = functional_value(mesh, data, setup, currents, (sol.u, sol.U))
        boundary = minimum_value(mesh, setup, sol)
        worst = max(worst, abs(direct - boundary) / abs(boundary))
    ok = worst <= 1e-9
    _report(3, ok, f"functional equals boundary minimum formula "
                   f"(worst rel diff {worst:.2e})")


def test_criterion_4_global_minimizer(draws):
    cases, _ = draws
    rng = np.random.default_rng(55)
    violations = 0
    for mesh, setup, currents, sigma, sol, data in cases:
        best = functional_value(mesh, data, setup, currents, (sol.u, sol.U))
        scale = max(np.max(np.abs(sol.u)), np.max(np.abs(sol.U)))
        for _ in range(50):
            cand = (sol.u + rng.normal(size=mesh.node_count) * 0.3 * scale,
                    sol.U + pi_vector(rng, setup.count, 0.3 * scale))
            if functional_value(mesh, data, setup, currents, cand) < best:
                violations += 1
    ok = violations == 0
    _report(4, ok, f"forward solution is the global minimizer "
                   f"({violations} violations over 1000 perturbations)")


def test_criterion_5_descent_monotonicity():
    runs = []

    mesh, setup, currents = two_electrode_case(12, Z, Z, ALPHA)
    runs.append((mesh, setup, currents,
                 InteriorData(np.full(mesh.triangle_count, ALPHA)),
                 ReconstructionConfig(epsilon=0.1, delta=1e-7)))

    mesh, setup, currents = two_electrode_case(16, 1.0 + Z, Z, 1.0)
    runs.append((mesh, setup, currents,
                 InteriorData(np.ones(mesh.triangle_count)),
                 ReconstructionConfig(epsilon=0.1, delta=1e-7)))

    mesh, setup, currents = two_electrode_case(24, Z, Z, ALPHA)
    sigma_true = cdii.gaussian_phantom(mesh, (0.5, 0.5), 0.8, 0.02)
    data, _, _ = simulate_data(mesh, sigma_true, setup, currents)
    runs.append((mesh, setup, currents, data,
                 ReconstructionConfig(epsilon=0.1, delta=1e-7)))
    noisy = add_noise(data, 0.01, seed=3)
    runs.append((mesh, setup, currents, noisy,
                 ReconstructionConfig(epsilon=0.1, delta=1e-7, max_iter=60)))

    checked = 0
    for mesh, setup, currents, data, config in runs:
        result = reconstruct(mesh, data, setup, currents, config)
        assert_objective_descent(result, slack=1e-8)
        checked += len(result.log) - 1
    _report(5, True, f"objective non-increasing across {len(runs)} "
                     f"reconstructions ({checked} steps)")


def test_criterion_6_phase_retrieval():
    t0 = time.perf_counter()
    z1 = Z
    mesh, setup, currents = two_electrode_case(60, 1.0 + z1, z1, 1.0)
    ones = ConductivityField(np.ones(mesh.triangle_count))
    sol = solve_forward(mesh, ones, setup, currents)
    sigma_phi = transform_conductivity(mesh, ones, sol, setup,
                                       lambda t: (2.0 * t + t * t) / 3.0)
    sol_phi = solve_forward(mesh, sigma_phi, setup, currents)

    J, a = interior_current(mesh, ones, sol)
    J_phi, a_phi = interior_current(mesh, sigma_phi, sol_phi)
    j_scale = np.max(np.hypot(J[:, 0], J[:, 1]))
    j_diff = np.max(np.abs(J_phi - J)) / j_scale
    a_diff = max(np.max(np.abs(a - 1.0)), np.max(np.abs(a_phi - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = j_diff <= 1e-6 and a_diff <= 1e-6 and elapsed < 30.0
    _report(6, ok, f"current density identical across the reparameterized "
                   f"pair (J diff {j_diff:.2e}, a diff {a_diff:.2e}, "
                   f"{elapsed:.1f} s)")


def _pipeline_config(out_dir, side_nodes, z0, z1, current, amplitude,
                     max_iter=1000):
    return PipelineConfig(
        side_nodes=side_nodes,
        electrodes=(ElectrodeSpec("bottom", 0.0, 1.0, z0),
                    ElectrodeSpec("top", 0.0, 1.0, z1)),
        currents=(-current, current),
        epsilon=0.1,
        delta=1e-7,
        max_iter=max_iter,
        phantom_center=(0.5, 0.5),
        phantom_amplitude=amplitude,
        phantom_width=0.02,
        gamma_side="right",
        noise_level=0.0,
        noise_seed=0,
        output_dir=str(out_dir),
    )


def test_criterion_7_uniqueness_surrogate(tmp_path):
    # Unit data in the shifted-impedance setup with the height measured
    # along the right side; the calibrated result must be unit conductivity.
    cfg = _pipeline_config(tmp_path, side_nodes=30, z0=1.0 + Z, z1=Z,
                           current=1.0, amplitude=0.0)
    code = cmd_pipeline(cfg)
    metrics = read_metrics(tmp_path / "metrics.csv")
    ok = code == 0 and metrics["relative_l2"] < 1e-4
    _report(7, ok, f"boundary trace restores the true conductivity "
                   f"(relative L2 {metrics['relative_l2']:.2e})")


def test_criterion_8_desk_scale_experiment(tmp_path):
    t0 = time.perf_counter()
    cfg = _pipeline_config(tmp_path, side_nodes=90, z0=Z, z1=Z,
                           current=ALPHA, amplitude=0.8, max_iter=500)
    code = cmd_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    metrics = read_metrics(tmp_path / "metrics.csv")
    ok = (code == 0 and metrics["converged"] == 1
          and metrics["iterations"] <= 500
          and metrics["relative_l2"] <= 0.05
          and elapsed < 300.0)
    _report(8, ok, f"90x90 phantom pipeline (iterations "
                   f"{int(metrics['iterations'])}, relative L2 "
                   f"{metrics['relative_l2']:.3f}, absolute L2 "
                   f"{metrics['absolute_l2']:.3f}, {elapsed:.0f} s)")


def test_criterion_9_stationarity_residual(draws):
    cases, _ = draws
    worst = 0.0
    for mesh, setup, currents, sigma, sol, _ in cases:
        scale = np.max(np.abs(currents.values))
        at = (sol.u, sol.U)
        m = mesh.node_count
        N = setup.count - 1
        for j in range(m):
            v = np.zeros(m)
            v[j] = 1.0
            d = abs(energy_derivative(mesh, sigma, setup, currents, at,
                                      (v, np.zeros(N + 1))))
            worst = max(worst, d / scale)
        for j in range(N):
            V = np.zeros(N + 1)
            V[j], V[N] = 1.0, -1.0
            d = abs(energy_derivative(mesh, sigma, setup, currents, at,
                                      (np.zeros(m), V)))
            worst = max(worst, d / scale)
    ok = worst <= 1e-8
    _report(9, ok, f"energy stationary at every solution over all basis "
                   f"directions (worst scaled residual {worst:.2e})")


def test_criterion_10_small_instance_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0

    # two electrodes at the smallest sizes
    for side_nodes in (2, 3, 4):
        mesh, setup, currents, sigma = random_case(rng, side_nodes)
        sol = solve_forward(mesh, sigma, setup, currents)
        u_ref, U_ref = quadratic_minimizer_oracle(mesh, sigma, setup, currents)
        scale = max(np.max(np.abs(u_ref)), np.max(np.abs(U_ref)))
        worst = max(worst,
                    np.max(np.abs(sol.u - u_ref)) / scale,
                    np.max(np.abs(sol.U - U_ref)) / scale)

    # three electrodes with distinct length/impedance ratios: the symmetric
    # voltage block matches the minimizer, while the asymmetric variant
    # (off-diagonals |e_k|/z_k in place of |e_N|/z_N) does not.
    mesh = cdii.build_uniform_mesh(4)
    setup = cdii.locate_electrodes(
        mesh,
        [("bottom", (0.0, 1.0)), ("top", (0.0, 1.0)), ("left", (0.0, 2.0 / 3.0))],
        [0.05, 0.4, 0.11],
    )
    currents = cdii.CurrentPattern(np.array([1.0, -0.3, -0.7]))
    sigma = ConductivityField(rng.uniform(0.5, 2.0, mesh.triangle_count))
    sol = solve_forward(mesh, sigma, setup, currents)
    u_ref, U_ref = quadratic_minimizer_oracle(mesh, sigma, setup, currents)
    scale = max(np.max(np.abs(u_ref)), np.max(np.abs(U_ref)))
    worst = max(worst,
                np.max(np.abs(sol.u - u_ref)) / scale,
                np.max(np.abs(sol.U - U_ref)) / scale)

    system = assemble_system(mesh, sigma, setup, currents)
    dense = full_matrix(system).toarray()
    m = mesh.node_count
    N = setup.count - 1
    lengths = np.array([len(e.edge_ids) * mesh.h for e in setup.electrodes])
    z = setup.impedances
    for j in range(N):
        for k in range(N):
            dense[m + j, m + k] = lengths[k] / z[k] + \
                (lengths[N] / z[N] if j == k else 0.0)
    x_asym = np.linalg.solve(dense, system.rhs)
    asym_gap = np.max(np.abs(x_asym[:m] - u_ref)) / scale

    ok = worst <= 1e-9 and asym_gap > 1e-3
    _report(10, ok, f"block solve matches the dense quadratic minimizer "
                    f"(worst rel {worst:.2e}); asymmetric voltage-block "
                    f"variant is off by {asym_gap:.2e}")
