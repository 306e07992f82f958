import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import cdii
from cdii.calibration import (
    BoundaryVoltageTrace,
    PhiMap,
    apply_calibration,
    build_monotone_map,
    collect_pairs,
    side_trace,
)
from cdii.fem_cem import ConductivityField, solve_forward
from cdii.mesh import build_uniform_mesh, triangle_gradients
from cdii.phantom import simulate_data
from cdii.weighted_gradient import (
    InteriorData,
    ReconstructionConfig,
    ReconstructionResult,
    reconstruct,
)

from helpers import (assert_objective_descent, centroids_reference, rel_l2,
                     transform_conductivity, two_electrode_case)


def fake_result(mesh, u, n_electrodes=2):
    """Wrap crafted nodal values as a reconstruction outcome."""
    sol = cdii.ForwardSolution(u=np.asarray(u, dtype=float),
                               U=np.zeros(n_electrodes),
                               grad_u=triangle_gradients(mesh, u))
    return ReconstructionResult(
        sigma_v=ConductivityField(np.ones(mesh.triangle_count)),
        solution=sol, log=[], converged=True, iterations=1,
    )


def run_unit_data_case(side_nodes=12, z1=8.3e-3):
    mesh, setup, currents = two_electrode_case(side_nodes, 1.0 + z1, z1, 1.0)
    data = InteriorData(np.ones(mesh.triangle_count))
    result = reconstruct(mesh, data, setup, currents,
                         ReconstructionConfig(epsilon=0.1, delta=1e-7))
    assert_objective_descent(result)
    return mesh, setup, currents, result


# ----------------------------------------------------------- collect_pairs

def test_pairs_self_calibration_lie_on_diagonal():
    mesh, setup, _, result = run_unit_data_case()
    trace = side_trace(mesh, "right", result.solution.u[mesh.nodes_on_side("right")])
    pairs = collect_pairs(mesh, setup, result, trace)
    assert np.allclose(pairs[:, 0], pairs[:, 1], atol=1e-14)


def test_pairs_closed_form_measurement():
    # Measured potential y along the right side pairs against the computed
    # one, which is also y here.
    mesh, setup, _, result = run_unit_data_case()
    gamma = mesh.nodes_on_side("right")
    measured = mesh.nodes[gamma, 1]
    pairs = collect_pairs(mesh, setup, result, side_trace(mesh, "right", measured))
    assert len(pairs) == mesh.side_nodes
    assert np.allclose(pairs[:, 0], np.sort(measured), atol=1e-12)
    assert np.allclose(pairs[:, 1], np.sort(measured), atol=1e-12)


def test_pairs_sorted_even_for_nonmonotone_potential():
    mesh = build_uniform_mesh(5)
    y = mesh.nodes[:, 1]
    u = np.sin(3.0 * y)  # not monotone along the right side
    result = fake_result(mesh, u)
    gamma = mesh.nodes_on_side("right")
    trace = side_trace(mesh, "right", y[gamma])
    pairs = collect_pairs(mesh, None, result, trace)
    assert np.all(np.diff(pairs[:, 0]) > 0)


def test_pairs_merge_duplicate_potentials():
    mesh = build_uniform_mesh(4)
    u = np.zeros(mesh.node_count)
    u[mesh.nodes_on_side("right")] = [0.0, 0.0, 1.0, 1.0]
    result = fake_result(mesh, u)
    trace = side_trace(mesh, "right", np.array([0.1, 0.3, 0.9, 1.1]))
    pairs = collect_pairs(mesh, None, result, trace)
    assert pairs.shape == (2, 2)
    assert pairs[0] == pytest.approx([0.0, 0.2])
    assert pairs[1] == pytest.approx([1.0, 1.0])


def test_pairs_reject_interior_node():
    mesh = build_uniform_mesh(4)
    result = fake_result(mesh, mesh.nodes[:, 1])
    trace = BoundaryVoltageTrace(node_ids=np.array([5]), values=np.array([0.5]))
    with pytest.raises(ValueError, match="boundary"):
        collect_pairs(mesh, None, result, trace)


def test_pairs_require_two_distinct():
    mesh = build_uniform_mesh(4)
    result = fake_result(mesh, np.zeros(mesh.node_count))
    trace = side_trace(mesh, "right", np.linspace(0, 1, 4))
    with pytest.raises(ValueError, match="distinct"):
        collect_pairs(mesh, None, result, trace)


def test_pairs_append_electrode_measurements():
    # On an electrode the computed and measured potentials differ by the
    # same constant, so electrode samples extend the pair set consistently.
    mesh, setup, _, result = run_unit_data_case(side_nodes=8)
    gamma = mesh.nodes_on_side("right")
    trace = side_trace(mesh, "right", mesh.nodes[gamma, 1])
    bottom = setup.electrodes[0].nodes()
    extra = BoundaryVoltageTrace(node_ids=bottom,
                                 values=np.zeros(len(bottom)))
    pairs = collect_pairs(mesh, setup, result, trace, electrode_trace=extra)
    # bottom electrode nodes all carry computed 0 and measured 0
    assert pairs[0] == pytest.approx([0.0, 0.0], abs=1e-12)
    off_electrode = mesh.side_nodes  # left side, one row up from the corner
    with pytest.raises(ValueError, match="electrode"):
        collect_pairs(mesh, setup, result, trace,
                      electrode_trace=BoundaryVoltageTrace(
                          node_ids=np.array([off_electrode]),
                          values=np.array([0.0])))


# ------------------------------------------------------- build_monotone_map

def test_map_through_three_points():
    phi = build_monotone_map(np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]]))
    assert np.allclose(phi.slopes, [0.5, 1.5])
    assert not phi.repaired


def test_map_identity():
    s = np.linspace(0, 1, 7)
    phi = build_monotone_map(np.column_stack([s, s]))
    assert np.allclose(phi.slopes, 1.0)
    assert phi(0.3) == pytest.approx(0.3)
    assert phi.derivative(0.99) == pytest.approx(1.0)


def test_map_repairs_single_inversion():
    # One inverted measurement of magnitude 1e-3: pooling averages the two
    # offending values, moving each by at most the violation.
    violation = 1e-3
    pairs = np.array([[0.0, 0.0],
                      [0.5, 0.5 + violation / 2],
                      [0.6, 0.5 - violation / 2],
                      [1.0, 1.0]])
    phi = build_monotone_map(pairs)
    assert phi.repaired
    assert np.all(phi.slopes > 0)
    assert len(phi.breakpoints) == 3
    assert phi.breakpoints[1] == pytest.approx(0.55)
    assert phi.values[1] == pytest.approx(0.5)
    assert abs(phi.values[1] - pairs[1, 1]) <= violation
    assert abs(phi.values[1] - pairs[2, 1]) <= violation


def test_map_rejects_degenerate_input():
    with pytest.raises(ValueError):
        build_monotone_map(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        build_monotone_map(np.array([[0.0, 0.3], [1e-15, 0.7]]))  # one s value
    with pytest.raises(ValueError, match="no increase"):
        build_monotone_map(np.array([[0.0, 0.5], [0.5, 0.5], [1.0, 0.5]]))


# Potentials on a 1e-6 V grid within +-1 V, so that draws repeat and merge.
_potential = st.integers(-10**6, 10**6).map(lambda k: k * 1e-6)


@given(st.lists(st.tuples(_potential, _potential), min_size=2, max_size=40))
# Three measured values at one computed potential average to the value at the
# other, up to one ulp: a map with a rounding-sized increase is no increase.
@example([(0.0, -0.000365), (-1e-06, 0.0), (-1e-06, -0.000363), (-1e-06, -0.000732)])
def test_built_map_is_strictly_monotone(pairs):
    try:
        phi = build_monotone_map(np.array(pairs))
    except ValueError as exc:  # one computed value, or no measured increase
        assert "distinct" in str(exc) or "no increase" in str(exc)
        return
    b = phi.breakpoints
    assert np.all(np.diff(b) > 0.0)
    assert np.all(np.diff(phi.values) > 0.0)
    assert np.all(phi.slopes > 0.0)
    # Each breakpoint, each segment's midpoint, and a point beyond each end.
    points = np.sort(np.concatenate([b, 0.5 * (b[1:] + b[:-1]), [b[0] - 1.0, b[-1] + 1.0]]))
    assert np.all(np.diff(phi(points)) > 0.0)


def test_map_extends_with_end_slopes():
    phi = build_monotone_map(np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]]))
    assert phi(-1.0) == pytest.approx(-0.5)
    assert phi(2.0) == pytest.approx(2.5)
    assert phi.derivative(-1.0) == pytest.approx(0.5)
    assert phi.derivative(2.0) == pytest.approx(1.5)


def test_phimap_validates():
    with pytest.raises(ValueError):
        PhiMap(breakpoints=np.array([0.0, 0.0]), values=np.array([0.0, 1.0]),
               slopes=np.array([1.0]))
    for values in ([0.0, 0.0], [1.0, 0.0]):
        with pytest.raises(ValueError, match="values must be strictly increasing"):
            PhiMap(breakpoints=np.array([0.0, 1.0]), values=np.array(values),
                   slopes=np.array([1.0]))
    for slope in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="slopes"):
            PhiMap(breakpoints=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]),
                   slopes=np.array([slope]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_trace_rejects_nonfinite_values(value):
    with pytest.raises(ValueError, match="finite"):
        BoundaryVoltageTrace(node_ids=np.array([3, 7]), values=np.array([0.5, value]))


@pytest.mark.parametrize("ids,row", [([3, 7, 3], 2), ([7, 7], 1), ([1, 3, 7, 3, 7], 3)])
def test_trace_rejects_repeated_nodes(ids, row):
    message = f"^trace node {ids[row]} occurs twice; sample {row} repeats it$"
    with pytest.raises(ValueError, match=message):
        BoundaryVoltageTrace(node_ids=np.array(ids), values=np.zeros(len(ids)))
    assert BoundaryVoltageTrace.first_repeated(np.array(ids)) == row
    assert BoundaryVoltageTrace.first_repeated(np.array(sorted(set(ids)))) is None


# --------------------------------------------------------- apply_calibration

@pytest.mark.parametrize("side_nodes", [5, 12, 90, 181])
def test_calibration_divides_by_the_slope_at_the_vertex_mean(side_nodes):
    mesh = build_uniform_mesh(side_nodes)
    rng = np.random.default_rng(side_nodes)
    u = rng.normal(size=mesh.node_count)
    result = dataclasses.replace(fake_result(mesh, u), sigma_v=ConductivityField(
        rng.uniform(0.5, 2.0, mesh.triangle_count)))
    phi = PhiMap(breakpoints=np.array([-1.0, 0.0, 1.0]), values=np.array([0.0, 1.0, 3.0]),
                 slopes=np.array([1.0, 2.0]))
    expected = result.sigma_v.values / phi.derivative(centroids_reference(mesh, u))
    assert np.array_equal(apply_calibration(mesh, result, phi).values, expected)


def test_identity_map_keeps_sigma():
    mesh, setup, _, result = run_unit_data_case()
    trace = side_trace(mesh, "right", result.solution.u[mesh.nodes_on_side("right")])
    phi = build_monotone_map(collect_pairs(mesh, setup, result, trace))
    sigma_final = apply_calibration(mesh, result, phi)
    assert np.allclose(sigma_final.values, result.sigma_v.values, rtol=1e-9)


def test_calibration_recovers_generating_conductivity():
    # Generate data from a conductivity in the reparameterization family of
    # the unit one; the uncalibrated reconstruction lands on unit
    # conductivity, and the boundary trace pulls it back to the generator.
    z1 = 8.3e-3
    mesh, setup, currents = two_electrode_case(30, 1.0 + z1, z1, 1.0)
    base = solve_forward(mesh, ConductivityField(np.ones(mesh.triangle_count)),
                         setup, currents)
    phi0 = lambda t: (2.0 * t + t * t) / 3.0
    sigma_true = transform_conductivity(mesh, ConductivityField(
        np.ones(mesh.triangle_count)), base, setup, phi0)

    data, trace, _ = simulate_data(mesh, sigma_true, setup, currents)
    result = reconstruct(mesh, data, setup, currents,
                         ReconstructionConfig(epsilon=0.1, delta=1e-7))
    assert result.converged
    assert_objective_descent(result)

    err_uncalibrated = rel_l2(result.sigma_v.values, sigma_true.values)
    phi = build_monotone_map(collect_pairs(mesh, setup, result, trace))
    sigma_final = apply_calibration(mesh, result, phi)
    err_calibrated = rel_l2(sigma_final.values, sigma_true.values)
    assert err_calibrated < 1e-9
    assert err_calibrated < err_uncalibrated


def test_scaling_measured_trace_scales_sigma_inversely():
    mesh, setup, _, result = run_unit_data_case()
    gamma = mesh.nodes_on_side("right")
    measured = mesh.nodes[gamma, 1]
    c = 2.5
    phi = build_monotone_map(collect_pairs(
        mesh, setup, result, side_trace(mesh, "right", c * measured)))
    sigma_final = apply_calibration(mesh, result, phi)
    base = apply_calibration(mesh, result, build_monotone_map(collect_pairs(
        mesh, setup, result, side_trace(mesh, "right", measured))))
    assert np.allclose(sigma_final.values, base.values / c, rtol=1e-12)


def test_translating_measured_trace_keeps_sigma():
    mesh, setup, _, result = run_unit_data_case()
    gamma = mesh.nodes_on_side("right")
    measured = mesh.nodes[gamma, 1]
    base = apply_calibration(mesh, result, build_monotone_map(collect_pairs(
        mesh, setup, result, side_trace(mesh, "right", measured))))
    shifted = apply_calibration(mesh, result, build_monotone_map(collect_pairs(
        mesh, setup, result, side_trace(mesh, "right", measured + 0.7))))
    assert np.allclose(shifted.values, base.values, rtol=1e-12)
