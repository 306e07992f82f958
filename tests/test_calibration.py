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
    gamma = mesh.nodes_on_side("right")
    trace = BoundaryVoltageTrace(gamma, result.solution.u[gamma])
    pairs = collect_pairs(mesh, setup, result, trace)
    assert np.allclose(pairs[:, 0], pairs[:, 1], atol=1e-14)


def test_pairs_closed_form_measurement():
    # Measured potential y along the right side pairs against the computed
    # one, which is also y here.
    mesh, setup, _, result = run_unit_data_case()
    gamma = mesh.nodes_on_side("right")
    measured = mesh.nodes[gamma, 1]
    pairs = collect_pairs(mesh, setup, result, BoundaryVoltageTrace(gamma, measured))
    assert len(pairs) == mesh.side_nodes
    assert np.allclose(pairs[:, 0], np.sort(measured), atol=1e-12)
    assert np.allclose(pairs[:, 1], np.sort(measured), atol=1e-12)


def test_pairs_keep_trace_order():
    mesh = build_uniform_mesh(5)
    y = mesh.nodes[:, 1]
    u = np.sin(3.0 * y)  # not monotone along the right side
    gamma = mesh.nodes_on_side("right")
    pairs = collect_pairs(mesh, None, fake_result(mesh, u), BoundaryVoltageTrace(gamma, y[gamma]))
    assert np.array_equal(pairs, np.column_stack([u[gamma], y[gamma]]))


def test_pairs_reject_interior_node():
    mesh = build_uniform_mesh(4)
    result = fake_result(mesh, mesh.nodes[:, 1])
    trace = BoundaryVoltageTrace(node_ids=np.array([5]), values=np.array([0.5]))
    with pytest.raises(ValueError, match="boundary"):
        collect_pairs(mesh, None, result, trace)


# ------------------------------------------------------- build_monotone_map

def test_map_sorts_pairs_even_for_nonmonotone_potential():
    mesh = build_uniform_mesh(5)
    y = mesh.nodes[:, 1]
    u = np.sin(3.0 * y)  # not monotone along the right side
    result = fake_result(mesh, u)
    gamma = mesh.nodes_on_side("right")
    trace = BoundaryVoltageTrace(gamma, y[gamma])
    phi = build_monotone_map(collect_pairs(mesh, None, result, trace))
    assert np.all(np.diff(phi.breakpoints) > 0)


def test_map_merges_duplicate_potentials():
    mesh = build_uniform_mesh(4)
    u = np.zeros(mesh.node_count)
    u[mesh.nodes_on_side("right")] = [0.0, 0.0, 1.0, 1.0]
    result = fake_result(mesh, u)
    trace = BoundaryVoltageTrace(mesh.nodes_on_side("right"), np.array([0.1, 0.3, 0.9, 1.1]))
    phi = build_monotone_map(collect_pairs(mesh, None, result, trace))
    assert phi.breakpoints == pytest.approx([0.0, 1.0])
    assert phi.values == pytest.approx([0.2, 1.0])


def test_map_requires_two_distinct():
    mesh = build_uniform_mesh(4)
    result = fake_result(mesh, np.zeros(mesh.node_count))
    trace = BoundaryVoltageTrace(mesh.nodes_on_side("right"), np.linspace(0, 1, 4))
    pairs = collect_pairs(mesh, None, result, trace)
    with pytest.raises(ValueError, match="^need at least 2 distinct computed-potential values$"):
        build_monotone_map(pairs)


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
        # One s value: the two differ by 1e-13 relative, within VALUE_RTOL.
        build_monotone_map(np.array([[1.0, 0.3], [1.0 + 1e-13, 0.7]]))
    with pytest.raises(ValueError, match="no increase"):
        build_monotone_map(np.array([[0.0, 0.5], [0.5, 0.5], [1.0, 0.5]]))


def test_map_is_the_same_in_any_unit():
    # Both equality rules are relative to their coordinate's largest
    # magnitude: pairs scaled by a power of two, which scales exactly, merge
    # (s = 1 and 1 + 1e-13) and pool (t = 0.5 then 0.45) as at unit scale.
    pairs = np.array([[0.0, 0.1], [1.0, 0.2], [1.0 + 1e-13, 0.25], [2.0, 0.5],
                      [2.5, 0.45], [3.0, 0.9]])
    phi = build_monotone_map(pairs)
    assert phi.repaired and len(phi.breakpoints) == 4
    for scale in (2.0 ** -50, 2.0 ** 40):
        scaled = build_monotone_map(pairs * scale)
        assert scaled.repaired
        np.testing.assert_array_equal(scaled.breakpoints, phi.breakpoints * scale)
        np.testing.assert_array_equal(scaled.values, phi.values * scale)


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
        PhiMap(breakpoints=np.array([0.0, 0.0]), values=np.array([0.0, 1.0]))
    for values in ([0.0, 0.0], [1.0, 0.0]):
        with pytest.raises(ValueError, match="values must be strictly increasing"):
            PhiMap(breakpoints=np.array([0.0, 1.0]), values=np.array(values))
    # NaN escapes the ordering tests; an infinite difference gives a slope of
    # inf or 0.
    for b, v in (([0.0, np.nan], [0.0, 1.0]), ([0.0, 1.0], [0.0, np.inf]),
                 ([0.0, np.inf], [0.0, 1.0])):
        with pytest.raises(ValueError, match="slopes"):
            PhiMap(breakpoints=np.array(b), values=np.array(v))
    # Slopes follow from the breakpoints and values; they cannot be passed,
    # so no map with a jump at a breakpoint can be built.
    with pytest.raises(TypeError):
        PhiMap(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]), np.array([5.0, 5.0]))
    assert [f.name for f in dataclasses.fields(PhiMap) if f.init] == \
        ["breakpoints", "values", "repaired"]


def _increasing(start, gaps):
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.data())
def test_phimap_is_continuous_and_strictly_increasing(b0, v0, data):
    n = data.draw(st.integers(2, 20))
    gaps = st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1)
    b, v = _increasing(b0, data.draw(gaps)), _increasing(v0, data.draw(gaps))
    phi = PhiMap(b, v)
    # phi(b_i) = v_i: exactly on the segment b_i starts, to rounding at the end.
    assert np.array_equal(phi(b[:-1]), v[:-1])
    assert phi(b[-1]) == pytest.approx(v[-1], rel=0.0, abs=1e-12)
    # Continuous: the segment ending at b_i meets v_i there too.  A slope is
    # at most 1e3, so one ulp to the left moves the map by under 1e-11.
    assert np.allclose(phi(np.nextafter(b[1:], -np.inf)), v[1:], rtol=0.0, atol=1e-10)
    # Strictly increasing through each breakpoint, each midpoint and beyond
    # either end.
    points = np.sort(np.concatenate([b, 0.5 * (b[1:] + b[:-1]), [b[0] - 1.0, b[-1] + 1.0]]))
    assert np.all(np.diff(phi(points)) > 0.0)
    # The derivative is the derived slope on each segment, and positive.
    assert np.array_equal(phi.slopes, np.diff(v) / np.diff(b))
    assert np.array_equal(phi.derivative(b[:-1]), phi.slopes)
    assert np.all(phi.slopes > 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_trace_rejects_nonfinite_values(value):
    with pytest.raises(ValueError, match="finite"):
        BoundaryVoltageTrace(node_ids=np.array([3, 7]), values=np.array([0.5, value]))


@pytest.mark.parametrize("ids", [[1.5, 2.7], [3.0, 7.2], [3.0, np.nan], [np.inf, 7.0],
                                 [3.0, 7.0], np.array([3, 7], dtype=np.uint64), [True, False]],
                         ids=["fraction", "second-fraction", "nan", "inf", "integral-floats",
                              "uint64", "bool"])
def test_trace_rejects_node_ids_that_are_not_integers(ids):
    # The dtype decides, so integral floats are refused too.
    dtype = np.asarray(ids).dtype
    message = f"^trace node ids must be int64-castable integers, got {dtype}$"
    with pytest.raises(ValueError, match=message):
        BoundaryVoltageTrace(node_ids=ids, values=np.zeros(len(ids)))
    trace = BoundaryVoltageTrace(node_ids=np.array([3, 7], dtype=np.int32), values=[0.5, 0.25])
    assert trace.node_ids.dtype == np.int64 and list(trace.node_ids) == [3, 7]


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
    phi = PhiMap(breakpoints=np.array([-1.0, 0.0, 1.0]), values=np.array([0.0, 1.0, 3.0]))
    expected = result.sigma_v.values / phi.derivative(centroids_reference(mesh, u))
    assert np.array_equal(apply_calibration(mesh, result, phi).values, expected)


def test_identity_map_keeps_sigma():
    mesh, setup, _, result = run_unit_data_case()
    gamma = mesh.nodes_on_side("right")
    trace = BoundaryVoltageTrace(gamma, result.solution.u[gamma])
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
        mesh, setup, result, BoundaryVoltageTrace(gamma, c * measured)))
    sigma_final = apply_calibration(mesh, result, phi)
    base = apply_calibration(mesh, result, build_monotone_map(collect_pairs(
        mesh, setup, result, BoundaryVoltageTrace(gamma, measured))))
    assert np.allclose(sigma_final.values, base.values / c, rtol=1e-12)


def test_translating_measured_trace_keeps_sigma():
    mesh, setup, _, result = run_unit_data_case()
    gamma = mesh.nodes_on_side("right")
    measured = mesh.nodes[gamma, 1]
    base = apply_calibration(mesh, result, build_monotone_map(collect_pairs(
        mesh, setup, result, BoundaryVoltageTrace(gamma, measured))))
    shifted = apply_calibration(mesh, result, build_monotone_map(collect_pairs(
        mesh, setup, result, BoundaryVoltageTrace(gamma, measured + 0.7))))
    assert np.allclose(shifted.values, base.values, rtol=1e-12)
