import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdii.fem_cem import ConductivityField, interior_current, solve_forward
from cdii.mesh import ParameterError, build_uniform_mesh, centroids
from cdii.phantom import add_noise, gaussian_phantom, simulate_data
from cdii.weighted_gradient import InteriorData

from helpers import transform_conductivity, two_electrode_case


def test_flat_phantom():
    mesh = build_uniform_mesh(10)
    sigma = gaussian_phantom(mesh, (0.5, 0.5), 0.0, 0.02)
    assert np.all(sigma.values == 1.0)


def test_peak_value_and_range():
    mesh = build_uniform_mesh(90)
    sigma = gaussian_phantom(mesh, (0.5, 0.5), 0.8, 0.02)
    assert 1.79 < sigma.values.max() <= 1.80
    assert sigma.values.min() > 1.0


def test_tiny_width_phantom_is_flat():
    # -d2 / width overflows to -inf, whose exp is the exact 0, with no
    # warning (the tests turn warnings into errors).
    mesh = build_uniform_mesh(10)
    sigma = gaussian_phantom(mesh, (0.5, 0.5), 0.8, 1e-320)
    assert np.all(sigma.values == 1.0)


def test_far_centre_phantom_is_flat():
    # The squared distance overflows to inf, whose bump is the exact 0,
    # with no warning.
    mesh = build_uniform_mesh(10)
    sigma = gaussian_phantom(mesh, (1e200, 0.5), 0.8, 0.02)
    assert np.all(sigma.values == 1.0)


def test_phantom_validation():
    mesh = build_uniform_mesh(4)
    invalid = [
        ("width", (0.5, 0.5), 0.8, 0.0),
        ("width", (0.5, 0.5), 0.8, np.nan),
        ("width", (0.5, 0.5), 0.8, np.inf),
        ("amplitude", (0.5, 0.5), -0.1, 0.02),
        ("amplitude", (0.5, 0.5), np.nan, 0.02),
        ("amplitude", (0.5, 0.5), np.inf, 0.02),
        ("center", (np.nan, 0.5), 0.8, 0.02),
        ("center", (0.5, -np.inf), 0.8, 0.02),
        ("center", (0.5,), 0.8, 0.02),
    ]
    for name, center, amplitude, width in invalid:
        with pytest.raises(ParameterError) as err:
            gaussian_phantom(mesh, center, amplitude, width)
        assert err.value.name == name


# ------------------------------------------------------------ simulate_data

def test_simulate_closed_form():
    alpha = 3e-3
    mesh, setup, currents = two_electrode_case(10, 8.3e-3, 8.3e-3, alpha)
    sigma = ConductivityField(np.ones(mesh.triangle_count))
    data, trace, sol = simulate_data(mesh, sigma, setup, currents)
    assert np.max(np.abs(data.values - alpha)) < 1e-14
    gamma = mesh.nodes_on_side("right")
    assert np.array_equal(trace.node_ids, gamma)
    assert np.allclose(trace.values, alpha * (mesh.nodes[gamma, 1] - 0.5),
                       atol=1e-15)


def test_simulate_unit_data_in_shifted_setup():
    mesh, setup, currents = two_electrode_case(20, 1.0 + 0.05, 0.05, 1.0)
    sigma = ConductivityField(np.ones(mesh.triangle_count))
    data, _, _ = simulate_data(mesh, sigma, setup, currents)
    assert np.max(np.abs(data.values - 1.0)) < 1e-12


def test_simulate_magnitude_matches_interior_current():
    mesh, setup, currents = two_electrode_case(15, 8.3e-3, 8.3e-3, 3e-3)
    sigma = gaussian_phantom(mesh, (0.5, 0.5), 0.8, 0.02)
    data, _, sol = simulate_data(mesh, sigma, setup, currents)
    _, a = interior_current(mesh, sigma, sol)
    assert np.array_equal(data.values, a)
    assert data.essinf > 0.0


# --------------------------------------------------- transform_conductivity

def test_transform_identity():
    mesh, setup, currents = two_electrode_case(8, 0.1, 0.1, 1.0)
    sigma = ConductivityField(np.ones(mesh.triangle_count))
    sol = solve_forward(mesh, sigma, setup, currents)
    out = transform_conductivity(mesh, sigma, sol, setup, lambda t: t)
    assert np.allclose(out.values, sigma.values, rtol=1e-12)


def test_transform_quadratic_family():
    # The map (2t + t^2)/3 sends the plain-height potential to a curved one
    # whose conductivity is 1/phi'; per triangle that slope is the divided
    # difference of phi over the triangle's height range.
    z1 = 8.3e-3
    mesh, setup, currents = two_electrode_case(30, 1.0 + z1, z1, 1.0)
    sigma = ConductivityField(np.ones(mesh.triangle_count))
    sol = solve_forward(mesh, sigma, setup, currents)
    phi = lambda t: (2.0 * t + t * t) / 3.0
    sigma_phi = transform_conductivity(mesh, sigma, sol, setup, phi)

    cent_y = centroids(mesh)[:, 1]
    rows = np.floor(cent_y / mesh.h).astype(int)
    y_mid = (rows + 0.5) * mesh.h
    assert np.max(np.abs(sigma_phi.values - 3.0 / (2.0 + 2.0 * y_mid))) < 1e-11
    # within discretization distance of the pointwise 1/phi' sample
    assert np.max(np.abs(sigma_phi.values - 3.0 / (2.0 + 2.0 * cent_y))) < mesh.h

    # the transformed problem carries the same interior data and currents
    sol_phi = solve_forward(mesh, sigma_phi, setup, currents)
    J, a = interior_current(mesh, sigma, sol)
    J_phi, a_phi = interior_current(mesh, sigma_phi, sol_phi)
    assert np.max(np.abs(a_phi - 1.0)) < 1e-9
    assert np.max(np.abs(J_phi - J)) < 1e-9
    assert abs(sol_phi.U.sum()) < 1e-12


def _phase_map(solution, setup, f, p):
    """A strictly increasing phi that shifts the bottom electrode's potential
    range by -c and the top one's by +c: ``t - c cos(pi s^p)``, with ``s`` the
    place of ``t`` in the gap between the two ranges, clipped to [0, 1].  With
    ``c = f gap / (pi p)``, phi' is at least ``1 - |f|``."""
    low = solution.u[setup.electrodes[0].nodes()].max()
    gap = solution.u[setup.electrodes[1].nodes()].min() - low
    assert gap > 0.0
    c = f * gap / (np.pi * p)
    return lambda t: t - c * np.cos(np.pi * np.clip((t - low) / gap, 0.0, 1.0) ** p)


def _current_change(mesh, setup, currents, sigma, f, p):
    """Largest change of J and of a, and of |J| itself, across the pair
    ``sigma`` and its transform by ``_phase_map``; the sum of the
    transformed voltages."""
    sol = solve_forward(mesh, sigma, setup, currents)
    sigma_phi = transform_conductivity(mesh, sigma, sol, setup, _phase_map(sol, setup, f, p))
    sol_phi = solve_forward(mesh, sigma_phi, setup, currents)
    J, a = interior_current(mesh, sigma, sol)
    J_phi, a_phi = interior_current(mesh, sigma_phi, sol_phi)
    return (np.max(np.abs(J_phi - J)), np.max(np.abs(a_phi - a)),
            np.max(np.hypot(J[:, 0], J[:, 1])), abs(sol_phi.U.sum()))


BUMP = {"amplitude": st.floats(0.0, 1.5), "width": st.floats(0.01, 0.1),
        "f": st.floats(-0.9, 0.9), "p": st.floats(1.0, 3.0)}


@settings(deadline=None, max_examples=50)
@given(centre=st.floats(0.2, 0.8), **BUMP)
def test_transform_keeps_current_for_layered_sigma(centre, amplitude, width, f, p):
    # A Gaussian in y, constant on each cell row, between full bottom and top
    # electrodes: the potential varies only with y, so grad phi(u) is parallel
    # to grad u on every triangle and the pair agrees to solver precision,
    # within the bounds of test_transform_quadratic_family (here |J| = 1).
    mesh, setup, currents = two_electrode_case(20, 8.3e-3, 8.3e-3, 1.0)
    y = (np.arange(mesh.triangle_count) // (2 * (mesh.side_nodes - 1)) + 0.5) * mesh.h
    sigma = ConductivityField(1.0 + amplitude * np.exp(-(y - centre) ** 2 / width))
    J_diff, a_diff, J_max, U_sum = _current_change(mesh, setup, currents, sigma, f, p)
    assert J_max == pytest.approx(1.0, rel=1e-12)
    assert J_diff < 1e-9 and a_diff < 1e-9 and U_sum < 1e-12


@settings(deadline=None, max_examples=50)
@given(centre=st.tuples(st.floats(0.2, 0.8), st.floats(0.2, 0.8)), **BUMP)
def test_transform_keeps_current_to_discretization_error(centre, amplitude, width, f, p):
    # Where phi is not affine on a triangle's values and grad u is not
    # vertical, phi(u) interpolated nodewise turns its gradient against
    # grad u, so a 2-D bump keeps J and a only to discretization error: at
    # most 2.5% and 0.14% of max |J| over a grid of extreme draws at 20².
    mesh, setup, currents = two_electrode_case(20, 8.3e-3, 8.3e-3, 1.0)
    sigma = gaussian_phantom(mesh, centre, amplitude, width)
    J_diff, a_diff, J_max, U_sum = _current_change(mesh, setup, currents, sigma, f, p)
    assert J_diff <= 0.05 * J_max and a_diff <= 5e-3 * J_max and U_sum < 1e-12


def test_transform_rejects_uniform_shift():
    # A plain shift moves both electrode ranges by the same constant, so
    # the shifts cannot sum to zero.
    mesh, setup, currents = two_electrode_case(6, 0.1, 0.1, 1.0)
    sigma = ConductivityField(np.ones(mesh.triangle_count))
    sol = solve_forward(mesh, sigma, setup, currents)
    with pytest.raises(ValueError, match="sum to zero"):
        transform_conductivity(mesh, sigma, sol, setup, lambda t: t + 0.1)


def test_transform_rejects_nonmonotone():
    mesh, setup, currents = two_electrode_case(6, 0.1, 0.1, 1.0)
    sigma = ConductivityField(np.ones(mesh.triangle_count))
    sol = solve_forward(mesh, sigma, setup, currents)
    with pytest.raises(ValueError, match="increasing"):
        transform_conductivity(mesh, sigma, sol, setup, lambda t: -t)


def test_transform_rejects_nonconstant_electrode_shift():
    # Strictly increasing but bends over the top electrode's range, where
    # the potential is not constant.
    z1 = 8.3e-3
    mesh, setup, currents = two_electrode_case(10, 1.0 + z1, z1, 1.0)
    sigma = ConductivityField(np.ones(mesh.triangle_count))
    sol = solve_forward(mesh, sigma, setup, currents)
    top = sol.u[setup.electrodes[1].nodes()]
    assert np.ptp(top) < 1e-12  # potential is constant on each electrode here

    # force a genuinely varying electrode range with an uneven conductivity
    rng = np.random.default_rng(0)
    bumpy = ConductivityField(rng.uniform(0.5, 2.0, mesh.triangle_count))
    sol_b = solve_forward(mesh, bumpy, setup, currents)
    assert np.ptp(sol_b.u[setup.electrodes[1].nodes()]) > 1e-6
    with pytest.raises(ValueError, match="constant shift"):
        transform_conductivity(mesh, bumpy, sol_b, setup,
                               lambda t: t + 0.05 * t ** 2)


# ------------------------------------------------------------------- noise

def test_noise_level_zero_is_identity():
    data = InteriorData(np.array([0.0, 1.0, 2.0]))
    out = add_noise(data, 0.0, seed=42)
    assert np.array_equal(out.values, data.values)


def test_noise_seed_deterministic():
    data = InteriorData(np.linspace(0.5, 2.0, 100))
    a = add_noise(data, 0.05, seed=7)
    b = add_noise(data, 0.05, seed=7)
    c = add_noise(data, 0.05, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_noise_empirical_level():
    mesh = build_uniform_mesh(90)
    data = InteriorData(np.full(mesh.triangle_count, 3e-3))
    noisy = add_noise(data, 0.01, seed=1)
    rel = (noisy.values - data.values) / data.values
    assert 0.008 <= rel.std() <= 0.012


def test_noise_floor():
    data = InteriorData(np.array([0.0, 1.0]))
    out = add_noise(data, 0.5, seed=3)
    assert out.values[0] == 1e-6


def test_noise_rejects_negative_level():
    with pytest.raises(ValueError):
        add_noise(InteriorData(np.array([1.0])), -0.1, seed=0)


@pytest.mark.parametrize("name,level,seed", [("level", np.nan, 0), ("level", np.inf, 0),
                                             ("seed", 0.01, -1), ("seed", 0.0, -1),
                                             ("seed", 0.1, 1.5), ("seed", 0.1, True),
                                             ("seed", 0.1, "1")])
def test_noise_rejects_nonfinite_level_and_negative_seed(name, level, seed):
    with pytest.raises(ParameterError) as err:
        add_noise(InteriorData(np.array([1.0])), level, seed)
    assert err.value.name == name


@pytest.mark.parametrize("values", [[1e-3] * 100, [0.0, 1.0] * 50])
def test_noise_that_overflows_is_refused_under_level(values):
    # A finite level near the largest double makes level * g overflow to inf
    # where |g| > 1.8, and 0 * inf is NaN: refused, with no warning.
    with pytest.raises(ParameterError, match="overflows the noisy data") as err:
        add_noise(InteriorData(np.array(values)), 1e308, seed=0)
    assert err.value.name == "level"
