import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import cdii.fem_cem
from cdii.fem_cem import (
    CemOperator,
    ConductivityField,
    CurrentPattern,
    ForwardSolution,
    LastFactor,
    SolverError,
    _load_vector,
    assemble_system,
    electrode_flux,
    interior_current,
    solve_forward,
)
from cdii.mesh import _gradient_norm, build_uniform_mesh, locate_electrodes, triangle_gradients

from helpers import (
    InexactFactor,
    _STIFF,
    dissection_order_reference,
    energy_derivative,
    energy_value,
    exact_linear_solution,
    full_matrix,
    max_principle_excess,
    operator_matrix,
    pi_vector,
    quadratic_minimizer_oracle,
    random_case,
    triplet_stiffness,
    two_electrode_case,
)

Z = 8.3e-3
ALPHA = 3e-3


@pytest.fixture()
def equal_z_case():
    return two_electrode_case(10, Z, Z, ALPHA)


def ones(mesh):
    return ConductivityField(np.ones(mesh.triangle_count))


# ---------------------------------------------------------------- types

def test_conductivity_must_be_positive():
    with pytest.raises(ValueError):
        ConductivityField(np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        ConductivityField(np.array([1.0, -2.0]))
    with pytest.raises(ValueError, match="positive and finite"):
        ConductivityField(np.array([1.0, np.inf]))


def test_currents_must_sum_to_zero():
    with pytest.raises(ValueError):
        CurrentPattern(np.array([1.0, -0.9]))
    CurrentPattern(np.array([1.0, -1.0]))  # fine


@pytest.mark.parametrize("values", [[np.nan, 0.003], [np.inf, 0.003], [np.inf, -np.inf]])
def test_currents_must_be_finite(values):
    # Checked before any sum: inf - inf would warn.
    with pytest.raises(ValueError, match="finite and sum to zero"):
        CurrentPattern(np.array(values))


def test_currents_are_bounded_in_magnitude():
    # Up to MAX_CURRENT the solve's squares stay finite; beyond it the
    # pattern is refused before anything is summed, so 1e308 + 1e308 does
    # not overflow (tests turn the overflow warning into an error).
    bound = cdii.fem_cem.MAX_CURRENT
    CurrentPattern(np.array([-bound, bound]))
    for values in ([-1e200, 1e200], [1e308, 1e308, -1e308, -1e308]):
        with pytest.raises(ValueError, match="finite and sum to zero with magnitudes "
                                             "at most 1e"):
            CurrentPattern(np.array(values))


def test_voltages_must_sum_to_zero():
    with pytest.raises(ValueError):
        ForwardSolution(u=np.zeros(4), U=np.array([1.0, 1.0]),
                        grad_u=np.zeros((2, 2)))


@pytest.mark.parametrize("name", ["u", "U", "grad_u"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solution_must_be_finite(name, bad):
    fields = {"u": np.zeros(4), "U": np.zeros(2), "grad_u": np.zeros((2, 2))}
    fields[name][1] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite; entry 1 ") as info:
        ForwardSolution(**fields)
    assert info.value.name == name


def _refusal_case():
    """A 4² mesh with the README electrodes, its unit solution, and a 5² mesh."""
    mesh, setup, currents = two_electrode_case(4, Z, Z, ALPHA)
    return mesh, setup, currents, solve_forward(mesh, ones(mesh), setup, currents), \
        build_uniform_mesh(5)


# Each library refusal reachable from library input, by the start of its message.
LIBRARY_REFUSALS = {
    "unknown-side": (lambda mesh, *_: mesh.nodes_on_side("diag"),
                     "unknown side tag 'diag'"),
    "spans-and-impedances": (lambda mesh, *_: locate_electrodes(
        mesh, [("bottom", (0.0, 1.0)), ("top", (0.0, 1.0))], [Z]),
        "2 spans but 1 impedances"),
    "one-electrode": (lambda mesh, setup, *_: cdii.ElectrodeSetup(setup.electrodes[:1]),
                      "at least two electrodes are required"),
    "electrode-without-edges": (lambda *_: cdii.Electrode(
        edge_ids=np.zeros(0, dtype=np.int64), edges=np.zeros((0, 2), dtype=np.int64),
        impedance=Z), "electrode has no edges (zero surface measure)"),
    "conductivity-2d": (lambda *_: ConductivityField(np.ones((2, 2))),
                        "conductivity values must be a 1-d array"),
    "interior-data-2d": (lambda *_: cdii.InteriorData(np.ones((2, 2))),
                         "interior data must be a 1-d array"),
    "trace-shapes": (lambda *_: cdii.BoundaryVoltageTrace(np.arange(3), np.zeros(2)),
                     "trace needs matching 1-d node ids and values"),
    "trace-empty": (lambda *_: cdii.BoundaryVoltageTrace(np.zeros(0, dtype=np.int64),
                                                         np.zeros(0)),
                    "trace is empty"),
    "map-one-breakpoint": (lambda *_: cdii.PhiMap(np.array([0.0]), np.array([1.0])),
                           "map needs n >= 2 breakpoints and n values"),
    "pairs-one-column": (lambda *_: cdii.build_monotone_map(np.ones((3, 1))),
                         "pairs must be a nonempty (n, 2) array of (s, t) rows"),
    "current-other-mesh": (lambda mesh, setup, currents, sol, other: interior_current(
        mesh, ones(other), sol), "conductivity has 32 values for 18 triangles"),
    "solution-other-mesh": (lambda mesh, setup, currents, sol, other: interior_current(
        other, ones(other), sol), "solution gradients do not match the mesh"),
    "reconstruct-other-mesh": (lambda mesh, setup, currents, sol, other: cdii.reconstruct(
        mesh, cdii.InteriorData(np.ones(other.triangle_count)), setup, currents,
        cdii.ReconstructionConfig(epsilon=0.1, delta=1e-7)),
        "interior data does not match the mesh"),
}


@pytest.mark.parametrize("refuse,message", LIBRARY_REFUSALS.values(),
                         ids=LIBRARY_REFUSALS.keys())
def test_library_refuses_malformed_input(refuse, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        refuse(*_refusal_case())


# ------------------------------------------------------------- assembly

def test_stiffness_matches_hand_assembly():
    # Two unit triangles (h = 1), unit conductivity.  Element pattern gives
    # the classic 4x4 two-triangle stiffness; bottom/top electrodes of
    # impedance 0.5 add the edge mass h/(6 z) * [[2, 1], [1, 2]].
    mesh = build_uniform_mesh(2)
    setup = locate_electrodes(mesh, [("bottom", (0.0, 1.0)), ("top", (0.0, 1.0))],
                              [0.5, 0.5])
    currents = CurrentPattern(np.array([-1.0, 1.0]))
    system = assemble_system(mesh, ones(mesh), setup, currents)

    stiff = np.array([
        [1.0, -0.5, -0.5, 0.0],
        [-0.5, 1.0, 0.0, -0.5],
        [-0.5, 0.0, 1.0, -0.5],
        [0.0, -0.5, -0.5, 1.0],
    ])
    c = 1.0 / (6.0 * 0.5)
    mass = np.zeros((4, 4))
    mass[np.ix_([0, 1], [0, 1])] += c * np.array([[2.0, 1.0], [1.0, 2.0]])
    mass[np.ix_([2, 3], [2, 3])] += c * np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(system.Lambda.toarray(), stiff + mass, atol=1e-14)


def test_voltage_block_two_electrodes(equal_z_case):
    mesh, setup, currents = equal_z_case
    system = assemble_system(mesh, ones(mesh), setup, currents)
    assert system.Upsilon.shape == (1, 1)
    assert system.Upsilon[0, 0] == pytest.approx(2.0 / Z, rel=1e-14)
    assert np.allclose(system.rhs[:-1], 0.0)
    assert system.rhs[-1] == pytest.approx(-2.0 * ALPHA, rel=1e-14)


def test_full_matrix_symmetric_and_positive_definite():
    rng = np.random.default_rng(7)
    for side_nodes in (3, 5, 8):
        mesh, setup, currents, sigma = random_case(rng, side_nodes)
        dense = full_matrix(assemble_system(mesh, sigma, setup, currents)).toarray()
        asym = np.max(np.abs(dense - dense.T))
        assert asym <= 1e-13 * np.max(np.abs(dense))
        assert np.linalg.eigvalsh(dense).min() > 0.0
    # the standard bottom/top configuration as well
    mesh, setup, currents = two_electrode_case(6, Z, Z, ALPHA)
    dense = full_matrix(assemble_system(mesh, ones(mesh), setup, currents)).toarray()
    assert np.max(np.abs(dense - dense.T)) <= 1e-13 * np.max(np.abs(dense))
    assert np.linalg.eigvalsh(dense).min() > 0.0


def test_assemble_rejects_mismatched_sigma(equal_z_case):
    mesh, setup, currents = equal_z_case
    with pytest.raises(ValueError):
        assemble_system(mesh, ConductivityField(np.ones(3)), setup, currents)


# Operator cases: side_nodes, then (side, span, impedance) per electrode.
# Both parities, the smallest grids, 2-4 electrodes, partial spans.
OPERATOR_CASES = [
    (2, [("bottom", (0.0, 1.0), 0.5), ("top", (0.0, 1.0), 0.25)]),
    (3, [("bottom", (0.0, 0.5), 0.1), ("top", (0.5, 1.0), 0.3),
         ("left", (0.0, 1.0), 0.02)]),
    (4, [("bottom", (0.0, 1 / 3), 1e-3), ("right", (1 / 3, 1.0), 0.4),
         ("top", (1 / 3, 2 / 3), 0.05), ("left", (0.0, 2 / 3), 2.0)]),
    (7, [("left", (0.5, 1.0), 8.3e-3), ("right", (0.0, 0.5), 0.2),
         ("bottom", (1 / 6, 5 / 6), 0.07)]),
    (10, [("bottom", (0.0, 1.0), Z), ("top", (0.0, 1.0), Z)]),
]

# The last electrode shares corner node 4 with an electrode of equal
# impedance, so Psi is exactly zero there and the pattern leaves that entry
# out.  It runs last in each test of the pattern, so no other case's id
# moves.
PSI_ZERO_CASE = (5, [("bottom", (0.0, 1.0), 0.1), ("top", (0.0, 1.0), 0.2),
                     ("right", (0.0, 1.0), 0.1)])


@pytest.mark.parametrize("side_nodes,electrodes", OPERATOR_CASES + [PSI_ZERO_CASE])
def test_operator_matches_reference_assembly(side_nodes, electrodes):
    rng = np.random.default_rng(side_nodes)
    mesh = build_uniform_mesh(side_nodes)
    setup = locate_electrodes(mesh, [(side, span) for side, span, _ in electrodes],
                              [z for _, _, z in electrodes])
    I = rng.normal(size=setup.count)
    currents = CurrentPattern(I - I.mean())
    operator = CemOperator(mesh, setup)
    size = mesh.node_count + setup.count - 1
    for _ in range(3):
        sigma = ConductivityField(rng.uniform(0.1, 10.0, mesh.triangle_count))
        reference = full_matrix(assemble_system(mesh, sigma, setup, currents))
        reference.sort_indices()
        actual = operator_matrix(operator, sigma)
        assert actual.shape == (size, size)
        assert np.array_equal(actual.indptr, reference.indptr)
        assert np.array_equal(actual.indices, reference.indices)
        expected = reference.toarray()
        assert np.max(np.abs(actual.toarray() - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_operator_pattern_leaves_out_entries_zero_for_every_sigma():
    # The SE-NW coupling of every cell is zero for every sigma, and the
    # assembly stores none.  z = h/3 makes the electrode trace mass cancel
    # the unit stiffness along each bottom edge, so those entries are zero
    # at unit sigma but not in general: they stay in the pattern.
    mesh = build_uniform_mesh(6)
    n = mesh.side_nodes
    setup = locate_electrodes(mesh, [("bottom", (0.0, 1.0)), ("top", (0.0, 1.0))],
                              [mesh.h / 3.0, 0.1])
    currents = CurrentPattern(np.array([-1.0, 1.0]))
    unit = full_matrix(assemble_system(mesh, ones(mesh), setup, currents)).tocoo()
    bottom_edges = {(i, i + 1) for i in range(n - 1)} | {(i + 1, i) for i in range(n - 1)}
    zero = unit.data == 0.0
    assert np.count_nonzero(zero) == 2 * (n - 1)
    assert set(zip(unit.row[zero].tolist(), unit.col[zero].tolist())) == bottom_edges
    stored = set(zip(unit.row.tolist(), unit.col.tolist()))
    sw = (np.arange(n - 1)[:, None] * n + np.arange(n - 1)).ravel()
    for se, nw in zip(sw + 1, sw + n):
        assert (se, nw) not in stored and (nw, se) not in stored

    operator = CemOperator(mesh, setup)
    at_unit = operator_matrix(operator, ones(mesh)).tocoo()
    zero = at_unit.data == 0.0
    assert set(zip(at_unit.row[zero].tolist(), at_unit.col[zero].tolist())) == bottom_edges
    sigma = ConductivityField(np.random.default_rng(6).uniform(0.1, 10.0, mesh.triangle_count))
    actual = operator_matrix(operator, sigma)
    assert np.all(actual.data != 0.0)

    reference = full_matrix(assemble_system(mesh, sigma, setup, currents))
    reference.sort_indices()
    assert np.array_equal(actual.indptr, reference.indptr)
    assert np.array_equal(actual.indices, reference.indices)
    expected = reference.toarray()
    assert np.max(np.abs(actual.toarray() - expected)) <= 1e-14 * np.max(np.abs(expected))


# z = h/3 at h = 1/5: the bottom trace mass cancels the unit stiffness
# along the bottom edges.
CANCELLING_CASE = (6, [("bottom", (0.0, 1.0), (1 / 5) / 3), ("top", (0.0, 1.0), 0.1)])


@pytest.mark.parametrize("side_nodes,electrodes",
                         OPERATOR_CASES + [CANCELLING_CASE, PSI_ZERO_CASE])
def test_assembly_matches_triplet_reference(side_nodes, electrodes):
    # The stencil and the per-triangle triplets give the same pattern, the
    # same Lambda at unit sigma, where every partial sum of the stiffness
    # is exact, and the same Lambda up to the order of its sums otherwise.
    rng = np.random.default_rng(side_nodes)
    mesh = build_uniform_mesh(side_nodes)
    setup = locate_electrodes(mesh, [(side, span) for side, span, _ in electrodes],
                              [z for _, _, z in electrodes])
    currents = CurrentPattern(np.zeros(setup.count))
    sigmas = [ones(mesh)] + [ConductivityField(rng.uniform(0.1, 10.0, mesh.triangle_count))
                             for _ in range(3)]
    for sigma in sigmas:
        actual = assemble_system(mesh, sigma, setup, currents).Lambda
        reference = triplet_stiffness(mesh, sigma, setup)
        assert np.array_equal(actual.indptr, reference.indptr)
        assert np.array_equal(actual.indices, reference.indices)
        if sigma is sigmas[0]:
            assert actual.data.tobytes() == reference.data.tobytes()
        else:
            scale = np.max(np.abs(reference.data))
            assert np.max(np.abs(actual.data - reference.data)) <= 1e-14 * scale


BINCOUNT_LAYOUTS = {
    "two": [("bottom", (0.0, 1.0)), ("top", (0.0, 1.0))],
    "three": [("bottom", (0.0, 1.0)), ("left", (0.0, 1.0)), ("top", (0.0, 1.0))],
    "left-right": [("left", (0.0, 1.0)), ("right", (0.0, 1.0))],
}


@pytest.mark.parametrize("side_nodes,electrodes", OPERATOR_CASES + [
    (60, [("bottom", (0.0, 1.0), Z), ("top", (0.0, 1.0), Z)])] + [
    (n, [(side, span, Z) for side, span in layout])
    for n in (2, 20, 61) for layout in BINCOUNT_LAYOUTS.values()] + [PSI_ZERO_CASE])
def test_operator_stiffness_is_bitwise_a_bincount(side_nodes, electrodes):
    # Each slot adds the same products in the same order as a bincount of
    # each triangle's weighted entries into their slots: increasing
    # triangle order.
    mesh = build_uniform_mesh(side_nodes)
    setup = locate_electrodes(mesh, [(side, span) for side, span, _ in electrodes],
                              [z for _, _, z in electrodes])
    operator = CemOperator(mesh, setup)
    sigma = ConductivityField(np.random.default_rng(side_nodes).uniform(
        0.1, 10.0, mesh.triangle_count))
    M = operator_matrix(operator, sigma)
    size = M.shape[0]
    # Slot of entry (row, col): the rank of col * size + row in the pattern.
    keys = np.repeat(np.arange(size), np.diff(M.indptr)) * size + M.indices
    assert np.all(np.diff(keys) > 0)
    rows, cols = np.nonzero(_STIFF)
    tri = mesh.triangles
    slots = np.searchsorted(keys, (tri[:, cols] * size + tri[:, rows]).reshape(-1))
    weights = (sigma.values[:, None] * _STIFF[rows, cols]).reshape(-1)
    fixed = np.zeros(M.nnz)
    fixed[operator._fixed_slots] = operator._fixed_values
    expected = fixed + np.bincount(slots, weights=weights, minlength=M.nnz)
    assert M.data.tobytes() == expected.tobytes()


def test_operator_keeps_no_per_triangle_map():
    # The pattern and one index per slot: about two entries per stored
    # nonzero, the fixed entries a few per electrode edge, where a dense
    # fixed vector would add one per nonzero and a per-triangle map seven
    # per triangle (over eight in all).
    mesh = build_uniform_mesh(120)
    setup = locate_electrodes(mesh, [("bottom", (0.0, 1.0)), ("top", (0.0, 1.0))], [Z, Z])
    operator = CemOperator(mesh, setup)
    kept = 0
    for value in vars(operator).values():
        if sp.issparse(value):
            kept += value.data.size + value.indices.size + value.indptr.size
        elif isinstance(value, np.ndarray):
            kept += value.size
    assert kept <= 2.5 * len(operator._indices)


def test_operator_build_peaks_within_three_times_what_it_keeps():
    # The build writes the pattern's slots in place, with no triplets, no
    # bmat and no slot lookup: its peak, the unit assembly included, stays
    # within three times the arrays the operator keeps.
    mesh = build_uniform_mesh(120)
    setup = locate_electrodes(mesh, [("bottom", (0.0, 1.0)), ("top", (0.0, 1.0))], [Z, Z])
    CemOperator(mesh, setup)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        operator = CemOperator(mesh, setup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(v.nbytes for v in vars(operator).values() if isinstance(v, np.ndarray))
    assert peak <= 3 * kept, f"{peak} B at the peak against {kept} B kept"


def test_operator_rejects_mismatched_sigma(equal_z_case):
    mesh, setup, _ = equal_z_case
    with pytest.raises(ValueError, match="conductivity"):
        operator_matrix(CemOperator(mesh, setup), ConductivityField(np.ones(3)))


@pytest.mark.parametrize("electrodes,currents", [
    ([("bottom", (0.0, 1.0)), ("top", (0.0, 1.0))], [-3e-3, 3e-3]),
    ([("bottom", (0.0, 1.0)), ("top", (0.0, 29 / 59)), ("top", (29 / 59, 1.0))],
     [-3e-3, 1e-3, 2e-3])])
def test_factor_fills_less_than_nested_dissection(electrodes, currents):
    # The factor solve_forward makes, in SuperLU's minimum-degree order,
    # against the grid's nested-dissection order (George 1973) factored as
    # given: 22% less fill with two electrodes, 31% with three.
    mesh = build_uniform_mesh(60)
    setup = locate_electrodes(mesh, electrodes, [Z] * len(electrodes))
    factor = LastFactor(CemOperator(mesh, setup))
    sigma = ConductivityField(np.random.default_rng(60).uniform(0.5, 2.0, mesh.triangle_count))
    solve_forward(mesh, sigma, setup, CurrentPattern(np.array(currents)), factor=factor)
    assert factor.factorizations == 1
    M = operator_matrix(factor.operator, sigma)
    perm = np.concatenate([dissection_order_reference(mesh.side_nodes),
                           np.arange(mesh.node_count, M.shape[0])])
    dissected = spla.splu(M[perm][:, perm], permc_spec="NATURAL", diag_pivot_thresh=0.0,
                          options={"SymmetricMode": True})
    assert factor._lu.nnz < dissected.nnz


# ---------------------------------------------------------------- solve

@pytest.mark.parametrize("z0,z1,alpha", [(Z, Z, ALPHA), (1.0 + Z, Z, 1.0)])
def test_solve_reproduces_linear_solution(z0, z1, alpha):
    # The potential of the two-electrode unit-conductivity problem is linear
    # in y, which the elements represent exactly.
    mesh, setup, currents = two_electrode_case(12, z0, z1, alpha)
    sol = solve_forward(mesh, ones(mesh), setup, currents)
    u_exact, U_exact = exact_linear_solution(mesh, z0, z1, alpha)
    assert np.max(np.abs(sol.u - u_exact)) <= 1e-12 * np.max(np.abs(u_exact))
    assert np.max(np.abs(sol.U - U_exact)) <= 1e-12 * np.max(np.abs(U_exact))


def test_solve_shifted_impedance_gives_plain_height():
    # z0 = z1 + 1 balances the electrode drops so the potential is exactly y.
    z1 = 0.37
    mesh, setup, currents = two_electrode_case(8, z1 + 1.0, z1, 1.0)
    sol = solve_forward(mesh, ones(mesh), setup, currents)
    assert np.max(np.abs(sol.u - mesh.nodes[:, 1])) < 1e-12
    assert sol.U[1] == pytest.approx(1.0 + z1, rel=1e-12)
    assert sol.U[0] == pytest.approx(-(1.0 + z1), rel=1e-12)


def test_solve_zero_current(equal_z_case):
    # A zero load starts PCG at r = 0, which the step test ||r|| > 0 stops
    # before a first step would divide 0 by 0; r = 0 meets the contract.
    mesh, setup, _ = equal_z_case
    currents = CurrentPattern(np.zeros(2))
    factor = LastFactor(CemOperator(mesh, setup))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_forward(mesh, ones(mesh), setup, currents, factor=factor)
    assert np.max(np.abs(sol.u)) == 0.0
    assert np.max(np.abs(sol.U)) == 0.0
    assert (factor.factorizations, factor.pcg_iterations) == (1, 0)


def test_solution_voltages_on_hyperplane():
    rng = np.random.default_rng(3)
    mesh, setup, currents, sigma = random_case(rng, 9)
    sol = solve_forward(mesh, sigma, setup, currents)
    assert abs(sol.U.sum()) <= 1e-12 * np.max(np.abs(sol.U))


def test_solve_matches_dense_quadratic_minimizer():
    rng = np.random.default_rng(11)
    for side_nodes in (2, 3, 4):
        mesh, setup, currents, sigma = random_case(rng, side_nodes)
        sol = solve_forward(mesh, sigma, setup, currents)
        u_ref, U_ref = quadratic_minimizer_oracle(mesh, sigma, setup, currents)
        scale = max(np.max(np.abs(u_ref)), np.max(np.abs(U_ref)))
        assert np.max(np.abs(sol.u - u_ref)) <= 1e-9 * scale
        assert np.max(np.abs(sol.U - U_ref)) <= 1e-9 * scale


# --------------------------------------------------------------- energy

def test_energy_zero_candidate(equal_z_case):
    mesh, setup, currents = equal_z_case
    zero = (np.zeros(mesh.node_count), np.zeros(2))
    assert energy_value(mesh, ones(mesh), setup, currents, zero) == 0.0


def test_energy_at_solution_closed_form():
    # Substituting the linear solution gives -alpha^2 (1 + z0 + z1) / 2.
    z0, z1, alpha = 0.4, 0.15, 0.8
    mesh, setup, currents = two_electrode_case(6, z0, z1, alpha)
    sol = solve_forward(mesh, ones(mesh), setup, currents)
    expected = -0.5 * alpha ** 2 * (1.0 + z0 + z1)
    got = energy_value(mesh, ones(mesh), setup, currents, (sol.u, sol.U))
    assert got == pytest.approx(expected, rel=1e-12)


def test_energy_quadratic_in_scaling(equal_z_case):
    mesh, setup, currents = equal_z_case
    rng = np.random.default_rng(5)
    cand = (rng.normal(size=mesh.node_count), pi_vector(rng, 2))
    f1 = energy_value(mesh, ones(mesh), setup, currents, cand)
    f2 = energy_value(mesh, ones(mesh), setup, currents,
                      (2.0 * cand[0], 2.0 * cand[1]))
    fm1 = energy_value(mesh, ones(mesh), setup, currents,
                       (-cand[0], -cand[1]))
    quad = (f1 + fm1) / 2.0
    lin = (f1 - fm1) / 2.0
    assert f2 == pytest.approx(4.0 * quad + 2.0 * lin, rel=1e-12, abs=1e-15)


def test_derivative_vanishes_at_solution(equal_z_case):
    mesh, setup, currents = equal_z_case
    sigma = ones(mesh)
    sol = solve_forward(mesh, sigma, setup, currents)
    scale = max(np.max(np.abs(currents.values)), 1e-30)
    worst = 0.0
    for j in range(mesh.node_count):
        v = np.zeros(mesh.node_count)
        v[j] = 1.0
        worst = max(worst, abs(energy_derivative(
            mesh, sigma, setup, currents, (sol.u, sol.U), (v, np.zeros(2)))))
    direction = (np.zeros(mesh.node_count), np.array([1.0, -1.0]))
    worst = max(worst, abs(energy_derivative(
        mesh, sigma, setup, currents, (sol.u, sol.U), direction)))
    assert worst <= 1e-10 * scale


def test_derivative_linear_in_direction(equal_z_case):
    mesh, setup, currents = equal_z_case
    rng = np.random.default_rng(9)
    at = (rng.normal(size=mesh.node_count), pi_vector(rng, 2))
    zero_dir = (np.zeros(mesh.node_count), np.zeros(2))
    assert energy_derivative(mesh, ones(mesh), setup, currents, at, zero_dir) == 0.0


def test_derivative_equals_central_difference():
    rng = np.random.default_rng(17)
    mesh, setup, currents, sigma = random_case(rng, 6)
    for _ in range(100):
        at = (rng.normal(size=mesh.node_count), pi_vector(rng, setup.count))
        d = (rng.normal(size=mesh.node_count), pi_vector(rng, setup.count))
        t = 0.5
        plus = energy_value(mesh, sigma, setup, currents,
                            (at[0] + t * d[0], at[1] + t * d[1]))
        minus = energy_value(mesh, sigma, setup, currents,
                             (at[0] - t * d[0], at[1] - t * d[1]))
        central = (plus - minus) / (2.0 * t)
        deriv = energy_derivative(mesh, sigma, setup, currents, at, d)
        assert deriv == pytest.approx(central, rel=1e-12, abs=1e-13)


def test_solve_rejects_foreign_operator(equal_z_case):
    mesh, setup, currents = equal_z_case
    factor = LastFactor(CemOperator(mesh, setup))
    sol = solve_forward(mesh, ones(mesh), setup, currents, factor=factor)
    assert np.array_equal(sol.u, solve_forward(mesh, ones(mesh), setup, currents).u)
    other_mesh, other_setup, _ = two_electrode_case(10, Z, Z, ALPHA)
    with pytest.raises(ValueError, match="different mesh or electrode setup"):
        solve_forward(other_mesh, ones(other_mesh), setup, currents, factor=factor)
    with pytest.raises(ValueError, match="different mesh or electrode setup"):
        solve_forward(mesh, ones(mesh), other_setup, currents, factor=factor)


def test_solve_enforces_residual_contract(equal_z_case, monkeypatch):
    # PCG on the new factor cannot reach 1e-30 within its iteration limit,
    # and with the backward-error floor at 0 rounding is not forgiven.
    mesh, setup, currents = equal_z_case
    monkeypatch.setattr(cdii.fem_cem, "SOLVER_TOL", 1e-30)
    monkeypatch.setattr(cdii.fem_cem, "BACKWARD_TOL", 0.0)
    with pytest.raises(SolverError, match=r"relative residual \d\.\d{3}e-\d+ "
                                          r"\(tolerance 1\.0e-30, backward-error floor 0\.0e\+00\)"):
        solve_forward(mesh, ones(mesh), setup, currents)


def test_solve_names_a_failed_factorization(equal_z_case, monkeypatch):
    # SuperLU raises a RuntimeError on a singular matrix; the solve raises
    # it as a SolverError, which the CLI reports with exit 3.
    mesh, setup, currents = equal_z_case

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    with pytest.raises(SolverError,
                       match=r"^factorization failed: Factor is exactly singular$"):
        solve_forward(mesh, ones(mesh), setup, currents)


def test_solve_refuses_a_load_vector_whose_norm_overflows(equal_z_case):
    # ||b|| = inf would make every residual test pass.
    mesh, setup, _ = equal_z_case
    factor = LastFactor(CemOperator(mesh, setup))
    b = np.zeros(mesh.node_count + 1)
    b[-1] = 1e200
    with np.errstate(over="ignore"), pytest.raises(SolverError, match="overflows"):
        factor.solve(ones(mesh), b)


# ----------------------------------------------------------- factor reuse

def _relative_residual(operator, sigma, currents, sol):
    """``||M x - b|| / ||b||`` of a solution."""
    x = np.concatenate([sol.u, sol.U[:-1]])
    b = _load_vector(operator.mesh.node_count, currents)
    return np.linalg.norm(operator_matrix(operator, sigma) @ x - b) / np.linalg.norm(b)


@pytest.fixture()
def reuse_case():
    """A 20x20 problem, its operator, and two conductivities 10% apart."""
    mesh, setup, currents = two_electrode_case(20, Z, Z, ALPHA)
    rng = np.random.default_rng(3)
    first = ConductivityField(rng.uniform(0.5, 2.0, mesh.triangle_count))
    second = ConductivityField(first.values * rng.uniform(0.9, 1.1, mesh.triangle_count))
    return mesh, setup, currents, CemOperator(mesh, setup), first, second


def test_reused_factor_solves_to_the_contract(reuse_case):
    mesh, setup, currents, operator, first, second = reuse_case
    factor = LastFactor(operator)
    solve_forward(mesh, first, setup, currents, factor=factor)
    assert (factor.factorizations, factor.pcg_iterations) == (1, 0)
    sol = solve_forward(mesh, second, setup, currents, factor=factor)
    assert factor.factorizations == 1 and factor.pcg_iterations > 0  # PCG solved it
    direct = solve_forward(mesh, second, setup, currents)
    assert np.linalg.norm(sol.u - direct.u) <= 1e-8 * np.linalg.norm(direct.u)
    assert np.linalg.norm(sol.U - direct.U) <= 1e-8 * np.linalg.norm(direct.U)
    assert _relative_residual(operator, second, currents, sol) <= cdii.fem_cem.SOLVER_TOL


def test_factor_keeps_the_solution_it_returns(reuse_case):
    # A new factor holds no solution and nothing else preallocated; a solve
    # keeps the very array it returns, not a copy.
    mesh, setup, currents, operator, first, _ = reuse_case
    factor = LastFactor(operator)
    assert factor._recent == []
    assert sum(v.size for v in vars(factor).values() if isinstance(v, np.ndarray)) == 0
    x = factor.solve(first, _load_vector(mesh.node_count, currents))
    assert len(factor._recent) == 1 and factor._recent[0] is x


def test_failed_pcg_falls_back_to_the_direct_solve(reuse_case, monkeypatch):
    mesh, setup, currents, operator, first, second = reuse_case
    monkeypatch.setattr(cdii.fem_cem, "PCG_MAX_ITER", 1)
    factor = LastFactor(operator)
    solve_forward(mesh, first, setup, currents, factor=factor)
    sol = solve_forward(mesh, second, setup, currents, factor=factor)
    assert (factor.factorizations, factor.pcg_iterations) == (2, 1)
    # The fallback is a new factor's solve: the same bytes as a plain solve.
    direct = solve_forward(mesh, second, setup, currents)
    assert sol.u.tobytes() == direct.u.tobytes() and sol.U.tobytes() == direct.U.tobytes()
    assert _relative_residual(operator, second, currents, sol) <= cdii.fem_cem.SOLVER_TOL


def test_inexact_new_factor_meets_the_contract_by_pcg(reuse_case, monkeypatch):
    # A factor whose solves are 0.1% too large starts PCG 0.1% off, along
    # the solution itself, so one step meets the contract.
    mesh, setup, currents, operator, first, _ = reuse_case
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: InexactFactor(splu(*args, **kwargs)))
    factor = LastFactor(operator)
    sol = solve_forward(mesh, first, setup, currents, factor=factor)
    assert (factor.factorizations, factor.pcg_iterations) == (1, 1)
    assert _relative_residual(operator, first, currents, sol) <= cdii.fem_cem.SOLVER_TOL


def test_loose_solve_keeps_the_factor_a_tight_one_renews(reuse_case, monkeypatch):
    # PCG on the first conductivity's factor meets 1e-6 in fewer steps than
    # SOLVER_TOL.  With the step limit at the loose solve's count, the loose
    # solve is accepted on the last factor and the tight one refactorizes.
    mesh, setup, currents, operator, first, second = reuse_case
    b = _load_vector(mesh.node_count, currents)

    def second_solve(tol):
        factor = LastFactor(operator)
        factor.solve(first, b)
        before = factor.pcg_iterations
        x = factor.solve(second, b, tol)
        return factor, factor.pcg_iterations - before, x

    _, loose_steps, _ = second_solve(1e-6)
    _, tight_steps, _ = second_solve(None)
    assert 0 < loose_steps < tight_steps
    monkeypatch.setattr(cdii.fem_cem, "PCG_MAX_ITER", loose_steps)
    loose, _, x = second_solve(1e-6)
    tight, _, _ = second_solve(None)
    assert (loose.factorizations, tight.factorizations) == (1, 2)
    M = operator_matrix(operator, second)
    assert np.linalg.norm(M @ x - b) <= 1e-6 * np.linalg.norm(b)


def test_refine_continues_the_last_solve_to_the_contract(reuse_case):
    # A loose solve, then its continuation on the same matrix and factor;
    # the recent solutions are left as they were, the loose one last.
    mesh, setup, currents, operator, first, second = reuse_case
    b = _load_vector(mesh.node_count, currents)
    factor = LastFactor(operator)
    with pytest.raises(ValueError, match="^no solve to refine$"):
        factor.refine(b)
    factor.solve(first, b)
    loose = factor.solve(second, b, 1e-4)
    recent = list(factor._recent)
    kept = [x.tobytes() for x in recent]
    M = operator_matrix(operator, second)

    def relative_residual(x):
        return np.linalg.norm(M @ x - b) / np.linalg.norm(b)

    assert relative_residual(loose) > cdii.fem_cem.SOLVER_TOL
    before = factor.pcg_iterations
    x = factor.refine(b)
    assert relative_residual(x) <= cdii.fem_cem.SOLVER_TOL
    assert factor.factorizations == 1 and factor.pcg_iterations > before
    assert len(factor._recent) == 2 and factor._recent[-1] is loose
    assert all(a is b for a, b in zip(factor._recent, recent))
    assert [x.tobytes() for x in factor._recent] == kept


def test_rounding_residual_is_accepted_by_its_backward_error():
    # With impedances 1 and 1e6 the load, which holds only the currents, is
    # small against ||M|| ||x||: rounding alone leaves a relative residual
    # above SOLVER_TOL, which the backward-error floor accepts, and the
    # electrode fluxes still recover the currents.
    mesh, setup, currents = two_electrode_case(12, 1.0, 1e6, ALPHA)
    sol = solve_forward(mesh, ones(mesh), setup, currents)
    M = operator_matrix(CemOperator(mesh, setup), ones(mesh))
    x = np.concatenate([sol.u, sol.U[:-1]])
    b = _load_vector(mesh.node_count, currents)
    residual = np.linalg.norm(M @ x - b)
    floor = cdii.fem_cem.BACKWARD_TOL * (spla.norm(M, np.inf) * np.linalg.norm(x)
                                         + np.linalg.norm(b))
    assert cdii.fem_cem.SOLVER_TOL * np.linalg.norm(b) < residual <= floor
    fluxes = [electrode_flux(mesh, setup, sol, k) for k in range(setup.count)]
    assert np.max(np.abs(fluxes - currents.values)) <= 1e-8 * ALPHA


@pytest.mark.parametrize("exhausted", [False, True], ids=["converged", "exhausted"])
def test_pcg_is_bitwise_scipy_cg(reuse_case, monkeypatch, exhausted):
    # scipy's cg and the written-out loop get the same start, tolerance,
    # iteration limit and preconditioner, and take the same steps to the same
    # bytes.  With the limit at the number of steps cg needs, cg runs out of
    # steps before its stopping test sees the residual that meets it and
    # reports no convergence; the solve accepts that iterate by its true
    # residual and keeps its factor.
    mesh, setup, currents, operator, first, second = reuse_case
    factor = LastFactor(operator)
    solve_forward(mesh, first, setup, currents, factor=factor)
    M, b = operator_matrix(operator, second), _load_vector(mesh.node_count, currents)

    def scipy_cg(maxiter):
        steps = 0

        def count(_):
            nonlocal steps
            steps += 1

        x, info = spla.cg(M, b, factor._start(M, b), rtol=cdii.fem_cem.SOLVER_TOL,
                          maxiter=maxiter, callback=count,
                          M=spla.LinearOperator(M.shape, matvec=factor._lu.solve, dtype=float))
        return x, info, steps

    x, info, steps = scipy_cg(cdii.fem_cem.PCG_MAX_ITER)
    assert info == 0 and steps > 0
    if exhausted:
        monkeypatch.setattr(cdii.fem_cem, "PCG_MAX_ITER", steps)
        x, info, _ = scipy_cg(steps)
        assert info == steps
    ours = factor.solve(second, b)
    assert (factor.factorizations, factor.pcg_iterations) == (1, steps)
    assert ours.tobytes() == x.tobytes()


def test_refactorizes_after_a_solve_over_the_cap(reuse_case, monkeypatch):
    # With the cap at 0 every PCG solve that iterates at all is over it, so
    # each solve after one refactorizes, and the one after that runs PCG.
    # The last conductivity is a new one: PCG starts from the recent
    # solutions, so it would solve a recent conductivity without a step.
    mesh, setup, currents, operator, first, second = reuse_case
    third = ConductivityField(first.values * np.random.default_rng(4).uniform(
        0.9, 1.1, mesh.triangle_count))
    monkeypatch.setattr(cdii.fem_cem, "PCG_REFACTOR_CAP", 0)
    factor = LastFactor(operator)
    factorizations, pcg_steps = [], []
    for sigma in (first, second, first, third):
        before = factor.pcg_iterations
        solve_forward(mesh, sigma, setup, currents, factor=factor)
        factorizations.append(factor.factorizations)
        pcg_steps.append(factor.pcg_iterations - before)
    assert factorizations == [1, 1, 2, 2]
    assert pcg_steps[0] == pcg_steps[2] == 0 and pcg_steps[1] > 0 and pcg_steps[3] > 0


@pytest.mark.parametrize("again", range(4))
def test_resolving_a_recent_conductivity_takes_no_pcg_step(again, monkeypatch):
    # The PCG start is the energy-optimal combination of the last four
    # solutions, so a conductivity among them is solved before any step,
    # also where they span refactorizations: with the cap at 0, each solve
    # after an iterating PCG solve refactorizes, so five solves take three
    # factorizations, and the first drops out.  The conductivities are 1%
    # apart, so the last PCG solve is under the cap restored for the
    # re-solve.  91² has over 8192 unknowns, past the blocks of 8192 in
    # which numpy sums.
    for side_nodes in (20, 91):
        mesh, setup, currents = two_electrode_case(side_nodes, Z, Z, ALPHA)
        operator = CemOperator(mesh, setup)
        rng = np.random.default_rng(side_nodes)
        values = rng.uniform(0.5, 2.0, mesh.triangle_count)
        sigmas = []
        for _ in range(5):
            sigmas.append(ConductivityField(values))
            values = values * rng.uniform(0.99, 1.01, mesh.triangle_count)
        monkeypatch.setattr(cdii.fem_cem, "PCG_REFACTOR_CAP", 0)
        factor = LastFactor(operator)
        for sigma in sigmas:
            solve_forward(mesh, sigma, setup, currents, factor=factor)
        assert factor.factorizations == 3 and factor.pcg_iterations > 0
        monkeypatch.undo()
        before = (factor.factorizations, factor.pcg_iterations)
        sigma = sigmas[1 + again]
        sol = solve_forward(mesh, sigma, setup, currents, factor=factor)
        assert (factor.factorizations, factor.pcg_iterations) == before
        assert _relative_residual(operator, sigma, currents, sol) <= cdii.fem_cem.SOLVER_TOL


def test_accepted_start_takes_one_product_with_the_matrix(reuse_case):
    # A start accepted before any PCG step is judged by the residual PCG
    # formed from it, so the solve multiplies by M once after its start:
    # on a new factor, which starts from its solve of b, and on the last
    # one, whose start's block product comes first.
    mesh, setup, currents, operator, first, _ = reuse_case
    b = _load_vector(mesh.node_count, currents)
    factor = LastFactor(operator)
    products = []

    class Counted(sp.csc_matrix):
        def __matmul__(self, other):
            products.append(np.ndim(other))
            return super().__matmul__(other)

    factor._matrix = Counted(factor._matrix)
    for expected in ([1], [2, 1]):
        products.clear()
        factor.solve(first, b)
        assert (factor.factorizations, factor.pcg_iterations) == (1, 0)
        assert products == expected


def test_solves_leave_the_operators_matrices_alone(reuse_case):
    # Each factor refills a matrix of its own; a matrix the operator
    # returned is a new one, which no solve and no other matrix touches.
    mesh, setup, currents, operator, first, second = reuse_case
    M1, M2 = operator_matrix(operator, first), operator_matrix(operator, second)
    bytes1, bytes2 = M1.data.tobytes(), M2.data.tobytes()
    factors = LastFactor(operator), LastFactor(operator)
    for factor in factors:
        for sigma in (second, first, second):
            solve_forward(mesh, sigma, setup, currents, factor=factor)
        assert factor._matrix.data.tobytes() == bytes2
    assert (M1.data.tobytes(), M2.data.tobytes()) == (bytes1, bytes2)
    arrays = [M1.data, M2.data] + [factor._matrix.data for factor in factors]
    for i, a in enumerate(arrays):
        for other in arrays[i + 1:]:
            assert not np.shares_memory(a, other)
    M1.data[:] = 0.0
    assert M2.data.tobytes() == bytes2
    assert operator_matrix(operator, first).data.tobytes() == bytes1


def test_solves_build_no_matrix(reuse_case, monkeypatch):
    # A factor builds its matrix once, and its solves refill that one.
    mesh, setup, currents, operator, first, second = reuse_case
    factor = LastFactor(operator)
    calls = []
    new_matrix = CemOperator._new_matrix

    def counted(self):
        calls.append(self)
        return new_matrix(self)

    monkeypatch.setattr(CemOperator, "_new_matrix", counted)
    for sigma in (first, second, first):
        solve_forward(mesh, sigma, setup, currents, factor=factor)
    assert factor.pcg_iterations > 0
    assert calls == []


# ----------------------------------------------------------------- flux

def test_flux_closed_form():
    z0, z1, alpha = 0.7, 0.2, 1.3
    mesh, setup, currents = two_electrode_case(10, z0, z1, alpha)
    sol = solve_forward(mesh, ones(mesh), setup, currents)
    assert electrode_flux(mesh, setup, sol, 1) == pytest.approx(alpha, rel=1e-11)
    assert electrode_flux(mesh, setup, sol, 0) == pytest.approx(-alpha, rel=1e-11)


def test_flux_zero_problem(equal_z_case):
    mesh, setup, _ = equal_z_case
    sol = solve_forward(mesh, ones(mesh), setup, CurrentPattern(np.zeros(2)))
    for k in range(2):
        assert electrode_flux(mesh, setup, sol, k) == 0.0


def test_flux_conservation_random():
    rng = np.random.default_rng(23)
    for _ in range(5):
        mesh, setup, currents, sigma = random_case(rng, 12)
        sol = solve_forward(mesh, sigma, setup, currents)
        fluxes = np.array([electrode_flux(mesh, setup, sol, k)
                           for k in range(setup.count)])
        scale = np.max(np.abs(currents.values))
        assert np.max(np.abs(fluxes - currents.values)) <= 1e-8 * scale
        assert abs(fluxes.sum()) <= 1e-9


def test_flux_index_checked(equal_z_case):
    mesh, setup, currents = equal_z_case
    sol = solve_forward(mesh, ones(mesh), setup, currents)
    with pytest.raises(ValueError):
        electrode_flux(mesh, setup, sol, 2)


# ----------------------------------------------------- interior current

def test_interior_current_closed_form(equal_z_case):
    mesh, setup, currents = equal_z_case
    sol = solve_forward(mesh, ones(mesh), setup, currents)
    J, a = interior_current(mesh, ones(mesh), sol)
    assert np.max(np.abs(J - np.array([0.0, -ALPHA]))) < 1e-14
    assert np.max(np.abs(a - ALPHA)) < 1e-14


def test_interior_current_reparameterized_family():
    # sigma = 1/phi'(y) with potential phi(y) carries unit current magnitude.
    mesh = build_uniform_mesh(9)
    y = mesh.nodes[:, 1]
    u = (2.0 * y + y * y) / 3.0
    grad = triangle_gradients(mesh, u)
    sigma = ConductivityField(1.0 / np.hypot(grad[:, 0], grad[:, 1]))
    sol = ForwardSolution(u=u, U=np.array([-1.0, 1.0]), grad_u=grad)
    _, a = interior_current(mesh, sigma, sol)
    assert np.max(np.abs(a - 1.0)) < 1e-12


def test_interior_current_magnitude_is_sigma_times_gradient_norm():
    rng = np.random.default_rng(3)
    mesh, setup, currents, sigma = random_case(rng, side_nodes=11)
    sol = solve_forward(mesh, sigma, setup, currents)
    g = sol.grad_u
    J, a = interior_current(mesh, sigma, sol)
    assert np.array_equal(a, sigma.values * _gradient_norm(g))
    assert np.array_equal(J, -sigma.values[:, None] * g)


def test_interior_current_constant_potential():
    mesh = build_uniform_mesh(5)
    u = np.full(mesh.node_count, 3.7)
    sol = ForwardSolution(u=u, U=np.zeros(2), grad_u=triangle_gradients(mesh, u))
    sigma = ConductivityField(np.full(mesh.triangle_count, 2.0))
    J, a = interior_current(mesh, sigma, sol)
    assert np.max(np.abs(J)) == 0.0
    assert np.max(a) == 0.0


# ------------------------------------------------------------ diagnostic

def test_max_principle_diagnostic():
    # Diagnostic only: the discrete scheme is not provably monotone, so a
    # violation is reported as a warning rather than a failure.
    rng = np.random.default_rng(31)
    for _ in range(5):
        mesh, setup, currents, sigma = random_case(rng, 10)
        sol = solve_forward(mesh, sigma, setup, currents)
        excess = max_principle_excess(mesh, setup, sol)
        tol = 1e-8 * float(np.ptp(sol.u))
        if excess > tol:
            warnings.warn(
                f"discrete max principle violated by {excess:.3e}",
                stacklevel=1,
            )
