"""Property tests of the time-marching invariants over random geometries.

Plateau couplings and observation weights, mode counts N <= 12 and horizons
are drawn by hypothesis; the draws are derandomized so the suite stays
deterministic.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from wavecascade.spectral import CoefficientFunction, PlateauBump, SpectralSpace
from wavecascade.dynamics import (
    CascadeState,
    CouplingOperator,
    Observer,
    TimeGrid,
    cascade_step_matrix,
    duality_pairing,
    evolve_cascade,
    evolve_cascade_backward,
)
from wavecascade.hum import HUMProblem, _backward_states, _workspace, controlled_forward
from wavecascade.observability import _audit_forms, gramian_matrix, observation_history, weighted_gram

PROPERTY_SETTINGS = settings(max_examples=15, derandomize=True, deadline=None)


@st.composite
def plateau(draw):
    """Positive plateau bump with its plateau as core region."""
    lo = draw(st.floats(0.05, 0.75))
    hi = lo + draw(st.floats(0.05, 0.2))
    bump = PlateauBump(lo, hi, draw(st.floats(0.01, 0.05)), draw(st.floats(0.25, 2.0)))
    return CoefficientFunction((bump,), core_region=(lo, hi))


@st.composite
def geometry(draw):
    """Space, coupling, interior observer, grid and random state vectors."""
    space = SpectralSpace(draw(st.integers(2, 12)))
    grid = TimeGrid.for_space(space, draw(st.floats(0.25, 3.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = space.n_modes
    return (
        space,
        CouplingOperator(draw(plateau()), space),
        Observer("interior", weight=draw(plateau())),
        grid,
        rng.standard_normal(4 * n),
        rng.standard_normal(4 * n),
    )


@PROPERTY_SETTINGS
@given(geometry())
def test_backward_evolution_undoes_forward_evolution(case):
    space, coupling, _, grid, x, _ = case
    forward = evolve_cascade(CascadeState.from_vector(x, space), coupling, grid)
    back = evolve_cascade_backward(forward.final_state, coupling, grid)
    assert np.linalg.norm(back.states[0] - x) <= 1e-12 * np.linalg.norm(x)


@PROPERTY_SETTINGS
@given(geometry())
def test_duality_pairing_is_constant_along_controlled_and_adjoint_trajectories(case):
    space, coupling, observer, grid, x, w = case
    problem = HUMProblem("interior", CascadeState.from_vector(x, space), coupling, observer, grid)
    ws = _workspace(problem)
    forward = controlled_forward(problem, None, ws)
    adjoint = _backward_states(w, ws, grid)
    n = space.n_modes
    pairings = np.array([duality_pairing(y, a, n) for y, a in zip(forward, adjoint)])
    scale = np.max(np.linalg.norm(forward, axis=1) * np.linalg.norm(adjoint, axis=1))
    assert np.max(np.abs(pairings - pairings[0])) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(geometry(), st.booleans(), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_chunked_weighted_gram_matches_per_node_loop(case, one_row, n_weights, seed):
    # r = 1 takes chunks of k = 4N nodes, r = N chunks of 4; the weight
    # counts fall short of one chunk or end inside one
    space, coupling, _, grid, _, _ = case
    n = space.n_modes
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((1 if one_row else n, 4 * n))
    step = cascade_step_matrix(space, coupling.matrix, grid.dt)
    weights = rng.random(n_weights)
    reference = np.zeros((4 * n, 4 * n))
    block = rows
    for w in weights:
        reference += w * (block.T @ block)
        block = block @ step
    gram = weighted_gram(rows, step, weights)
    assert np.linalg.norm(gram - reference) <= 1e-12 * np.linalg.norm(reference)


@PROPERTY_SETTINGS
@given(geometry())
def test_audit_forms_match_simulated_functionals(case):
    space, coupling, observer, grid, x, _ = case
    n = space.n_modes
    traj = evolve_cascade(CascadeState.from_vector(x, space), coupling, grid)
    fw, nw = grid.fine_weights, grid.node_weights
    phase = np.multiply.outer(grid.fine_times, space.frequencies)
    u1_fine = np.cos(phase) * x[:n] + np.sin(phase) / space.frequencies * x[2 * n : 3 * n]
    cu1 = u1_fine @ coupling.matrix.T
    e1_u2 = traj.energy_series(2, 1)
    first_pair = lambda s: s[2 * n : 3 * n] @ s[n : 2 * n] - s[3 * n :] @ s[:n]
    simulated = {
        "obs_int": nw @ (observation_history(traj, observer) ** 2).sum(axis=1),
        "e1_u2_0": e1_u2[0],
        "e1_u2_T": e1_u2[-1],
        "e1_u2_int": nw @ e1_u2,
        "e0_u1_0": traj.energy_series(1, 0)[0],
        "coupling_int": fw @ np.einsum("ki,ki->k", cu1, u1_fine),
        "coupling_sq_int": fw @ np.einsum("ki,ki->k", cu1, cu1),
        "proj_int": fw @ np.einsum("ki,ij,kj->k", u1_fine, coupling.projection_matrix, u1_fine),
        "boundary_term": first_pair(traj.states[-1]) - first_pair(traj.states[0]),
        "balance_int": nw @ np.einsum("ki,ki->k", traj.block("u1") @ coupling.matrix.T, traj.block("v2")),
    }
    forms = _audit_forms(coupling, observer, grid, space)
    assert forms.keys() == simulated.keys()
    scale = max(abs(v) for v in simulated.values())
    for name, form in forms.items():
        assert abs(x @ form @ x - simulated[name]) <= 1e-10 * scale, name


@PROPERTY_SETTINGS
@given(geometry())
def test_solver_gramian_is_symmetric_positive_semidefinite(case):
    space, coupling, observer, grid, _, _ = case
    gram = gramian_matrix(coupling, observer, grid, space, propagator="solver")
    assert np.array_equal(gram, gram.T)
    eigvals = np.linalg.eigvalsh(gram)
    assert eigvals[0] >= -1e-12 * eigvals[-1]
