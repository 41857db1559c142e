"""Property tests of the time-marching invariants over random geometries.

Plateau couplings and observation weights, mode counts N <= 12, horizons and
forcing frequencies are drawn by hypothesis; the draws are derandomized so
the suite stays deterministic.
"""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from wavecascade.spectral import CoefficientFunction, ModalCoefficients, PlateauBump, SpectralSpace
from wavecascade.dynamics import (
    CascadeState,
    ComponentState,
    CouplingOperator,
    Observer,
    TimeGrid,
    cascade_step_matrix,
    duality_pairing,
    evolve_cascade,
    evolve_cascade_backward,
    evolve_forced_scalar,
)
from wavecascade.hum import (
    HUMProblem,
    TimeSampledControl,
    controlled_forward,
    solve_hum,
)
from wavecascade.observability import (
    _audit_forms,
    gcc_min_time,
    gramian_matrix,
    observation_history,
    weighted_gram,
)

from oracles import adjoint_march, perturbation_response

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
    problem = HUMProblem(CascadeState.from_vector(x, space), coupling, observer, grid)
    forward = controlled_forward(problem, None)
    adjoint = adjoint_march(w, problem)
    n = space.n_modes
    pairings = np.array([duality_pairing(y, a, n) for y, a in zip(forward, adjoint)])
    scale = np.max(np.linalg.norm(forward, axis=1) * np.linalg.norm(adjoint, axis=1))
    assert np.max(np.abs(pairings - pairings[0])) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(geometry())
def test_first_component_energy_is_conserved_along_the_cascade(case):
    # u1 is free, so every step rotates each of its modes exactly
    space, coupling, _, grid, x, _ = case
    traj = evolve_cascade(CascadeState.from_vector(x, space), coupling, grid)
    for k in (0, 1):
        series = traj.energy_series(1, k)
        assert np.max(np.abs(series - series[0])) <= 1e-12 * series[0]


@PROPERTY_SETTINGS
@given(geometry(), st.floats(0.0, 20.0))
def test_forced_scalar_matches_per_step_rotate_then_kick_loop(case, freq):
    space, _, _, grid, x, g = case
    n = space.n_modes
    p, v, g = x[:n], x[n : 2 * n], g[:n]
    forcing = lambda t: np.cos(freq * t) * g
    states = evolve_forced_scalar(
        ComponentState(ModalCoefficients(p, space), ModalCoefficients(v, space)), forcing, grid
    )
    dt, om = grid.dt, space.frequencies
    expected = [np.concatenate([p, v])]
    for t in grid.times[:-1]:
        p, v = np.cos(om * dt) * p + np.sin(om * dt) / om * v, -om * np.sin(om * dt) * p + np.cos(om * dt) * v
        for tau, w in ((0.0, dt / 6.0), (0.5 * dt, 4.0 * dt / 6.0), (dt, dt / 6.0)):
            f = forcing(t + tau)
            p, v = p + w * np.sin(om * (dt - tau)) / om * f, v + w * np.cos(om * (dt - tau)) * f
        expected.append(np.concatenate([p, v]))
    expected = np.array(expected)
    assert np.max(np.abs(states - expected)) <= 1e-12 * np.max(np.abs(expected))


@PROPERTY_SETTINGS
@given(geometry(), st.booleans(), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_simpson_doubling_matches_per_node_loop(case, one_row, half_steps, seed):
    # M = 2k steps sweep the bit patterns of k, which the doubling walks
    space, coupling, _, grid, _, _ = case
    n = space.n_modes
    grid = TimeGrid(grid.horizon, 2 * half_steps)
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((1 if one_row else n, 4 * n))
    step = cascade_step_matrix(space, coupling.matrix, grid.dt)
    reference = np.zeros((4 * n, 4 * n))
    block = rows
    for w in grid.node_weights:
        reference += w * (block.T @ block)
        block = block @ step
    gram = weighted_gram(rows.T @ rows, step, grid)
    assert np.max(np.abs(gram - reference)) <= 1e-13 * np.max(np.abs(reference))


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
    gram = gramian_matrix(coupling, observer, grid, space)
    assert np.array_equal(gram, gram.T)
    eigvals = np.linalg.eigvalsh(gram)
    assert eigvals[0] >= -1e-12 * eigvals[-1]


@PROPERTY_SETTINGS
@given(geometry(), st.floats(-10.0, 10.0), st.floats(0.0, 20.0), st.integers(0, 2**32 - 1))
def test_controlled_solve_is_affine_in_the_known_data(case, tau, freq, seed):
    # the insensitizing certificate differences Phi along base + tau * response
    space, coupling, observer, grid, x, w = case
    n = space.n_modes
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n)
    control = TimeSampledControl(rng.standard_normal((grid.n_steps + 1, n)), grid)

    def data(v):  # known position and velocity of the controlled component
        return CascadeState(space.zero(), ModalCoefficients(v[:n], space), space.zero(),
                            ModalCoefficients(v[n : 2 * n], space))

    problem = HUMProblem(data(x), coupling, observer, grid, source=lambda t: np.cos(freq * t) * g)
    base = controlled_forward(problem, control)
    response = perturbation_response(problem, w[:n], w[n : 2 * n])
    perturbed = controlled_forward(replace(problem, initial_data=data(x + tau * w)), control)
    scale = max(np.max(np.abs(base)), np.max(np.abs(tau * response)))
    assert np.max(np.abs(perturbed - (base + tau * response))) <= 1e-12 * scale


@st.composite
def hum_case(draw):
    """Interior or boundary HUM problem and a second data vector.

    The horizon exceeds the sum of the coupling's and the control's
    geometric control times: above their maximum alone, one-sided boundary
    controls of the cascade still fail the observability floor.
    """
    space = SpectralSpace(draw(st.integers(2, 12)))
    coupling = CouplingOperator(draw(plateau()), space)
    if draw(st.booleans()):
        observer = Observer("interior", weight=draw(plateau()))
    else:
        sides = draw(st.sampled_from([(1, 0), (0, 1), (1, 1)]))
        b_left, b_right = (s * draw(st.floats(0.25, 2.0)) for s in sides)
        observer = Observer("boundary", b_left=b_left, b_right=b_right)
    horizon = gcc_min_time(coupling.core_region) + gcc_min_time(observer.region) + draw(st.floats(0.25, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, w = rng.standard_normal((2, 4 * space.n_modes))
    grid = TimeGrid.for_space(space, horizon)
    return HUMProblem(CascadeState.from_vector(x, space), coupling, observer, grid), w


@PROPERTY_SETTINGS
@given(hum_case(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_hum_solution_map_is_linear(case, alpha, beta):
    problem, w = case
    x = problem.initial_data.as_vector()

    def control(v):
        return solve_hum(replace(problem, initial_data=CascadeState.from_vector(v, problem.space))).control.values

    cx, cw = control(x), control(w)
    mixed = control(alpha * x + beta * w)
    scale = np.linalg.norm(alpha * cx) + np.linalg.norm(beta * cw)
    assert np.linalg.norm(mixed - (alpha * cx + beta * cw)) <= 1e-7 * scale
