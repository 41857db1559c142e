"""Tests for the exact-control synthesis."""

import numpy as np
import pytest

from wavecascade.errors import ConvergenceError, RefusalError, ValidationError
from wavecascade.spectral import (
    CoefficientFunction,
    ModalCoefficients,
    PlateauBump,
    SpectralSpace,
)
from wavecascade.dynamics import (
    CascadeState,
    CouplingOperator,
    Observer,
    TimeGrid,
    duality_pairing,
    invert_generator,
)
from wavecascade.observability import gramian_form
from wavecascade.hum import (
    HUMProblem,
    TimeSampledControl,
    apply_hum_gramian,
    assemble_rhs,
    adjoint_space_weights,
    control_space_norms,
    controlled_forward,
    dense_hum_matrix,
    solve_hum,
    verify_transposition,
)
from wavecascade.hum import _backward_states, _workspace

RNG = np.random.default_rng(20240814)

COUPLING_FN = CoefficientFunction((PlateauBump(0.2, 0.3, 0.05, 1.0),), core_region=(0.2, 0.3))
CONTROL_FN = CoefficientFunction((PlateauBump(0.6, 0.7, 0.05, 1.0),), core_region=(0.6, 0.7))


def interior_problem(n_modes=16, horizon=4.0, data=None, coupling=True, source=None, **kw):
    space = SpectralSpace(n_modes)
    if data is None:
        data = CascadeState.from_vector(RNG.standard_normal(4 * n_modes), space)
    return HUMProblem(
        "interior",
        data,
        CouplingOperator(COUPLING_FN, space) if coupling else None,
        Observer("interior", weight=CONTROL_FN),
        TimeGrid.for_space(space, horizon, 0.4),
        source=source,
        **kw,
    )


def boundary_problem(n_modes=16, horizon=4.0, data=None, **kw):
    space = SpectralSpace(n_modes)
    if data is None:
        data = CascadeState.from_vector(RNG.standard_normal(4 * n_modes), space)
    return HUMProblem(
        "boundary",
        data,
        CouplingOperator(COUPLING_FN, space),
        Observer("boundary", b_left=1.0),
        TimeGrid.for_space(space, horizon, 0.4),
        **kw,
    )


class TestGramianOperator:
    def test_zero_maps_to_zero(self):
        prob = interior_problem(8)
        out = apply_hum_gramian(np.zeros(32), prob)
        assert np.all(out == 0.0)

    def test_matrix_free_matches_dense_on_random_vectors(self):
        prob = interior_problem(8)
        ws = _workspace(prob)
        gram = dense_hum_matrix(prob, ws)
        for _ in range(50):
            u = RNG.standard_normal(32)
            dense = gram @ u
            free = apply_hum_gramian(u, prob, ws)
            assert np.max(np.abs(free - dense)) <= 1e-8 * max(np.max(np.abs(dense)), 1e-300)

    def test_self_adjointness(self):
        prob = interior_problem(8)
        ws = _workspace(prob)
        for _ in range(10):
            u = RNG.standard_normal(32)
            v = RNG.standard_normal(32)
            left = float(v @ apply_hum_gramian(u, prob, ws))
            right = float(u @ apply_hum_gramian(v, prob, ws))
            assert abs(left - right) <= 1e-8 * max(abs(left), abs(right))

    def test_quadratic_form_matches_observability_gramian_of_shifted_data(self):
        # the control form observes the adjoint position, which equals the
        # velocity observation of the generator-inverted trajectory
        space = SpectralSpace(8)
        grid = TimeGrid.for_space(space, 4.0, 0.05)
        coupling = CouplingOperator(COUPLING_FN, space)
        prob = HUMProblem(
            "interior",
            CascadeState.zero(space),
            coupling,
            Observer("interior", weight=CONTROL_FN),
            grid,
        )
        ws = _workspace(prob)
        wt = RNG.standard_normal(32)
        quad = float(wt @ apply_hum_gramian(wt, prob, ws))
        states = _backward_states(wt, ws, grid)
        shifted_initial = invert_generator(CascadeState.from_vector(states[0], space), coupling)
        observed = gramian_form(shifted_initial, coupling, Observer("interior", weight=CONTROL_FN), grid)
        assert quad == pytest.approx(observed, rel=1e-8)


class TestAssembleRhs:
    def test_zero_data_zero_functional(self):
        space = SpectralSpace(8)
        prob = interior_problem(8, data=CascadeState.zero(space))
        assert np.all(assemble_rhs(prob) == 0.0)

    def test_functional_matches_direct_evaluation(self):
        for make in (interior_problem, boundary_problem):
            prob = make(8, source=lambda t: np.sin(t) * np.ones(8))
            ws = _workspace(prob)
            ell = assemble_rhs(prob, ws)
            grid = prob.grid
            for _ in range(10):
                probe = RNG.standard_normal(32)
                states = _backward_states(probe, ws, grid)
                direct = duality_pairing(prob.initial_data.as_vector(), states[0], 8)
                direct += float(
                    grid.node_weights
                    @ np.einsum("mi,mi->m", ws.source_nodes, states[:, 8:16])
                )
                paired = float(ell @ probe)
                assert paired == pytest.approx(direct, rel=1e-8, abs=1e-12)

    def test_second_component_data_reduces_to_scalar_form(self):
        # data only in the controlled component pairs only against its slots
        space = SpectralSpace(8)
        y2 = ModalCoefficients(RNG.standard_normal(8), space)
        dy2 = ModalCoefficients(RNG.standard_normal(8), space)
        data = CascadeState(space.zero(), y2, space.zero(), dy2)
        prob = interior_problem(8, data=data)
        ws = _workspace(prob)
        ell = assemble_rhs(prob, ws)
        probe = RNG.standard_normal(32)
        states = _backward_states(probe, ws, prob.grid)
        w2_0 = states[0, 8:16]
        dw2_0 = states[0, 24:32]
        scalar_form = float(dy2.coeffs @ w2_0 - y2.coeffs @ dw2_0)
        assert float(ell @ probe) == pytest.approx(scalar_form, rel=1e-10)


class TestSolve:
    def test_zero_problem_returns_zero_control(self):
        space = SpectralSpace(8)
        sol = solve_hum(interior_problem(8, data=CascadeState.zero(space)))
        assert sol.cg_iterations == 0
        assert sol.control.squared_time_norm() == 0.0
        assert sol.terminal_norms["total"] == 0.0

    def test_decoupled_second_component_scalar_reduction(self):
        space = SpectralSpace(8)
        y2 = ModalCoefficients(RNG.standard_normal(8), space)
        dy2 = ModalCoefficients(RNG.standard_normal(8), space)
        data = CascadeState(space.zero(), y2, space.zero(), dy2)
        sol = solve_hum(interior_problem(8, data=data, coupling=False))
        assert sol.terminal_norms["total"] <= 1e-6 * sol.initial_norm

    def test_interior_terminal_nulling(self):
        sol = solve_hum(interior_problem(16, cg_tolerance=1e-10))
        for name in ("y1", "y2", "dy1", "dy2"):
            assert sol.terminal_norms[name] <= 1e-6 * sol.initial_norm
        assert sol.final_residual <= 1e-10
        assert sol.duality_residual < 1e-6

    def test_boundary_terminal_nulling(self):
        sol = solve_hum(boundary_problem(16, cg_tolerance=1e-10))
        for name in ("y1", "y2", "dy1", "dy2"):
            assert sol.terminal_norms[name] <= 1e-6 * sol.initial_norm

    def test_cg_matches_dense_solve(self):
        prob = interior_problem(8, cg_tolerance=1e-12)
        ws = _workspace(prob)
        sol = solve_hum(prob)
        gram = dense_hum_matrix(prob, ws)
        dense = np.linalg.solve(
            gram + 1e-300 * np.eye(32), -assemble_rhs(prob, ws)
        )
        rel = np.linalg.norm(sol.minimizer.as_vector() - dense) / np.linalg.norm(dense)
        assert rel < 1e-6

    def test_cg_matches_solve_on_matrix_free_gramian(self):
        prob = interior_problem(8, cg_tolerance=1e-12)
        ws = _workspace(prob)
        sol = solve_hum(prob)
        gram = np.column_stack([apply_hum_gramian(e, prob, ws) for e in np.eye(32)])
        oracle = np.linalg.solve(gram, -assemble_rhs(prob, ws))
        rel = np.linalg.norm(sol.minimizer.as_vector() - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-6

    def test_solution_map_is_linear(self):
        space = SpectralSpace(8)
        da = CascadeState.from_vector(RNG.standard_normal(32), space)
        db = CascadeState.from_vector(RNG.standard_normal(32), space)
        mix = CascadeState.from_vector(0.7 * da.as_vector() - 1.3 * db.as_vector(), space)
        sols = [
            solve_hum(interior_problem(8, data=d, cg_tolerance=1e-13, max_iterations=4000))
            for d in (da, db, mix)
        ]
        combo = 0.7 * sols[0].control.values - 1.3 * sols[1].control.values
        scale = np.max(np.abs(combo))
        assert np.max(np.abs(sols[2].control.values - combo)) <= 1e-8 * scale

    def test_control_is_minimum_norm(self):
        # the extracted control must be quadrature-orthogonal to the kernel
        # of the control-to-terminal-state map (Lagrange condition)
        from wavecascade.hum import _pairing_matrix_apply

        prob = interior_problem(8, horizon=2.0, cg_tolerance=1e-12)
        ws = _workspace(prob)
        sol = solve_hum(prob)
        grid = prob.grid
        n = 8
        q = ws.obs_rows.shape[0]
        base = np.zeros((4 * n, q))
        for j in range(q):
            base[:, j] = _pairing_matrix_apply(ws.obs_rows.T[:, j], n)
        # reachability matrix: columns are terminal states of unit samples
        power = np.eye(4 * n)
        blocks = [None] * (grid.n_steps + 1)
        for m in range(grid.n_steps, -1, -1):
            blocks[m] = grid.node_weights[m] * (power @ base)
            power = power @ ws.step_controlled
        reach = np.hstack(blocks)
        _, svals, vt = np.linalg.svd(reach, full_matrices=True)
        null_dirs = vt[np.count_nonzero(svals > 1e-10 * svals[0]) :]
        v_flat = sol.control.values.reshape(-1)
        weights = np.repeat(grid.node_weights, q)
        v_norm = np.sqrt(float(v_flat @ (weights * v_flat)))
        for direction in null_dirs[:: max(1, len(null_dirs) // 20)]:
            d_norm = np.sqrt(float(direction @ (weights * direction)))
            inner = float(v_flat @ (weights * direction))
            assert abs(inner) <= 1e-6 * v_norm * d_norm

    def test_refuses_below_observability_floor(self):
        with pytest.raises(RefusalError) as err:
            solve_hum(interior_problem(8, horizon=0.3))
        assert "floor" in err.value.diagnostic

    def test_boundary_refusal_above_n64(self):
        # T = 1.5 is below the geometric control time 2 of one boundary endpoint
        with pytest.raises(RefusalError) as err:
            solve_hum(boundary_problem(80, horizon=1.5))
        assert "contrast" in err.value.diagnostic

    def test_stagnation_reports_trace(self):
        with pytest.raises(ConvergenceError) as err:
            solve_hum(interior_problem(8, max_iterations=2))
        assert len(err.value.trace) >= 2

    def test_case_observer_mismatch_rejected(self):
        space = SpectralSpace(8)
        with pytest.raises(ValidationError):
            HUMProblem(
                "interior",
                CascadeState.zero(space),
                None,
                Observer("boundary", b_left=1.0),
                TimeGrid.for_space(space, 4.0, 0.4),
            )


class TestTransposition:
    def test_trivial_zero_case(self):
        space = SpectralSpace(8)
        prob = interior_problem(8, data=CascadeState.zero(space))
        report = verify_transposition(prob, None, n_probes=5)
        assert report["max_residual"] == 0.0

    def test_scalar_specialization_with_random_control(self):
        # no coupling and no first-component data: the identity reduces to
        # the scalar wave transposition relation
        space = SpectralSpace(16)
        data = CascadeState(
            space.zero(),
            ModalCoefficients(RNG.standard_normal(16), space),
            space.zero(),
            ModalCoefficients(RNG.standard_normal(16), space),
        )
        prob = interior_problem(16, data=data, coupling=False)
        control = TimeSampledControl(
            RNG.standard_normal((prob.grid.n_steps + 1, 16)), "interior", prob.grid
        )
        report = verify_transposition(prob, control, n_probes=20, seed=5)
        assert report["max_residual"] < 1e-6

    def test_cascade_case_with_random_control(self):
        prob = interior_problem(16)
        control = TimeSampledControl(
            RNG.standard_normal((prob.grid.n_steps + 1, 16)), "interior", prob.grid
        )
        report = verify_transposition(prob, control, n_probes=20, seed=6)
        assert report["max_residual"] < 1e-6

    def test_boundary_case_with_random_control(self):
        prob = boundary_problem(16)
        control = TimeSampledControl(
            RNG.standard_normal((prob.grid.n_steps + 1, 1)), "boundary", prob.grid
        )
        report = verify_transposition(prob, control, n_probes=20, seed=7)
        assert report["max_residual"] < 1e-6

    def test_source_term_enters_identity(self):
        g = RNG.standard_normal(8)
        prob = interior_problem(8, source=lambda t: np.cos(2.0 * t) * g)
        control = TimeSampledControl(
            RNG.standard_normal((prob.grid.n_steps + 1, 8)), "interior", prob.grid
        )
        report = verify_transposition(prob, control, n_probes=10, seed=8)
        assert report["max_residual"] < 1e-6

    def test_non_finite_source_rejected(self):
        prob = interior_problem(8, source=lambda t: np.full(8, np.nan))
        with pytest.raises(ValidationError, match="non-finite"):
            _workspace(prob)


class TestSpaces:
    def test_adjoint_weights_orders(self):
        space = SpectralSpace(4)
        lam = space.eigenvalues
        w = adjoint_space_weights(space, "interior")
        assert np.allclose(w[:4], 1.0 / lam)
        assert np.allclose(w[4:8], 1.0)
        assert np.allclose(w[8:12], 1.0 / lam**2)
        assert np.allclose(w[12:], 1.0 / lam)
        w = adjoint_space_weights(space, "boundary")
        assert np.allclose(w[:4], 1.0)
        assert np.allclose(w[4:8], lam)

    def test_control_space_norms_orders(self):
        space = SpectralSpace(4)
        vec = np.zeros(16)
        vec[0] = 1.0  # y1 = phi_1
        norms = control_space_norms(vec, space, "interior")
        assert norms["y1"] == pytest.approx(np.pi**2)  # H2 norm of phi_1
        norms = control_space_norms(vec, space, "boundary")
        assert norms["y1"] == pytest.approx(np.pi)  # H1 norm
