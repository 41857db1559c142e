"""Tests for the exact-control synthesis."""

import tracemalloc

import numpy as np
import pytest

from wavecascade.errors import RefusalError, ValidationError
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
)
from wavecascade.hum import (
    OBSERVABILITY_FLOOR,
    HUMProblem,
    TimeSampledControl,
    apply_hum_gramian,
    assemble_rhs,
    adjoint_space_weights,
    control_space_norms,
    controlled_forward,
    data_norm,
    dense_hum_matrix,
    solve_hum,
    verify_transposition,
)
from wavecascade.dynamics import _component_indices
from wavecascade.hum import _sweep_back

from oracles import adjoint_march, first_driven_step_matrix, gramian_form, invert_generator

RNG = np.random.default_rng(20240814)

COUPLING_FN = CoefficientFunction((PlateauBump(0.2, 0.3, 0.05, 1.0),), core_region=(0.2, 0.3))
CONTROL_FN = CoefficientFunction((PlateauBump(0.6, 0.7, 0.05, 1.0),), core_region=(0.6, 0.7))


def interior_problem(n_modes=16, horizon=4.0, data=None, coupling=True, source=None):
    space = SpectralSpace(n_modes)
    if data is None:
        data = CascadeState.from_vector(RNG.standard_normal(4 * n_modes), space)
    return HUMProblem(
        data,
        CouplingOperator(COUPLING_FN, space) if coupling else None,
        Observer("interior", weight=CONTROL_FN),
        TimeGrid.for_space(space, horizon, 0.4),
        source=source,
    )


def boundary_problem(n_modes=16, horizon=4.0, data=None, source=None):
    space = SpectralSpace(n_modes)
    if data is None:
        data = CascadeState.from_vector(RNG.standard_normal(4 * n_modes), space)
    return HUMProblem(
        data,
        CouplingOperator(COUPLING_FN, space),
        Observer("boundary", b_left=1.0),
        TimeGrid.for_space(space, horizon, 0.4),
        source=source,
    )


class TestGramianOperator:
    def test_zero_maps_to_zero(self):
        prob = interior_problem(8)
        out = apply_hum_gramian(np.zeros(32), prob)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("with_source", [False, True])
    @pytest.mark.parametrize("make", [interior_problem, boundary_problem])
    def test_matrix_free_matches_dense_on_random_vectors(self, make, with_source):
        # Lambda sweeps, observes and marches from rest: it reads neither the data nor the source
        rng = np.random.default_rng(47)
        data = CascadeState.from_vector(rng.standard_normal(32), SpectralSpace(8))
        g = rng.standard_normal(8)
        prob = make(8, data=data, source=(lambda t: np.cos(2.0 * t) * g) if with_source else None)
        bare = make(8, data=CascadeState.zero(SpectralSpace(8)))
        gram = dense_hum_matrix(prob)
        for _ in range(50):
            u = rng.standard_normal(32)
            dense = gram @ u
            free = apply_hum_gramian(u, prob)
            assert np.max(np.abs(free - dense)) <= 1e-8 * max(np.max(np.abs(dense)), 1e-300)
            assert np.array_equal(free, apply_hum_gramian(u, bare))

    def test_self_adjointness(self):
        prob = interior_problem(8)
        for _ in range(10):
            u = RNG.standard_normal(32)
            v = RNG.standard_normal(32)
            left = float(v @ apply_hum_gramian(u, prob))
            right = float(u @ apply_hum_gramian(v, prob))
            assert abs(left - right) <= 1e-8 * max(abs(left), abs(right))

    def test_quadratic_form_matches_observability_gramian_of_shifted_data(self):
        # the control form observes the adjoint position, which equals the
        # velocity observation of the generator-inverted trajectory
        space = SpectralSpace(8)
        grid = TimeGrid.for_space(space, 4.0, 0.05)
        coupling = CouplingOperator(COUPLING_FN, space)
        prob = HUMProblem(
            CascadeState.zero(space),
            coupling,
            Observer("interior", weight=CONTROL_FN),
            grid,
        )
        wt = RNG.standard_normal(32)
        quad = float(wt @ apply_hum_gramian(wt, prob))
        states = adjoint_march(wt, prob)
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
            ell = assemble_rhs(prob)
            grid = prob.grid
            for _ in range(10):
                probe = RNG.standard_normal(32)
                states = adjoint_march(probe, prob)
                direct = duality_pairing(prob.initial_data.as_vector(), states[0], 8)
                direct += float(
                    grid.node_weights
                    @ np.einsum("mi,mi->m", prob.source_nodes, states[:, 8:16])
                )
                paired = float(ell @ probe)
                assert paired == pytest.approx(direct, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("make", [interior_problem, boundary_problem])
    def test_matches_adjoint_accumulation_march(self, make):
        # reference: march the transposed backward step over the weighted
        # source nodes, starting from the paired initial data
        prob = make(8, source=lambda t: np.sin(t) * np.ones(8))
        n, m = 8, prob.grid.n_steps
        states = np.zeros((m + 1, 4 * n))
        states[:, n : 2 * n] = prob.source_nodes
        states *= prob.grid.node_weights[:, None]
        x0 = prob.initial_data.as_vector()
        states[0] -= np.concatenate([-x0[2 * n :], x0[: 2 * n]])
        for k in range(m):
            states[k + 1] += prob.step_back.T @ states[k]
        expected = states[-1]
        # two marches of m steps in different orders: rounding grows with m
        tol = m * np.finfo(float).eps
        assert np.linalg.norm(assemble_rhs(prob) - expected) <= tol * np.linalg.norm(expected)

    @pytest.mark.parametrize("n_modes", [8, 32])
    @pytest.mark.parametrize("make", [interior_problem, boundary_problem])
    def test_source_free_functional_is_minus_j_of_the_marched_terminal_state(self, make, n_modes):
        # -(P^-M)^T J y0 from the Gramian's doubling against -J y(T) marched forward
        prob = make(n_modes)
        n = n_modes
        y_final = controlled_forward(prob, None)[-1]
        expected = -np.concatenate([-y_final[2 * n :], y_final[: 2 * n]])
        # one march of m steps against one doubling: rounding grows with m
        tol = prob.grid.n_steps * np.finfo(float).eps
        assert np.linalg.norm(assemble_rhs(prob) - expected) <= tol * np.linalg.norm(expected)

    def test_second_component_data_reduces_to_scalar_form(self):
        # data only in the controlled component pairs only against its slots
        space = SpectralSpace(8)
        y2 = ModalCoefficients(RNG.standard_normal(8), space)
        dy2 = ModalCoefficients(RNG.standard_normal(8), space)
        data = CascadeState(space.zero(), y2, space.zero(), dy2)
        prob = interior_problem(8, data=data)
        ell = assemble_rhs(prob)
        probe = RNG.standard_normal(32)
        states = adjoint_march(probe, prob)
        w2_0 = states[0, 8:16]
        dw2_0 = states[0, 24:32]
        scalar_form = float(dy2.coeffs @ w2_0 - y2.coeffs @ dw2_0)
        assert float(ell @ probe) == pytest.approx(scalar_form, rel=1e-10)


class TestSolve:
    def test_zero_problem_returns_zero_control(self):
        space = SpectralSpace(8)
        sol = solve_hum(interior_problem(8, data=CascadeState.zero(space)))
        assert sol.final_residual == 0.0
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
        sol = solve_hum(interior_problem(16))
        for name in ("y1", "y2", "dy1", "dy2"):
            assert sol.terminal_norms[name] <= 1e-6 * sol.initial_norm
        assert sol.final_residual <= 1e-12
        assert sol.duality_residual < 1e-6

    def test_boundary_terminal_nulling(self):
        sol = solve_hum(boundary_problem(16))
        for name in ("y1", "y2", "dy1", "dy2"):
            assert sol.terminal_norms[name] <= 1e-6 * sol.initial_norm
        assert sol.final_residual <= 1e-12

    def test_solve_matches_dense_solve(self):
        prob = interior_problem(8)
        sol = solve_hum(prob)
        gram = dense_hum_matrix(prob)
        dense = np.linalg.solve(
            gram + 1e-300 * np.eye(32), -assemble_rhs(prob)
        )
        rel = np.linalg.norm(sol.minimizer.as_vector() - dense) / np.linalg.norm(dense)
        assert rel < 1e-6

    def test_solve_matches_solve_on_matrix_free_gramian(self):
        prob = interior_problem(8)
        sol = solve_hum(prob)
        gram = np.column_stack([apply_hum_gramian(e, prob) for e in np.eye(32)])
        oracle = np.linalg.solve(gram, -assemble_rhs(prob))
        rel = np.linalg.norm(sol.minimizer.as_vector() - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-6

    def test_solution_map_is_linear(self):
        space = SpectralSpace(8)
        da = CascadeState.from_vector(RNG.standard_normal(32), space)
        db = CascadeState.from_vector(RNG.standard_normal(32), space)
        mix = CascadeState.from_vector(0.7 * da.as_vector() - 1.3 * db.as_vector(), space)
        sols = [solve_hum(interior_problem(8, data=d)) for d in (da, db, mix)]
        combo = 0.7 * sols[0].control.values - 1.3 * sols[1].control.values
        scale = np.max(np.abs(combo))
        assert np.max(np.abs(sols[2].control.values - combo)) <= 1e-8 * scale

    def test_control_is_minimum_norm(self):
        # the extracted control must be quadrature-orthogonal to the kernel
        # of the control-to-terminal-state map (Lagrange condition)
        from wavecascade.hum import _pairing_matrix_apply

        prob = interior_problem(8, horizon=2.0)
        sol = solve_hum(prob)
        grid = prob.grid
        n = 8
        q = prob.obs_rows.shape[0]
        base = np.zeros((4 * n, q))
        for j in range(q):
            base[:, j] = _pairing_matrix_apply(prob.obs_rows.T[:, j], n)
        # reachability matrix: columns are terminal states of unit samples
        power = np.eye(4 * n)
        blocks = [None] * (grid.n_steps + 1)
        for m in range(grid.n_steps, -1, -1):
            blocks[m] = grid.node_weights[m] * (power @ base)
            power = power @ prob.step_controlled
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


class TestSolveSweep:
    # the solve sweeps its minimizer back as row 0 of the transposition probes' block

    @staticmethod
    def _problem(make, with_source, n_modes=16):
        rng = np.random.default_rng(43)
        data = CascadeState.from_vector(rng.standard_normal(4 * n_modes), SpectralSpace(n_modes))
        g = rng.standard_normal(n_modes)
        return make(n_modes, data=data, source=(lambda t: np.cos(2.0 * t) * g) if with_source else None)

    @pytest.mark.parametrize("with_source", [False, True])
    @pytest.mark.parametrize("make", [interior_problem, boundary_problem])
    def test_control_matches_the_one_vector_sweep(self, make, with_source):
        prob = self._problem(make, with_source)
        sol = solve_hum(prob)
        expected = _driven_sweep(sol.minimizer.as_vector(), prob)[:, 16:32] @ prob.obs_rows.T[16:32]
        assert np.max(np.abs(sol.control.values - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert sol.control.values.flags.c_contiguous

    @pytest.mark.parametrize("make", [interior_problem, boundary_problem])
    def test_the_solve_sweeps_back_only_in_the_probe_chunks(self, make, monkeypatch):
        import wavecascade.hum as hum_module

        prob = self._problem(make, with_source=True)
        sol = solve_hum(prob)  # builds the problem's cached operators
        logs = {"march_driven": [], "free_flow": []}
        for name, log in logs.items():
            original = getattr(hum_module, name)

            def counted(*args, _original=original, _log=log):
                _log.append(args)
                return _original(*args)

            monkeypatch.setattr(hum_module, name, counted)
        solve_hum(prob)
        solved = {name: list(log) for name, log in logs.items()}
        for log in logs.values():
            log.clear()
        verify_transposition(prob, sol.control, trajectory=sol.trajectory, n_probes=5, seed=1)
        # a separate extraction sweep would add one march_driven call and n_steps + 1 free-flow times
        assert len(solved["march_driven"]) == len(logs["march_driven"]) > 1
        times = [len(args[1]) for args in solved["free_flow"]]
        assert times == [len(args[1]) for args in logs["free_flow"]]
        assert sum(times) == prob.grid.n_steps + len(times)  # consecutive chunks share one node
        assert all(args[-1].shape[1] == 6 for args in solved["march_driven"])  # the minimizer and 5 probes

    @pytest.mark.parametrize("case", ["boundary_n80", "interior_n32_source"])
    def test_peak_memory_after_the_linear_solve(self, case, monkeypatch):
        import wavecascade.hum as hum_module

        if case == "boundary_n80":
            prob = self._problem(boundary_problem, with_source=False, n_modes=80)
        else:
            prob = self._problem(interior_problem, with_source=True, n_modes=32)
        trajectory = solve_hum(prob).trajectory  # builds the problem's cached operators
        sweep = hum_module._swept_pairings

        def after_the_solve(*args, **kwargs):
            tracemalloc.reset_peak()
            return sweep(*args, **kwargs)

        monkeypatch.setattr(hum_module, "_swept_pairings", after_the_solve)
        tracemalloc.start()
        try:
            solve_hum(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 1.95 (boundary) and 2.39 (interior) trajectories; a separate
        # extraction sweep, whose (n_steps + 1, 2N) buffer lived through the
        # forward solve, read 3.6 and 4.0
        assert peak <= 2.75 * trajectory.nbytes

    def test_the_solution_carries_the_refusal_contrast(self):
        prob = self._problem(boundary_problem, with_source=False)
        scale = 1.0 / np.sqrt(prob.xd)
        spectrum = np.linalg.eigvalsh(dense_hum_matrix(prob) * np.outer(scale, scale))
        contrast = solve_hum(prob).gramian_contrast
        assert contrast == pytest.approx(spectrum[0] / spectrum[-1], rel=1e-9)
        assert contrast >= OBSERVABILITY_FLOOR


def _probe_by_probe_residuals(problem, control, trajectory, n_probes, seed):
    """Transposition residuals from one backward march per probe, node sums over the whole trajectory."""
    n = problem.space.n_modes
    weights = problem.grid.node_weights
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(n_probes):
        probe = rng.standard_normal(4 * n)
        states = adjoint_march(probe, problem)
        obs = states @ problem.obs_rows.T
        quadrature = float(weights @ (obs * control.values).sum(axis=1))
        magnitude = float(weights @ (np.abs(obs) * np.abs(control.values)).sum(axis=1))
        if problem.source is not None:
            paired = np.einsum("mi,mi->m", problem.source_nodes, states[:, n : 2 * n])
            quadrature += float(weights @ paired)
            magnitude += float(weights @ np.abs(paired))
        end_pair = duality_pairing(trajectory[-1], probe, n)
        start_pair = duality_pairing(problem.initial_data.as_vector(), states[0], n)
        lhs = end_pair - start_pair
        scale = max(abs(lhs), abs(quadrature), magnitude, abs(end_pair), abs(start_pair), 1e-300)
        residuals.append(abs(lhs - quadrature) / scale)
    return residuals


def _random_control(problem, rng):
    samples = rng.standard_normal((problem.grid.n_steps + 1, problem.obs_rows.shape[0]))
    return TimeSampledControl(samples, problem.grid)


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
            RNG.standard_normal((prob.grid.n_steps + 1, 16)), prob.grid
        )
        report = verify_transposition(prob, control, n_probes=20, seed=5)
        assert report["max_residual"] < 1e-6

    def test_cascade_case_with_random_control(self):
        prob = interior_problem(16)
        control = TimeSampledControl(
            RNG.standard_normal((prob.grid.n_steps + 1, 16)), prob.grid
        )
        report = verify_transposition(prob, control, n_probes=20, seed=6)
        assert report["max_residual"] < 1e-6

    def test_boundary_case_with_random_control(self):
        prob = boundary_problem(16)
        control = TimeSampledControl(
            RNG.standard_normal((prob.grid.n_steps + 1, 1)), prob.grid
        )
        report = verify_transposition(prob, control, n_probes=20, seed=7)
        assert report["max_residual"] < 1e-6

    def test_source_term_enters_identity(self):
        g = RNG.standard_normal(8)
        prob = interior_problem(8, source=lambda t: np.cos(2.0 * t) * g)
        control = TimeSampledControl(
            RNG.standard_normal((prob.grid.n_steps + 1, 8)), prob.grid
        )
        report = verify_transposition(prob, control, n_probes=10, seed=8)
        assert report["max_residual"] < 1e-6

    @pytest.mark.parametrize("n_probes", [1, 3, 7])
    @pytest.mark.parametrize("case", ["interior_source", "boundary"])
    def test_block_march_matches_probe_by_probe_and_has_teeth(self, case, n_probes):
        # zero initial data: the identity's terms are the control's and the
        # source's alone, so a 0.1% error in the control shows far above rounding
        rng = np.random.default_rng(19)
        zero = CascadeState.zero(SpectralSpace(16))
        if case == "boundary":
            prob = boundary_problem(16, horizon=3.5, data=zero)
        else:
            g = rng.standard_normal(16)
            prob = interior_problem(16, horizon=3.5, data=zero, source=lambda t: np.cos(2.0 * t) * g)
        assert prob.grid.n_steps % 3 and prob.grid.n_steps % 7  # the last chunk is a partial one
        control = _random_control(prob, rng)
        trajectory = controlled_forward(prob, control)
        wrong = TimeSampledControl(1.001 * control.values, prob.grid)
        report = verify_transposition(prob, wrong, trajectory=trajectory, n_probes=n_probes, seed=3)
        reference = _probe_by_probe_residuals(prob, wrong, trajectory, n_probes, seed=3)
        assert len(report["residuals"]) == n_probes
        np.testing.assert_allclose(report["residuals"], reference, rtol=1e-9, atol=0.0)
        assert report["max_residual"] == max(report["residuals"]) > 1e-6
        true = verify_transposition(prob, control, trajectory=trajectory, n_probes=n_probes, seed=3)
        assert true["max_residual"] < 1e-6

    @pytest.mark.parametrize("n_probes", [5, 20])
    @pytest.mark.parametrize("case", ["boundary_n80", "interior_n32_source"])
    def test_peak_memory_stays_near_one_trajectory(self, case, n_probes):
        rng = np.random.default_rng(23)
        if case == "boundary_n80":
            prob = boundary_problem(80, data=CascadeState.zero(SpectralSpace(80)))
        else:
            g = rng.standard_normal(32)
            prob = interior_problem(32, data=CascadeState.zero(SpectralSpace(32)), source=lambda t: np.sin(t) * g)
        control = _random_control(prob, rng)
        trajectory = controlled_forward(prob, control)  # builds the problem's cached operators too
        tracemalloc.start()
        try:
            verify_transposition(prob, control, trajectory=trajectory, n_probes=n_probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an unchunked (n_steps + 1, 4N, n_probes) block alone would read n_probes
        assert peak <= 2.5 * trajectory.nbytes

    @pytest.mark.parametrize("n_probes", [0, -2])
    def test_needs_a_probe(self, n_probes):
        # no probe would be a check that passes without checking anything
        prob = boundary_problem(8, data=CascadeState.zero(SpectralSpace(8)))
        control = _random_control(prob, np.random.default_rng(29))
        with pytest.raises(ValidationError, match=f"n_probes must be at least 1, got {n_probes}"):
            verify_transposition(prob, control, n_probes=n_probes)

    @pytest.mark.parametrize("block", ["step_controlled", "kick_back_t"])
    @pytest.mark.parametrize("make", [interior_problem, boundary_problem])
    def test_a_wrong_kick_on_either_side_fails_the_check(self, make, block):
        # the forward march reads the controlled step's kick block, the backward
        # sweep its own kick block: a 0.1% error in either shows far above rounding
        data = CascadeState.from_vector(np.random.default_rng(37).standard_normal(64), SpectralSpace(16))
        prob = make(16, data=data)
        control = _random_control(prob, np.random.default_rng(31))
        assert verify_transposition(prob, control, n_probes=5, seed=2)["max_residual"] < 1e-6
        wrong = make(16, data=data)
        if block == "step_controlled":
            # the controlled step kicks y1 (slots of the adjoint's free component) from y2
            first, second = _component_indices(16)
            step = wrong.step_controlled.copy()
            step[np.ix_(first, second)] *= 1.0 + 1e-3
            wrong.__dict__["step_controlled"] = step
        else:
            wrong.__dict__["kick_back_t"] = wrong.kick_back_t * (1.0 + 1e-3)
        assert verify_transposition(wrong, control, n_probes=5, seed=2)["max_residual"] > 1e-6

    def test_non_finite_control_gives_non_finite_max_residual(self):
        # max(0.0, nan) is 0.0, which would pass any residual bound
        prob = boundary_problem(8, data=CascadeState.zero(SpectralSpace(8)))
        control = _random_control(prob, np.random.default_rng(29))
        control.values[3, 0] = np.nan
        report = verify_transposition(prob, control, n_probes=3)
        assert np.isnan(report["residuals"]).all()
        assert np.isnan(report["max_residual"])

    def test_non_finite_source_rejected(self):
        prob = interior_problem(8, source=lambda t: np.full(8, np.nan))
        with pytest.raises(ValidationError, match="non-finite"):
            prob.source_nodes


def _energy_relative_errors(states, reference, space):
    """Per-node relative error in the energy norm, where the free rotation is an isometry."""
    om = space.frequencies
    weights = np.concatenate([om, om, np.ones_like(om), np.ones_like(om)])
    return np.linalg.norm((states - reference) * weights, axis=-1) / np.linalg.norm(reference * weights, axis=-1)


def _driven_sweep(final, problem):
    """Adjoint node states from final data (..., 4N) by the driven-block sweep ``hum._sweep_back``, in time order."""
    free, driven = _component_indices(problem.space.n_modes)
    swept = np.empty((problem.grid.n_steps + 1,) + final[..., driven].shape)
    swept[0] = final[..., driven]
    table = _sweep_back(problem, final[..., free], swept)
    states = np.empty((len(swept),) + final.shape)
    states[::-1, ..., free] = table
    states[::-1, ..., driven] = swept
    return states


class TestAdjointSweep:
    @pytest.mark.parametrize("columns", [1, 5])
    @pytest.mark.parametrize("n_modes", [8, 32, 80])
    @pytest.mark.parametrize("case", ["interior", "interior_decoupled", "boundary"])
    def test_matches_the_full_step_march(self, case, n_modes, columns):
        zero = CascadeState.zero(SpectralSpace(n_modes))
        if case == "boundary":
            prob = boundary_problem(n_modes, data=zero)
        else:
            prob = interior_problem(n_modes, data=zero, coupling=case == "interior")
        n, m = n_modes, prob.grid.n_steps
        final = np.random.default_rng(41).standard_normal((columns, 4 * n))
        if columns == 1:
            final = final[0]  # one state per row, not a block of one
        reference = adjoint_march(final, prob)
        states = _driven_sweep(final, prob)
        assert np.array_equal(states[-1], final)
        # two recursions of j steps, each rounding once per step
        steps_back = np.arange(m, -1, -1)[:, None]
        errors = _energy_relative_errors(states, reference, prob.space).reshape(m + 1, -1)
        assert np.all(errors <= 2 * (steps_back + 1) * np.finfo(float).eps)

    def test_blocks_are_read_once_from_the_backward_step(self):
        prob = interior_problem(8, data=CascadeState.zero(SpectralSpace(8)))  # leaves the module RNG alone
        free, driven = _component_indices(8)
        assert prob.driven_back_t is prob.driven_back_t and prob.kick_back_t is prob.kick_back_t
        assert np.array_equal(prob.driven_back_t, prob.step_back[np.ix_(driven, driven)].T)
        assert np.array_equal(prob.kick_back_t, prob.step_back[np.ix_(driven, free)].T)
        assert np.all(prob.step_back[np.ix_(free, driven)] == 0.0)  # the free component is never kicked
        for block in (prob.driven_back_t, prob.kick_back_t):
            assert block.ctypes.data % 64 == 0 and block.flags.c_contiguous


class TestProblemOperators:
    @pytest.mark.parametrize("coupling", [True, False])
    def test_controlled_step_matches_first_driven_stepper(self, coupling):
        prob = interior_problem(12, coupling=coupling)
        cmat = prob.coupling.matrix.T if coupling else None
        expected = first_driven_step_matrix(prob.space, cmat, prob.grid.dt)
        step = prob.step_controlled
        assert np.max(np.abs(step - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_steppers_are_built_once_and_step_back_inverts_the_step(self, monkeypatch):
        import wavecascade.hum as hum_module

        original = hum_module.cascade_step_matrix
        builds = []

        def counted(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(hum_module, "cascade_step_matrix", counted)
        prob = interior_problem(8, data=CascadeState.zero(SpectralSpace(8)))  # leaves the module RNG alone
        solve_hum(prob)
        verify_transposition(prob, None, n_probes=2)
        apply_hum_gramian(np.ones(32), prob)
        assert prob.step_back is prob.step_back and prob.step_controlled is prob.step_controlled
        assert len(builds) == 1
        assert np.max(np.abs(prob.step_back @ prob.step - np.eye(32))) <= 1e-12

    def test_steppers_start_on_a_cache_line(self):
        prob = interior_problem(8, data=CascadeState.zero(SpectralSpace(8)))  # leaves the module RNG alone
        for step in (prob.step, prob.step_back, prob.step_controlled):
            assert step.ctypes.data % 64 == 0 and step.flags.c_contiguous

    def test_source_is_called_once_on_a_column_of_times(self):
        g = RNG.standard_normal(8)
        shapes = []

        def source(t):
            shapes.append(np.shape(t))
            return np.cos(2.0 * t) * g

        prob = interior_problem(8, source=source)
        nodes = prob.source_nodes
        assert prob.source_nodes is nodes
        assert shapes == [(prob.grid.n_steps + 1, 1)]
        expected = np.array([np.cos(2.0 * t) * g for t in prob.grid.times])
        assert np.max(np.abs(nodes - expected)) <= 1e-15

    @pytest.mark.parametrize("make", [interior_problem, boundary_problem])
    def test_source_of_wrong_length_rejected(self, make):
        with pytest.raises(ValidationError, match="broadcast"):
            make(8, source=lambda t: np.ones(9)).source_nodes


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
        assert np.allclose(w[8:12], 1.0 / lam)
        assert np.allclose(w[12:], 1.0)

    def test_control_space_norms_orders(self):
        space = SpectralSpace(4)
        vec = np.zeros(16)
        vec[0] = 1.0  # y1 = phi_1
        norms = control_space_norms(vec, space, "interior")
        assert norms["y1"] == pytest.approx(np.pi**2)  # H2 norm of phi_1
        norms = control_space_norms(vec, space, "boundary")
        assert norms["y1"] == pytest.approx(np.pi)  # H1 norm


class TestDataNorm:
    def test_source_free_norm_is_the_initial_data_norm_bit_for_bit(self):
        space = SpectralSpace(8)
        data = CascadeState.from_vector(np.random.default_rng(71).standard_normal(32), space)
        prob = interior_problem(8, data=data)
        expected = control_space_norms(data.as_vector(), space, "interior")["total"]
        assert data_norm(prob) == expected
        assert solve_hum(prob).initial_norm == expected

    def test_a_source_adds_its_terminal_state_from_rest(self):
        space = SpectralSpace(8)
        rng = np.random.default_rng(72)
        data = CascadeState.from_vector(rng.standard_normal(32), space)
        g = rng.standard_normal(8)
        source = lambda t: 1e6 * np.sin(np.pi * t) * g
        prob = interior_problem(8, data=data, source=source)
        from_rest = controlled_forward(interior_problem(8, data=CascadeState.zero(space), source=source), None)[-1]
        expected = (
            control_space_norms(data.as_vector(), space, "interior")["total"]
            + control_space_norms(from_rest, space, "interior")["total"]
        )
        assert data_norm(prob) == pytest.approx(expected, rel=1e-12)
        assert prob.source_terminal.base is None  # a copy: the marched trajectory is not kept
        sol = solve_hum(prob)
        assert sol.initial_norm == data_norm(prob)
        assert max(v for k, v in sol.terminal_norms.items() if k != "total") <= 1e-6 * sol.initial_norm
