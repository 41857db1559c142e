"""Tests for Gramians, constants, control times, and the inequality audit."""

import numpy as np
import pytest

from wavecascade.errors import RefusalError, ValidationError
from wavecascade.spectral import CoefficientFunction, PlateauBump, SpectralSpace
from wavecascade.dynamics import (
    CascadeState,
    CouplingOperator,
    Observer,
    TimeGrid,
    cascade_step_matrix,
    evolve_cascade,
)
from wavecascade.observability import (
    _integrated_form,
    admissibility_constant,
    apply_gramian,
    empirical_horizon,
    empirical_ratios,
    estimate_uniform_constants,
    gcc_min_time,
    gramian_form,
    gramian_matrix,
    inequality_chain_audit,
    min_eigenvalue,
    ray_hit_time,
    random_cascade_states,
    theoretical_constants,
)

RNG = np.random.default_rng(20240813)

COUPLING_FN = CoefficientFunction((PlateauBump(0.2, 0.3, 0.05, 1.0),), core_region=(0.2, 0.3))
OBS_FN = CoefficientFunction((PlateauBump(0.6, 0.7, 0.05, 1.0),), core_region=(0.6, 0.7))


def interior_observer():
    return Observer("interior", weight=OBS_FN)


def standard_setup(n_modes=16, horizon=4.0, step_phase=0.4):
    space = SpectralSpace(n_modes)
    coupling = CouplingOperator(COUPLING_FN, space)
    grid = TimeGrid.for_space(space, horizon, step_phase)
    return space, coupling, grid


class TestGramianForm:
    def test_zero_data(self):
        space, coupling, grid = standard_setup(8)
        assert gramian_form(CascadeState.zero(space), coupling, interior_observer(), grid) == 0.0

    def test_decoupled_first_component_is_invisible(self):
        space, _, grid = standard_setup(8)
        state = CascadeState(space.unit_mode(2), space.zero(), space.unit_mode(3), space.zero())
        assert gramian_form(state, None, interior_observer(), grid) == pytest.approx(0.0, abs=1e-24)

    def test_matches_dense_oracle_quadratic_form(self):
        space, coupling, grid = standard_setup(8, horizon=4.0, step_phase=0.1)
        obs = interior_observer()
        gram = gramian_matrix(coupling, obs, grid, space, propagator="exponential")
        for _ in range(20):
            u = RNG.standard_normal(4 * space.n_modes)
            dense = float(u @ gram @ u)
            form = gramian_form(CascadeState.from_vector(u, space), coupling, obs, grid)
            assert form == pytest.approx(dense, rel=1e-8)


class TestGramianMatrix:
    def test_zero_weight_gives_zero_matrix(self):
        space, coupling, grid = standard_setup(8, horizon=1.0)
        obs = Observer("interior", weight=CoefficientFunction(()))
        gram = gramian_matrix(coupling, obs, grid, space)
        assert np.all(gram == 0.0)

    def test_decoupled_first_block_vanishes(self):
        space, _, grid = standard_setup(8)
        gram = gramian_matrix(None, interior_observer(), grid, space)
        n = space.n_modes
        first = np.concatenate([np.arange(n), np.arange(2 * n, 3 * n)])
        assert np.max(np.abs(gram[first])) == 0.0
        assert np.max(np.abs(gram[:, first])) == 0.0

    def test_symmetric_positive_semidefinite(self):
        space, coupling, grid = standard_setup(8)
        gram = gramian_matrix(coupling, interior_observer(), grid, space)
        assert np.max(np.abs(gram - gram.T)) < 1e-10
        eigs = np.linalg.eigvalsh(gram)
        assert eigs[0] > -1e-10 * eigs[-1]

    def test_size_guard(self):
        space = SpectralSpace(128)
        with pytest.raises(ValidationError):
            gramian_matrix(None, interior_observer(), TimeGrid(1.0, 1024), space)

    def test_matrix_free_application_matches_dense(self):
        space, coupling, grid = standard_setup(8)
        obs = interior_observer()
        gram = gramian_matrix(coupling, obs, grid, space, propagator="solver")
        for _ in range(5):
            u = RNG.standard_normal(4 * space.n_modes)
            mv = apply_gramian(u, coupling, obs, grid, space)
            assert np.max(np.abs(mv - gram @ u)) < 1e-8 * np.max(np.abs(gram @ u))


class TestMinEigenvalue:
    def test_decoupled_first_block_is_null(self):
        space, _, grid = standard_setup(16)
        report = min_eigenvalue(None, interior_observer(), grid, space)
        assert report.block_min["u1"] <= 1e-10
        assert report.min_eig <= 1e-10

    def test_short_horizon_collapses_under_refinement(self):
        values = []
        for n in (16, 32, 64):
            space = SpectralSpace(n)
            coupling = CouplingOperator(COUPLING_FN, space)
            grid = TimeGrid.for_space(space, 0.1, 0.5)
            values.append(min_eigenvalue(coupling, interior_observer(), grid, space).min_eig)
        assert values[0] / values[1] >= 2.0
        assert values[1] / values[2] >= 2.0

    def test_valid_geometry_stable_under_refinement(self):
        values = {}
        for n in (32, 64):
            space = SpectralSpace(n)
            coupling = CouplingOperator(COUPLING_FN, space)
            grid = TimeGrid.for_space(space, 4.0, 0.5)
            values[n] = min_eigenvalue(coupling, interior_observer(), grid, space).min_eig
        assert abs(values[64] - values[32]) <= 0.25 * values[32]

    def test_lanczos_agrees_with_dense(self):
        space, coupling, grid = standard_setup(8)
        dense = min_eigenvalue(coupling, interior_observer(), grid, space)
        lanczos = min_eigenvalue(coupling, interior_observer(), grid, space, method="lanczos")
        assert lanczos.min_eig == pytest.approx(dense.min_eig, rel=1e-4)


class TestTheoreticalConstants:
    def test_unit_inputs_reproduce_closed_forms(self):
        c = theoretical_constants(alpha=1.0, beta=1.0, gamma0=1.0, eta0=1.0, alpha0=1.0, t0=1.0)
        assert c.a == pytest.approx(16.0, rel=1e-12)
        assert c.b == pytest.approx(64.0, rel=1e-12)
        assert c.nu == pytest.approx(16.0 + np.sqrt(336.0), rel=1e-12)
        assert c.nu == pytest.approx(34.3303, abs=5e-5)
        root = np.sqrt(336.0)
        expected_m = root / ((2 * 16 + 1) * (16 + root) + 16 + 2 * 64)
        assert c.m_factor == pytest.approx(expected_m, rel=1e-12)
        assert c.m_factor == pytest.approx(0.014355, abs=1e-6)
        assert c.t1 == pytest.approx(16.0, rel=1e-12)
        assert c.t2 == pytest.approx(8.0 / np.sqrt(c.m_factor), rel=1e-12)
        assert c.t2 == pytest.approx(66.77, abs=0.01)
        assert c.t3 == pytest.approx(max(c.t0, c.t1, c.t2), rel=1e-15)

    def test_pure_function_determinism(self):
        a = theoretical_constants(2.0, 3.0, 0.7, 1.1, 0.9, 1.4)
        b = theoretical_constants(2.0, 3.0, 0.7, 1.1, 0.9, 1.4)
        assert a == b

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValidationError):
            theoretical_constants(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_nu_identity_and_m_range(self):
        c = theoretical_constants(0.5, 2.0, 1.3, 0.8, 1.7, 2.0)
        assert c.nu == pytest.approx(c.a + np.sqrt(c.a**2 + c.a + c.b), rel=1e-14)
        assert 0.0 < c.m_factor < 1.0


class TestGccMinTime:
    def test_interior_interval(self):
        assert gcc_min_time((0.6, 0.7)) == pytest.approx(1.2)
        assert gcc_min_time((0.0, 1.0)) == 0.0
        assert gcc_min_time((0.2, 0.3)) == pytest.approx(1.4)

    def test_boundary_cases(self):
        assert gcc_min_time(("left",)) == 2.0
        assert gcc_min_time(("right",)) == 2.0
        assert gcc_min_time(("left", "right")) == 1.0

    def test_empty_region_rejected(self):
        with pytest.raises(ValidationError):
            gcc_min_time(None)
        with pytest.raises(ValidationError):
            gcc_min_time((0.5, 0.5))

    @pytest.mark.parametrize("region", [(0.6, 0.7), (0.2, 0.3), ("left",), ("left", "right")])
    def test_ray_tracing_oracle_confirms_closed_form(self, region):
        sup = 0.0
        for x0 in np.linspace(5e-4, 1.0 - 5e-4, 1000):
            for direction in (-1, 1):
                sup = max(sup, ray_hit_time(x0, direction, region))
        closed = gcc_min_time(region)
        assert sup <= closed + 1e-12
        assert sup >= closed - 3.0 / 1000.0  # grid resolution of the ray sweep


class TestEstimateUniformConstants:
    def test_single_mode_unit_weight_ratio(self):
        # one mode observed everywhere with unit weight: the energy ratio is 1
        space = SpectralSpace(1)
        obs = Observer(
            "interior",
            weight=CoefficientFunction((PlateauBump(0.0, 1.0, 0.0, 1.0),), core_region=(0.0, 1.0)),
        )
        grid = TimeGrid(2.0, 512, allow_coarse=True)
        eta0, _ = estimate_uniform_constants(obs, grid, space, ensemble=4, seed=1)
        assert eta0 == pytest.approx(1.0, rel=1e-10)

    def test_empty_region_reports_failure(self):
        space = SpectralSpace(4)
        obs = Observer("interior", weight=CoefficientFunction(()))
        with pytest.raises(RefusalError):
            estimate_uniform_constants(obs, TimeGrid(4.0, 256), space)

    def test_horizon_below_control_time_refused(self):
        space = SpectralSpace(4)
        with pytest.raises(RefusalError):
            estimate_uniform_constants(
                interior_observer(), TimeGrid(0.5, 64, allow_coarse=True), space
            )

    def test_projection_pair_positive(self):
        space, coupling, grid = standard_setup(8, horizon=2.0, step_phase=0.2)
        gamma0, delta0 = estimate_uniform_constants(coupling, grid, space, ensemble=8, seed=3)
        assert gamma0 > 0
        assert delta0 >= 0


class TestEmpiricalRatiosAndAudit:
    def test_ratios_follow_claimed_horizon_scalings(self):
        space = SpectralSpace(16)
        coupling = CouplingOperator(COUPLING_FN, space)
        obs = interior_observer()
        rows = []
        for horizon in (4.0, 8.0, 16.0):
            grid = TimeGrid.for_space(space, horizon, 0.25)
            rows.append((horizon, empirical_ratios(coupling, obs, grid, space, ensemble=16, seed=5)))
        for key, power in (("d1_emp", 3), ("d2_emp", 1), ("r2_emp", 2)):
            vals = [r[key] * T**power for T, r in rows]
            assert all(vals[i + 1] <= 2.0 * vals[i] for i in range(len(vals) - 1)), key
        k2 = [r["k2_emp"] for _, r in rows]
        assert max(k2) <= 2.0 * min(k2)

    def test_integrated_energy_form_matches_trajectory_energies(self):
        # the k2_emp numerator: x^T K x = sum_m w_m E1(u2)(t_m) along the solver trajectory
        space, coupling, grid = standard_setup(8)
        n = space.n_modes
        natural_second = np.zeros(4 * n)
        natural_second[n : 2 * n] = 0.5 * space.eigenvalues
        natural_second[3 * n :] = 0.5
        step = cascade_step_matrix(space, coupling.matrix, grid.dt)
        kform = _integrated_form(natural_second, step, grid.node_weights)
        for x in np.random.default_rng(5).standard_normal((4, 4 * n)):
            traj = evolve_cascade(CascadeState.from_vector(x, space), coupling, grid)
            expected = float(grid.node_weights @ traj.energy_series(2, 1))
            assert float(x @ kform @ x) == pytest.approx(expected, rel=1e-10)

    def test_ratios_refuse_non_coercive_horizon(self):
        space = SpectralSpace(8)
        coupling = CouplingOperator(COUPLING_FN, space)
        grid = TimeGrid.for_space(space, 0.1, 0.5)
        with pytest.raises(RefusalError):
            empirical_ratios(coupling, interior_observer(), grid, space)

    def test_admissibility_constant_stable_under_refinement(self):
        values = {}
        for n in (32, 64):
            space = SpectralSpace(n)
            coupling = CouplingOperator(COUPLING_FN, space)
            grid = TimeGrid.for_space(space, 4.0, 0.4)
            values[n] = admissibility_constant(coupling, interior_observer(), grid, space, ensemble=16, seed=9)
        assert abs(values[64] - values[32]) <= 0.10 * values[32]

    def test_zero_weight_admissibility(self):
        space, coupling, grid = standard_setup(8)
        obs = Observer("interior", weight=CoefficientFunction(()))
        assert admissibility_constant(coupling, obs, grid, space, ensemble=4) == 0.0

    def test_audit_zero_state_all_trivial(self):
        space, coupling, grid = standard_setup(8, horizon=2.0)
        constants = theoretical_constants(1.0, 1.0, 1.0, 1.0, 1.0, 1.4)
        states = [CascadeState.zero(space)]
        (rows,) = inequality_chain_audit(states, coupling, interior_observer(), constants, grid)
        assert all(r.satisfied for r in rows)
        assert all(r.lhs == 0.0 and r.rhs == 0.0 for r in rows)

    def test_duality_identity_on_random_data(self):
        space = SpectralSpace(32)
        coupling = CouplingOperator(COUPLING_FN, space)
        grid = TimeGrid.for_space(space, 4.0, 0.4)
        constants = theoretical_constants(coupling.alpha, coupling.beta, 1.0, 1.0, 1.0, 1.4)
        obs = interior_observer()
        states = random_cascade_states(space, 5, seed=21)
        for sample_rows in inequality_chain_audit(states, coupling, obs, constants, grid):
            rows = {r.name: r for r in sample_rows}
            identity = rows["coupling_duality_identity"]
            scale = max(abs(identity.lhs), abs(identity.rhs))
            assert abs(identity.lhs - identity.rhs) <= 1e-6 * scale

    def test_audit_with_estimated_constants_passes_must_hold(self):
        space = SpectralSpace(16)
        coupling = CouplingOperator(COUPLING_FN, space)
        obs = interior_observer()
        horizon = empirical_horizon(coupling, obs)
        grid = TimeGrid.for_space(space, 1.25 * horizon, 0.015)
        gamma0, delta0 = estimate_uniform_constants(coupling, grid, space, ensemble=32, seed=11)
        eta0, alpha0 = estimate_uniform_constants(obs, grid, space, ensemble=32, seed=12)
        constants = theoretical_constants(
            coupling.alpha, coupling.beta, 2.0 * gamma0, 2.0 * eta0, 2.0 * alpha0, horizon, delta0=2.0 * delta0
        )
        bound = 2.0 * admissibility_constant(coupling, obs, grid, space, ensemble=16, seed=13)
        states = random_cascade_states(space, 25, seed=77)
        for rows in inequality_chain_audit(states, coupling, obs, constants, grid, admissibility_bound=bound):
            for row in rows:
                if row.must_hold:
                    assert row.satisfied, row
