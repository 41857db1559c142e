"""Tests for the cascade evolution layer.

The independent oracle for trajectories is the dense matrix exponential of
the first-order generator, assembled from scratch here and evaluated with
scipy's expm.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from wavecascade.errors import ValidationError
from wavecascade.spectral import (
    CoefficientFunction,
    ModalCoefficients,
    PlateauBump,
    SpectralSpace,
)
from wavecascade.dynamics import (
    CascadeState,
    CascadeTrajectory,
    ComponentState,
    CouplingOperator,
    Observer,
    TimeGrid,
    cascade_step_matrix,
    duality_pairing,
    evolve_cascade,
    evolve_cascade_backward,
    evolve_forced_scalar,
    march,
    reversed_step,
)
from wavecascade.observability import _dense_generator

from oracles import energy, first_driven_step_matrix, free_evolve, invert_generator, observe

RNG = np.random.default_rng(20240812)


def standard_coupling(space):
    c21 = CoefficientFunction((PlateauBump(0.2, 0.3, 0.05, 1.0),), core_region=(0.2, 0.3))
    return CouplingOperator(c21, space)


def random_state(space, rng=RNG):
    return CascadeState.from_vector(rng.standard_normal(4 * space.n_modes), space)


class TestFreeEvolve:
    def test_half_and_full_period_of_first_mode(self):
        space = SpectralSpace(4)
        u = ComponentState(space.unit_mode(1), space.zero())
        half = free_evolve(u, 1.0)
        assert half.position.coeffs[0] == pytest.approx(-1.0, abs=1e-14)
        assert np.max(np.abs(half.velocity.coeffs)) < 1e-12
        full = free_evolve(u, 2.0)
        assert full.position.coeffs[0] == pytest.approx(1.0, abs=1e-14)

    def test_energy_conserved_at_irrational_time(self):
        space = SpectralSpace(8)
        u = ComponentState(
            ModalCoefficients(RNG.standard_normal(8), space),
            ModalCoefficients(RNG.standard_normal(8), space),
        )
        e0 = energy(u, 1)
        e1 = energy(free_evolve(u, 3.7), 1)
        assert abs(e1 - e0) / e0 < 1e-12


class TestEvolveCascade:
    def test_zero_coupling_evolves_both_components_freely(self):
        space = SpectralSpace(8)
        state = random_state(space)
        grid = TimeGrid(1.0, 256)
        traj = evolve_cascade(state, None, grid)
        final = traj.final_state
        free1 = free_evolve(state.first, 1.0)
        free2 = free_evolve(state.second, 1.0)
        assert np.allclose(final.u1.coeffs, free1.position.coeffs, atol=1e-12)
        assert np.allclose(final.u2.coeffs, free2.position.coeffs, atol=1e-12)

    def test_zero_data_stays_zero(self):
        space = SpectralSpace(8)
        traj = evolve_cascade(CascadeState.zero(space), standard_coupling(space), TimeGrid(1.0, 256))
        assert np.all(traj.states == 0.0)

    def test_matches_matrix_exponential_oracle(self):
        space = SpectralSpace(16)
        coupling = standard_coupling(space)
        state = random_state(space)
        grid = TimeGrid(2.0, 512)
        traj = evolve_cascade(state, coupling, grid)
        ref = expm(2.0 * _dense_generator(space, coupling)) @ state.as_vector()
        rel = np.linalg.norm(traj.states[-1] - ref) / np.linalg.norm(ref)
        assert rel < 1e-6

    def test_first_component_is_exactly_free_at_every_node(self):
        space = SpectralSpace(8)
        coupling = standard_coupling(space)
        state = random_state(space)
        grid = TimeGrid(1.0, 128)
        traj = evolve_cascade(state, coupling, grid)
        for k in (17, 64, 128):
            free = free_evolve(state.first, grid.times[k])
            assert np.allclose(traj.block("u1")[k], free.position.coeffs, atol=1e-13)
            assert np.allclose(traj.block("v1")[k], free.velocity.coeffs, atol=1e-11)

    def test_linearity(self):
        space = SpectralSpace(8)
        coupling = standard_coupling(space)
        grid = TimeGrid(1.0, 128)
        u = random_state(space)
        v = random_state(space)
        mix = CascadeState.from_vector(0.3 * u.as_vector() - 1.7 * v.as_vector(), space)
        t_mix = evolve_cascade(mix, coupling, grid).states[-1]
        t_sep = 0.3 * evolve_cascade(u, coupling, grid).states[-1] - 1.7 * evolve_cascade(v, coupling, grid).states[-1]
        assert np.max(np.abs(t_mix - t_sep)) < 1e-10 * max(1.0, np.max(np.abs(t_sep)))

    def test_rejects_coarse_grid(self):
        space = SpectralSpace(32)
        with pytest.raises(ValidationError):
            evolve_cascade(random_state(space), None, TimeGrid(4.0, 16))


class TestBackwardEvolution:
    def test_round_trip_returns_initial_data(self):
        space = SpectralSpace(8)
        coupling = standard_coupling(space)
        grid = TimeGrid(1.0, 128)
        state = random_state(space)
        forward = evolve_cascade(state, coupling, grid)
        back = evolve_cascade_backward(forward.final_state, coupling, grid)
        rel = np.linalg.norm(back.states[0] - state.as_vector()) / np.linalg.norm(state.as_vector())
        assert rel < 1e-8

    def test_zero_coupling_reflected_free_wave(self):
        space = SpectralSpace(4)
        grid = TimeGrid(1.0, 64)
        final = CascadeState(space.zero(), space.unit_mode(1), space.zero(), space.zero())
        traj = evolve_cascade_backward(final, None, grid)
        for k in (0, 13, 64):
            t = grid.times[k]
            expected = free_evolve(ComponentState(space.unit_mode(1), space.zero()), t - 1.0)
            assert np.allclose(traj.block("u2")[k], expected.position.coeffs, atol=1e-12)

    def test_matches_inverse_matrix_exponential(self):
        space = SpectralSpace(16)
        coupling = standard_coupling(space)
        grid = TimeGrid(2.0, 512)
        final = random_state(space)
        traj = evolve_cascade_backward(final, coupling, grid)
        ref = expm(-2.0 * _dense_generator(space, coupling)) @ final.as_vector()
        rel = np.linalg.norm(traj.states[0] - ref) / np.linalg.norm(ref)
        assert rel < 1e-6


    @pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "uncoupled"])
    def test_uncontrolled_evolution_marches_no_full_step(self, monkeypatch, coupled):
        # the free component rotates in closed form and only the driven block is marched, both ways
        import wavecascade.dynamics as dynamics

        def refuse(*args, **kwargs):
            raise AssertionError("an uncontrolled trajectory marched the full step")

        monkeypatch.setattr(dynamics, "march", refuse)
        space = SpectralSpace(8)
        grid = TimeGrid(1.0, 128)
        state = random_state(space)
        coupling = standard_coupling(space) if coupled else None
        back = evolve_cascade_backward(evolve_cascade(state, coupling, grid).final_state, coupling, grid)
        assert np.linalg.norm(back.states[0] - state.as_vector()) <= 1e-12 * np.linalg.norm(state.as_vector())


class TestMarch:
    def test_marches_in_place_and_matches_reference_loop(self):
        step = RNG.standard_normal((6, 6)) / 3.0
        states = RNG.standard_normal((9, 6))
        expected = [states[0]]
        for increment in states[1:]:
            expected.append(step @ expected[-1] + increment)
        out = march(step, states)
        assert out is states
        np.testing.assert_array_equal(states, np.array(expected))

    def test_reversed_view_marches_backward(self):
        step = RNG.standard_normal((6, 6)) / 3.0
        states = np.zeros((9, 6))
        states[-1] = RNG.standard_normal(6)
        march(step, states[::-1])
        for k in range(8, 0, -1):
            np.testing.assert_array_equal(states[k - 1], step @ states[k])

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "reversed_view"])
    def test_block_of_columns_marches_like_each_column(self, backward):
        # a row may be a (d, k) block: one matrix product per step marches k states
        rng = np.random.default_rng(11)
        step = rng.standard_normal((40, 40)) / 7.0
        block = np.zeros((31, 40, 5))
        rows = block[::-1] if backward else block
        rows[0] = rng.standard_normal((40, 5))
        rows[1:, :, [1, 4]] = rng.standard_normal((30, 40, 2))  # increments in some columns only
        columns = [march(step, rows[:, :, j].copy()) for j in range(5)]
        assert march(step, rows) is rows
        for j, column in enumerate(columns):
            gap = np.max(np.abs(rows[:, :, j] - column))
            assert gap <= 1e-13 * np.max(np.abs(column))

    def test_reversed_step_inverts_the_reversible_stepper(self):
        space = SpectralSpace(8)
        step = cascade_step_matrix(space, standard_coupling(space).matrix, 0.01)
        product = reversed_step(step, 8) @ step
        assert np.max(np.abs(product - np.eye(32))) < 1e-12


class TestStepStructure:
    """Structural identities the control modules rely on."""

    def test_step_is_exactly_reversible_under_velocity_negation(self):
        space = SpectralSpace(12)
        coupling = standard_coupling(space)
        dt = 0.01
        P = cascade_step_matrix(space, coupling.matrix, dt)
        n = space.n_modes
        R = np.eye(4 * n)
        R[2 * n :, 2 * n :] *= -1.0
        assert np.max(np.abs(P @ (R @ P @ R) - np.eye(4 * n))) < 1e-12

    def test_controlled_step_is_exact_dual_of_adjoint_step(self):
        space = SpectralSpace(12)
        coupling = standard_coupling(space)
        dt = 0.01
        n = space.n_modes
        P = cascade_step_matrix(space, coupling.matrix, dt)
        Q = first_driven_step_matrix(space, coupling.matrix.T, dt)
        J = np.zeros((4 * n, 4 * n))
        J[: 2 * n, 2 * n :] = -np.eye(2 * n)
        J[2 * n :, : 2 * n] = np.eye(2 * n)
        assert np.max(np.abs(Q.T @ J @ P - J)) < 1e-13

    def test_duality_pairing_conserved_between_dual_trajectories(self):
        space = SpectralSpace(8)
        coupling = standard_coupling(space)
        grid = TimeGrid(1.0, 128)
        n = space.n_modes
        w_traj = evolve_cascade(random_state(space), coupling, grid)
        Q = first_driven_step_matrix(space, coupling.matrix.T, grid.dt)
        y = RNG.standard_normal(4 * n)
        pairings = []
        for k in range(grid.n_steps + 1):
            pairings.append(duality_pairing(y, w_traj.states[k], n))
            y = Q @ y
        assert np.max(np.abs(np.diff(pairings))) < 1e-12 * max(1.0, abs(pairings[0]))

    @pytest.mark.parametrize("driven", ["second", "first"])
    @pytest.mark.parametrize("dt", [0.01, 0.003])
    def test_coupling_block_matches_per_sub_node_loop(self, driven, dt):
        # reference: one Simpson sub-node at a time, the driven block nudged
        # by kernel(dt - tau) * M * free source(tau)
        space = SpectralSpace(12)
        n = space.n_modes
        M = RNG.standard_normal((n, n))
        om = space.frequencies
        src, drv = (0, n) if driven == "second" else (n, 0)
        expected = cascade_step_matrix(space, None, dt)
        for tau, w in ((0.0, dt / 6.0), (0.5 * dt, 4.0 * dt / 6.0), (dt, dt / 6.0)):
            kernels = (np.sin(om * (dt - tau)) / om, np.cos(om * (dt - tau)))
            sources = (np.cos(om * tau), np.sin(om * tau) / om)
            for row, kernel in zip((drv, drv + 2 * n), kernels):
                for col, source in zip((src, src + 2 * n), sources):
                    expected[row : row + n, col : col + n] -= w * kernel[:, None] * M * source[None, :]
        P = (cascade_step_matrix if driven == "second" else first_driven_step_matrix)(space, M, dt)
        assert np.max(np.abs(P - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestGenerator:
    def test_invert_position_only_state(self):
        space = SpectralSpace(4)
        state = CascadeState(space.unit_mode(1), space.zero(), space.zero(), space.zero())
        w = invert_generator(state, standard_coupling(space))
        assert np.max(np.abs(w.u1.coeffs)) == 0.0
        assert np.allclose(w.v1.coeffs, space.unit_mode(1).coeffs)

    def test_invert_velocity_state_follows_closed_form(self):
        space = SpectralSpace(4)
        coupling = standard_coupling(space)
        state = CascadeState(space.zero(), space.zero(), space.unit_mode(1), space.zero())
        w = invert_generator(state, coupling)
        assert w.u1.coeffs[0] == pytest.approx(-1.0 / np.pi**2, rel=1e-14)
        expected_w2 = (coupling.matrix @ (space.unit_mode(1).coeffs / space.eigenvalues)) / space.eigenvalues
        assert np.allclose(w.u2.coeffs, expected_w2, atol=1e-14)

    def test_inverse_commutes_with_evolution(self):
        space = SpectralSpace(8)
        coupling = standard_coupling(space)
        grid = TimeGrid(1.0, 512)
        state = random_state(space)
        path_a = evolve_cascade(invert_generator(state, coupling), coupling, grid).final_state
        path_b = invert_generator(evolve_cascade(state, coupling, grid).final_state, coupling)
        rel = np.linalg.norm(path_a.as_vector() - path_b.as_vector()) / np.linalg.norm(path_b.as_vector())
        assert rel < 1e-8


class TestEnergy:
    def test_levels_of_single_modes(self):
        space = SpectralSpace(4)
        pos = ComponentState(space.unit_mode(1), space.zero())
        assert energy(pos, 1) == pytest.approx(np.pi**2 / 2, rel=1e-14)
        assert energy(pos, 0) == pytest.approx(0.5, rel=1e-14)
        vel = ComponentState(space.zero(), space.unit_mode(1))
        assert energy(vel, 0) == pytest.approx(1.0 / (2.0 * np.pi**2), rel=1e-14)
        assert energy(vel, 0) == pytest.approx(0.050660, abs=1e-6)

    def test_first_component_energies_conserved_along_coupled_trajectory(self):
        space = SpectralSpace(16)
        coupling = standard_coupling(space)
        traj = evolve_cascade(random_state(space), coupling, TimeGrid(2.0, 2048))
        for level in (1, 0):
            series = traj.energy_series(1, level)
            assert np.max(np.abs(series - series[0])) / series[0] < 1e-12

    def test_energy_balance_of_driven_component(self):
        space = SpectralSpace(16)
        coupling = standard_coupling(space)
        grid = TimeGrid(2.0, 4096)
        traj = evolve_cascade(random_state(space), coupling, grid)
        e1 = traj.energy_series(2, 1)
        integrand = np.einsum(
            "ki,ij,kj->k", traj.block("u1"), coupling.matrix, traj.block("v2")
        )
        integral = float(grid.node_weights @ integrand)
        residual = abs(e1[-1] - e1[0] + integral) / max(e1[0], e1[-1])
        assert residual < 1e-6


class TestObserve:
    def test_velocity_observation_of_position_only_state(self):
        space = SpectralSpace(8)
        obs = Observer(
            "interior",
            weight=CoefficientFunction((PlateauBump(0.6, 0.7, 0.05, 1.0),), core_region=(0.6, 0.7)),
        )
        sample = observe(obs, ComponentState(space.unit_mode(1), space.zero()))
        assert np.max(np.abs(sample)) == 0.0

    def test_boundary_normal_derivative_of_first_mode(self):
        space = SpectralSpace(8)
        obs = Observer("boundary", b_left=1.0)
        (val,) = observe(obs, ComponentState(space.unit_mode(1), space.zero()))
        assert val == pytest.approx(-np.sqrt(2.0) * np.pi, rel=1e-14)
        assert val == pytest.approx(-4.4429, abs=5e-5)

    def test_observation_quadrature_matches_dense_oracle(self):
        # fine quadrature: the squared weight has curvature kinks at the
        # margin junctions, which limit the rule at the minimal panel count
        space = SpectralSpace(12, quadrature_panels=32768)
        weight = CoefficientFunction((PlateauBump(0.6, 0.7, 0.05, 1.0),), core_region=(0.6, 0.7))
        obs = Observer("interior", weight=weight)
        comp = ComponentState(
            ModalCoefficients(RNG.standard_normal(12), space),
            ModalCoefficients(RNG.standard_normal(12), space),
        )
        sample = observe(obs, comp)
        quad = float(np.sum(space.weights * np.asarray(sample) ** 2))
        x = np.linspace(0.0, 1.0, 1_000_001)
        dense = np.trapezoid((weight(x) * comp.velocity.evaluate(x)) ** 2, x)
        assert quad == pytest.approx(dense, rel=1e-6)


class TestForcedScalar:
    def test_matches_closed_form_for_resonance_free_forcing(self):
        # u'' + pi^2 u = cos(t), u(0) = u'(0) = 0 has the particular solution
        # (cos t - cos(pi t)) / (pi^2 - 1) in the first mode.
        space = SpectralSpace(4)
        grid = TimeGrid(2.0, 2048)
        g = space.unit_mode(1).coeffs

        def forcing(t):
            return np.cos(t) * g

        states = evolve_forced_scalar(ComponentState(space.zero(), space.zero()), forcing, grid)
        t = grid.times[-1]
        expected = (np.cos(t) - np.cos(np.pi * t)) / (np.pi**2 - 1.0)
        assert states[-1, 0] == pytest.approx(expected, abs=1e-10)

    def test_matches_per_step_reference_loop(self):
        # rotation, then the three Simpson sub-node kicks, one step at a time
        space = SpectralSpace(8)
        grid = TimeGrid(1.5, 256)
        g = RNG.standard_normal(8)
        initial = ComponentState(
            ModalCoefficients(RNG.standard_normal(8), space),
            ModalCoefficients(RNG.standard_normal(8), space),
        )

        def forcing(t):
            return np.cos(2.0 * t) * g

        dt = grid.dt
        om = space.frequencies
        p, v = initial.position.coeffs, initial.velocity.coeffs
        expected = [np.concatenate([p, v])]
        for t in grid.times[:-1]:
            p, v = np.cos(om * dt) * p + np.sin(om * dt) / om * v, -om * np.sin(om * dt) * p + np.cos(om * dt) * v
            for tau, w in ((0.0, dt / 6.0), (0.5 * dt, 4.0 * dt / 6.0), (dt, dt / 6.0)):
                f = forcing(t + tau)
                p = p + w * np.sin(om * (dt - tau)) / om * f
                v = v + w * np.cos(om * (dt - tau)) * f
            expected.append(np.concatenate([p, v]))
        expected = np.array(expected)
        states = evolve_forced_scalar(initial, forcing, grid)
        assert np.max(np.abs(states - expected)) <= 1e3 * np.finfo(float).eps * np.max(np.abs(expected))

    def test_forcing_is_called_once_on_a_column_of_times(self):
        space = SpectralSpace(8)
        grid = TimeGrid(1.0, 64)
        g = RNG.standard_normal(8)
        shapes = []

        def forcing(t):
            shapes.append(np.shape(t))
            return np.cos(3.0 * t) * g

        evolve_forced_scalar(ComponentState(space.zero(), space.zero()), forcing, grid)
        assert shapes == [(grid.n_steps, 3, 1)]

    def test_constant_forcing_vector_is_broadcast_over_time(self):
        space = SpectralSpace(8)
        grid = TimeGrid(1.0, 64)
        g = RNG.standard_normal(8)
        initial = ComponentState(space.zero(), space.zero())
        constant = evolve_forced_scalar(initial, lambda t: g, grid)
        assert np.array_equal(constant, evolve_forced_scalar(initial, lambda t: np.ones_like(t) * g, grid))

    def test_forcing_of_wrong_length_rejected(self):
        space = SpectralSpace(8)
        initial = ComponentState(space.zero(), space.zero())
        with pytest.raises(ValidationError, match="broadcast"):
            evolve_forced_scalar(initial, lambda t: np.ones(9), TimeGrid(1.0, 64))

    def test_long_run_matches_extended_precision_recursion(self):
        # the audit's forced waves: N = 16 over 5866 steps, forcing cos(freq t) g
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("np.longdouble is no wider than float64 here")
        space = SpectralSpace(16)
        grid = TimeGrid(1.75, 5866)
        rng = np.random.default_rng(3)
        p, v, g = rng.standard_normal((3, 16))
        g /= np.linalg.norm(g)
        freq = 1.7
        initial = ComponentState(ModalCoefficients(p, space), ModalCoefficients(v, space))
        states = evolve_forced_scalar(initial, lambda t: np.cos(freq * t) * g, grid)

        ld = np.longdouble
        om = space.frequencies.astype(ld)
        dt = ld(grid.horizon) / ld(grid.n_steps)
        p, v, g = p.astype(ld), v.astype(ld), g.astype(ld)
        subnodes = ((ld(0), dt / 6), (dt / 2, 4 * dt / 6), (dt, dt / 6))
        kicks = [(w * np.sin(om * (dt - tau)) / om, w * np.cos(om * (dt - tau)), tau) for tau, w in subnodes]
        c, s = np.cos(om * dt), np.sin(om * dt)
        expected = [np.concatenate([p, v])]
        for k in range(grid.n_steps):
            p, v = c * p + s / om * v, -om * s * p + c * v
            for k_pos, k_vel, tau in kicks:
                f = np.cos(ld(freq) * (k * dt + tau)) * g
                p, v = p + k_pos * f, v + k_vel * f
            expected.append(np.concatenate([p, v]))
        expected = np.array(expected)
        assert np.max(np.abs(states - expected)) <= 5e-14 * float(np.max(np.abs(expected)))


class TestCouplingOperator:
    def test_quadratic_bound_and_coercivity_hold(self):
        space = SpectralSpace(64)
        coupling = standard_coupling(space)
        for _ in range(20):
            w = RNG.standard_normal(64)
            assert coupling.quadratic_bound_slack(w) <= 1e-6 * float(w @ w)
            assert coupling.coercivity_slack(w) <= 1e-6 * float(w @ w)

    def test_slack_does_not_grow_under_refinement(self):
        worst = []
        for n in (64, 128):
            space = SpectralSpace(n)
            coupling = standard_coupling(space)
            rng = np.random.default_rng(5)
            slack = 0.0
            for _ in range(20):
                w = rng.standard_normal(n)
                slack = max(
                    slack,
                    coupling.quadratic_bound_slack(w) / float(w @ w),
                    coupling.coercivity_slack(w) / float(w @ w),
                )
            worst.append(slack)
        assert worst[1] <= max(worst[0], 1e-12)

    def test_alpha_beta_from_function(self):
        space = SpectralSpace(8)
        coupling = standard_coupling(space)
        assert coupling.alpha == pytest.approx(1.0)
        assert coupling.beta == pytest.approx(1.0)
        assert coupling.core_region == (0.2, 0.3)

    def test_projection_matrix_is_assembled_once(self):
        coupling = standard_coupling(SpectralSpace(8))
        assert coupling.projection_matrix is coupling.projection_matrix


class TestTimeGrid:
    def test_arrays_are_built_once_and_read_only(self):
        grid = TimeGrid(1.0, 64)
        for name in ("times", "node_weights", "fine_times", "fine_weights"):
            array = getattr(grid, name)
            assert getattr(grid, name) is array
            with pytest.raises(ValueError):
                array[0] = 1.0

    @pytest.mark.parametrize("step_phase", [0.0, -1.0, float("nan"), float("inf")])
    def test_for_space_rejects_a_step_phase_that_is_not_positive_and_finite(self, step_phase):
        # rejected before the division, naming the argument rather than the time step
        with pytest.raises(ValidationError, match="step_phase must be positive and finite"):
            TimeGrid.for_space(SpectralSpace(8), 1.0, step_phase)
