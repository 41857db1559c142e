"""Tests for the insensitizing-control construction."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from wavecascade.errors import RefusalError, ValidationError
from wavecascade.spectral import (
    CoefficientFunction,
    ModalCoefficients,
    PlateauBump,
    SpectralSpace,
    assemble_multiplication_matrix,
)
from wavecascade.dynamics import Observer, TimeGrid
from wavecascade.hum import HUMProblem, TimeSampledControl, controlled_forward
from wavecascade.insensitize import (
    FD_STEPS,
    ConverseReport,
    InsensitizeCertificate,
    InsensitizeProblem,
    fine_second_positions,
    insensitize,
    phi_functional,
    verify_converse,
)
from wavecascade.insensitize import _fd_derivative, _first_component_norms, _free_response, _response
from wavecascade.runner import parse_config, run

from oracles import sensitivity_derivatives, trajectory_phi

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# the package re-exports the function insensitize under the submodule's name
insensitize_module = importlib.import_module("wavecascade.insensitize")

RNG = np.random.default_rng(20240815)

OBSERVATION_FN = CoefficientFunction((PlateauBump(0.2, 0.3, 0.05, 1.0),), core_region=(0.2, 0.3))
CONTROL_FN = CoefficientFunction((PlateauBump(0.6, 0.7, 0.05, 1.0),), core_region=(0.6, 0.7))


def make_problem(n_modes=16, horizon=4.0, kind="interior", weight=OBSERVATION_FN, data=None, n_steps=None, **kw):
    space = SpectralSpace(n_modes)
    if data is None:
        y0 = ModalCoefficients(RNG.standard_normal(n_modes) / np.sqrt(space.eigenvalues), space)
        y1 = ModalCoefficients(RNG.standard_normal(n_modes), space)
    else:
        y0, y1 = data
    control = Observer("interior", weight=CONTROL_FN) if kind == "interior" else Observer("boundary", b_left=1.0)
    return InsensitizeProblem(
        known_position=y0,
        known_velocity=y1,
        observation_weight=weight,
        grid=TimeGrid.for_space(space, horizon, 0.4) if n_steps is None else TimeGrid(horizon, n_steps),
        control_operator=control,
        **kw,
    )


class TestPhi:
    def test_zero_trajectory(self):
        space = SpectralSpace(4)
        weight = assemble_multiplication_matrix(OBSERVATION_FN, space)
        grid = TimeGrid(2.0, 64, allow_coarse=True)
        positions = np.zeros((2 * grid.n_steps + 1, 4))
        assert phi_functional(positions, weight, grid.fine_weights) == 0.0

    def test_zero_weight(self):
        space = SpectralSpace(4)
        grid = TimeGrid(2.0, 64, allow_coarse=True)
        positions = RNG.standard_normal((2 * grid.n_steps + 1, 4))
        assert phi_functional(positions, np.zeros((4, 4)), grid.fine_weights) == 0.0

    def test_separable_closed_form(self):
        # unit weight, y(t, x) = sin(pi t) phi_1(x) over two time units
        space = SpectralSpace(4)
        grid = TimeGrid(2.0, 256, allow_coarse=True)
        unit = CoefficientFunction((PlateauBump(0.0, 1.0, 0.0, 1.0),))
        weight = assemble_multiplication_matrix(unit, space)
        positions = np.zeros((2 * grid.n_steps + 1, 4))
        positions[:, 0] = np.sin(np.pi * grid.fine_times)
        assert phi_functional(positions, weight, grid.fine_weights) == pytest.approx(0.5, rel=1e-10)


class TestSensitivityDerivatives:
    def test_zero_weight_gives_zero(self):
        prob = make_problem(8, weight=CoefficientFunction(()))
        d0, d1 = sensitivity_derivatives(prob, None, np.ones(8), np.ones(8))
        assert d0 == 0.0 and d1 == 0.0

    def test_zero_perturbations_give_zero(self):
        prob = make_problem(8)
        d0, d1 = sensitivity_derivatives(prob, None, np.zeros(8), np.zeros(8))
        assert d0 == 0.0 and d1 == 0.0

    def test_matches_finite_difference_oracle(self):
        prob = make_problem(12)
        hum = prob.hum
        control = TimeSampledControl(
            0.1 * RNG.standard_normal((prob.grid.n_steps + 1, 12)), prob.grid
        )
        space = prob.space
        z0 = RNG.standard_normal(12)
        z0 /= np.sqrt(np.sum(space.eigenvalues * z0**2))
        z1 = RNG.standard_normal(12)
        z1 /= np.linalg.norm(z1)
        a0, a1 = sensitivity_derivatives(prob, control, z0, z1)
        fine = lambda states: fine_second_positions(states, space, prob.grid)
        base = fine(controlled_forward(hum, control))
        f0 = _fd_derivative(prob, base, fine(_response(hum, z0, np.zeros(12))))
        f1 = _fd_derivative(prob, base, fine(_response(hum, np.zeros(12), z1)))
        assert f0 == pytest.approx(a0, rel=1e-5)
        assert f1 == pytest.approx(a1, rel=1e-5)

    def test_derivative_is_linear_in_perturbation(self):
        prob = make_problem(8)
        control = TimeSampledControl(
            0.1 * RNG.standard_normal((prob.grid.n_steps + 1, 8)), prob.grid
        )
        za = RNG.standard_normal(8)
        zb = RNG.standard_normal(8)
        zeros = np.zeros(8)
        da, _ = sensitivity_derivatives(prob, control, za, zeros)
        db, _ = sensitivity_derivatives(prob, control, zb, zeros)
        dmix, _ = sensitivity_derivatives(prob, control, 0.5 * za - 2.0 * zb, zeros)
        expected = 0.5 * da - 2.0 * db
        assert abs(dmix - expected) <= 1e-8 * max(abs(expected), 1e-300)


class TestInsensitize:
    def test_zero_data_gives_zero_control(self):
        space = SpectralSpace(8)
        prob = make_problem(8, data=(space.zero(), space.zero()), perturbation_count=3)
        control, cert = insensitize(prob)
        assert control.squared_time_norm() == 0.0
        assert cert.phi_baseline == 0.0
        assert cert.max_derivative_relative == 0.0

    def test_interior_certificate(self):
        g = RNG.standard_normal(16)
        g /= np.linalg.norm(g)
        prob = make_problem(16, source=lambda t: np.sin(np.pi * t) * g, seed=5)
        control, cert = insensitize(prob)
        assert cert.max_terminal_relative <= 1e-6
        assert cert.max_derivative_relative <= 1e-6
        assert cert.fd_agreement <= 1e-5
        assert cert.robustness_exponent >= 1.9

    def test_boundary_certificate(self):
        prob = make_problem(16, kind="boundary", seed=6)
        control, cert = insensitize(prob)
        assert cert.max_terminal_relative <= 1e-6
        assert cert.max_derivative_relative <= 1e-6
        assert cert.fd_agreement <= 1e-5
        assert cert.robustness_exponent >= 1.9

    def test_degenerate_weight_reduces_to_plain_null_control(self):
        space = SpectralSpace(8)
        y0 = ModalCoefficients(RNG.standard_normal(8) / np.sqrt(space.eigenvalues), space)
        y1 = ModalCoefficients(RNG.standard_normal(8), space)
        prob = make_problem(8, weight=CoefficientFunction(()), data=(y0, y1), perturbation_count=3)
        control, cert = insensitize(prob)
        assert cert.phi_baseline == 0.0
        assert cert.max_terminal_relative <= 1e-6  # still a null control
        assert all(r.dphi_tau0_analytic == 0.0 for r in cert.records)

    def test_refuses_geometric_failure(self):
        with pytest.raises(RefusalError) as err:
            insensitize(make_problem(8, horizon=1.0))
        assert err.value.diagnostic["minimal_horizon"] == pytest.approx(1.4)

    def test_refuses_boundary_control_below_its_time(self):
        with pytest.raises(RefusalError) as err:
            insensitize(make_problem(8, kind="boundary", horizon=1.5))
        assert err.value.diagnostic["region"] == ("left",)


class TestConverse:
    def test_built_control_passes(self):
        prob = make_problem(12, seed=7)
        control, _ = insensitize(prob)
        report = verify_converse(prob, control)
        assert report.derivatives_vanish
        assert report.terminal_nulls
        assert report.directions_agree

    def test_zero_control_fails_with_quantified_residual(self):
        prob = make_problem(12, seed=8)
        report = verify_converse(prob, None)
        assert not report.derivatives_vanish
        assert not report.terminal_nulls
        assert report.directions_agree
        assert report.terminal_relative > 1e-3

    def test_vanishing_weight_passes_vacuously(self):
        prob = make_problem(8, weight=CoefficientFunction(()), perturbation_count=3)
        report = verify_converse(prob, None)
        assert report.derivatives_vanish
        assert report.terminal_nulls

    @pytest.mark.parametrize("kind", ["interior", "boundary"])
    def test_certificate_converse_is_verify_converse(self, kind):
        # the certificate reads the report off solve_hum's trajectory; re-marching
        # that control gives the same report field by field
        space = SpectralSpace(12)
        rng = np.random.default_rng(53)
        data = (
            ModalCoefficients(rng.standard_normal(12) / np.sqrt(space.eigenvalues), space),
            ModalCoefficients(rng.standard_normal(12), space),
        )
        prob = make_problem(12, kind=kind, data=data, perturbation_count=1)
        control, cert = insensitize(prob)
        assert cert.converse.terminal_nulls
        assert cert.converse == verify_converse(prob, control)

    def test_equivalence_over_constructed_instances(self):
        agree = []
        for seed in range(3):
            prob = make_problem(8, seed=seed, perturbation_count=3)
            control, _ = insensitize(prob)
            agree.append(verify_converse(prob, control).directions_agree)
            agree.append(verify_converse(prob, None).directions_agree)
        assert all(agree)


class TestTrajectoryPhi:
    def test_robustness_of_fine_interpolation(self):
        # node positions enter both the node and half-node samples; check
        # agreement against a direct fine re-simulation at doubled steps
        prob = make_problem(8, n_steps=512)
        hum = prob.hum
        from wavecascade.hum import controlled_forward

        states = controlled_forward(hum, None)
        phi_coarse = trajectory_phi(prob, states)
        prob_fine = make_problem(
            8, n_steps=1024, data=(prob.known_position, prob.known_velocity)
        )
        states_fine = controlled_forward(prob_fine.hum, None)
        phi_fine = trajectory_phi(prob_fine, states_fine)
        assert phi_coarse == pytest.approx(phi_fine, rel=1e-6)


class TestProblemValidation:
    @pytest.mark.parametrize("count", [0, -3])
    def test_rejects_a_perturbation_count_below_one(self, count):
        # an empty pool had certified vacuously: no records, every derivative check 0.0
        space = SpectralSpace(8)
        with pytest.raises(ValidationError):
            make_problem(8, data=(space.zero(), space.zero()), perturbation_count=count)


class TestReferenceOracle:
    # the module RNG is left alone so that earlier draws stay put
    @pytest.mark.parametrize("kind", ["interior", "boundary"])
    def test_reference_derivative_is_resolved_and_matches_differences(self, kind):
        space = SpectralSpace(12)
        rng = np.random.default_rng(31)
        data = (
            ModalCoefficients(rng.standard_normal(12) / np.sqrt(space.eigenvalues), space),
            ModalCoefficients(rng.standard_normal(12), space),
        )
        _, cert = insensitize(make_problem(12, kind=kind, data=data, perturbation_count=1, seed=3))
        analytic, _ = cert.fd_reference
        assert abs(analytic) > cert.fd_resolution
        assert 0.0 < cert.fd_reference_agreement <= 1e-5

    def test_reference_below_resolution_never_passes(self):
        cert = InsensitizeCertificate(
            phi_baseline=1.0, terminal={}, initial_norm=1.0, records=[], robustness_exponent=2.0,
            cg_iterations=1, final_residual=0.0, converse=ConverseReport(True, True, 0.0, 0.0),
            fd_resolution=1e-10, fd_reference=(3e-11, 3e-11),
        )
        assert cert.fd_reference_agreement == float("inf")


class TestFinePositionRoute:
    # the certificate differences Phi on fine positions; these pin it to the node-state route
    @pytest.mark.parametrize("kind", ["interior", "boundary"])
    def test_fd_on_fine_positions_matches_node_state_route(self, kind):
        space = SpectralSpace(12)
        rng = np.random.default_rng(41)
        data = (
            ModalCoefficients(rng.standard_normal(12) / np.sqrt(space.eigenvalues), space),
            ModalCoefficients(rng.standard_normal(12), space),
        )
        prob = make_problem(12, kind=kind, data=data)
        hum = prob.hum
        space = prob.space
        z0 = rng.standard_normal(12) / np.sqrt(space.eigenvalues)
        z1 = rng.standard_normal(12)
        base = controlled_forward(hum, None)  # the zero control: the derivative is resolved
        response = _response(hum, z0, z1)

        h1, h2 = FD_STEPS
        central = lambda h: (
            trajectory_phi(prob, base + h * response) - trajectory_phi(prob, base - h * response)
        ) / (2.0 * h)
        nodes = (h1**2 * central(h2) - h2**2 * central(h1)) / (h1**2 - h2**2)

        fine = lambda states: fine_second_positions(states, space, prob.grid)
        fine_route = _fd_derivative(prob, fine(base), fine(response))
        assert abs(nodes) > 1e-6 * trajectory_phi(prob, base)
        assert fine_route == pytest.approx(nodes, rel=1e-9)

    @pytest.mark.parametrize("kind", ["interior", "boundary"])
    def test_closed_form_response_matches_the_marched_one(self, kind):
        space = SpectralSpace(12)
        rng = np.random.default_rng(42)
        prob = make_problem(12, kind=kind, data=(space.zero(), space.zero()))
        z0 = rng.standard_normal(12) / np.sqrt(space.eigenvalues)
        z1 = rng.standard_normal(12)
        marched = fine_second_positions(_response(prob.hum, z0, z1), prob.space, prob.grid)
        closed = _free_response(prob, z0, z1)
        assert np.max(np.abs(marched - closed)) <= 1e-12 * np.max(np.abs(closed))

    @pytest.mark.parametrize("kind", ["interior", "boundary"])
    def test_converse_norms_match_per_row_loop(self, kind):
        space = SpectralSpace(8)
        states = np.random.default_rng(43).standard_normal((33, 32))
        lam = space.eigenvalues
        p, v = (2, 1) if kind == "interior" else (1, 0)
        loop = [
            np.sqrt(np.sum(lam**p * row[:8] ** 2) + np.sum(lam**v * row[16:24] ** 2)) for row in states
        ]
        np.testing.assert_array_equal(_first_component_norms(states, space, kind), loop)


class TestOracleTeeth:
    def test_swapped_analytic_slots_fail_the_lab_run(self, monkeypatch, tmp_path):
        derivatives = insensitize_module._modal_derivatives
        monkeypatch.setattr(
            insensitize_module, "_modal_derivatives", lambda problem, fine: derivatives(problem, fine)[::-1]
        )
        result = run(parse_config(CONFIG_DIR / "criterion10_converse.ini"), tmp_path)
        assert result.status == 1
        verdicts = {name: ok for name, ok, _ in result.checks}
        assert verdicts["fd_reference_agreement"] is False

    def test_perturbed_controlled_stepper_fails_the_lab_run(self, monkeypatch, tmp_path):
        # a perturbation this small passes every other check of the converse run
        exact = HUMProblem.step_controlled.func

        def perturbed(problem):
            step = exact(problem).copy()
            n = problem.space.n_modes
            controlled = np.r_[n : 2 * n, 3 * n : 4 * n]
            step[np.ix_(controlled, controlled)] += 1e-12
            return step

        monkeypatch.setattr(HUMProblem, "step_controlled", property(perturbed))
        result = run(parse_config(CONFIG_DIR / "criterion10_converse.ini"), tmp_path)
        assert result.status == 1
        assert [name for name, ok, _ in result.checks if not ok] == ["response_stepper_gap"]


class TestSharedOperators:
    def test_converse_run_builds_the_step_once_and_the_grid_weights_once(self, monkeypatch, tmp_path):
        import wavecascade.dynamics as dynamics_module
        import wavecascade.hum as hum_module

        counts = {"cascade_step_matrix": 0, "simpson_weights": 0}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(hum_module, "cascade_step_matrix")
        counting(dynamics_module, "simpson_weights")
        result = run(parse_config(CONFIG_DIR / "criterion10_converse.ini"), tmp_path)
        assert result.status == 0
        assert counts["cascade_step_matrix"] == 1
        assert counts["simpson_weights"] <= 2

    def test_converse_run_builds_the_fine_trig_table_once(self, monkeypatch, tmp_path):
        tables = []
        original = insensitize_module.free_flow

        def counted(space, t):
            if np.ndim(t):  # fine_second_positions rotates by the scalar half step
                tables.append(np.shape(t))
            return original(space, t)

        monkeypatch.setattr(insensitize_module, "free_flow", counted)
        result = run(parse_config(CONFIG_DIR / "criterion10_converse.ini"), tmp_path)
        assert result.status == 0
        assert len(tables) == 1

    def test_certificate_and_converse_share_one_cascade_problem(self):
        prob = make_problem(8, perturbation_count=1)
        assert prob.hum is prob.hum
        assert prob.hum.observer is prob.control_operator
        assert prob.hum.coupling.function is prob.observation_weight
