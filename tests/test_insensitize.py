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
    ConverseReport,
    InsensitizeCertificate,
    InsensitizeProblem,
    fine_second_positions,
    insensitize,
    phi_functional,
    verify_converse,
)
from wavecascade.insensitize import (
    _converse,
    _fine_phi,
    _first_component_norms,
    _free_response,
    _modal_derivatives,
    _polarized,
    _response,
    _robustness_exponent,
)
from wavecascade.runner import parse_config, run

from oracles import richardson_derivative, sensitivity_derivatives, trajectory_phi

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
        grid = TimeGrid(2.0, 64)
        positions = np.zeros((2 * grid.n_steps + 1, 4))
        assert phi_functional(positions, weight, grid.fine_weights) == 0.0

    def test_zero_weight(self):
        space = SpectralSpace(4)
        grid = TimeGrid(2.0, 64)
        positions = RNG.standard_normal((2 * grid.n_steps + 1, 4))
        assert phi_functional(positions, np.zeros((4, 4)), grid.fine_weights) == 0.0

    def test_separable_closed_form(self):
        # unit weight, y(t, x) = sin(pi t) phi_1(x) over two time units
        space = SpectralSpace(4)
        grid = TimeGrid(2.0, 256)
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
        f0 = richardson_derivative(prob, base, fine(_response(hum, z0, np.zeros(12))))
        f1 = richardson_derivative(prob, base, fine(_response(hum, np.zeros(12), z1)))
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
        analytic, _, scale = cert.fd_reference
        assert abs(analytic) > 1e3 * np.finfo(float).eps * scale
        assert 0.0 < cert.fd_reference_agreement <= 1e-5

    @staticmethod
    def _reference_agreement(reference):
        cert = InsensitizeCertificate(
            phi_baseline=1.0, max_terminal_relative=0.0, records=[], robustness_exponent=2.0,
            converse=ConverseReport(True, True, 0.0, 0.0), fd_reference=reference,
        )
        return cert.fd_reference_agreement

    def test_reference_below_resolution_never_passes(self):
        # within the polarization's roundoff of its Cauchy-Schwarz scale
        assert self._reference_agreement((1e-14, 1e-14, 1.0)) == float("inf")

    @pytest.mark.parametrize("reference", [(0.0, 0.0, 0.0), (3e-11, 3e-11, 0.0)])
    def test_reference_invisible_to_phi_never_passes(self, reference):
        assert self._reference_agreement(reference) == float("inf")

    def test_a_reference_above_resolution_is_compared(self):
        assert self._reference_agreement((1e-10, 1.1e-10, 1.0)) == pytest.approx(1.0 / 11.0)


class TestFinePositionRoute:
    # the certificate polarizes Phi on fine positions; these pin it to the node-state route
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

        phi_base, phi_response = trajectory_phi(prob, base), trajectory_phi(prob, response)
        h = np.sqrt(phi_base / phi_response)
        nodes = (trajectory_phi(prob, base + h * response) - trajectory_phi(prob, base - h * response)) / (2.0 * h)

        fine = lambda states: fine_second_positions(states, space, prob.grid)
        fine_route, scale = _polarized(prob, fine(base), phi_base, fine(response))
        assert scale == 2.0 * np.sqrt(phi_base * phi_response)
        assert abs(nodes) > 1e-3 * scale
        assert fine_route == pytest.approx(nodes, rel=1e-12)
        # the two-step Richardson difference, the reference the polarization replaced
        assert fine_route == pytest.approx(richardson_derivative(prob, fine(base), fine(response)), rel=1e-9)

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


def _resolved_pair(kind, seed):
    """A problem with the zero control's fine positions b and one perturbation's response a."""
    space = SpectralSpace(12)
    rng = np.random.default_rng(seed)
    data = (
        ModalCoefficients(rng.standard_normal(12) / np.sqrt(space.eigenvalues), space),
        ModalCoefficients(rng.standard_normal(12), space),
    )
    prob = make_problem(12, kind=kind, data=data)
    base = fine_second_positions(controlled_forward(prob.hum, None), space, prob.grid)
    response = _free_response(prob, rng.standard_normal(12) / np.sqrt(space.eigenvalues), rng.standard_normal(12))
    return prob, base, response


class TestQuadraticAlgebra:
    # the module RNG is left alone so that earlier draws stay put
    @pytest.mark.parametrize("kind", ["interior", "boundary"])
    def test_polarization_is_the_bilinear_form_at_every_step(self, kind):
        prob, base, response = _resolved_pair(kind, 61)
        bilinear = float(prob.grid.fine_weights @ np.einsum("ki,ki->k", base @ prob.weight_matrix, response))
        polarized, scale = _polarized(prob, base, _fine_phi(prob, base), response)
        assert abs(bilinear) <= scale  # Cauchy-Schwarz
        assert abs(polarized - bilinear) <= 1e-14 * scale
        for h in (1e-2, 1.0, 1e2):
            other = (_fine_phi(prob, base + h * response) - _fine_phi(prob, base - h * response)) / (2.0 * h)
            assert other == pytest.approx(bilinear, rel=1e-10)

    def test_a_perturbation_invisible_to_phi_has_zero_derivative_and_scale(self):
        prob, base, response = _resolved_pair("interior", 62)
        assert _polarized(prob, base, _fine_phi(prob, base), np.zeros_like(response)) == (0.0, 0.0)
        assert _polarized(prob, base, 0.0, response) == (0.0, 0.0)

    @pytest.mark.parametrize("kind", ["interior", "boundary"])
    def test_robustness_exponent_is_the_slope_of_phi_differences(self, kind):
        # at the zero control q is resolved, so the expansion is tied to Phi itself
        prob, base, response = _resolved_pair(kind, 63)
        phi_base, phi_response = _fine_phi(prob, base), _fine_phi(prob, response)
        bilinear, scale = _polarized(prob, base, phi_base, response)
        q = bilinear / scale
        assert abs(q) > 1e-2
        h = np.sqrt(phi_base / phi_response)
        changes = [abs(_fine_phi(prob, base + tau * h * response) - phi_base) for tau in (1e-1, 1e-4)]
        slope = np.log(changes[0] / changes[1]) / np.log(1e3)
        assert _robustness_exponent(q) == pytest.approx(slope, rel=1e-6)

    def test_robustness_exponent_edges(self):
        assert _robustness_exponent(0.0) == pytest.approx(2.0, rel=1e-15)
        assert 1.0 < _robustness_exponent(0.3) < 1.1
        assert np.isnan(_robustness_exponent(float("nan")))  # the perturbation is invisible to Phi
        assert np.isnan(_robustness_exponent(-5e-5))  # no change at tau = 1e-4

    @pytest.mark.parametrize("kind", ["interior", "boundary"])
    def test_converse_scales_are_those_of_each_unit_mode(self, kind):
        # the spanning set's scales come from column sums of the trig table; here each
        # unit mode's response is formed and its Phi evaluated
        prob, base, _ = _resolved_pair(kind, 64)
        phi_base = _fine_phi(prob, base)
        per_position, per_velocity = _modal_derivatives(prob, base)
        states = np.zeros((prob.grid.n_steps + 1, 4 * 12))
        report = _converse(prob, states, phi_base, (per_position, per_velocity), 1.0)
        zero, worst = np.zeros(12), 0.0
        for j in range(12):
            unit = np.eye(12)[j]
            for derivative, response in (
                (per_position[j], _free_response(prob, unit, zero)),
                (per_velocity[j], _free_response(prob, zero, unit)),
            ):
                worst = max(worst, abs(derivative) / (2.0 * np.sqrt(phi_base * _fine_phi(prob, response))))
        assert report.max_derivative_relative == pytest.approx(worst, rel=1e-12)
        assert not report.derivatives_vanish


class TestLargeSources:
    # a large source had failed terminal_state_null and fd_reference_agreement on a correct
    # control, and had passed robustness_quadratic with exponent inf
    @pytest.mark.parametrize(
        "config, amplitude",
        [
            ("criterion09_insensitize_interior", "1e8"),
            ("criterion09_insensitize_boundary", "1e8"),
            ("criterion09_insensitize_interior", "1e6"),
        ],
    )
    def test_run_passes_with_a_finite_quadratic_exponent(self, tmp_path, config, amplitude):
        result = run(parse_config(CONFIG_DIR / f"{config}.ini", [f"source.amplitude={amplitude}"]), tmp_path)
        assert result.status == 0, [c for c in result.checks if not c[1]]
        report = dict(line.split() for line in (tmp_path / "report.txt").read_text().splitlines())
        exponent = float(report["robustness_exponent"])
        assert np.isfinite(exponent) and 1.9 <= exponent <= 2.1

    def test_zero_control_converse_agrees(self):
        space = SpectralSpace(16)
        rng = np.random.default_rng(65)
        data = (
            ModalCoefficients(rng.standard_normal(16) / np.sqrt(space.eigenvalues), space),
            ModalCoefficients(rng.standard_normal(16), space),
        )
        g = rng.standard_normal(16)
        g /= np.linalg.norm(g)
        prob = make_problem(16, data=data, source=lambda t: 1e8 * np.sin(np.pi * t) * g, perturbation_count=1)
        report = verify_converse(prob, None)
        assert not report.terminal_nulls
        assert not report.derivatives_vanish
        assert report.directions_agree

    def test_fd_agreement_compares_something(self, tmp_path):
        # it had read 0.0 on every run: every record lay below the finite-difference resolution
        result = run(parse_config(CONFIG_DIR / "criterion09_insensitize_interior.ini"), tmp_path)
        assert result.status == 0
        report = dict(line.split() for line in (tmp_path / "report.txt").read_text().splitlines())
        assert 0.0 < float(report["fd_agreement"]) <= 1e-12
