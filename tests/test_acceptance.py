"""Acceptance suite: one test per acceptance criterion, printed verdicts.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are fixed here and match the package contract.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

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
    evolve_cascade,
)
from wavecascade.observability import (
    admissibility_constant,
    empirical_horizon,
    empirical_ratios,
    estimate_uniform_constants,
    inequality_chain_audit,
    min_eigenvalue,
    random_cascade_states,
    theoretical_constants,
)
from wavecascade.hum import (
    HUMProblem,
    TimeSampledControl,
    assemble_rhs,
    dense_hum_matrix,
    solve_hum,
    verify_transposition,
)
from wavecascade.insensitize import (
    InsensitizeProblem,
    insensitize,
    verify_converse,
)
from wavecascade.runner import main as cli_main

COUPLING_FN = CoefficientFunction((PlateauBump(0.2, 0.3, 0.05, 1.0),), core_region=(0.2, 0.3))
OBS_FN = CoefficientFunction((PlateauBump(0.6, 0.7, 0.05, 1.0),), core_region=(0.6, 0.7))


def verdict(number, name, ok, detail):
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def dense_generator(space, coupling):
    n = space.n_modes
    lam = np.diag(space.eigenvalues)
    z = np.zeros((n, n))
    eye = np.eye(n)
    cmat = z if coupling is None else coupling.matrix
    return np.block([[z, z, eye, z], [z, z, z, eye], [-lam, z, z, z], [-cmat, -lam, z, z]])


def interior_observer():
    return Observer("interior", weight=OBS_FN)


class TestCriterion1SolverOracle:
    def test_solver_matches_exponential_oracle_and_is_fourth_order(self):
        space = SpectralSpace(16)
        coupling = CouplingOperator(COUPLING_FN, space)
        rng = np.random.default_rng(7)
        u0 = rng.standard_normal(4 * 16)
        started = time.perf_counter()
        grid = TimeGrid(2.0, 512)
        traj = evolve_cascade(CascadeState.from_vector(u0, space), coupling, grid)
        elapsed = time.perf_counter() - started
        reference = expm(2.0 * dense_generator(space, coupling)) @ u0
        rel = np.linalg.norm(traj.states[-1] - reference) / np.linalg.norm(reference)
        verdict(1, "solver_oracle_equivalence", rel < 1e-6 and elapsed < 5.0,
                f"relative error {rel:.3e}, runtime {elapsed:.2f}s")

        # order check: worst node error over the trajectory, dt halved once
        errors = {}
        for n_steps in (256, 512):
            grid_n = TimeGrid(2.0, n_steps)
            traj_n = evolve_cascade(CascadeState.from_vector(u0, space), coupling, grid_n)
            step = expm(grid_n.dt * dense_generator(space, coupling))
            ref = u0.copy()
            worst = 0.0
            for k in range(n_steps):
                ref = step @ ref
                worst = max(worst, np.linalg.norm(traj_n.states[k + 1] - ref))
            errors[n_steps] = worst / np.linalg.norm(u0)
        ratio = errors[256] / errors[512]
        verdict(1, "solver_fourth_order", 12.0 <= ratio <= 20.0, f"halving ratio {ratio:.2f}")


class TestCriterion2Conservation:
    def test_first_component_energies_and_balance(self):
        space = SpectralSpace(16)
        coupling = CouplingOperator(COUPLING_FN, space)
        grid = TimeGrid(2.0, 4096)
        rng = np.random.default_rng(3)
        traj = evolve_cascade(CascadeState.from_vector(rng.standard_normal(64), space), coupling, grid)
        drifts = []
        for level in (1, 0):
            series = traj.energy_series(1, level)
            drifts.append(float(np.max(np.abs(series - series[0])) / series[0]))
        ok = all(d < 1e-12 for d in drifts)
        verdict(2, "first_component_conservation", ok, f"drifts {drifts[0]:.2e}, {drifts[1]:.2e}")

        e1 = traj.energy_series(2, 1)
        integrand = np.einsum("ki,ij,kj->k", traj.block("u1"), coupling.matrix, traj.block("v2"))
        integral = float(grid.node_weights @ integrand)
        residual = abs(e1[-1] - e1[0] + integral) / max(e1[0], e1[-1])
        verdict(2, "driven_energy_balance", residual < 1e-6, f"residual {residual:.3e}")


class TestCriterion3Identities:
    def test_duality_and_transposition_identities(self):
        space = SpectralSpace(16)
        coupling = CouplingOperator(COUPLING_FN, space)
        grid = TimeGrid.for_space(space, 4.0, 0.4)
        rng = np.random.default_rng(21)
        n = space.n_modes

        worst_identity = 0.0
        for _ in range(20):
            state = CascadeState.from_vector(rng.standard_normal(4 * n), space)
            traj = evolve_cascade(state, coupling, grid)
            u1_fine = traj.first_component_fine_positions()
            cu1 = u1_fine @ coupling.matrix.T
            lhs = float(grid.fine_weights @ np.einsum("ki,ki->k", cu1, u1_fine))
            pairing = lambda s: float(s[2 * n : 3 * n] @ s[n : 2 * n] - s[3 * n :] @ s[:n])
            rhs = pairing(traj.states[-1]) - pairing(traj.states[0])
            worst_identity = max(worst_identity, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        verdict(3, "coupling_duality_identity", worst_identity < 1e-6, f"max residual {worst_identity:.3e}")

        worst_scalar = 0.0
        worst_cascade = 0.0
        for i in range(20):
            data = CascadeState.from_vector(rng.standard_normal(4 * n), space)
            scalar_data = CascadeState(
                space.zero(), data.u2, space.zero(), data.v2
            )
            control = TimeSampledControl(
                rng.standard_normal((grid.n_steps + 1, n)), "interior", grid
            )
            scalar_problem = HUMProblem("interior", scalar_data, None, interior_observer(), grid)
            cascade_problem = HUMProblem("interior", data, coupling, interior_observer(), grid)
            worst_scalar = max(
                worst_scalar,
                verify_transposition(scalar_problem, control, n_probes=3, seed=i)["max_residual"],
            )
            worst_cascade = max(
                worst_cascade,
                verify_transposition(cascade_problem, control, n_probes=3, seed=i)["max_residual"],
            )
        verdict(3, "scalar_transposition", worst_scalar < 1e-6, f"max residual {worst_scalar:.3e}")
        verdict(3, "cascade_transposition", worst_cascade < 1e-6, f"max residual {worst_cascade:.3e}")


class TestCriterion4PositiveObservability:
    def test_interior_refinement_stability(self):
        values = {}
        contrast = {}
        for n in (16, 32, 64):
            space = SpectralSpace(n)
            coupling = CouplingOperator(COUPLING_FN, space)
            grid = TimeGrid.for_space(space, 4.0, 0.5)
            report = min_eigenvalue(coupling, interior_observer(), grid, space)
            values[n] = report.min_eig
            contrast[n] = report.contrast
        spread = (max(values.values()) - min(values.values())) / min(values.values())
        ok = spread < 0.5 and all(c > 1e-6 for c in contrast.values())
        verdict(4, "interior_observability", ok,
                f"min eigs {[f'{values[n]:.3e}' for n in (16, 32, 64)]}, spread {spread:.1%}")

    def test_boundary_refinement_stability(self):
        values = {}
        contrast = {}
        for n in (16, 32, 64):
            space = SpectralSpace(n)
            coupling = CouplingOperator(COUPLING_FN, space)
            grid = TimeGrid.for_space(space, 4.0, 0.5)
            report = min_eigenvalue(coupling, Observer("boundary", b_left=1.0), grid, space)
            values[n] = report.min_eig
            contrast[n] = report.contrast
        spread = (max(values.values()) - min(values.values())) / min(values.values())
        ok = spread < 0.5 and all(c > 1e-6 for c in contrast.values())
        verdict(4, "boundary_observability", ok,
                f"min eigs {[f'{values[n]:.3e}' for n in (16, 32, 64)]}, spread {spread:.1%}")


class TestCriterion5Necessity:
    def test_vanishing_coupling_blinds_first_component(self):
        space = SpectralSpace(32)
        grid = TimeGrid.for_space(space, 4.0, 0.5)
        report = min_eigenvalue(None, interior_observer(), grid, space)
        verdict(5, "decoupled_first_block_null", report.block_min["u1"] <= 1e-10,
                f"u1-block min eig {report.block_min['u1']:.3e}")

    def test_short_horizon_collapse_under_refinement(self):
        values = []
        for n in (16, 32, 64):
            space = SpectralSpace(n)
            coupling = CouplingOperator(COUPLING_FN, space)
            grid = TimeGrid.for_space(space, 0.1, 0.5)
            values.append(min_eigenvalue(coupling, interior_observer(), grid, space).min_eig)
        ratios = [values[0] / values[1], values[1] / values[2]]
        verdict(5, "short_horizon_collapse", all(r >= 2.0 for r in ratios),
                f"eigs {[f'{v:.2e}' for v in values]}, decay factors {[f'{r:.1f}' for r in ratios]}")


class TestCriterion6ConstantChain:
    def test_closed_forms_at_unit_inputs(self):
        c = theoretical_constants(alpha=1.0, beta=1.0, gamma0=1.0, eta0=1.0, alpha0=1.0, t0=1.4)
        root = np.sqrt(16.0**2 + 16.0 + 64.0)
        expected_m = root / ((2 * 16 + 1) * (16 + root) + 16 + 2 * 64)
        ok = (
            abs(c.a - 16.0) <= 1e-12 * 16.0
            and abs(c.b - 64.0) <= 1e-12 * 64.0
            and abs(c.m_factor - expected_m) <= 1e-12 * expected_m
            and abs(c.m_factor - 0.014355) <= 1e-6
            and abs(c.t1 - 16.0) <= 1e-12 * 16.0
        )
        verdict(6, "constant_chain_closed_forms", ok,
                f"a={c.a}, b={c.b}, M={c.m_factor:.9f}, t1={c.t1}")

    def test_audit_with_estimated_constants(self):
        space = SpectralSpace(16)
        coupling = CouplingOperator(COUPLING_FN, space)
        observer = interior_observer()
        horizon = empirical_horizon(coupling, observer)
        grid = TimeGrid.for_space(space, 1.25 * horizon, 0.015)
        gamma0, delta0 = estimate_uniform_constants(coupling, grid, space, ensemble=32, seed=11)
        eta0, alpha0 = estimate_uniform_constants(observer, grid, space, ensemble=32, seed=12)
        constants = theoretical_constants(
            coupling.alpha, coupling.beta, 2 * gamma0, 2 * eta0, 2 * alpha0, horizon, delta0=2 * delta0
        )
        bound = 2.0 * admissibility_constant(coupling, observer, grid, space, ensemble=16, seed=13)
        failures = []
        states = random_cascade_states(space, 100, seed=77)
        for rows in inequality_chain_audit(states, coupling, observer, constants, grid,
                                           admissibility_bound=bound):
            for row in rows:
                if row.must_hold and not row.satisfied:
                    failures.append(row.name)
        verdict(6, "audit_must_hold_on_ensemble", not failures,
                f"horizon {grid.horizon:.3g}, 100 samples, failures {sorted(set(failures)) or 'none'}")


class TestCriterion7Trends:
    def test_horizon_scalings_of_worst_case_constants(self):
        space = SpectralSpace(16)
        coupling = CouplingOperator(COUPLING_FN, space)
        observer = interior_observer()
        rows = []
        for horizon in (4.0, 8.0, 16.0):
            grid = TimeGrid.for_space(space, horizon, 0.25)
            rows.append((horizon, empirical_ratios(coupling, observer, grid, space, ensemble=16, seed=5)))
        details = []
        ok = True
        for key, power in (("d1_emp", 3.0), ("d2_emp", 1.0), ("r2_emp", 2.0)):
            series = [r[key] * T**power for T, r in rows]
            ok &= all(series[i + 1] <= 2.0 * series[i] for i in range(len(series) - 1))
            details.append(f"{key}*T^{power:g} {', '.join(f'{v:.3g}' for v in series)}")
        k2 = [r["k2_emp"] for _, r in rows]
        ok &= max(k2) <= 2.0 * min(k2)
        details.append(f"k2 {', '.join(f'{v:.3g}' for v in k2)}")
        verdict(7, "horizon_trends", bool(ok), "; ".join(details))


class TestCriterion8ExactControl:
    def test_interior_case(self):
        space = SpectralSpace(32)
        coupling = CouplingOperator(COUPLING_FN, space)
        rng = np.random.default_rng(42)
        problem = HUMProblem(
            "interior",
            CascadeState.from_vector(rng.standard_normal(128), space),
            coupling,
            interior_observer(),
            TimeGrid.for_space(space, 4.0, 0.4),
            cg_tolerance=1e-10,
            max_iterations=500,
        )
        solution = solve_hum(problem)
        worst = max(v for k, v in solution.terminal_norms.items() if k != "total") / solution.initial_norm
        ok = worst <= 1e-6 and solution.cg_iterations < 500
        verdict(8, "interior_null_control", ok,
                f"worst relative terminal {worst:.3e}, {solution.cg_iterations} iterations")

    def test_boundary_case(self):
        space = SpectralSpace(32)
        coupling = CouplingOperator(COUPLING_FN, space)
        rng = np.random.default_rng(43)
        problem = HUMProblem(
            "boundary",
            CascadeState.from_vector(rng.standard_normal(128), space),
            coupling,
            Observer("boundary", b_left=1.0),
            TimeGrid.for_space(space, 4.0, 0.4),
            cg_tolerance=1e-10,
            max_iterations=500,
        )
        solution = solve_hum(problem)
        worst = max(v for k, v in solution.terminal_norms.items() if k != "total") / solution.initial_norm
        ok = worst <= 1e-6 and solution.cg_iterations < 500
        verdict(8, "boundary_null_control", ok,
                f"worst relative terminal {worst:.3e}, {solution.cg_iterations} iterations")

    def test_small_case_matches_dense_solve(self):
        space = SpectralSpace(8)
        coupling = CouplingOperator(COUPLING_FN, space)
        rng = np.random.default_rng(44)
        problem = HUMProblem(
            "interior",
            CascadeState.from_vector(rng.standard_normal(32), space),
            coupling,
            interior_observer(),
            TimeGrid.for_space(space, 4.0, 0.4),
            cg_tolerance=1e-10,
            max_iterations=500,
        )
        solution = solve_hum(problem)
        gram = dense_hum_matrix(problem)
        dense = np.linalg.solve(gram, -assemble_rhs(problem))
        rel = np.linalg.norm(solution.minimizer.as_vector() - dense) / np.linalg.norm(dense)
        verdict(8, "cg_matches_dense", rel < 1e-6, f"relative gap {rel:.3e}")


class TestCriterion9Insensitizing:
    def _problem(self, kind, seed):
        space = SpectralSpace(32)
        rng = np.random.default_rng(seed)
        y0 = ModalCoefficients(rng.standard_normal(32) / np.sqrt(space.eigenvalues), space)
        y1 = ModalCoefficients(rng.standard_normal(32), space)
        g = rng.standard_normal(32)
        g /= np.linalg.norm(g)
        extra = dict(control_weight=OBS_FN) if kind == "interior" else dict(b_left=1.0)
        return InsensitizeProblem(
            known_position=y0,
            known_velocity=y1,
            observation_weight=COUPLING_FN,
            horizon=4.0,
            control_kind=kind,
            source=lambda t: np.sin(np.pi * t) * g,
            cg_tolerance=1e-10,
            max_iterations=500,
            perturbation_count=10,
            seed=seed + 1,
            **extra,
        )

    def _check(self, kind, seed, label):
        _, cert = insensitize(self._problem(kind, seed))
        ok = (
            cert.max_terminal_relative <= 1e-6
            and cert.max_derivative_relative <= 1e-6
            and cert.fd_agreement <= 1e-5
            and cert.robustness_exponent >= 1.9
        )
        verdict(
            9,
            label,
            ok,
            f"terminal {cert.max_terminal_relative:.2e}, derivatives {cert.max_derivative_relative:.2e}, "
            f"fd {cert.fd_agreement:.2e}, exponent {cert.robustness_exponent:.3f}",
        )

    def test_interior_insensitizing_control(self):
        self._check("interior", 9, "interior_insensitizing")

    def test_boundary_insensitizing_control(self):
        self._check("boundary", 19, "boundary_insensitizing")


class TestCriterion10Equivalence:
    def test_forward_and_converse_agree(self):
        space = SpectralSpace(16)
        disagreements = []
        weak_negatives = []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            y0 = ModalCoefficients(rng.standard_normal(16) / np.sqrt(space.eigenvalues), space)
            y1 = ModalCoefficients(rng.standard_normal(16), space)
            problem = InsensitizeProblem(
                known_position=y0,
                known_velocity=y1,
                observation_weight=COUPLING_FN,
                horizon=4.0,
                control_kind="interior",
                control_weight=OBS_FN,
                cg_tolerance=1e-10,
                max_iterations=500,
                perturbation_count=3,
                seed=seed,
            )
            control, _ = insensitize(problem)
            positive = verify_converse(problem, control)
            if not (positive.derivatives_vanish and positive.terminal_nulls and positive.directions_agree):
                disagreements.append(("positive", seed))
            negative = verify_converse(problem, None)
            if negative.derivatives_vanish or negative.terminal_nulls or not negative.directions_agree:
                disagreements.append(("negative", seed))
            if negative.terminal_relative <= 1e-3:
                weak_negatives.append(seed)
        ok = not disagreements and not weak_negatives
        verdict(10, "equivalence_of_characterizations", ok,
                f"5 positive + 5 negative instances, disagreements {disagreements or 'none'}, "
                f"weak negatives {weak_negatives or 'none'}")


class TestCriterion11Determinism:
    def test_rerun_reproduces_bytes(self, tmp_path):
        for label in ("first", "second"):
            code = cli_main(["configs/criterion11_determinism.ini", "-o", str(tmp_path / label)])
            assert code == 0
        first = (tmp_path / "first" / "trajectory.csv").read_bytes()
        second = (tmp_path / "second" / "trajectory.csv").read_bytes()
        verdict(11, "deterministic_artifacts", first == second,
                f"{len(first)} bytes, byte-identical {first == second}")
