"""Tests for Gramians, constants, control times, and the inequality audit."""

import numpy as np
import pytest
from scipy.linalg import expm

from wavecascade.errors import RefusalError, ValidationError
from wavecascade.spectral import CoefficientFunction, PlateauBump, SpectralSpace
from wavecascade.dynamics import (
    MAX_STEP_PHASE,
    CascadeState,
    ComponentState,
    CouplingOperator,
    Observer,
    TimeGrid,
    cascade_step_matrix,
    evolve_cascade,
    evolve_cascade_backward,
    evolve_forced_scalar,
    free_flow,
    reversed_step,
)
from wavecascade.hum import HUMProblem
from wavecascade.observability import (
    FORCED_WAVES,
    ObservabilityConstants,
    _audit_forms,
    _dense_generator,
    _doubling,
    _energy_metrics,
    _forced_wave_integrals,
    _free_flow_gram,
    _simpson_trig_sums,
    admissibility_constant,
    empirical_horizon,
    empirical_ratios,
    estimate_uniform_constants,
    gcc_min_time,
    gramian_matrix,
    inequality_chain_audit,
    min_eigenvalue,
    norm_weights,
    observation_block_rows,
    random_cascade_states,
    weighted_gram,
)

from oracles import (
    apply_gramian,
    dense_weighted_gram,
    exponential_gramian,
    forced_wave_integrals,
    free_flow_gram_long_double,
    free_flow_gram_table,
    generalized_ratios,
    gramian_form,
    ray_hit_time,
    sharp_free_constants,
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
        gram = exponential_gramian(coupling, obs, grid, space)
        for _ in range(20):
            u = RNG.standard_normal(4 * space.n_modes)
            dense = float(u @ gram @ u)
            form = gramian_form(CascadeState.from_vector(u, space), coupling, obs, grid)
            assert form == pytest.approx(dense, rel=1e-8)


class TestGramianMatrix:
    def test_zero_weight_gives_zero_matrix(self):
        space, coupling, grid = standard_setup(8, horizon=1.0)
        obs = Observer("interior", weight=CoefficientFunction(()))
        gram = exponential_gramian(coupling, obs, grid, space)
        assert np.all(gram == 0.0)

    def test_decoupled_first_block_vanishes(self):
        space, _, grid = standard_setup(8)
        gram = exponential_gramian(None, interior_observer(), grid, space)
        n = space.n_modes
        first = np.concatenate([np.arange(n), np.arange(2 * n, 3 * n)])
        assert np.max(np.abs(gram[first])) == 0.0
        assert np.max(np.abs(gram[:, first])) == 0.0

    def test_symmetric_positive_semidefinite(self):
        space, coupling, grid = standard_setup(8)
        gram = exponential_gramian(coupling, interior_observer(), grid, space)
        assert np.max(np.abs(gram - gram.T)) < 1e-10
        eigs = np.linalg.eigvalsh(gram)
        assert eigs[0] > -1e-10 * eigs[-1]

    def test_dense_routes_run_past_64_modes(self):
        # N = 80: the solver Gramian matches its matrix-free oracle, and the
        # spectrum of the QR-doubling square root is resolved and stable
        # against N = 64
        rng = np.random.default_rng(80)
        obs = interior_observer()
        reports = {}
        for n in (64, 80):
            space = SpectralSpace(n)
            coupling = CouplingOperator(COUPLING_FN, space)
            grid = TimeGrid.for_space(space, 4.0, 0.5)
            reports[n] = min_eigenvalue(coupling, obs, grid, space)
        gram = gramian_matrix(coupling, obs, grid, space)
        for _ in range(3):
            u = rng.standard_normal(4 * space.n_modes)
            mv = apply_gramian(u, coupling, obs, grid, space)
            assert np.max(np.abs(mv - gram @ u)) < 1e-8 * np.max(np.abs(gram @ u))
        assert np.isfinite(reports[80].block_min["u1"])
        assert abs(reports[80].min_eig - reports[64].min_eig) <= 0.25 * reports[64].min_eig

    def test_matrix_free_application_matches_dense(self):
        space, coupling, grid = standard_setup(8)
        obs = interior_observer()
        gram = gramian_matrix(coupling, obs, grid, space)
        for _ in range(5):
            u = RNG.standard_normal(4 * space.n_modes)
            mv = apply_gramian(u, coupling, obs, grid, space)
            assert np.max(np.abs(mv - gram @ u)) < 1e-8 * np.max(np.abs(gram @ u))


def cascade_steps(space, coupling, dt):
    """The three steps the doubling serves: the solver's, its exact inverse and the matrix exponential's."""
    step = cascade_step_matrix(space, coupling.matrix, dt)
    return {
        "cascade_step_matrix": step,
        "step_back": reversed_step(step, space.n_modes),
        "expm": expm(dt * _dense_generator(space, coupling)),
    }


class TestBlockDoubling:
    # M = 2 never enters the doubling loop
    @pytest.mark.parametrize("n_modes", [8, 16, 32])
    @pytest.mark.parametrize("n_steps", [2, 806, 5866])
    def test_matches_the_dense_doubling(self, n_modes, n_steps):
        # the reference doubles the dense matrices in long double: in double its
        # own roundoff reaches 1e-13 of the Gramian at M = 5866
        space = SpectralSpace(n_modes)
        coupling = CouplingOperator(COUPLING_FN, space)
        grid = TimeGrid(4.0, n_steps)
        rows = np.random.default_rng(n_modes + n_steps).standard_normal((3, 4 * n_modes))
        form = rows.T @ rows  # every block of the form is nonzero
        for name, step in cascade_steps(space, coupling, grid.dt).items():
            gram, power = _doubling(form, step, grid)
            ref_gram, ref_power = dense_weighted_gram(form.astype(np.longdouble), step.astype(np.longdouble), grid)
            assert np.array_equal(gram, gram.T), name
            assert np.max(np.abs(gram - ref_gram)) <= 1e-13 * np.max(np.abs(ref_gram)), name
            assert np.max(np.abs(power - ref_power)) <= 1e-13 * np.max(np.abs(ref_power)), name
            exact = np.linalg.matrix_power(step.astype(np.longdouble), n_steps)
            assert np.max(np.abs(power - exact)) <= 1e-13 * np.max(np.abs(exact)), name
            assert np.array_equal(weighted_gram(form, step, grid), gram), name

    def test_a_stack_of_forms_sums_each_form_as_its_own_call(self):
        space, coupling, grid = standard_setup(8)
        rows = np.random.default_rng(3).standard_normal((3, 3, 4 * space.n_modes))
        forms = rows.mT @ rows
        for name, step in cascade_steps(space, coupling, grid.dt).items():
            grams, power = _doubling(forms, step, grid)
            assert grams.shape == forms.shape, name
            for form, gram in zip(forms, grams):
                single_gram, single_power = _doubling(form, step, grid)
                assert np.array_equal(gram, single_gram), name
                assert np.array_equal(power, single_power), name

    def test_audit_endpoint_forms_match_the_long_double_power(self):
        # criterion 6's grid (N = 16, M = 5866): the endpoint forms read step^M
        # from the doubling, against a long-double matrix power
        space = SpectralSpace(16)
        n = space.n_modes
        coupling = CouplingOperator(COUPLING_FN, space)
        observer = interior_observer()
        grid = TimeGrid.for_space(space, 1.25 * empirical_horizon(coupling, observer), 0.015)
        assert grid.n_steps == 5866
        forms = _audit_forms(coupling, observer, grid, space)
        step = cascade_step_matrix(space, coupling.matrix, grid.dt).astype(np.longdouble)
        power = np.linalg.matrix_power(step, grid.n_steps)
        natural_second = _energy_metrics(space)[1]
        pairing = np.zeros((4 * n, 4 * n))  # v1.u2 - v2.u1
        pairing[2 * n : 3 * n, n : 2 * n] = pairing[n : 2 * n, 2 * n : 3 * n] = 0.5 * np.eye(n)
        pairing[3 * n :, :n] = pairing[:n, 3 * n :] = -0.5 * np.eye(n)
        references = {
            "e1_u2_T": power.T @ (natural_second[:, None] * power),
            "boundary_term": power.T @ pairing @ power - pairing,
        }
        for name, ref in references.items():
            assert np.max(np.abs(forms[name] - ref)) <= 1e-14 * np.max(np.abs(ref)), name

    def test_refuses_a_step_it_cannot_represent(self):
        space, coupling, grid = standard_setup(8)
        n = space.n_modes
        form = np.eye(4 * n)
        with pytest.raises(ValidationError):
            weighted_gram(form, RNG.standard_normal((4 * n, 4 * n)), grid)
        step = cascade_step_matrix(space, coupling.matrix, grid.dt)
        for row, col in ((2 * n + 1, 3 * n + 2), (1, 2), (3 * n, 3 * n + 1)):
            # free <- driven, then between two modes of the free and of the driven component
            bad = step.copy()
            bad[row, col] = 1e-300
            with pytest.raises(ValidationError):
                weighted_gram(form, bad, grid)


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

    def test_qr_doubling_matches_the_stacked_svd(self):
        # reference: the node blocks sqrt(w_m) rows E^m stacked, scaled by the
        # metric, and tall SVDs of that factor and of its u1 columns
        def extremes(matrix):
            """Squared smallest and largest singular values; the smallest is 0 for a wide matrix."""
            svals = np.linalg.svd(matrix, compute_uv=False)
            return (svals[-1] ** 2 if svals.size == matrix.shape[1] else 0.0), svals[0] ** 2

        def reference(coupling, observer, grid, space):
            rows = observation_block_rows(observer, space)
            step = expm(grid.dt * _dense_generator(space, coupling))
            blocks = []
            for w in grid.node_weights:
                blocks.append(np.sqrt(w) * rows)
                rows = rows @ step
            factor = np.vstack(blocks) * (1.0 / np.sqrt(norm_weights(space)))[None, :]
            n = space.n_modes
            return factor, extremes(factor), extremes(factor[:, np.r_[0:n, 2 * n : 3 * n]])[0]

        boundary = Observer("boundary", b_left=1.0)
        cases = ((interior_observer(), 16, 4.0), (boundary, 16, 4.0), (interior_observer(), 16, 0.1),
                 (interior_observer(), 32, 0.1))
        for observer, n, horizon in cases:
            space = SpectralSpace(n)
            coupling = CouplingOperator(COUPLING_FN, space)
            grid = TimeGrid.for_space(space, horizon, 0.5)
            _, (min_eig, max_eig), u1 = reference(coupling, observer, grid, space)
            report = min_eigenvalue(coupling, observer, grid, space)
            assert report.max_eig == pytest.approx(max_eig, rel=1e-12)
            if horizon == 4.0:  # resolved spectra; at T = 0.1 they are roundoff
                assert report.min_eig == pytest.approx(min_eig, rel=1e-10)
                assert report.block_min["u1"] == pytest.approx(u1, rel=1e-10)
            else:
                assert report.min_eig <= 1e-30 * report.max_eig

        space, _, grid = standard_setup(16, step_phase=0.5)
        assert min_eigenvalue(None, interior_observer(), grid, space).block_min["u1"] == 0.0

        # wide factor: 13 rows of one boundary observation against 64 columns
        space = SpectralSpace(16)
        coupling = CouplingOperator(COUPLING_FN, space)
        grid = TimeGrid.for_space(space, 0.1, 0.5)
        factor, (_, max_eig), _ = reference(coupling, boundary, grid, space)
        assert factor.shape[0] < factor.shape[1]
        report = min_eigenvalue(coupling, boundary, grid, space)
        assert report.min_eig == 0.0 and report.block_min["u1"] == 0.0
        assert report.max_eig == pytest.approx(max_eig, rel=1e-12)

    def test_peak_memory_stays_below_a_few_square_factors(self):
        # the square-root route never holds a factor taller than a few 4N x 4N
        # blocks; a tall (M + 1) q x 4N factor at N = 32, T = 4 is some 50 MiB
        import tracemalloc

        space, coupling, grid = standard_setup(32, step_phase=0.5)
        min_eigenvalue(coupling, interior_observer(), grid, space)  # warm-up: SciPy's import is not counted
        tracemalloc.start()
        try:
            min_eigenvalue(coupling, interior_observer(), grid, space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * (4 * space.n_modes) ** 2 * 8

    @pytest.mark.parametrize("kind", ["interior", "boundary"])
    def test_top_eigenvalue_out_of_the_float_range_names_the_observer(self, kind):
        # R is finite, but its top singular value squared had overflowed to an inf spectrum
        space, coupling, grid = standard_setup(8)
        weight = CoefficientFunction((PlateauBump(0.6, 0.7, 0.05, 1e200),), core_region=(0.6, 0.7))
        obs = Observer("interior", weight=weight) if kind == "interior" else Observer("boundary", b_left=1e200)
        with pytest.raises(ValidationError, match=r"^\[observer\] is too large"):
            min_eigenvalue(coupling, obs, grid, space)


class TestTheoreticalConstants:
    def test_unit_inputs_reproduce_closed_forms(self):
        c = ObservabilityConstants(alpha=1.0, beta=1.0, gamma0=1.0, eta0=1.0, alpha0=1.0, t0=1.0)
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
        a = ObservabilityConstants(2.0, 3.0, 0.7, 1.1, 0.9, 1.4)
        b = ObservabilityConstants(2.0, 3.0, 0.7, 1.1, 0.9, 1.4)
        assert a == b

    @pytest.mark.parametrize(
        "inputs",
        [
            (0.0, 1.0, 1.0, 1.0, 1.0, 1.0),  # alpha zero
            (1.0, 1.0, -1.0, 1.0, 1.0, 1.0),  # gamma0 negative
            (1.0, 1.0, 1.0, 1.0, 1.0, float("nan")),  # t0 NaN would make t3 NaN
            (1.0, 1.0, 1.0, float("inf"), 1.0, 1.0),  # eta0 infinite would make right-hand sides infinite
            (1.0, 1.0, 1e200, 1.0, 1.0, 1.0),  # gamma0**2 overflows
            (1e-300, 1.0, 1.0, 1.0, 1.0, 1.0),  # alpha**2 underflows to 0
            (1.0, 1e154, 1e154, 1.0, 1.0, 1.0),  # the squares fit, their products overflow to inf
        ],
        ids=["alpha_zero", "gamma0_negative", "t0_nan", "eta0_inf", "power_overflow", "square_underflow",
             "product_overflow"],
    )
    def test_rejects_nonpositive_inputs(self, inputs):
        with pytest.raises(ValidationError):
            ObservabilityConstants(*inputs)

    def test_nu_identity_and_m_range(self):
        c = ObservabilityConstants(0.5, 2.0, 1.3, 0.8, 1.7, 2.0)
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


def _free_ratios_one_wave_at_a_time(coupling, observer, grid, space, ensemble, seed):
    """gamma0 and eta0 by simulating each free wave on the nodes and integrating its functional."""
    quad = coupling.projection_matrix
    rows = observer.observation_rows(space)
    cos_t, sin_over, minus_sin = free_flow(space, grid.times)
    n = space.n_modes

    def projection_sq(positions, velocities):
        return np.einsum("ki,ki->k", velocities @ quad, velocities)

    def observation_sq(positions, velocities):
        component = velocities if observer.kind == "interior" else positions
        return ((component @ rows.T) ** 2).sum(axis=1)

    def free_ratio(form_sq, rng):
        ratio = 0.0
        for _ in range(ensemble):
            p0 = rng.standard_normal(n)
            v0 = rng.standard_normal(n)
            positions = cos_t * p0 + sin_over * v0
            velocities = minus_sin * p0 + cos_t * v0
            e1 = 0.5 * float(p0**2 @ space.eigenvalues + v0 @ v0)
            ratio = max(ratio, grid.horizon * e1 / float(grid.node_weights @ form_sq(positions, velocities)))
        return ratio

    gamma0 = free_ratio(projection_sq, np.random.default_rng(seed))
    return gamma0, free_ratio(observation_sq, np.random.default_rng(seed + 1))


def _audit_grid(space):
    """Criterion 6's grid at N = 16: 1.25 geometric horizons at step phase 0.015, 5866 steps."""
    grid = TimeGrid.for_space(space, 1.25 * empirical_horizon(CouplingOperator(COUPLING_FN, space), interior_observer()), 0.015)
    assert grid.n_steps == 5866
    return grid


def _gram_error(gram, reference) -> float:
    """Largest entry error against the long-double reference, relative to its largest entry."""
    return float(np.max(np.abs(gram - reference)) / np.max(np.abs(reference)))


class TestFreeFlowGram:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize(
        "n_modes, horizon, step_phase, fine",
        [
            (16, None, 0.015, False),  # the audit's nodes, K = 5866: gamma0 and eta0
            (16, None, 0.015, True),  # its half-step grid, K = 11,732: the free moments
            (16, 16.0, 0.25, True),  # criterion07_trends' r2 at T = 16
            (32, 4.0, 0.5, True),  # the gramian configs' r2
            (64, 4.0, 0.5, True),
            (16, 4.0, 0.5, False),  # the nodes at the largest admitted step: 2 w_N dt reaches 1.0
            (32, 4.0, 0.5, False),
        ],
    )
    @pytest.mark.parametrize("velocity", [False, True])
    def test_closed_form_is_no_less_accurate_than_the_table(self, n_modes, horizon, step_phase, fine, velocity):
        space = SpectralSpace(n_modes)
        grid = _audit_grid(space) if horizon is None else TimeGrid.for_space(space, horizon, step_phase)
        times, weights = (grid.fine_times, grid.fine_weights) if fine else (grid.times, grid.node_weights)
        reference = free_flow_gram_long_double(space, grid, fine, velocity)
        closed = _gram_error(_free_flow_gram(space, grid, fine, velocity), reference)
        table = _gram_error(free_flow_gram_table(space, times, weights, velocity), reference)
        assert closed <= table
        assert closed <= 4 * self.EPS

    @pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9])
    def test_trig_sums_at_and_near_zero(self, offset):
        # every phase of a grid validate_for admits lies in (-pi/2, pi/2), where sin(theta) vanishes at 0 alone
        intervals, h = 6, np.longdouble(0.25)
        theta = np.linspace(-1.5, 1.5, 7, dtype=np.longdouble) + np.longdouble(offset)
        c, s = _simpson_trig_sums(theta, intervals, h)
        weights = np.ones(intervals + 1, dtype=np.longdouble)
        weights[1:-1:2], weights[2:-1:2] = 4, 2
        k_theta = np.multiply.outer(np.arange(intervals + 1, dtype=np.longdouble), theta)
        scale = h * intervals
        assert np.max(np.abs(c - (h / 3) * weights @ np.cos(k_theta))) <= 4 * self.EPS * scale
        assert np.max(np.abs(s - (h / 3) * weights @ np.sin(k_theta))) <= 4 * self.EPS * scale

    def test_peak_memory_stays_below_one_time_table(self):
        # the gemm form held a (K + 1) x 2N table and its weighted copy: 3.0 MB each here
        import tracemalloc

        space = SpectralSpace(16)
        grid = _audit_grid(space)
        _free_flow_gram(space, grid, fine=True)
        tracemalloc.start()
        try:
            _free_flow_gram(space, grid, fine=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * grid.n_steps + 1) * space.n_modes * 8


# every public consumer of a TimeGrid, called on (space, coupling, grid, report)
GRID_CONSUMERS = {
    "evolve_cascade": lambda space, coupling, grid, report: evolve_cascade(CascadeState.zero(space), coupling, grid),
    "evolve_cascade_backward": lambda space, coupling, grid, report: evolve_cascade_backward(
        CascadeState.zero(space), coupling, grid
    ),
    "evolve_forced_scalar": lambda space, coupling, grid, report: evolve_forced_scalar(
        ComponentState(space.zero(), space.zero()), np.zeros_like, grid
    ),
    "gramian_matrix": lambda space, coupling, grid, report: gramian_matrix(coupling, interior_observer(), grid, space),
    "min_eigenvalue": lambda space, coupling, grid, report: min_eigenvalue(coupling, interior_observer(), grid, space),
    "empirical_ratios": lambda space, coupling, grid, report: empirical_ratios(report, coupling, grid, space),
    "estimate_uniform_constants": lambda space, coupling, grid, report: estimate_uniform_constants(
        coupling, interior_observer(), grid, space
    ),
    "_audit_forms": lambda space, coupling, grid, report: _audit_forms(coupling, interior_observer(), grid, space),
    "HUMProblem": lambda space, coupling, grid, report: HUMProblem(
        CascadeState.zero(space), coupling, interior_observer(), grid
    ),
}


@pytest.mark.parametrize("consumer", sorted(GRID_CONSUMERS))
def test_every_grid_consumer_admits_the_limit_step_and_refuses_the_next_coarser(consumer):
    # TimeGrid.validate_for is the one statement of dt * w_N <= MAX_STEP_PHASE; for_space gives the
    # coarsest even grid it admits, so two steps fewer put the phase just past the limit
    space, coupling, grid = standard_setup(8, horizon=4.0, step_phase=MAX_STEP_PHASE)
    coarse = TimeGrid(grid.horizon, grid.n_steps - 2)
    assert grid.dt * space.frequencies[-1] <= MAX_STEP_PHASE < coarse.dt * space.frequencies[-1]
    report = min_eigenvalue(coupling, interior_observer(), grid, space)
    call = GRID_CONSUMERS[consumer]
    call(space, coupling, grid, report)
    with pytest.raises(ValidationError, match="resolves the fastest mode poorly"):
        call(space, coupling, coarse, report)


class TestEstimateUniformConstants:
    @pytest.mark.parametrize("kind", ["interior", "boundary"])
    def test_free_constants_are_the_top_eigenvalues_of_their_pencils(self, kind):
        space, coupling, grid = standard_setup(16, horizon=4.0)
        obs = interior_observer() if kind == "interior" else Observer("boundary", b_left=1.0)
        gamma0, eta0, _ = estimate_uniform_constants(coupling, obs, grid, space, seed=11)
        assert (gamma0, eta0) == estimate_uniform_constants(coupling, obs, grid, space, seed=1)[:2]  # bit for bit
        ref_gamma0, ref_eta0 = sharp_free_constants(coupling, obs, grid, space)
        assert gamma0 == pytest.approx(ref_gamma0, rel=1e-10, abs=0.0)
        assert eta0 == pytest.approx(ref_eta0, rel=1e-10, abs=0.0)
        # a worst case over all free data bounds every sampled wave's ratio
        for seed in (11, 1):
            wave_gamma0, wave_eta0 = _free_ratios_one_wave_at_a_time(coupling, obs, grid, space, 32, seed)
            assert gamma0 >= wave_gamma0 * (1.0 - 1e-12)
            assert eta0 >= wave_eta0 * (1.0 - 1e-12)

    def test_free_constants_on_the_audit_geometries(self):
        # criterion 6's grid (T = 1.75) and criterion 3's (T = 4), both at step phase 0.015: the sampled
        # maxima had read 11.83 and 10.91 on criterion 6, 11.72 and 11.08 on criterion 3
        space = SpectralSpace(16)
        coupling, obs = CouplingOperator(COUPLING_FN, space), interior_observer()
        grids = {(45.20, 29.30): _audit_grid(space), (42.65, 25.57): TimeGrid.for_space(space, 4.0, 0.015)}
        for expected, grid in grids.items():
            assert estimate_uniform_constants(coupling, obs, grid, space)[:2] == pytest.approx(expected, rel=1e-3)

    def test_invisible_free_wave_is_refused(self):
        # a weight of 1e-200 squares to 0: every free wave is invisible to the observation form
        space, coupling, grid = standard_setup(8, horizon=4.0)
        weight = CoefficientFunction((PlateauBump(0.6, 0.7, 0.05, 1e-200),), core_region=(0.6, 0.7))
        with pytest.raises(RefusalError, match="invisible to the observation"):
            estimate_uniform_constants(coupling, Observer("interior", weight=weight), grid, space)

    def test_single_mode_unit_weight_ratio(self):
        # one mode observed everywhere with unit weight: the energy ratio is 1
        space = SpectralSpace(1)
        obs = Observer(
            "interior",
            weight=CoefficientFunction((PlateauBump(0.0, 1.0, 0.0, 1.0),), core_region=(0.0, 1.0)),
        )
        grid = TimeGrid(2.0, 512)
        coupling = CouplingOperator(COUPLING_FN, space)
        _, eta0, _ = estimate_uniform_constants(coupling, obs, grid, space)
        assert eta0 == pytest.approx(1.0, rel=1e-10)

    def test_empty_region_reports_failure(self):
        space = SpectralSpace(4)
        obs = Observer("interior", weight=CoefficientFunction(()))
        with pytest.raises(RefusalError):
            estimate_uniform_constants(CouplingOperator(COUPLING_FN, space), obs, TimeGrid(4.0, 256), space)

    def test_horizon_below_control_time_refused(self):
        space = SpectralSpace(4)
        with pytest.raises(RefusalError):
            estimate_uniform_constants(
                CouplingOperator(COUPLING_FN, space), interior_observer(), TimeGrid(0.5, 64), space
            )

    def test_horizon_between_control_times_refused_naming_the_coupling(self):
        # the observation region's control time is 1.2, the coupling region's 1.4
        space = SpectralSpace(4)
        coupling = CouplingOperator(COUPLING_FN, space)
        with pytest.raises(RefusalError, match="coupling region") as info:
            estimate_uniform_constants(coupling, interior_observer(), TimeGrid(1.3, 64), space)
        assert info.value.diagnostic["region"] == coupling.core_region
        assert info.value.diagnostic["gcc_min_time"] == pytest.approx(1.4)

    def test_a_grid_that_resolves_the_fastest_mode_poorly_is_refused(self):
        # dt * w_N = 4/64 * 16 pi = 3.1 > 0.5: both had accepted the grid; the report comes from a valid one
        space, coupling, grid = standard_setup(16, horizon=4.0)
        coarse = TimeGrid(4.0, 64)
        with pytest.raises(ValidationError, match="resolves the fastest mode poorly"):
            estimate_uniform_constants(coupling, interior_observer(), coarse, space)
        report = min_eigenvalue(coupling, interior_observer(), grid, space)
        with pytest.raises(ValidationError, match="resolves the fastest mode poorly"):
            empirical_ratios(report, coupling, coarse, space)

    def test_projection_pair_positive(self):
        space, coupling, grid = standard_setup(8, horizon=2.0, step_phase=0.2)
        gamma0, _, _ = estimate_uniform_constants(coupling, interior_observer(), grid, space, seed=3)
        assert gamma0 > 0

    @pytest.mark.parametrize("seed, expected", [(0, 0.2172), (11, 0.3857), (1, 1.3010)])
    def test_forced_ensemble_matches_the_lab_frame_oracle(self, seed, expected):
        # the rotating-frame alpha0 against each forced wave marched back to the lab frame, at cases above the
        # floor: against the sharp eta0 every interior case tried floors, boundary ones at T = 4 do not
        space, coupling, grid = standard_setup(16, horizon=4.0)
        obs = Observer("boundary", b_left=1.0)
        _, eta0, alpha0 = estimate_uniform_constants(coupling, obs, grid, space, seed=seed)
        e1_int, obs_int, f_int = forced_wave_integrals(obs, grid, space, np.random.default_rng(seed), FORCED_WAVES)
        deficit = e1_int - eta0 * obs_int
        reference = np.max(deficit / f_int, where=(deficit > 0) & (f_int > 0), initial=0.0)
        assert reference == pytest.approx(expected, rel=1e-3)
        # deficit = e1_int - eta0 obs_int cancels, so its roundoff is measured in units of each wave's e1_int
        assert abs(alpha0 - reference) <= 1e-12 * np.max(e1_int / f_int)

    @pytest.mark.parametrize("kind", ["interior", "boundary"])
    def test_forced_wave_integrals_match_the_marched_oracle(self, kind):
        # each wave's E, O and F in closed form against the wave marched node by node: the interior observer on
        # criterion 6's grid (M = 5866), the boundary observer at T = 4
        if kind == "interior":
            space = SpectralSpace(16)
            obs = interior_observer()
            grid = TimeGrid.for_space(space, 1.25 * empirical_horizon(CouplingOperator(COUPLING_FN, space), obs), 0.015)
            assert grid.n_steps == 5866
        else:
            space, _, grid = standard_setup(16, horizon=4.0)
            obs = Observer("boundary", b_left=1.0)
        rows = obs.observation_rows(space)
        velocity = kind == "interior"
        observation = np.tile(rows.T @ rows, (2, 2)) * _free_flow_gram(space, grid, velocity=velocity)
        for seed in (0, 11):
            closed = _forced_wave_integrals(rows, observation, velocity, grid, space, np.random.default_rng(seed))
            marched = forced_wave_integrals(obs, grid, space, np.random.default_rng(seed), FORCED_WAVES)
            for got, expected in zip(closed, marched):
                np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_peak_memory_stays_below_one_state_table(self):
        # criterion 6's grid, M = 5866 steps and N = 16: one (M + 1) x 2N table is 1.50 MB; the forced waves
        # summed on the nodes peaked at 4.2 tables, the closed form builds none
        import tracemalloc

        space = SpectralSpace(16)
        coupling, obs = CouplingOperator(COUPLING_FN, space), interior_observer()
        grid = TimeGrid.for_space(space, 1.25 * empirical_horizon(coupling, obs), 0.015)
        assert grid.n_steps == 5866
        estimate_uniform_constants(coupling, obs, grid, space, seed=11)  # fills the caches
        tracemalloc.start()
        try:
            estimate_uniform_constants(coupling, obs, grid, space, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * (grid.n_steps + 1) * 2 * space.n_modes * 8

    @pytest.mark.parametrize(
        "kind, height, wave",
        [("interior", 1e160, "free"), ("interior", 1e200, "free"), ("interior", 1e300, "free"), ("boundary", 10**151.5, "forced")],
    )
    def test_observation_out_of_the_float_range_names_the_observer(self, kind, height, wave):
        # the observation form had overflowed to a NaN eta0, which the runner blamed on the coupling;
        # a boundary weight of 10^151.5 keeps the free waves' observation in range but not the forced ones'
        space, coupling, grid = standard_setup(16, horizon=4.0)
        weight = CoefficientFunction((PlateauBump(0.6, 0.7, 0.05, height),), core_region=(0.6, 0.7))
        obs = Observer("interior", weight=weight) if kind == "interior" else Observer("boundary", b_left=height)
        with pytest.raises(ValidationError, match=rf"^\[observer\] is too large: the observation of a {wave} wave"):
            estimate_uniform_constants(coupling, obs, grid, space)


class TestEmpiricalRatiosAndAudit:
    def test_ratios_follow_claimed_horizon_scalings(self):
        space = SpectralSpace(16)
        coupling = CouplingOperator(COUPLING_FN, space)
        obs = interior_observer()
        rows = []
        for horizon in (4.0, 8.0, 16.0):
            grid = TimeGrid.for_space(space, horizon, 0.25)
            report = min_eigenvalue(coupling, obs, grid, space)
            rows.append((horizon, empirical_ratios(report, coupling, grid, space)))
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
        kform = weighted_gram(np.diag(natural_second), step, grid)
        for x in np.random.default_rng(5).standard_normal((4, 4 * n)):
            traj = evolve_cascade(CascadeState.from_vector(x, space), coupling, grid)
            expected = float(grid.node_weights @ traj.energy_series(2, 1))
            assert float(x @ kform @ x) == pytest.approx(expected, rel=1e-10)

    def test_ratios_refuse_non_coercive_horizon(self):
        space = SpectralSpace(8)
        coupling = CouplingOperator(COUPLING_FN, space)
        grid = TimeGrid.for_space(space, 0.1, 0.5)
        report = min_eigenvalue(coupling, interior_observer(), grid, space)
        with pytest.raises(RefusalError):
            empirical_ratios(report, coupling, grid, space)

    @pytest.mark.parametrize("case", ["interior", "boundary", "trends", "interior_n64"])
    def test_ratios_match_the_generalized_eigh_oracle(self, case):
        # criterion 4's interior and boundary Gramians (N=32 and 64, T=4) and criterion 7's at T=16 (N=16)
        space = SpectralSpace({"trends": 16, "interior_n64": 64}.get(case, 32))
        coupling = CouplingOperator(COUPLING_FN, space)
        obs = Observer("boundary", b_left=1.0) if case == "boundary" else interior_observer()
        grid = TimeGrid.for_space(space, 16.0, 0.25) if case == "trends" else TimeGrid.for_space(space, 4.0, 0.5)
        ratios = empirical_ratios(min_eigenvalue(coupling, obs, grid, space), coupling, grid, space)
        expected = generalized_ratios(coupling, obs, grid, space)
        assert ratios.keys() == expected.keys()
        for key, value in expected.items():
            assert ratios[key] == pytest.approx(value, rel=1e-12, abs=0.0), key

    def test_ratios_admissibility_is_the_reports_top_eigenvalue(self):
        # one Gramian per row: the admissibility cell is the report's, bit for bit
        space, coupling, grid = standard_setup(32, step_phase=0.5)
        report = min_eigenvalue(coupling, interior_observer(), grid, space)
        assert empirical_ratios(report, coupling, grid, space)["admissibility"] == report.max_eig

    def test_admissibility_constant_is_the_top_rayleigh_quotient(self):
        space = SpectralSpace(32)
        coupling = CouplingOperator(COUPLING_FN, space)
        obs = interior_observer()
        grid = TimeGrid.for_space(space, 4.0, 0.5)
        constant = admissibility_constant(coupling, obs, grid, space)
        gram = gramian_matrix(coupling, obs, grid, space)
        metric = norm_weights(space)

        def quotients(x):
            return np.einsum("si,si->s", x @ gram, x) / ((x * x) @ metric)

        _, vectors = np.linalg.eigh(gram / np.sqrt(np.outer(metric, metric)))
        top = vectors[:, -1] / np.sqrt(metric)  # back from the metric-scaled coordinates
        assert constant == pytest.approx(quotients(top[None, :])[0], rel=1e-12, abs=0.0)
        draws = np.random.default_rng(1000).standard_normal((1000, 4 * space.n_modes))
        assert np.all(quotients(draws) <= constant)

    def test_admissibility_constant_stable_under_refinement(self):
        values = {}
        for n in (32, 64):
            space = SpectralSpace(n)
            coupling = CouplingOperator(COUPLING_FN, space)
            grid = TimeGrid.for_space(space, 4.0, 0.4)
            values[n] = admissibility_constant(coupling, interior_observer(), grid, space)
        assert abs(values[64] - values[32]) <= 0.10 * values[32]

    def test_zero_weight_admissibility(self):
        space, coupling, grid = standard_setup(8)
        obs = Observer("interior", weight=CoefficientFunction(()))
        assert admissibility_constant(coupling, obs, grid, space) == 0.0

    def test_audit_zero_state_all_trivial(self):
        space, coupling, grid = standard_setup(8, horizon=2.0)
        constants = ObservabilityConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.4)
        zero = np.zeros((1, 4 * space.n_modes))
        rows = inequality_chain_audit(zero, coupling, interior_observer(), constants, grid, 2.0)
        assert all(r.satisfied.all() for r in rows)
        assert all(np.all(r.lhs == 0.0) and np.all(r.rhs == 0.0) for r in rows)

    def test_audit_samples_are_the_state_by_state_draws(self):
        # one (samples, 4N) draw is the same stream as one 4N draw per state
        space = SpectralSpace(8)
        rng = np.random.default_rng(80)
        one_by_one = np.array([rng.standard_normal(4 * space.n_modes) for _ in range(7)])
        assert random_cascade_states(space, 7, seed=80).tobytes() == one_by_one.tobytes()

    @pytest.mark.parametrize(
        "samples",
        [np.ones((2, 33)), np.ones((2, 31)), np.ones(32), np.ones((0, 32)), np.ones((1, 2, 32)), np.full((2, 32), np.nan)],
    )
    def test_audit_refuses_anything_but_a_finite_block_of_states(self, samples):
        space, coupling, grid = standard_setup(8, horizon=2.0)
        constants = ObservabilityConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.4)
        with pytest.raises(ValidationError, match="audit samples"):
            inequality_chain_audit(samples, coupling, interior_observer(), constants, grid, 2.0)

    def test_duality_identity_on_random_data(self):
        space = SpectralSpace(32)
        coupling = CouplingOperator(COUPLING_FN, space)
        grid = TimeGrid.for_space(space, 4.0, 0.4)
        constants = ObservabilityConstants(coupling.alpha, coupling.beta, 1.0, 1.0, 1.0, 1.4)
        obs = interior_observer()
        samples = random_cascade_states(space, 5, seed=21)
        rows = {r.name: r for r in inequality_chain_audit(samples, coupling, obs, constants, grid, 2.0)}
        identity = rows["coupling_duality_identity"]
        scale = np.maximum(abs(identity.lhs), abs(identity.rhs))
        assert np.all(abs(identity.lhs - identity.rhs) <= 1e-6 * scale)

    def test_audit_with_estimated_constants_passes_must_hold(self):
        space = SpectralSpace(16)
        coupling = CouplingOperator(COUPLING_FN, space)
        obs = interior_observer()
        horizon = empirical_horizon(coupling, obs)
        grid = TimeGrid.for_space(space, 1.25 * horizon, 0.015)
        gamma0, eta0, alpha0 = estimate_uniform_constants(coupling, obs, grid, space, seed=11)
        constants = ObservabilityConstants(
            coupling.alpha, coupling.beta, 2.0 * gamma0, 2.0 * eta0, 2.0 * alpha0, horizon
        )
        samples = random_cascade_states(space, 25, seed=77)
        for row in inequality_chain_audit(samples, coupling, obs, constants, grid, 2.0):
            if row.must_hold:
                assert row.satisfied.all(), row.name

    @pytest.mark.parametrize("seed", [11, 1])
    def test_audit_admissibility_reads_its_own_solver_gramian(self, seed):
        # the audit's obs_int form is the solver Gramian: its bound is the
        # assembled constant's, bit for bit (criterion 6's grid at two seeds)
        space = SpectralSpace(16)
        coupling = CouplingOperator(COUPLING_FN, space)
        obs = interior_observer()
        grid = TimeGrid.for_space(space, 1.25 * empirical_horizon(coupling, obs), 0.015)
        constants = ObservabilityConstants(coupling.alpha, coupling.beta, 1.0, 1.0, 1.0, 1.4)
        x = random_cascade_states(space, 5, seed=seed + 3)
        forms = _audit_forms(coupling, obs, grid, space)
        e0_u1_0, e1_u2_0 = (np.einsum("si,si->s", x @ forms[name], x) for name in ("e0_u1_0", "e1_u2_0"))
        expected = 2.0 * admissibility_constant(coupling, obs, grid, space) * (e0_u1_0 + e1_u2_0)
        audited = inequality_chain_audit(x, coupling, obs, constants, grid, 2.0)
        (rhs,) = [row.rhs for row in audited if row.name == "admissibility"]
        assert rhs.tolist() == expected.tolist()


class TestWholeSpaceAudit:
    """A row over the whole truncated space: its worst margin per unit of initial energy is one eigenvalue."""

    @pytest.mark.parametrize(
        "criterion, row",
        [(6, "projected_free_observability"), (3, "projected_free_observability"), (3, "source_observability_driven")],
    )
    def test_row_holds_at_its_worst_datum(self, criterion, row):
        # criterion 6 (T = 1.75, seed 11) and criterion 3 (T = 4, seed 21), constants inflated 2x as the
        # audit inflates them; with sampled gamma0 and eta0 these worst margins had read +0.83, +1.80 and +0.58
        space = SpectralSpace(16)
        coupling, obs = CouplingOperator(COUPLING_FN, space), interior_observer()
        grid, seed = (_audit_grid(space), 11) if criterion == 6 else (TimeGrid.for_space(space, 4.0, 0.015), 21)
        g0, e0, a0 = (2.0 * v for v in estimate_uniform_constants(coupling, obs, grid, space, seed=seed))
        constants = ObservabilityConstants(coupling.alpha, coupling.beta, g0, e0, a0, empirical_horizon(coupling, obs))
        f = _audit_forms(coupling, obs, grid, space)
        lhs, rhs = {
            "projected_free_observability": (grid.horizon * f["e0_u1_0"], g0 * f["proj_int"]),
            "source_observability_driven": (f["e1_u2_int"] - a0 * f["coupling_sq_int"], e0 * f["obs_int"]),
        }[row]
        scale = 1.0 / np.sqrt(np.diag(f["e0_u1_0"] + f["e1_u2_0"]))
        margins, vectors = np.linalg.eigh((lhs - rhs) * np.outer(scale, scale))
        assert margins[-1] <= 1e-9 * grid.horizon
        # the audit's own row agrees at that datum
        worst = (vectors[:, -1] * scale)[None, :]
        (audited,) = [r for r in inequality_chain_audit(worst, coupling, obs, constants, grid, 2.0) if r.name == row]
        assert audited.must_hold and audited.satisfied.all()
