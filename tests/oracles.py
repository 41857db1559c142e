"""Reference oracles that the tests compare the package against.

No config run or demo reaches these functions, so they live with the tests
and not in ``wavecascade``: component energies, pointwise observation, the
free evolution of one component and the closed-form fine-grid positions of
a trajectory's free component, the inverse of the first-order generator
and the stepper of the pair with the roles swapped; the free flow's Simpson
moments from a time table, by one gemm and node by node in long double;
the Gramian form along one simulated trajectory, its matrix-free
application by a Horner back-sweep, the adjoint trajectory of a control
problem by the full backward step, the Simpson sum by doubling of dense
matrices, the Gramian under the exponential propagator and the worst-case
ratios by SciPy's generalized eigensolver, and the sharp gamma0 and eta0 by
the same solver on free moments from a time table; the forced waves of the
alpha0 ensemble marched one at a time in the lab frame; the ray tracing that
cross-checks ``gcc_min_time``; and Phi, its sensitivity derivatives straight
from a controlled trajectory, a perturbation's response marched through the
full controlled step, and its Richardson-extrapolated central difference.
"""

import numpy as np
from scipy.linalg import eigh, expm

from wavecascade.errors import ValidationError
from wavecascade.spectral import ModalCoefficients, SpectralSpace, sobolev_norm
from wavecascade.dynamics import (
    CascadeState,
    CascadeTrajectory,
    ComponentState,
    CouplingOperator,
    Observer,
    TimeGrid,
    cascade_step_matrix,
    evolve_cascade,
    forced_flow,
    free_flow,
    march,
    simpson_kick_weights,
)
from wavecascade.observability import (
    _as_boundary_set,
    _dense_generator,
    _energy_metrics,
    _free_flow_gram,
    _free_moment_form,
    norm_weights,
    observation_block_rows,
    observation_history,
    weighted_gram,
)
from wavecascade.hum import HUMProblem, TimeSampledControl, controlled_forward
from wavecascade.insensitize import (
    InsensitizeProblem,
    _fine_phi,
    _modal_derivatives,
    fine_second_positions,
)

# ---------------------------------------------------------------------------
# one component and the generator


def energy(component: ComponentState, k: int) -> float:
    """Level-k energy 0.5 (|u|_k^2 + |u'|_{k-1}^2) of one component."""
    return 0.5 * (sobolev_norm(component.position, k) ** 2 + sobolev_norm(component.velocity, k - 1) ** 2)


def observe(observer: Observer, component: ComponentState):
    """Evaluate the observation of one component state.

    Interior: samples of b * u' on the quadrature grid.  Boundary: tuple of
    weighted outward normal derivatives of the position at active endpoints.
    """
    space = component.space
    if observer.kind == "interior":
        return observer.weight(space.nodes) * component.velocity.evaluate(space.nodes)
    left, right = space.boundary_trace_vectors()
    out = []
    if observer.b_left > 0:
        out.append(observer.b_left * float(left @ component.position.coeffs))
    if observer.b_right > 0:
        out.append(observer.b_right * float(right @ component.position.coeffs))
    return tuple(out)


def free_evolve(component: ComponentState, t: float) -> ComponentState:
    """Exact free wave evolution of one component by time t (any sign)."""
    space = component.space
    c, s_over, ms = free_flow(space, t)
    p = component.position.coeffs
    v = component.velocity.coeffs
    return ComponentState(
        ModalCoefficients(c * p + s_over * v, space),
        ModalCoefficients(ms * p + c * v, space),
    )


def first_component_fine_positions(trajectory: CascadeTrajectory) -> np.ndarray:
    """Closed-form u1 positions on the half-step grid (u1 is free)."""
    c, s = free_flow(trajectory.space, trajectory.grid.fine_times)[:2]
    u0 = trajectory.states[0, : trajectory.space.n_modes]
    w0 = trajectory.states[0, 2 * trajectory.space.n_modes : 3 * trajectory.space.n_modes]
    return c * u0 + s * w0


def invert_generator(state: CascadeState, coupling: CouplingOperator | None) -> CascadeState:
    """Solve generator(W) = U exactly in modal coordinates.

    W = (w1, w2, r1, r2) with w1 = -A^{-1} u1', w2 = -A^{-1} u2' +
    A^{-1} C A^{-1} u1', r1 = u1, r2 = u2.
    """
    space = state.space
    lam = space.eigenvalues
    w1 = -state.v1.coeffs / lam
    w2 = -state.v2.coeffs / lam
    if coupling is not None:
        w2 = w2 + (coupling.matrix @ (state.v1.coeffs / lam)) / lam
    return CascadeState(
        ModalCoefficients(w1, space),
        ModalCoefficients(w2, space),
        state.u1,
        state.u2,
    )


def first_driven_step_matrix(space: SpectralSpace, coupling_matrix: np.ndarray | None, dt: float) -> np.ndarray:
    """``cascade_step_matrix`` with the roles swapped: y2 free, y1'' + A y1 + M y2 = 0.

    This is the shape of the controlled system; ``hum`` derives its
    controlled stepper from the production one by duality, and this
    stepper, built directly, is the independent reference.
    """
    n = space.n_modes
    c, s, m = (np.diag(np.tile(block, 2)) for block in free_flow(space, dt))
    P = np.block([[c, s], [m, c]])
    if coupling_matrix is not None:
        source, target = np.r_[n : 2 * n, 3 * n : 4 * n], np.r_[0:n, 2 * n : 3 * n]
        # the Simpson kick of the source's free flow, nudged through the coupling
        taus, kernel_pos, kernel_vel = simpson_kick_weights(space, dt)
        kernels = np.hstack([kernel_pos, kernel_vel])
        sources = np.hstack(free_flow(space, taus)[:2])
        P[np.ix_(target, source)] -= np.tile(coupling_matrix, (2, 2)) * (kernels.T @ sources)
    return P

# ---------------------------------------------------------------------------
# observability


def free_flow_gram_table(space: SpectralSpace, times: np.ndarray, weights: np.ndarray, velocity: bool = False) -> np.ndarray:
    """``_free_flow_gram`` on a table of the free flow at ``times``, reduced with one weighted gemm.

    The (K + 1) x 2N table of (cos wt, sin wt / w), or of (-w sin wt, cos wt)
    with ``velocity=True``, and its weighted copy: the form the package used
    before its closed form.  The gemm sums over the time nodes in the BLAS
    library's blocked order, so its last bits follow the thread count.
    """
    cos, sin_over, minus_sin = free_flow(space, times)
    trig = np.hstack((minus_sin, cos) if velocity else (cos, sin_over))
    return trig.T @ (weights[:, None] * trig)


def free_flow_gram_long_double(space: SpectralSpace, grid: TimeGrid, fine: bool = False, velocity: bool = False) -> np.ndarray:
    """The Simpson sum of ``_free_flow_gram`` node by node in np.longdouble, returned in np.longdouble.

    The nodes are k T / K and the weights (T / 3K)(1, 4, 2, ..., 4, 1),
    both formed in long double from the grid's horizon and interval count K,
    and the frequencies are the space's doubles.
    """
    intervals = 2 * grid.n_steps if fine else grid.n_steps
    horizon = np.longdouble(grid.horizon)
    times = np.arange(intervals + 1, dtype=np.longdouble) * horizon / intervals
    weights = np.ones(intervals + 1, dtype=np.longdouble)
    weights[1:-1:2], weights[2:-1:2] = 4, 2
    weights *= horizon / (3 * intervals)
    om = space.frequencies.astype(np.longdouble)
    phase = np.multiply.outer(times, om)
    cos, sin = np.cos(phase), np.sin(phase)
    trig = np.hstack((-om * sin, cos) if velocity else (cos, sin / om))
    return (trig.T * weights) @ trig


def gramian_form(
    initial: CascadeState,
    coupling: CouplingOperator | None,
    observer: Observer,
    grid: TimeGrid,
) -> float:
    """Time-integrated squared observation along the evolved trajectory.

    Simpson quadrature on the step nodes; quadratic in the initial data.
    """
    traj = evolve_cascade(initial, coupling, grid)
    obs = observation_history(traj, observer)
    return float(grid.node_weights @ (obs**2).sum(axis=1))


def apply_gramian(
    state_vector: np.ndarray,
    coupling: CouplingOperator | None,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
) -> np.ndarray:
    """Matrix-free Gramian application: evolve, observe, accumulate the adjoint."""
    traj = evolve_cascade(CascadeState.from_vector(state_vector, space), coupling, grid)
    rows = observation_block_rows(observer, space)
    contributions = (traj.states @ rows.T) * grid.node_weights[:, None]  # sigma_m g_m
    step_t = cascade_step_matrix(space, None if coupling is None else coupling.matrix, grid.dt).T
    # Horner back-sweep: the sum over m of (step^T)^m rows^T contributions[m]
    acc = rows.T @ contributions[-1]
    for sample in contributions[-2::-1]:
        acc = step_t @ acc + rows.T @ sample
    return acc


def adjoint_march(final: np.ndarray, problem: HUMProblem) -> np.ndarray:
    """Adjoint node states of a HUM problem from final data, by the full backward step marched from T.

    ``final`` is one state (4N,) or a stack of k states (k, 4N); the states
    come back in time order, shape (n_steps + 1, 4N) or (n_steps + 1, k, 4N).
    """
    states = np.zeros((problem.grid.n_steps + 1,) + np.shape(final)[::-1])
    states[-1] = np.transpose(final)
    march(problem.step_back, states[::-1])
    return np.moveaxis(states, 1, -1)


def dense_weighted_gram(form: np.ndarray, step: np.ndarray, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """``weighted_gram`` and step^M by the squared Smith doubling of the dense matrices.

    The same Simpson split and bit walk as the package's block doubling, on
    whole d x d matrices and in the dtype of the inputs (np.longdouble gives
    a reference whose own roundoff lies far below double's).
    """
    square = step @ step
    acc, power = form, square  # U_1 and A^1
    for bit in bin(grid.n_steps // 2)[3:]:
        acc = acc + power.T @ acc @ power
        power = power @ power
        if bit == "1":
            acc = form + square.T @ acc @ square
            power = power @ square
    gram = (grid.dt / 3.0) * (4.0 * step.T @ acc @ step + 2.0 * acc - form + power.T @ form @ power)
    return 0.5 * (gram + gram.T), power


def exponential_gramian(
    coupling: CouplingOperator | None,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
) -> np.ndarray:
    """Dense Gramian stepping with the matrix exponential of the dense generator.

    The same Simpson sum as ``gramian_matrix``, so the two differ only by
    the production stepper's trajectory error.
    """
    grid.validate_for(space)
    rows = observation_block_rows(observer, space)
    return weighted_gram(rows.T @ rows, expm(grid.dt * _dense_generator(space, coupling)), grid)


def generalized_ratios(
    coupling: CouplingOperator | None,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
) -> dict:
    """``empirical_ratios`` by SciPy's generalized symmetric-definite eigensolver.

    Each ratio is the top eigenvalue of the pencil (form, Gramian), and the
    admissibility that of (Gramian, diag(norm_weights)), with no scaling or
    whitening of the package's own.  The Gramian and the k2_emp form step
    with the matrix exponential, as ``min_eigenvalue``'s square root does.
    """
    gram = exponential_gramian(coupling, observer, grid, space)
    step = expm(grid.dt * _dense_generator(space, coupling))
    weak_first, natural_second = _energy_metrics(space)
    forms = {
        "d1_emp": np.diag(weak_first),
        "d2_emp": np.diag(natural_second),
        "k2_emp": weighted_gram(np.diag(natural_second), step, grid),
    }
    if coupling is not None:
        position_gram = _free_flow_gram(space, grid, fine=True)
        forms["r2_emp"] = _free_moment_form(coupling.matrix, position_gram)
    ratios = {name: float(eigh(form, gram, eigvals_only=True)[-1]) for name, form in forms.items()}
    ratios.setdefault("r2_emp", 0.0)
    ratios["admissibility"] = float(eigh(gram, np.diag(norm_weights(space)), eigvals_only=True)[-1])
    return ratios


def sharp_free_constants(
    coupling: CouplingOperator,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
) -> tuple[float, float]:
    """``estimate_uniform_constants``' gamma0 and eta0 by SciPy's generalized symmetric-definite eigensolver.

    Each is the top eigenvalue of the pencil (T E, F) on the free data (p0,
    v0): E the natural energy and F the free-moment form of the projection
    of the velocity (gamma0), or of the observation (eta0), summed over the
    step nodes from a time table of the free flow (``free_flow_gram_table``),
    not from the package's closed form, and with no whitening of its own.
    """
    energy = grid.horizon * np.diag(0.5 * np.r_[space.eigenvalues, np.ones(space.n_modes)])
    rows = observer.observation_rows(space)

    def moments(quad, velocity):
        return np.tile(quad, (2, 2)) * free_flow_gram_table(space, grid.times, grid.node_weights, velocity)

    forms = (moments(coupling.projection_matrix, True), moments(rows.T @ rows, observer.kind == "interior"))
    return tuple(float(eigh(energy, form, eigvals_only=True)[-1]) for form in forms)


def forced_wave_integrals(
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
    rng: np.random.Generator,
    ensemble: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per forced wave of ``estimate_uniform_constants``' alpha0 ensemble, its three integrals.

    Draws each wave as the package does (p0, v0, g normalized, then freq
    from ``rng``), marches it with ``forced_flow`` back in the lab frame, and
    integrates over the nodes its natural energy, its squared observation
    and the squared forcing profile cos(freq t)^2 (|g| = 1).  Returns the
    arrays (e1_int, obs_int, f_int), one entry per wave.
    """
    n = space.n_modes
    times, w = grid.times, grid.node_weights
    rows = observer.observation_rows(space)
    flow = free_flow(space, times)
    taus, kernel_pos, kernel_vel = simpson_kick_weights(space, grid.dt)
    substeps = times[:-1, None] + taus
    integrals = []
    for _ in range(ensemble):
        p0 = rng.standard_normal(n)
        v0 = rng.standard_normal(n)
        g = rng.standard_normal(n)
        g /= np.linalg.norm(g)
        freq = rng.uniform(0.5, 3.0)
        profile = np.cos(freq * substeps)
        states = np.empty((grid.n_steps + 1, 2 * n))
        states[0, :n], states[0, n:] = p0, v0
        states[1:, :n] = (profile @ kernel_pos) * g
        states[1:, n:] = (profile @ kernel_vel) * g
        forced_flow(flow, states)
        positions, velocities = states[:, :n], states[:, n:]
        e1_series = 0.5 * ((positions**2 * space.eigenvalues).sum(axis=1) + (velocities**2).sum(axis=1))
        component = velocities if observer.kind == "interior" else positions
        integrals.append((
            float(w @ e1_series),
            float(w @ ((component @ rows.T) ** 2).sum(axis=1)),
            float(w @ (np.cos(freq * times) ** 2)),
        ))
    return tuple(np.array(column) for column in zip(*integrals))


def ray_hit_time(x0: float, direction: int, region) -> float:
    """First time a speed-1 billiard ray on (0, 1) meets the region.

    Interior regions are open intervals (a, b); boundary regions are sets of
    endpoint names.  Rays reflect at both walls; a few segments always
    suffice in one dimension.
    """
    if not 0.0 < x0 < 1.0:
        raise ValidationError("ray must start inside the open interval")
    if direction not in (-1, 1):
        raise ValidationError("direction must be +1 or -1")
    boundary = _as_boundary_set(region)
    t, x, d = 0.0, float(x0), float(direction)
    for _ in range(4):
        if boundary is not None:
            wall = 1.0 if d > 0 else 0.0
            segment = abs(wall - x)
            if ("right" in boundary and d > 0) or ("left" in boundary and d < 0):
                return t + segment
            t += segment
            x, d = wall, -d
            continue
        a, b = region
        if a < x < b:
            return t
        if d > 0:
            if x <= a:
                return t + (a - x)
            t += 1.0 - x
            x, d = 1.0, -1.0
        else:
            if x >= b:
                return t + (x - b)
            t += x
            x, d = 0.0, 1.0
    raise RuntimeError("ray failed to meet a nonempty region within four segments")

# ---------------------------------------------------------------------------
# insensitizing


def trajectory_phi(problem: InsensitizeProblem, states: np.ndarray) -> float:
    """Phi of a controlled trajectory (fine half-step quadrature)."""
    return _fine_phi(problem, fine_second_positions(states, problem.space, problem.grid))


def perturbation_response(hum: HUMProblem, z0: np.ndarray, z1: np.ndarray) -> np.ndarray:
    """Controlled states from the perturbation (z0, z1) alone, no control and no source, by the full 4N step.

    Its controlled component is the free wave cos(w t) z0 + sin(w t) / w z1;
    the certificate marches it on that component alone.
    """
    n = hum.space.n_modes
    states = np.zeros((hum.grid.n_steps + 1, 4 * n))
    states[0, n : 2 * n] = z0
    states[0, 3 * n :] = z1
    return march(hum.step_controlled, states)


def sensitivity_derivatives(
    problem: InsensitizeProblem,
    control: TimeSampledControl | None,
    z0: np.ndarray,
    z1: np.ndarray,
) -> tuple[float, float]:
    """Derivatives of Phi with respect to the two perturbation amplitudes.

    Solves the controlled equation once (any candidate control), the two
    free sensitivity waves (position data z0, velocity data z1), and returns
    the weighted pairings of c times the solution against each wave.
    """
    states = controlled_forward(problem.hum, control)
    fine = fine_second_positions(states, problem.space, problem.grid)
    per_position, per_velocity = _modal_derivatives(problem, fine)
    return float(per_position @ np.asarray(z0, dtype=float)), float(per_velocity @ np.asarray(z1, dtype=float))


def richardson_derivative(
    problem: InsensitizeProblem, base: np.ndarray, response: np.ndarray, steps=(1e-3, 1e-4)
) -> float:
    """Central difference of Phi along ``base + h * response``, Richardson-extrapolated over two steps.

    ``base`` and ``response`` are fine positions.  Its roundoff grows with
    Phi(base) over the smaller step, so it resolves a derivative only where
    that derivative is large against Phi: at the zero control, not at an
    insensitizing one.
    """
    h1, h2 = steps

    def central(h):
        step = h * response
        return (_fine_phi(problem, base + step) - _fine_phi(problem, base - step)) / (2.0 * h)

    d1, d2 = central(h1), central(h2)
    return (h1**2 * d2 - h2**2 * d1) / (h1**2 - h2**2)
