"""Observability laboratory for the cascade pair.

Provides the time-integrated observation quadratic form (the Gramian), its
dense matrix oracle, extreme eigenvalues in the observation metric, empirical
observability constants, the closed-form theoretical constant chain, the 1D
billiard control time, and an inequality-by-inequality audit of the
two-level energy argument that links the weak energy of the unobserved
component to the observation of the driven one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConvergenceError, RefusalError, ValidationError
from .spectral import ModalCoefficients, SpectralSpace
from .dynamics import (
    CascadeState,
    CascadeTrajectory,
    ComponentState,
    CouplingOperator,
    Observer,
    TimeGrid,
    cascade_step_matrix,
    evolve_cascade,
    evolve_forced_scalar,
    free_flow,
    state_weights,
)

__all__ = [
    "ObservabilityConstants",
    "AuditRow",
    "observation_block_rows",
    "observation_history",
    "gramian_form",
    "gramian_matrix",
    "weighted_gram",
    "apply_gramian",
    "adjoint_sweep",
    "norm_weights",
    "min_eigenvalue",
    "theoretical_constants",
    "estimate_uniform_constants",
    "gcc_min_time",
    "ray_hit_time",
    "empirical_horizon",
    "empirical_ratios",
    "inequality_chain_audit",
    "admissibility_constant",
    "random_cascade_states",
]

DENSE_LIMIT = 64  # largest N for dense Gramian assembly


# ---------------------------------------------------------------------------
# observation as a block operator on the stacked state


def observation_block_rows(observer: Observer, space: SpectralSpace) -> np.ndarray:
    """Observation map as rows acting on the full 4N state vector.

    Interior observation reads the driven component's velocity through the
    weight's multiplication matrix; boundary observation reads the weighted
    normal derivative of the driven component's position.
    """
    n = space.n_modes
    rows = observer.observation_rows(space)
    rows = np.atleast_2d(rows)
    out = np.zeros((rows.shape[0], 4 * n))
    if observer.kind == "interior":
        out[:, 3 * n : 4 * n] = rows
    else:
        out[:, n : 2 * n] = rows
    return out


def observation_history(trajectory: CascadeTrajectory, observer: Observer) -> np.ndarray:
    """Observation samples at every node, shape (n_steps + 1, q)."""
    rows = observation_block_rows(observer, trajectory.space)
    return trajectory.states @ rows.T


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


def _dense_generator(space: SpectralSpace, coupling: CouplingOperator | None) -> np.ndarray:
    n = space.n_modes
    lam = np.diag(space.eigenvalues)
    z = np.zeros((n, n))
    eye = np.eye(n)
    cmat = z if coupling is None else coupling.matrix
    return np.block([[z, z, eye, z], [z, z, z, eye], [-lam, z, z, z], [-cmat, -lam, z, z]])


def _propagated(rows: np.ndarray, step: np.ndarray):
    """Yield rows @ step^m for m = 0, 1, 2, ...

    Each power is formed only when asked for; callers zip their weights
    first, so no product past the last weight is computed.
    """
    while True:
        yield rows
        rows = rows @ step


def _row_chunk(rows: np.ndarray, step: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """[rows; rows step; ...; rows step^(k-1)] and step^k, by doubling.

    Walks the bits of k from the top: each bit doubles the chunk (appending
    the chunk times the current power), a set bit appends one more block.
    """
    block, power = rows, step
    for bit in bin(k)[3:]:
        block = np.vstack([block, block @ power])
        power = power @ power
        if bit == "1":
            block = np.vstack([block, rows @ power])
            power = power @ step
    return block, power


def weighted_gram(rows: np.ndarray, step: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Symmetrized sum over m of weights[m] (rows step^m)^T (rows step^m).

    With observation rows and the one-step propagator this is the
    observability Gramian; by duality, with the adjoint rows and propagator
    it is the control Gramian.

    The nodes are taken k = max(1, d // r) at a time (d the state size, r
    the number of rows), so a chunk of k r propagated rows is never larger
    than the Gramian.  The first chunk is built by doubling, each later one
    is the previous times step^k, and each enters the sum as one product
    chunk^T (w * chunk) with the node weights repeated over the rows.
    """
    r, d = rows.shape
    k = max(1, d // r)
    block, advance = _row_chunk(rows, step, k)
    gram = np.zeros((d, d))
    for start in range(0, len(weights), k):
        w = np.repeat(weights[start : start + k], r)
        chunk = block[: w.size]
        gram += chunk.T @ (w[:, None] * chunk)
        if start + k < len(weights):
            block = block @ advance
    return 0.5 * (gram + gram.T)


def adjoint_sweep(weighted_obs: np.ndarray, rows: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Horner back-sweep: the sum over m of (step^T)^m rows^T weighted_obs[m].

    When weighted_obs[m] = w_m rows step^m x, the weighted samples of the
    trajectory from x, this is weighted_gram(rows, step, w) applied to x
    without assembling it.
    """
    step_t = step.T
    acc = rows.T @ weighted_obs[-1]
    for sample in weighted_obs[-2::-1]:
        acc = step_t @ acc + rows.T @ sample
    return acc


def gramian_matrix(
    coupling: CouplingOperator | None,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
    propagator: str = "exponential",
) -> np.ndarray:
    """Dense 4N x 4N observability Gramian.

    ``propagator='exponential'`` steps with the matrix exponential of the
    dense generator (the independent oracle); ``'solver'`` steps with the
    production one-step propagator.  Both use the same Simpson node weights,
    so they differ only by the stepper's trajectory error.
    """
    if space.n_modes > DENSE_LIMIT:
        raise ValidationError(f"dense Gramian limited to N <= {DENSE_LIMIT}, got N = {space.n_modes}")
    grid.validate_for(space)
    if propagator == "exponential":
        step = expm(grid.dt * _dense_generator(space, coupling))
    elif propagator == "solver":
        step = cascade_step_matrix(space, None if coupling is None else coupling.matrix, grid.dt)
    else:
        raise ValidationError("propagator must be 'exponential' or 'solver'")
    return weighted_gram(observation_block_rows(observer, space), step, grid.node_weights)


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
    step = cascade_step_matrix(space, None if coupling is None else coupling.matrix, grid.dt)
    return adjoint_sweep(contributions, rows, step)


def norm_weights(space: SpectralSpace) -> np.ndarray:
    """Diagonal weights of the state metric used for eigenvalue scaling.

    Weak energy of the first component plus natural energy of the second
    (the metric of the two-level observability statement).
    """
    return 0.5 * state_weights(space, (0, 1, -1, 0))


def _min_singular(matrix: np.ndarray) -> np.ndarray:
    """Singular values, descending, padded with zeros when the factor is
    rank-deficient by shape."""
    svals = np.linalg.svd(matrix, compute_uv=False)
    return np.concatenate([svals, np.zeros(matrix.shape[1] - svals.size)])


@dataclass
class EigenReport:
    """Extreme eigenvalues of the metric-scaled Gramian."""

    min_eig: float
    max_eig: float
    block_min: dict  # minimal eigenvalue of the "u1" block (dense routes only)

    @property
    def contrast(self) -> float:
        return self.min_eig / self.max_eig if self.max_eig > 0 else 0.0


FACTOR_LIMIT = 8_000_000  # largest observation-factor size for the SVD route


def _observation_factor(
    coupling: CouplingOperator | None,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
) -> np.ndarray:
    """Square-root factor of the Gramian: weighted observation history rows.

    Stacks sqrt(sigma_m) * Obs * E^m over all nodes, stepping with the matrix
    exponential oracle; the Gramian is the Gram product of this factor.
    """
    rows = observation_block_rows(observer, space)
    step = expm(grid.dt * _dense_generator(space, coupling))
    return np.vstack([np.sqrt(w) * block for w, block in zip(grid.node_weights, _propagated(rows, step))])


def min_eigenvalue(
    coupling: CouplingOperator | None,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
    method: str = "dense",
    lanczos_maxiter: int = 5000,
) -> EigenReport:
    """Smallest eigenvalue of the metric-scaled Gramian, with diagnostics.

    A stable positive eigenvalue under refinement certifies observability;
    collapse under refinement (or an exactly null block) certifies failure.
    The dense route works on the square-root observation factor by SVD when
    it fits (never squaring, so near-null directions are resolved far below
    the eigenvalue roundoff floor of the assembled Gramian) and falls back
    to an eigen-decomposition of the assembled matrix otherwise; 'lanczos'
    applies the Gramian matrix-free through the production solver.
    """
    d = norm_weights(space)
    d_isqrt = 1.0 / np.sqrt(d)
    n = space.n_modes
    if method == "dense":
        if space.n_modes > DENSE_LIMIT:
            raise ValidationError(f"dense route limited to N <= {DENSE_LIMIT}")
        rows = observation_block_rows(observer, space)
        factor_size = (grid.n_steps + 1) * rows.shape[0] * 4 * n
        first_idx = np.concatenate([np.arange(n), np.arange(2 * n, 3 * n)])
        if factor_size <= FACTOR_LIMIT:
            factor = _observation_factor(coupling, observer, grid, space) * d_isqrt[None, :]
            svals = _min_singular(factor)
            return EigenReport(
                min_eig=float(svals[-1] ** 2),
                max_eig=float(svals[0] ** 2),
                block_min={"u1": _min_singular(factor[:, first_idx])[-1] ** 2},
            )
        gram = gramian_matrix(coupling, observer, grid, space, propagator="exponential")
        scaled = gram * np.outer(d_isqrt, d_isqrt)
        eigvals = np.linalg.eigvalsh(scaled)
        return EigenReport(
            min_eig=float(eigvals[0]),
            max_eig=float(eigvals[-1]),
            block_min={"u1": float(np.linalg.eigvalsh(scaled[np.ix_(first_idx, first_idx)])[0])},
        )
    if method != "lanczos":
        raise ValidationError("method must be 'dense' or 'lanczos'")

    def matvec(x):
        return d_isqrt * apply_gramian(d_isqrt * x, coupling, observer, grid, space)

    op = LinearOperator((4 * n, 4 * n), matvec=matvec, dtype=float)
    try:
        small = eigsh(op, k=1, which="SA", maxiter=lanczos_maxiter, return_eigenvectors=False)
        large = eigsh(op, k=1, which="LA", maxiter=lanczos_maxiter, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos did not converge within {lanczos_maxiter} iterations", trace=exc
        ) from exc
    return EigenReport(min_eig=float(small[0]), max_eig=float(large[0]), block_min={})


# ---------------------------------------------------------------------------
# constants


@dataclass(frozen=True)
class ObservabilityConstants:
    """Constant chain of the two-level energy argument.

    alpha/beta are the coupling coercivity and sup-norm; gamma0/delta0 and
    eta0/alpha0 the uniform source-observability constants of the localized
    projection and of the observation operator; c1..c4 the chain constants
    obtained by walking the proof with Young parameter eta = T alpha /
    (4 gamma0); the derived quantities (a, b, nu, m_factor, t1..t3) follow by
    closed forms.
    """

    alpha: float
    beta: float
    gamma0: float
    eta0: float
    alpha0: float
    delta0: float
    t0: float
    c1: float = 4.0
    c2: float = 16.0
    c3: float = 32.0
    c4: float = 128.0
    a: float = field(init=False)
    b: float = field(init=False)
    nu: float = field(init=False)
    m_factor: float = field(init=False)
    t1: float = field(init=False)
    t2: float = field(init=False)
    t3: float = field(init=False)

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma0", "eta0", "alpha0", "t0", "c1", "c2", "c3", "c4"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        a = self.c3 * self.beta * self.gamma0 / (2.0 * self.alpha)
        b = self.c4 * self.beta**2 * self.gamma0**2 / (2.0 * self.alpha**2)
        root = np.sqrt(a * a + a + b)
        nu = a + root
        m_factor = root / ((2.0 * a + 1.0) * (a + root) + a + 2.0 * b)
        t1 = np.sqrt(2.0 * self.c4 * self.alpha0 * self.beta * self.gamma0) / self.alpha
        t2 = np.sqrt(2.0 * self.c3 * self.alpha0 * self.beta * self.gamma0) / np.sqrt(self.alpha * m_factor)
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "b", float(b))
        object.__setattr__(self, "nu", float(nu))
        object.__setattr__(self, "m_factor", float(m_factor))
        object.__setattr__(self, "t1", float(t1))
        object.__setattr__(self, "t2", float(t2))
        object.__setattr__(self, "t3", float(max(self.t0, t1, t2)))
        if not 0.0 < self.m_factor < 1.0:
            raise ValidationError("mean-energy factor must lie in (0, 1)")

    def d1(self, horizon: float) -> float:
        """Recovery constant of the weak initial energy of the free component."""
        self._require_beyond_t2(horizon)
        bracket = self.c3 / self.m_factor + self.c4 * self.beta * self.gamma0 / self.alpha
        return (
            2.0
            * self.eta0
            * self.gamma0**2
            * bracket
            / (self.alpha**2 * (horizon**2 - self.t2**2) * horizon)
        )

    def d2(self, horizon: float) -> float:
        """Recovery constant of the natural initial energy of the driven component."""
        self._require_beyond_t2(horizon)
        return 2.0 * horizon * self.eta0 / (self.m_factor * (horizon**2 - self.t2**2))

    def k2(self, horizon: float) -> float:
        """Bound on the integrated driven energy per unit observation."""
        self._require_beyond_t2(horizon)
        return 2.0 * self.eta0 * horizon**2 / (horizon**2 - self.t2**2)

    def r2(self, horizon: float) -> float:
        """Bound on the integrated coupling form per unit observation."""
        self._require_beyond_t2(horizon)
        bracket = self.c3 / self.m_factor + self.c4 * self.beta * self.gamma0 / self.alpha
        return 2.0 * self.eta0 * self.gamma0 * bracket / (self.alpha * (horizon**2 - self.t2**2))

    def _require_beyond_t2(self, horizon: float) -> None:
        if horizon <= self.t2:
            raise ValidationError(f"horizon {horizon} does not exceed the threshold t2 = {self.t2:.4g}")


def theoretical_constants(
    alpha: float,
    beta: float,
    gamma0: float,
    eta0: float,
    alpha0: float,
    t0: float,
    c1: float = 4.0,
    c2: float = 16.0,
    c3: float = 32.0,
    c4: float = 128.0,
    delta0: float = 1.0,
) -> ObservabilityConstants:
    """Evaluate the closed-form constant chain from its primitive inputs."""
    return ObservabilityConstants(
        alpha=alpha,
        beta=beta,
        gamma0=gamma0,
        eta0=eta0,
        alpha0=alpha0,
        delta0=delta0,
        t0=t0,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
    )


# ---------------------------------------------------------------------------
# geometric control time (1D billiard)


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


def _as_boundary_set(region):
    if isinstance(region, (set, frozenset, list, tuple)) and region and all(
        isinstance(s, str) for s in region
    ):
        names = frozenset(region)
        if not names <= {"left", "right"}:
            raise ValidationError(f"unknown boundary names in {region!r}")
        return names
    return None


def gcc_min_time(region) -> float:
    """Horizon beyond which every speed-1 billiard ray meets the region.

    Interior interval (a, b): 2 max(a, 1 - b).  Single endpoint: 2.  Both
    endpoints: 1.  Empty regions are rejected.
    """
    if region is None:
        raise ValidationError("empty region has no control time")
    boundary = _as_boundary_set(region)
    if boundary is not None:
        return 1.0 if boundary == {"left", "right"} else 2.0
    a, b = region
    if not (0.0 <= a < b <= 1.0):
        raise ValidationError(f"region ({a}, {b}) is not a nonempty subinterval of (0, 1)")
    return 2.0 * max(a, 1.0 - b)


def empirical_horizon(coupling: CouplingOperator, observer: Observer) -> float:
    """Largest of the two geometric control times (coupling and observation)."""
    return max(gcc_min_time(coupling.core_region), gcc_min_time(observer.region))


# ---------------------------------------------------------------------------
# empirical constants


def random_cascade_states(space: SpectralSpace, count: int, seed: int) -> list[CascadeState]:
    rng = np.random.default_rng(seed)
    return [CascadeState.from_vector(rng.standard_normal(4 * space.n_modes), space) for _ in range(count)]


def _energy_metrics(space: SpectralSpace) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal metrics of the weak energy of u1 and the natural energy of u2."""
    n = space.n_modes
    lam = space.eigenvalues
    weak_first = np.zeros(4 * n)
    weak_first[:n] = 0.5
    weak_first[2 * n : 3 * n] = 0.5 / lam
    natural_second = np.zeros(4 * n)
    natural_second[n : 2 * n] = 0.5 * lam
    natural_second[3 * n :] = 0.5
    return weak_first, natural_second


def _integrated_form(metric: np.ndarray, step: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Quadratic form of the weighted node sum of x_m^T diag(metric) x_m, x_m = step^m x.

    diag(metric) = R^T R, where R has one row per nonzero (positive) metric
    entry, so only those rows are propagated.
    """
    support = np.flatnonzero(metric)
    rows = np.sqrt(metric[support])[:, None] * np.eye(metric.size)[support]
    return weighted_gram(rows, step, weights)


def _free_moment_form(quad: np.ndarray, space: SpectralSpace, grid: TimeGrid) -> np.ndarray:
    """Quadratic form of the half-step Simpson integral of u1(t)^T quad u1(t).

    The first component is free and known in closed form, u1(t) = cos(wt)
    u1(0) + sin(wt)/w v1(0), so the time moments reduce to the weighted Gram
    matrix of the stacked trig blocks.
    """
    n = space.n_modes
    trig = np.hstack(free_flow(space, grid.fine_times)[:2])
    first = np.r_[0:n, 2 * n : 3 * n]
    form = np.zeros((4 * n, 4 * n))
    form[np.ix_(first, first)] = np.tile(quad, (2, 2)) * (trig.T @ (grid.fine_weights[:, None] * trig))
    return 0.5 * (form + form.T)


def _ensemble_ratio(gram: np.ndarray, space: SpectralSpace, ensemble: int, seed: int) -> float:
    """Largest x^T gram x per unit of norm_weights energy over a seeded random ensemble."""
    x = np.array([s.as_vector() for s in random_cascade_states(space, ensemble, seed)])
    x = x.reshape(ensemble, 4 * space.n_modes)
    ratios = np.einsum("si,si->s", x @ gram, x) / ((x * x) @ norm_weights(space))
    return float(np.max(ratios, initial=0.0))


def empirical_ratios(
    coupling: CouplingOperator | None,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
    ensemble: int = 24,
    seed: int = 0,
) -> dict:
    """Discrete worst-case observability and admissibility ratios.

    Every numerator is a quadratic form of the initial data, so the sharp
    constants on the truncated space are extreme generalized eigenvalues
    against the Gramian: d1_emp bounds the weak initial energy of the free
    component, d2_emp the natural initial energy of the driven one, k2_emp
    its integrated energy and r2_emp the integrated coupling form, each per
    unit of integrated squared observation.  The admissibility entry is the
    ensemble maximum of the direct inequality's ratio, evaluated on the same
    Gramian as ``admissibility_constant`` (the worst-case value is the top
    eigenvalue of the metric-scaled Gramian and is reported by
    min_eigenvalue instead).
    """
    from scipy.linalg import eigh as generalized_eigh

    gram = gramian_matrix(coupling, observer, grid, space, propagator="solver")

    # regularity guard: ratios are meaningless for a singular Gramian
    metric = norm_weights(space)
    scaled = gram / np.sqrt(np.outer(metric, metric))
    spectrum = np.linalg.eigvalsh(scaled)
    if spectrum[0] <= 1e-12 * spectrum[-1]:
        raise RefusalError(
            "Gramian is not coercive at this horizon; worst-case ratios are unbounded",
            {"min_eig": float(spectrum[0]), "max_eig": float(spectrum[-1])},
        )

    def sup_ratio(form):
        vals = generalized_eigh(form, gram, eigvals_only=True)
        return float(vals[-1])

    weak_first, natural_second = _energy_metrics(space)
    step = cascade_step_matrix(space, None if coupling is None else coupling.matrix, grid.dt)
    return {
        "d1_emp": sup_ratio(np.diag(weak_first)),
        "d2_emp": sup_ratio(np.diag(natural_second)),
        "k2_emp": sup_ratio(_integrated_form(natural_second, step, grid.node_weights)),
        "r2_emp": 0.0 if coupling is None else sup_ratio(_free_moment_form(coupling.matrix, space, grid)),
        "admissibility": _ensemble_ratio(gram, space, ensemble, seed),
    }


def admissibility_constant(
    coupling: CouplingOperator | None,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
    ensemble: int = 24,
    seed: int = 0,
) -> float:
    """Empirical constant of the direct (hidden regularity) inequality.

    The ensemble maximum of the observation form (the solver Gramian) per
    unit of initial energy in the observation metric.
    """
    gram = gramian_matrix(coupling, observer, grid, space, propagator="solver")
    return _ensemble_ratio(gram, space, ensemble, seed)


def estimate_uniform_constants(
    target,
    grid: TimeGrid,
    space: SpectralSpace,
    ensemble: int = 32,
    seed: int = 0,
) -> tuple[float, float]:
    """Sampled lower-bound estimates of the uniform observability pair.

    ``target`` is an Observer (estimates the observation pair) or a
    CouplingOperator (estimates the localized-projection pair through the
    sharp indicator of its core region).  The first returned number bounds
    the integrated natural energy per unit observation on free solutions,
    the second absorbs the source term on forced solutions.  Both are
    heuristics: maxima over finite ensembles, to be inflated by the caller
    before use in proofs-by-audit.
    """
    if isinstance(target, CouplingOperator):
        region = target.core_region
        quad = target.projection_matrix

        def observation_sq(positions, velocities):
            return np.einsum("ki,ij,kj->k", velocities, quad, velocities)

    elif isinstance(target, Observer):
        region = target.region
        if not region:
            raise RefusalError("empty observation region", {"region": region})
        rows = target.observation_rows(space)

        def observation_sq(positions, velocities):
            component = velocities if target.kind == "interior" else positions
            return ((component @ rows.T) ** 2).sum(axis=1)

    else:
        raise ValidationError("target must be an Observer or a CouplingOperator")

    t_min = gcc_min_time(region)
    if grid.horizon <= t_min:
        raise RefusalError(
            "horizon below the geometric control time of the target region",
            {"horizon": grid.horizon, "gcc_min_time": t_min},
        )

    rng = np.random.default_rng(seed)
    times = grid.times
    cos_t, sin_over, minus_sin = free_flow(space, times)
    w = grid.node_weights

    first_ratio = 0.0
    for _ in range(ensemble):
        p0 = rng.standard_normal(space.n_modes)
        v0 = rng.standard_normal(space.n_modes)
        positions = cos_t * p0 + sin_over * v0
        velocities = minus_sin * p0 + cos_t * v0
        e1 = 0.5 * float(p0**2 @ space.eigenvalues + v0 @ v0)
        denom = float(w @ observation_sq(positions, velocities))
        if denom <= 0.0:
            raise RefusalError("degenerate ensemble: free solution invisible", {"ratio": np.inf})
        first_ratio = max(first_ratio, grid.horizon * e1 / denom)

    second_ratio = 0.0
    n = space.n_modes
    for _ in range(ensemble):
        p0 = rng.standard_normal(n)
        v0 = rng.standard_normal(n)
        g = rng.standard_normal(n)
        g /= np.linalg.norm(g)
        freq = rng.uniform(0.5, 3.0)

        def forcing(t, g=g, freq=freq):
            return np.cos(freq * t) * g

        states = evolve_forced_scalar(
            ComponentState(ModalCoefficients(p0, space), ModalCoefficients(v0, space)),
            forcing,
            grid,
        )
        positions, velocities = states[:, :n], states[:, n:]
        e1_series = 0.5 * ((positions**2 * space.eigenvalues).sum(axis=1) + (velocities**2).sum(axis=1))
        e1_int = float(w @ e1_series)
        obs_int = float(w @ observation_sq(positions, velocities))
        f_int = float(w @ (np.cos(freq * times) ** 2))  # |g| = 1
        deficit = e1_int - first_ratio * obs_int
        if deficit > 0 and f_int > 0:
            second_ratio = max(second_ratio, deficit / f_int)
    return first_ratio, max(second_ratio, 1e-12)


# ---------------------------------------------------------------------------
# audit of the inequality chain


@dataclass(frozen=True)
class AuditRow:
    name: str
    lhs: float
    rhs: float
    margin: float
    must_hold: bool
    satisfied: bool
    kind: str = "inequality"  # or "identity"


def _row(name, lhs, rhs, must_hold, scale, rtol=1e-9):
    margin = rhs - lhs
    return AuditRow(name, lhs, rhs, margin, must_hold, lhs <= rhs + rtol * scale)


def _identity_row(name, lhs, rhs, scale, rtol=1e-6):
    residual = abs(lhs - rhs)
    return AuditRow(name, lhs, rhs, -residual, True, residual <= rtol * max(scale, 1e-300), kind="identity")


def _audit_forms(
    coupling: CouplingOperator,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
) -> dict[str, np.ndarray]:
    """Every functional of the audited chain as a 4N x 4N form of the initial data.

    The stepper's forms (observation, driven energies, endpoint pairing and
    node-weighted coupling work) propagate with the one-step matrix and its
    M-th power; the coupling, coupling-squared and projection moments use
    the closed-form free flow of the first component.
    """
    n = space.n_modes
    weights = grid.node_weights
    step = cascade_step_matrix(space, coupling.matrix, grid.dt)
    power = np.linalg.matrix_power(step, grid.n_steps)  # initial data to final state
    weak_first, natural_second = _energy_metrics(space)
    # first-component pairing v1.u2 - v2.u1 of the duality identity
    eye = np.eye(n)
    pairing = np.zeros((4 * n, 4 * n))
    pairing[2 * n : 3 * n, n : 2 * n] = pairing[n : 2 * n, 2 * n : 3 * n] = 0.5 * eye
    pairing[3 * n :, :n] = pairing[:n, 3 * n :] = -0.5 * eye
    # rows of M u1 and of v2: their node-weighted product, by polarization
    coupled = np.zeros((n, 4 * n))
    coupled[:, :n] = coupling.matrix
    driven_velocity = np.zeros((n, 4 * n))
    driven_velocity[:, 3 * n :] = eye
    plus, minus = coupled + driven_velocity, coupled - driven_velocity
    work = 0.25 * (weighted_gram(plus, step, weights) - weighted_gram(minus, step, weights))
    return {
        "obs_int": gramian_matrix(coupling, observer, grid, space, propagator="solver"),
        "e1_u2_0": np.diag(natural_second),
        "e1_u2_T": power.T @ (natural_second[:, None] * power),
        "e1_u2_int": _integrated_form(natural_second, step, weights),
        "e0_u1_0": np.diag(weak_first),
        "coupling_int": _free_moment_form(coupling.matrix, space, grid),
        "coupling_sq_int": _free_moment_form(coupling.matrix.T @ coupling.matrix, space, grid),
        "proj_int": _free_moment_form(coupling.projection_matrix, space, grid),
        "boundary_term": power.T @ pairing @ power - pairing,
        "balance_int": work,
    }


def inequality_chain_audit(
    states: list[CascadeState],
    coupling: CouplingOperator,
    observer: Observer,
    constants: ObservabilityConstants,
    grid: TimeGrid,
    admissibility_bound: float | None = None,
) -> list[list[AuditRow]]:
    """Evaluate both sides of every inequality in the two-level chain.

    Every functional of the chain is a quadratic form of the initial data:
    each form is built once and evaluated on all ``states`` together, and
    one row list is returned per state, in order.  Identities (the coupling
    duality identity and the driven energy balance) must hold at quadrature
    accuracy for any horizon; their two sides come from independently built
    forms (the closed-form free moment against the stepper's endpoint
    pairing, the stepper's endpoint energies against its node-weighted
    coupling work).  Inequalities carry must_hold flags derived from the
    horizon thresholds in ``constants``; rows beyond their threshold are
    reported with margins only.
    """
    x = np.array([s.as_vector() for s in states])
    forms = _audit_forms(coupling, observer, grid, states[0].space)
    f = {name: np.einsum("si,si->s", x @ form, x) for name, form in forms.items()}
    obs_int, coupling_int, coupling_sq_int = f["obs_int"], f["coupling_int"], f["coupling_sq_int"]
    e1_u2_0, e1_u2_T, e1_u2_int, e0_u1_0 = f["e1_u2_0"], f["e1_u2_T"], f["e1_u2_int"], f["e0_u1_0"]

    T = grid.horizon
    al, be, g0, e0c, a0 = constants.alpha, constants.beta, constants.gamma0, constants.eta0, constants.alpha0
    c1, c2, c3, c4 = constants.c1, constants.c2, constants.c3, constants.c4
    m = constants.m_factor
    e1_u2_sum = e1_u2_T + e1_u2_0
    scale = np.maximum(np.max([obs_int, e1_u2_int, e0_u1_0, coupling_int], axis=0), 1e-300)
    beyond_t0 = T > constants.t0
    beyond_t3 = T > constants.t3
    eta = T * al / (4.0 * g0)

    identities = [
        ("coupling_duality_identity", coupling_int, f["boundary_term"], scale),
        (
            "driven_energy_balance",
            e1_u2_T - e1_u2_0,
            -f["balance_int"],
            np.maximum(np.maximum(e1_u2_0, e1_u2_T), 1e-300),
        ),
    ]
    inequalities = [
        ("coupling_young_bound", coupling_int, 2.0 * eta * e0_u1_0 + e1_u2_sum / eta, True, scale),
        ("source_quadratic_bound", coupling_sq_int, be * coupling_int, True, scale),
        ("projected_free_observability", T * e0_u1_0, g0 * f["proj_int"], beyond_t0, scale * T),
        ("source_observability_driven", e1_u2_int - a0 * coupling_sq_int, e0c * obs_int, beyond_t0, scale),
        ("coupling_vs_driven_endpoints", coupling_int, 8.0 * g0 / (al * T) * e1_u2_sum, beyond_t0, scale),
        (
            "endpoint_energy_bound",
            e1_u2_sum,
            c1 * e1_u2_0 + c2 * be * g0 / (al * T) * e1_u2_int,
            beyond_t0,
            scale,
        ),
        (
            "coupling_refined_bound",
            coupling_int,
            c3 * g0 / (al * T) * e1_u2_0 + c4 * be * g0**2 / (al**2 * T**2) * e1_u2_int,
            beyond_t0,
            scale,
        ),
        ("mean_energy_lower_bound", m * T * e1_u2_0, e1_u2_int, beyond_t0, scale),
        ("weak_energy_vs_coupling", e0_u1_0, g0 / (al * T) * coupling_int, beyond_t0, scale),
    ]
    if beyond_t3 or T > constants.t2:
        inequalities += [
            (
                "driven_energy_observability",
                m / (2.0 * T) * (T**2 - constants.t2**2) * e1_u2_0,
                e0c * obs_int,
                beyond_t3,
                scale,
            ),
            ("integrated_energy_vs_observation", e1_u2_int, constants.k2(T) * obs_int, beyond_t3, scale),
            ("weak_state_recovery", e0_u1_0, constants.d1(T) * obs_int, beyond_t3, scale),
            ("driven_state_recovery", e1_u2_0, constants.d2(T) * obs_int, beyond_t3, scale),
        ]
    if admissibility_bound is not None:
        inequalities.append(
            ("admissibility", obs_int, admissibility_bound * (e0_u1_0 + e1_u2_0), True, scale)
        )
    return [
        [_identity_row(name, float(lhs[i]), float(rhs[i]), float(s[i])) for name, lhs, rhs, s in identities]
        + [
            _row(name, float(lhs[i]), float(rhs[i]), hold, float(s[i]))
            for name, lhs, rhs, hold, s in inequalities
        ]
        for i in range(len(states))
    ]
