"""Exact control synthesis for the cascade system.

The controlled system drives the second component with a single control
(an interior field through a nonnegative weight, or a Dirichlet boundary
datum through endpoint weights) while the first component is coupled to it:

    y1'' + A y1 + C y2 = 0,
    y2'' + A y2 = B v (+ xi).

Null controls are built by minimizing the control energy over final data of
the adjoint cascade (the same triangular pair with the coupling on the
second equation), a coercive problem solved by conjugate gradients in the
appropriate weak metric.

The discretization is chosen so that the duality bookkeeping is exact: the
adjoint trajectory is stepped with the reversible one-step propagator, the
control acts on the controlled system through node injections carrying the
time-quadrature weights, and the controlled stepper is the exact dual of
the adjoint stepper under the wave duality pairing.  As a result the
discrete transposition identity holds to roundoff and terminal nulling is
limited only by the conjugate-gradient tolerance, not by the time step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, RefusalError, ValidationError
from .spectral import SpectralSpace
from .dynamics import (
    CascadeState,
    CouplingOperator,
    Observer,
    TimeGrid,
    cascade_step_matrix,
    duality_pairing,
    march,
    reversed_step,
    state_weights,
)
from .observability import adjoint_sweep, weighted_gram

__all__ = [
    "HUMProblem",
    "HUMSolution",
    "TimeSampledControl",
    "adjoint_observation_rows",
    "adjoint_space_weights",
    "control_space_norms",
    "apply_hum_gramian",
    "assemble_rhs",
    "dense_hum_matrix",
    "solve_hum",
    "controlled_forward",
    "verify_transposition",
]


# ---------------------------------------------------------------------------
# problem definition


@dataclass(frozen=True, eq=False)
class HUMProblem:
    """One exact-control problem for the cascade pair.

    ``case`` is 'interior' (bounded control operator, data measured in the
    strong product space) or 'boundary' (Dirichlet control, weak product
    space).  ``initial_data`` is the state (y1, y2, y1', y2') to drive to
    rest; ``source`` an optional forcing of the controlled equation given as
    a callable t -> modal coefficient vector.  The observer doubles as the
    control operator: its weight is the control profile.
    """

    case: str
    initial_data: CascadeState
    coupling: CouplingOperator | None
    observer: Observer
    grid: TimeGrid
    source: object = None  # callable t -> modal vector, or None
    cg_tolerance: float = 1e-10
    max_iterations: int = 2000
    observability_floor: float = 1e-8

    def __post_init__(self):
        if self.case not in ("interior", "boundary"):
            raise ValidationError("case must be 'interior' or 'boundary'")
        if self.case == "interior" and self.observer.kind != "interior":
            raise ValidationError("interior case needs an interior observer/control weight")
        if self.case == "boundary" and self.observer.kind != "boundary":
            raise ValidationError("boundary case needs a boundary observer/control weight")
        if self.cg_tolerance <= 0:
            raise ValidationError("cg_tolerance must be positive")
        self.grid.validate_for(self.space)

    @property
    def space(self) -> SpectralSpace:
        return self.initial_data.space


@dataclass(frozen=True, eq=False)
class TimeSampledControl:
    """Control samples at the grid nodes, shape (n_steps + 1, q).

    Interior controls store the modal coefficients of v(t, .); boundary
    controls store the endpoint values (active endpoints only, in left,
    right order).
    """

    values: np.ndarray
    kind: str
    grid: TimeGrid

    def squared_time_norm(self) -> float:
        return float(self.grid.node_weights @ (self.values**2).sum(axis=1))


@dataclass(eq=False)
class HUMSolution:
    minimizer: CascadeState
    control: TimeSampledControl
    cg_iterations: int
    final_residual: float
    terminal_norms: dict
    initial_norm: float
    duality_residual: float
    cg_trace: list
    trajectory: np.ndarray  # controlled node states, (n_steps + 1, 4N)


# ---------------------------------------------------------------------------
# case-dependent geometry


def adjoint_observation_rows(observer: Observer, space: SpectralSpace) -> np.ndarray:
    """Control-dual observation on the adjoint trajectory (full-state rows).

    Both cases read the position of the adjoint's driven component: through
    the multiplication weight (interior) or the weighted normal-derivative
    trace (boundary).  The extracted control is exactly these samples.
    """
    n = space.n_modes
    rows = np.atleast_2d(observer.observation_rows(space))
    out = np.zeros((rows.shape[0], 4 * n))
    out[:, n : 2 * n] = rows
    return out


def adjoint_space_weights(space: SpectralSpace, case: str) -> np.ndarray:
    """Diagonal weights of the adjoint solution space norm."""
    return state_weights(space, (-1, 0, -2, -1) if case == "interior" else (0, 1, -1, 0))


def control_space_norms(vector: np.ndarray, space: SpectralSpace, case: str) -> dict:
    """Component norms of a controlled state in the case's data space.

    Interior case: (y1, y2, y1', y2') measured in H2 x H1 x H1 x H0;
    boundary case: H1 x H0 x H0 x H-1.
    """
    n = space.n_modes
    weighted = state_weights(space, (2, 1, 1, 0) if case == "interior" else (1, 0, 0, -1)) * vector**2
    out = {}
    for i, name in enumerate(("y1", "y2", "dy1", "dy2")):
        out[name] = float(np.sqrt(np.sum(weighted[i * n : (i + 1) * n])))
    out["total"] = float(np.sqrt(sum(v**2 for k, v in out.items() if k != "total")))
    return out


@dataclass(eq=False)
class _Workspace:
    """Cached operators for one problem."""

    step_back: np.ndarray     # P^{-1}, P the adjoint one-step propagator (exact, via velocity reflection)
    step_controlled: np.ndarray  # controlled stepper, exact dual of P
    obs_rows: np.ndarray
    xd: np.ndarray            # adjoint space diagonal weights
    source_nodes: np.ndarray | None  # xi samples at nodes, (n+1, N)


def _workspace(problem: HUMProblem) -> _Workspace:
    space = problem.space
    n = space.n_modes
    cmat = None if problem.coupling is None else problem.coupling.matrix
    step = cascade_step_matrix(space, cmat, problem.grid.dt, driven="second")
    controlled = cascade_step_matrix(
        space, None if cmat is None else cmat.T, problem.grid.dt, driven="first"
    )
    if problem.source is None:
        source_nodes = None
    else:
        source_nodes = np.vstack([np.asarray(problem.source(t), dtype=float) for t in problem.grid.times])
        if source_nodes.shape != (problem.grid.n_steps + 1, n):
            raise ValidationError("source(t) must return a modal coefficient vector")
        if not np.all(np.isfinite(source_nodes)):
            raise ValidationError("source(t) returned non-finite values")
    return _Workspace(
        step_back=reversed_step(step, n),
        step_controlled=controlled,
        obs_rows=adjoint_observation_rows(problem.observer, space),
        xd=adjoint_space_weights(space, problem.case),
        source_nodes=source_nodes,
    )


def _pairing_matrix_apply(vec: np.ndarray, n: int) -> np.ndarray:
    """Apply the duality pairing matrix (w1, w2, q1, q2) -> (-q1, -q2, w1, w2) along the last axis."""
    out = np.empty_like(vec)
    out[..., : 2 * n] = -vec[..., 2 * n :]
    out[..., 2 * n :] = vec[..., : 2 * n]
    return out


def _backward_states(final_vector: np.ndarray, ws: _Workspace, grid: TimeGrid) -> np.ndarray:
    """Adjoint node states from final data, shape (n_steps + 1, 4N)."""
    states = np.zeros((grid.n_steps + 1, final_vector.size))
    states[-1] = final_vector
    march(ws.step_back, states[::-1])
    return states


def _node_forcing(problem: HUMProblem, control: TimeSampledControl | None, ws: _Workspace) -> np.ndarray:
    """Control and source at every node as full adjoint-side states, shape (n_steps + 1, 4N).

    The control enters through the transposed observation rows, the source
    in the driven position block.
    """
    n = problem.space.n_modes
    if control is None:
        forcing = np.zeros((problem.grid.n_steps + 1, 4 * n))
    else:
        forcing = control.values @ ws.obs_rows
    if ws.source_nodes is not None:
        forcing[:, n : 2 * n] += ws.source_nodes
    return forcing


# ---------------------------------------------------------------------------
# the HUM operator and right-hand side


def apply_hum_gramian(final_data, problem: HUMProblem, _ws: _Workspace | None = None):
    """Apply the control Gramian to adjoint final data (matrix-free).

    The independent oracle for dense_hum_matrix, which solve_hum uses.
    Backward-evolves the adjoint cascade, observes at the nodes, and carries
    the weighted observations back through the adjoint of the solve.  The
    operator is symmetric; its quadratic form is the time-integrated squared
    control sample.
    """
    ws = _ws or _workspace(problem)
    grid = problem.grid
    as_state = isinstance(final_data, CascadeState)
    vec = final_data.as_vector() if as_state else np.asarray(final_data, dtype=float)
    states = _backward_states(vec, ws, grid)
    contributions = (states @ ws.obs_rows.T) * grid.node_weights[:, None]
    # node n_steps - j lies j backward steps from the final data
    acc = adjoint_sweep(contributions[::-1], ws.obs_rows, ws.step_back)
    return CascadeState.from_vector(acc, problem.space) if as_state else acc


def assemble_rhs(problem: HUMProblem, _ws: _Workspace | None = None) -> np.ndarray:
    """Functional of the data and source on adjoint final states.

    Returns the plain-coordinate vector ell with ell . W^T = L(W^T) + J(W^T):
    the duality pairing of the initial data against the adjoint state at
    time zero plus the node-quadrature pairing of the source against the
    adjoint's driven position.  Its Riesz representative in the adjoint
    space metric is ell divided by the diagonal weights.  Computed by one
    adjoint accumulation sweep (no final data needed).
    """
    ws = _ws or _workspace(problem)
    n = problem.space.n_modes
    states = _node_forcing(problem, None, ws)
    states *= problem.grid.node_weights[:, None]
    # transpose of the pairing matrix is its negative
    states[0] -= _pairing_matrix_apply(problem.initial_data.as_vector(), n)
    return march(ws.step_back.T, states)[-1]


def dense_hum_matrix(problem: HUMProblem, _ws: _Workspace | None = None) -> np.ndarray:
    """Dense 4N x 4N control Gramian, the matrix that apply_hum_gramian applies.

    Assembled by the chunked weighted_gram on the adjoint observation rows
    and the backward propagator.
    """
    ws = _ws or _workspace(problem)
    # node n_steps - j lies j backward steps from the final data
    return weighted_gram(ws.obs_rows, ws.step_back, problem.grid.node_weights[::-1])


# ---------------------------------------------------------------------------
# controlled evolution


def controlled_forward(
    problem: HUMProblem,
    control: TimeSampledControl | None,
    _ws: _Workspace | None = None,
) -> np.ndarray:
    """Direct forced solve of the controlled system over the grid.

    The control and source enter as velocity injections at the nodes with
    the quadrature weights (the node-quadrature discretization of their
    forcing integrals), which makes the discrete transposition identity
    against adjoint trajectories exact.  Returns node states (post
    injection), shape (n_steps + 1, 4N).
    """
    ws = _ws or _workspace(problem)
    n = problem.space.n_modes
    states = _pairing_matrix_apply(_node_forcing(problem, control, ws), n)
    states *= problem.grid.node_weights[:, None]
    states[0] += problem.initial_data.as_vector()
    return march(ws.step_controlled, states)


# ---------------------------------------------------------------------------
# the solve


def _certificate_norm(residual: np.ndarray, problem: HUMProblem) -> float:
    """Terminal-state norm the residual would produce, in the data space."""
    n = problem.space.n_modes
    terminal = _pairing_matrix_apply(residual, n)
    return control_space_norms(terminal, problem.space, problem.case)["total"]


def solve_hum(problem: HUMProblem) -> HUMSolution:
    """Synthesize the null control by conjugate gradients on adjoint data.

    The control Gramian is assembled once (dense_hum_matrix) and serves both
    the refusal check and every CG product.  Refuses when it fails the
    observability floor (its metric-scaled eigenvalue contrast), since
    coercivity is exactly what the variational problem needs.  On success
    the control is the observation of the minimizing adjoint trajectory, the
    controlled system is re-simulated with it, and the terminal norms are
    certified in the case's data space.
    """
    ws = _workspace(problem)
    grid = problem.grid
    space = problem.space
    n = space.n_modes

    gram = dense_hum_matrix(problem, ws)
    scale = 1.0 / np.sqrt(ws.xd)
    scaled = gram * np.outer(scale, scale)
    if problem.coupling is None:
        # without coupling the first component is beyond reach; only the
        # controlled component's sub-block must be coercive
        idx = np.concatenate([np.arange(n, 2 * n), np.arange(3 * n, 4 * n)])
        scaled = scaled[np.ix_(idx, idx)]
    spectrum = np.linalg.eigvalsh(scaled)
    contrast = spectrum[0] / spectrum[-1] if spectrum[-1] > 0 else 0.0
    if contrast < problem.observability_floor:
        raise RefusalError(
            "control Gramian fails the observability floor; increase the horizon "
            "or enlarge the control region",
            {
                "min_eig": float(spectrum[0]),
                "max_eig": float(spectrum[-1]),
                "contrast": float(contrast),
                "floor": problem.observability_floor,
            },
        )

    rhs = -assemble_rhs(problem, ws)
    rhs_scale = _certificate_norm(rhs, problem)
    initial_norm = control_space_norms(problem.initial_data.as_vector(), space, problem.case)["total"]
    trace = []
    x = np.zeros(4 * n)
    iterations = 0
    if rhs_scale == 0.0:
        final_residual = 0.0
    else:
        r = rhs.copy()
        z = r / ws.xd
        p = z.copy()
        rz = float(r @ z)
        final_residual = _certificate_norm(r, problem) / rhs_scale
        trace.append(final_residual)
        for iterations in range(1, problem.max_iterations + 1):
            ap = gram @ p
            alpha = rz / float(p @ ap)
            x += alpha * p
            r -= alpha * ap
            final_residual = _certificate_norm(r, problem) / rhs_scale
            trace.append(final_residual)
            if final_residual <= problem.cg_tolerance:
                break
            z = r / ws.xd
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        else:
            raise ConvergenceError(
                f"conjugate gradient stalled at residual {final_residual:.3e} after "
                f"{problem.max_iterations} iterations",
                trace=trace,
                partial=CascadeState.from_vector(x, space),
            )

    control = TimeSampledControl(_backward_states(x, ws, grid) @ ws.obs_rows.T, problem.case, grid)
    trajectory = controlled_forward(problem, control, ws)
    terminal_norms = control_space_norms(trajectory[-1], space, problem.case)
    duality = verify_transposition(problem, control, trajectory=trajectory, n_probes=5, seed=1, _ws=ws)
    return HUMSolution(
        minimizer=CascadeState.from_vector(x, space),
        control=control,
        cg_iterations=iterations,
        final_residual=final_residual,
        terminal_norms=terminal_norms,
        initial_norm=initial_norm,
        duality_residual=duality["max_residual"],
        cg_trace=trace,
        trajectory=trajectory,
    )


def verify_transposition(
    problem: HUMProblem,
    control: TimeSampledControl | None,
    trajectory: np.ndarray | None = None,
    n_probes: int = 20,
    seed: int = 0,
    _ws: _Workspace | None = None,
) -> dict:
    """Check the transposition identity of the controlled solution.

    For random adjoint final data, the duality pairing of the controlled
    state against the adjoint trajectory, taken between the endpoints, must
    equal the time quadrature of the control against the adjoint observation
    plus the source pairing.  Both sides are computed through independent
    code paths (forward injected solve with endpoint pairings vs backward
    adjoint solve with node quadrature).
    """
    ws = _ws or _workspace(problem)
    grid = problem.grid
    n = problem.space.n_modes
    if trajectory is None:
        trajectory = controlled_forward(problem, control, ws)
    rng = np.random.default_rng(seed)
    worst = 0.0
    residuals = []
    for _ in range(n_probes):
        probe = rng.standard_normal(4 * n)
        states = _backward_states(probe, ws, grid)
        quadrature = 0.0
        magnitude = 0.0  # scale of the terms before cancellation
        if control is not None:
            obs = states @ ws.obs_rows.T
            quadrature += float(grid.node_weights @ (obs * control.values).sum(axis=1))
            magnitude += float(grid.node_weights @ (np.abs(obs) * np.abs(control.values)).sum(axis=1))
        if ws.source_nodes is not None:
            paired = np.einsum("mi,mi->m", ws.source_nodes, states[:, n : 2 * n])
            quadrature += float(grid.node_weights @ paired)
            magnitude += float(grid.node_weights @ np.abs(paired))
        end_pair = duality_pairing(trajectory[-1], probe, n)
        start_pair = duality_pairing(problem.initial_data.as_vector(), states[0], n)
        lhs = end_pair - start_pair
        scale = max(abs(lhs), abs(quadrature), magnitude, abs(end_pair), abs(start_pair), 1e-300)
        residual = abs(lhs - quadrature) / scale
        residuals.append(residual)
        worst = max(worst, residual)
    return {"max_residual": worst, "residuals": residuals}
