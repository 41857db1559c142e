"""Exact control synthesis for the cascade system.

The controlled system drives the second component with a single control
(an interior field through a nonnegative weight, or a Dirichlet boundary
datum through endpoint weights) while the first component is coupled to it:

    y1'' + A y1 + C y2 = 0,
    y2'' + A y2 = B v (+ xi).

Null controls are built by minimizing the control energy over final data of
the adjoint cascade (the same triangular pair with the coupling on the
second equation), a coercive problem whose Hessian is the control Gramian:
it is solved by one symmetric eigendecomposition of that Gramian in the
appropriate weak metric, plus one refinement step with the same factors.

The discretization is chosen so that the duality bookkeeping is exact: the
adjoint trajectory is stepped with the reversible one-step propagator, the
control acts on the controlled system through node injections carrying the
time-quadrature weights, and the controlled stepper is derived from the
adjoint stepper as its dual under the wave duality pairing (the transpose
with position and velocity halves swapped).  As a result the
discrete transposition identity holds to roundoff and terminal nulling is
limited only by roundoff in the solve, not by the time step.

Adjoint trajectories are swept, not marched whole.  The adjoint's first
component is a free wave that only drives the second, so it rotates back in
closed form, its kicks on the driven component are one matrix product, and
only the driven block of the backward step is marched
(``dynamics.march_driven``).  A solve sweeps back once: the minimizer rides
as one more row in the block of the transposition probes, and its observed
driven positions are the control samples, so the control extraction is no
sweep of its own.  Forward solves march the full controlled step
(``dynamics.march``), so the transposition check compares two different
algorithms.  Lions' HUM operator (``apply_hum_gramian``), the matrix-free
oracle of the assembled Gramian, is the same two halves: a sweep with no
probe, whose observation is the control, then one forward march from rest.

The control Gramian and the M-step backward propagator P^-M come from one
doubling on the blocks of the backward step (``observability._doubling``),
kept by the problem.  The right-hand side reads the initial data's part from
P^-M, so a source-free solve marches forward once, to re-simulate the
controlled system; only a source is marched from rest for the right-hand
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RefusalError, ValidationError
from .spectral import SpectralSpace
from .dynamics import (
    CascadeState,
    CouplingOperator,
    Observer,
    TimeGrid,
    _aligned,
    _component_indices,
    _read_only,
    _sample_forcing,
    cascade_step_matrix,
    duality_pairing,
    free_flow,
    march,
    march_driven,
    reversed_step,
    state_weights,
)
from .observability import _doubling

__all__ = [
    "HUMProblem",
    "HUMSolution",
    "TimeSampledControl",
    "DATA_ORDERS",
    "adjoint_observation_rows",
    "adjoint_space_weights",
    "control_space_norms",
    "apply_hum_gramian",
    "assemble_rhs",
    "data_norm",
    "dense_hum_matrix",
    "solve_hum",
    "controlled_forward",
    "verify_transposition",
]

OBSERVABILITY_FLOOR = 1e-8  # smallest metric-scaled eigenvalue contrast of a control Gramian that solve_hum accepts


# ---------------------------------------------------------------------------
# problem definition


@dataclass(frozen=True, eq=False)
class HUMProblem:
    """One exact-control problem for the cascade pair.

    The observer's kind is the case: 'interior' (bounded control operator,
    data in the strong product space) or 'boundary' (Dirichlet control, weak
    product space; ``DATA_ORDERS``).  ``initial_data`` is the state (y1, y2,
    y1', y2') to drive to rest; ``source`` an optional forcing of the
    controlled equation given as a callable t -> modal coefficients, called
    once on the column of grid times (shape (n_steps + 1, 1)) with its result
    broadcast to (n_steps + 1, N).  The observer doubles as the control
    operator: its weight is the control profile.

    The problem owns the operators derived from it (the steppers, the
    observation rows, the adjoint metric, the source samples and terminal
    state, the control Gramian and P^-M); each is built on first use and
    kept for the life of the problem, the steppers in 64-byte-aligned
    buffers (``dynamics._aligned``).
    """

    initial_data: CascadeState
    coupling: CouplingOperator | None
    observer: Observer
    grid: TimeGrid
    source: object = None  # callable t -> modal coefficients (broadcast per time), or None

    def __post_init__(self):
        self.grid.validate_for(self.space)

    @property
    def space(self) -> SpectralSpace:
        return self.initial_data.space

    @cached_property
    def step(self) -> np.ndarray:
        """P, the adjoint one-step propagator."""
        cmat = None if self.coupling is None else self.coupling.matrix
        return _aligned(cascade_step_matrix(self.space, cmat, self.grid.dt))

    @cached_property
    def step_back(self) -> np.ndarray:
        """P^{-1}, exact by velocity reflection."""
        return _aligned(reversed_step(self.step, self.space.n_modes))

    @cached_property
    def driven_back_t(self) -> np.ndarray:
        """The driven block of P^{-1}, (w2, q2) to (w2, q2), transposed to act on row states."""
        _, driven = _component_indices(self.space.n_modes)
        return _aligned(self.step_back[np.ix_(driven, driven)].T)

    @cached_property
    def kick_back_t(self) -> np.ndarray:
        """The kick block of P^{-1}, (w1, q1) to (w2, q2), transposed to act on row states."""
        free, driven = _component_indices(self.space.n_modes)
        return _aligned(self.step_back[np.ix_(driven, free)].T)

    @cached_property
    def step_controlled(self) -> np.ndarray:
        """The dual of P: P^T with position and velocity halves swapped."""
        # the dual of P keeps the pairing matrix J: Pc^T J P = J, so Pc = J^{-1} (P^{-1})^T J;
        # with P^{-1} = R P R (R negates velocities) that is P^T with the halves swapped
        return _aligned(np.roll(self.step.T, 2 * self.space.n_modes, axis=(0, 1)))

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # a Gramian out of the float range is refused below
    def gramian_and_power(self) -> tuple[np.ndarray, np.ndarray]:
        """The control Gramian and P^-M, M = n_steps, read-only, from one doubling of ``step_back``."""
        gram, power = _doubling(self.obs_rows.T @ self.obs_rows, self.step_back, self.grid)
        if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(power))):
            raise ValidationError("[coupling] or [observer] is too large: the control Gramian leaves the float range")
        return _read_only(gram), _read_only(power)

    @cached_property
    def obs_rows(self) -> np.ndarray:
        """Control-dual observation rows on the adjoint state (``adjoint_observation_rows``)."""
        return adjoint_observation_rows(self.observer, self.space)

    @cached_property
    def xd(self) -> np.ndarray:
        """Diagonal weights of the adjoint space metric."""
        return adjoint_space_weights(self.space, self.observer.kind)

    @cached_property
    def source_terminal(self) -> np.ndarray | None:
        """The source's terminal state from rest, (4N,), marched once; None without a source."""
        # a copy, so that the marched trajectory is freed
        return None if self.source is None else march(self.step_controlled, _injections(self, None))[-1].copy()

    @cached_property
    def source_nodes(self) -> np.ndarray | None:
        """Source samples at the grid nodes, (n_steps + 1, N), or None."""
        if self.source is None:
            return None
        nodes = _sample_forcing(self.source, self.grid.times, self.space.n_modes, "source")
        if not np.all(np.isfinite(nodes)):
            raise ValidationError("source(t) returned non-finite values")
        return nodes


@dataclass(frozen=True, eq=False)
class TimeSampledControl:
    """Control samples at the grid nodes, shape (n_steps + 1, q).

    Interior controls store the modal coefficients of v(t, .); boundary
    controls store the endpoint values (active endpoints only, in left,
    right order).
    """

    values: np.ndarray
    grid: TimeGrid

    def squared_time_norm(self) -> float:
        return float(self.grid.node_weights @ (self.values**2).sum(axis=1))


@dataclass(eq=False)
class HUMSolution:
    """The null control, its solve residual and its certificate; ``initial_norm`` is ``data_norm``."""

    minimizer: CascadeState
    control: TimeSampledControl
    final_residual: float  # certificate norm of the solve's residual, relative to the right-hand side's
    terminal_norms: dict
    initial_norm: float
    duality_residual: float
    trajectory: np.ndarray  # controlled node states, (n_steps + 1, 4N)
    gramian_contrast: float  # smallest over largest eigenvalue of the metric-scaled control Gramian

    @property
    def max_terminal_relative(self) -> float:
        """Worst terminal component norm, the total aside, over ``initial_norm``."""
        return max(v for k, v in self.terminal_norms.items() if k != "total") / max(self.initial_norm, 1e-300)


# ---------------------------------------------------------------------------
# case-dependent geometry

# Sobolev orders of the data space of (y1, y2, y1', y2') per observer kind, the
# case: by HUM duality the observation operator fixes them.  Every other order
# set (adjoint metric, insensitizing perturbation slots) is read from here.
DATA_ORDERS = {"interior": (2, 1, 1, 0), "boundary": (1, 0, 0, -1)}


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


def adjoint_space_weights(space: SpectralSpace, kind: str) -> np.ndarray:
    """Diagonal weights of the adjoint space norm for the observer kind ``kind``, the case.

    The dual of the data space in the wave pairing: ``DATA_ORDERS`` negated, position and velocity halves swapped.
    """
    y1, y2, dy1, dy2 = DATA_ORDERS[kind]
    return state_weights(space, (-dy1, -dy2, -y1, -y2))


def _squared_component_norms(states: np.ndarray, space: SpectralSpace, kind: str) -> np.ndarray:
    """Squared norms of (y1, y2, y1', y2') of each 4N state along the last axis, in ``kind``'s data space.

    One component block is squared at a time, so a trajectory of states forms no 4N-wide temporary.
    """
    n = space.n_modes
    weights = state_weights(space, DATA_ORDERS[kind])
    blocks = [(weights[k : k + n] * states[..., k : k + n] ** 2).sum(axis=-1) for k in range(0, 4 * n, n)]
    return np.stack(blocks, axis=-1)


def control_space_norms(vector: np.ndarray, space: SpectralSpace, kind: str) -> dict:
    """Component norms of a controlled state in the data space of the observer kind ``kind``, the case.

    Interior: (y1, y2, y1', y2') measured in H2 x H1 x H1 x H0; boundary:
    H1 x H0 x H0 x H-1 (``DATA_ORDERS``).
    """
    out = dict(zip(("y1", "y2", "dy1", "dy2"), np.sqrt(_squared_component_norms(vector, space, kind)).tolist()))
    out["total"] = float(np.sqrt(sum(v**2 for v in out.values())))
    return out


def _pairing_matrix_apply(vec: np.ndarray, n: int) -> np.ndarray:
    """Apply the duality pairing matrix (w1, w2, q1, q2) -> (-q1, -q2, w1, w2) along the last axis."""
    out = np.empty_like(vec)
    out[..., : 2 * n] = -vec[..., 2 * n :]
    out[..., 2 * n :] = vec[..., : 2 * n]
    return out


def _sweep_back(problem: HUMProblem, free_final: np.ndarray, states: np.ndarray, start: int = 0) -> np.ndarray:
    """Driven adjoint states ``start``, ``start + 1``, ... backward steps from T, in place.

    ``march_driven`` with the blocks of P^{-1}: ``free_final`` holds the free
    component (w1, q1) at T, which rotates back in closed form, and row 0 of
    ``states`` the driven component (w2, q2) ``start`` steps back.  Returns
    the free table.
    """
    c, s, m = free_flow(problem.space, problem.grid.times[start : start + len(states)])
    # the reflected step rotates backward: its sine terms change sign
    s *= -1.0
    m *= -1.0
    return march_driven(problem.driven_back_t, problem.kick_back_t, (c, s, m), free_final, states)


# ---------------------------------------------------------------------------
# the HUM operator and right-hand side


def apply_hum_gramian(final_data, problem: HUMProblem):
    """Lions' HUM operator: the control Gramian applied to adjoint final data, matrix-free.

    The independent oracle for dense_hum_matrix, which solve_hum uses.  The
    final data are swept back alone (``_swept_pairings`` with no probe),
    their observation at each node is the control sample there, and the
    controlled system is marched once from rest under that control, with
    neither the initial data nor the source; the result is -J y(T), the
    terminal state in the duality pairing.  The operator is symmetric; its
    quadratic form is the time-integrated squared control sample.
    """
    as_state = isinstance(final_data, CascadeState)
    vec = final_data.as_vector() if as_state else np.asarray(final_data, dtype=float)
    n = problem.space.n_modes
    samples, _, _ = _swept_pairings(problem, np.empty((0, 4 * n)), minimizer=vec)
    states = np.zeros((problem.grid.n_steps + 1, 4 * n))
    states[:, 3 * n :] = (samples @ problem.obs_rows[:, n : 2 * n]) * problem.grid.node_weights[:, None]
    acc = -_pairing_matrix_apply(march(problem.step_controlled, states)[-1], n)
    return CascadeState.from_vector(acc, problem.space) if as_state else acc


def assemble_rhs(problem: HUMProblem) -> np.ndarray:
    """Functional of the data and source on adjoint final states.

    Returns the plain-coordinate vector ell with ell . W^T = L(W^T) + J(W^T):
    the duality pairing of the initial data against the adjoint state at
    time zero plus the node-quadrature pairing of the source against the
    adjoint's driven position.  Its Riesz representative in the adjoint
    space metric is ell divided by the diagonal weights.  By the
    transposition identity this is the pairing of the uncontrolled terminal
    state y(T) against W^T, so ell = -J y(T) with J the pairing matrix.

    The data's part of y(T) is Pc^M y0, and the controlled stepper is
    Pc = J^-1 (P^-1)^T J, so it is read as -(P^-M)^T J y0 from the problem's
    P^-M (``HUMProblem.gramian_and_power``), with no march.  A source adds
    its own terminal state, marched from rest (``HUMProblem.source_terminal``).
    """
    n = problem.space.n_modes
    ell = -(problem.gramian_and_power[1].T @ _pairing_matrix_apply(problem.initial_data.as_vector(), n))
    if problem.source is not None:
        ell -= _pairing_matrix_apply(problem.source_terminal, n)
    return ell


def data_norm(problem: HUMProblem) -> float:
    """Norm of the data that drive the terminal state: the initial data plus the source's terminal state from rest."""
    driving = [problem.initial_data.as_vector()] + ([] if problem.source is None else [problem.source_terminal])
    return sum(control_space_norms(v, problem.space, problem.observer.kind)["total"] for v in driving)


def dense_hum_matrix(problem: HUMProblem) -> np.ndarray:
    """Dense 4N x 4N control Gramian, the matrix that apply_hum_gramian applies.

    weighted_gram of the form rows^T rows of the adjoint observation rows
    under the backward propagator: node n_steps - j lies j backward steps
    from the final data, and the Simpson weights are symmetric.  The problem
    keeps it, read-only, with P^-M from the same doubling
    (``HUMProblem.gramian_and_power``).
    """
    return problem.gramian_and_power[0]


# ---------------------------------------------------------------------------
# controlled evolution


def _injections(problem: HUMProblem, control: TimeSampledControl | None) -> np.ndarray:
    """Node injections of the control and source into the controlled system, (n_steps + 1, 4N).

    Velocity injections with the quadrature weights: the node-quadrature
    discretization of their forcing integrals.  The observation rows and the
    source act on the driven position, which the pairing matrix carries to
    the driven velocity, so only that block is written.
    """
    n = problem.space.n_modes
    states = np.zeros((problem.grid.n_steps + 1, 4 * n))
    kicks = states[:, 3 * n :]
    if control is not None:
        kicks[...] = control.values @ problem.obs_rows[:, n : 2 * n]
    if problem.source_nodes is not None:
        kicks += problem.source_nodes
    kicks *= problem.grid.node_weights[:, None]
    return states


def controlled_forward(problem: HUMProblem, control: TimeSampledControl | None) -> np.ndarray:
    """Direct forced solve of the controlled system over the grid.

    The control and source enter as velocity injections at the nodes with
    the quadrature weights (``_injections``), which makes the discrete
    transposition identity against adjoint trajectories exact.  Returns
    node states (post injection), shape (n_steps + 1, 4N).
    """
    states = _injections(problem, control)
    states[0] += problem.initial_data.as_vector()
    return march(problem.step_controlled, states)


# ---------------------------------------------------------------------------
# the solve


def _certificate_norm(residual: np.ndarray, problem: HUMProblem) -> float:
    """Terminal-state norm the residual would produce, in the data space."""
    n = problem.space.n_modes
    terminal = _pairing_matrix_apply(residual, n)
    return control_space_norms(terminal, problem.space, problem.observer.kind)["total"]


def solve_hum(problem: HUMProblem) -> HUMSolution:
    """Synthesize the null control by one dense solve on adjoint data.

    The control Gramian is assembled once (dense_hum_matrix) and scaled by
    the adjoint metric; one symmetric eigendecomposition of that matrix
    serves both the refusal check and the solve.  Refuses when its
    metric-scaled eigenvalue contrast is below ``OBSERVABILITY_FLOOR``, since
    coercivity is exactly what the variational problem needs; past the
    refusal the scaled matrix is symmetric positive definite with condition
    number at most 1 / ``OBSERVABILITY_FLOOR``, and the solve applies its
    inverse from the eigenpairs, x = V (V^T b / lambda), then takes one
    refinement step with the same factors.  Unlike an LU solve, which
    OpenBLAS factors with threads, this reads the same bits at every BLAS
    thread count on the shipped sizes.

    On success the minimizer is swept back once, as row 0 of the
    transposition probes' block (``_swept_pairings``): its observation at
    each node is the control sample there.  The controlled system is then
    re-simulated with that control, the terminal norms are certified in the
    case's data space, and the probes' end pairings against the simulated
    terminal state close the transposition identity.
    """
    grid = problem.grid
    space = problem.space
    n = space.n_modes

    gram = dense_hum_matrix(problem)
    # without coupling the first component is beyond reach; only the
    # controlled component's sub-block must be coercive, and it alone is solved
    slots = np.arange(4 * n) if problem.coupling is not None else _component_indices(n)[1]
    scale = 1.0 / np.sqrt(problem.xd[slots])
    scaled = gram[np.ix_(slots, slots)] * np.outer(scale, scale)
    spectrum, vectors = np.linalg.eigh(scaled)
    contrast = float(spectrum[0] / spectrum[-1]) if spectrum[-1] > 0 else 0.0
    if contrast < OBSERVABILITY_FLOOR:
        raise RefusalError(
            "control Gramian fails the observability floor; increase the horizon "
            "or enlarge the control region",
            {
                "min_eig": float(spectrum[0]),
                "max_eig": float(spectrum[-1]),
                "contrast": contrast,
                "floor": OBSERVABILITY_FLOOR,
            },
        )

    rhs = -assemble_rhs(problem)
    with np.errstate(over="ignore"):  # a norm out of the float range is refused next
        rhs_scale = _certificate_norm(rhs, problem)
        initial_norm = data_norm(problem)
    if not (np.isfinite(rhs_scale) and np.isfinite(initial_norm)):
        raise ValidationError("[source] is too large: the right-hand side's certificate norm leaves the float range")
    x = np.zeros(4 * n)
    if rhs_scale == 0.0:
        final_residual = 0.0
    else:
        target = scale * rhs[slots]
        scaled_x = vectors @ ((vectors.T @ target) / spectrum)
        scaled_x += vectors @ ((vectors.T @ (target - scaled @ scaled_x)) / spectrum)  # one refinement step
        x[slots] = scale * scaled_x
        final_residual = _certificate_norm(rhs - gram @ x, problem) / rhs_scale

    probes = np.random.default_rng(1).standard_normal((5, 4 * n))
    samples, sums, starts = _swept_pairings(problem, probes, minimizer=x)
    control = TimeSampledControl(samples, grid)
    trajectory = controlled_forward(problem, control)
    terminal_norms = control_space_norms(trajectory[-1], space, problem.observer.kind)
    duality = _transposition_residuals(problem, probes, starts, sums, trajectory[-1])
    return HUMSolution(
        minimizer=CascadeState.from_vector(x, space),
        control=control,
        final_residual=final_residual,
        terminal_norms=terminal_norms,
        initial_norm=initial_norm,
        duality_residual=duality["max_residual"],
        trajectory=trajectory,
        gramian_contrast=contrast,
    )


def verify_transposition(
    problem: HUMProblem,
    control: TimeSampledControl | None,
    trajectory: np.ndarray | None = None,
    n_probes: int = 20,
    seed: int = 0,
) -> dict:
    """Check the transposition identity of the controlled solution.

    For random adjoint final data, the duality pairing of the controlled
    state against the adjoint trajectory, taken between the endpoints, must
    equal the time quadrature of the control against the adjoint observation
    plus the source pairing.  Both sides are computed through independent
    code paths: a forward injected solve with the full controlled step and
    endpoint pairings, against a backward adjoint sweep with node quadrature
    that rotates the free component in closed form and marches only the
    driven block (``_swept_pairings``, the sweep ``solve_hum`` extracts its
    control in).  ``n_probes`` below 1 is a ``ValidationError``: a check
    without a probe checks nothing.
    """
    if n_probes < 1:
        raise ValidationError(f"n_probes must be at least 1, got {n_probes}")
    if trajectory is None:
        trajectory = controlled_forward(problem, control)
    probes = np.random.default_rng(seed).standard_normal((n_probes, 4 * problem.space.n_modes))
    _, sums, starts = _swept_pairings(problem, probes, values=None if control is None else control.values)
    return _transposition_residuals(problem, probes, starts, sums, trajectory[-1])


def _swept_pairings(
    problem: HUMProblem,
    probes: np.ndarray,
    values: np.ndarray | None = None,
    minimizer: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Sweep adjoint final data back from T and reduce the identity's node sums on the way.

    ``probes`` (k, 4N) are swept together, their driven components as one
    block per node, so each step is one matrix product.  With ``minimizer``
    (4N,) given, it is swept as row 0 of the same block and its observation
    at each node is the control sample there; otherwise ``values`` holds the
    control samples, (n_steps + 1, q), or None without a control.  With no
    probe (k = 0) it is a plain sweep of the minimizer, in one chunk.

    The block is reused chunk by chunk: it holds ceil(n_steps / k) + 1
    nodes, about half of one state trajectory; each chunk's nodes are
    reduced at once (``_node_sums``) into per-probe quadrature and magnitude
    sums, and its earliest node starts the next chunk.  Returns the control
    samples extracted from the minimizer (None without one), the sums
    (2, k) and the probes' adjoint states at time zero (k, 4N).
    """
    grid = problem.grid
    n = problem.space.n_modes
    n_steps = grid.n_steps
    free, driven = _component_indices(n)
    positions = problem.obs_rows[:, n : 2 * n]  # the rows read only the driven position
    finals = probes if minimizer is None else np.vstack([minimizer, probes])
    rows_per_node = len(finals)  # the probes, and the minimizer ahead of them
    probe_rows = slice(rows_per_node - len(probes), rows_per_node)
    samples = None
    if minimizer is not None:
        samples = values = np.empty((n_steps + 1, len(positions)))
    # node samples read from T back: row j of each is node n_steps - j
    weights = grid.node_weights[::-1]
    back = None if values is None else values[::-1]
    sources = None if problem.source_nodes is None else problem.source_nodes[::-1]
    rows = -(-n_steps // max(len(probes), 1)) + 1
    block = np.empty((rows, rows_per_node, 2 * n))
    block[0] = finals[:, driven]
    free_final = finals[:, free]
    sums = np.zeros((2, len(probes)))
    top, reduced = 0, 0  # steps back from T to the chunk's first row, and whether that row is reduced
    while True:
        chunk = block[: min(rows, n_steps + 1 - top)]  # row r lies top + r steps back from T
        start_free = _sweep_back(problem, free_final, chunk, top)[-1].copy()  # drops the free table
        fresh = chunk[reduced:]  # driven states of the nodes not yet reduced
        steps = slice(top + reduced, top + len(chunk))
        observed = None
        if back is not None:
            observed = np.dot(fresh.reshape(-1, 2 * n)[:, :n], positions.T).reshape(len(fresh), rows_per_node, -1)
            if samples is not None:
                back[steps] = observed[:, 0]
            observed = observed[:, probe_rows]
        _node_sums(
            sums,
            observed,
            None if back is None else back[steps],
            fresh[:, probe_rows, :n],
            None if sources is None else sources[steps],
            weights[steps],
        )
        del observed  # the next chunk's sweep needs the room
        if top + len(chunk) == n_steps + 1:
            break
        top, reduced = top + len(chunk) - 1, 1
        block[0] = chunk[-1]
    starts = np.empty((len(probes), 4 * n))
    starts[:, free] = start_free[probe_rows]
    starts[:, driven] = chunk[-1, probe_rows]
    return samples, sums, starts


def _node_sums(
    sums: np.ndarray,
    observed: np.ndarray | None,
    samples: np.ndarray | None,
    positions: np.ndarray,
    sources: np.ndarray | None,
    weights: np.ndarray,
) -> None:
    """Add one chunk's nodes to the probes' quadrature and magnitude sums, ``sums`` (2, k), in place.

    ``observed`` (nodes, k, q) holds the probes' adjoint observations, read
    against the control ``samples`` (nodes, q), or both are None without a
    control; ``positions`` (nodes, k, N) the probes' driven positions, read
    against the ``sources`` (nodes, N) or None; ``weights`` the nodes'
    quadrature weights.  ``observed`` is overwritten.  The magnitude is the
    scale of the terms before cancellation.
    """
    quadrature, magnitude = sums
    if samples is not None:
        observed *= samples[:, None, :]
        quadrature += weights @ observed.sum(axis=2)
        magnitude += weights @ np.abs(observed, out=observed).sum(axis=2)
    if sources is not None:
        paired = np.matmul(positions, sources[:, :, None])[..., 0]
        quadrature += weights @ paired
        magnitude += weights @ np.abs(paired)


def _transposition_residuals(
    problem: HUMProblem, probes: np.ndarray, starts: np.ndarray, sums: np.ndarray, terminal: np.ndarray
) -> dict:
    """Relative residuals of the identity per probe from its node sums and its end and start pairings."""
    n = problem.space.n_modes
    initial = problem.initial_data.as_vector()
    residuals = []
    for probe, start, quad, mag in zip(probes, starts, *sums.tolist()):
        end_pair = duality_pairing(terminal, probe, n)
        start_pair = duality_pairing(initial, start, n)
        lhs = end_pair - start_pair
        scale = max(abs(lhs), abs(quad), mag, abs(end_pair), abs(start_pair), 1e-300)
        residuals.append(abs(lhs - quad) / scale)
    # np.max propagates a NaN residual, where max(0.0, nan) would drop it
    return {"max_residual": float(np.max(residuals, initial=0.0)), "residuals": residuals}
