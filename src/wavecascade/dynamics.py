"""Cascade wave dynamics on the unit interval.

The system evolved here is a pair of wave equations in triangular form: the
first component is free, the second is driven by a localized multiplication
coupling,

    u1'' + A u1 = 0,
    u2'' + A u2 + C u1 = 0,

with A the Dirichlet Laplacian in its sine eigenbasis.  States are stored as
4N vectors ordered (u1, u2, u1', u2').

Time stepping uses the exact per-mode rotation for the free parts and a
per-step Simpson quadrature of the forcing integral for the driven part,
with the driving component evaluated in closed form at the quadrature
sub-nodes.  The step is therefore fourth-order accurate in dt, exactly
time-reversible under velocity negation, and exactly symplectic for the
duality pairing used by the control modules.

Coupled trajectories march their one-step matrix (``march``).  A sweep
with no injection into the free component may march only the driven block
(``march_driven``): the free states come in closed form and their kicks in
one matrix product.  A single forced wave w'' + A w = f steps by the same
rotation and Simpson kick, but there the step is the exact rotation alone,
so ``forced_flow`` sums the whole recursion in the rotating frame with one
prefix sum instead.  All take their Simpson kernel from
``simpson_kick_weights``.

The module holds what the runs use.  The reference computations the tests
check it against (free evolution and energies of one component, pointwise
observation, the inverse of the first-order generator) live in
``tests/oracles.py``.

A forcing f is a callable t -> modal coefficients.  It is called once, on a
column of all the times it is needed at (shape (..., 1)), and its result is
broadcast to one modal vector per time (shape (..., N)); a result that does
not broadcast is a ``ValidationError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .spectral import (
    CoefficientFunction,
    IndicatorFunction,
    ModalCoefficients,
    SpectralSpace,
    assemble_multiplication_matrix,
    simpson_weights,
)

__all__ = [
    "ComponentState",
    "CascadeState",
    "CouplingOperator",
    "Observer",
    "TimeGrid",
    "CascadeTrajectory",
    "cascade_step_matrix",
    "free_flow",
    "evolve_cascade",
    "evolve_cascade_backward",
    "evolve_forced_scalar",
    "forced_flow",
    "simpson_kick_weights",
    "march",
    "march_driven",
    "reversed_step",
    "state_weights",
    "duality_pairing",
]

MAX_STEP_PHASE = 0.5  # dt * sqrt(lambda_N) bound of TimeGrid.validate_for


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True, eq=False)
class ComponentState:
    """Position/velocity pair (u, u') of one wave component."""

    position: ModalCoefficients
    velocity: ModalCoefficients

    def __post_init__(self):
        if self.position.space is not self.velocity.space:
            raise ValidationError("position and velocity must share one spectral space")

    @property
    def space(self) -> SpectralSpace:
        return self.position.space

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.position.coeffs, self.velocity.coeffs])


@dataclass(frozen=True, eq=False)
class CascadeState:
    """Full state U = (u1, u2, u1', u2') of the coupled pair."""

    u1: ModalCoefficients
    u2: ModalCoefficients
    v1: ModalCoefficients
    v2: ModalCoefficients

    def __post_init__(self):
        sp = self.u1.space
        for other in (self.u2, self.v1, self.v2):
            if other.space is not sp:
                raise ValidationError("all four fields must share one spectral space")

    @property
    def space(self) -> SpectralSpace:
        return self.u1.space

    @property
    def first(self) -> ComponentState:
        return ComponentState(self.u1, self.v1)

    @property
    def second(self) -> ComponentState:
        return ComponentState(self.u2, self.v2)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.u1.coeffs, self.u2.coeffs, self.v1.coeffs, self.v2.coeffs])

    @staticmethod
    def from_vector(vec: np.ndarray, space: SpectralSpace) -> "CascadeState":
        n = space.n_modes
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (4 * n,):
            raise ValidationError(f"state vector has shape {vec.shape}, expected ({4 * n},)")
        return CascadeState(
            ModalCoefficients(vec[0:n], space),
            ModalCoefficients(vec[n : 2 * n], space),
            ModalCoefficients(vec[2 * n : 3 * n], space),
            ModalCoefficients(vec[3 * n : 4 * n], space),
        )

    @staticmethod
    def zero(space: SpectralSpace) -> "CascadeState":
        return CascadeState.from_vector(np.zeros(4 * space.n_modes), space)


def state_weights(space: SpectralSpace, orders: tuple[int, int, int, int]) -> np.ndarray:
    """Diagonal lambda^k weights of a stacked 4N state, one order k per block.

    The weighted squared norm sum(w * x**2) measures each block in H^k.
    """
    lam = space.eigenvalues
    return np.concatenate([lam**k if k >= 0 else 1.0 / lam**-k for k in orders])


def duality_pairing(y: np.ndarray, w: np.ndarray, n_modes: int) -> float:
    """Wave duality pairing  sum_i ( <y_i', w_i> - <y_i, w_i'> ).

    This bilinear form is conserved between a controlled trajectory and an
    adjoint trajectory; it is the bracket in which transposition solutions
    are defined.
    """
    n = n_modes
    return float(
        y[2 * n : 3 * n] @ w[0:n]
        - y[0:n] @ w[2 * n : 3 * n]
        + y[3 * n : 4 * n] @ w[n : 2 * n]
        - y[n : 2 * n] @ w[3 * n : 4 * n]
    )


# ---------------------------------------------------------------------------
# coupling and observation operators


@dataclass(frozen=True, eq=False)
class CouplingOperator:
    """Multiplication coupling c >= 0 with partial coercivity data.

    ``matrix`` is the eigenbasis matrix of multiplication by c; ``alpha`` the
    infimum of c over the closure of the core region (coercivity constant);
    ``beta`` the sup norm (operator norm bound).  The sharp indicator of the
    core region provides the localisation projection used in coercivity
    checks.
    """

    function: CoefficientFunction
    space: SpectralSpace
    matrix: np.ndarray = field(init=False)
    alpha: float = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self):
        if self.function.core_region is None:
            raise ValidationError("coupling function must declare a core region")
        object.__setattr__(self, "matrix", assemble_multiplication_matrix(self.function, self.space))
        object.__setattr__(self, "alpha", self.function.infimum_on_core)
        object.__setattr__(self, "beta", self.function.sup_norm)
        if self.alpha <= 0.0:
            raise ValidationError("coupling must be strictly positive on its core region")
        if self.beta < self.alpha:
            raise ValidationError("sup norm smaller than core infimum; inconsistent coefficient data")

    @property
    def core_region(self) -> tuple[float, float]:
        return self.function.core_region

    @cached_property
    def projection_matrix(self) -> np.ndarray:
        """Quadratic form of the sharp indicator of the core region."""
        return assemble_multiplication_matrix(IndicatorFunction(*self.core_region), self.space)

    def quadratic_bound_slack(self, w: np.ndarray) -> float:
        """Positive part of |C w|^2 - beta <C w, w> (zero in exact arithmetic)."""
        cw = self.matrix @ w
        return max(0.0, float(cw @ cw - self.beta * (cw @ w)))

    def coercivity_slack(self, w: np.ndarray) -> float:
        """Positive part of alpha |Pi w|^2 - <C w, w> (zero in exact arithmetic)."""
        pi_quad = float(w @ (self.projection_matrix @ w))
        return max(0.0, self.alpha * pi_quad - float(w @ (self.matrix @ w)))


@dataclass(frozen=True, eq=False)
class Observer:
    """Observation operator acting on the driven component.

    * ``interior``: pointwise weight b >= 0, observation b * u2' (velocity
      field), localized on the weight's core region.
    * ``boundary``: weighted outward normal derivative of the position trace
      at the active endpoints.
    """

    kind: str
    weight: CoefficientFunction | None = None
    b_left: float = 0.0
    b_right: float = 0.0

    def __post_init__(self):
        if self.kind == "interior":
            if self.weight is None:
                raise ValidationError("interior observer needs a weight function")
        elif self.kind == "boundary":
            if not (np.isfinite(self.b_left) and np.isfinite(self.b_right)):
                raise ValidationError("boundary weights must be finite")
            if self.b_left < 0 or self.b_right < 0:
                raise ValidationError("boundary weights must be nonnegative")
            if self.b_left == 0 and self.b_right == 0:
                raise ValidationError("boundary observer needs at least one active endpoint")
        else:
            raise ValidationError(f"unknown observer kind {self.kind!r}")

    @property
    def region(self):
        if self.kind == "interior":
            return self.weight.core_region
        return tuple(side for side, b in (("left", self.b_left), ("right", self.b_right)) if b > 0)

    def observation_rows(self, space: SpectralSpace) -> np.ndarray:
        """Modal representation of the observation map (rows act on one component).

        Interior: the N x N multiplication matrix of the weight (observation
        of a field, plain dot product as the observation inner product).
        Boundary: one row per active endpoint, weight times the normal
        derivative functional.
        """
        if self.kind == "interior":
            return assemble_multiplication_matrix(self.weight, space)
        left, right = space.boundary_trace_vectors()
        rows = []
        if self.b_left > 0:
            rows.append(self.b_left * left)
        if self.b_right > 0:
            rows.append(self.b_right * right)
        return np.vstack(rows)


# ---------------------------------------------------------------------------
# time grid


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with composite Simpson node weights.

    The node and half-step times and weights are built once per grid and
    shared by every caller, so they are read-only.  ``validate_for`` is the
    package's one grid rule: every consumer of a grid and a space refuses a
    step with dt * sqrt(lambda_N) > ``MAX_STEP_PHASE``.
    """

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValidationError(f"horizon must be positive and finite, got {self.horizon}")
        if self.n_steps < 2 or self.n_steps % 2 != 0:
            raise ValidationError("n_steps must be an even integer >= 2 (composite Simpson in time)")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @cached_property
    def times(self) -> np.ndarray:
        return _read_only(np.linspace(0.0, self.horizon, self.n_steps + 1))

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Simpson weights on the step nodes."""
        return _read_only(simpson_weights(self.n_steps, self.horizon))

    @cached_property
    def fine_times(self) -> np.ndarray:
        """Half-step grid (2 n_steps + 1 nodes)."""
        return _read_only(np.linspace(0.0, self.horizon, 2 * self.n_steps + 1))

    @cached_property
    def fine_weights(self) -> np.ndarray:
        """Simpson weights on the half-step grid."""
        return _read_only(simpson_weights(2 * self.n_steps, self.horizon))

    def validate_for(self, space: SpectralSpace) -> None:
        phase = self.dt * space.frequencies[-1]
        if phase > MAX_STEP_PHASE:
            raise ValidationError(
                f"time step resolves the fastest mode poorly (dt*sqrt(lambda_N) = {phase:.3f} > "
                f"{MAX_STEP_PHASE}); raise n_steps or lower step_phase"
            )

    @staticmethod
    def for_space(space: SpectralSpace, horizon: float, step_phase: float = 0.4) -> "TimeGrid":
        """Smallest even step count keeping dt * sqrt(lambda_N) <= step_phase."""
        if not (np.isfinite(step_phase) and step_phase > 0):
            raise ValidationError(f"step_phase must be positive and finite, got {step_phase}")
        steps = horizon * space.frequencies[-1] / step_phase
        if not np.isfinite(steps):
            raise ValidationError(f"horizon {horizon} and step_phase {step_phase} give no finite step count")
        n = int(np.ceil(steps))
        n += n % 2
        return TimeGrid(horizon, max(n, 2))


# ---------------------------------------------------------------------------
# one-step propagators


def free_flow(space: SpectralSpace, t):
    """Exact free rotation blocks (cos wt, sin wt / w, -w sin wt) at time(s) t.

    Each block has shape ``np.shape(t) + (N,)``.  With blocks (c, s, m), a
    free component moves from (p, v) to (c p + s v, m p + c v).
    """
    om = space.frequencies
    phase = np.multiply.outer(t, om)
    sin = np.sin(phase)
    return np.cos(phase), sin / om, -om * sin


def _component_indices(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Slots of the free (u1, u1') and the driven (u2, u2') component in a stacked 4N state."""
    n = n_modes
    return np.r_[0:n, 2 * n : 3 * n], np.r_[n : 2 * n, 3 * n : 4 * n]


def cascade_step_matrix(
    space: SpectralSpace,
    coupling_matrix: np.ndarray | None,
    dt: float,
) -> np.ndarray:
    """Dense one-step propagator over dt for the triangular pair.

    Evolves (u1 free, u2'' + A u2 + M u1 = 0), ``coupling_matrix`` the
    matrix M multiplying the free component's position (``hum`` derives the
    controlled stepper, with the roles swapped, from this one by duality).

    The free motion is the exact rotation; the coupling contribution is the
    Simpson kick (``simpson_kick_weights``) of the free source, evaluated in
    closed form at the sub-nodes {0, dt/2, dt}.
    """
    c, s, m = (np.diag(np.tile(block, 2)) for block in free_flow(space, dt))
    P = np.block([[c, s], [m, c]])
    if coupling_matrix is not None:
        source, target = _component_indices(space.n_modes)
        # the Simpson kick of the source's free flow, nudged through the coupling
        taus, kernel_pos, kernel_vel = simpson_kick_weights(space, dt)
        kernels = np.hstack([kernel_pos, kernel_vel])
        sources = np.hstack(free_flow(space, taus)[:2])
        P[np.ix_(target, source)] -= np.tile(coupling_matrix, (2, 2)) * (kernels.T @ sources)
    return P


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True, eq=False)
class CascadeTrajectory:
    """Node states of one cascade evolution, shape (n_steps + 1, 4N)."""

    space: SpectralSpace
    grid: TimeGrid
    states: np.ndarray

    def state(self, k: int) -> CascadeState:
        return CascadeState.from_vector(self.states[k], self.space)

    @property
    def final_state(self) -> CascadeState:
        return self.state(self.grid.n_steps)

    def block(self, which: str) -> np.ndarray:
        """Node history of one block; which in {'u1','u2','v1','v2'}."""
        n = self.space.n_modes
        offset = {"u1": 0, "u2": n, "v1": 2 * n, "v2": 3 * n}[which]
        return self.states[:, offset : offset + n]

    def energy_series(self, component: int, k: int) -> np.ndarray:
        """Level-k energy of component 1 or 2 at every node."""
        lam = self.space.eigenvalues
        pos = self.block("u1" if component == 1 else "u2")
        vel = self.block("v1" if component == 1 else "v2")
        return 0.5 * ((pos**2 * lam**k).sum(axis=1) + (vel**2 * lam ** (k - 1)).sum(axis=1))


def march(step: np.ndarray, states: np.ndarray) -> np.ndarray:
    """March x_{k+1} = step x_k + b_{k+1} in place over the rows of ``states``.

    On entry row 0 holds the initial state x_0 and row k >= 1 the increment
    b_k injected at node k; on return row k holds x_k.  A reversed view
    (``states[::-1]``) marches from the last row back to the first.  A row
    is a state vector (one matrix-vector product per step) or a (d, k)
    block of k states side by side (one matrix-matrix product per step).
    """
    for current, following in zip(states[:-1], states[1:]):
        following += np.dot(step, current)
    return states


def march_driven(driven_t: np.ndarray, kick_t: np.ndarray, flow, free: np.ndarray, states: np.ndarray) -> np.ndarray:
    """March only the driven block of a cascade step whose free component rotates exactly, in place.

    The step takes a free state f and a driven state x, as rows, to
    (f R^T, x driven_t + f kick_t), with R the exact per-mode rotation.
    ``free`` (shape (..., 2N)) is f_0, and ``flow`` holds the blocks (c, s, m)
    of R^r for every row r of ``states`` (shape (len(states), N) each:
    ``free_flow`` at the elapsed times, its sine terms negated for a reflected
    step).  So every free state f_r = (c_r p + s_r v, m_r p + c_r v) is closed
    form, every kick f_r kick_t comes from one matrix product with that table,
    and only x_{r+1} = x_r driven_t + f_r kick_t is marched, step by step as
    in ``march``.  On entry row 0 of ``states`` (shape (rows, ..., 2N),
    C-contiguous) holds x_0; on return row r holds x_r.  A row is one state
    or a (k, 2N) block of k states, one per row of ``free``.  Returns the
    free table f_r, shaped as ``states``.
    """
    n = free.shape[-1] // 2
    c, s, m = (block.reshape((len(block),) + (1,) * (free.ndim - 1) + (n,)) for block in flow)
    table = np.empty(states.shape)
    pos, vel = table[..., :n], table[..., n:]
    np.multiply(c, free[..., :n], out=pos)
    pos += s * free[..., n:]
    np.multiply(m, free[..., :n], out=vel)
    vel += c * free[..., n:]
    # row r + 1 is injected with the kick of f_r: one product for every row at once
    kicks = np.reshape(states[1:], (-1, 2 * n), copy=False)
    np.dot(np.reshape(table[:-1], (-1, 2 * n), copy=False), kick_t, out=kicks)
    for current, following in zip(states[:-1], states[1:]):
        following += np.dot(current, driven_t)
    return table


def _aligned(array: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of ``array`` whose data start on a 64-byte boundary.

    A step marched thousands of times runs measurably slower in BLAS gemv
    when its data start 16 or 48 bytes past a cache line, and numpy's
    allocator guarantees only 16; an aligned copy makes the speed of
    ``march`` independent of where the allocator put the step.
    """
    buffer = np.empty(array.nbytes + 64, dtype=np.uint8)
    start = -buffer.ctypes.data % 64
    out = buffer[start : start + array.nbytes].view(array.dtype).reshape(array.shape)
    out[...] = array
    return out


def reversed_step(step: np.ndarray, n_modes: int) -> np.ndarray:
    """R step R with R negating velocities: the exact inverse of a reversible step."""
    out = step.copy()
    out[2 * n_modes :, :] *= -1.0
    out[:, 2 * n_modes :] *= -1.0
    return out


def evolve_cascade(
    initial: CascadeState,
    coupling: CouplingOperator | None,
    grid: TimeGrid,
) -> CascadeTrajectory:
    """Evolve the cascade forward over the grid from data at t = 0."""
    space = initial.space
    grid.validate_for(space)
    P = cascade_step_matrix(space, None if coupling is None else coupling.matrix, grid.dt)
    states = np.zeros((grid.n_steps + 1, 4 * space.n_modes))
    states[0] = initial.as_vector()
    return CascadeTrajectory(space, grid, march(P, states))


def evolve_cascade_backward(
    final: CascadeState,
    coupling: CouplingOperator | None,
    grid: TimeGrid,
) -> CascadeTrajectory:
    """Solve the cascade with data prescribed at t = T.

    Marches the velocity-conjugated step back from the final node; the
    stepper is exactly reversible under this conjugation, so
    forward/backward round trips are exact.
    """
    space = final.space
    grid.validate_for(space)
    P = cascade_step_matrix(space, None if coupling is None else coupling.matrix, grid.dt)
    states = np.zeros((grid.n_steps + 1, 4 * space.n_modes))
    states[-1] = final.as_vector()
    march(reversed_step(P, space.n_modes), states[::-1])
    return CascadeTrajectory(space, grid, states)


def simpson_kick_weights(space: SpectralSpace, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-node offsets and kernels of the Simpson kicks of a forced wave.

    Over the step from t to t + dt, w'' + A w = f gains the kick
    b = sum_j f(t + tau_j) * (pos_j, vel_j): the Simpson quadrature of the
    Duhamel integral at the sub-nodes tau_j = {0, dt/2, dt}.  Returns the
    offsets tau (3,) and the weighted kernels pos, vel (3, N); callers add
    the step start times (``grid.times[:-1, None] + tau``).
    """
    taus = np.array([0.0, 0.5 * dt, dt])
    quad = np.array([dt / 6.0, 4.0 * dt / 6.0, dt / 6.0])[:, None]
    kernel_vel, kernel_pos = free_flow(space, dt - taus)[:2]
    return taus, quad * kernel_pos, quad * kernel_vel


def _sample_forcing(forcing, times: np.ndarray, n_modes: int, name: str = "forcing") -> np.ndarray:
    """One call of ``forcing`` on the column ``times[..., None]``, broadcast to ``times.shape + (N,)``."""
    values = np.asarray(forcing(times[..., None]), dtype=float)
    try:
        return np.broadcast_to(values, times.shape + (n_modes,))
    except ValueError:
        message = f"{name}(t) of shape {values.shape} does not broadcast to {n_modes} modes per time"
        raise ValidationError(message) from None


def forced_flow(flow, states: np.ndarray) -> np.ndarray:
    """Closed form of x_k = R x_{k-1} + b_k for the exact free rotation R, in place.

    ``flow`` holds the ``free_flow`` blocks (c, s, m) at the nodes t_0..t_M
    of a uniform grid, so that R^k is the rotation by t_k.  As for
    ``march``, on entry row 0 of ``states`` (shape (M + 1, 2N)) holds the
    initial state x_0 and row k >= 1 the kick b_k; on return row k holds
    x_k.  In the rotating frame the recursion is a prefix sum,

        x_k = R^k (x_0 + sum_{j <= k} R^{-j} b_j),

    with R^{-j} the blocks at t_j with their sine terms negated: each kick
    is turned back by its node's rotation in place, all are summed by one
    prefix sum, and R^k turns the sums forward.
    """
    c, s, m = flow
    n = c.shape[1]
    pos, vel = states[:, :n], states[:, n:]
    turned = m * pos
    pos *= c
    pos -= s * vel
    vel *= c
    vel -= turned
    np.cumsum(states, axis=0, out=states)
    pos[:], vel[:] = c * pos + s * vel, m * pos + c * vel
    return states


def evolve_forced_scalar(
    initial: ComponentState,
    forcing,
    grid: TimeGrid,
) -> np.ndarray:
    """Evolve one forced wave component w'' + A w = f(t).

    ``forcing(t)`` returns the modal coefficients of f; it is called once, on
    the column of all Simpson sub-node times (shape (n_steps, 3, 1)), and its
    result is broadcast to (n_steps, 3, N) (``_sample_forcing``).  Each step
    rotates exactly and adds its Simpson kick (``simpson_kick_weights``);
    ``forced_flow`` sums these steps in closed form.  Returns node states of
    shape (n_steps + 1, 2N).
    """
    space = initial.space
    grid.validate_for(space)
    n = space.n_modes
    taus, kernel_pos, kernel_vel = simpson_kick_weights(space, grid.dt)
    samples = _sample_forcing(forcing, grid.times[:-1, None] + taus, n)
    states = np.empty((grid.n_steps + 1, 2 * n))
    states[0] = initial.as_vector()
    states[1:, :n] = np.einsum("kjn,jn->kn", samples, kernel_pos)
    states[1:, n:] = np.einsum("kjn,jn->kn", samples, kernel_vel)
    return forced_flow(free_flow(space, grid.times), states)
