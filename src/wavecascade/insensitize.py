"""Insensitizing controls for the scalar wave equation.

A control insensitizes the weighted quadratic observation

    Phi = 1/2 integral_0^T integral_Omega  c y^2

when the derivatives of Phi with respect to the amplitudes of unknown
initial-data perturbations vanish at zero.  This is equivalent to steering
the first component of an associated cascade system (the state driven by
c times the controlled solution) to rest, which reduces the construction to
an exact-control solve: the controlled equation carries the known data and
the source, the cascade coupling weight is the observation weight c, and
the control acts through the weight b (interior) or the boundary.

The verification is double: analytic sensitivity pairings against free
waves, and finite differences of Phi under re-simulation with the same
control.  Both run through the same discrete model, in which the analytic
pairing is the exact derivative of the discrete functional.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import RefusalError, ValidationError
from .spectral import CoefficientFunction, ModalCoefficients, SpectralSpace, assemble_multiplication_matrix
from .dynamics import CascadeState, CouplingOperator, Observer, TimeGrid, free_flow
from .observability import gcc_min_time
from .hum import (
    HUMProblem,
    TimeSampledControl,
    control_space_norms,
    controlled_forward,
    solve_hum,
)
from .hum import _workspace

__all__ = [
    "InsensitizeProblem",
    "InsensitizeCertificate",
    "PerturbationRecord",
    "ConverseReport",
    "phi_functional",
    "fine_second_positions",
    "trajectory_phi",
    "sensitivity_derivatives",
    "insensitize",
    "verify_converse",
]


@dataclass(frozen=True, eq=False)
class InsensitizeProblem:
    """Data of one insensitizing-control construction.

    ``known_position``/``known_velocity`` are the known initial data of the
    controlled wave; the perturbations enter the same slots with small
    amplitudes.  ``observation_weight`` is the nonnegative weight of Phi
    (its core region is the observation set); the control is either an
    interior weight or boundary endpoint weights.
    """

    known_position: ModalCoefficients
    known_velocity: ModalCoefficients
    observation_weight: CoefficientFunction
    horizon: float
    control_kind: str = "interior"
    control_weight: CoefficientFunction | None = None
    b_left: float = 0.0
    b_right: float = 0.0
    source: object = None
    n_steps: int | None = None
    cg_tolerance: float = 1e-10
    max_iterations: int = 2000
    observability_floor: float = 1e-8
    perturbation_count: int = 10
    fd_steps: tuple[float, float] = (1e-3, 1e-4)
    seed: int = 0

    def __post_init__(self):
        if self.known_position.space is not self.known_velocity.space:
            raise ValidationError("known data must share one spectral space")
        if self.control_kind == "interior" and self.control_weight is None:
            raise ValidationError("interior control needs a weight function")
        if self.control_kind not in ("interior", "boundary"):
            raise ValidationError("control_kind must be 'interior' or 'boundary'")

    @property
    def space(self) -> SpectralSpace:
        return self.known_position.space

    @property
    def grid(self) -> TimeGrid:
        if self.n_steps is not None:
            return TimeGrid(self.horizon, self.n_steps)
        return TimeGrid.for_space(self.space, self.horizon, 0.4)

    @property
    def observation_region(self):
        return self.observation_weight.core_region

    @property
    def control_region(self):
        if self.control_kind == "interior":
            return self.control_weight.core_region
        return tuple(
            side for side, b in (("left", self.b_left), ("right", self.b_right)) if b > 0
        )

    def observer(self) -> Observer:
        if self.control_kind == "interior":
            return Observer("interior", weight=self.control_weight)
        return Observer("boundary", b_left=self.b_left, b_right=self.b_right)

    def coupling(self) -> CouplingOperator | None:
        if self.observation_weight.core_region is None:
            return None  # vanishing observation weight: nothing to insensitize
        return CouplingOperator(self.observation_weight, self.space)

    def hum_problem(self) -> HUMProblem:
        space = self.space
        initial = CascadeState(space.zero(), self.known_position, space.zero(), self.known_velocity)
        return HUMProblem(
            self.control_kind,
            initial,
            self.coupling(),
            self.observer(),
            self.grid,
            source=self.source,
            cg_tolerance=self.cg_tolerance,
            max_iterations=self.max_iterations,
            observability_floor=self.observability_floor,
        )

    def perturbation_spaces(self) -> tuple[int, int]:
        """Sobolev orders of the (position, velocity) perturbation slots."""
        return (1, 0) if self.control_kind == "interior" else (0, -1)


@dataclass(frozen=True)
class PerturbationRecord:
    index: int
    dphi_tau0_analytic: float
    dphi_tau0_fd: float
    dphi_tau1_analytic: float
    dphi_tau1_fd: float
    derivative_scale: float = 1.0  # Cauchy-Schwarz bound on either derivative


@dataclass(eq=False)
class InsensitizeCertificate:
    """Everything needed to judge the constructed control.

    Relative quantities are measured against the total initial data norm in
    the case's space (terminal entries) and against the baseline value of
    Phi (derivative entries).  ``fd_agreement`` is the worst relative gap
    between analytic and Richardson-extrapolated central differences, with
    the relative floor 1e-6 * phi_baseline guarding the insensitized regime
    where both derivatives vanish.
    """

    phi_baseline: float
    terminal: dict
    initial_norm: float
    records: list
    robustness_exponent: float
    cg_iterations: int
    final_residual: float
    fd_resolution: float = 0.0

    @property
    def max_terminal_relative(self) -> float:
        scale = max(self.initial_norm, 1e-300)
        return max(v for k, v in self.terminal.items() if k != "total") / scale

    @property
    def max_derivative_relative(self) -> float:
        scale = max(self.phi_baseline, 1e-300)
        worst = 0.0
        for r in self.records:
            worst = max(worst, abs(r.dphi_tau0_analytic), abs(r.dphi_tau1_analytic))
        return worst / scale

    @property
    def fd_agreement(self) -> float:
        """Worst relative gap between analytic and central-difference values.

        Derivatives below the finite-difference resolution (the roundoff of
        differencing the re-simulated functional at the smallest step) are
        indistinguishable from zero and count as agreeing exactly.
        """
        worst = 0.0
        for r in self.records:
            for a, f in (
                (r.dphi_tau0_analytic, r.dphi_tau0_fd),
                (r.dphi_tau1_analytic, r.dphi_tau1_fd),
            ):
                if max(abs(a), abs(f)) <= self.fd_resolution:
                    continue
                worst = max(worst, abs(a - f) / max(abs(a), abs(f)))
        return worst


@dataclass(frozen=True)
class ConverseReport:
    derivatives_vanish: bool
    terminal_nulls: bool
    max_derivative_relative: float
    terminal_relative: float

    @property
    def directions_agree(self) -> bool:
        return self.derivatives_vanish == self.terminal_nulls


# ---------------------------------------------------------------------------
# the observation functional


def phi_functional(y2_positions: np.ndarray, weight_matrix: np.ndarray, weights: np.ndarray) -> float:
    """One half of the weighted time-space quadrature of y^2.

    ``y2_positions`` holds modal position vectors at the quadrature times
    (one row per node), ``weight_matrix`` the multiplication matrix of the
    observation weight, ``weights`` the time-quadrature weights.
    """
    quad = np.einsum("ki,ij,kj->k", y2_positions, weight_matrix, y2_positions)
    return 0.5 * float(weights @ quad)


def fine_second_positions(states: np.ndarray, space: SpectralSpace, grid: TimeGrid) -> np.ndarray:
    """Positions of the controlled component on the half-step grid.

    Between nodes the controlled component moves freely (injections act at
    nodes and kick only velocities), so half-node positions follow from the
    exact half-step rotation of the node states.
    """
    n = space.n_modes
    c, s = free_flow(space, 0.5 * grid.dt)[:2]
    pos = states[:, n : 2 * n]
    vel = states[:, 3 * n : 4 * n]
    fine = np.empty((2 * grid.n_steps + 1, n))
    fine[0::2] = pos
    fine[1::2] = c * pos[:-1] + s * vel[:-1]
    return fine


def trajectory_phi(problem: InsensitizeProblem, states: np.ndarray) -> float:
    """Phi of a controlled trajectory (fine half-step quadrature)."""
    weight_matrix = assemble_multiplication_matrix(problem.observation_weight, problem.space)
    fine = fine_second_positions(states, problem.space, problem.grid)
    return phi_functional(fine, weight_matrix, problem.grid.fine_weights)


# ---------------------------------------------------------------------------
# sensitivities


def sensitivity_derivatives(
    problem: InsensitizeProblem,
    control: TimeSampledControl | None,
    z0: np.ndarray,
    z1: np.ndarray,
    _hum=None,
    _states=None,
) -> tuple[float, float]:
    """Derivatives of Phi with respect to the two perturbation amplitudes.

    Solves the controlled equation once (any candidate control), the two
    free sensitivity waves (position data z0, velocity data z1), and returns
    the weighted pairings of c times the solution against each wave.
    """
    hum = _hum or problem.hum_problem()
    states = controlled_forward(hum, control) if _states is None else _states
    per_position, per_velocity = _modal_derivatives(problem, states)
    return float(per_position @ np.asarray(z0, dtype=float)), float(per_velocity @ np.asarray(z1, dtype=float))


def _modal_derivatives(problem: InsensitizeProblem, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of Phi along each unit modal perturbation of the two slots.

    The sensitivity wave of mode j is cos(w_j t) (position data) or
    sin(w_j t) / w_j (velocity data), so the derivatives are the column sums
    of the weighted controlled positions against those trig blocks.
    """
    space = problem.space
    grid = problem.grid
    weight_matrix = assemble_multiplication_matrix(problem.observation_weight, space)
    fine = fine_second_positions(states, space, grid)
    weighted = (grid.fine_weights[:, None] * fine) @ weight_matrix
    cos_t, sin_t = free_flow(space, grid.fine_times)[:2]
    return (weighted * cos_t).sum(axis=0), (weighted * sin_t).sum(axis=0)


def _unit_perturbations(problem: InsensitizeProblem, count: int, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random perturbation pairs, unit-normalized in their slots' spaces."""
    lam = problem.space.eigenvalues
    k_pos, k_vel = problem.perturbation_spaces()
    out = []
    for _ in range(count):
        z0 = rng.standard_normal(problem.space.n_modes)
        z1 = rng.standard_normal(problem.space.n_modes)
        z0 /= np.sqrt(np.sum(lam**k_pos * z0**2))
        z1 /= np.sqrt(np.sum(lam**k_vel * z1**2))
        out.append((z0, z1))
    return out


def _perturbed_phi(problem, hum, control, ws, z0, z1, tau0, tau1) -> float:
    """Phi re-simulated with perturbed known data; ``ws`` is the workspace of ``hum``."""
    space = problem.space
    perturbed = CascadeState(
        space.zero(),
        ModalCoefficients(problem.known_position.coeffs + tau0 * z0, space),
        space.zero(),
        ModalCoefficients(problem.known_velocity.coeffs + tau1 * z1, space),
    )
    return trajectory_phi(problem, controlled_forward(replace(hum, initial_data=perturbed), control, ws))


def _fd_derivatives(problem, hum, control, z0, z1) -> tuple[float, float]:
    """Central differences of Phi, Richardson-extrapolated over two steps."""
    h1, h2 = problem.fd_steps
    ws = _workspace(hum)

    def central(tau_index, h):
        taus = [0.0, 0.0]
        taus[tau_index] = h
        up = _perturbed_phi(problem, hum, control, ws, z0, z1, *taus)
        taus[tau_index] = -h
        down = _perturbed_phi(problem, hum, control, ws, z0, z1, *taus)
        return (up - down) / (2.0 * h)

    out = []
    for idx in (0, 1):
        d1 = central(idx, h1)
        d2 = central(idx, h2)
        out.append((h1**2 * d2 - h2**2 * d1) / (h1**2 - h2**2))
    return tuple(out)


# ---------------------------------------------------------------------------
# the construction


def insensitize(problem: InsensitizeProblem):
    """Build the insensitizing null control and its certificate.

    Refuses when either geometric region fails its control-time check for
    the given horizon; the underlying exact-control solve additionally
    enforces the Gramian observability floor.  The certificate carries the
    terminal norms of both cascade components, the analytic and finite
    difference sensitivity derivatives over the perturbation pool, and the
    quadratic-robustness exponent of Phi.
    """
    checks = []
    if problem.observation_region is not None:
        checks.append(("observation region", problem.observation_region))
    region = problem.control_region
    if problem.control_kind == "interior" or region:
        checks.append(("control region", region))
    for label, reg in checks:
        minimal = gcc_min_time(reg)
        if problem.horizon <= minimal:
            raise RefusalError(
                f"{label} fails the geometric control time check",
                {"region": reg, "minimal_horizon": minimal, "horizon": problem.horizon},
            )

    hum = problem.hum_problem()
    solution = solve_hum(hum)
    control = solution.control
    states = solution.trajectory
    phi0 = trajectory_phi(problem, states)

    rng = np.random.default_rng(problem.seed)
    weight_matrix = assemble_multiplication_matrix(problem.observation_weight, problem.space)
    records = []
    cos_t, sin_t = free_flow(problem.space, problem.grid.fine_times)[:2]
    per_position, per_velocity = _modal_derivatives(problem, states)
    for i, (z0, z1) in enumerate(_unit_perturbations(problem, problem.perturbation_count, rng)):
        a0, a1 = float(per_position @ z0), float(per_velocity @ z1)
        f0, f1 = _fd_derivatives(problem, hum, control, z0, z1)
        wave_phi = max(
            phi_functional(cos_t * z0, weight_matrix, problem.grid.fine_weights),
            phi_functional(sin_t * z1, weight_matrix, problem.grid.fine_weights),
        )
        scale = 2.0 * np.sqrt(max(phi0, 0.0) * max(wave_phi, 0.0))
        records.append(PerturbationRecord(i, a0, f0, a1, f1, derivative_scale=scale))

    z0, z1 = _unit_perturbations(problem, 1, rng)[0]
    taus = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    deltas = []
    ws = _workspace(hum)
    for tau in taus:
        deltas.append(abs(_perturbed_phi(problem, hum, control, ws, z0, z1, tau, tau) - phi0))
    deltas = np.array(deltas)
    if np.all(deltas > 0):
        exponent = float(np.polyfit(np.log(taus), np.log(deltas), 1)[0])
    else:
        exponent = float("inf")  # perturbations invisible to Phi

    certificate = InsensitizeCertificate(
        phi_baseline=phi0,
        terminal=solution.terminal_norms,
        initial_norm=solution.initial_norm,
        records=records,
        robustness_exponent=exponent,
        cg_iterations=solution.cg_iterations,
        final_residual=solution.final_residual,
        fd_resolution=1e3 * np.finfo(float).eps * phi0 / min(problem.fd_steps),
    )
    return control, certificate


def verify_converse(
    problem: InsensitizeProblem,
    control: TimeSampledControl | None,
    derivative_tol: float = 1e-6,
    terminal_tol: float = 1e-6,
) -> ConverseReport:
    """Check the equivalence between vanishing sensitivities and cascade nulling.

    Evaluates the sensitivity derivatives over the spanning set of modal
    perturbations (every mode in each slot), reconstructs the cascade
    trajectory driven by the candidate control, and reports whether the two
    characterizations agree: all derivatives vanish relative to the scale of
    Phi exactly when the terminal data of the coupled component vanish
    relative to the trajectory scale.
    """
    hum = problem.hum_problem()
    states = controlled_forward(hum, control)
    space = problem.space
    n = space.n_modes
    lam = space.eigenvalues
    phi0 = trajectory_phi(problem, states)
    scale = max(phi0, 1e-300)
    k_pos, k_vel = problem.perturbation_spaces()

    # the spanning set: every mode in each slot, unit-normalized in the slot's space
    per_position, per_velocity = _modal_derivatives(problem, states)
    spanning = np.concatenate([per_position / np.sqrt(lam**k_pos), per_velocity / np.sqrt(lam**k_vel)])
    worst_rel = float(np.max(np.abs(spanning))) / scale

    orders = (2, 1) if problem.control_kind == "interior" else (1, 0)
    first_norm = lambda vec: float(
        np.sqrt(np.sum(lam ** orders[0] * vec[:n] ** 2) + np.sum(lam ** orders[1] * vec[2 * n : 3 * n] ** 2))
    )
    terminal_first = first_norm(states[-1])
    running = max(first_norm(s) for s in states)
    data_scale = control_space_norms(hum.initial_data.as_vector(), space, problem.control_kind)["total"]
    terminal_rel = terminal_first / max(running, data_scale, 1e-300)

    return ConverseReport(
        derivatives_vanish=worst_rel <= derivative_tol,
        terminal_nulls=terminal_rel <= terminal_tol,
        max_derivative_relative=worst_rel,
        terminal_relative=terminal_rel,
    )
