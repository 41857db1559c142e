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

Phi reads only the half-step positions of the controlled component, where
it is exactly quadratic, Phi(b) = 1/2 sum_k w_k b_k^T W b_k; its derivative
at b along a response a is the bilinear form Q(b, a) = sum_k w_k b_k^T W a_k
(Lions 1992; Bodart & Fabre 1995).  The verification is double: analytic
pairings of Q against the closed-form free waves, and one polarization,
(Phi(b + h a) - Phi(b - h a)) / 2h, exact for every h.  At h = sqrt(Phi(b) /
Phi(a)) its roundoff is about eps times the Cauchy-Schwarz bound
2 sqrt(Phi(b) Phi(a)) >= |Q(b, a)|, the one scale of every derivative
reported; the robustness exponent follows on it from Phi(b + tau a) =
Phi(b) + tau Q(b, a) + tau^2 Phi(a).  At the constructed control both
derivatives vanish on that scale, so the two sides are also compared at the
zero control, where the derivative is resolved.

The trajectory at data + tau z under a fixed control is the base trajectory
plus tau times the response to z alone, whose controlled component is the
free wave cos(w t) z0 + sin(w t) / w z1 (the cascade's first component never
feeds it), read off one half-step trig table per problem.  One response is
still marched through the controlled stepper, and its gap to the closed
form ties the two together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RefusalError, ValidationError
from .spectral import CoefficientFunction, ModalCoefficients, SpectralSpace, assemble_multiplication_matrix
from .dynamics import CascadeState, CouplingOperator, Observer, TimeGrid, _read_only, free_flow, march
from .observability import gcc_min_time
from .hum import (
    HUMProblem,
    TimeSampledControl,
    _squared_component_norms,
    controlled_forward,
    data_norm,
    solve_hum,
)

__all__ = [
    "InsensitizeProblem",
    "InsensitizeCertificate",
    "PerturbationRecord",
    "ConverseReport",
    "phi_functional",
    "fine_second_positions",
    "insensitize",
    "verify_converse",
]

CONVERSE_TOL = 1e-6  # relative bound of both converse characterizations


@dataclass(frozen=True, eq=False)
class InsensitizeProblem:
    """Data of one insensitizing-control construction.

    ``known_position``/``known_velocity`` are the known initial data of the
    controlled wave; the perturbations enter the same slots with small
    amplitudes.  ``observation_weight`` is the nonnegative weight of Phi
    (its core region is the observation set); ``grid`` the time grid, whose
    horizon is the control time; ``control_operator`` is the observer
    through which the control acts, an interior weight or boundary endpoint
    weights; its kind is the case (``hum.DATA_ORDERS``).  ``source`` is
    an optional forcing of the controlled equation with the contract of
    ``HUMProblem.source``: a callable t -> modal coefficients, called once
    on the column of grid times and broadcast to one vector per node.
    """

    known_position: ModalCoefficients
    known_velocity: ModalCoefficients
    observation_weight: CoefficientFunction
    grid: TimeGrid
    control_operator: Observer
    source: object = None  # callable t -> modal coefficients (broadcast per time), or None
    perturbation_count: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.known_position.space is not self.known_velocity.space:
            raise ValidationError("known data must share one spectral space")
        if self.perturbation_count < 1:  # an empty pool would certify vacuously
            raise ValidationError(f"perturbation_count must be at least 1, got {self.perturbation_count}")

    @property
    def space(self) -> SpectralSpace:
        return self.known_position.space

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Multiplication matrix of the observation weight, assembled once."""
        return assemble_multiplication_matrix(self.observation_weight, self.space)

    @cached_property
    def fine_flow(self) -> tuple[np.ndarray, np.ndarray]:
        """Free-wave blocks (cos w t, sin w t / w) on the half-step grid, built once.

        Each is (2 n_steps + 1, N) and read-only.  They are the sensitivity
        waves of the analytic derivatives and the controlled component of
        every perturbation response.
        """
        return tuple(_read_only(block) for block in free_flow(self.space, self.grid.fine_times)[:2])

    @property
    def observation_region(self):
        return self.observation_weight.core_region

    @cached_property
    def hum(self) -> HUMProblem:
        """The exact-control problem of the associated cascade, shared by every caller.

        Its coupling is the observation weight (none when that weight
        vanishes: there is nothing to insensitize) and its initial data the
        known data in the controlled component.
        """
        space = self.space
        initial = CascadeState(space.zero(), self.known_position, space.zero(), self.known_velocity)
        coupling = None if self.observation_region is None else CouplingOperator(self.observation_weight, space)
        return HUMProblem(initial, coupling, self.control_operator, self.grid, source=self.source)


@dataclass(frozen=True)
class PerturbationRecord:
    """Analytic and polarized derivatives in one perturbation's two slots, and their Cauchy-Schwarz scales."""

    index: int
    dphi_tau0_analytic: float
    dphi_tau0_polarized: float
    dphi_tau1_analytic: float
    dphi_tau1_polarized: float
    scale_tau0: float
    scale_tau1: float


@dataclass(eq=False)
class InsensitizeCertificate:
    """Everything needed to judge the constructed control.

    ``max_terminal_relative`` is the HUM solution's worst terminal
    component over the norm of the data that drive the terminal state
    (``hum.data_norm``), and every derivative is measured against its
    Cauchy-Schwarz scale (0 where that scale is 0).
    ``fd_reference`` holds the analytic and polarized derivatives along the
    robustness perturbation at the zero control, where Phi is not
    insensitized and the derivative is resolved, and their scale.
    ``response_stepper_gap`` is the relative gap between the marched and the
    closed-form fine positions of that perturbation's response; without a
    measurement it reads inf.  ``converse`` is ``verify_converse``'s report
    on the constructed control, read off the HUM trajectory.
    ``gramian_contrast`` is the HUM solve's metric-scaled eigenvalue contrast
    of the control Gramian (``HUMSolution.gramian_contrast``); without a
    solve it reads nan.
    """

    phi_baseline: float
    max_terminal_relative: float
    records: list
    robustness_exponent: float
    converse: ConverseReport
    fd_reference: tuple[float, float, float] = (0.0, 0.0, 0.0)
    response_stepper_gap: float = float("inf")
    gramian_contrast: float = float("nan")

    def _slots(self) -> list[tuple[float, float, float]]:
        """(analytic, polarized, scale) of both slots of every record."""
        return [(r.dphi_tau0_analytic, r.dphi_tau0_polarized, r.scale_tau0) for r in self.records] + [
            (r.dphi_tau1_analytic, r.dphi_tau1_polarized, r.scale_tau1) for r in self.records
        ]

    @property
    def max_derivative_relative(self) -> float:
        return max((abs(a) / scale for a, _, scale in self._slots() if scale > 0), default=0.0)

    @property
    def fd_agreement(self) -> float:
        """Worst gap between the analytic and the polarized derivatives, each on its scale."""
        return max((abs(a - f) / scale for a, f, scale in self._slots() if scale > 0), default=0.0)

    @property
    def fd_reference_agreement(self) -> float:
        """Relative gap between the two reference derivatives.

        A reference derivative within 1e3 eps of its scale (the roundoff of
        the polarization) or of scale 0 reads inf: the oracle has nothing to
        compare, so it must not pass.
        """
        a, f, scale = self.fd_reference
        size = max(abs(a), abs(f))
        resolved = scale > 0 and size > 1e3 * np.finfo(float).eps * scale
        return abs(a - f) / size if resolved else float("inf")


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
    quad = np.einsum("ki,ki->k", y2_positions @ weight_matrix, y2_positions)
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
    np.multiply(c, pos[:-1], out=fine[1::2])
    fine[1::2] += s * vel[:-1]
    return fine


def _fine_phi(problem: InsensitizeProblem, fine: np.ndarray) -> float:
    """Phi from the fine positions of a trajectory."""
    return phi_functional(fine, problem.weight_matrix, problem.grid.fine_weights)


# ---------------------------------------------------------------------------
# sensitivities


def _modal_derivatives(problem: InsensitizeProblem, fine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of Phi along each unit modal perturbation of the two slots.

    ``fine`` holds the controlled positions on the half-step grid.  The
    sensitivity wave of mode j is cos(w_j t) (position data) or
    sin(w_j t) / w_j (velocity data), so the derivatives are the column sums
    of the weighted controlled positions against those trig blocks
    (``InsensitizeProblem.fine_flow``).
    """
    weighted = (problem.grid.fine_weights[:, None] * fine) @ problem.weight_matrix
    cos_t, sin_t = problem.fine_flow
    return (weighted * cos_t).sum(axis=0), (weighted * sin_t).sum(axis=0)


def _perturbations(problem: InsensitizeProblem, count: int, rng) -> list[np.ndarray]:
    """Random perturbation pairs (z0, z1); every derivative is read on its own scale, so their size is immaterial."""
    return [rng.standard_normal((2, problem.space.n_modes)) for _ in range(count)]


def _response(hum: HUMProblem, z0: np.ndarray, z1: np.ndarray) -> np.ndarray:
    """Controlled states from the perturbation (z0, z1) alone: no control, no source.

    Its controlled component is the free wave of ``_free_response``; the
    certificate marches only the robustness direction, to measure the
    stepper against that closed form.
    """
    n = hum.space.n_modes
    states = np.zeros((hum.grid.n_steps + 1, 4 * n))
    states[0, n : 2 * n] = z0
    states[0, 3 * n :] = z1
    return march(hum.step_controlled, states)


def _free_response(problem: InsensitizeProblem, z0: np.ndarray, z1: np.ndarray) -> np.ndarray:
    """Fine positions of the response to (z0, z1) in closed form: cos(w t) z0 + sin(w t) / w z1.

    The controlled component of ``_response`` is a free wave, since the
    first component never feeds it; this is its half-step position table.
    """
    cos_f, sin_f = problem.fine_flow
    return cos_f * z0 + sin_f * z1


def _stepper_gap(problem: InsensitizeProblem, z0: np.ndarray, z1: np.ndarray, marched: np.ndarray) -> float:
    """max|marched - closed| / max|closed| between the marched and the closed-form fine response to (z0, z1).

    The closed form lives only here, so it is freed before the zero-control
    reference is formed, where the certificate's memory peaks.
    """
    closed = _free_response(problem, z0, z1)
    return float(np.max(np.abs(marched - closed))) / max(float(np.max(np.abs(closed))), 1e-300)


def _polarized(problem: InsensitizeProblem, base: np.ndarray, phi_base: float, response: np.ndarray):
    """Q(base, response) by one polarization, and its Cauchy-Schwarz scale 2 sqrt(Phi(base) Phi(response)).

    ``base`` and ``response`` are fine positions, ``phi_base`` the Phi of
    ``base``; h = sqrt(Phi(b) / Phi(a)) keeps the roundoff near eps times the
    scale.  A scale of 0 bounds Q by 0.
    """
    phi_response = _fine_phi(problem, response)
    scale = 2.0 * math.sqrt(phi_base * phi_response)
    if scale == 0.0:
        return 0.0, 0.0
    h = math.sqrt(phi_base / phi_response)
    step = h * response
    return (_fine_phi(problem, base + step) - _fine_phi(problem, base - step)) / (2.0 * h), scale


def _robustness_exponent(q: float) -> float:
    """Slope of log |Phi(b + tau h a) - Phi(b)| in log tau from tau = 1e-4 to 1e-1, h = sqrt(Phi(b) / Phi(a)).

    With q = Q(b, a) on its scale, the change is tau (2q + tau) Phi(b): the
    slope is 2 where Phi is insensitized along a (q = 0).  A change that
    vanishes, or a nan q, leaves it unresolved: nan, which fails.
    """
    taus = (1e-1, 1e-4)
    changes = [abs(tau * (2.0 * q + tau)) for tau in taus]
    if not changes[0] * changes[1] > 0:
        return float("nan")
    return math.log(changes[0] / changes[1]) / math.log(taus[0] / taus[1])


# ---------------------------------------------------------------------------
# the construction


def insensitize(problem: InsensitizeProblem):
    """Build the insensitizing null control and its certificate.

    Refuses when either geometric region fails its control-time check for
    the given horizon; the underlying exact-control solve additionally
    enforces the Gramian observability floor.  The certificate carries the
    terminal norms of both cascade components, the analytic and polarized
    sensitivity derivatives over the perturbation pool with their
    Cauchy-Schwarz scales, the quadratic-robustness exponent of Phi, the
    polarization oracle at the zero control along the robustness
    perturbation, the gap between that perturbation's marched response and
    its closed form, and the converse report of the constructed control.
    """
    checks = []
    if problem.observation_region is not None:
        checks.append(("observation region", problem.observation_region))
    checks.append(("control region", problem.control_operator.region))
    for label, reg in checks:
        minimal = gcc_min_time(reg)
        if problem.grid.horizon <= minimal:
            raise RefusalError(
                f"{label} fails the geometric control time check",
                {"region": reg, "minimal_horizon": minimal, "horizon": problem.grid.horizon},
            )

    hum = problem.hum
    solution = solve_hum(hum)
    control = solution.control
    space, grid = problem.space, problem.grid
    fine = fine_second_positions(solution.trajectory, space, grid)
    phi0 = _fine_phi(problem, fine)

    rng = np.random.default_rng(problem.seed)
    zero = np.zeros(space.n_modes)

    records = []
    per_position, per_velocity = _modal_derivatives(problem, fine)
    for i, (z0, z1) in enumerate(_perturbations(problem, problem.perturbation_count, rng)):
        f0, s0 = _polarized(problem, fine, phi0, _free_response(problem, z0, zero))
        f1, s1 = _polarized(problem, fine, phi0, _free_response(problem, zero, z1))
        records.append(PerturbationRecord(i, float(per_position @ z0), f0, float(per_velocity @ z1), f1, s0, s1))

    z0, z1 = _perturbations(problem, 1, rng)[0]
    along = fine_second_positions(_response(hum, z0, z1), space, grid)
    stepper_gap = _stepper_gap(problem, z0, z1, along)
    phi_along = _fine_phi(problem, along)
    if phi_along == 0.0:
        q = float("nan")  # a perturbation invisible to Phi leaves the exponent unresolved
    else:
        scale = 2.0 * math.sqrt(phi0 * phi_along)
        q = float(per_position @ z0 + per_velocity @ z1) / scale if scale > 0 else 0.0

    reference = fine_second_positions(controlled_forward(hum, None), space, grid)
    ref_pos, ref_vel = _modal_derivatives(problem, reference)
    ref_polarized, ref_scale = _polarized(problem, reference, _fine_phi(problem, reference), along)

    certificate = InsensitizeCertificate(
        phi_baseline=phi0,
        max_terminal_relative=solution.max_terminal_relative,
        records=records,
        robustness_exponent=_robustness_exponent(q),
        converse=_converse(problem, solution.trajectory, phi0, (per_position, per_velocity), solution.initial_norm),
        fd_reference=(float(ref_pos @ z0 + ref_vel @ z1), ref_polarized, ref_scale),
        response_stepper_gap=stepper_gap,
        gramian_contrast=solution.gramian_contrast,
    )
    return control, certificate


def _first_component_norms(states: np.ndarray, space: SpectralSpace, kind: str) -> np.ndarray:
    """Norm of the first cascade component (y1, y1') in every row of ``states``, in the data space of ``kind``."""
    squared = _squared_component_norms(states, space, kind)
    return np.sqrt(squared[..., 0] + squared[..., 2])


def _converse(problem: InsensitizeProblem, states: np.ndarray, phi0: float, derivatives, data_scale: float):
    """``ConverseReport`` of the controlled ``states`` from their Phi, modal derivatives and data norm.

    The spanning set is every mode in each slot.  A unit mode's response is
    cos(w_j t) e_j or sin(w_j t) / w_j e_j, whose Phi, 1/2 W_jj sum_k w_k
    cos^2(w_j t_k) or the same with the sine, gives its Cauchy-Schwarz scale.
    """
    weights = problem.grid.fine_weights
    diagonal = 0.5 * np.diag(problem.weight_matrix)
    scales = 2.0 * np.sqrt(phi0 * np.concatenate([diagonal * (weights @ block**2) for block in problem.fine_flow]))
    spanning = np.abs(np.concatenate(derivatives))
    worst_rel = float(np.max(np.divide(spanning, scales, out=np.zeros_like(spanning), where=scales > 0)))
    norms = _first_component_norms(states, problem.space, problem.control_operator.kind)
    terminal_rel = float(norms[-1]) / max(float(norms.max()), data_scale, 1e-300)
    return ConverseReport(worst_rel <= CONVERSE_TOL, terminal_rel <= CONVERSE_TOL, worst_rel, terminal_rel)


def verify_converse(problem: InsensitizeProblem, control: TimeSampledControl | None) -> ConverseReport:
    """Check the equivalence between vanishing sensitivities and cascade nulling.

    Reports whether the derivatives over every mode in each slot vanish on
    their Cauchy-Schwarz scales exactly when the first component's terminal
    data vanish relative to its trajectory and ``hum.data_norm``, both within
    ``CONVERSE_TOL``.  ``insensitize`` reads the same report off its own
    trajectory.
    """
    hum = problem.hum
    states = controlled_forward(hum, control)
    fine = fine_second_positions(states, problem.space, problem.grid)
    return _converse(problem, states, _fine_phi(problem, fine), _modal_derivatives(problem, fine), data_norm(hum))
