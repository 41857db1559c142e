"""Observability laboratory for the cascade pair.

Provides the time-integrated observation form (the Gramian) as a dense
matrix under the production stepper, its extreme eigenvalues in the
observation metric by QR doubling of a square root, empirical observability
constants, the closed-form constant chain, the 1D billiard control time, and
an inequality-by-inequality audit of the two-level energy argument that
links the weak energy of the unobserved component to the observation of the
driven one.  The trajectory form, its matrix-free application, the
exponential-oracle Gramian and the control-time ray tracing are test
oracles, in ``tests/oracles.py``.

SciPy is used only for ``expm``, the one-step propagator of
``min_eigenvalue``'s square-root factor, and is imported inside that
function, so that simulate, hum, insensitize and audit runs never load it.
Every worst-case ratio and sharp constant is the top eigenvalue of a
symmetric-definite pencil, reduced with numpy alone by ``_top_whitened``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import RefusalError, ValidationError
from .spectral import SpectralSpace
from .dynamics import (
    CascadeTrajectory,
    CouplingOperator,
    Observer,
    TimeGrid,
    _component_indices,
    cascade_step_matrix,
    simpson_kick_weights,
    state_weights,
)

__all__ = [
    "ObservabilityConstants",
    "AuditRow",
    "observation_block_rows",
    "observation_history",
    "gramian_matrix",
    "weighted_gram",
    "norm_weights",
    "min_eigenvalue",
    "estimate_uniform_constants",
    "gcc_min_time",
    "empirical_horizon",
    "empirical_ratios",
    "inequality_chain_audit",
    "admissibility_constant",
    "random_cascade_states",
]

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


def _dense_generator(space: SpectralSpace, coupling: CouplingOperator | None) -> np.ndarray:
    n = space.n_modes
    lam = np.diag(space.eigenvalues)
    z = np.zeros((n, n))
    eye = np.eye(n)
    cmat = z if coupling is None else coupling.matrix
    return np.block([[z, z, eye, z], [z, z, z, eye], [-lam, z, z, z], [-cmat, -lam, z, z]])


# A cascade step in (free, driven) order is [[R, 0], [K, D]]: R and D rotate
# mode by mode, the kick K of the free state on the driven one is a dense
# 2N x 2N block.  Within each component the 2N slots run in mode order, with
# (position, velocity) within a mode, so R and D are (N, 2, 2) stacks of
# per-mode blocks and every product with them is a batched matmul.  A
# symmetric form, with any leading axes, is kept as its three blocks
# (free-free, free-driven, driven-driven).


def _mode_order(n_modes: int) -> np.ndarray:
    """The free, then the driven component's slots of a 4N state, each in mode order."""
    return np.concatenate([index.reshape(2, n_modes).T.ravel() for index in _component_indices(n_modes)])


def _cascade_blocks(step: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, K, D) of a 4N x 4N cascade step; any entry outside that pattern is a ValidationError."""
    n = step.shape[0] // 4
    order = _mode_order(n)
    # (component, mode, slot) of the row, then of the column
    split = step[np.ix_(order, order)].reshape(2, n, 2, 2, n, 2)
    modes = np.arange(n)
    kick = split[1, :, :, 0].reshape(2 * n, 2 * n).copy()
    blocks = split[0, modes, :, 0, modes], kick, split[1, modes, :, 1, modes]
    split[1, :, :, 0] = 0.0
    split[0, modes, :, 0, modes] = split[1, modes, :, 1, modes] = 0.0
    if np.any(split):
        raise ValidationError(
            "step has a nonzero entry outside the cascade pattern: in the free<-driven block "
            "or between two modes of one component"
        )
    return blocks


def _left(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """R @ x for an (N, 2, 2) stack R and x of 2N rows in mode order, with any leading axes."""
    return (r @ x.reshape(*x.shape[:-2], -1, 2, x.shape[-1])).reshape(x.shape)


def _right(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """x @ R, the transpose of R^T x^T."""
    return _left(r.mT, x.mT).mT


def _compose(p: tuple, q: tuple) -> tuple:
    """Blocks of the product p @ q of two cascade steps: no gemm.

    The per-mode blocks are kept and multiplied in np.longdouble: squared
    again and again, their rounding in double would double with each
    squaring and dominate the error of the whole doubling.
    """
    (rp, kp, dp), (rq, kq, dq) = p, q
    kick = _right(kp, rq.astype(float)) + _left(dp.astype(float), kq)
    return rp @ rq, kick, dp @ dq


def _congruence(p: tuple, form: tuple) -> tuple:
    """Blocks of p^T form p for a cascade step p and a symmetric form, in three 2N gemms.

    With form [[F, X], [X^T, G]]: free-free R^T F R + R^T X K + (R^T X K)^T
    + K^T G K, free-driven (R^T X + (G K)^T) D and driven-driven D^T G D.
    """
    r, k, d = (block.astype(float, copy=False) for block in p)
    ff, fd, dd = form
    r_t = r.mT
    gk = dd @ k
    cross = _left(r_t, fd @ k)
    return (
        _left(r_t, _right(ff, r)) + cross + cross.mT + k.T @ gk,
        _right(_left(r_t, fd) + gk.mT, d),
        _left(d.mT, _right(dd, d)),
    )


def _doubling(form: np.ndarray, step: np.ndarray, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """weighted_gram(form, step, grid) and step^M, M = grid.n_steps, from one doubling.

    The doubling of ``weighted_gram`` on the blocks of the cascade step: a
    congruence p^T A p costs three 2N gemms and batched per-mode 2 x 2
    matmuls, a power product only the batched matmuls.  The form enters
    symmetrized, which leaves the symmetrized sum unchanged.  A stack of
    forms, shape (..., 4N, 4N), is summed in the same loop, each form as in
    its own call, and gives a stack of Gramians; the power is one 4N x 4N
    matrix.  Both results are dense in the state order.
    """
    n = step.shape[0] // 4
    order = _mode_order(n)
    rotation, kick, driven = step = _cascade_blocks(step)
    exact = (rotation.astype(np.longdouble), kick, driven.astype(np.longdouble))
    form = (0.5 * (form + form.mT))[..., order[:, None], order]
    form = (form[..., : 2 * n, : 2 * n], form[..., : 2 * n, 2 * n :], form[..., 2 * n :, 2 * n :])
    square = _compose(exact, exact)
    acc, power = form, square  # U_1 and A^1
    for bit in bin(grid.n_steps // 2)[3:]:
        acc = tuple(map(np.add, acc, _congruence(power, acc)))
        power = _compose(power, power)
        if bit == "1":
            acc = tuple(map(np.add, form, _congruence(square, acc)))
            power = _compose(power, square)
    h3 = grid.dt / 3.0
    inner, ends = _congruence(step, acc), _congruence(power, form)
    ff, fd, dd = (h3 * (4.0 * i + 2.0 * a - f + e) for i, a, f, e in zip(inner, acc, form, ends))
    gram = np.block([[0.5 * (ff + ff.mT), fd], [fd.mT, 0.5 * (dd + dd.mT)]])
    rotation, kick, driven = power
    dense = np.zeros((2, n, 2, 2, n, 2))
    modes = np.arange(n)
    dense[0, modes, :, 0, modes] = rotation
    dense[1, :, :, 0] = kick.reshape(n, 2, n, 2)
    dense[1, modes, :, 1, modes] = driven
    back = np.argsort(order)  # from mode order back to the state order
    return gram[..., back[:, None], back], dense.reshape(4 * n, 4 * n)[back[:, None], back]


def weighted_gram(form: np.ndarray, step: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Composite-Simpson sum over the grid's nodes of w_m (step^m)^T form step^m.

    With form = rows^T rows for the observation rows and the one-step
    propagator this is the observability Gramian; by duality, with the
    adjoint rows and the backward propagator it is the control Gramian.

    The Simpson weights h/3 (1, 4, 2, ..., 4, 1) split the sum exactly: with
    U the sum over j < M/2 of (step^2j)^T form step^2j it is
    (h/3) (4 step^T U step + 2 U - form + (step^M)^T form step^M).  U and
    step^M come from one binary doubling over the bits of M/2 in the square
    A = step^2 (the squared Smith iteration): U_2n = U_n + (A^n)^T U_n A^n
    and U_n+1 = form + A^T U_n A.  The doubling runs on the blocks of the
    cascade step (``_doubling``): two per-mode rotations, as (N, 2, 2) stacks
    in batched matmuls, and one dense 2N x 2N kick, at O(N^3 log M) in 2N
    gemms.  A stack of forms, shape (..., 4N, 4N), gives the stack of their
    sums from one doubling.  A step with a nonzero entry outside that
    pattern is a ValidationError, not silently dropped.
    """
    return _doubling(form, step, grid)[0]


def gramian_matrix(
    coupling: CouplingOperator | None,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
) -> np.ndarray:
    """Dense 4N x 4N observability Gramian under the production stepper.

    weighted_gram of the form rows^T rows of the observation rows and the
    one-step propagator, on the grid's Simpson nodes.
    """
    grid.validate_for(space)
    step = cascade_step_matrix(space, None if coupling is None else coupling.matrix, grid.dt)
    rows = observation_block_rows(observer, space)
    return weighted_gram(rows.T @ rows, step, grid)


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
    """Extreme eigenvalues of the metric-scaled Gramian S G S = R^T R, with R and the step P."""

    min_eig: float
    max_eig: float
    block_min: dict  # minimal eigenvalue of the "u1" block
    factor: np.ndarray = field(repr=False)
    step: np.ndarray = field(repr=False)

    @property
    def contrast(self) -> float:
        return self.min_eig / self.max_eig if self.max_eig > 0 else 0.0


def _qr_r(*blocks: np.ndarray) -> np.ndarray:
    """Triangular R of the stacked blocks: R^T R is the sum of their Gram products."""
    return np.linalg.qr(np.vstack(blocks), mode="r")


def _scaled_gramian_factor(
    step: np.ndarray,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
) -> np.ndarray:
    """Triangular square root R of the metric-scaled Gramian: R^T R = S G S.

    S = diag(norm_weights)^(-1/2).  In the scaled coordinates Ps = S^-1 P S,
    P the one-step propagator ``step``, and Os = Obs S, weighted_gram's
    squared doubling runs on square roots: with A = Ps^2 and R_n^T R_n the
    sum over j < n of (A^j)^T Os^T Os A^j,
    R_2n = qr_r([R_n; R_n A^n]) and R_n+1 = qr_r([Os; R_n A]).  Simpson's
    split then stacks four factors, every weight positive, so nothing is
    subtracted: [sqrt(h/3) Os; sqrt(h/3) Os Ps^M; sqrt(4h/3) R_U Ps;
    sqrt(2h/3) R_V A], with M = 2L, R_V = R_(L-1) and R_U = R_L.  No block
    is taller than twice the 4N state.
    """
    scale = 1.0 / np.sqrt(norm_weights(space))
    step = step * scale / scale[:, None]
    obs = observation_block_rows(observer, space) * scale
    square = step @ step
    half = grid.n_steps // 2
    acc, power = np.zeros((0, obs.shape[1])), np.eye(obs.shape[1])  # R_0 and A^0
    if half > 1:
        acc, power = obs, square  # R_1 and A^1
        for bit in bin(half - 1)[3:]:
            acc = _qr_r(acc, acc @ power)
            power = power @ power
            if bit == "1":
                acc = _qr_r(obs, acc @ square)
                power = power @ square
    r_u = _qr_r(obs, acc @ square)
    h3 = grid.dt / 3.0
    return _qr_r(
        math.sqrt(h3) * obs,
        math.sqrt(h3) * (obs @ (power @ square)),
        math.sqrt(4.0 * h3) * (r_u @ step),
        math.sqrt(2.0 * h3) * (acc @ square),
    )


def min_eigenvalue(
    coupling: CouplingOperator | None,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
) -> EigenReport:
    """Smallest eigenvalue of the metric-scaled Gramian, with diagnostics.

    A stable positive eigenvalue under refinement certifies observability;
    collapse under refinement (or an exactly null block) certifies failure.
    One route serves every N and T: the Gramian is never assembled, so
    near-null directions are resolved far below the eigenvalue roundoff
    floor of the assembled matrix.  Its 4N-column triangular square root R
    (``_scaled_gramian_factor``) is built by QR doubling under the matrix
    exponential step, and the singular values of R and of its u1 columns
    give the full and u1-block spectra.  The report keeps R and the step.
    A coupling so large that R leaves the float range, or an observation
    weight so large that the top eigenvalue does, is a ValidationError.
    """
    from scipy.linalg import expm

    grid.validate_for(space)
    with np.errstate(over="ignore", invalid="ignore"):  # a factor out of the float range is refused next
        step = expm(grid.dt * _dense_generator(space, coupling))
        r = _scaled_gramian_factor(step, observer, grid, space)
    if not np.all(np.isfinite(r)):
        raise ValidationError("[coupling] is too large: the metric-scaled Gramian's square root leaves the float range")
    svals = _min_singular(r)
    with np.errstate(over="ignore"):  # a square out of the float range is refused next
        max_eig = float(svals[0] ** 2)
    if not np.isfinite(max_eig):
        raise ValidationError("[observer] is too large: the metric-scaled Gramian's top eigenvalue leaves the float range")
    free, _ = _component_indices(space.n_modes)
    return EigenReport(
        min_eig=float(svals[-1] ** 2),
        max_eig=max_eig,
        block_min={"u1": float(_min_singular(r[:, free])[-1] ** 2)},
        factor=r,
        step=step,
    )


# ---------------------------------------------------------------------------
# constants


@dataclass(frozen=True)
class ObservabilityConstants:
    """Constant chain of the two-level energy argument.

    alpha/beta are the coupling coercivity and sup-norm; gamma0 the uniform
    observability constant of the localized projection and eta0/alpha0 the
    source-observability pair of the observation operator
    (``estimate_uniform_constants`` gives all three); t0 the horizon from
    which the geometric inequalities are asserted.  c1..c4 are the chain
    constants obtained by walking the proof with Young parameter eta = T
    alpha / (4 gamma0); the derived quantities (a, b, nu, m_factor, t1..t3)
    follow by closed forms.  Inputs must be finite and positive, and a chain
    that leaves the float range is a ValidationError, so that no derived
    threshold is NaN or infinite.
    """

    alpha: float
    beta: float
    gamma0: float
    eta0: float
    alpha0: float
    t0: float
    c1: ClassVar[float] = 4.0
    c2: ClassVar[float] = 16.0
    c3: ClassVar[float] = 32.0
    c4: ClassVar[float] = 128.0
    a: float = field(init=False)
    b: float = field(init=False)
    nu: float = field(init=False)
    m_factor: float = field(init=False)
    t1: float = field(init=False)
    t2: float = field(init=False)
    t3: float = field(init=False)

    def __post_init__(self):
        # plain floats: their arithmetic overflows into an exception or inf,
        # never into a numpy RuntimeWarning
        inputs = ("alpha", "beta", "gamma0", "eta0", "alpha0", "t0")
        for name in inputs:
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and positive, got {value}")
            object.__setattr__(self, name, value)
        try:
            a = self.c3 * self.beta * self.gamma0 / (2.0 * self.alpha)
            b = self.c4 * self.beta**2 * self.gamma0**2 / (2.0 * self.alpha**2)
            root = math.sqrt(a * a + a + b)
            m_factor = root / ((2.0 * a + 1.0) * (a + root) + a + 2.0 * b)
            t1 = math.sqrt(2.0 * self.c4 * self.alpha0 * self.beta * self.gamma0) / self.alpha
            t2 = math.sqrt(2.0 * self.c3 * self.alpha0 * self.beta * self.gamma0) / math.sqrt(self.alpha * m_factor)
            derived = {"a": a, "b": b, "nu": a + root, "m_factor": m_factor, "t1": t1, "t2": t2}
            if not all(map(math.isfinite, derived.values())):
                raise OverflowError  # a product went infinite
        except ArithmeticError:  # or a power overflowed, or a square underflowed to 0
            at = ", ".join(f"{name} = {getattr(self, name):.4g}" for name in inputs)
            raise ValidationError(f"constant chain leaves the float range at {at}") from None
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "t3", max(self.t0, t1, t2))
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


# ---------------------------------------------------------------------------
# geometric control time (1D billiard)


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

ALPHA0_FLOOR = 1e-12  # estimate_uniform_constants' alpha0 when no forced sample sets it
FORCED_WAVES = 32  # forced waves over which estimate_uniform_constants samples alpha0


def random_cascade_states(space: SpectralSpace, count: int, seed: int) -> np.ndarray:
    """``count`` standard normal initial data from ``default_rng(seed)``, one 4N state vector per row."""
    return np.random.default_rng(seed).standard_normal((count, 4 * space.n_modes))


def _energy_metrics(space: SpectralSpace) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal metrics of the weak energy of u1 and the natural energy of u2."""
    weights = norm_weights(space)
    first = np.repeat([True, False, True, False], space.n_modes)  # u1 and its velocity
    return np.where(first, weights, 0.0), np.where(first, 0.0, weights)


def _simpson_trig_sums(theta: np.ndarray, intervals: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Simpson sums of cos(k theta) and sin(k theta) over k = 0..intervals, node spacing h.

    The weights (h/3)(1, 4, 2, ..., 4, 1) pair the terms into M = intervals/2
    geometric series in e^{2i theta}, so sum_k w_k e^{ik theta} = (h/3)
    (4 + 2 cos theta) e^{iM theta} sin(M theta) / sin theta (Davis &
    Rabinowitz, *Methods of Numerical Integration*, 1984), whose ratio is M
    at theta = 0.  On a grid ``validate_for`` admits, every caller's theta
    lies in (-pi/2, pi/2), where sin theta vanishes at 0 alone.  Evaluated
    in the precision of ``theta``.
    """
    half = intervals // 2
    sin = np.sin(theta)
    ratio = np.divide(np.sin(half * theta), sin, out=np.full_like(theta, half), where=sin != 0)
    amplitude = (h / 3) * (4 + 2 * np.cos(theta)) * ratio
    return amplitude * np.cos(half * theta), amplitude * np.sin(half * theta)


def _free_flow_gram(space: SpectralSpace, grid: TimeGrid, fine: bool = False, velocity: bool = False) -> np.ndarray:
    """Simpson-weighted Gram sum over the grid of B(t)^T B(t), B = [b0 | b1] the free flow's map from (p0, v0).

    The blocks are (cos wt, sin wt / w) for the position, or (-w sin wt,
    cos wt) for the velocity, ``velocity=True``, summed on the step nodes or,
    ``fine=True``, on the half-step grid.  With Q a form on one component,
    tile(Q, (2, 2)) * Gram is the (p0, v0) form of the weighted sum of its
    values along the free wave.  Every entry is a sum of cos or sin of
    (w_i +- w_j)t on a uniform grid, in closed form (``_simpson_trig_sums``):
    cos cos = (C(-) + C(+))/2, sin sin = (C(-) - C(+))/2 and sin_i cos_j =
    (S(+) + S(-))/2.  Work and memory are O(N^2), with no time table and no
    reduction over time, so the result does not depend on the BLAS thread
    count.  Its callers validate the grid, so every phase (w_i +- w_j) h is
    at most 2 dt w_N <= 1 in magnitude, below pi/2.
    """
    intervals = 2 * grid.n_steps if fine else grid.n_steps
    om = space.frequencies
    h = grid.horizon / intervals
    c_plus, s_plus = _simpson_trig_sums(np.add.outer(om, om) * h, intervals, h)
    c_minus, s_minus = _simpson_trig_sums(np.subtract.outer(om, om) * h, intervals, h)
    cos_cos, sin_sin, sin_cos = (c_minus + c_plus) / 2, (c_minus - c_plus) / 2, (s_plus + s_minus) / 2
    if velocity:
        gram = np.block([[np.outer(om, om) * sin_sin, -om[:, None] * sin_cos], [-sin_cos.T * om, cos_cos]])
    else:
        gram = np.block([[cos_cos, sin_cos.T / om], [sin_cos / om[:, None], sin_sin / np.outer(om, om)]])
    return gram


def _free_moment_form(quad: np.ndarray, position_gram: np.ndarray) -> np.ndarray:
    """Quadratic form of the half-step Simpson integral of u1(t)^T quad u1(t).

    The first component is free and known in closed form, u1(t) = cos(wt)
    u1(0) + sin(wt)/w v1(0), so the time moments reduce to its position Gram
    on the half-step grid, ``_free_flow_gram(space, grid, fine=True)``, a
    closed form with no time table, placed on the first component of the
    4N state.
    """
    n = quad.shape[0]
    free, _ = _component_indices(n)
    form = np.zeros((4 * n, 4 * n))
    form[np.ix_(free, free)] = np.tile(quad, (2, 2)) * position_gram
    return 0.5 * (form + form.T)


def empirical_ratios(
    report: EigenReport,
    coupling: CouplingOperator | None,
    grid: TimeGrid,
    space: SpectralSpace,
) -> dict:
    """Discrete worst-case observability and admissibility ratios.

    Every numerator is a quadratic form of the initial data, so the sharp
    constants on the truncated space are extreme generalized eigenvalues
    against the Gramian G of ``report`` (``min_eigenvalue``'s): d1_emp bounds
    the weak initial energy of the free component, d2_emp the natural
    initial energy of the driven one, k2_emp its integrated energy and
    r2_emp the integrated coupling form, each per unit of integrated squared
    observation.  With S = diag(norm_weights)^(-1/2) and the report's square
    root R^T R = S G S, the top eigenvalue of R^-T S F S R^-1 is the largest
    x^T F x / x^T G x.  The admissibility entry is the report's top
    eigenvalue of S G S.  A contrast at most 1e-12 is refused before R is
    inverted.
    """
    grid.validate_for(space)
    if report.contrast <= 1e-12:
        raise RefusalError(
            "Gramian is not coercive at this horizon; worst-case ratios are unbounded",
            {"min_eig": report.min_eig, "max_eig": report.max_eig},
        )
    whiten = np.linalg.inv(report.factor).T / np.sqrt(norm_weights(space))  # R^-T S
    weak_first, natural_second = _energy_metrics(space)
    if coupling is None:
        r2_emp = 0.0
    else:
        position_gram = _free_flow_gram(space, grid, fine=True)
        r2_emp = _top_whitened(_free_moment_form(coupling.matrix, position_gram), whiten)
    return {
        "d1_emp": _top_whitened(np.diag(weak_first), whiten),
        "d2_emp": _top_whitened(np.diag(natural_second), whiten),
        "k2_emp": _top_whitened(weighted_gram(np.diag(natural_second), report.step, grid), whiten),
        "r2_emp": r2_emp,
        "admissibility": report.max_eig,
    }


def admissibility_constant(
    coupling: CouplingOperator | None,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
) -> float:
    """Sharp constant of the direct (hidden regularity) inequality.

    The largest observation form (the solver Gramian) per unit of initial
    energy in the observation metric: the top eigenvalue of the
    metric-scaled Gramian.
    """
    return _top_whitened(gramian_matrix(coupling, observer, grid, space), np.diag(norm_weights(space) ** -0.5))


def _top_whitened(form: np.ndarray, whiten: np.ndarray) -> float:
    """Top eigenvalue of the pencil (form, B), whiten^-1 a factor of B: the largest x^T form x / x^T B x.

    It is that of whiten @ form @ whiten.T (Golub & Van Loan, *Matrix
    Computations*, 8.7): ``min_eigenvalue``'s square root, a Cholesky or a
    diagonal factor.
    """
    return float(np.linalg.eigvalsh(whiten @ form @ whiten.T)[-1])


def _forced_wave_integrals(
    rows: np.ndarray,
    observation: np.ndarray,
    velocity: bool,
    grid: TimeGrid,
    space: SpectralSpace,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node-integrated natural energy, squared observation and squared forcing of alpha0's forced waves.

    ``FORCED_WAVES`` waves are drawn from ``rng``, each wave's p0, v0, g
    (normalized), then freq, and driven by cos(f t) g, f = freq.  In a
    mode's amplitude z = w p + i v the exact rotation is z -> e^{-iw dt} z,
    and the Simpson kick of the profile e^{+-ift} is K+- e^{+-ift_{k-1}},
    K+- = (g/2) sum_j e^{+-if tau_j} (w pos_j + i vel_j) over the three
    sub-node kernels of ``simpson_kick_weights``.  Summed as a geometric
    series, the kicks give Q+- e^{+-ift_k}, Q+- = K+- / (e^{+-if dt} -
    e^{-iw dt}), which never resonates (f in [0.5, 3] lies below w_1 = pi,
    and (w + f) dt < 2 pi on the grid ``estimate_uniform_constants``
    validates), so the marched wave is exactly

        z_k = e^{-iw t_k} A + Q+ e^{ift_k} + Q- e^{-ift_k},  A = z0 - Q+ - Q-.

    E, O and F are then Simpson sums of exponentials, in closed form
    (``_simpson_trig_sums``): E = sum_k w_k |z_k|^2 / 2 is diagonal in the
    modes; the part of O from A alone is the free wave of (Re A / w, Im A)
    under ``observation``, the free observation form; the parts with Q go
    through the observation rows first, where the forced part of the
    observed field is Re(c e^{ift}), c = rows (d Q+) + conj(rows (d Q-)),
    and d = -i (velocity) or 1/w (position) reads the observed component
    as Re(d z).  Work and memory are O(N^2) per wave, with no time table.
    Each node's observed component is bounded entrywise by r = |d| (|A| +
    |Q+| + |Q-|), so its squared observation by r^T |rows^T rows| r.  A wave
    whose observation, or that bound, leaves the float range is a
    ValidationError naming ``[observer]``.  Returns the arrays (E, O, F),
    one entry per wave.
    """
    n, dt, horizon = space.n_modes, grid.dt, grid.horizon
    om = space.frequencies
    waves = []
    for _ in range(FORCED_WAVES):
        p0 = rng.standard_normal(n)
        v0 = rng.standard_normal(n)
        g = rng.standard_normal(n)
        g /= np.linalg.norm(g)
        waves.append((p0, v0, g, rng.uniform(0.5, 3.0)))
    p0, v0, g, freq = (np.array(column) for column in zip(*waves))
    f = freq[:, None]

    def simpson(nu: np.ndarray) -> np.ndarray:
        """sum_k w_k e^{i nu t_k} over the step nodes."""
        cos, sin = _simpson_trig_sums(nu * dt, grid.n_steps, dt)
        return cos + 1j * sin

    taus, kernel_pos, kernel_vel = simpson_kick_weights(space, dt)
    kicks = om * kernel_pos + 1j * kernel_vel  # each sub-node's kick amplitude per unit forcing
    # e^{+-if dt} - e^{-iw dt} = 2i sin((w +- f) dt/2) e^{i(+-f - w) dt/2}, free of cancellation
    q_plus, q_minus = (
        0.5 * g * (np.exp(1j * sign * f * taus) @ kicks)
        / (2j * np.sin(0.5 * (om + sign * f) * dt) * np.exp(0.5j * (sign * f - om) * dt))
        for sign in (1, -1)
    )
    a = om * p0 + 1j * v0 - q_plus - q_minus
    s_minus, s_plus, s_double = simpson(f - om), simpson(-(f + om)), simpson(2 * f)
    cross = a * q_plus.conj() * s_plus + a * q_minus.conj() * s_minus + q_plus * q_minus.conj() * s_double
    e1_int = 0.5 * ((abs(a) ** 2 + abs(q_plus) ** 2 + abs(q_minus) ** 2) * horizon + 2 * cross.real).sum(axis=1)

    read = -1j if velocity else 1 / om  # the observed component is Re(read z)
    c = (read * q_plus) @ rows.T + ((read * q_minus) @ rows.T).conj()
    free = np.hstack((a.real / om, a.imag))
    with np.errstate(over="ignore", invalid="ignore"):  # an observation out of the float range is refused next
        obs_int = (
            np.einsum("wi,ij,wj->w", free, observation, free)
            + (read * a * ((c @ rows) * s_minus + (c.conj() @ rows) * s_plus)).real.sum(axis=1)
            + 0.5 * ((abs(c) ** 2).sum(axis=1) * horizon + ((c * c).sum(axis=1) * s_double[:, 0]).real)
        )
        reach = abs(read) * (abs(a) + abs(q_plus) + abs(q_minus))  # bounds every node's |observed component|
        bound = np.einsum("wi,ij,wj->w", reach, abs(rows.T @ rows), reach)
    if not (np.all(np.isfinite(bound)) and np.all(np.isfinite(obs_int))):
        raise ValidationError("[observer] is too large: the observation of a forced wave leaves the float range")
    return e1_int, obs_int, 0.5 * (horizon + s_double[:, 0].real)


def estimate_uniform_constants(
    coupling: CouplingOperator,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
    seed: int = 0,
) -> tuple[float, float, float]:
    """The uniform constants (gamma0, eta0, alpha0): gamma0 and eta0 sharp, alpha0 sampled.

    gamma0 bounds the integrated natural energy of free solutions per unit
    of their localized projection (the sharp indicator of the coupling's
    core region), eta0 the same per unit of their observation: each is the
    top eigenvalue of the pencil (T E, F) over all free data (p0, v0), E
    their natural energy and F the closed-form Simpson moments of the free
    flow (``_free_flow_gram``) times the tiled projection, or observation,
    form, whitened by its Cholesky factor.  A free wave invisible to F makes
    it singular, which is refused.  alpha0 absorbs the source term of the
    observation inequality on forced solutions and is floored at 1e-12: the
    largest (E - eta0 O) / F over ``FORCED_WAVES`` forced waves from (p0,
    v0) under the forcing cos(freq t) g, with E, O and F the node-integrated
    natural energy, squared observation and squared forcing, drawn from
    ``default_rng(seed)``, each wave's p0, v0, g, then freq.  Each forced
    wave's three integrals are taken in closed form
    (``_forced_wave_integrals``), with no time table.  alpha0 is a
    heuristic, a maximum over a finite sample, to be inflated by the caller
    before use in proofs-by-audit.  An observation weight so large that the
    free moments, or a forced wave's observation or its bound on every
    node's squared observation, leave the float range is a ValidationError
    naming ``[observer]``.  An empty observation region, or a horizon at or
    below the billiard control time of either region, is refused.
    """
    grid.validate_for(space)
    if not observer.region:
        raise RefusalError("empty observation region", {"region": observer.region})
    for name, region in (("coupling", coupling.core_region), ("observation", observer.region)):
        t_min = gcc_min_time(region)
        if grid.horizon <= t_min:
            raise RefusalError(
                f"horizon below the geometric control time of the {name} region",
                {"region": region, "horizon": grid.horizon, "gcc_min_time": t_min},
            )

    n = space.n_modes
    rows = observer.observation_rows(space)
    energy = 0.5 * np.r_[space.eigenvalues, np.ones(n)]  # natural energy of (p0, v0)
    velocity_gram = _free_flow_gram(space, grid, velocity=True)
    observed_gram = velocity_gram if observer.kind == "interior" else _free_flow_gram(space, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # an observation out of the float range is refused next
        observation = np.tile(rows.T @ rows, (2, 2)) * observed_gram
    if not np.all(np.isfinite(observation)):
        raise ValidationError("[observer] is too large: the observation of a free wave leaves the float range")

    def sharp(name: str, moments: np.ndarray) -> float:
        """Top eigenvalue of the pencil (T E, moments)."""
        try:
            factor = np.linalg.cholesky(moments)
        except np.linalg.LinAlgError:
            raise RefusalError(f"a free wave is invisible to the {name}: its free-moment form is singular",
                               {"form": name}) from None
        return _top_whitened(np.diag(grid.horizon * energy), np.linalg.inv(factor))

    gamma0 = sharp("projection", np.tile(coupling.projection_matrix, (2, 2)) * velocity_gram)
    eta0 = sharp("observation", observation)

    e1_int, obs_int, f_int = _forced_wave_integrals(
        rows, observation, observer.kind == "interior", grid, space, np.random.default_rng(seed)
    )
    alpha0 = float(np.max((e1_int - eta0 * obs_int) / f_int))  # F >= the first node's weight > 0
    return gamma0, eta0, max(alpha0, ALPHA0_FLOOR)


# ---------------------------------------------------------------------------
# audit of the inequality chain


@dataclass(frozen=True, eq=False)
class AuditRow:
    """One functional of the chain with its sides on every sample, and each sample's scale of the tolerance."""

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    must_hold: bool
    scale: np.ndarray
    kind: str = "inequality"  # or "identity"

    @property
    @np.errstate(over="ignore")  # two finite sides of opposite signs may differ by more than the float range
    def margin(self) -> np.ndarray:
        return -abs(self.lhs - self.rhs) if self.kind == "identity" else self.rhs - self.lhs

    @property
    def satisfied(self) -> np.ndarray:
        if self.kind == "identity":
            return -self.margin <= 1e-6 * self.scale
        return self.lhs <= self.rhs + 1e-9 * self.scale


def _audit_forms(
    coupling: CouplingOperator,
    observer: Observer,
    grid: TimeGrid,
    space: SpectralSpace,
) -> dict[str, np.ndarray]:
    """Every functional of the audited chain as a 4N x 4N form of the initial data.

    The stepper's forms propagate with the one-step matrix: the node-weighted
    observation, driven energy and coupling work are one stack of forms in
    one ``_doubling``, whose M-th power of the step also carries the
    endpoint energy and pairing.  The coupling, coupling-squared and
    projection moments use the closed-form free flow of the first component.
    An observation weight so large that the solver Gramian leaves the float
    range is a ValidationError naming ``[observer]``.
    """
    grid.validate_for(space)
    n = space.n_modes
    step = cascade_step_matrix(space, coupling.matrix, grid.dt)
    rows = observation_block_rows(observer, space)
    weak_first, natural_second = _energy_metrics(space)
    position_gram = _free_flow_gram(space, grid, fine=True)
    # first-component pairing v1.u2 - v2.u1 of the duality identity
    eye = np.eye(n)
    pairing = np.zeros((4 * n, 4 * n))
    pairing[2 * n : 3 * n, n : 2 * n] = pairing[n : 2 * n, 2 * n : 3 * n] = 0.5 * eye
    pairing[3 * n :, :n] = pairing[:n, 3 * n :] = -0.5 * eye
    # coupling work (M u1).v2, the symmetrized cross form of the rows of M u1 and of v2
    work = np.zeros((4 * n, 4 * n))
    work[3 * n :, :n] = 0.5 * coupling.matrix
    work[:n, 3 * n :] = 0.5 * coupling.matrix.T
    # the solver Gramian, the integrated driven energy, the integrated work, and
    # the power that carries initial data to the final state
    forms = np.array([rows.T @ rows, np.diag(natural_second), work])
    with np.errstate(over="ignore", invalid="ignore"):  # a solver Gramian out of the float range is refused next
        (obs_int, e1_u2_int, balance_int), power = _doubling(forms, step, grid)
    if not np.all(np.isfinite(obs_int)):
        raise ValidationError("[observer] is too large: the audit's solver Gramian leaves the float range")
    return {
        "obs_int": obs_int,
        "e1_u2_0": np.diag(natural_second),
        "e1_u2_T": power.T @ (natural_second[:, None] * power),
        "e1_u2_int": e1_u2_int,
        "e0_u1_0": np.diag(weak_first),
        "coupling_int": _free_moment_form(coupling.matrix, position_gram),
        "coupling_sq_int": _free_moment_form(coupling.matrix.T @ coupling.matrix, position_gram),
        "proj_int": _free_moment_form(coupling.projection_matrix, position_gram),
        "boundary_term": power.T @ pairing @ power - pairing,
        "balance_int": balance_int,
    }


@np.errstate(over="ignore", invalid="ignore")  # a side that leaves the float range is refused below
def inequality_chain_audit(
    samples: np.ndarray,
    coupling: CouplingOperator,
    observer: Observer,
    constants: ObservabilityConstants,
    grid: TimeGrid,
    admissibility_inflation: float,
) -> list[AuditRow]:
    """Evaluate both sides of every inequality in the two-level chain.

    Every functional of the chain is a quadratic form of the initial data,
    built once and evaluated on the whole (samples, 4N) block of initial
    states on ``coupling.space``, into one ``AuditRow``.  Identities (the coupling
    duality identity and the driven energy balance) must hold at quadrature
    accuracy for any horizon; their two sides come from independently built
    forms (the closed-form free moment against the stepper's endpoint
    pairing, the stepper's endpoint energies against its node-weighted
    coupling work).  Inequalities carry must_hold flags derived from the
    horizon thresholds in ``constants``; rows beyond their threshold are
    reported with margins only.  ``admissibility_inflation`` times the
    sharp constant of the chain's own solver Gramian (``admissibility_constant``)
    bounds the direct inequality's row, which is always audited.  Constants so large that a side
    leaves the float range are a ValidationError naming the row.
    """
    space = coupling.space
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or not x.shape[0] or x.shape[1] != 4 * space.n_modes or not np.all(np.isfinite(x)):
        raise ValidationError(f"audit samples must be a finite, nonempty (samples, 4N) block, got shape {x.shape}")
    forms = _audit_forms(coupling, observer, grid, space)
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
    bound = admissibility_inflation * _top_whitened(forms["obs_int"], np.diag(norm_weights(space) ** -0.5))
    inequalities.append(("admissibility", obs_int, bound * (e0_u1_0 + e1_u2_0), True, scale))
    for name, lhs, rhs, *_ in identities + inequalities:
        if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
            raise ValidationError(f"audit row {name} leaves the float range")
    rows = [AuditRow(name, lhs, rhs, True, s, "identity") for name, lhs, rhs, s in identities]
    return rows + [AuditRow(*row) for row in inequalities]
