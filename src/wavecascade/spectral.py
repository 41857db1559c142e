"""Dirichlet sine eigenbasis of the unit interval.

Everything downstream represents scalar fields on (0, 1) by their
coefficients against the orthonormal eigenfunctions of the Dirichlet
Laplacian,

    phi_j(x) = sqrt(2) sin(j pi x),    lambda_j = (j pi)^2,  j = 1..N.

Fractional powers of the operator, Sobolev-scale norms and multiplication
operators are then diagonal or dense-but-exactly-assembled objects in this
basis.  The only approximations anywhere are modal truncation and the
composite quadrature rule configured on the space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "SpectralSpace",
    "ModalCoefficients",
    "PlateauBump",
    "CoefficientFunction",
    "IndicatorFunction",
    "project",
    "apply_fractional_power",
    "sobolev_norm",
    "assemble_multiplication_matrix",
]

SCAN_POINTS = 4001  # uniform samples behind the numerical infimum and sup norm of a coefficient function


def simpson_weights(n_panels: int, length: float) -> np.ndarray:
    """Composite Simpson weights on n_panels uniform panels (n_panels even).

    Returns the n_panels + 1 node weights for an interval of the given
    length; nodes are assumed equally spaced including both endpoints.
    """
    if n_panels % 2 != 0 or n_panels < 2:
        raise ValidationError(f"composite Simpson needs an even panel count >= 2, got {n_panels}")
    w = np.ones(n_panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (length / (3.0 * n_panels))


@dataclass(frozen=True)
class SpectralSpace:
    """Truncated Dirichlet sine basis with a composite quadrature rule.

    Parameters
    ----------
    n_modes:
        Number of retained eigenfunctions N.
    quadrature_panels:
        Panels M of the composite Simpson rule used for projections and
        multiplication-operator assembly.  Must satisfy M >= 8 N so the
        highest retained wavelength is sampled at >= 8 points; products of
        two basis functions are then integrated exactly (discrete sine
        orthogonality), and smooth coefficient functions to rule order.
    """

    n_modes: int
    quadrature_panels: int = 0  # 0 means the default 8 * n_modes

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValidationError("n_modes must be a positive integer")
        panels = self.quadrature_panels or 8 * self.n_modes
        if panels < 8 * self.n_modes:
            raise ValidationError(
                f"quadrature_panels={panels} too coarse for N={self.n_modes} (need >= {8 * self.n_modes})"
            )
        if panels % 2 != 0:
            raise ValidationError("quadrature_panels must be even (composite Simpson)")
        object.__setattr__(self, "quadrature_panels", panels)

    @property
    def mode_numbers(self) -> np.ndarray:
        return np.arange(1, self.n_modes + 1)

    @property
    def eigenvalues(self) -> np.ndarray:
        """lambda_j = (j pi)^2, strictly increasing, lambda_1 = pi^2."""
        return (self.mode_numbers * np.pi) ** 2

    @property
    def frequencies(self) -> np.ndarray:
        """omega_j = sqrt(lambda_j) = j pi."""
        return self.mode_numbers * np.pi

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.quadrature_panels + 1)

    @property
    def weights(self) -> np.ndarray:
        return simpson_weights(self.quadrature_panels, 1.0)

    def basis_matrix(self, x: np.ndarray | None = None) -> np.ndarray:
        """Eigenfunction samples, shape (len(x), N)."""
        if x is None:
            x = self.nodes
        return np.sqrt(2.0) * np.sin(np.outer(np.asarray(x, dtype=float), self.mode_numbers * np.pi))

    def evaluate(self, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Point values of the truncated expansion at x."""
        return self.basis_matrix(np.asarray(x, dtype=float)) @ np.asarray(coeffs, dtype=float)

    def zero(self) -> "ModalCoefficients":
        return ModalCoefficients(np.zeros(self.n_modes), self)

    def unit_mode(self, j: int) -> "ModalCoefficients":
        """Coefficient vector of the j-th eigenfunction (1-based)."""
        if not 1 <= j <= self.n_modes:
            raise ValidationError(f"mode index {j} outside 1..{self.n_modes}")
        c = np.zeros(self.n_modes)
        c[j - 1] = 1.0
        return ModalCoefficients(c, self)

    def boundary_trace_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward normal derivative functionals at both endpoints.

        For u = sum c_j phi_j:  du/dnu(0) = -u_x(0) = -sum c_j sqrt(2) j pi
        and du/dnu(1) = u_x(1) = sum c_j sqrt(2) j pi (-1)^j.
        """
        j = self.mode_numbers
        left = -np.sqrt(2.0) * j * np.pi
        right = np.sqrt(2.0) * j * np.pi * ((-1.0) ** j)
        return left, right


@dataclass(frozen=True, eq=False)
class ModalCoefficients:
    """A truncated expansion sum_j c_j phi_j on the unit interval."""

    coeffs: np.ndarray
    space: SpectralSpace

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.space.n_modes,):
            raise ValidationError(f"coefficient vector has shape {c.shape}, expected ({self.space.n_modes},)")
        if not np.all(np.isfinite(c)):
            raise ValidationError("coefficient vector contains non-finite entries")
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other: "ModalCoefficients") -> "ModalCoefficients":
        return ModalCoefficients(self.coeffs + other.coeffs, self.space)

    def __sub__(self, other: "ModalCoefficients") -> "ModalCoefficients":
        return ModalCoefficients(self.coeffs - other.coeffs, self.space)

    def __rmul__(self, scalar: float) -> "ModalCoefficients":
        return ModalCoefficients(float(scalar) * self.coeffs, self.space)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.space.evaluate(self.coeffs, x)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Cubic smoothstep 3t^2 - 2t^3 clipped to [0, 1]; C^1 with Lipschitz slope."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True)
class PlateauBump:
    """One C^1 plateau bump: height h on [lo, hi], smoothstep margins of width m."""

    plateau_lo: float
    plateau_hi: float
    margin: float
    height: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.plateau_lo < self.plateau_hi <= 1.0):
            raise ValidationError(f"plateau [{self.plateau_lo}, {self.plateau_hi}] not inside (0, 1)")
        for name in ("margin", "height"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.margin < 0:
            raise ValidationError("margin must be nonnegative")
        if self.height < 0:
            raise ValidationError("height must be nonnegative (coefficients are nonnegative)")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        m = self.margin
        inside = (x >= self.plateau_lo) & (x <= self.plateau_hi)
        if m == 0.0:
            return self.height * inside.astype(float)
        # a margin below the float spacing at the plateau ends rounds lo - m
        # to lo and overflows the ramps (clipped to 1); the plateau is clamped
        # so its endpoints keep the full height
        with np.errstate(over="ignore"):
            up = _smoothstep((x - (self.plateau_lo - m)) / m)
            down = _smoothstep(((self.plateau_hi + m) - x) / m)
        return self.height * np.where(inside, 1.0, np.minimum(up, down))

    @property
    def support(self) -> tuple[float, float]:
        return (max(0.0, self.plateau_lo - self.margin), min(1.0, self.plateau_hi + self.margin))


@dataclass(frozen=True)
class CoefficientFunction:
    """Nonnegative W^{1,inf} coefficient function built from plateau bumps.

    The function is the sum of its pieces.  ``core_region`` declares the open
    interval on whose closure the function must be strictly positive (the
    localisation region of a coupling or observation weight); the constructor
    verifies this and records the infimum there and the sup norm.
    """

    pieces: tuple[PlateauBump, ...]
    core_region: tuple[float, float] | None = None

    def __post_init__(self):
        if isinstance(self.pieces, PlateauBump):
            object.__setattr__(self, "pieces", (self.pieces,))
        else:
            object.__setattr__(self, "pieces", tuple(self.pieces))
        if self.core_region is not None:
            a, b = self.core_region
            if not (0.0 <= a < b <= 1.0):
                raise ValidationError(f"core region [{a}, {b}] not inside (0, 1)")
            if self.infimum_on_core <= 0.0:
                raise ValidationError(
                    f"coefficient function is not strictly positive on the closure of {self.core_region}"
                )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for p in self.pieces:
            out = out + p(x)
        return out

    @property
    def smooth(self) -> bool:
        """False when any piece has a zero margin (a sharp indicator piece)."""
        return all(p.margin > 0.0 for p in self.pieces)

    @property
    def support(self) -> tuple[float, float] | None:
        if not self.pieces:
            return None
        los, his = zip(*(p.support for p in self.pieces))
        return (min(los), max(his))

    @property
    def infimum_on_core(self) -> float:
        """Numerical infimum over the closure of the declared core region."""
        if self.core_region is None:
            return 0.0
        a, b = self.core_region
        grid = np.linspace(a, b, SCAN_POINTS)
        return float(np.min(self(grid)))

    @property
    def sup_norm(self) -> float:
        grid = np.linspace(0.0, 1.0, SCAN_POINTS)
        return float(np.max(self(grid)))


def IndicatorFunction(lo: float, hi: float) -> CoefficientFunction:
    """Sharp indicator of (lo, hi) as a zero-margin bump.

    Indicators are Lipschitz-violating and only meant for negative tests and
    for the localisation projection; ``smooth`` reports False on the result.
    """
    return CoefficientFunction((PlateauBump(lo, hi, 0.0, 1.0),), core_region=None)


def _node_samples(f, space: SpectralSpace) -> np.ndarray:
    """f on the quadrature nodes: a callable evaluated there, or given samples of the nodes' shape; finite."""
    if callable(f):
        samples = np.asarray(f(space.nodes), dtype=float)
    else:
        samples = np.asarray(f, dtype=float)
        if samples.shape != space.nodes.shape:
            raise ValidationError(
                f"sampled field has shape {samples.shape}, expected {space.nodes.shape} (quadrature nodes)"
            )
    if not np.all(np.isfinite(samples)):
        raise ValidationError("sampled field contains non-finite values")
    return samples


def project(f, space: SpectralSpace) -> ModalCoefficients:
    """Project a function (callable or node samples) onto the basis.

    Computes c_j = integral f phi_j by the space's composite Simpson rule.
    """
    coeffs = space.basis_matrix().T @ (space.weights * _node_samples(f, space))
    return ModalCoefficients(coeffs, space)


def apply_fractional_power(u: ModalCoefficients, s: float) -> ModalCoefficients:
    """Apply the operator power A^s, i.e. scale c_j by lambda_j^s.

    Negative s is allowed since all eigenvalues are positive.
    """
    return ModalCoefficients(u.coeffs * u.space.eigenvalues ** s, u.space)


def sobolev_norm(u: ModalCoefficients, k: float) -> float:
    """Scale-k norm sqrt(sum lambda_j^k c_j^2); k = 0 is the L^2 norm."""
    return float(np.sqrt(np.sum(u.space.eigenvalues ** k * u.coeffs**2)))


def assemble_multiplication_matrix(f, space: SpectralSpace) -> np.ndarray:
    """Matrix of multiplication by f in the eigenbasis.

    C_{jk} = integral f phi_j phi_k, evaluated with the space's rule.  The
    quadrature weights are positive, so for f >= 0 the assembled matrix is
    positive semidefinite by construction (it is Phi^T diag(w f) Phi).
    """
    phi = space.basis_matrix()
    mat = phi.T @ (phi * (space.weights * _node_samples(f, space))[:, None])
    return 0.5 * (mat + mat.T)
