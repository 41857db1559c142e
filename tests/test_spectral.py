"""Tests for the sine eigenbasis layer.

Derived expectations are computed by an independent dense trapezoid
quadrature oracle (one million panels) rather than by the code under test.
"""

import numpy as np
import pytest

from wavecascade.errors import ValidationError
from wavecascade.spectral import (
    CoefficientFunction,
    IndicatorFunction,
    ModalCoefficients,
    PlateauBump,
    SpectralSpace,
    apply_fractional_power,
    assemble_multiplication_matrix,
    project,
    sobolev_norm,
)

RNG = np.random.default_rng(20240811)


def trapezoid_oracle_projection(f, n_modes, n_panels=1_000_000):
    """Reference c_j = integral f phi_j via dense trapezoid quadrature."""
    x = np.linspace(0.0, 1.0, n_panels + 1)
    fx = f(x)
    out = np.empty(n_modes)
    for j in range(1, n_modes + 1):
        out[j - 1] = np.trapezoid(fx * np.sqrt(2.0) * np.sin(j * np.pi * x), x)
    return out


def trapezoid_oracle_matrix(f, n_modes, n_panels=1_000_000):
    """Reference C_jk = integral f phi_j phi_k via dense trapezoid quadrature."""
    x = np.linspace(0.0, 1.0, n_panels + 1)
    phi = np.sqrt(2.0) * np.sin(np.outer(x, np.arange(1, n_modes + 1) * np.pi))
    w = np.full(n_panels + 1, 1.0 / n_panels)
    w[0] *= 0.5
    w[-1] *= 0.5
    return phi.T @ (phi * (w * f(x))[:, None])


class TestSpectralSpace:
    def test_eigenvalues_increasing_and_first_is_pi_squared(self):
        space = SpectralSpace(12)
        lam = space.eigenvalues
        assert np.all(np.diff(lam) > 0)
        assert lam[0] == pytest.approx(np.pi**2, rel=1e-15)

    def test_gram_matrix_is_identity(self):
        space = SpectralSpace(16)
        phi = space.basis_matrix()
        gram = phi.T @ (phi * space.weights[:, None])
        assert np.max(np.abs(gram - np.eye(16))) < 1e-10

    def test_rejects_coarse_quadrature(self):
        with pytest.raises(ValidationError):
            SpectralSpace(16, quadrature_panels=64)


class TestProject:
    def test_eigenfunction_projects_to_unit_vector(self):
        space = SpectralSpace(8)
        for j in (1, 3, 8):
            c = project(space.unit_mode(j).evaluate, space).coeffs
            expected = np.zeros(8)
            expected[j - 1] = 1.0
            assert np.max(np.abs(c - expected)) < 1e-10

    def test_zero_function(self):
        space = SpectralSpace(8)
        c = project(lambda x: np.zeros_like(x), space).coeffs
        assert np.all(c == 0.0)

    def test_plateau_bump_matches_trapezoid_oracle(self):
        bump = PlateauBump(0.2, 0.3, margin=0.05, height=1.0)
        space = SpectralSpace(8, quadrature_panels=32768)
        got = project(bump, space).coeffs
        want = trapezoid_oracle_projection(bump, 8)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_rejects_non_finite_samples(self):
        space = SpectralSpace(4)
        samples = np.zeros_like(space.nodes)
        samples[3] = np.nan
        with pytest.raises(ValidationError):
            project(samples, space)


class TestFractionalPowers:
    def test_zero_power_is_identity(self):
        space = SpectralSpace(6)
        u = ModalCoefficients(RNG.standard_normal(6), space)
        assert np.array_equal(apply_fractional_power(u, 0.0).coeffs, u.coeffs)

    def test_first_mode_full_power(self):
        space = SpectralSpace(6)
        v = apply_fractional_power(space.unit_mode(1), 1.0)
        assert v.coeffs[0] == pytest.approx(np.pi**2, rel=1e-14)

    def test_round_trip(self):
        space = SpectralSpace(6)
        u = ModalCoefficients(RNG.standard_normal(6), space)
        w = apply_fractional_power(apply_fractional_power(u, 1.0), -1.0)
        assert np.max(np.abs(w.coeffs - u.coeffs)) < 1e-12

    def test_group_law(self):
        space = SpectralSpace(10)
        u = ModalCoefficients(RNG.standard_normal(10), space)
        for s, t in [(0.5, 0.5), (-1.0, 2.0), (1.5, -0.5)]:
            left = apply_fractional_power(apply_fractional_power(u, s), t).coeffs
            right = apply_fractional_power(u, s + t).coeffs
            assert np.max(np.abs(left - right)) < 1e-12 * max(1.0, np.max(np.abs(right)))


class TestSobolevNorm:
    def test_single_mode_levels(self):
        space = SpectralSpace(4)
        u = space.unit_mode(1)
        assert sobolev_norm(u, 0) == pytest.approx(1.0, rel=1e-14)
        assert sobolev_norm(u, 1) == pytest.approx(np.pi, rel=1e-14)

    def test_two_mode_negative_level(self):
        # sqrt(1/pi^2 + 1/(2 pi)^2) evaluated from the definition
        space = SpectralSpace(4)
        u = ModalCoefficients(np.array([1.0, 1.0, 0.0, 0.0]), space)
        expected = np.sqrt(1.0 / np.pi**2 + 1.0 / (4.0 * np.pi**2))
        assert sobolev_norm(u, -1) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.35588, abs=5e-6)

    def test_parseval_against_quadrature(self):
        space = SpectralSpace(12)
        c = RNG.standard_normal(12)
        u = ModalCoefficients(c, space)
        samples = u.evaluate(space.nodes)
        quad = float(np.sum(space.weights * samples**2))
        assert quad == pytest.approx(sobolev_norm(u, 0) ** 2, rel=1e-8)


class TestMultiplicationMatrix:
    def test_zero_function(self):
        space = SpectralSpace(6)
        mat = assemble_multiplication_matrix(lambda x: np.zeros_like(x), space)
        assert np.all(mat == 0.0)

    def test_constant_one_gives_identity(self):
        space = SpectralSpace(10)
        mat = assemble_multiplication_matrix(lambda x: np.ones_like(x), space)
        assert np.max(np.abs(mat - np.eye(10))) < 1e-10

    def test_plateau_bump_matches_trapezoid_oracle(self):
        bump = PlateauBump(0.2, 0.3, margin=0.05, height=1.0)
        space = SpectralSpace(8, quadrature_panels=32768)
        got = assemble_multiplication_matrix(bump, space)
        want = trapezoid_oracle_matrix(bump, 8)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_nonnegative_function_gives_psd_matrix(self):
        bump = PlateauBump(0.4, 0.6, margin=0.1, height=2.0)
        space = SpectralSpace(16)
        mat = assemble_multiplication_matrix(bump, space)
        eigs = np.linalg.eigvalsh(mat)
        assert eigs.min() > -1e-10
        assert np.max(np.abs(mat - mat.T)) == 0.0

    def test_disjoint_supports_residual_decays_under_refinement(self):
        # In the continuum M_f proj(g) = 0 for disjoint supports; in truncation
        # the residual decays with N.  The sine tails oscillate, so the decay
        # factor is measured as a geometric mean over the refinement sweep.
        f = PlateauBump(0.1, 0.2, margin=0.05, height=1.0)
        g = PlateauBump(0.6, 0.7, margin=0.05, height=1.0)
        levels = (16, 32, 64, 128, 256)
        residuals = []
        for n in levels:
            space = SpectralSpace(n)
            mat = assemble_multiplication_matrix(f, space)
            gc = project(g, space).coeffs
            residuals.append(np.linalg.norm(mat @ gc))
        doublings = len(levels) - 1
        mean_factor = (residuals[0] / residuals[-1]) ** (1.0 / doublings)
        assert mean_factor >= 2.0
        assert residuals[-1] < residuals[0]


class TestPlateauBump:
    @pytest.mark.parametrize("margin, height, name", [(float("nan"), 1.0, "margin"), (0.05, float("inf"), "height")])
    def test_rejects_non_finite_margin_or_height(self, margin, height, name):
        with pytest.raises(ValidationError, match=name):
            PlateauBump(0.2, 0.3, margin, height)

    def test_margin_below_float_spacing_keeps_full_height_on_plateau(self):
        bump = PlateauBump(0.2, 0.3, 5e-324, 2.0)
        assert bump(np.array([0.2, 0.25, 0.3])).tolist() == [2.0, 2.0, 2.0]
        assert bump(np.array([0.1, 0.4])).tolist() == [0.0, 0.0]
        assert CoefficientFunction((bump,), core_region=(0.2, 0.3)).infimum_on_core == 2.0


class TestCoefficientFunction:
    def test_core_region_positivity_enforced(self):
        bump = PlateauBump(0.2, 0.3, margin=0.05, height=1.0)
        cf = CoefficientFunction((bump,), core_region=(0.2, 0.3))
        assert cf.infimum_on_core == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            CoefficientFunction((bump,), core_region=(0.5, 0.6))

    def test_indicator_is_flagged_non_smooth(self):
        ind = IndicatorFunction(0.2, 0.3)
        assert not ind.smooth
        smooth = CoefficientFunction((PlateauBump(0.2, 0.3, 0.05),), core_region=(0.2, 0.3))
        assert smooth.smooth

    def test_values_and_support(self):
        cf = CoefficientFunction((PlateauBump(0.2, 0.3, 0.05, height=2.0),))
        assert cf(np.array([0.25]))[0] == pytest.approx(2.0)
        assert cf(np.array([0.05]))[0] == 0.0
        lo, hi = cf.support
        assert lo == pytest.approx(0.15) and hi == pytest.approx(0.35)
        assert cf.sup_norm == pytest.approx(2.0)
