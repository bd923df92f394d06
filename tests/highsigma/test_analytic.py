"""Exactness tests for the analytic limit states.

Each closed form is checked against brute-force Monte Carlo at a sigma
level low enough for MC to resolve (2–2.5 sigma), plus structural
properties at high sigma where MC cannot reach.
"""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.highsigma.analytic import (
    HypersphereLimitState,
    LinearLimitState,
    QuadraticLimitState,
    SramSurrogateLimitState,
    UnionLimitState,
)

N_MC = 400_000
RNG = np.random.default_rng(2024)


def mc_pfail(ls, n=N_MC):
    u = RNG.standard_normal((n, ls.dim))
    return ls.fails_batch(u).mean()


class TestLinear:
    def test_exact_matches_mc(self):
        ls = LinearLimitState(beta=2.0, dim=5)
        assert mc_pfail(ls) == pytest.approx(ls.exact_pfail(), rel=0.05)

    def test_exact_value(self):
        from scipy import stats

        ls = LinearLimitState(beta=4.0, dim=3)
        assert ls.exact_pfail() == pytest.approx(stats.norm.sf(4.0))

    def test_dimension_invariance(self):
        assert LinearLimitState(3.0, 2).exact_pfail() == pytest.approx(
            LinearLimitState(3.0, 50).exact_pfail()
        )

    def test_custom_direction_normalised(self):
        ls = LinearLimitState(beta=2.0, dim=3, direction=[2.0, 0.0, 0.0])
        assert np.linalg.norm(ls.a) == pytest.approx(1.0)
        assert ls.fails(np.array([2.5, 0, 0]))

    def test_exact_gradient(self):
        ls = LinearLimitState(beta=2.0, dim=3)
        np.testing.assert_allclose(ls.gradient(np.zeros(3)), -ls.a)

    def test_invalid_beta(self):
        with pytest.raises(EstimationError):
            LinearLimitState(beta=-1.0, dim=2)


class TestHypersphere:
    def test_exact_matches_mc(self):
        ls = HypersphereLimitState(radius=3.0, dim=4)
        assert mc_pfail(ls) == pytest.approx(ls.exact_pfail(), rel=0.05)

    def test_radial_symmetry(self):
        ls = HypersphereLimitState(radius=2.0, dim=3)
        u = np.array([2.5, 0, 0])
        rot = np.array([0, 0, 2.5])
        assert ls.g(u) == pytest.approx(ls.g(rot))

    def test_probability_grows_with_dim(self):
        # At fixed radius, more dimensions put more mass outside.
        p3 = HypersphereLimitState(4.0, 3).exact_pfail()
        p12 = HypersphereLimitState(4.0, 12).exact_pfail()
        assert p12 > p3


class TestUnion:
    def test_exact_matches_mc(self):
        ls = UnionLimitState([2.0, 2.2], dim=4)
        assert mc_pfail(ls) == pytest.approx(ls.exact_pfail(), rel=0.05)

    def test_inclusion_exclusion(self):
        from scipy import stats

        ls = UnionLimitState([3.0, 3.0], dim=3)
        p1 = stats.norm.sf(3.0)
        assert ls.exact_pfail() == pytest.approx(2 * p1 - p1 * p1, rel=1e-9)

    def test_mpfp_points(self):
        ls = UnionLimitState([3.0, 4.0], dim=3)
        pts = ls.mpfp_points()
        assert pts.shape == (2, 3)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), [3.0, 4.0])

    def test_too_many_normals_rejected(self):
        with pytest.raises(EstimationError):
            UnionLimitState([2.0, 2.0, 2.0], dim=2)


class TestQuadratic:
    def test_exact_matches_mc(self):
        ls = QuadraticLimitState(beta=2.0, dim=4, kappa=0.2)
        assert mc_pfail(ls) == pytest.approx(ls.exact_pfail(), rel=0.05)

    def test_positive_curvature_below_form(self):
        from scipy import stats

        ls = QuadraticLimitState(beta=4.0, dim=8, kappa=0.3)
        assert ls.exact_pfail() < stats.norm.sf(4.0)

    def test_negative_curvature_above_form(self):
        from scipy import stats

        ls = QuadraticLimitState(beta=4.0, dim=8, kappa=-0.05)
        assert ls.exact_pfail() > stats.norm.sf(4.0)

    def test_zero_curvature_equals_linear(self):
        from scipy import stats

        ls = QuadraticLimitState(beta=3.5, dim=6, kappa=0.0)
        assert ls.exact_pfail() == pytest.approx(stats.norm.sf(3.5), rel=1e-6)

    def test_approaches_breitung_asymptote(self):
        # Breitung's SORM, Phi(-beta) / (1 + beta kappa)^((d-1)/2), is exact
        # as beta grows: the closed form's ratio to it must climb toward 1.
        from scipy import stats

        kappa, dim = 0.1, 8
        ratios = []
        for beta in (4.0, 6.0, 8.0, 10.0):
            ls = QuadraticLimitState(beta=beta, dim=dim, kappa=kappa)
            breitung = stats.norm.sf(beta) / (1 + beta * kappa) ** ((dim - 1) / 2)
            ratios.append(ls.exact_pfail() / breitung)
        assert np.all(np.diff(ratios) > 0)
        assert 0.95 < ratios[-1] < 1.0

    def test_needs_two_dims(self):
        with pytest.raises(EstimationError):
            QuadraticLimitState(beta=3.0, dim=1)


class TestSramSurrogate:
    def test_exact_matches_mc(self):
        # Pick a spec low enough for MC: ~2.3 sigma.
        spec = SramSurrogateLimitState.spec_for_sigma(2.3)
        ls = SramSurrogateLimitState(spec=spec)
        assert mc_pfail(ls) == pytest.approx(ls.exact_pfail(), rel=0.08)

    def test_spec_for_sigma_placement(self):
        from scipy import stats

        for target in (3.0, 4.0):
            spec = SramSurrogateLimitState.spec_for_sigma(target)
            p = SramSurrogateLimitState(spec=spec).exact_pfail()
            assert p == pytest.approx(stats.norm.sf(target), rel=0.02)

    def test_metric_batch_matches_scalar(self):
        ls = SramSurrogateLimitState(spec=50e-12)
        rng = np.random.default_rng(1)
        ub = rng.normal(size=(20, 6))
        np.testing.assert_allclose(
            ls.g_batch(ub), [ls.g(u) for u in ub], rtol=1e-12
        )

    def test_monotone_in_spec(self):
        p_tight = SramSurrogateLimitState(spec=40e-12).exact_pfail()
        p_loose = SramSurrogateLimitState(spec=60e-12).exact_pfail()
        assert p_tight > p_loose

    def test_negative_curvature_rejected(self):
        with pytest.raises(EstimationError):
            SramSurrogateLimitState(spec=50e-12, b=-1e-12)
