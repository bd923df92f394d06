"""Spherical radius-search IS baseline tests."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.highsigma.analytic import HypersphereLimitState, LinearLimitState
from repro.highsigma.limitstate import LimitState
from repro.highsigma.spherical import SphericalSearchIS


class TestSearch:
    def test_sphere_geometry_is_ideal_case(self):
        # For a radially symmetric failure region every direction works,
        # so the search lands on the boundary radius exactly.
        ls = HypersphereLimitState(radius=3.0, dim=5)
        sph = SphericalSearchIS(ls, n_directions=16)
        centre, radius = sph.search_centre(np.random.default_rng(0))
        assert radius == pytest.approx(3.0, abs=0.1)
        assert np.linalg.norm(centre) == pytest.approx(radius)

    def test_linear_case_overshoots_beta(self):
        # For a hyperplane the first failing direction is almost never
        # the exact MPFP direction: the found radius exceeds beta.
        ls = LinearLimitState(beta=3.0, dim=8)
        sph = SphericalSearchIS(ls, n_directions=32)
        _centre, radius = sph.search_centre(np.random.default_rng(1))
        assert radius >= 3.0 - 0.1

    def test_escalation_widens_direction_set(self):
        # Narrow failure cone in high dimension: 4 directions miss it,
        # escalation must rescue the search.
        ls = LinearLimitState(beta=3.0, dim=10)
        sph = SphericalSearchIS(ls, n_directions=4, r_max=4.0, max_escalations=2)
        _centre, radius = sph.search_centre(np.random.default_rng(2))
        assert radius > 2.5

    def test_gives_up_eventually(self):
        ls = LimitState(fn=lambda u: 0.0, spec=1.0, dim=3, direction="upper",
                        name="never-fails")
        sph = SphericalSearchIS(ls, n_directions=4, r_max=3.0, max_escalations=1)
        with pytest.raises(SearchError):
            sph.search_centre(np.random.default_rng(3))

    def test_failure_message_reports_values_actually_used(self):
        # One escalation quadruples the directions (4 -> 16) and widens
        # the ceiling (3.0 -> 4.5); the error must report *those* values,
        # not the never-attempted next escalation's 64 / 6.75.
        ls = LimitState(fn=lambda u: 0.0, spec=1.0, dim=3, direction="upper",
                        name="never-fails")
        sph = SphericalSearchIS(ls, n_directions=4, r_max=3.0, max_escalations=1)
        with pytest.raises(SearchError, match=r"radius 4\.5 using 16 directions"):
            sph.search_centre(np.random.default_rng(3))

    def test_smallest_g_direction_selected(self):
        # Two fixed probe directions, both failing at the first shell but
        # with different margins: the bisection must follow the deeper
        # one (the second), not simply the first failing row.
        class FixedDirections:
            def standard_normal(self, shape):
                assert shape == (2, 2)
                return np.array([[1.0, 0.0], [0.0, 1.0]])

        # g(u) = 1 - (u0 + 2 u1): at r=1, dir (1,0) sits exactly on the
        # boundary (g = 0) while dir (0,1) is well inside (g = -1).
        ls = LimitState(
            fn=None, batch_fn=lambda u: 1.0 - (u[:, 0] + 2.0 * u[:, 1]),
            spec=0.0, dim=2, direction="lower",
        )
        sph = SphericalSearchIS(ls, n_directions=2, r_start=1.0, r_step=0.5)
        centre, radius = sph.search_centre(FixedDirections())
        np.testing.assert_allclose(centre / radius, [0.0, 1.0], atol=1e-12)


class TestEstimation:
    def test_hypersphere_estimate(self):
        ls = HypersphereLimitState(radius=3.5, dim=4)
        sph = SphericalSearchIS(ls, n_max=8000, target_rel_err=0.1, alpha=0.3)
        res = sph.run(np.random.default_rng(4))
        # A single shifted Gaussian cannot cover a spherical shell well;
        # the defensive component keeps it consistent if slow.  Within
        # a factor of ~2 at this budget.
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=1.0)

    def test_search_cost_billed(self):
        ls = LinearLimitState(beta=3.0, dim=5)
        sph = SphericalSearchIS(ls, n_max=512, target_rel_err=None)
        res = sph.run(np.random.default_rng(5))
        assert res.n_evals == ls.n_evals
        assert res.diagnostics["search_evals"] > 0
        assert res.diagnostics["centre_norm"] >= 2.5
