"""Minimum-norm importance sampling baseline tests."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.highsigma.analytic import LinearLimitState
from repro.highsigma.limitstate import LimitState
from repro.highsigma.mnis import MinimumNormIS


class TestAccuracy:
    def test_linear_four_sigma(self):
        ls = LinearLimitState(beta=4.0, dim=6)
        mnis = MinimumNormIS(ls, n_presample=1500, presample_scale=2.0,
                             n_max=6000, target_rel_err=0.05)
        res = mnis.run(np.random.default_rng(0))
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.4)

    def test_centre_norm_near_beta(self):
        ls = LinearLimitState(beta=4.0, dim=6)
        mnis = MinimumNormIS(ls, n_presample=2000, presample_scale=2.0)
        centre = mnis.presample_centre(np.random.default_rng(1))
        # Ray refinement pulls the centre back to the boundary.
        assert np.linalg.norm(centre) == pytest.approx(4.0, abs=0.8)

    def test_ray_refine_reduces_norm(self):
        ls = LinearLimitState(beta=4.0, dim=8)
        raw = MinimumNormIS(ls, n_presample=1500, presample_scale=2.5, ray_refine=False)
        ref = MinimumNormIS(ls, n_presample=1500, presample_scale=2.5, ray_refine=True)
        n_raw = np.linalg.norm(raw.presample_centre(np.random.default_rng(2)))
        n_ref = np.linalg.norm(ref.presample_centre(np.random.default_rng(2)))
        assert n_ref <= n_raw + 1e-9


class TestEscalation:
    def test_scale_escalates_until_failures_found(self):
        # At scale 1.0 a 5-sigma hyperplane is invisible to 500 samples;
        # escalation (x1.5 per retry) must eventually see it.
        ls = LinearLimitState(beta=5.0, dim=4)
        mnis = MinimumNormIS(ls, n_presample=500, presample_scale=1.0,
                             max_retries=5)
        centre = mnis.presample_centre(np.random.default_rng(3))
        assert np.linalg.norm(centre) > 3.0

    def test_gives_up_after_retries(self):
        ls = LimitState(fn=lambda u: 0.0, spec=1.0, dim=3, direction="upper",
                        name="never-fails")
        mnis = MinimumNormIS(ls, n_presample=100, max_retries=1)
        with pytest.raises(SearchError):
            mnis.presample_centre(np.random.default_rng(4))

    def test_uniform_mode(self):
        ls = LinearLimitState(beta=3.0, dim=4)
        mnis = MinimumNormIS(ls, n_presample=2000, presample_scale=5.0,
                             presample_mode="uniform", n_max=5000,
                             target_rel_err=0.1)
        res = mnis.run(np.random.default_rng(5))
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.5)

    def test_bad_mode_rejected(self):
        ls = LinearLimitState(beta=3.0, dim=4)
        with pytest.raises(SearchError):
            MinimumNormIS(ls, presample_mode="magic")


class TestAccounting:
    def test_presampling_billed(self):
        ls = LinearLimitState(beta=3.0, dim=4)
        mnis = MinimumNormIS(ls, n_presample=1000, presample_scale=2.0,
                             n_max=1024, target_rel_err=None)
        res = mnis.run(np.random.default_rng(6))
        assert res.n_evals == ls.n_evals
        assert res.diagnostics["search_evals"] >= 1000

    def test_search_cost_dominates_at_high_sigma(self):
        # The qualitative claim the paper's cost tables make: the blind
        # pre-sampling stage needs far more evaluations than a gradient
        # search on the same problem.
        from repro.highsigma.gis import GradientImportanceSampling

        ls_g = LinearLimitState(beta=5.0, dim=6)
        gis_res = GradientImportanceSampling(ls_g, n_max=512, target_rel_err=None).run(
            np.random.default_rng(7)
        )
        ls_m = LinearLimitState(beta=5.0, dim=6)
        mnis = MinimumNormIS(ls_m, n_presample=1000, presample_scale=1.5,
                             max_retries=6, n_max=512, target_rel_err=None)
        mnis_res = mnis.run(np.random.default_rng(7))
        assert gis_res.diagnostics["search_evals"] < mnis_res.diagnostics["search_evals"]
