"""Cross-entropy adaptive IS tests."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.highsigma.analytic import (
    LinearLimitState,
    QuadraticLimitState,
    SramSurrogateLimitState,
)
from repro.highsigma.ce import CrossEntropyIS
from repro.highsigma.limitstate import LimitState


class TestAdaptation:
    def test_mean_converges_to_failure_region(self):
        ls = LinearLimitState(beta=4.0, dim=6)
        ce = CrossEntropyIS(ls, n_per_level=400)
        mean, cov, levels = ce.adapt(np.random.default_rng(0))
        # The adapted mean must sit near the failure boundary along a.
        assert float(mean @ ls.a) > 3.0
        assert 2 <= levels <= 15

    def test_cov_adapts_to_boundary_shape(self):
        # On a hyperplane the elite cloud flattens along the normal.
        ls = LinearLimitState(beta=4.0, dim=4)
        ce = CrossEntropyIS(ls, n_per_level=600, adapt_cov=True)
        mean, cov, _ = ce.adapt(np.random.default_rng(1))
        normal_var = cov[0]          # a = e_0 for the default direction
        tangent_var = np.mean(cov[1:])
        assert normal_var < tangent_var

    def test_never_failing_raises(self):
        ls = LimitState(fn=lambda u: 0.0, spec=1.0, dim=3, direction="upper")
        ce = CrossEntropyIS(ls, n_per_level=100, max_levels=3)
        with pytest.raises(SearchError):
            ce.adapt(np.random.default_rng(2))

    def test_parameter_validation(self):
        ls = LinearLimitState(beta=3.0, dim=3)
        with pytest.raises(SearchError):
            CrossEntropyIS(ls, elite_fraction=1.5)
        with pytest.raises(SearchError):
            CrossEntropyIS(ls, smoothing=0.0)


class TestEstimation:
    def test_linear_four_sigma(self):
        ls = LinearLimitState(beta=4.0, dim=6)
        ce = CrossEntropyIS(ls, n_max=5000, target_rel_err=0.08)
        res = ce.run(np.random.default_rng(3))
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.3)
        assert res.method == "ce"
        assert res.diagnostics["levels"] >= 2

    def test_curved_boundary(self):
        ls = QuadraticLimitState(beta=4.5, dim=8, kappa=0.1)
        ce = CrossEntropyIS(ls, n_max=6000, target_rel_err=0.08)
        res = ce.run(np.random.default_rng(4))
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.5)

    def test_adaptation_cost_billed(self):
        ls = LinearLimitState(beta=4.0, dim=5)
        ce = CrossEntropyIS(ls, n_per_level=300, n_max=512, target_rel_err=None)
        res = ce.run(np.random.default_rng(5))
        assert res.n_evals == ls.n_evals
        assert res.diagnostics["search_evals"] >= 2 * 300

    def test_costlier_search_than_gradient(self):
        # The comparison the paper's cost argument predicts: per-level
        # batches vs a gradient walk.
        from repro.highsigma.gis import GradientImportanceSampling

        ls_ce = SramSurrogateLimitState(
            spec=SramSurrogateLimitState.spec_for_sigma(4.5)
        )
        ce_res = CrossEntropyIS(ls_ce, n_max=256, target_rel_err=None).run(
            np.random.default_rng(6)
        )
        ls_gis = SramSurrogateLimitState(
            spec=SramSurrogateLimitState.spec_for_sigma(4.5)
        )
        gis_res = GradientImportanceSampling(
            ls_gis, n_max=256, target_rel_err=None
        ).run(np.random.default_rng(6))
        assert gis_res.diagnostics["search_evals"] < ce_res.diagnostics["search_evals"]
