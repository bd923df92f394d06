"""Gradient importance sampling tests — the method under reproduction."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.highsigma.analytic import (
    LinearLimitState,
    QuadraticLimitState,
    SramSurrogateLimitState,
    UnionLimitState,
)
from repro.highsigma.gis import GradientImportanceSampling
from repro.highsigma.limitstate import LimitState
from repro.highsigma.mpfp import MpfpOptions


class TestAccuracy:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linear_four_sigma(self, seed):
        ls = LinearLimitState(beta=4.0, dim=6)
        gis = GradientImportanceSampling(ls, n_max=5000, target_rel_err=0.05)
        res = gis.run(np.random.default_rng(seed))
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.2)

    def test_linear_six_sigma(self):
        # The regime MC cannot touch: p ~ 1e-9 with a few thousand evals.
        ls = LinearLimitState(beta=6.0, dim=6)
        gis = GradientImportanceSampling(ls, n_max=6000, target_rel_err=0.05)
        res = gis.run(np.random.default_rng(3))
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.25)
        assert res.n_evals < 10000

    def test_curved_boundary_beats_form(self):
        # FORM would report Phi(-beta); sampling must see the curvature.
        from scipy import stats

        ls = QuadraticLimitState(beta=5.0, dim=12, kappa=0.15)
        gis = GradientImportanceSampling(ls, n_max=8000, target_rel_err=0.05)
        res = gis.run(np.random.default_rng(4))
        exact = ls.exact_pfail()
        form = stats.norm.sf(5.0)
        assert res.p_fail == pytest.approx(exact, rel=0.3)
        assert abs(np.log10(res.p_fail) - np.log10(exact)) < abs(
            np.log10(form) - np.log10(exact)
        )

    def test_surrogate_workload(self):
        spec = SramSurrogateLimitState.spec_for_sigma(4.5)
        ls = SramSurrogateLimitState(spec=spec)
        gis = GradientImportanceSampling(ls, n_max=6000, target_rel_err=0.05)
        res = gis.run(np.random.default_rng(5))
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.3)


class TestMultiStart:
    def test_union_needs_multistart(self):
        ls = UnionLimitState([4.0, 4.2], dim=8)
        multi = GradientImportanceSampling(
            ls, n_max=8000, n_starts=8, target_rel_err=0.05
        ).run(np.random.default_rng(6))
        assert len(multi.diagnostics["mpfp_beta"]) == 2
        assert multi.p_fail == pytest.approx(ls.exact_pfail(), rel=0.25)

    def test_single_start_underestimates_union(self):
        from scipy import stats

        ls = UnionLimitState([4.0, 4.0], dim=6)
        single = GradientImportanceSampling(
            ls, n_max=8000, n_starts=1, target_rel_err=0.05
        ).run(np.random.default_rng(7))
        # Captures about one of the two equal regions (defensive mixture
        # recovers a bit of the other).
        assert single.p_fail < 0.8 * ls.exact_pfail()

    def test_dedup_keeps_one_per_region(self):
        ls = LinearLimitState(beta=4.0, dim=6)
        gis = GradientImportanceSampling(ls, n_starts=5, n_max=2000)
        mpfps = gis.search_mpfps(np.random.default_rng(8))
        assert len(mpfps) == 1  # all starts converge to the same point

    def test_parallel_multistart_matches_serial(self):
        """The sharded search stage's determinism contract: the kept
        MPFPs and their evaluation counts depend only on n_starts, never
        on workers."""
        from repro.engine.sharding import fork_available

        def search(workers):
            ls = UnionLimitState([4.0, 4.2], dim=8)
            gis = GradientImportanceSampling(
                ls, n_starts=6, n_max=2000, workers=workers
            )
            return gis.search_mpfps(np.random.default_rng(21))

        serial = search(1)
        if not fork_available():
            pytest.skip("fork start method unavailable")
        pooled = search(4)
        assert len(serial) == len(pooled) == 2
        for a, b in zip(serial, pooled):
            np.testing.assert_array_equal(a.u_star, b.u_star)
            assert a.beta == b.beta
            assert a.n_evals == b.n_evals

    def test_parallel_multistart_bills_search_evals(self):
        from repro.engine.sharding import fork_available

        if not fork_available():
            pytest.skip("fork start method unavailable")
        ls = UnionLimitState([4.0, 4.2], dim=8)
        gis = GradientImportanceSampling(
            ls, n_starts=4, n_max=1024, target_rel_err=None, workers=4
        )
        res = gis.run(np.random.default_rng(22))
        # Pooled searches reconcile their eval counts into the parent.
        assert res.diagnostics["search_evals"] > 0
        assert ls.n_evals == res.n_evals


class TestDiagnosticsAndAccounting:
    def test_search_cost_in_n_evals(self):
        ls = LinearLimitState(beta=4.0, dim=6)
        gis = GradientImportanceSampling(ls, n_max=1024, target_rel_err=None)
        res = gis.run(np.random.default_rng(9))
        assert res.n_evals == ls.n_evals
        assert res.n_evals > 1024  # sampling + search
        assert res.diagnostics["search_evals"] > 0

    def test_mpfp_reported(self):
        ls = LinearLimitState(beta=4.0, dim=6)
        res = GradientImportanceSampling(ls, n_max=2000).run(np.random.default_rng(10))
        assert res.diagnostics["mpfp_beta"][0] == pytest.approx(4.0, abs=0.05)
        assert res.diagnostics["mpfp_converged"][0]

    def test_ess_positive(self):
        ls = LinearLimitState(beta=4.0, dim=4)
        res = GradientImportanceSampling(ls, n_max=2000).run(np.random.default_rng(11))
        assert res.ess > 10

    def test_estimate_above_one_is_not_converged(self):
        """A strongly concave boundary at 4 sigma fails almost everywhere
        (exact p 0.975); this request's mixture over-weights it (1.14 at
        its 804th sample), so the relative-error stop must not fire: the
        run samples its whole budget, and an estimate still above 1 must
        not read as a converged probability."""
        from repro import api

        res = api.estimate(api.EstimateRequest(
            workload="analytic-quadratic", spec=4.0, seed=1, budget=2000,
            knobs={"dim": 8, "kappa": -5.0},
        ))
        assert res.diagnostics["n_sampling"] == 2000
        assert res.p_fail > 1.0
        assert not res.converged
        assert res.diagnostics["diagnostic_codes"] == ["E001"]

    def test_in_range_estimate_carries_no_codes(self):
        ls = LinearLimitState(beta=4.0, dim=4)
        res = GradientImportanceSampling(ls, n_max=2000).run(np.random.default_rng(11))
        assert res.converged and "diagnostic_codes" not in res.diagnostics


class TestOptions:
    def test_defensive_alpha_zero_still_works_at_mpfp(self):
        ls = LinearLimitState(beta=4.0, dim=5)
        gis = GradientImportanceSampling(ls, n_max=4000, alpha=0.0, target_rel_err=0.05)
        res = gis.run(np.random.default_rng(12))
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.25)

    def test_cov_widen_changes_proposal_not_answer(self):
        ls1 = LinearLimitState(beta=4.0, dim=5)
        r1 = GradientImportanceSampling(ls1, n_max=6000, cov_widen=1.5,
                                        target_rel_err=0.05).run(np.random.default_rng(13))
        assert r1.p_fail == pytest.approx(ls1.exact_pfail(), rel=0.3)

    def test_shift_scale_pushes_into_failure(self):
        ls = LinearLimitState(beta=4.0, dim=5)
        gis = GradientImportanceSampling(ls, n_max=4000, shift_scale=1.05,
                                         target_rel_err=0.05)
        res = gis.run(np.random.default_rng(14))
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.3)

    def test_spsa_search_mode(self):
        ls = LinearLimitState(beta=4.0, dim=6)
        gis = GradientImportanceSampling(
            ls,
            n_max=5000,
            target_rel_err=0.05,
            mpfp_options=MpfpOptions(grad_mode="spsa", spsa_repeats=16,
                                     max_iterations=80, tol_align=0.05),
        )
        res = gis.run(np.random.default_rng(15))
        # Noisier search, but the defensive IS stage still lands close.
        assert res.p_fail == pytest.approx(ls.exact_pfail(), rel=0.5)

    def test_unfindable_failure_raises(self):
        # A limit state that never fails anywhere reachable.
        ls = LimitState(fn=lambda u: 0.0, spec=1.0, dim=3, direction="upper",
                        name="never-fails")
        gis = GradientImportanceSampling(ls, n_starts=2)
        with pytest.raises(SearchError):
            gis.run(np.random.default_rng(16))
