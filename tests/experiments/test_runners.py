"""Runner tests: row structure, error capture, cost model."""

import numpy as np
import pytest

from repro.experiments.runners import (
    MethodSpec,
    default_methods,
    mc_equivalent_cost,
    run_comparison,
    run_method,
)
from repro.experiments.workloads import Workload, analytic_grid_workloads
from repro.highsigma.gis import GradientImportanceSampling


@pytest.fixture
def linear_workload():
    return [w for w in analytic_grid_workloads(sigmas=(4.0,), dims=(6,))
            if w.name.startswith("linear")][0]


class TestRunMethod:
    def test_row_fields(self, linear_workload):
        spec = MethodSpec(
            "gis", lambda ls: GradientImportanceSampling(ls, n_max=2000,
                                                         target_rel_err=0.1)
        )
        row = run_method(linear_workload, spec, seed=0)
        for key in ("workload", "method", "p_fail", "sigma", "n_evals",
                    "err_vs_exact", "speedup_vs_mc", "wall_s"):
            assert key in row
        assert row["method"] == "gis"
        assert row["err_vs_exact"] < 0.5

    def test_error_captured_as_row(self):
        # A workload nothing can fail on: searches raise, row records it.
        from repro.highsigma.limitstate import LimitState

        wl = Workload(
            name="impossible",
            make=lambda: LimitState(fn=lambda u: 0.0, spec=1.0, dim=3,
                                    direction="upper"),
            exact_pfail=None,
            dim=3,
        )
        spec = MethodSpec(
            "gis", lambda ls: GradientImportanceSampling(ls, n_starts=1)
        )
        row = run_method(wl, spec, seed=0)
        assert row["p_fail"] is None
        assert "SearchError" in row["error"]

    def test_seed_determinism(self, linear_workload):
        spec = MethodSpec(
            "gis", lambda ls: GradientImportanceSampling(ls, n_max=1000,
                                                         target_rel_err=None)
        )
        r1 = run_method(linear_workload, spec, seed=5)
        r2 = run_method(linear_workload, spec, seed=5)
        assert r1["p_fail"] == r2["p_fail"]


class TestRunComparison:
    def test_all_method_seed_pairs(self, linear_workload):
        methods = default_methods(n_max=1500, mc_budget=20000)
        rows = run_comparison(linear_workload, methods, seeds=(0, 1))
        assert len(rows) == len(methods) * 2

    def test_default_methods_names(self):
        names = [m.name for m in default_methods()]
        assert names == ["mc", "gis", "mnis", "spherical", "sss"]
        names_no_mc = [m.name for m in default_methods(include_mc=False)]
        assert "mc" not in names_no_mc


class TestCostModel:
    def test_mc_equivalent_cost(self):
        assert mc_equivalent_cost(1e-6, 0.1) == pytest.approx(1e8, rel=0.01)

    def test_degenerate_inputs(self):
        assert np.isnan(mc_equivalent_cost(0.0, 0.1))
        assert np.isnan(mc_equivalent_cost(1e-6, float("inf")))
