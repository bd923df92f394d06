"""The repro.api facade: validation codes, schemas, determinism."""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.errors import ConfigError, RequestError


def linear(**overrides):
    base = dict(workload="analytic-linear", spec=4.0, budget=2000, seed=3)
    base.update(overrides)
    return api.EstimateRequest(**base)


class TestValidation:
    def test_unknown_workload_is_a001(self):
        with pytest.raises(RequestError) as exc:
            api.EstimateRequest(workload="nope", spec=1.0).validate()
        assert exc.value.code == "A001"

    def test_unknown_knob_is_a002(self):
        with pytest.raises(RequestError) as exc:
            linear(knobs={"bogus": 1}).validate()
        assert exc.value.code == "A002"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"budget": 0},
            {"budget": 2.5},
            {"seed": -1},
            {"workers": 0},
            {"n_shards": 0},
            {"retries": -1},
            {"rel_err": -0.1},
            {"rel_err": float("nan")},
            {"shard_timeout": 0.0},
            {"spec": float("inf")},
            {"n_starts": 0},
        ],
    )
    def test_bad_field_is_a003(self, overrides):
        with pytest.raises(RequestError) as exc:
            linear(**overrides).validate()
        assert exc.value.code == "A003"

    def test_bad_choice_knob_is_a003(self):
        with pytest.raises(RequestError) as exc:
            api.EstimateRequest(
                workload="read", spec=5e-11, knobs={"kernel": "bogus"}
            ).validate()
        assert exc.value.code == "A003"

    @pytest.mark.parametrize(
        "workload, spec, knobs",
        [
            ("read", 5e-11, {"n_steps": 0}),
            ("read", 5e-11, {"n_steps": -5}),
            ("read", 5e-11, {"n_steps": 2.5}),
            ("column-read", 3e-11, {"n_leakers": -1}),
            ("column-read", 3e-11, {"n_leakers": 0}),
            ("analytic-linear", 4.0, {"dim": 0}),
            ("analytic-linear", 4.0, {"dim": -3}),
            ("analytic-linear", 4.0, {"dim": 2.5}),
            ("analytic-linear", 4.0, {"dim": "8"}),
            ("analytic-linear", 4.0, {"dim": True}),
            ("analytic-linear", 4.0, {"dim": None}),
            ("analytic-quadratic", 4.0, {"kappa": "x"}),
            ("read", 5e-11, {"n_steps": True}),
            ("read", 5e-11, {"vdd": True}),
            ("read", 5e-11, {"vdd": float("nan")}),
            ("read", 5e-11, {"vdd": float("inf")}),
            ("read", 5e-11, {"include_beta": 1}),
            ("read", 5e-11, {"kernel": 1}),
            ("column-read", 3e-11, {"cbl": "x"}),
            ("column-read", 3e-11, {"cbl": float("nan")}),
            ("column-read", 3e-11, {"cbl": True}),
        ],
    )
    def test_knob_of_the_wrong_type_is_a003(self, workload, spec, knobs):
        # A knob's value must match the type of the factory's default:
        # each of these once ran to a confident estimate or a builtin
        # error deep inside the factory.
        with pytest.raises(RequestError) as exc:
            api.EstimateRequest(workload=workload, spec=spec, knobs=knobs).validate()
        assert exc.value.code == "A003"

    def test_every_knob_has_a_factory_default(self):
        # A knob's accepted type is read from its default, so a knob
        # without one could not be checked.
        import inspect

        for workload in api.list_workloads():
            defaults = workload.knob_defaults
            assert set(defaults) == set(workload.knobs)
            assert all(v is not inspect.Parameter.empty for v in defaults.values())

    def test_knob_defaults_are_read_once_per_workload(self, monkeypatch):
        import inspect

        from repro.experiments.workloads import get_workload

        assert get_workload("read").knob_defaults  # read before counting
        calls = []
        real = inspect.signature
        monkeypatch.setattr(inspect, "signature", lambda f: calls.append(f) or real(f))
        for n_steps in (100, 200):
            api.EstimateRequest(workload="read", spec=5e-11, knobs={"n_steps": n_steps}).validate()
        assert calls == []

    def test_knob_values_matching_their_defaults_pass(self):
        knobs = {"vdd": 1, "n_steps": 200, "include_beta": True, "kernel": "reference"}
        api.EstimateRequest(workload="read", spec=5e-11, knobs=knobs).validate()
        api.EstimateRequest(
            workload="column-read", spec=3e-11, knobs={"cbl": None, "n_leakers": 3}
        ).validate()
        api.EstimateRequest(
            workload="array-read", spec=3e-11, knobs={"cbl": 1e-14, "cdl": None}
        ).validate()

    def test_unsupported_method_is_a004(self):
        with pytest.raises(RequestError) as exc:
            linear(method="magic").validate()
        assert exc.value.code == "A004"

    def test_request_error_is_config_error(self):
        # The CLI's exit-2 path catches ConfigError; eager API
        # validation must flow through it unchanged.
        with pytest.raises(ConfigError):
            linear(method="magic").validate()

    def test_knob_mutation_after_construction_is_inert(self):
        knobs = {"dim": 8}
        request = linear(knobs=knobs)
        knobs["bogus"] = 1
        request.validate()  # private copy: still clean


class TestRequestEnvelope:
    def test_round_trip(self):
        request = linear(knobs={"dim": 12}, n_shards=4, rel_err=None)
        doc = json.loads(json.dumps(request.to_json()))
        assert api.EstimateRequest.from_json(doc) == request

    def test_unknown_field_is_a005(self):
        with pytest.raises(RequestError) as exc:
            api.EstimateRequest.from_json({"workload": "x", "spec": 1.0, "nope": 2})
        assert exc.value.code == "A005"

    def test_non_object_is_a005(self):
        with pytest.raises(RequestError) as exc:
            api.EstimateRequest.from_json([1, 2])
        assert exc.value.code == "A005"

    def test_missing_required_is_a005(self):
        with pytest.raises(RequestError) as exc:
            api.EstimateRequest.from_json({"spec": 1.0})
        assert exc.value.code == "A005"

    def test_unknown_schema_version_is_a005(self):
        doc = linear().to_json()
        doc["schema_version"] = 999
        with pytest.raises(RequestError) as exc:
            api.EstimateRequest.from_json(doc)
        assert exc.value.code == "A005"

    def test_schema_version_optional_on_input(self):
        doc = linear().to_json()
        del doc["schema_version"]
        assert api.EstimateRequest.from_json(doc) == linear()


class TestResultEnvelope:
    def test_round_trip_through_json_text(self):
        result = api.estimate(linear())
        text = json.dumps(result.to_json(), sort_keys=True)
        back = api.EstimateResult.from_json(json.loads(text))
        assert back.identical_to(result)
        assert back.to_json() == result.to_json()
        assert back.request == result.request

    def test_schema_version_stamped_and_required(self):
        result = api.estimate(linear())
        doc = result.to_json()
        assert doc["schema_version"] == api.SCHEMA_VERSION
        del doc["schema_version"]
        with pytest.raises(RequestError) as exc:
            api.EstimateResult.from_json(doc)
        assert exc.value.code == "A005"

    def test_diagnostics_are_json_safe(self):
        result = api.estimate(linear())
        json.dumps(result.to_json(), allow_nan=False)  # no numpy, no NaN

    def test_derived_fields_recomputed(self):
        result = api.estimate(linear())
        doc = result.to_json()
        back = api.EstimateResult.from_json(doc)
        assert back.sigma_level == pytest.approx(doc["sigma_level"])
        lo, hi = back.ci()
        assert 0.0 <= lo <= back.p_fail <= hi <= 1.0


class TestEstimate:
    def test_deterministic_per_seed(self):
        a = api.estimate(linear())
        b = api.estimate(linear())
        assert a.identical_to(b)
        assert not a.identical_to(api.estimate(linear(seed=4)))

    def test_workers_never_change_the_estimate(self):
        pinned = api.estimate(linear(workers=1, n_shards=4))
        wide = api.estimate(linear(workers=2, n_shards=4))
        assert pinned.identical_to(wide)
        assert pinned.n_shards == wide.n_shards == 4

    def test_mc_method(self):
        result = api.estimate(
            linear(method="mc", spec=2.0, budget=20000, rel_err=None)
        )
        assert result.method == "mc"
        assert result.n_evals == 20000
        assert 0.0 < result.p_fail < 1.0

    def test_knobs_reach_the_factory(self):
        result = api.estimate(linear(knobs={"dim": 12}))
        assert result.dim == 12

    def test_read_search_reports_its_oracle_calls(self):
        # The service's 5-sigma read shape: the search makes one oracle
        # call per iteration, 7 in all (13 one point at a time), for
        # under 100 simulations (68 one point at a time).
        request = api.EstimateRequest(
            workload="read",
            spec=57.33e-12,
            seed=1,
            budget=64,
            rel_err=None,
            knobs={"n_steps": 200},
        )
        result = api.estimate(request)
        assert result.diagnostics["search_calls"] <= 7
        assert result.diagnostics["search_evals"] <= 100

    def test_list_workloads(self):
        names = [w.name for w in api.list_workloads()]
        assert "read" in names and "array-read" in names
        assert "analytic-linear" in names
        spec = next(w for w in api.list_workloads() if w.name == "read")
        doc = spec.to_json()
        assert "n_steps" in doc["knobs"] and doc["spec_unit"] == "s"

    def test_estimator_options_ride_along(self):
        # sa-offset registers bisection-matched MPFP tolerances; the
        # facade must apply them (the CLI used to hard-code them).
        spec = next(w for w in api.list_workloads() if w.name == "sa-offset")
        assert "mpfp_options" in spec.estimator_options


def _case(workload, spec, method="mc", budget=32, compiles=True, **knobs):
    request = api.EstimateRequest(
        workload=workload, spec=spec, method=method, seed=3, budget=budget,
        rel_err=0.3 if method == "gis" else None, knobs=knobs,
    )
    label = f"{workload}-{knobs['kernel']}" if "kernel" in knobs else workload
    return pytest.param(request, compiles, id=label)


#: One small request per registered workload, plus the reference-kernel
#: read.  Compiled circuits run at most 60 steps; the 6T read grid only
#: converges robustly at 24 or fewer, where the metric is the smooth
#: shortfall penalty.
PREPARE_CASES = [
    _case("read", 2.47e-8, method="gis", budget=300, n_steps=24),
    _case("read", 2.47e-8, method="gis", budget=300, n_steps=24,
          kernel="reference"),
    _case("write", 4.0e-11, n_steps=60),
    _case("disturb", 0.5, n_steps=24),
    _case("sa-offset", 0.05, budget=16, n_steps=60, n_bisect=6),
    _case("system-read", 2.47e-8, budget=16, n_steps=24, sa_model="latch",
          sa_n_steps=60, sa_n_bisect=6),
    _case("column-read", 2.4e-8, n_steps=60, n_leakers=3),
    _case("array-read", 1.64e-8, n_steps=60, n_cols=2, n_leakers=3),
    _case("analytic-linear", 3.0, method="gis", budget=300, compiles=False),
    _case("analytic-quadratic", 3.0, method="gis", budget=300, compiles=False),
]


class TestPrepareContract:
    """``api.prepare`` compiles every plan the run needs and runs none."""

    def test_every_registered_workload_is_covered(self):
        covered = {case.values[0].workload for case in PREPARE_CASES}
        assert covered == {w.name for w in api.list_workloads()}

    @pytest.mark.parametrize("req, compiles", PREPARE_CASES)
    def test_prepare_only_compiles(self, req, compiles, monkeypatch):
        from repro.spice.compile import CompiledTransient
        from repro.spice.plan import default_plan_cache

        runs = []
        real_run = CompiledTransient.run

        def counted_run(self, *args, **kwargs):
            runs.append(self)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(CompiledTransient, "run", counted_run)
        prepared = api.prepare(req)
        assert runs == []

        misses = default_plan_cache().stats["misses"]
        result = prepared.run()
        assert default_plan_cache().stats["misses"] == misses
        assert bool(runs) == compiles  # the counter sees the run's transients

        workload = prepared.workload
        cold = api.PreparedEstimate(
            request=req,
            workload=workload,
            limit_state=workload.factory(req.spec, **dict(req.knobs)),
            n_shards=prepared.n_shards,
        )
        assert result.identical_to(cold.run())
