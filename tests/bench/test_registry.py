"""Registry semantics: selection, setup/run split, repeats, failure capture."""

from __future__ import annotations

import pytest

from repro.bench.registry import (
    REGISTRY,
    Registry,
    Section,
    run_section,
    run_sections,
)
from repro.errors import ConfigError


def quiet(_line):
    pass


def make_registry():
    reg = Registry()

    @reg.section("alpha", tags=("smoke", "engine"))
    def alpha(ctx):
        return {"a": 1}

    @reg.section("beta", tags=("kernel",))
    def beta(ctx):
        return {"b": 2}

    @reg.section("gamma", tags=("smoke",))
    def gamma(ctx):
        return None

    return reg


class TestSelection:
    def test_default_selection_is_everything_in_order(self):
        reg = make_registry()
        assert [s.name for s in reg.select()] == ["alpha", "beta", "gamma"]

    def test_tags_filter_keeps_any_match(self):
        reg = make_registry()
        assert [s.name for s in reg.select(tags=["smoke"])] == ["alpha", "gamma"]
        assert [s.name for s in reg.select(tags=["kernel", "engine"])] == [
            "alpha", "beta",
        ]

    def test_only_filter(self):
        reg = make_registry()
        assert [s.name for s in reg.select(only=["gamma"])] == ["gamma"]

    def test_only_and_tags_compose(self):
        reg = make_registry()
        assert [s.name for s in reg.select(only=["alpha", "beta"], tags=["smoke"])] == [
            "alpha",
        ]

    def test_unknown_only_name_is_config_error_listing_known(self):
        reg = make_registry()
        with pytest.raises(ConfigError, match="unknown benchmark section"):
            reg.select(only=["nope"])

    def test_duplicate_registration_refused(self):
        reg = make_registry()
        with pytest.raises(ConfigError, match="registered twice"):
            reg.register(Section(name="alpha", fn=lambda ctx: None))


class TestExecution:
    def test_setup_runs_once_outside_timing(self):
        reg = Registry()
        calls = {"setup": 0, "run": 0}

        def setup(**params):
            calls["setup"] += 1
            return {"token": 42}

        @reg.section("s", setup=setup, repeats=3)
        def s(ctx):
            calls["run"] += 1
            assert ctx == {"token": 42}
            return {"token": ctx["token"]}

        res = run_section(reg.get("s"), echo=quiet)
        assert calls == {"setup": 1, "run": 3}
        assert res.values == {"token": 42}
        assert len(res.seconds_runs) == 3
        assert res.valid

    def test_repeats_report_median_and_cv(self):
        reg = Registry()
        durations = iter([0.0, 0.0, 0.0])

        @reg.section("s", repeats=3)
        def s(ctx):
            next(durations)

        res = run_section(reg.get("s"), echo=quiet)
        assert res.seconds == sorted(res.seconds_runs)[1]
        assert res.cv >= 0.0

    def test_single_run_has_zero_cv(self):
        reg = Registry()

        @reg.section("s")
        def s(ctx):
            return None

        res = run_section(reg.get("s"), echo=quiet)
        assert res.cv == 0.0
        assert len(res.seconds_runs) == 1

    def test_params_reach_setup_and_run(self):
        reg = Registry()
        seen = {}

        def setup(n=1):
            seen["setup_n"] = n
            return n * 2

        @reg.section("s", setup=setup)
        def s(ctx, n=1):
            seen["run_n"] = n
            return {"ctx": ctx}

        res = run_section(reg.get("s"), params={"n": 5}, echo=quiet)
        assert seen == {"setup_n": 5, "run_n": 5}
        assert res.values == {"ctx": 10}

    def test_exception_invalidates_but_does_not_abort(self):
        reg = Registry()

        @reg.section("broken")
        def broken(ctx):
            raise ValueError("kaboom")

        @reg.section("fine")
        def fine(ctx):
            return {"ok": True}

        results = run_sections(reg.select(), echo=quiet)
        assert not results["broken"].valid
        assert "kaboom" in results["broken"].reason
        assert results["fine"].valid

    def test_repeat_override(self):
        reg = Registry()

        @reg.section("s", repeats=1)
        def s(ctx):
            return None

        res = run_section(reg.get("s"), repeats=4, echo=quiet)
        assert len(res.seconds_runs) == 4

    def test_overrides_map_routes_params_by_name(self):
        reg = Registry()

        @reg.section("a")
        def a(ctx, x=0):
            return {"x": x}

        @reg.section("b")
        def b(ctx, x=0):
            return {"x": x}

        results = run_sections(
            reg.select(), overrides={"b": {"x": 7}}, echo=quiet
        )
        assert results["a"].values == {"x": 0}
        assert results["b"].values == {"x": 7}


class TestDefaultRegistry:
    def test_every_real_section_is_registered_with_gates_bound(self):
        import repro.bench.sections  # noqa: F401  (registration import)

        names = REGISTRY.names()
        for expected in (
            "streaming-core", "gis-6t-engine", "sharded-plan",
            "system-read-batched", "column-read-batched",
            "array-read-batched", "plan-cache",
            "kernel-6t", "kernel-latch", "kernel-array",
            "sharding-determinism",
        ):
            assert expected in names
        assert "chaos-recovery" not in names  # the recovery layer is gone
        for sec in REGISTRY.select():
            for gate in sec.gates:
                assert gate.section == sec.name or gate.section == "total"

    def test_every_historical_gate_is_a_gatespec(self):
        """The acceptance criterion: each threshold the four drivers
        asserted imperatively exists as declarative GateSpec data."""
        import repro.bench.sections  # noqa: F401

        by_id = {
            g.gate_id: g
            for s in REGISTRY.select()
            for g in s.gates
        }
        # smoke wall gates, one per section
        for name in ("streaming-core", "gis-6t-engine", "sharded-plan",
                     "system-read-batched", "column-read-batched",
                     "array-read-batched", "plan-cache"):
            assert by_id[f"wall.{name}"].kind == "wall_factor"
        # internal ratio floors and contracts
        assert by_id["system-read.batched_vs_scalar"].threshold == 2.0
        assert by_id["column-read.sparse_vs_dense"].threshold == 2.0
        assert by_id["array-read.schur_vs_blocked"].threshold == 1.5
        assert by_id["plan-cache.warm_vs_cold"].threshold == 2.0
        assert by_id["plan-cache.spawn_vs_fork"].kind == "ratio_max"
        assert by_id["plan-cache.spawn_vs_fork"].threshold == 1.5
        assert by_id["kernel-6t.read_fast_vs_reference"].threshold == 1.0
        assert by_id["kernel-6t.write_fast_vs_reference"].threshold == 1.0
        assert by_id["kernel-latch.fast_vs_reference"].threshold == 1.0
        assert by_id["kernel-array.fast_vs_reference"].threshold == 1.0
        assert by_id["sharding.bit_identical_across_workers"].kind == "bool_true"
