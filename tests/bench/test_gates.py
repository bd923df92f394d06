"""GateSpec evaluation: kinds, noise floor, messages, slowed sections."""

from __future__ import annotations

import time

import pytest

from repro.bench.gates import (
    GateOutcome,
    GateSpec,
    evaluate_gates,
    evaluate_total_gate,
    format_outcome,
)
from repro.bench.registry import Registry, SectionResult, run_section
from repro.errors import ConfigError


def result(name="sec", seconds=1.0, values=None, valid=True, reason=None):
    return SectionResult(
        name=name, seconds=seconds, seconds_runs=(seconds,),
        values=values or {}, valid=valid, reason=reason,
    )


def one(outcomes):
    assert len(outcomes) == 1
    return outcomes[0]


class TestKinds:
    def test_ratio_min_passes_at_and_above_threshold(self):
        spec = GateSpec("g.min", "ratio_min", section="sec", key="r", threshold=2.0)
        for value, expected in [(2.0, True), (3.5, True), (1.99, False)]:
            out = one(evaluate_gates([spec], {"sec": result(values={"r": value})}))
            assert out.passed is expected
            assert out.measured == value
            assert out.threshold == 2.0

    def test_ratio_max_passes_at_and_below_threshold(self):
        spec = GateSpec("g.max", "ratio_max", section="sec", key="r", threshold=1.5)
        for value, expected in [(1.5, True), (0.9, True), (1.51, False)]:
            out = one(evaluate_gates([spec], {"sec": result(values={"r": value})}))
            assert out.passed is expected

    def test_bool_true(self):
        spec = GateSpec("g.bool", "bool_true", section="sec", key="ok")
        assert one(evaluate_gates([spec], {"sec": result(values={"ok": True})})).passed
        out = one(evaluate_gates([spec], {"sec": result(values={"ok": False})}))
        assert not out.passed and not out.skipped

    def test_unknown_kind_refused(self):
        with pytest.raises(ConfigError):
            GateSpec("g.bad", "ratio_between", section="sec", key="r")


class TestWallFactor:
    SPEC = GateSpec("wall.sec", "wall_factor", section="sec", threshold=2.0)

    def test_within_budget_passes(self):
        out = one(evaluate_gates(
            [self.SPEC], {"sec": result(seconds=1.9)}, baseline={"sec": 1.0}
        ))
        assert out.passed and out.threshold == 2.0

    def test_regression_fails_with_measured_and_threshold(self):
        out = one(evaluate_gates(
            [self.SPEC], {"sec": result(seconds=2.5)}, baseline={"sec": 1.0}
        ))
        assert not out.passed
        assert out.measured == 2.5
        assert out.threshold == 2.0

    def test_min_section_noise_floor(self):
        # Baseline 0.01 s: without the floor a 0.4 s run (40x) would
        # fail; the 0.5 s floor gates it against 2 * 0.5 = 1.0 s.
        out = one(evaluate_gates(
            [self.SPEC], {"sec": result(seconds=0.4)},
            baseline={"sec": 0.01}, min_section=0.5,
        ))
        assert out.passed and out.threshold == 1.0
        out = one(evaluate_gates(
            [self.SPEC], {"sec": result(seconds=1.1)},
            baseline={"sec": 0.01}, min_section=0.5,
        ))
        assert not out.passed

    def test_factor_override(self):
        out = one(evaluate_gates(
            [self.SPEC], {"sec": result(seconds=2.5)},
            baseline={"sec": 1.0}, factor=3.0,
        ))
        assert out.passed and out.threshold == 3.0

    def test_no_baseline_skips(self):
        out = one(evaluate_gates([self.SPEC], {"sec": result(seconds=99.0)}))
        assert out.skipped and out.passed

    def test_section_missing_from_baseline_fails(self):
        out = one(evaluate_gates(
            [self.SPEC], {"sec": result(seconds=1.0)}, baseline={"other": 1.0}
        ))
        assert not out.passed
        assert "missing from the committed baseline" in out.reason

    def test_total_gate(self):
        out = evaluate_total_gate(13.0, {"total": 6.0})
        assert not out.passed and out.threshold == 12.0
        assert evaluate_total_gate(11.9, {"total": 6.0}).passed
        assert evaluate_total_gate(1.0, None).skipped
        assert not evaluate_total_gate(1.0, {}).passed  # stale baseline


class TestEdgeStates:
    def test_unselected_section_skips(self):
        spec = GateSpec("g", "ratio_min", section="absent", key="r", threshold=1.0)
        out = one(evaluate_gates([spec], {}))
        assert out.skipped and out.passed

    def test_invalid_section_fails_gate_with_reason(self):
        spec = GateSpec("g", "ratio_min", section="sec", key="r", threshold=1.0)
        out = one(evaluate_gates(
            [spec], {"sec": result(valid=False, reason="boom")}
        ))
        assert out.failed
        assert "boom" in out.reason

    def test_missing_value_fails(self):
        spec = GateSpec("g1", "ratio_min", section="sec", key="r", threshold=1.0)
        out = one(evaluate_gates([spec], {"sec": result(values={})}))
        assert out.failed and "not measured" in out.reason


class TestFailureMessage:
    def test_failure_line_has_id_measured_threshold(self):
        spec = GateSpec("column-read.sparse_vs_dense", "ratio_min",
                        section="sec", key="r", threshold=2.0)
        out = one(evaluate_gates([spec], {"sec": result(values={"r": 1.3})}))
        line = format_outcome(out)
        assert "column-read.sparse_vs_dense" in line
        assert "1.3" in line
        assert "2.0" in line
        assert "FAIL" in line

    def test_to_json_round_trips_the_same_fields(self):
        spec = GateSpec("g", "ratio_max", section="sec", key="r", threshold=1.5)
        out = one(evaluate_gates([spec], {"sec": result(values={"r": 2.0})}))
        doc = out.to_json()
        assert doc["gate_id"] == "g"
        assert doc["passed"] is False
        assert doc["measured"] == 2.0
        assert doc["threshold"] == 1.5


class TestDeliberatelySlowedSection:
    """The acceptance criterion: a slowed section trips its wall gate
    and the failure message carries gate id, measured value, threshold."""

    def test_slowed_section_trips_wall_gate(self):
        reg = Registry()

        @reg.section(
            "sleepy", tags=("synthetic",),
            gates=(GateSpec("wall.sleepy", "wall_factor", threshold=2.0),),
        )
        def sleepy(ctx):
            time.sleep(0.12)  # baseline below says this used to take 10 ms

        sec = reg.get("sleepy")
        res = run_section(sec, echo=lambda _line: None)
        outcomes = evaluate_gates(
            reg.gates_for([sec]), {"sleepy": res},
            baseline={"sleepy": 0.01}, min_section=0.02,
        )
        out = one(outcomes)
        assert out.failed
        line = format_outcome(out)
        assert "wall.sleepy" in line
        assert str(out.measured) in line
        assert str(out.threshold) in line
        # And the same section within budget passes.
        ok = one(evaluate_gates(
            reg.gates_for([sec]), {"sleepy": res},
            baseline={"sleepy": 0.1}, min_section=0.02,
        ))
        assert ok.passed


class TestBinding:
    def test_registration_binds_gate_section(self):
        reg = Registry()

        @reg.section("named", gates=(GateSpec("g", "bool_true", key="ok"),))
        def named(ctx):
            return {"ok": True}

        assert reg.get("named").gates[0].section == "named"

    def test_explicit_section_preserved(self):
        reg = Registry()

        @reg.section("a", gates=(GateSpec("g", "bool_true", section="b", key="x"),))
        def a(ctx):
            return None

        assert reg.get("a").gates[0].section == "b"


def test_outcome_failed_property():
    spec = GateSpec("g", "bool_true", section="s", key="k")
    assert GateOutcome(spec, passed=False).failed
    assert not GateOutcome(spec, passed=False, skipped=True).failed
    assert not GateOutcome(spec, passed=True).failed
