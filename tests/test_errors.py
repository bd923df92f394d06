"""Exception hierarchy tests."""

import numpy as np
import pytest

from repro.errors import (
    CompileError,
    ConfigError,
    ConvergenceError,
    DiagnosticError,
    EstimationError,
    LintError,
    MeasurementError,
    NetlistError,
    PlanAuditError,
    ReproError,
    SearchError,
    ShardExecutionError,
    SimulationError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [NetlistError, ConvergenceError, SimulationError, MeasurementError,
         EstimationError, SearchError, ShardExecutionError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("x")

    def test_convergence_error_carries_diagnostics(self):
        err = ConvergenceError("failed", iterations=12, residual=3.5e-4)
        assert err.iterations == 12
        assert err.residual == pytest.approx(3.5e-4)

    def test_convergence_error_defaults(self):
        err = ConvergenceError("failed")
        assert err.iterations == -1
        assert err.residual != err.residual  # NaN

    def test_one_except_catches_everything(self):
        caught = []
        for exc in (NetlistError("a"), SearchError("b"), SimulationError("c")):
            try:
                raise exc
            except ReproError as e:
                caught.append(type(e).__name__)
        assert caught == ["NetlistError", "SearchError", "SimulationError"]


class TestDiagnosticHierarchy:
    """The typed diagnostic exceptions and their compatibility bridges."""

    def test_config_error_is_value_error(self):
        # Legacy callers catch the builtin; the bridge keeps them working.
        with pytest.raises(ValueError):
            raise ConfigError("bad knob")
        assert issubclass(ConfigError, ReproError)

    @pytest.mark.parametrize(
        "exc,family",
        [
            (CompileError, SimulationError),
            (PlanAuditError, SimulationError),
            (LintError, NetlistError),
        ],
    )
    def test_diagnostic_errors_keep_their_family(self, exc, family):
        assert issubclass(exc, DiagnosticError)
        assert issubclass(exc, family)
        with pytest.raises(family):
            raise exc("x")

    def test_code_and_diagnostics_carried(self):
        err = DiagnosticError("msg", code="P001", diagnostics=("d1", "d2"))
        assert err.code == "P001"
        assert err.diagnostics == ("d1", "d2")

    def test_defaults(self):
        err = DiagnosticError("msg")
        assert err.code is None
        assert err.diagnostics == ()


class TestFaultToleranceErrors:
    """The sharded engine's typed exception and its fields."""

    def test_shard_execution_error_carries_context(self):
        cause = ValueError("worker blew up")
        err = ShardExecutionError("shard 3 died", shard_index=3, cause=cause)
        assert err.shard_index == 3
        assert err.cause is cause
        # Estimation-family: one except EstimationError catches it.
        with pytest.raises(EstimationError):
            raise err

    def test_shard_execution_error_defaults(self):
        err = ShardExecutionError("x")
        assert err.shard_index == -1
        assert err.cause is None


class TestNoBareBuiltins:
    """Public entry points reject bad input with typed repro errors.

    Every rejection must be catchable as ``ReproError`` — the builtin
    types (``ValueError`` et al.) may appear only as compatibility base
    classes, never as the raised type itself.
    """

    def _assert_typed(self, fn):
        with pytest.raises(ReproError) as exc:
            fn()
        assert isinstance(exc.value, ReproError)
        assert type(exc.value).__module__ == "repro.errors"

    def test_compile_rejections(self):
        from repro.spice.compile import CompiledTransient
        from repro.spice.netlist import Circuit

        grid = np.linspace(0.0, 1e-9, 4)
        self._assert_typed(
            lambda: CompiledTransient(Circuit("t"), grid, kernel="nope")
        )
        self._assert_typed(
            lambda: CompiledTransient(Circuit("t"), grid, assembly="nope")
        )
        self._assert_typed(lambda: CompiledTransient(Circuit("t"), grid))

    def test_netlist_rejections(self):
        from repro.spice.elements import Resistor
        from repro.spice.netlist import Circuit

        c = Circuit("t")
        c.add(Resistor("r1", "a", "b", 1.0))
        self._assert_typed(lambda: c.add(Resistor("r1", "a", "b", 1.0)))
        self._assert_typed(lambda: c.index_of("missing"))

    def test_engine_rejections(self):
        from repro.engine import split_budget

        self._assert_typed(lambda: split_budget(10, 0))
        self._assert_typed(lambda: split_budget(-1, 2))

    def test_config_rejections(self):
        from repro.highsigma.sigma import array_yield
        from repro.sram.column import ColumnConfig, ReadColumn
        from repro.variation.pelgrom import vth_mismatch_sigma

        self._assert_typed(lambda: array_yield(1.5, 1024))
        self._assert_typed(lambda: array_yield(0.1, 0))
        self._assert_typed(lambda: vth_mismatch_sigma(None, -1.0, 1.0))
        self._assert_typed(
            lambda: ReadColumn(config=ColumnConfig(leaker_data="nope"))
        )

    def test_sram_config_rejections(self):
        from repro.sram.array import ArrayConfig, ArraySlice

        self._assert_typed(lambda: ArraySlice(config=ArrayConfig(n_cols=0)))
        self._assert_typed(
            lambda: ArraySlice(config=ArrayConfig(n_cols=2, sel_col=5))
        )
