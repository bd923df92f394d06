"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate simulator convergence problems from user
configuration mistakes.

Diagnostic-carrying errors (:class:`DiagnosticError` and its subclasses)
additionally expose a machine-readable ``code`` (one of the registered
``N0xx``/``P0xx``/``D0xx`` codes in
:data:`repro.spice.diagnostics.DIAGNOSTIC_CODES`) and the full list of
:class:`~repro.spice.diagnostics.Diagnostic` findings that triggered the
raise, so tooling can report structured findings instead of parsing
messages.
"""

from __future__ import annotations

from typing import Optional, Sequence


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Raised for malformed circuit descriptions.

    Examples: duplicate element names, references to undeclared model
    cards, or an element wired to a node name that is empty.
    """


class ConvergenceError(ReproError):
    """Raised when a Newton solve (DC or a transient step) fails to converge.

    Carries the iteration count and the final residual norm so calling code
    (for example the high-sigma samplers, which must treat non-convergent
    samples deliberately) can log meaningful diagnostics.
    """

    def __init__(self, message: str, iterations: int = -1, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class SimulationError(ReproError):
    """Raised for non-convergence-related simulation failures.

    Examples: a transient analysis asked to run for non-positive time, or a
    timestep underflow after repeated rejections.
    """


class MeasurementError(ReproError):
    """Raised when a waveform measurement cannot be computed.

    The classic case is a delay measurement whose trigger or target
    crossing never happens inside the simulated window; dynamic-stability
    metrics rely on catching this to classify a sample as a functional
    failure rather than a numerical accident.
    """


class EstimationError(ReproError):
    """Raised when a statistical estimator cannot produce a result.

    For example: an importance-sampling run that observed zero failures, or
    a scaled-sigma regression with too few non-degenerate points to fit.
    """


class SearchError(ReproError):
    """Raised when the most-probable-failure-point search fails.

    Typically means no failure direction could be found within the allowed
    simulation budget; samplers surface this to the user rather than
    silently returning a garbage shift vector.
    """


class ConfigError(ReproError, ValueError):
    """Raised for invalid user-supplied configuration.

    Examples: a variation matrix whose shape disagrees with the device
    count, a negative column height, an unknown leakage-data mode.  Also a
    :class:`ValueError` so existing callers that catch the builtin keep
    working.
    """


class DiagnosticError(ReproError):
    """Base for errors that carry structured static-analysis findings.

    ``code`` is the primary diagnostic code (``N0xx`` netlist, ``P0xx``
    plan, ``D0xx`` determinism; see
    :data:`repro.spice.diagnostics.DIAGNOSTIC_CODES`), and ``diagnostics``
    holds every :class:`~repro.spice.diagnostics.Diagnostic` collected
    before the raise (possibly just the one matching ``code``).
    """

    def __init__(
        self,
        message: str,
        code: Optional[str] = None,
        diagnostics: Sequence[object] = (),
    ):
        super().__init__(message)
        self.code = code
        self.diagnostics = tuple(diagnostics)


class LintError(DiagnosticError, NetlistError):
    """Raised when the netlist linter finds error-severity problems.

    Also a :class:`NetlistError`: strict compilation turns structural
    lint findings into the same class of failure a malformed netlist
    produces.
    """


class CompileError(DiagnosticError, SimulationError):
    """Raised when the batched compiler rejects a circuit, with a code.

    Also a :class:`SimulationError` (the class the compiler historically
    raised), so ``except SimulationError`` call sites keep working.
    """


class PlanAuditError(DiagnosticError, SimulationError):
    """Raised when :func:`repro.spice.audit.assert_plan_clean` finds a
    malformed compiled plan — the admission gate for cached or
    remotely-deserialized plans."""


class RequestError(DiagnosticError, ConfigError):
    """Raised when a :mod:`repro.api` request fails eager validation.

    Carries one of the stable ``A0xx`` codes from
    :data:`repro.spice.diagnostics.DIAGNOSTIC_CODES` (unknown workload,
    unknown knob, malformed envelope, ...), so the HTTP service can map
    it onto a structured 4xx JSON body without parsing the message.
    Also a :class:`ConfigError` (hence a :class:`ValueError`): the CLI
    and library callers that already treat configuration mistakes as
    exit-2 usage errors keep working unchanged.
    """


class ShardExecutionError(EstimationError):
    """Raised when a shard of a sharded run fails.

    The first shard that raises, loses its worker process or outlives
    the runner's timeout ends the run.  Carries the shard index and the
    underlying failure (``cause``), so callers can distinguish "one
    shard hung" from "the estimator itself is broken".  Also an
    :class:`EstimationError`: a lost shard means the estimate could not
    be produced.
    """

    def __init__(
        self,
        message: str,
        shard_index: int = -1,
        cause: Optional[BaseException] = None,
    ):
        super().__init__(message)
        self.shard_index = shard_index
        self.cause = cause
