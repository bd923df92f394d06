"""Declarative acceptance gates over measured benchmark sections.

Every threshold the four historical drivers asserted imperatively —
per-section wall-clock factors against the committed baseline, internal
ratio floors (batched >= 2x scalar, sparse >= 2x dense, Schur >= 1.5x
blocked, fast >= reference, warm plan-cache hit >= 2x cold compile),
ratio ceilings (spawn pool <= 1.5x fork), and bit-identity contracts
(sharding across worker counts, spawn vs fork pools) — is a
:class:`GateSpec` here: declarative data evaluated uniformly by
:func:`evaluate_gates`.  A failure always reports the gate id, the
measured value and the threshold it broke, so a red CI line is
actionable without re-reading the section body.

Gate kinds:

``ratio_min``
    ``values[key] >= threshold`` — speedup floors.
``ratio_max``
    ``values[key] <= threshold`` — overhead ceilings and relative-error
    tolerances.
``bool_true``
    ``values[key]`` is truthy — bit-identity and sanity contracts.
``wall_factor``
    section wall-clock <= ``factor * max(baseline_seconds,
    min_section)`` — the committed-baseline regression tripwire, with
    the ``min_section`` noise floor protecting near-instant sections
    from timer jitter.  Evaluated only when a baseline is supplied
    (plain runs skip it, ``--check`` enforces it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, List, Mapping, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # registry imports gates; type-only in the other direction
    from repro.bench.registry import SectionResult

GATE_KINDS = ("ratio_min", "ratio_max", "bool_true", "wall_factor")

#: Default noise floor (seconds) for ``wall_factor`` gates: sections
#: whose baseline is below this are gated against ``factor * floor``.
DEFAULT_MIN_SECTION = 0.5

#: Default wall-clock regression factor against the committed baseline.
DEFAULT_WALL_FACTOR = 2.0


@dataclass(frozen=True)
class GateSpec:
    """One declarative acceptance gate.

    ``gate_id`` is the stable identifier failure messages and reports
    carry; ``section`` names the section whose result is examined;
    ``key`` selects the measured value (ignored for ``wall_factor``,
    which gates the section's own wall-clock).
    """

    gate_id: str
    kind: str
    section: str = ""
    key: str = ""
    threshold: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ConfigError(
                f"unknown gate kind {self.kind!r} for gate {self.gate_id!r}; "
                f"expected one of {GATE_KINDS}"
            )


@dataclass(frozen=True)
class GateOutcome:
    """The result of evaluating one :class:`GateSpec` against a run."""

    spec: GateSpec
    passed: bool
    measured: Optional[float] = None
    threshold: Optional[float] = None
    reason: str = ""
    skipped: bool = False

    @property
    def gate_id(self) -> str:
        return self.spec.gate_id

    @property
    def failed(self) -> bool:
        return not self.passed and not self.skipped

    def to_json(self) -> dict:
        return {
            "gate_id": self.spec.gate_id,
            "section": self.spec.section,
            "kind": self.spec.kind,
            "passed": self.passed,
            "skipped": self.skipped,
            "measured": self.measured,
            "threshold": self.threshold,
            "reason": self.reason,
        }


def format_outcome(outcome: GateOutcome) -> str:
    """One human-readable line per gate; failures carry id, measured
    value and threshold (the acceptance criterion for a red CI line)."""
    spec = outcome.spec
    if outcome.skipped:
        return f"gate {spec.gate_id:40s} SKIP  ({outcome.reason})"
    op = {"ratio_min": ">=", "ratio_max": "<=", "bool_true": "==",
          "wall_factor": "<="}[spec.kind]
    want = "True" if spec.kind == "bool_true" else f"{outcome.threshold}"
    unit = " s" if spec.kind == "wall_factor" else ""
    status = "ok" if outcome.passed else "FAIL"
    line = (
        f"gate {spec.gate_id:40s} {status:4s}  "
        f"measured={outcome.measured}{unit} {op} threshold={want}{unit}"
    )
    if outcome.reason and not outcome.passed:
        line += f"  ({outcome.reason})"
    return line


def _evaluate_wall(
    spec: GateSpec,
    seconds: float,
    baseline: Optional[Mapping[str, float]],
    factor: Optional[float],
    min_section: float,
) -> GateOutcome:
    if baseline is None:
        return GateOutcome(
            spec, passed=True, skipped=True,
            reason="no baseline supplied (plain run)",
        )
    base = baseline.get(spec.section)
    if not isinstance(base, (int, float)):
        return GateOutcome(
            spec, passed=False, measured=seconds,
            reason=(
                f"section {spec.section!r} missing from the committed "
                "baseline; re-record with --update-baseline"
            ),
        )
    eff_factor = spec.threshold if factor is None else factor
    limit = eff_factor * max(float(base), min_section)
    return GateOutcome(
        spec,
        passed=seconds <= limit,
        measured=round(seconds, 3),
        threshold=round(limit, 3),
        reason=(
            f"factor {eff_factor} x max(baseline {float(base):.3f} s, "
            f"noise floor {min_section} s)"
        ),
    )


def evaluate_gates(
    specs: Iterable[GateSpec],
    results: Mapping[str, "SectionResult"],
    baseline: Optional[Mapping[str, float]] = None,
    factor: Optional[float] = None,
    min_section: float = DEFAULT_MIN_SECTION,
) -> List[GateOutcome]:
    """Evaluate every gate against a run's section results.

    ``results`` maps section name to a
    :class:`repro.bench.registry.SectionResult` (anything exposing
    ``seconds``/``values``/``valid``/``reason`` works).  Gates whose
    section was not selected for this run are skipped; gates whose
    section ran but failed internally fail with the section's reason.
    """
    outcomes: List[GateOutcome] = []
    for spec in specs:
        result = results.get(spec.section)
        if result is None:
            outcomes.append(GateOutcome(
                spec, passed=True, skipped=True,
                reason="section not selected for this run",
            ))
            continue
        if not result.valid:
            outcomes.append(GateOutcome(
                spec, passed=False,
                reason=f"section failed: {result.reason}",
            ))
            continue
        if spec.kind == "wall_factor":
            outcomes.append(_evaluate_wall(
                spec, result.seconds, baseline, factor, min_section
            ))
            continue
        value = result.values.get(spec.key)
        if value is None:
            outcomes.append(GateOutcome(
                spec,
                passed=False,
                reason=f"value {spec.key!r} not measured by section {spec.section!r}",
            ))
            continue
        if spec.kind == "bool_true":
            outcomes.append(GateOutcome(
                spec, passed=bool(value), measured=bool(value),
                threshold=True,
            ))
        elif spec.kind == "ratio_min":
            outcomes.append(GateOutcome(
                spec, passed=float(value) >= spec.threshold,
                measured=float(value), threshold=spec.threshold,
            ))
        else:  # ratio_max
            outcomes.append(GateOutcome(
                spec, passed=float(value) <= spec.threshold,
                measured=float(value), threshold=spec.threshold,
            ))
    return outcomes


def evaluate_total_gate(
    total_seconds: float,
    baseline: Optional[Mapping[str, float]],
    factor: Optional[float] = None,
    min_section: float = DEFAULT_MIN_SECTION,
) -> GateOutcome:
    """The suite-total wall gate: total <= factor * baseline['total'].

    Per-section gates stop a regression hiding behind an unrelated
    speedup; the total gate stops death by a thousand sub-floor cuts.
    """
    spec = GateSpec(
        gate_id="wall.total", kind="wall_factor", section="total",
        threshold=DEFAULT_WALL_FACTOR,
        description="suite total vs committed baseline",
    )
    return _evaluate_wall(spec, total_seconds, baseline, factor, min_section)


def bind_section(spec: GateSpec, section: str) -> GateSpec:
    """Return ``spec`` bound to ``section`` (used at registration, so
    gate tables written next to a section never repeat its name)."""
    if spec.section:
        return spec
    return replace(spec, section=section)
