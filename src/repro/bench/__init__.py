"""Unified benchmark harness: sections, gates, reports.

One package owns everything that produces or consumes performance
evidence:

* :mod:`repro.bench.registry` — the ``@section`` registry (tags,
  setup/run split, repeat statistics);
* :mod:`repro.bench.gates` — declarative :class:`GateSpec` acceptance
  gates evaluated uniformly (wall-clock factors, ratio floors and
  ceilings, bit-identity);
* :mod:`repro.bench.report` — the one versioned JSON report schema
  every driver emits;
* :mod:`repro.bench.meta` — host provenance for every record;
* :mod:`repro.bench.sections` — the registered workloads (tags
  ``smoke``/``kernel``/``sharding``/``service``/...);
* :mod:`repro.bench.cli` — the ``repro-bench`` entry point
  (``python -m repro.bench``).

Importing :mod:`repro.bench` stays cheap: sections (and numpy-heavy
workload code) load only when a suite actually runs.
"""

from repro.bench.gates import GateOutcome, GateSpec, evaluate_gates, format_outcome
from repro.bench.meta import host_metadata
from repro.bench.registry import (
    REGISTRY,
    Registry,
    Section,
    SectionResult,
    run_section,
    run_sections,
    section,
)
from repro.bench.report import SCHEMA_VERSION, build_report, load_report, write_report

__all__ = [
    "GateOutcome",
    "GateSpec",
    "evaluate_gates",
    "format_outcome",
    "host_metadata",
    "REGISTRY",
    "Registry",
    "Section",
    "SectionResult",
    "run_section",
    "run_sections",
    "section",
    "SCHEMA_VERSION",
    "build_report",
    "load_report",
    "write_report",
]
