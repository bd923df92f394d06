"""A compact pure-Python circuit simulator (the SPICE substrate).

This subpackage replaces the HSPICE/ngspice + PTM-model dependency of the
original paper with a self-contained modified-nodal-analysis engine:

* :mod:`repro.spice.netlist` — circuit container and node bookkeeping.
* :mod:`repro.spice.elements` — resistors, capacitors, sources, MOSFETs.
* :mod:`repro.spice.mosfet` — smooth EKV-flavoured compact model with
  per-instance threshold/beta variation (vectorised; shared with the
  batched SRAM engine).
* :mod:`repro.spice.dcop` — Newton operating-point solver with gmin and
  source stepping.
* :mod:`repro.spice.transient` — trapezoidal/backward-Euler transient
  analysis with local-truncation-error step control.
* :mod:`repro.spice.waveform` — waveform container and measurements.
* :mod:`repro.spice.compile` — the batched circuit compiler
  (:class:`~repro.spice.compile.CompiledTransient`): a netlist in, a
  fused fixed-grid transient kernel over whole sample blocks out; every
  sampled SRAM workload runs on it.
* :mod:`repro.spice.diagnostics` — coded structural netlist lint
  (``lint_circuit``; the ``N0xx`` codes).
* :mod:`repro.spice.audit` — compile-plan auditor (``audit_plan``; the
  ``P0xx`` codes) proving a :class:`~repro.spice.compile.CompiledTransient`
  well-formed without running it.
* :mod:`repro.spice.plan` — serialized compiled plans
  (:class:`~repro.spice.plan.CompiledPlan`) and the content-addressed
  plan cache (:class:`~repro.spice.plan.PlanCache`,
  :func:`~repro.spice.plan.compile_cached`): compile once, restore
  audited anywhere.
"""

from repro.spice.mosfet import MosfetModel, MosfetOpPoint, nmos_45nm, pmos_45nm
from repro.spice.netlist import Circuit
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.spice.sources import dc, pulse, pwl
from repro.spice.dcop import OperatingPoint, solve_dc
from repro.spice.diagnostics import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    format_diagnostics,
    lint_circuit,
    lint_errors,
)
from repro.spice.audit import assert_plan_clean, audit_plan
from repro.spice.plan import (
    CompiledPlan,
    PlanCache,
    compile_cached,
    plan_fingerprint,
)
from repro.spice.transient import TransientOptions, TransientResult, run_transient
from repro.spice.waveform import Waveform

__all__ = [
    "Circuit",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Vcvs",
    "Vccs",
    "Mosfet",
    "MosfetModel",
    "MosfetOpPoint",
    "nmos_45nm",
    "pmos_45nm",
    "dc",
    "pulse",
    "pwl",
    "solve_dc",
    "OperatingPoint",
    "run_transient",
    "TransientOptions",
    "TransientResult",
    "Waveform",
    "Diagnostic",
    "DIAGNOSTIC_CODES",
    "lint_circuit",
    "lint_errors",
    "format_diagnostics",
    "audit_plan",
    "assert_plan_clean",
    "CompiledPlan",
    "PlanCache",
    "compile_cached",
    "plan_fingerprint",
]
