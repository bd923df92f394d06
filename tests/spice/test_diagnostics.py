"""Netlist linter: golden diagnostics per code, clean benches, strict mode.

Each defect class gets a minimal circuit that triggers exactly its code;
the five compiled benches and the example testbenches are pinned clean —
the linter must never regress into false positives on the real
workloads.
"""

import numpy as np
import pytest

from repro.errors import LintError
from repro.spice.compile import CompiledTransient, CrossProbe, PeakProbe
from repro.spice.diagnostics import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    format_diagnostics,
    lint_circuit,
    lint_errors,
)
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.spice.mosfet import nmos_45nm
from repro.spice.netlist import Circuit
from repro.sram.benches import BENCH_NAMES, bench_compiled

W, L = 200e-9, 50e-9


def _codes(diags):
    return sorted({d.code for d in diags})


def base_circuit():
    """A minimal clean compilable circuit: one NMOS into a loaded node."""
    c = Circuit("lint-base")
    c.add(VoltageSource("vdd", "vdd", "0", 1.0))
    c.add(VoltageSource("vin", "in", "0", 0.5))
    c.add(Mosfet("m1", "out", "in", "0", "0", nmos_45nm(), w=W, l=L))
    c.add(Resistor("rl", "vdd", "out", 1e5))
    c.add(Capacitor("cl", "out", "0", 1e-15))
    return c


class TestRegistry:
    def test_every_code_documented(self):
        for code, (meaning, hint) in DIAGNOSTIC_CODES.items():
            assert code[0] in "NPDAE" and code[1:].isdigit()
            assert meaning and hint

    def test_str_includes_code_and_hint(self):
        d = Diagnostic("N001", "warning", "x", "msg", "do this")
        assert "N001" in str(d) and "do this" in str(d)

    def test_format_empty_is_clean(self):
        assert "clean" in format_diagnostics([])


class TestGoldenDefects:
    def test_clean_base(self):
        assert lint_circuit(base_circuit()) == []

    def test_n001_dangling_node(self):
        c = base_circuit()
        c.add(Capacitor("cd", "stub", "out", 1e-15))
        diags = [d for d in lint_circuit(c) if d.code == "N001"]
        assert len(diags) == 1
        assert diags[0].severity == "warning"
        assert diags[0].subject == "stub"

    def test_n002_disconnected_island(self):
        c = base_circuit()
        c.add(Resistor("ri", "isla", "islb", 1e3))
        c.add(Capacitor("ci", "isla", "islb", 1e-15))
        diags = lint_circuit(c)
        codes = _codes(diags)
        assert "N002" in codes
        island = [d for d in diags if d.code == "N002"][0]
        assert island.severity == "error"
        assert "isla" in island.subject and "islb" in island.subject

    def test_n003_controlled_sources(self):
        c = base_circuit()
        c.add(Vcvs("e1", "out", "0", "in", "0", gain=2.0))
        c.add(Vccs("g1", "out", "0", "in", "0", gm=1e-3))
        diags = [d for d in lint_circuit(c) if d.code == "N003"]
        assert sorted(d.subject for d in diags) == ["e1", "g1"]
        assert all(d.severity == "error" for d in diags)

    def test_n004_current_source(self):
        c = base_circuit()
        c.add(CurrentSource("i1", "out", "0", 1e-6))
        assert "N004" in _codes(lint_circuit(c))

    def test_n005_floating_and_grounding_sources(self):
        c = base_circuit()
        c.add(VoltageSource("vf", "a", "b", 1.0))
        c.add(Capacitor("ca", "a", "0", 1e-15))
        c.add(Capacitor("cb", "b", "0", 1e-15))
        diags = [d for d in lint_circuit(c) if d.code == "N005"]
        assert [d.subject for d in diags] == ["vf"]

        c2 = base_circuit()
        c2.add(VoltageSource("vg", "0", "gnd", 1.0))
        diags2 = [d for d in lint_circuit(c2) if d.code == "N005"]
        assert [d.subject for d in diags2] == ["vg"]

    def test_n006_multi_driven_node(self):
        c = base_circuit()
        c.add(VoltageSource("vdd2", "vdd", "0", 0.9))
        diags = [d for d in lint_circuit(c) if d.code == "N006"]
        assert [d.subject for d in diags] == ["vdd"]
        assert "vdd2" in diags[0].message

    def test_n007_rail_only_device(self):
        c = base_circuit()
        c.add(Resistor("rr", "vdd", "0", 1e6))
        diags = [d for d in lint_circuit(c) if d.code == "N007"]
        assert [d.subject for d in diags] == ["rr"]

    def test_n008_probe_missing_node(self):
        c = base_circuit()
        probes = [
            CrossProbe("bad_cross", {"nope": 1.0}, offset=0.0),
            PeakProbe("bad_peak", "vdd", t_from=0.0),
        ]
        diags = [d for d in lint_circuit(c, probes=probes) if d.code == "N008"]
        assert sorted(d.subject for d in diags) == ["bad_cross", "bad_peak"]

    def test_n009_no_dc_path(self):
        c = base_circuit()
        # Node reachable only through capacitors: DC operating point is
        # undefined there.
        c.add(Capacitor("cf1", "float", "out", 1e-15))
        c.add(Capacitor("cf2", "float", "0", 1e-15))
        diags = [d for d in lint_circuit(c) if d.code == "N009"]
        assert [d.subject for d in diags] == ["float"]

    def test_n010_no_capacitance(self):
        c = Circuit("lint-nocap")
        c.add(VoltageSource("vdd", "vdd", "0", 1.0))
        c.add(VoltageSource("vin", "in", "0", 0.5))
        c.add(Mosfet("m1", "out", "in", "0", "0", nmos_45nm(), w=W, l=L))
        c.add(Resistor("rl", "vdd", "out", 1e5))
        diags = [d for d in lint_circuit(c) if d.code == "N010"]
        # the mosfet's intrinsic caps() cover its own terminals, so only
        # a truly C-free node reports
        assert all(d.severity == "warning" for d in diags)

    def test_n012_duplicate_probe(self):
        c = base_circuit()
        probes = [
            CrossProbe("p", {"out": 1.0}, offset=0.0),
            CrossProbe("p", {"out": -1.0}, offset=0.0),
        ]
        diags = [d for d in lint_circuit(c, probes=probes) if d.code == "N012"]
        assert [d.subject for d in diags] == ["p"]

    def test_n013_no_mosfets(self):
        c = Circuit("lint-rc")
        c.add(VoltageSource("vdd", "vdd", "0", 1.0))
        c.add(Resistor("r1", "vdd", "out", 1e3))
        c.add(Capacitor("c1", "out", "0", 1e-15))
        assert "N013" in _codes(lint_circuit(c))

    def test_n014_no_unknowns(self):
        c = Circuit("lint-rails")
        c.add(VoltageSource("vdd", "vdd", "0", 1.0))
        c.add(VoltageSource("vin", "in", "0", 0.5))
        c.add(Mosfet("m1", "vdd", "in", "0", "0", nmos_45nm(), w=W, l=L))
        diags = lint_circuit(c)
        assert "N014" in _codes(diags)

    def test_all_findings_in_one_sweep(self):
        """The linter reports every problem, not the first one."""
        c = base_circuit()
        c.add(CurrentSource("i1", "out", "0", 1e-6))
        c.add(Vcvs("e1", "out", "0", "in", "0", gain=2.0))
        c.add(VoltageSource("vf", "x", "y", 1.0))
        codes = _codes(lint_circuit(c))
        for expected in ("N003", "N004", "N005"):
            assert expected in codes

    def test_deterministic_order(self):
        c = base_circuit()
        c.add(CurrentSource("i1", "out", "0", 1e-6))
        c.add(Vcvs("e1", "out", "0", "in", "0", gain=2.0))
        a = lint_circuit(c)
        b = lint_circuit(c)
        assert a == b
        assert [d.code for d in a] == sorted(d.code for d in a)


class TestStrictCompile:
    def test_strict_rejects_linted_circuit(self):
        c = base_circuit()
        c.add(Capacitor("ci", "isla", "islb", 1e-15))  # island
        grid = np.linspace(0.0, 1e-9, 8)
        with pytest.raises(LintError) as exc:
            CompiledTransient(c, grid, strict=True)
        assert exc.value.code == "N002"
        assert any(d.code == "N002" for d in exc.value.diagnostics)

    def test_strict_accepts_clean_circuit(self):
        grid = np.linspace(0.0, 1e-9, 8)
        ct = CompiledTransient(base_circuit(), grid, strict=True)
        assert ct.n_unknowns == 1


class TestBenchesClean:
    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_bench_lints_clean(self, name):
        ct = bench_compiled(name)
        probes = (*ct._cross_probes, *ct._peak_probes, *ct._value_probes)
        diags = lint_circuit(ct.circuit, probes=probes)
        assert diags == [], format_diagnostics(diags)

    def test_example_testbenches_lint_clean(self):
        """The circuits the examples/ scripts build (read + write bench)."""
        from repro.sram.testbench import ReadTestbench, WriteTestbench

        for bench in (ReadTestbench(), WriteTestbench()):
            diags = lint_errors(lint_circuit(bench.circuit))
            assert diags == [], format_diagnostics(diags)
