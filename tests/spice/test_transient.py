"""Transient engine tests against closed-form RC answers."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.spice.elements import Capacitor, Mosfet, Resistor, VoltageSource
from repro.spice.mosfet import nmos_45nm, pmos_45nm
from repro.spice.netlist import Circuit
from repro.spice.sources import dc, pulse, pwl
from repro.spice.transient import TransientOptions, run_transient


def rc_circuit(r=1e3, c=1e-12, src=None):
    circuit = Circuit("rc")
    circuit.add(VoltageSource("vin", "in", "0", src if src is not None else dc(1.0)))
    circuit.add(Resistor("r", "in", "out", r))
    circuit.add(Capacitor("c", "out", "0", c))
    return circuit


class TestRcAnalytic:
    def test_step_response_curve(self):
        # Step at t=1ns through tau=1ns: v(t) = 1 - exp(-(t-1ns)/tau).
        src = pulse(0, 1, delay=1e-9, rise=1e-13, width=50e-9)
        res = run_transient(rc_circuit(src=src), 8e-9)
        w = res.waveform("out")
        for t_after_tau in (0.5, 1.0, 2.0, 4.0):
            expected = 1.0 - np.exp(-t_after_tau)
            assert w.at(1e-9 + t_after_tau * 1e-9) == pytest.approx(expected, abs=0.01)

    def test_discharge(self):
        src = pulse(1, 0, delay=1e-9, rise=1e-13, width=50e-9)
        res = run_transient(rc_circuit(src=src), 6e-9)
        w = res.waveform("out")
        assert w.at(1e-9) == pytest.approx(1.0, abs=0.01)
        assert w.at(2e-9) == pytest.approx(np.exp(-1.0), abs=0.01)

    def test_dc_source_stays_settled(self):
        res = run_transient(rc_circuit(), 5e-9)
        w = res.waveform("out")
        assert np.all(np.abs(w.values - 1.0) < 1e-6)

    def test_pwl_ramp_tracks(self):
        # Slow ramp (much slower than tau): output follows input closely.
        src = pwl([(0.0, 0.0), (50e-9, 1.0)])
        res = run_transient(rc_circuit(src=src), 50e-9)
        w = res.waveform("out")
        # At 25 ns input is 0.5; output lags by about tau * slope = 0.02.
        assert w.at(25e-9) == pytest.approx(0.5 - 0.02, abs=0.01)

    def test_cap_divider_jump(self):
        # Two series caps divide a fast step by the capacitance ratio.
        circuit = Circuit("capdiv")
        circuit.add(VoltageSource("vin", "in", "0", pulse(0, 1, delay=0.5e-9, rise=1e-12)))
        circuit.add(Capacitor("c1", "in", "mid", 2e-15))
        circuit.add(Capacitor("c2", "mid", "0", 2e-15))
        circuit.add(Resistor("rleak", "mid", "0", 1e9))  # define DC
        res = run_transient(circuit, 2e-9)
        assert res.waveform("mid").vmax() == pytest.approx(0.5, abs=0.03)


def inverter_delays(dvth_n=0.0, dvth_p=0.0):
    """(falling-output, rising-output) delays of a loaded inverter whose
    NMOS and PMOS thresholds are shifted by ``dvth_n`` and ``dvth_p``."""
    c = Circuit("inv")
    c.add(VoltageSource("vdd", "vdd", "0", 1.0))
    c.add(VoltageSource("vin", "in", "0", pulse(0, 1, delay=0.2e-9, rise=20e-12, width=1e-9)))
    c.add(Mosfet("mp", "out", "in", "vdd", "vdd", pmos_45nm(), w=180e-9, l=50e-9))
    c.add(Mosfet("mn", "out", "in", "0", "0", nmos_45nm(), w=120e-9, l=50e-9))
    c.add(Capacitor("cl", "out", "0", 2e-15))
    c["mn"].delta_vth = dvth_n
    c["mp"].delta_vth = dvth_p
    res = run_transient(c, 2.5e-9)
    vin, vout = res.waveform("in"), res.waveform("out")
    return (
        vin.delay_to(vout, 0.5, 0.5, "rise", "fall"),
        vin.delay_to(vout, 0.5, 0.5, "fall", "rise"),
    )


class TestThresholdSensitivity:
    # Device-level physics the variation axes rely on: a higher threshold
    # weakens the device that drives the edge.
    def test_nmos_vth_slows_falling_output(self):
        fast, _ = inverter_delays(dvth_n=-0.03)
        nominal, _ = inverter_delays()
        slow, _ = inverter_delays(dvth_n=0.03)
        assert fast < nominal < slow

    def test_pmos_vth_slows_rising_output(self):
        _, fast = inverter_delays(dvth_p=-0.03)
        _, nominal = inverter_delays()
        _, slow = inverter_delays(dvth_p=0.03)
        assert fast < nominal < slow

    def test_pmos_barely_moves_falling_output(self):
        # The PMOS is off through most of a falling transition.
        n_swing = inverter_delays(dvth_n=0.03)[0] - inverter_delays(dvth_n=-0.03)[0]
        p_swing = inverter_delays(dvth_p=0.03)[0] - inverter_delays(dvth_p=-0.03)[0]
        assert abs(p_swing) < 0.1 * abs(n_swing)


class TestInitialConditions:
    def test_ic_clamp_holds_node(self):
        circuit = rc_circuit(src=dc(0.0))
        res = run_transient(circuit, 3e-9, ic={"out": 0.8})
        w = res.waveform("out")
        assert w.values[0] == pytest.approx(0.8, abs=0.01)
        # ... then discharges toward the source value with tau = 1 ns.
        assert w.at(1e-9) == pytest.approx(0.8 * np.exp(-1.0), abs=0.02)

    def test_sram_like_bistable_holds_state(self):
        # Cross-coupled inverters must hold the state the ICs set.
        c = Circuit("latch")
        c.add(VoltageSource("vdd", "vdd", "0", 1.0))
        for side, (inp, out) in enumerate((("qb", "q"), ("q", "qb"))):
            c.add(Mosfet(f"mp{side}", out, inp, "vdd", "vdd", pmos_45nm(), w=80e-9, l=50e-9))
            c.add(Mosfet(f"mn{side}", out, inp, "0", "0", nmos_45nm(), w=140e-9, l=50e-9))
        res = run_transient(c, 5e-9, ic={"q": 0.0, "qb": 1.0})
        assert res.final_voltage("q") == pytest.approx(0.0, abs=0.02)
        assert res.final_voltage("qb") == pytest.approx(1.0, abs=0.02)


class TestErrors:
    def test_negative_tstop_rejected(self):
        with pytest.raises(SimulationError):
            run_transient(rc_circuit(), -1e-9)

    def test_pure_resistive_circuit_rejected(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", 1.0))
        c.add(Resistor("r", "a", "0", 1e3))
        with pytest.raises(SimulationError):
            run_transient(c, 1e-9)


class TestStepControl:
    def test_breakpoints_are_hit_exactly(self):
        src = pulse(0, 1, delay=1e-9, rise=0.1e-9, width=1e-9)
        res = run_transient(rc_circuit(src=src), 4e-9)
        for corner in (1e-9, 1.1e-9, 2.1e-9):
            assert np.min(np.abs(res.times - corner)) < 1e-15

    def test_max_step_respected(self):
        opts = TransientOptions(max_step=0.05e-9)
        res = run_transient(rc_circuit(), 2e-9, options=opts)
        assert np.max(np.diff(res.times)) <= 0.05e-9 + 1e-18

    def test_counters_populated(self):
        res = run_transient(rc_circuit(), 2e-9)
        assert res.steps_accepted == len(res.times) - 1
        assert res.newton_iterations >= res.steps_accepted
