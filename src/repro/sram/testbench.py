"""Read and write testbenches on the general MNA engine.

A testbench owns a built circuit (cell + bitline loading + sources), the
operation timing, and the initial state; its ``metric(u)`` method is the
black-box ``R^d -> float`` function the high-sigma samplers consume.  The
circuit is built once and retargeted per sample by mutating the MOSFET
variation attributes through a :class:`~repro.variation.VariationSpace` —
no re-netlisting in the sampling loop.

These benches are the *reference* path (arbitrary topology, adaptive
integration).  The vectorised :class:`~repro.sram.batched.Batched6T`
engine reproduces the same read/write operations for large sample counts
and is cross-validated against these benches in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.spice.elements import Capacitor, Resistor, VoltageSource
from repro.spice.netlist import Circuit
from repro.spice.sources import dc, pulse
from repro.spice.transient import TransientOptions, TransientResult, run_transient
from repro.sram.cell import CellDesign, build_cell, cell_device_names
from repro.sram import metrics as sram_metrics
from repro.variation.space import DeviceAxis, VariationSpace

__all__ = ["OperationTiming", "ReadTestbench", "WriteTestbench"]


@dataclass(frozen=True)
class OperationTiming:
    """Wordline pulse timing for one SRAM operation."""

    wl_delay: float = 0.2e-9
    wl_rise: float = 20e-12
    wl_fall: float = 20e-12
    wl_width: float = 2.0e-9
    t_hold: float = 0.5e-9  # observation time after the WL falls

    @property
    def t_stop(self) -> float:
        """Total simulated window."""
        return self.wl_delay + self.wl_rise + self.wl_width + self.wl_fall + self.t_hold


class _CellBench:
    """Shared plumbing: circuit construction, u-space, per-sample runs."""

    def __init__(
        self,
        design: Optional[CellDesign],
        vdd: float,
        timing: OperationTiming,
        include_beta: bool,
        tran_options: Optional[TransientOptions],
    ):
        self.design = design or CellDesign()
        self.vdd = float(vdd)
        self.timing = timing
        self.circuit = self._build()
        axes = []
        for mos in (self.circuit[n] for n in cell_device_names()):
            from repro.variation.pelgrom import beta_mismatch_sigma, vth_mismatch_sigma

            axes.append(DeviceAxis(mos.name, "vth", vth_mismatch_sigma(mos.model, mos.w, mos.l)))
            if include_beta:
                axes.append(
                    DeviceAxis(mos.name, "beta", beta_mismatch_sigma(mos.model, mos.w, mos.l))
                )
        self.space = VariationSpace(axes)
        self.tran_options = tran_options or TransientOptions()
        self.n_simulations = 0

    # subclasses override -------------------------------------------------

    def _build(self) -> Circuit:
        raise NotImplementedError

    def _initial_conditions(self) -> Dict[str, float]:
        raise NotImplementedError

    # ---------------------------------------------------------------------

    @property
    def dim(self) -> int:
        """u-space dimensionality of this bench."""
        return self.space.dim

    def simulate(self, u: Optional[np.ndarray] = None) -> TransientResult:
        """Run one transient at variation vector ``u`` (nominal if None)."""
        if u is not None:
            self.space.apply(self.circuit, np.asarray(u, dtype=float))
        try:
            result = run_transient(
                self.circuit,
                self.timing.t_stop,
                ic=self._initial_conditions(),
                options=self.tran_options,
            )
        finally:
            if u is not None:
                self.space.reset(self.circuit)
        self.n_simulations += 1
        return result


class ReadTestbench(_CellBench):
    """Read-access testbench: precharged bitlines, one WL pulse, cell reads 0.

    Parameters
    ----------
    design:
        Cell geometry (default :class:`~repro.sram.cell.CellDesign`).
    vdd:
        Supply voltage in volts.
    cbl:
        Bitline capacitance in farads (lumped column loading; 10 fF is a
        64-cell column with wire parasitics at this node).
    dv_spec:
        Bitline differential required by the sense amplifier, in volts.
    timing:
        Wordline pulse timing.
    include_beta:
        Add per-device beta axes to the u-space (doubles the dimension).
    """

    def __init__(
        self,
        design: Optional[CellDesign] = None,
        vdd: float = 1.0,
        cbl: float = 10e-15,
        dv_spec: float = 0.12,
        timing: Optional[OperationTiming] = None,
        include_beta: bool = False,
        tran_options: Optional[TransientOptions] = None,
    ):
        self.cbl = float(cbl)
        self.dv_spec = float(dv_spec)
        super().__init__(design, vdd, timing or OperationTiming(), include_beta, tran_options)

    def _build(self) -> Circuit:
        t = self.timing
        circuit = Circuit("sram_read_bench")
        circuit.add(VoltageSource("v_vdd", "vdd", "0", dc(self.vdd)))
        circuit.add(
            VoltageSource(
                "v_wl",
                "wl",
                "0",
                pulse(0.0, self.vdd, delay=t.wl_delay, rise=t.wl_rise, fall=t.wl_fall, width=t.wl_width),
            )
        )
        build_cell(self.design, circuit)
        circuit.add(Capacitor("c_bl", "bl", "0", self.cbl))
        circuit.add(Capacitor("c_blb", "blb", "0", self.cbl))
        return circuit

    def _initial_conditions(self) -> Dict[str, float]:
        return {"q": 0.0, "qb": self.vdd, "bl": self.vdd, "blb": self.vdd}

    def access_sample(self, u: Optional[np.ndarray] = None) -> sram_metrics.MetricSample:
        """Read access time sample (penalty-extended; see metrics module)."""
        res = self.simulate(u)
        return sram_metrics.read_access_time(
            res.waveform("bl"),
            res.waveform("blb"),
            res.waveform("wl"),
            dv_spec=self.dv_spec,
            vdd=self.vdd,
        )

    def metric(self, u: Optional[np.ndarray] = None) -> float:
        """Read access time in seconds (the sampler-facing scalar)."""
        return self.access_sample(u).value

    def disturb_metric(self, u: Optional[np.ndarray] = None) -> float:
        """Peak read disturbance of the low node, in volts."""
        res = self.simulate(u)
        return sram_metrics.read_disturb_peak(
            res.waveform("q"), res.waveform("wl"), vdd=self.vdd
        ).value


class WriteTestbench(_CellBench):
    """Write testbench: drivers pull BL low / BLB high into a cell storing 1.

    ``rdrv`` models the write-driver on-resistance.  The metric is the
    write trip time; a dynamic write failure is a trip time exceeding the
    wordline pulse width.
    """

    def __init__(
        self,
        design: Optional[CellDesign] = None,
        vdd: float = 1.0,
        rdrv: float = 200.0,
        cbl: float = 10e-15,
        timing: Optional[OperationTiming] = None,
        include_beta: bool = False,
        tran_options: Optional[TransientOptions] = None,
    ):
        self.rdrv = float(rdrv)
        self.cbl = float(cbl)
        super().__init__(design, vdd, timing or OperationTiming(), include_beta, tran_options)

    def _build(self) -> Circuit:
        t = self.timing
        circuit = Circuit("sram_write_bench")
        circuit.add(VoltageSource("v_vdd", "vdd", "0", dc(self.vdd)))
        circuit.add(
            VoltageSource(
                "v_wl",
                "wl",
                "0",
                pulse(0.0, self.vdd, delay=t.wl_delay, rise=t.wl_rise, fall=t.wl_fall, width=t.wl_width),
            )
        )
        build_cell(self.design, circuit)
        # Write drivers: BL to ground, BLB to VDD, through the driver
        # on-resistance; the bitline capacitance still loads the nodes.
        circuit.add(VoltageSource("v_bl_drv", "bl_drv", "0", dc(0.0)))
        circuit.add(Resistor("r_bl_drv", "bl_drv", "bl", self.rdrv))
        circuit.add(VoltageSource("v_blb_drv", "blb_drv", "0", dc(self.vdd)))
        circuit.add(Resistor("r_blb_drv", "blb_drv", "blb", self.rdrv))
        circuit.add(Capacitor("c_bl", "bl", "0", self.cbl))
        circuit.add(Capacitor("c_blb", "blb", "0", self.cbl))
        return circuit

    def _initial_conditions(self) -> Dict[str, float]:
        return {"q": self.vdd, "qb": 0.0, "bl": 0.0, "blb": self.vdd}

    def trip_sample(self, u: Optional[np.ndarray] = None) -> sram_metrics.MetricSample:
        """Write trip time sample (penalty-extended)."""
        res = self.simulate(u)
        return sram_metrics.write_trip_time(
            res.waveform("q"), res.waveform("qb"), res.waveform("wl"), vdd=self.vdd
        )

    def metric(self, u: Optional[np.ndarray] = None) -> float:
        """Write trip time in seconds (the sampler-facing scalar)."""
        return self.trip_sample(u).value
