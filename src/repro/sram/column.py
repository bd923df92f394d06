"""Bitline column: one accessed cell plus unaccessed leakers.

A real read happens on a column where dozens of half-selected cells leak
onto the same bitlines.  The worst case for read margin is the classic
"all zeros" data pattern: every unaccessed cell holds the datum that
leaks against the accessed cell's bitline differential.  This module
builds that column on the reference MNA engine:

* the accessed cell (suffix ``_a``) drives ``bl``/``blb`` through its
  pass gates with the wordline pulsed;
* ``n_leakers`` unaccessed cells sit on the same bitlines with their
  wordline tied low, contributing subthreshold leakage through their
  (off) pass gates;
* bitline capacitance can either be supplied explicitly or estimated
  per attached cell plus wire.

It deliberately lives on the general engine (not the batched one): the
column is where topology *changes* with configuration, which is exactly
what the general engine is for.  The batched engine's ``cbl`` lump is
calibrated from this model in ``tests/sram/test_column.py``.

Since the compiler grew its sparse assembly pass and structured solves,
the column is also a first-class *sampled* workload:
:meth:`ReadColumn.access_times_batch` bulk-evaluates read access times
over per-cell threshold shifts — the accessed cell *and* every leaker —
so importance sampling can explore the full ``6 * (n_leakers + 1)``
dimensional variation space of the column (see
``make_column_read_limitstate`` in :mod:`repro.experiments.workloads`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.spice.compile import (
    CompiledTransient,
    CrossProbe,
    RetirePolicy,
    ValueProbe,
    transient_grid,
)
from repro.spice.elements import Capacitor, VoltageSource
from repro.spice.plan import compile_cached
from repro.spice.netlist import Circuit
from repro.spice.sources import dc, pulse
from repro.spice.transient import TransientOptions, TransientResult, run_transient
from repro.sram import metrics as sram_metrics
from repro.sram.cell import CellDesign, build_cell, cell_device_names
from repro.sram.testbench import OperationTiming

__all__ = ["ColumnConfig", "ReadColumn"]

#: Per-cell bitline junction loading (drain cap of one pass gate) plus a
#: share of wire, used when no explicit cbl is given.  Farads per cell.
CBL_PER_CELL = 0.12e-15
#: Fixed wire/periphery loading per bitline.  Farads.
CBL_WIRE = 2.0e-15


def _batch_n(delta_vth) -> int:
    """Sample count implied by a dict or matrix variation spec."""
    if isinstance(delta_vth, dict):
        return max(np.atleast_1d(np.asarray(v)).size for v in delta_vth.values())
    return np.atleast_2d(np.asarray(delta_vth, dtype=float)).shape[0]


def _vth_dict(delta_vth, n: int, names: List[str], what: str):
    """Accept a dict of device names or an ``(n, len(names))`` matrix."""
    if delta_vth is None or isinstance(delta_vth, dict):
        return delta_vth
    arr = np.atleast_2d(np.asarray(delta_vth, dtype=float))
    if arr.shape != (n, len(names)):
        raise ConfigError(
            f"delta_vth matrix shape {arr.shape} != ({n}, {len(names)}) "
            f"over {what}"
        )
    return {name: arr[:, j] for j, name in enumerate(names)}


def _access_probes(pos: str, neg: str, dv_spec: float, t_fall: float,
                   access_only: bool) -> tuple:
    """Probes of a column or array plan over the ``pos - neg`` differential.

    The ``access`` cross probe alone when ``access_only``, so a run can
    retire each sample at its crossing; otherwise also the
    ``diff_at_wl_fall`` value probe, which rules retirement out (P006).
    """
    access = CrossProbe("access", {pos: 1.0, neg: -1.0}, offset=-dv_spec)
    if access_only:
        return (access,)
    return (access, ValueProbe("diff_at_wl_fall", {pos: 1.0, neg: -1.0}, t=t_fall))


def _access_retire(ct: CompiledTransient, timing) -> Optional[RetirePolicy]:
    """The policy an access-only run retires under on the fast kernel:
    each sample leaves at its ``access`` crossing once the wordline is at
    half swing, where its metric is fixed.  A sample that never crosses
    never retires, so its penalty reads the final values at ``t_stop``.
    The reference kernel integrates every sample to ``t_stop``."""
    if ct.kernel != "fast":
        return None
    return RetirePolicy("access", after=timing.wl_delay + 0.5 * timing.wl_rise)


def _access_metric(res, pos: str, neg: str, timing, dv_spec: float,
                   penalty_per_volt: float) -> np.ndarray:
    """Access-time metric from a compiled run's ``access`` cross probe.

    Shared by the column (``blb - bl``) and the array slice
    (``dlb - dl``): time from the wordline half-swing to the crossing;
    samples that never develop the differential get the continuous
    shortfall penalty
    ``(t_stop - t_wl) + (dv_spec - diff_final) * penalty_per_volt`` so
    search methods keep a gradient to climb — the one place the
    convention is written down for the compiled bulk benches.
    """
    t_wl_mid = timing.wl_delay + 0.5 * timing.wl_rise
    found = ~np.isnan(res.cross["access"])
    metric = np.empty(found.size)
    metric[found] = res.cross["access"][found] - t_wl_mid
    diff_final = res.final[pos][~found] - res.final[neg][~found]
    shortfall = dv_spec - diff_final
    metric[~found] = (timing.t_stop - t_wl_mid) + shortfall * penalty_per_volt
    return metric


@dataclass(frozen=True)
class ColumnConfig:
    """Column composition.

    ``leaker_data`` chooses the stored value of the unaccessed cells:
    ``"adversarial"`` stores the pattern that leaks against the read
    differential (worst case); ``"friendly"`` stores the opposite.
    """

    n_leakers: int = 15
    leaker_data: str = "adversarial"
    cbl: Optional[float] = None
    vdd: float = 1.0

    def bitline_cap(self) -> float:
        """Effective bitline capacitance for this configuration."""
        if self.cbl is not None:
            return self.cbl
        return CBL_WIRE + (self.n_leakers + 1) * CBL_PER_CELL


class ReadColumn:
    """A read testbench over a full column.

    The accessed cell stores 0 on the ``q`` side (BL discharges).  In the
    adversarial data pattern, every leaker stores the *opposite* datum,
    so its off pass gate leaks BLB charge downward — eroding exactly the
    differential the sense amp needs.
    """

    def __init__(
        self,
        design: Optional[CellDesign] = None,
        config: Optional[ColumnConfig] = None,
        dv_spec: float = 0.12,
        timing: Optional[OperationTiming] = None,
        tran_options: Optional[TransientOptions] = None,
    ):
        if config is not None and config.leaker_data not in ("adversarial", "friendly"):
            raise ConfigError(f"unknown leaker_data {config.leaker_data!r}")
        self.design = design or CellDesign()
        self.config = config or ColumnConfig()
        self.dv_spec = float(dv_spec)
        self.timing = timing or OperationTiming()
        self.tran_options = tran_options or TransientOptions()
        self.circuit = self._build()
        self.n_simulations = 0
        # Compiled-batch samples with at least one non-converged Newton
        # step (``res.converged``); counted, not acted on.
        self.n_nonconverged = 0
        self._compiled: Dict[tuple, CompiledTransient] = {}

    # ------------------------------------------------------------------

    def _build(self) -> Circuit:
        cfg = self.config
        t = self.timing
        circuit = Circuit(f"sram_column_{cfg.n_leakers}leakers")
        circuit.add(VoltageSource("v_vdd", "vdd", "0", dc(cfg.vdd)))
        circuit.add(
            VoltageSource(
                "v_wl", "wl", "0",
                pulse(0.0, cfg.vdd, delay=t.wl_delay, rise=t.wl_rise,
                      fall=t.wl_fall, width=t.wl_width),
            )
        )
        circuit.add(VoltageSource("v_wl_off", "wl_off", "0", dc(0.0)))
        # Accessed cell.
        build_cell(self.design, circuit, q="q_a", qb="qb_a", suffix="_a")
        # Leakers share bl/blb, hang off the grounded wordline, and keep
        # their own internal nodes.
        for k in range(cfg.n_leakers):
            build_cell(
                self.design, circuit,
                q=f"q_l{k}", qb=f"qb_l{k}", wl="wl_off", suffix=f"_l{k}",
            )
        cap = cfg.bitline_cap()
        circuit.add(Capacitor("c_bl", "bl", "0", cap))
        circuit.add(Capacitor("c_blb", "blb", "0", cap))
        return circuit

    def _initial_conditions(self) -> Dict[str, float]:
        cfg = self.config
        ic = {"q_a": 0.0, "qb_a": cfg.vdd, "bl": cfg.vdd, "blb": cfg.vdd}
        for k in range(cfg.n_leakers):
            if cfg.leaker_data == "adversarial":
                # Leaker stores 1 on its q (the bl side): its BLB-side
                # pass gate sees a 0 internal node and pulls BLB down.
                ic[f"q_l{k}"] = cfg.vdd
                ic[f"qb_l{k}"] = 0.0
            else:
                ic[f"q_l{k}"] = 0.0
                ic[f"qb_l{k}"] = cfg.vdd
        return ic

    # ------------------------------------------------------------------

    def accessed_device_names(self) -> List[str]:
        """MOSFET names of the accessed cell (for variation targeting)."""
        return cell_device_names("_a")

    def all_device_names(self) -> List[str]:
        """Every cell MOSFET on the column, accessed cell first, then the
        leakers in build order — each in canonical per-cell order.  This
        is the column order of the bulk variation matrices."""
        names = cell_device_names("_a")
        for k in range(self.config.n_leakers):
            names.extend(cell_device_names(f"_l{k}"))
        return names

    def simulate(self, delta_vth: Optional[Dict[str, float]] = None) -> TransientResult:
        """One transient; ``delta_vth`` maps device names to shifts in volts."""
        applied = []
        if delta_vth:
            for name, shift in delta_vth.items():
                mos = self.circuit[name]
                applied.append((mos, mos.delta_vth))
                mos.delta_vth = float(shift)
        try:
            result = run_transient(
                self.circuit, self.timing.t_stop,
                ic=self._initial_conditions(), options=self.tran_options,
            )
        finally:
            for mos, original in applied:
                mos.delta_vth = original
        self.n_simulations += 1
        return result

    def access_sample(
        self, delta_vth: Optional[Dict[str, float]] = None
    ) -> sram_metrics.MetricSample:
        """Read access time with the column loading and leakage included."""
        res = self.simulate(delta_vth)
        return sram_metrics.read_access_time(
            res.waveform("bl"), res.waveform("blb"), res.waveform("wl"),
            dv_spec=self.dv_spec, vdd=self.config.vdd,
        )

    # ------------------------------------------------------------------
    # Compiled batched path
    # ------------------------------------------------------------------

    def _t_wl_fall(self) -> float:
        t = self.timing
        return t.wl_delay + t.wl_rise + t.wl_width + t.wl_fall

    def compiled(
        self,
        n_steps: int = 400,
        kernel: str = "fast",
        assembly: str = "auto",
        access_only: bool = False,
    ) -> CompiledTransient:
        """The whole column compiled into one batched kernel (cached).

        Two plans share the circuit and grid.  ``access_only=True`` holds
        the ``access`` cross probe alone: :meth:`access_times_batch` runs
        it and retires each sample at its crossing.  The default plan
        also holds the ``diff_at_wl_fall`` value probe that
        :meth:`differential_at_wl_fall_batch` reads, so it never retires.

        Every cell — accessed and leakers — integrates as unknowns
        (``4 + 2 * n_leakers`` nodes), so the compiled path sees exactly
        the leakage topology the scalar column simulates.  Above the
        compiler's node-count threshold the Jacobian assembles through
        the sparse CSR stamp product (bit-equal to the dense matmuls,
        which stay selectable via ``assembly="dense"``), and the solves
        run through the batched Schur complement the compiler derives
        from the column's bordered-block structure — this is what makes
        the column a bulk-sampling workload rather than a per-sample
        curiosity.
        """
        key = (int(n_steps), kernel, assembly, access_only)
        ct = self._compiled.get(key)
        if ct is None:
            ct = compile_cached(
                self.circuit,
                grid=transient_grid(
                    self.timing.t_stop,
                    breakpoints=self.circuit["v_wl"].shape.breakpoints(),
                    n_steps=n_steps,
                ),
                probes=_access_probes(
                    "blb", "bl", self.dv_spec, self._t_wl_fall(), access_only
                ),
                kernel=kernel,
                assembly=assembly,
            )
            self._compiled[key] = ct
        return ct

    def access_times_batch(
        self,
        delta_vth,
        n_steps: int = 400,
        kernel: str = "fast",
        assembly: str = "auto",
        penalty_per_volt: float = 20e-9,
    ) -> np.ndarray:
        """Bulk read access times over per-cell threshold shifts.

        ``delta_vth`` is a dict of device names to per-sample arrays or
        an ``(n, 6 * (n_leakers + 1))`` matrix over
        :meth:`all_device_names` — the accessed cell *and* every leaker
        carry variation, which is what makes the column the
        dimension-scaling workload.  The metric matches the batched 6T
        engine's convention: time from the wordline half-swing to the
        bitline differential reaching ``dv_spec``; samples that never
        develop the differential get the continuous shortfall penalty
        ``(t_stop - t_wl) + (dv_spec - diff_final) * penalty_per_volt``
        so search methods keep a gradient to climb.  Each sample retires
        at its crossing on the fast kernel, so Newton failures after it
        are neither integrated nor counted in ``n_nonconverged``.
        """
        n = _batch_n(delta_vth)
        ct = self.compiled(
            n_steps=n_steps, kernel=kernel, assembly=assembly, access_only=True
        )
        res = ct.run(
            ic=self._initial_conditions(),
            n=n,
            delta_vth=_vth_dict(
                delta_vth, n, self.all_device_names(),
                "the accessed cell plus leakers (all_device_names order)",
            ),
            retire=_access_retire(ct, self.timing),
        )
        self.n_simulations += n
        self.n_nonconverged += int(np.count_nonzero(~res.converged))
        return _access_metric(res, "blb", "bl", self.timing, self.dv_spec,
                              penalty_per_volt)

    def differential_at_wl_fall_batch(
        self,
        delta_vth,
        n_steps: int = 400,
        kernel: str = "fast",
    ) -> np.ndarray:
        """Batched :meth:`differential_at_wl_fall` on the compiled column.

        ``delta_vth`` is a dict of device names to per-sample arrays or
        an ``(n, 6)`` matrix over :meth:`accessed_device_names`.
        """
        n = _batch_n(delta_vth)
        ct = self.compiled(n_steps=n_steps, kernel=kernel)
        res = ct.run(
            ic=self._initial_conditions(),
            n=n,
            delta_vth=_vth_dict(
                delta_vth, n, self.accessed_device_names(),
                "the accessed cell (canonical order)",
            ),
        )
        self.n_simulations += n
        self.n_nonconverged += int(np.count_nonzero(~res.converged))
        return res.value["diff_at_wl_fall"]

    def differential_at_wl_fall(self, delta_vth=None) -> float:
        """BLB-BL differential at the moment the wordline closes (volts).

        The quantity leakage erodes: with enough adversarial leakers it
        can saturate below ``dv_spec`` — a read failure no amount of
        extra time fixes.
        """
        res = self.simulate(delta_vth)
        t = self.timing
        t_fall = t.wl_delay + t.wl_rise + t.wl_width + t.wl_fall
        diff = res.waveform("blb") - res.waveform("bl")
        return diff.at(t_fall)
