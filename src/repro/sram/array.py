"""Multi-column array slice: read columns behind a shared bitline mux.

A real SRAM macro does not sense every column: a wordline activates one
cell per column across the whole row, a **column mux** selects one
bitline pair onto shared data lines, and a single sense amplifier
resolves the muxed differential.  The failure statistics of that slice
couple every cell on every column — the selected column's leakage erodes
the differential directly, while the unselected columns load the shared
wordline edge and their muxes leak onto the data lines — and the
variation space grows as ``6 * n_cols * (n_leakers + 1)`` axes.

This module builds that slice:

* ``n_cols`` read columns, each a copy of the
  :class:`~repro.sram.column.ReadColumn` topology — one accessed cell
  driven by the shared wordline plus ``n_leakers`` unaccessed cells on
  the same bitline pair;
* a PMOS column mux (gates on select rails: the selected column's gate
  tied low, the others at VDD) connecting each pair to the shared data
  lines ``dl``/``dlb``;
* one shared sense amplifier (:class:`~repro.sram.senseamp.SenseAmp`)
  that resolves the muxed differential in :meth:`ArraySlice.resolve_batch`.

The whole slice compiles through :class:`~repro.spice.compile
.CompiledTransient`: sparse CSR stamp assembly (bit-equal to the
dense matmuls) and the generalized per-column Schur peel — every cell
pair is an interior block, the border is the set of all bitlines, and
the mux data lines fall out as their own interior singletons once the
bitlines are peeled.  ``solver="blocked"`` keeps the generic guarded
elimination selectable as the cross-check, and ``kernel="reference"``
the per-device one, exactly as on the single column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.spice.compile import CompiledTransient, transient_grid
from repro.spice.elements import Capacitor, Mosfet, VoltageSource
from repro.spice.plan import compile_cached
from repro.spice.netlist import Circuit
from repro.spice.sources import dc, pulse
from repro.spice.transient import TransientOptions, TransientResult, run_transient
from repro.sram import metrics as sram_metrics
from repro.sram.cell import CellDesign, build_cell, cell_device_names
from repro.sram.column import (
    CBL_PER_CELL,
    CBL_WIRE,
    _access_metric,
    _access_probes,
    _access_retire,
    _batch_n,
    _vth_dict,
)
from repro.sram.senseamp import SenseAmp, SenseAmpDesign
from repro.sram.testbench import OperationTiming

__all__ = ["ArrayConfig", "ArraySlice"]

#: Data-line loading per attached mux leg (junction share), farads.
CDL_PER_COLUMN = 0.25e-15
#: Fixed wire/periphery loading per data line (sense-amp input), farads.
CDL_WIRE = 1.5e-15


@dataclass(frozen=True)
class ArrayConfig:
    """Array-slice composition.

    ``n_cols`` columns share the wordline and the mux; ``sel_col`` picks
    which column the mux routes to the sense amplifier.  ``leaker_data``
    chooses the stored value of the unaccessed cells exactly as on the
    single column (``"adversarial"`` leaks against the read
    differential).  ``cbl``/``cdl`` override the estimated bitline /
    data-line capacitances.
    """

    n_cols: int = 4
    n_leakers: int = 15
    leaker_data: str = "adversarial"
    cbl: Optional[float] = None
    cdl: Optional[float] = None
    vdd: float = 1.0
    sel_col: int = 0
    w_mux: float = 200e-9

    def bitline_cap(self) -> float:
        """Effective per-bitline capacitance (same law as the column)."""
        if self.cbl is not None:
            return self.cbl
        return CBL_WIRE + (self.n_leakers + 1) * CBL_PER_CELL

    def dataline_cap(self) -> float:
        """Effective per-data-line capacitance behind the mux."""
        if self.cdl is not None:
            return self.cdl
        return CDL_WIRE + self.n_cols * CDL_PER_COLUMN


class ArraySlice:
    """A read testbench over ``n_cols`` columns, a mux and one sense amp.

    Every accessed cell stores 0 on its ``q`` (BL) side, so each
    column's BL discharges when the shared wordline rises; the mux
    routes the selected column's pair onto ``dl``/``dlb`` where the
    access metric is measured — the slice-level analogue of the
    column's bitline differential, now including the mux's resistance
    and the data-line loading.
    """

    def __init__(
        self,
        design: Optional[CellDesign] = None,
        config: Optional[ArrayConfig] = None,
        sa_design: Optional[SenseAmpDesign] = None,
        dv_spec: float = 0.12,
        timing: Optional[OperationTiming] = None,
        tran_options: Optional[TransientOptions] = None,
    ):
        config = config or ArrayConfig()
        if config.leaker_data not in ("adversarial", "friendly"):
            raise ConfigError(f"unknown leaker_data {config.leaker_data!r}")
        if config.n_cols < 1:
            raise ConfigError(f"n_cols must be >= 1, got {config.n_cols}")
        if not 0 <= config.sel_col < config.n_cols:
            raise ConfigError(
                f"sel_col {config.sel_col} outside [0, {config.n_cols})"
            )
        self.design = design or CellDesign()
        self.config = config
        self.dv_spec = float(dv_spec)
        self.timing = timing or OperationTiming()
        self.tran_options = tran_options or TransientOptions()
        self.sense = SenseAmp(sa_design, vdd=config.vdd)
        self.circuit = self._build()
        self.n_simulations = 0
        # Compiled-batch samples with at least one non-converged Newton
        # step (``res.converged``); counted, not acted on.
        self.n_nonconverged = 0
        self._compiled: Dict[tuple, CompiledTransient] = {}

    # ------------------------------------------------------------------

    @staticmethod
    def _col_suffixes(col: int, n_leakers: int) -> List[str]:
        """Cell suffixes of one column: accessed cell first, then leakers."""
        return [f"_c{col}a"] + [f"_c{col}l{k}" for k in range(n_leakers)]

    def _build(self) -> Circuit:
        cfg = self.config
        t = self.timing
        circuit = Circuit(
            f"sram_array_{cfg.n_cols}cols_{cfg.n_leakers}leakers"
        )
        circuit.add(VoltageSource("v_vdd", "vdd", "0", dc(cfg.vdd)))
        circuit.add(
            VoltageSource(
                "v_wl", "wl", "0",
                pulse(0.0, cfg.vdd, delay=t.wl_delay, rise=t.wl_rise,
                      fall=t.wl_fall, width=t.wl_width),
            )
        )
        circuit.add(VoltageSource("v_wl_off", "wl_off", "0", dc(0.0)))
        # Mux select rails: PMOS pass gates, so the *selected* column's
        # gate sits at 0 V and the unselected gates at VDD (off, leaking
        # only subthreshold onto the data lines — which is part of the
        # physics the slice exists to capture).
        circuit.add(VoltageSource("v_sel_on", "sel_on", "0", dc(0.0)))
        circuit.add(VoltageSource("v_sel_off", "sel_off", "0", dc(cfg.vdd)))

        cap_bl = cfg.bitline_cap()
        for c in range(cfg.n_cols):
            bl, blb = f"bl_c{c}", f"blb_c{c}"
            for j, suffix in enumerate(self._col_suffixes(c, cfg.n_leakers)):
                build_cell(
                    self.design, circuit,
                    q=f"q{suffix}", qb=f"qb{suffix}",
                    bl=bl, blb=blb,
                    wl="wl" if j == 0 else "wl_off",
                    suffix=suffix,
                )
            circuit.add(Capacitor(f"c_{bl}", bl, "0", cap_bl))
            circuit.add(Capacitor(f"c_{blb}", blb, "0", cap_bl))
            sel = "sel_on" if c == cfg.sel_col else "sel_off"
            circuit.add(
                Mosfet(f"m_mux_bl_c{c}", "dl", sel, bl, "vdd",
                       self.design.pmos, w=cfg.w_mux, l=self.design.l)
            )
            circuit.add(
                Mosfet(f"m_mux_blb_c{c}", "dlb", sel, blb, "vdd",
                       self.design.pmos, w=cfg.w_mux, l=self.design.l)
            )
        cap_dl = cfg.dataline_cap()
        circuit.add(Capacitor("c_dl", "dl", "0", cap_dl))
        circuit.add(Capacitor("c_dlb", "dlb", "0", cap_dl))
        return circuit

    def _initial_conditions(self) -> Dict[str, float]:
        cfg = self.config
        ic: Dict[str, float] = {"dl": cfg.vdd, "dlb": cfg.vdd}
        for c in range(cfg.n_cols):
            ic[f"bl_c{c}"] = cfg.vdd
            ic[f"blb_c{c}"] = cfg.vdd
            ic[f"q_c{c}a"] = 0.0
            ic[f"qb_c{c}a"] = cfg.vdd
            for k in range(cfg.n_leakers):
                if cfg.leaker_data == "adversarial":
                    ic[f"q_c{c}l{k}"] = cfg.vdd
                    ic[f"qb_c{c}l{k}"] = 0.0
                else:
                    ic[f"q_c{c}l{k}"] = 0.0
                    ic[f"qb_c{c}l{k}"] = cfg.vdd
        return ic

    # ------------------------------------------------------------------

    def accessed_device_names(self) -> List[str]:
        """MOSFETs of the *selected* column's accessed cell."""
        return cell_device_names(f"_c{self.config.sel_col}a")

    def all_device_names(self) -> List[str]:
        """Every cell MOSFET on the slice, column by column — within a
        column the accessed cell first, then the leakers in build order,
        each in canonical per-cell order.  This is the column order of
        the bulk variation matrices (``6 * n_cols * (n_leakers + 1)``
        names; the mux devices carry no variation axis)."""
        names: List[str] = []
        for c in range(self.config.n_cols):
            for suffix in self._col_suffixes(c, self.config.n_leakers):
                names.extend(cell_device_names(suffix))
        return names

    @property
    def n_variation_devices(self) -> int:
        """Cell-device count: ``6 * n_cols * (n_leakers + 1)``."""
        return 6 * self.config.n_cols * (self.config.n_leakers + 1)

    # ------------------------------------------------------------------
    # Scalar reference path (general MNA engine)
    # ------------------------------------------------------------------

    def simulate(self, delta_vth: Optional[Dict[str, float]] = None) -> TransientResult:
        """One adaptive-grid transient of the whole slice."""
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
        """Read access time measured on the muxed data lines."""
        res = self.simulate(delta_vth)
        return sram_metrics.read_access_time(
            res.waveform("dl"), res.waveform("dlb"), res.waveform("wl"),
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
        solver: str = "auto",
        access_only: bool = False,
    ) -> CompiledTransient:
        """The whole slice compiled into one batched kernel (cached).

        Two plans share the circuit and grid.  ``access_only=True`` holds
        the ``access`` cross probe alone: :meth:`access_times_batch` runs
        it and retires each sample at its crossing.  The default plan
        also holds the ``diff_at_wl_fall`` value probe that
        :meth:`differential_at_wl_fall_batch` and :meth:`resolve_batch`
        read, so it never retires.

        Every cell node, every bitline and both data lines integrate as
        unknowns (``n_cols * (2 * n_leakers + 4) + 2`` of them), so the
        compiled path sees exactly the leakage and mux topology the
        scalar slice simulates.  The Jacobian assembles through the
        sparse CSR stamp product (bit-equal to ``assembly="dense"``)
        and solves through the per-column Schur peel: cell pairs as
        interior blocks, all bitlines as the border, the data lines as
        interior singletons.  ``solver="blocked"`` forces the generic
        guarded elimination — the cross-check the smoke benchmark gates
        the peel against.
        """
        key = (int(n_steps), kernel, assembly, solver, access_only)
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
                    "dlb", "dl", self.dv_spec, self._t_wl_fall(), access_only
                ),
                kernel=kernel,
                assembly=assembly,
                solver=solver,
            )
            self._compiled[key] = ct
        return ct

    def _vth_dict(self, delta_vth, n: int):
        """Accept a device-name dict or an ``(n, 6 * n_cols * (L + 1))``
        matrix over :meth:`all_device_names` (shared column plumbing)."""
        return _vth_dict(
            delta_vth, n, self.all_device_names(),
            "every cell of every column (all_device_names order)",
        )

    def access_times_batch(
        self,
        delta_vth,
        n_steps: int = 400,
        kernel: str = "fast",
        assembly: str = "auto",
        solver: str = "auto",
        penalty_per_volt: float = 20e-9,
    ) -> np.ndarray:
        """Bulk read access times on the muxed data lines.

        ``delta_vth`` is a dict of device names to per-sample arrays or
        an ``(n, 6 * n_cols * (n_leakers + 1))`` matrix over
        :meth:`all_device_names` — every transistor of every cell on the
        slice carries variation.  The metric matches the column
        convention: time from the wordline half-swing to the data-line
        differential reaching ``dv_spec``; samples that never develop
        the differential get the continuous shortfall penalty
        ``(t_stop - t_wl) + (dv_spec - diff_final) * penalty_per_volt``
        so search methods keep a gradient to climb.  Each sample retires
        at its crossing on the fast kernel, so Newton failures after it
        are neither integrated nor counted in ``n_nonconverged``.
        """
        n = _batch_n(delta_vth)
        ct = self.compiled(
            n_steps=n_steps, kernel=kernel, assembly=assembly, solver=solver,
            access_only=True,
        )
        res = ct.run(
            ic=self._initial_conditions(),
            n=n,
            delta_vth=self._vth_dict(delta_vth, n),
            retire=_access_retire(ct, self.timing),
        )
        self.n_simulations += n
        self.n_nonconverged += int(np.count_nonzero(~res.converged))
        return _access_metric(res, "dlb", "dl", self.timing, self.dv_spec,
                              penalty_per_volt)

    def differential_at_wl_fall_batch(
        self,
        delta_vth,
        n_steps: int = 400,
        kernel: str = "fast",
        assembly: str = "auto",
        solver: str = "auto",
    ) -> np.ndarray:
        """Batched data-line differential at the moment the wordline
        closes — the quantity the shared sense amplifier has to resolve.
        Accepts the same variation specs as :meth:`access_times_batch`.
        """
        n = _batch_n(delta_vth)
        ct = self.compiled(
            n_steps=n_steps, kernel=kernel, assembly=assembly, solver=solver
        )
        res = ct.run(
            ic=self._initial_conditions(),
            n=n,
            delta_vth=self._vth_dict(delta_vth, n),
        )
        self.n_simulations += n
        self.n_nonconverged += int(np.count_nonzero(~res.converged))
        return res.value["diff_at_wl_fall"]

    def differential_at_wl_fall(self, delta_vth=None) -> float:
        """Scalar data-line differential at wordline fall (volts)."""
        res = self.simulate(delta_vth)
        diff = res.waveform("dlb") - res.waveform("dl")
        return diff.at(self._t_wl_fall())

    def resolve_batch(
        self,
        delta_vth,
        sa_delta_vth=None,
        n_steps: int = 400,
        kernel: str = "fast",
        assembly: str = "auto",
        solver: str = "auto",
        sa_n_steps: int = 260,
        sa_clip_frac: float = 0.25,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """End-to-end slice read through the shared sense amplifier.

        The compiled slice produces each sample's muxed differential at
        wordline fall; the shared latch then resolves that differential
        with its own mismatch (``sa_delta_vth``: a dict or ``(n, 4)``
        matrix in :data:`~repro.sram.senseamp.SA_DEVICE_ORDER`).
        Returns ``(correct, t_res)`` exactly as
        :meth:`~repro.sram.senseamp.SenseAmp.resolve_batch` — a sample
        whose differential came out backwards (deep leakage) starts the
        latch on the wrong side and fails unless the latch mismatch
        happens to rescue it.

        The latch preset is only meaningful for ``|dv| < vdd / 2`` (a
        latch preset past its decision threshold has already decided);
        a fully developed read differential can exceed that, so the
        differential is clipped to ``sa_clip_frac * vdd`` before it is
        handed to the latch.  The default band is narrower than the
        hard limit because the latch's tail node equilibrates through
        the NMOS pair before SAE fires, drooping the low output by up
        to ~0.1 V — a preset too close to the threshold would "resolve"
        on that droop rather than on the regeneration.  Clipped samples
        keep the correct decision and report the (slightly optimistic)
        resolution time of the band edge.
        """
        diff = self.differential_at_wl_fall_batch(
            delta_vth, n_steps=n_steps, kernel=kernel,
            assembly=assembly, solver=solver,
        )
        band = sa_clip_frac * self.config.vdd
        return self.sense.resolve_batch(
            np.clip(diff, -band, band), sa_delta_vth,
            n_steps=sa_n_steps, kernel=kernel,
        )
