"""Fused fast kernel for the batched 6T transient engine.

This module is the performance core behind :class:`repro.sram.batched.Batched6T`
when it is constructed with ``kernel="fast"`` (the default).  Since PR 3 it
is a *thin instantiation* of the batched circuit compiler in
:mod:`repro.spice.compile`: the 6T read and write testbenches are built as
ordinary netlists (cell + wordline/supply sources + bitline caps + write
drivers) and handed to :class:`~repro.spice.compile.CompiledTransient`,
which emits the fused integrator — one stacked EKV evaluation over
``(6, n)`` arrays per Newton iteration through precomputed gather maps,
incidence-matmul assembly, closed-form batched 4x4 solves
(:func:`~repro.spice.compile.solve4`, re-exported here), hoisted per-step
constants, and read-mode sample retirement via a
:class:`~repro.spice.compile.RetirePolicy`.

The hand-written fused kernel this replaces was pinned against the
reference ``Batched6T._run_chunk`` path at ~1e-9 relative in
``tests/sram/test_kernel.py``; those same tests are the compiler's
regression anchor — the compiled 6T must meet the identical budget:

* the integration grid is the engine's own (passed to the compiler
  verbatim), so the discretisation is bit-identical;
* the compiled capacitance matrix is assembled from the same
  ``MosfetModel.capacitances`` values in the same element order as
  ``Batched6T._capacitance_structure``;
* Newton controls (damping, clamp band, tolerance, iteration cap) are
  forwarded unchanged;
* retirement semantics are unchanged: a read sample retires only after
  the wordline has fully fallen and its crossing is recorded, keeping
  the aux values it had at retirement (``retire=False`` for bit-faithful
  aux tails).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import SimulationError
from repro.spice.compile import (
    CompiledTransient,
    CrossProbe,
    PeakProbe,
    RetirePolicy,
    solve4,
    solveN,
)
from repro.spice.elements import Capacitor, Resistor, VoltageSource
from repro.spice.netlist import Circuit
from repro.spice.plan import compile_cached
from repro.spice.sources import dc
from repro.sram.cell import CELL_DEVICE_ORDER, build_cell

__all__ = ["FusedTransientKernel", "solve4", "solveN"]


class FusedTransientKernel:
    """Compiled fused integrator for one :class:`Batched6T` configuration.

    Construction is lazy per operation mode: the read and write circuits
    are netlisted and compiled on first use and cached.  Mutating the
    owning engine's configuration after construction is not supported
    (build a new engine instead) — the same restriction the reference
    path has in practice, since its capacitance matrix and grid are also
    precomputed.
    """

    def __init__(self, engine):
        self.engine = engine
        self._compiled: Dict[str, CompiledTransient] = {}
        t = engine.timing
        self._t_wl_mid = t.wl_delay + 0.5 * t.wl_rise

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _build_circuit(self, mode: str) -> Circuit:
        """The engine's operation as a netlist (mirrors the testbenches)."""
        eng = self.engine
        c = Circuit(f"batched6t_{mode}")
        c.add(VoltageSource("v_vdd", "vdd", "0", dc(eng.vdd)))
        c.add(VoltageSource("v_wl", "wl", "0", eng._wl_shape))
        build_cell(eng.design, c)
        c.add(Capacitor("c_bl", "bl", "0", eng.cbl))
        c.add(Capacitor("c_blb", "blb", "0", eng.cbl))
        if mode == "write":
            c.add(VoltageSource("v_bl_drv", "bl_drv", "0", dc(0.0)))
            c.add(Resistor("r_bl_drv", "bl_drv", "bl", eng.rdrv))
            c.add(VoltageSource("v_blb_drv", "blb_drv", "0", dc(eng.vdd)))
            c.add(Resistor("r_blb_drv", "blb_drv", "blb", eng.rdrv))
        return c

    def compiled(self, mode: str) -> CompiledTransient:
        """The ``"read"`` or ``"write"`` circuit compiled (first use) or
        fetched from this kernel's memo."""
        ct = self._compiled.get(mode)
        if ct is not None:
            return ct
        eng = self.engine
        if mode == "read":
            cross = CrossProbe(
                "cross", {"blb": 1.0, "bl": -1.0}, offset=-eng.dv_spec
            )
        else:
            cross = CrossProbe("cross", {"qb": 1.0}, offset=-0.5 * eng.vdd)
        probes = (
            cross,
            PeakProbe("q_peak", "q", t_from=self._t_wl_mid),
            PeakProbe("qb_peak", "qb", t_from=self._t_wl_mid),
        )
        ct = compile_cached(
            self._build_circuit(mode),
            grid=eng._grid,
            probes=probes,
            kernel="fast",
            newton_max_iter=eng.newton_max_iter,
            clip=(-0.4, eng.vdd + 0.4),
        )
        # The variation matrices arrive in canonical cell-device order;
        # the compiled order must match or every sample would be wired to
        # the wrong transistor.
        if tuple(ct.device_names) != CELL_DEVICE_ORDER:
            raise SimulationError(
                f"compiled 6T device order {ct.device_names} does not match "
                f"the canonical cell order {CELL_DEVICE_ORDER}"
            )
        self._compiled[mode] = ct
        return ct

    # ------------------------------------------------------------------
    # Chunk integration
    # ------------------------------------------------------------------

    def run_chunk(
        self,
        dvth: np.ndarray,
        bmult: np.ndarray,
        mode: str,
        dv_spec: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        """Integrate one chunk; returns the same raw accumulators as the
        reference ``Batched6T._run_chunk``."""
        eng = self.engine
        ct = self.compiled(mode)
        t = eng.timing
        n = dvth.shape[0]
        dv_req_full = np.full(n, eng.dv_spec) if dv_spec is None else dv_spec
        vdd = eng.vdd

        if mode == "read":
            ic = {"q": 0.0, "qb": vdd, "bl": vdd, "blb": vdd}
            probe_offsets = {"cross": -dv_req_full}
            retire = None
            if eng.retire:
                t_wl_off = t.wl_delay + t.wl_rise + t.wl_width + t.wl_fall
                retire = RetirePolicy("cross", after=t_wl_off)
        else:
            ic = {"q": vdd, "qb": 0.0, "bl": 0.0, "blb": vdd}
            probe_offsets = None
            retire = None

        res = ct.run(
            ic=ic,
            n=n,
            delta_vth=dvth,
            beta_mult=bmult,
            probe_offsets=probe_offsets,
            retire=retire,
        )
        eng.n_sample_steps += res.n_sample_steps
        eng.n_simulations += n

        if mode == "read":
            diff_final = res.final["blb"] - res.final["bl"]
        else:
            diff_final = res.peak["qb_peak"].copy()
        return {
            "dv_req": dv_req_full,
            "cross_time": res.cross["cross"],
            "q_peak": res.peak["q_peak"],
            "qb_peak": res.peak["qb_peak"],
            "diff_final": diff_final,
            "q_final": res.final["q"],
            "qb_final": res.final["qb"],
            "converged": res.converged,
            "t_wl_mid": np.full(n, self._t_wl_mid),
        }
