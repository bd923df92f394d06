"""Vectorised fixed-topology 6T transient engine.

Golden Monte Carlo at high sigma needs 10^5–10^6 transient simulations;
running the general MNA engine that many times is days of CPU.  This
module exploits the fact that every sample simulates the *same* circuit —
only the per-device ``delta_vth`` / ``beta_mult`` differ — to integrate
all samples simultaneously:

* unknowns per sample: the four dynamic nodes ``[q, qb, bl, blb]``;
  ``vdd``, ``wl`` and ground are driven;
* device currents come from the *same*
  :meth:`repro.spice.mosfet.MosfetModel.ids` implementation the scalar
  engine uses, evaluated on ``(n_samples,)`` arrays;
* each backward-Euler step solves one batched 4x4 Newton system;
* metrics (bitline-differential crossing, write trip, disturb peak) are
  accumulated on the fly with the same penalty-extension formulas as
  :mod:`repro.sram.metrics`, so the two engines are directly
  cross-validatable.

Backward Euler on a dense fixed grid (default ~800 points with edge
refinement around the wordline corners) trades a few percent of waveform
accuracy for unconditional robustness — the right trade for an engine
whose job is statistics, and the cross-validation test in
``tests/test_cross_validation.py`` pins the disagreement budget.

Two interchangeable integrator kernels implement the scheme:

* ``kernel="fast"`` (default) — the fused kernel in
  :mod:`repro.sram.kernel`: one stacked device evaluation over ``(6, n)``
  arrays per Newton iteration, closed-form batched 4x4 solves, hoisted
  step constants, and read-mode sample retirement (samples whose
  threshold crossing is recorded and whose disturb accumulators are
  settled drop out of the active set; disable with ``retire=False`` when
  bit-faithful aux tails matter).
* ``kernel="reference"`` — the original per-device loop over
  :meth:`MosfetModel.ids` calls with ``np.linalg.solve``; slower but
  maximally transparent.  ``tests/sram/test_kernel.py`` pins the
  agreement between the two across read/write modes and sigma-scaled
  corners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.spice.mosfet import MosfetModel
from repro.spice.sources import PulseShape, pulse
from repro.sram.cell import CELL_DEVICE_ORDER, CellDesign
from repro.sram.testbench import OperationTiming

if TYPE_CHECKING:  # the compiler loads only when the fast kernel does
    from repro.spice.compile import CompiledTransient

__all__ = ["Batched6T", "BatchedRunResult"]

# Unknown-node indices.
_Q, _QB, _BL, _BLB = 0, 1, 2, 3
_NODES = ("q", "qb", "bl", "blb")

# Device wiring: name -> (drain, gate, source, bulk) as node tokens.
# Tokens: unknown-node index (int) or one of the driven rails.
_WIRING = {
    "m_pu_l": (_Q, _QB, "vdd", "vdd"),
    "m_pd_l": (_Q, _QB, "gnd", "gnd"),
    "m_pg_l": (_BL, "wl", _Q, "gnd"),
    "m_pu_r": (_QB, _Q, "vdd", "vdd"),
    "m_pd_r": (_QB, _Q, "gnd", "gnd"),
    "m_pg_r": (_BLB, "wl", _QB, "gnd"),
}


@dataclass
class BatchedRunResult:
    """Per-sample outcome of one batched operation.

    ``metric`` follows the same convention as the scalar testbenches
    (penalty-extended continuous value); ``event_found`` says whether the
    measured event actually occurred; ``aux`` carries vectorised
    diagnostics (peaks, final values); ``converged`` flags samples whose
    every Newton solve converged — non-converged samples keep their
    metric but should be treated with suspicion (the engine also raises
    if more than 0.1 % of a batch fails, which indicates a setup bug
    rather than statistical bad luck).
    """

    metric: np.ndarray
    event_found: np.ndarray
    aux: Dict[str, np.ndarray]
    converged: np.ndarray


class Batched6T:
    """Vectorised 6T read/write engine for one cell design.

    Parameters mirror :class:`~repro.sram.testbench.ReadTestbench` /
    :class:`~repro.sram.testbench.WriteTestbench`; ``n_steps`` controls
    the base integration grid density.  ``kernel`` selects the integrator
    implementation (``"fast"`` — the fused kernel in
    :mod:`repro.sram.kernel` — or ``"reference"``); ``retire`` enables
    read-mode sample retirement on the fast kernel (ignored by the
    reference kernel).
    """

    def __init__(
        self,
        design: Optional[CellDesign] = None,
        vdd: float = 1.0,
        cbl: float = 10e-15,
        dv_spec: float = 0.12,
        rdrv: float = 200.0,
        timing: Optional[OperationTiming] = None,
        n_steps: int = 800,
        penalty_per_volt: float = 20e-9,
        newton_max_iter: int = 40,
        chunk_size: int = 8192,
        max_fail_fraction: float = 0.01,
        kernel: str = "fast",
        retire: bool = True,
    ):
        self.design = design or CellDesign()
        self.vdd = float(vdd)
        self.cbl = float(cbl)
        self.dv_spec = float(dv_spec)
        self.rdrv = float(rdrv)
        self.timing = timing or OperationTiming()
        self.n_steps = int(n_steps)
        self.penalty_per_volt = float(penalty_per_volt)
        self.newton_max_iter = int(newton_max_iter)
        self.chunk_size = int(chunk_size)
        self.max_fail_fraction = float(max_fail_fraction)
        if kernel not in ("fast", "reference"):
            raise SimulationError(
                f"kernel must be 'fast' or 'reference', got {kernel!r}"
            )
        self.kernel = kernel
        self.retire = bool(retire)
        self.n_simulations = 0  # total per-sample transients run
        self.n_sample_steps = 0  # total (sample x grid-step) integrations

        self._geometry = self._device_geometry()
        self._cmat, self._wl_coupling = self._capacitance_structure()
        self._grid = self._time_grid()
        self._wl_shape = self._wordline()
        if kernel == "fast":
            from repro.sram.kernel import FusedTransientKernel

            self._fast_kernel = FusedTransientKernel(self)
        else:
            self._fast_kernel = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _device_geometry(self) -> Dict[str, Tuple[MosfetModel, float, float]]:
        d = self.design
        return {
            "m_pu_l": (d.pmos, d.w_pu, d.l),
            "m_pd_l": (d.nmos, d.w_pd, d.l),
            "m_pg_l": (d.nmos, d.w_pg, d.l),
            "m_pu_r": (d.pmos, d.w_pu, d.l),
            "m_pd_r": (d.nmos, d.w_pd, d.l),
            "m_pg_r": (d.nmos, d.w_pg, d.l),
        }

    def _capacitance_structure(self) -> Tuple[np.ndarray, np.ndarray]:
        """Constant 4x4 node capacitance matrix plus WL coupling vector.

        Couplings to constant rails (vdd, gnd) only add to the diagonal;
        couplings to the moving wordline additionally inject
        ``C * dV_wl/dt`` into the node, captured by ``wl_coupling``.
        """
        cmat = np.zeros((4, 4))
        wl_coupling = np.zeros(4)

        def add(na, nb, c):
            a_unknown = isinstance(na, int)
            b_unknown = isinstance(nb, int)
            if a_unknown and b_unknown:
                cmat[na, na] += c
                cmat[nb, nb] += c
                cmat[na, nb] -= c
                cmat[nb, na] -= c
            elif a_unknown:
                cmat[na, na] += c
                if nb == "wl":
                    wl_coupling[na] += c
            elif b_unknown:
                cmat[nb, nb] += c
                if na == "wl":
                    wl_coupling[nb] += c

        for name, (model, w, l) in self._geometry.items():
            nd, ng, ns, nb = _WIRING[name]
            cgs, cgd, cgb, cdb, csb = model.capacitances(w, l)
            add(ng, ns, cgs)
            add(ng, nd, cgd)
            add(ng, nb, cgb)
            add(nd, nb, cdb)
            add(ns, nb, csb)
        cmat[_BL, _BL] += self.cbl
        cmat[_BLB, _BLB] += self.cbl
        return cmat, wl_coupling

    def _wordline(self) -> PulseShape:
        t = self.timing
        return pulse(
            0.0, self.vdd, delay=t.wl_delay, rise=t.wl_rise, fall=t.wl_fall, width=t.wl_width
        )

    def _time_grid(self) -> np.ndarray:
        """Fixed grid with refinement around the wordline edges."""
        t = self.timing
        edges = [
            0.0,
            t.wl_delay,
            t.wl_delay + t.wl_rise,
            t.wl_delay + t.wl_rise + t.wl_width,
            t.wl_delay + t.wl_rise + t.wl_width + t.wl_fall,
            t.t_stop,
        ]
        # Distribute points: sharp corners get extra density.
        weights = [0.06, 0.10, 0.58, 0.10, 0.16]
        pieces = []
        for (a, b), wgt in zip(zip(edges, edges[1:]), weights):
            if b <= a:
                continue
            n = max(8, int(round(self.n_steps * wgt)))
            pieces.append(np.linspace(a, b, n, endpoint=False))
        grid = np.concatenate(pieces + [np.array([t.t_stop])])
        return np.unique(grid)

    # ------------------------------------------------------------------
    # Core integrator
    # ------------------------------------------------------------------

    def _device_assemble(
        self,
        y: np.ndarray,
        vwl: float,
        dvth: np.ndarray,
        bmult: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Residual and Jacobian contribution of the six transistors.

        ``y`` is ``(n, 4)``; ``dvth``/``bmult`` are ``(n, 6)`` in
        :data:`~repro.sram.cell.CELL_DEVICE_ORDER`.  Returns
        ``(F_dev (n,4), J_dev (n,4,4))``.
        """
        n = y.shape[0]
        f = np.zeros((n, 4))
        jac = np.zeros((n, 4, 4))
        rails = {"vdd": self.vdd, "gnd": 0.0, "wl": vwl}

        def volt(token):
            if isinstance(token, int):
                return y[:, token]
            # Scalar rails broadcast through the device model for free.
            return rails[token]

        for k, name in enumerate(CELL_DEVICE_ORDER):
            model, w, l = self._geometry[name]
            nd, ng, ns, nb = _WIRING[name]
            ids, gm, gds, gms, gmb = model.ids(
                volt(ng), volt(nd), volt(ns), volt(nb),
                delta_vth=dvth[:, k], beta_mult=bmult[:, k], w=w, l=l,
            )
            if isinstance(nd, int):
                f[:, nd] += ids
            if isinstance(ns, int):
                f[:, ns] -= ids
            for token, g in ((ng, gm), (nd, gds), (ns, gms), (nb, gmb)):
                if not isinstance(token, int):
                    continue
                if isinstance(nd, int):
                    jac[:, nd, token] += g
                if isinstance(ns, int):
                    jac[:, ns, token] -= g
        return f, jac

    def _run_chunk(
        self,
        dvth: np.ndarray,
        bmult: np.ndarray,
        mode: str,
        dv_spec: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        """Integrate one chunk of samples; returns raw event accumulators.

        ``dv_spec`` optionally overrides the read threshold per sample
        (used by the system-level workload where the sense-amp offset
        varies sample to sample).
        """
        n = dvth.shape[0]
        dv_req = np.full(n, self.dv_spec) if dv_spec is None else dv_spec
        grid = self._grid
        wl_of = self._wl_shape.value

        # Driver conductances (write mode only).
        g_drv = np.zeros(4)
        v_drv = np.zeros(4)
        if mode == "write":
            g_drv[_BL] = 1.0 / self.rdrv
            g_drv[_BLB] = 1.0 / self.rdrv
            v_drv[_BL] = 0.0
            v_drv[_BLB] = self.vdd

        # Initial state.
        y = np.zeros((n, 4))
        if mode == "read":
            y[:, _Q] = 0.0
            y[:, _QB] = self.vdd
            y[:, _BL] = self.vdd
            y[:, _BLB] = self.vdd
        else:
            y[:, _Q] = self.vdd
            y[:, _QB] = 0.0
            y[:, _BL] = 0.0
            y[:, _BLB] = self.vdd

        t_wl_mid = self.timing.wl_delay + 0.5 * self.timing.wl_rise
        converged = np.ones(n, dtype=bool)

        # Event accumulators.
        cross_time = np.full(n, np.nan)  # first threshold crossing
        prev_signal = np.zeros(n)
        q_peak = np.zeros(n)
        qb_peak = np.zeros(n)
        diff_final = np.zeros(n)

        if mode == "read":
            prev_signal[:] = y[:, _BLB] - y[:, _BL] - dv_req
        else:
            prev_signal[:] = y[:, _QB] - 0.5 * self.vdd

        t_prev = grid[0]
        wl_prev = wl_of(t_prev)
        y_prev2: Optional[np.ndarray] = None
        h_prev: Optional[float] = None
        for t_now in grid[1:]:
            self.n_sample_steps += n
            h = t_now - t_prev
            vwl = wl_of(t_now)
            dwl_dt = (vwl - wl_prev) / h
            y_prev = y
            # Linear extrapolation from the two previous solutions warms
            # the Newton start and typically saves an iteration.
            if y_prev2 is not None and h_prev is not None and h_prev > 0:
                y_new = y_prev + (y_prev - y_prev2) * (h / h_prev)
                np.clip(y_new, -0.5, self.vdd + 0.5, out=y_new)
            else:
                y_new = y_prev.copy()
            # Active-set Newton: most samples converge in 2–3 iterations;
            # only the stragglers (cells mid-flip) keep iterating, on
            # progressively smaller index subsets.
            idx = np.arange(n)
            cmat_h = self._cmat / h
            for _ in range(self.newton_max_iter):
                y_sub = y_new[idx]
                f_dev, j_dev = self._device_assemble(y_sub, vwl, dvth[idx], bmult[idx])
                f = (
                    f_dev
                    + (y_sub - y_prev[idx]) @ cmat_h.T
                    - self._wl_coupling * dwl_dt
                    + g_drv * (y_sub - v_drv)
                )
                jac = j_dev + cmat_h + np.diag(g_drv)
                delta = np.linalg.solve(jac, -f[..., None])[..., 0]
                # Damp large voltage excursions.
                step_max = np.max(np.abs(delta), axis=1, keepdims=True)
                scale = np.minimum(1.0, 0.4 / np.maximum(step_max, 1e-30))
                # Clamp to the physically reachable band: at sigma-scaled
                # corners (SSS at s=4 pushes |dVth| past 0.5 V) undamped
                # Newton can briefly leave it and oscillate.
                y_new[idx] = np.clip(y_sub + delta * scale, -0.4, self.vdd + 0.4)
                still = np.max(np.abs(delta), axis=1) > 5e-8
                idx = idx[still]
                if idx.size == 0:
                    break
            if idx.size:
                converged[idx] = False
            y_prev2 = y_prev
            h_prev = h

            # Event tracking with linear interpolation inside the step.
            if mode == "read":
                signal = y_new[:, _BLB] - y_new[:, _BL] - dv_req
            else:
                signal = y_new[:, _QB] - 0.5 * self.vdd
            crossing = (prev_signal < 0.0) & (signal >= 0.0) & np.isnan(cross_time)
            if crossing.any():
                frac = prev_signal[crossing] / (prev_signal[crossing] - signal[crossing])
                cross_time[crossing] = t_prev + frac * h
            prev_signal = signal

            if t_now >= t_wl_mid:
                q_peak = np.maximum(q_peak, y_new[:, _Q])
                qb_peak = np.maximum(qb_peak, y_new[:, _QB])
            y = y_new
            t_prev = t_now
            wl_prev = vwl

        diff_final = (
            (y[:, _BLB] - y[:, _BL]) if mode == "read" else qb_peak.copy()
        )
        self.n_simulations += n
        return {
            "dv_req": dv_req,
            "cross_time": cross_time,
            "q_peak": q_peak,
            "qb_peak": qb_peak,
            "diff_final": diff_final,
            "q_final": y[:, _Q],
            "qb_final": y[:, _QB],
            "converged": converged,
            "t_wl_mid": np.full(n, t_wl_mid),
        }

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def _run(
        self,
        dvth: np.ndarray,
        bmult: Optional[np.ndarray],
        mode: str,
        dv_spec=None,
    ) -> BatchedRunResult:
        dvth = np.atleast_2d(np.asarray(dvth, dtype=float))
        if dvth.shape[1] != 6:
            raise SimulationError(
                f"delta-vth matrix must have 6 columns (one per device), got {dvth.shape}"
            )
        if bmult is None:
            bmult = np.ones_like(dvth)
        else:
            bmult = np.atleast_2d(np.asarray(bmult, dtype=float))
            if bmult.shape != dvth.shape:
                raise SimulationError(
                    f"beta matrix shape {bmult.shape} != vth matrix shape {dvth.shape}"
                )

        n = dvth.shape[0]
        if dv_spec is None:
            dv_vec = None
        else:
            dv_vec = np.broadcast_to(np.asarray(dv_spec, dtype=float), (n,)).copy()

        run_chunk = (
            self._fast_kernel.run_chunk if self._fast_kernel is not None
            else self._run_chunk
        )
        outs = []
        for start in range(0, n, self.chunk_size):
            sl = slice(start, min(start + self.chunk_size, n))
            outs.append(run_chunk(
                dvth[sl], bmult[sl], mode,
                dv_spec=None if dv_vec is None else dv_vec[sl],
            ))
        raw = {k: np.concatenate([o[k] for o in outs]) for k in outs[0]}

        bad = ~raw["converged"]
        if bad.mean() > self.max_fail_fraction:
            raise SimulationError(
                f"batched {mode}: {bad.sum()} of {n} samples failed Newton "
                "convergence; this indicates a setup problem, not noise"
            )

        t_wl = raw["t_wl_mid"]
        t_stop = self.timing.t_stop
        found = ~np.isnan(raw["cross_time"])
        metric = np.empty(n)
        metric[found] = raw["cross_time"][found] - t_wl[found]
        if mode == "read":
            shortfall = raw["dv_req"][~found] - raw["diff_final"][~found]
        else:
            shortfall = 0.5 * self.vdd - raw["qb_peak"][~found]
        metric[~found] = (t_stop - t_wl[~found]) + shortfall * self.penalty_per_volt

        aux = {
            "q_peak": raw["q_peak"],
            "qb_peak": raw["qb_peak"],
            "q_final": raw["q_final"],
            "qb_final": raw["qb_final"],
            "diff_final": raw["diff_final"],
        }
        return BatchedRunResult(
            metric=metric, event_found=found, aux=aux, converged=raw["converged"]
        )

    def compiled(self, op: str) -> Optional[CompiledTransient]:
        """The compiled plan operation ``op`` runs on, built on first use.

        ``"read"`` backs :meth:`read` and its access-time and disturb
        views, ``"write"`` backs :meth:`write`.  ``None`` on the
        reference kernel, which integrates without a plan.
        """
        if op not in ("read", "write"):
            raise SimulationError(f"op must be 'read' or 'write', got {op!r}")
        if self._fast_kernel is None:
            return None
        return self._fast_kernel.compiled(op)

    def read(
        self,
        dvth: np.ndarray,
        bmult: Optional[np.ndarray] = None,
        dv_spec=None,
    ) -> BatchedRunResult:
        """Batched read operation → access-time metric per sample.

        ``dv_spec`` optionally overrides the bitline-differential
        threshold, scalar or per-sample array (system-level workloads
        pass the sense amplifier's per-sample offset requirement here).
        """
        return self._run(dvth, bmult, "read", dv_spec=dv_spec)

    def write(self, dvth: np.ndarray, bmult: Optional[np.ndarray] = None) -> BatchedRunResult:
        """Batched write operation → trip-time metric per sample."""
        return self._run(dvth, bmult, "write")

    def read_access_times(self, dvth, bmult=None) -> np.ndarray:
        """Convenience: just the access-time vector."""
        return self.read(dvth, bmult).metric

    def write_trip_times(self, dvth, bmult=None) -> np.ndarray:
        """Convenience: just the trip-time vector."""
        return self.write(dvth, bmult).metric

    def read_disturb_peaks(self, dvth, bmult=None) -> np.ndarray:
        """Convenience: peak low-node disturbance during a read."""
        return self.read(dvth, bmult).aux["q_peak"]
