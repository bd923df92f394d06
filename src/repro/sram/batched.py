"""Vectorised fixed-topology 6T transient engine.

Golden Monte Carlo at high sigma needs 10^5–10^6 transient simulations;
running the general MNA engine that many times is days of CPU.  This
module exploits the fact that every sample simulates the *same* circuit —
only the per-device ``delta_vth`` / ``beta_mult`` differ — to integrate
all samples simultaneously:

* the read and write operations are built as ordinary netlists (cell +
  wordline/supply sources + bitline caps, plus the write drivers) and
  compiled by :class:`~repro.spice.compile.CompiledTransient`, the one
  batched integrator every compiled bench shares;
* unknowns per sample: the four dynamic nodes ``[q, qb, bl, blb]``;
  ``vdd``, ``wl`` and ground are driven rails;
* each backward-Euler step solves one batched 4x4 Newton system;
* metrics (bitline-differential crossing, write trip, disturb peak) are
  compiled-in probes finished with the same penalty-extension formulas
  as :mod:`repro.sram.metrics`, so the batched and scalar engines are
  directly cross-validatable.

Backward Euler on a dense fixed grid (default ~800 points with edge
refinement around the wordline corners) trades a few percent of waveform
accuracy for unconditional robustness — the right trade for an engine
whose job is statistics, and the cross-validation test in
``tests/test_cross_validation.py`` pins the disagreement budget against
the scalar MNA engine, which stays the independent oracle.

``kernel`` selects the compiler's device-evaluation/solve path:

* ``"fast"`` (default) — one stacked device evaluation over ``(6, n)``
  arrays per Newton iteration, batched 4x4 solves (one stacked LAPACK
  call on batches under the compiler's ``_UNROLLED_MIN_BATCH``, such as
  the MPFP search's 12–15-row calls; the closed-form unrolled
  elimination on wider ones), and
  sample retirement: a sample drops out of the active set once nothing
  its caller reads can change.  The metric-only views
  (:meth:`Batched6T.read_access_times`, :meth:`Batched6T.write_trip_times`)
  retire each sample at its threshold crossing once the wordline is at
  half swing — the instant both metrics are measured from — the way
  HSPICE's ``.OPTION AUTOSTOP`` ends a transient once its measurements
  have triggered.  :meth:`Batched6T.read` also reports peaks and final
  values, so it retires only after the wordline has fallen, and
  :meth:`Batched6T.write` never retires.  A sample that never crosses
  never retires, so its penalty metric still reads full-window values.
  Disable with ``retire=False`` when bit-faithful aux tails matter.
* ``"reference"`` — per-device :meth:`MosfetModel.ids` calls and
  ``np.linalg.solve`` in the same step loop; slower but maximally
  transparent.  Retirement is fast-only, so the reference keeps full aux
  tails.  ``tests/sram/test_kernel.py`` pins the agreement between the
  two across read/write modes and sigma-scaled corners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import SimulationError
from repro.spice.compile import CompiledTransient, CrossProbe, PeakProbe, RetirePolicy
from repro.spice.elements import Capacitor, Resistor, VoltageSource
from repro.spice.netlist import Circuit
from repro.spice.plan import compile_cached
from repro.spice.sources import PulseShape, dc, pulse
from repro.sram.cell import CELL_DEVICE_ORDER, CellDesign, build_cell
from repro.sram.testbench import OperationTiming

__all__ = ["Batched6T", "BatchedRunResult"]


@dataclass
class BatchedRunResult:
    """Per-sample outcome of one batched operation.

    ``metric`` follows the same convention as the scalar testbenches
    (penalty-extended continuous value); ``event_found`` says whether the
    measured event actually occurred; ``aux`` carries vectorised
    diagnostics (peaks, final values); ``converged`` flags samples whose
    every Newton solve converged — non-converged samples keep their
    metric but should be treated with suspicion (the engine also raises
    when the failed share of a batch exceeds ``max_fail_fraction``,
    which indicates a setup bug rather than statistical bad luck).
    """

    metric: np.ndarray
    event_found: np.ndarray
    aux: Dict[str, np.ndarray]
    converged: np.ndarray


class Batched6T:
    """Vectorised 6T read/write engine for one cell design.

    Parameters mirror :class:`~repro.sram.testbench.ReadTestbench` /
    :class:`~repro.sram.testbench.WriteTestbench`; ``n_steps`` controls
    the base integration grid density.  ``kernel`` selects the compiled
    integrator path (``"fast"`` or ``"reference"``); ``retire`` enables
    sample retirement on the fast kernel (ignored by the reference
    kernel): the metric-only views retire each sample at its crossing,
    :meth:`read` after wordline fall, and :meth:`write` never.

    The read and write plans are compiled on first use and memoised;
    mutating the engine's configuration afterwards is not supported
    (build a new engine instead).
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

        t = self.timing
        self._t_wl_mid = t.wl_delay + 0.5 * t.wl_rise
        self._grid = self._time_grid()
        self._wl_shape = self._wordline()
        self._compiled: Dict[str, CompiledTransient] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

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

    def _circuit(self, op: str) -> Circuit:
        """The operation as a netlist (mirrors the scalar testbenches)."""
        c = Circuit(f"batched6t_{op}")
        c.add(VoltageSource("v_vdd", "vdd", "0", dc(self.vdd)))
        c.add(VoltageSource("v_wl", "wl", "0", self._wl_shape))
        build_cell(self.design, c)
        c.add(Capacitor("c_bl", "bl", "0", self.cbl))
        c.add(Capacitor("c_blb", "blb", "0", self.cbl))
        if op == "write":
            c.add(VoltageSource("v_bl_drv", "bl_drv", "0", dc(0.0)))
            c.add(Resistor("r_bl_drv", "bl_drv", "bl", self.rdrv))
            c.add(VoltageSource("v_blb_drv", "blb_drv", "0", dc(self.vdd)))
            c.add(Resistor("r_blb_drv", "blb_drv", "blb", self.rdrv))
        return c

    def compiled(self, op: str) -> CompiledTransient:
        """The compiled plan operation ``op`` runs on, built on first use.

        ``"read"`` backs :meth:`read` and its access-time and disturb
        views, ``"write"`` backs :meth:`write`.  The plan is compiled
        under this engine's ``kernel`` through the shared plan cache.
        """
        if op not in ("read", "write"):
            raise SimulationError(f"op must be 'read' or 'write', got {op!r}")
        ct = self._compiled.get(op)
        if ct is not None:
            return ct
        if op == "read":
            cross = CrossProbe(
                "cross", {"blb": 1.0, "bl": -1.0}, offset=-self.dv_spec
            )
        else:
            cross = CrossProbe("cross", {"qb": 1.0}, offset=-0.5 * self.vdd)
        probes = (
            cross,
            PeakProbe("q_peak", "q", t_from=self._t_wl_mid),
            PeakProbe("qb_peak", "qb", t_from=self._t_wl_mid),
        )
        ct = compile_cached(
            self._circuit(op),
            grid=self._grid,
            probes=probes,
            kernel=self.kernel,
            newton_max_iter=self.newton_max_iter,
            clip=(-0.4, self.vdd + 0.4),
        )
        # The variation matrices arrive in canonical cell-device order;
        # the compiled order must match or every sample would be wired to
        # the wrong transistor.
        if tuple(ct.device_names) != CELL_DEVICE_ORDER:
            raise SimulationError(
                f"compiled 6T device order {ct.device_names} does not match "
                f"the canonical cell order {CELL_DEVICE_ORDER}"
            )
        self._compiled[op] = ct
        return ct

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def _run(
        self,
        dvth: np.ndarray,
        bmult: Optional[np.ndarray],
        mode: str,
        dv_spec=None,
        metric_only: bool = False,
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
        if n < 1:
            raise SimulationError(f"batched {mode}: batch size must be >= 1, got {n}")
        dv_req = np.broadcast_to(
            np.asarray(self.dv_spec if dv_spec is None else dv_spec, dtype=float), (n,)
        ).copy()

        ct = self.compiled(mode)
        vdd = self.vdd
        retire = None
        if self.retire and self.kernel == "fast":
            if metric_only:
                # The metric is fixed at the crossing, and both peak
                # windows open at the wordline half-swing, so the plan
                # audit (P006) accepts retiring there.
                retire = RetirePolicy("cross", after=self._t_wl_mid)
            elif mode == "read":
                # Peaks and final values settle once the wordline falls.
                t = self.timing
                t_wl_off = t.wl_delay + t.wl_rise + t.wl_width + t.wl_fall
                retire = RetirePolicy("cross", after=t_wl_off)
        if mode == "read":
            ic = {"q": 0.0, "qb": vdd, "bl": vdd, "blb": vdd}
        else:
            ic = {"q": vdd, "qb": 0.0, "bl": 0.0, "blb": vdd}

        runs = []
        for start in range(0, n, self.chunk_size):
            sl = slice(start, min(start + self.chunk_size, n))
            res = ct.run(
                ic=ic,
                n=sl.stop - sl.start,
                delta_vth=dvth[sl],
                beta_mult=bmult[sl],
                probe_offsets={"cross": -dv_req[sl]} if mode == "read" else None,
                retire=retire,
            )
            self.n_sample_steps += res.n_sample_steps
            self.n_simulations += res.n
            runs.append(res)

        def joined(part: str, key: str) -> np.ndarray:
            return np.concatenate([getattr(r, part)[key] for r in runs])

        converged = np.concatenate([r.converged for r in runs])
        bad = ~converged
        if bad.mean() > self.max_fail_fraction:
            raise SimulationError(
                f"batched {mode}: {bad.sum()} of {n} samples failed Newton "
                "convergence; this indicates a setup problem, not noise"
            )

        cross_time = joined("cross", "cross")
        q_peak = joined("peak", "q_peak")
        qb_peak = joined("peak", "qb_peak")
        q_final = joined("final", "q")
        qb_final = joined("final", "qb")
        if mode == "read":
            diff_final = joined("final", "blb") - joined("final", "bl")
        else:
            diff_final = qb_peak.copy()

        t_wl = self._t_wl_mid
        found = ~np.isnan(cross_time)
        metric = np.empty(n)
        metric[found] = cross_time[found] - t_wl
        if mode == "read":
            shortfall = dv_req[~found] - diff_final[~found]
        else:
            shortfall = 0.5 * vdd - qb_peak[~found]
        metric[~found] = (self.timing.t_stop - t_wl) + shortfall * self.penalty_per_volt

        aux = {
            "q_peak": q_peak,
            "qb_peak": qb_peak,
            "q_final": q_final,
            "qb_final": qb_final,
            "diff_final": diff_final,
        }
        return BatchedRunResult(
            metric=metric, event_found=found, aux=aux, converged=converged
        )

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

    def read_access_times(self, dvth, bmult=None, dv_spec=None) -> np.ndarray:
        """Just the access-time vector, equal to ``read(...).metric``.

        Each sample retires at its crossing, so Newton failures after it
        are neither integrated nor counted.  ``dv_spec`` is as in
        :meth:`read`.
        """
        return self._run(dvth, bmult, "read", dv_spec=dv_spec, metric_only=True).metric

    def write_trip_times(self, dvth, bmult=None) -> np.ndarray:
        """Just the trip-time vector, equal to ``write(...).metric``; each
        sample retires at its crossing."""
        return self._run(dvth, bmult, "write", metric_only=True).metric

    def read_disturb_peaks(self, dvth, bmult=None) -> np.ndarray:
        """Convenience: peak low-node disturbance during a read."""
        return self.read(dvth, bmult).aux["q_peak"]
