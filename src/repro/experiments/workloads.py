"""Named workloads: the limit states the benchmarks estimate.

Two families:

* **Analytic** — linear/quadratic/union limit states with closed-form
  failure probabilities, placed at exact sigma levels.  These anchor the
  accuracy tables: a method's error is measured against truth, not
  against another estimator.
* **SRAM** — read-access, write-trip and read-disturb limit states on the
  batched 6T engine, with the per-device threshold sigmas coming from the
  Pelgrom law of the model cards.  The spec (the failing delay / margin)
  is *calibrated* so the workload sits at a requested sigma level: a
  gradient MPFP search finds the failure direction once, a batched 1-D
  sweep along it maps metric vs distance, and the spec is read off at the
  target radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, RequestError, SimulationError
from repro.highsigma.analytic import (
    LinearLimitState,
    QuadraticLimitState,
    SramSurrogateLimitState,
)
from repro.highsigma.limitstate import LimitState
from repro.highsigma.mpfp import MpfpOptions, MpfpSearch
from repro.sram.array import ArrayConfig, ArraySlice
from repro.sram.batched import Batched6T
from repro.sram.cell import CELL_DEVICE_ORDER, CellDesign
from repro.sram.column import ColumnConfig, ReadColumn
from repro.sram.senseamp import SenseAmp, SenseAmpDesign
from repro.sram.testbench import OperationTiming
from repro.variation.pelgrom import beta_mismatch_sigma, vth_mismatch_sigma
from repro.variation.space import DeviceAxis, VariationSpace

__all__ = [
    "Workload",
    "WorkloadSpec",
    "WORKLOADS",
    "get_workload",
    "workload_names",
    "analytic_grid_workloads",
    "array_variation_space",
    "cell_variation_space",
    "column_variation_space",
    "make_read_limitstate",
    "make_write_limitstate",
    "make_disturb_limitstate",
    "make_senseamp_offset_limitstate",
    "make_system_read_limitstate",
    "make_column_read_limitstate",
    "make_array_read_limitstate",
    "calibrate_read_spec",
    "calibrate_write_spec",
    "surrogate_workload",
]


@dataclass
class Workload:
    """One named estimation problem.

    ``make`` builds a *fresh* limit state (with a zeroed evaluation
    counter) per run, so repeated runs bill independently.
    ``exact_pfail`` is None when only a golden-MC reference exists.
    """

    name: str
    make: Callable[[], LimitState]
    exact_pfail: Optional[float]
    dim: int
    description: str = ""


# ----------------------------------------------------------------------
# Analytic grid (table T1)
# ----------------------------------------------------------------------

def analytic_grid_workloads(
    sigmas=(4.0, 5.0, 6.0),
    dims=(6, 12, 24),
    kappa: float = 0.1,
) -> List[Workload]:
    """The T1 accuracy grid: linear and curved boundaries at exact sigmas.

    For the quadratic family ``beta`` is the *boundary distance*, so the
    exact probability is below ``Phi(-beta)``; the workload name carries
    the geometric sigma, the table reports the exact probability.
    """
    out: List[Workload] = []
    for d in dims:
        for s in sigmas:
            lin = LinearLimitState(beta=s, dim=d)
            out.append(
                Workload(
                    name=f"linear-{s:g}s-d{d}",
                    make=lambda s=s, d=d: LinearLimitState(beta=s, dim=d),
                    exact_pfail=lin.exact_pfail(),
                    dim=d,
                    description=f"hyperplane at {s:g} sigma, {d} dims",
                )
            )
            quad = QuadraticLimitState(beta=s, dim=d, kappa=kappa)
            out.append(
                Workload(
                    name=f"quadratic-{s:g}s-d{d}",
                    make=lambda s=s, d=d: QuadraticLimitState(beta=s, dim=d, kappa=kappa),
                    exact_pfail=quad.exact_pfail(),
                    dim=d,
                    description=f"curved boundary at distance {s:g}, {d} dims",
                )
            )
    return out


# ----------------------------------------------------------------------
# SRAM limit states (tables T2/T3, figures F1/F3/F4/F7)
# ----------------------------------------------------------------------

def cell_variation_space(
    design: Optional[CellDesign] = None, include_beta: bool = False
) -> VariationSpace:
    """Pelgrom u-space over the six cell transistors (canonical order)."""
    design = design or CellDesign()
    geometry = _cell_geometry(design)
    axes = []
    for name in CELL_DEVICE_ORDER:
        model, w = geometry[name]
        axes.append(DeviceAxis(name, "vth", vth_mismatch_sigma(model, w, design.l)))
    if include_beta:
        for name in CELL_DEVICE_ORDER:
            model, w = geometry[name]
            axes.append(DeviceAxis(name, "beta", beta_mismatch_sigma(model, w, design.l)))
    return VariationSpace(axes)


def _cell_geometry(design: CellDesign):
    return {
        "m_pu_l": (design.pmos, design.w_pu),
        "m_pd_l": (design.nmos, design.w_pd),
        "m_pg_l": (design.nmos, design.w_pg),
        "m_pu_r": (design.pmos, design.w_pu),
        "m_pd_r": (design.nmos, design.w_pd),
        "m_pg_r": (design.nmos, design.w_pg),
    }


def column_variation_space(
    design: Optional[CellDesign] = None, n_leakers: int = 15
) -> VariationSpace:
    """Pelgrom u-space over a whole read column.

    One vth axis per transistor of every cell on the column — the
    accessed cell first (canonical order), then each leaker — so the
    dimension is ``6 * (n_leakers + 1)``.  This is the dimension-scaling
    scenario: the u-space grows linearly with the column height while
    the failure region stays dominated by a handful of axes, exactly the
    regime where blind search degrades and gradient importance sampling
    earns its keep.
    """
    design = design or CellDesign()
    geometry = _cell_geometry(design)
    axes = []
    for suffix in ["_a"] + [f"_l{k}" for k in range(n_leakers)]:
        for name in CELL_DEVICE_ORDER:
            model, w = geometry[name]
            axes.append(
                DeviceAxis(f"{name}{suffix}", "vth",
                           vth_mismatch_sigma(model, w, design.l))
            )
    return VariationSpace(axes)


def array_variation_space(
    design: Optional[CellDesign] = None,
    n_cols: int = 4,
    n_leakers: int = 15,
) -> VariationSpace:
    """Pelgrom u-space over a whole array slice.

    One vth axis per transistor of every cell on every column — column
    by column, the accessed cell first, then that column's leakers — so
    the dimension is ``6 * n_cols * (n_leakers + 1)``: 384 axes at the
    default 4 columns of 16 cells.  This extends the column's
    dimension-scaling scenario by a second multiplicative direction
    (array width) while the failure region stays dominated by the
    selected column's handful of axes.
    """
    design = design or CellDesign()
    geometry = _cell_geometry(design)
    axes = []
    for c in range(n_cols):
        for suffix in ArraySlice._col_suffixes(c, n_leakers):
            for name in CELL_DEVICE_ORDER:
                model, w = geometry[name]
                axes.append(
                    DeviceAxis(f"{name}{suffix}", "vth",
                               vth_mismatch_sigma(model, w, design.l))
                )
    return VariationSpace(axes)


def _check_axes_cover_devices(space: VariationSpace, order, what: str) -> None:
    """Refuse a space whose axis names drift from the circuit's devices.

    ``VariationSpace.vth_matrix`` silently zero-fills devices no axis
    targets — correct for deliberately nominal devices (the mux pair),
    fatal when the suffix scheme of a variation-space builder drifts
    from the netlist builder's: the workload would sample *no* variation
    and report a garbage sigma with no error.  The factories call this
    to make that drift loud.
    """
    axis_devices = [a.device for a in space.axes]
    if axis_devices != list(order):
        missing = sorted(set(order) - set(axis_devices))
        extra = sorted(set(axis_devices) - set(order))
        raise SimulationError(
            f"{what} variation space does not match the circuit's device "
            f"names (missing axes for {missing[:4]}, axes without devices "
            f"{extra[:4]}, or a pure ordering mismatch)"
        )


# ----------------------------------------------------------------------
# Picklable batch evaluators
# ----------------------------------------------------------------------
# These used to be local ``batch_fn`` closures inside the factories —
# unpicklable, which silently pushed ``ShardedRunner``'s spawn pool into
# its in-process fallback.  As module-level callables the whole limit
# state travels through the spawn pickle pipe, compiled plans included
# (``CompiledTransient`` serializes its plan state and re-audits on
# arrival), so spawn workers deserialize instead of recompiling.
#
# Each one's ``prepare()`` builds exactly the compiled plans its
# ``__call__`` fetches, without running them; ``LimitState.warmup``
# calls it, which is all ``repro.api.prepare`` needs to compile.


class _EngineBatch:
    """u-batch -> engine metric via the cell variation space."""

    def __init__(
        self, space: VariationSpace, engine: Batched6T, op: str, metric_batch,
        include_beta: bool,
    ):
        self.space = space
        self.engine = engine
        self.op = op
        self.metric_batch = metric_batch
        self.include_beta = include_beta

    def prepare(self) -> None:
        self.engine.compiled(self.op)

    def __call__(self, u_batch: np.ndarray) -> np.ndarray:
        space = self.space
        dvth = space.vth_matrix(u_batch, CELL_DEVICE_ORDER)
        bmult = (
            space.beta_matrix(u_batch, CELL_DEVICE_ORDER)
            if self.include_beta else None
        )
        return self.metric_batch(dvth, bmult)


class _SenseAmpOffsetBatch:
    """u-batch -> input-referred offset via batched latch bisection."""

    def __init__(self, sense, sigmas, dv_max, n_bisect, n_steps, kernel):
        self.sense = sense
        self.sigmas = sigmas
        self.dv_max = dv_max
        self.n_bisect = n_bisect
        self.n_steps = n_steps
        self.kernel = kernel

    def prepare(self) -> None:
        self.sense.compiled(n_steps=self.n_steps, kernel=self.kernel)

    def __call__(self, u_batch: np.ndarray) -> np.ndarray:
        u_batch = np.atleast_2d(u_batch)
        return self.sense.offset_batch(
            u_batch * self.sigmas, dv_max=self.dv_max, n_bisect=self.n_bisect,
            n_steps=self.n_steps, kernel=self.kernel,
        )


class _SystemReadBatch:
    """u-batch -> read access time to a per-sample sense threshold."""

    def __init__(
        self, engine, sense, cell_space, sa_sigmas, sa_model, dv_base,
        dv_floor, kernel, sa_n_steps, sa_dv_max, sa_n_bisect,
        sa_on_unresolvable,
    ):
        self.engine = engine
        self.sense = sense
        self.cell_space = cell_space
        self.sa_sigmas = sa_sigmas
        self.sa_model = sa_model
        self.dv_base = dv_base
        self.dv_floor = dv_floor
        self.kernel = kernel
        self.sa_n_steps = sa_n_steps
        self.sa_dv_max = sa_dv_max
        self.sa_n_bisect = sa_n_bisect
        self.sa_on_unresolvable = sa_on_unresolvable

    def prepare(self) -> None:
        self.engine.compiled("read")
        if self.sa_model == "latch":
            self.sense.compiled(n_steps=self.sa_n_steps, kernel=self.kernel)

    def __call__(self, u_batch: np.ndarray) -> np.ndarray:
        u_batch = np.atleast_2d(u_batch)
        u_cell, u_sa = u_batch[:, :6], u_batch[:, 6:]
        dvth = self.cell_space.vth_matrix(u_cell, CELL_DEVICE_ORDER)
        if self.sa_model == "linear":
            offset = self.sense.offset_linear(u_sa)
        else:
            offset = self.sense.offset_batch(
                u_sa * self.sa_sigmas, dv_max=self.sa_dv_max,
                n_bisect=self.sa_n_bisect, n_steps=self.sa_n_steps,
                kernel=self.kernel,
                on_unresolvable=self.sa_on_unresolvable,
            )
        dv_req = np.maximum(self.dv_base + offset, self.dv_floor)
        return self.engine.read(dvth, dv_spec=dv_req).metric


class _ColumnReadBatch:
    """u-batch -> column access times on the compiled read column."""

    def __init__(self, column, space, order, n_steps, kernel, assembly):
        self.column = column
        self.space = space
        self.order = order
        self.n_steps = n_steps
        self.kernel = kernel
        self.assembly = assembly

    def prepare(self) -> None:
        self.column.compiled(
            n_steps=self.n_steps, kernel=self.kernel, assembly=self.assembly
        )

    def __call__(self, u_batch: np.ndarray) -> np.ndarray:
        u_batch = np.atleast_2d(u_batch)
        dvth = self.space.vth_matrix(u_batch, self.order)
        return self.column.access_times_batch(
            dvth, n_steps=self.n_steps, kernel=self.kernel,
            assembly=self.assembly,
        )


class _ArrayReadBatch:
    """u-batch -> muxed array-slice access times on the compiled slice."""

    def __init__(self, array, space, order, n_steps, kernel, assembly, solver):
        self.array = array
        self.space = space
        self.order = order
        self.n_steps = n_steps
        self.kernel = kernel
        self.assembly = assembly
        self.solver = solver

    def prepare(self) -> None:
        self.array.compiled(
            n_steps=self.n_steps, kernel=self.kernel, assembly=self.assembly,
            solver=self.solver,
        )

    def __call__(self, u_batch: np.ndarray) -> np.ndarray:
        u_batch = np.atleast_2d(u_batch)
        dvth = self.space.vth_matrix(u_batch, self.order)
        return self.array.access_times_batch(
            dvth, n_steps=self.n_steps, kernel=self.kernel,
            assembly=self.assembly, solver=self.solver,
        )


def _engine_limitstate(
    engine: Batched6T,
    op: str,
    space: VariationSpace,
    metric_batch: Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray],
    spec: float,
    direction: str,
    name: str,
) -> LimitState:
    include_beta = any(a.kind == "beta" for a in space.axes)

    # Caching is on: scalar evaluations (MPFP line searches) and
    # stencil-sized batches (MPFP gradients) share one bounded cache, so
    # a line search revisiting a stencil point costs nothing; bulk
    # sampling batches bypass the cache machinery entirely (see
    # LimitState.g_batch).  fn=None: scalar calls route through the
    # batched engine as one-row batches.
    return LimitState(
        fn=None,
        batch_fn=_EngineBatch(space, engine, op, metric_batch, include_beta),
        spec=spec,
        dim=space.dim,
        direction=direction,
        name=name,
    )


def make_read_limitstate(
    spec: float,
    design: Optional[CellDesign] = None,
    vdd: float = 1.0,
    cbl: float = 10e-15,
    dv_spec: float = 0.12,
    n_steps: int = 400,
    include_beta: bool = False,
    timing: Optional[OperationTiming] = None,
    kernel: str = "fast",
) -> LimitState:
    """Read-access-time limit state: failure when access time >= spec."""
    design = design or CellDesign()
    engine = Batched6T(
        design=design, vdd=vdd, cbl=cbl, dv_spec=dv_spec, n_steps=n_steps, timing=timing,
        kernel=kernel,
    )
    space = cell_variation_space(design, include_beta)
    return _engine_limitstate(
        engine, "read", space, engine.read_access_times, spec, "upper",
        name=f"sram-read(spec={spec:.3e}s, vdd={vdd:g}V)",
    )


def make_write_limitstate(
    spec: float,
    design: Optional[CellDesign] = None,
    vdd: float = 1.0,
    cbl: float = 10e-15,
    rdrv: float = 200.0,
    n_steps: int = 400,
    include_beta: bool = False,
    timing: Optional[OperationTiming] = None,
    kernel: str = "fast",
) -> LimitState:
    """Write-trip-time limit state: failure when trip time >= spec.

    A spec equal to the wordline pulse width makes this the dynamic
    write-failure probability.
    """
    design = design or CellDesign()
    engine = Batched6T(
        design=design, vdd=vdd, cbl=cbl, rdrv=rdrv, n_steps=n_steps, timing=timing,
        kernel=kernel,
    )
    space = cell_variation_space(design, include_beta)
    return _engine_limitstate(
        engine, "write", space, engine.write_trip_times, spec, "upper",
        name=f"sram-write(spec={spec:.3e}s, vdd={vdd:g}V)",
    )


def make_disturb_limitstate(
    spec: float,
    design: Optional[CellDesign] = None,
    vdd: float = 1.0,
    cbl: float = 10e-15,
    n_steps: int = 400,
    include_beta: bool = False,
    timing: Optional[OperationTiming] = None,
    kernel: str = "fast",
) -> LimitState:
    """Dynamic read-stability limit state: failure when the low node's
    read bump reaches ``spec`` volts (the trip point, conventionally
    ``vdd/2``)."""
    design = design or CellDesign()
    engine = Batched6T(
        design=design, vdd=vdd, cbl=cbl, n_steps=n_steps, timing=timing, kernel=kernel
    )
    space = cell_variation_space(design, include_beta)
    return _engine_limitstate(
        engine, "read", space, engine.read_disturb_peaks, spec, "upper",
        name=f"sram-disturb(spec={spec:.3f}V, vdd={vdd:g}V)",
    )


def make_senseamp_offset_limitstate(
    spec: float,
    sa_design: Optional[SenseAmpDesign] = None,
    vdd: float = 1.0,
    dv_max: float = 0.45,
    n_bisect: int = 12,
    n_steps: int = 260,
    kernel: str = "fast",
) -> LimitState:
    """Sense-amp offset limit state on the compiled latch.

    Four u-axes (the latch's variation-relevant devices in
    :data:`~repro.sram.senseamp.SA_DEVICE_ORDER`); the metric is the
    input-referred offset extracted by *simultaneous* batched bisection
    on the compiled latch — every bisection level is one compiled
    transient over the whole sample block, versus tens of scalar
    transients per sample on the reference path.  Failure is the offset
    reaching ``spec`` volts (the differential budget the column design
    allocates to the latch).
    """
    sense = SenseAmp(sa_design, vdd=vdd)
    sigmas = sense.design.vth_sigmas()

    return LimitState(
        fn=None,
        batch_fn=_SenseAmpOffsetBatch(
            sense, sigmas, dv_max, n_bisect, n_steps, kernel
        ),
        spec=spec,
        dim=len(sigmas),
        direction="upper",
        name=f"sram-sa-offset(spec={spec*1e3:.1f}mV, vdd={vdd:g}V)",
    )


def make_system_read_limitstate(
    spec: float,
    design: Optional[CellDesign] = None,
    sa_design: Optional[SenseAmpDesign] = None,
    vdd: float = 1.0,
    cbl: float = 10e-15,
    dv_base: float = 0.12,
    dv_floor: float = 0.02,
    n_steps: int = 400,
    timing: Optional[OperationTiming] = None,
    kernel: str = "fast",
    sa_model: str = "linear",
    sa_n_steps: int = 260,
    sa_dv_max: float = 0.45,
    sa_n_bisect: int = 12,
    sa_on_unresolvable: str = "saturate",
) -> LimitState:
    """System-level read limit state: cell *and* sense-amp variation.

    Ten u-axes: the six cell threshold shifts plus the four latch
    threshold shifts.  Each sample's required bitline differential is
    ``dv_base + offset(u_sa)`` (floored at ``dv_floor`` — a latch never
    resolves reliably below its noise floor even with a favourable
    offset), fed per-sample into the batched read engine.  Failure is
    the access time to *that* differential exceeding ``spec``.

    ``sa_model`` selects the offset extractor: ``"linear"`` — the
    validated first-order model (one dot product per sample);
    ``"latch"`` — batched bisection on the *compiled* latch transient,
    which keeps the full nonlinearity of the regeneration at a dozen
    compiled transients per block.  ``sa_dv_max`` / ``sa_n_bisect``
    bound the latch bisection.  A deep-tail sample whose offset exceeds
    ``sa_dv_max`` saturates to ``offset = +inf`` by default
    (``sa_on_unresolvable="saturate"``): its required differential
    becomes unreachable, the read counts as a failure, and the rest of
    the batch completes normally — which is exactly what a high-sigma
    sampler needs from the tails it deliberately explores.  Pass
    ``sa_on_unresolvable="raise"`` to restore the strict behaviour that
    treats such samples as a setup error.

    This is the workload where the single-cell view underestimates the
    failure rate: a moderately slow cell meeting a moderately deaf sense
    amp fails reads that neither would alone.
    """
    if sa_model not in ("linear", "latch"):
        raise SimulationError(
            f"sa_model must be 'linear' or 'latch', got {sa_model!r}"
        )
    design = design or CellDesign()
    sense = SenseAmp(sa_design, vdd=vdd)
    engine = Batched6T(
        design=design, vdd=vdd, cbl=cbl, dv_spec=dv_base, n_steps=n_steps,
        timing=timing, kernel=kernel,
    )
    cell_space = cell_variation_space(design)
    sa_sigmas = sense.design.vth_sigmas()

    return LimitState(
        fn=None,
        batch_fn=_SystemReadBatch(
            engine, sense, cell_space, sa_sigmas, sa_model, dv_base,
            dv_floor, kernel, sa_n_steps, sa_dv_max, sa_n_bisect,
            sa_on_unresolvable,
        ),
        spec=spec,
        dim=10,
        direction="upper",
        name=f"sram-system-read(spec={spec:.3e}s, vdd={vdd:g}V, sa={sa_model})",
    )


def make_column_read_limitstate(
    spec: float,
    design: Optional[CellDesign] = None,
    n_leakers: int = 15,
    leaker_data: str = "adversarial",
    vdd: float = 1.0,
    cbl: Optional[float] = None,
    dv_spec: float = 0.12,
    n_steps: int = 400,
    timing: Optional[OperationTiming] = None,
    kernel: str = "fast",
    assembly: str = "auto",
) -> LimitState:
    """Column-level read limit state: the full column is the device under test.

    ``6 * (n_leakers + 1)`` u-axes — every transistor of the accessed
    cell *and* of every leaker carries its own Pelgrom threshold axis —
    evaluated in bulk on the compiled column (sparse Jacobian assembly
    plus the structured Schur solves above the compiler's node-count
    threshold; ``assembly="dense"`` keeps the cross-check path).
    Failure is the access time to ``dv_spec`` exceeding ``spec``, with
    leakage from the unaccessed cells eroding the differential exactly
    as the scalar column testbench simulates it.  This is the
    dimension-scaling workload: the default 15 adversarial leakers make
    a 34-node circuit and a 96-dimensional u-space.
    """
    design = design or CellDesign()
    column = ReadColumn(
        design=design,
        config=ColumnConfig(
            n_leakers=n_leakers, leaker_data=leaker_data, cbl=cbl, vdd=vdd
        ),
        dv_spec=dv_spec,
        timing=timing,
    )
    space = column_variation_space(design, n_leakers=n_leakers)
    order = column.all_device_names()
    _check_axes_cover_devices(space, order, "column")

    return LimitState(
        fn=None,
        batch_fn=_ColumnReadBatch(column, space, order, n_steps, kernel, assembly),
        spec=spec,
        dim=space.dim,
        direction="upper",
        name=(
            f"sram-column-read(spec={spec:.3e}s, vdd={vdd:g}V, "
            f"leakers={n_leakers})"
        ),
    )


def make_array_read_limitstate(
    spec: float,
    design: Optional[CellDesign] = None,
    n_cols: int = 4,
    n_leakers: int = 15,
    leaker_data: str = "adversarial",
    vdd: float = 1.0,
    cbl: Optional[float] = None,
    cdl: Optional[float] = None,
    dv_spec: float = 0.12,
    n_steps: int = 400,
    timing: Optional[OperationTiming] = None,
    kernel: str = "fast",
    assembly: str = "auto",
    solver: str = "auto",
) -> LimitState:
    """Array-slice read limit state: the muxed slice is the device under test.

    ``6 * n_cols * (n_leakers + 1)`` u-axes — every transistor of every
    cell on every column — evaluated in bulk on the compiled slice
    (sparse CSR stamp assembly plus the per-column Schur peel: cell
    pairs as interior blocks against a border of all bitlines, the mux
    data lines as interior singletons; ``assembly="dense"`` and
    ``solver="blocked"`` keep the cross-check paths).  Failure is the
    access time of the *muxed* data-line differential to ``dv_spec``
    exceeding ``spec``, so the metric includes the mux resistance and
    data-line loading on top of the column leakage.  This is the
    dimension-scaling workload at array scale: 4 columns of 16 cells is
    a 138-node circuit and a 384-dimensional u-space.
    """
    design = design or CellDesign()
    array = ArraySlice(
        design=design,
        config=ArrayConfig(
            n_cols=n_cols, n_leakers=n_leakers, leaker_data=leaker_data,
            cbl=cbl, cdl=cdl, vdd=vdd,
        ),
        dv_spec=dv_spec,
        timing=timing,
    )
    space = array_variation_space(design, n_cols=n_cols, n_leakers=n_leakers)
    order = array.all_device_names()
    _check_axes_cover_devices(space, order, "array slice")

    return LimitState(
        fn=None,
        batch_fn=_ArrayReadBatch(
            array, space, order, n_steps, kernel, assembly, solver
        ),
        spec=spec,
        dim=space.dim,
        direction="upper",
        name=(
            f"sram-array-read(spec={spec:.3e}s, vdd={vdd:g}V, "
            f"cols={n_cols}, leakers={n_leakers})"
        ),
    )


# ----------------------------------------------------------------------
# Spec calibration
# ----------------------------------------------------------------------

def _calibrate_spec(
    make_ls: Callable[[float], LimitState],
    provisional_spec: float,
    sigma_target: float,
    r_max: float = 8.0,
) -> float:
    """Place a workload at a requested sigma level.

    One gradient MPFP search at a provisional spec finds the failure
    direction; a batched sweep along that ray maps metric vs distance;
    the spec for ``sigma_target`` is the metric at radius ``sigma_target``
    along the ray (exact if the boundary is a sphere-tangent hyperplane,
    and within ~0.1 sigma for the mildly curved SRAM boundaries, which is
    ample for benchmark placement).
    """
    ls = make_ls(provisional_spec)
    search = MpfpSearch(ls, options=MpfpOptions(max_iterations=40))
    res = search.run()
    direction = res.u_star / max(res.beta, 1e-12)
    radii = np.linspace(0.0, r_max, 33)
    metrics = ls.g_batch(direction[None, :] * radii[:, None])
    # g = spec - metric  =>  metric = spec - g; invert monotone map.
    metric_vals = ls.spec - metrics
    return float(np.interp(sigma_target, radii, metric_vals))


def calibrate_read_spec(sigma_target: float, n_steps: int = 400, **kwargs) -> float:
    """Read-access spec placing the failure at ``sigma_target`` sigma."""
    def make(spec):
        return make_read_limitstate(spec, n_steps=n_steps, **kwargs)

    nominal = make_read_limitstate(1.0, n_steps=n_steps, **kwargs)
    t_nom = nominal.metric(np.zeros(nominal.dim))
    return _calibrate_spec(make, provisional_spec=1.6 * t_nom, sigma_target=sigma_target)


def calibrate_write_spec(sigma_target: float, n_steps: int = 400, **kwargs) -> float:
    """Write-trip spec placing the failure at ``sigma_target`` sigma."""
    def make(spec):
        return make_write_limitstate(spec, n_steps=n_steps, **kwargs)

    nominal = make_write_limitstate(1.0, n_steps=n_steps, **kwargs)
    t_nom = nominal.metric(np.zeros(nominal.dim))
    return _calibrate_spec(make, provisional_spec=1.8 * t_nom, sigma_target=sigma_target)


# ----------------------------------------------------------------------
# The named-workload registry (the repro.api / service catalogue)
# ----------------------------------------------------------------------
# Every estimation entry point that accepts a *workload name* — the
# ``repro.api`` facade, the HTTP job service, the load-test driver —
# resolves it here.  A :class:`WorkloadSpec` declares the limit-state
# factory plus the *remotely settable* knob surface: only JSON-scalar
# knobs are listed (rich objects like ``CellDesign``/``OperationTiming``
# stay Python-API-only), and enum-valued knobs carry their legal choices
# so a bad value is a structured eager-validation error instead of a
# failure deep inside a compile.


@dataclass(frozen=True)
class WorkloadSpec:
    """One named, remotely invokable estimation workload.

    ``factory(spec, **knobs)`` builds a fresh :class:`LimitState`;
    ``knobs`` is the exact set of keyword names a request may set;
    ``choices`` restricts enum-valued knobs; ``estimator_options`` are
    extra keyword arguments for the GIS estimator (the per-workload
    search tuning the CLI historically hard-coded, e.g. the sense-amp
    bisection-matched MPFP tolerances).
    """

    name: str
    factory: Callable[..., LimitState]
    description: str
    spec_unit: str
    knobs: Tuple[str, ...] = ()
    choices: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    estimator_options: Mapping[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        """JSON-safe catalogue entry (what ``GET /v1/workloads`` serves)."""
        return {
            "name": self.name,
            "description": self.description,
            "spec_unit": self.spec_unit,
            "knobs": list(self.knobs),
            "choices": {k: list(v) for k, v in self.choices.items()},
        }


def _analytic_linear(spec: float, dim: int = 8) -> LimitState:
    return LinearLimitState(beta=spec, dim=int(dim))


def _analytic_quadratic(spec: float, dim: int = 8, kappa: float = 0.1) -> LimitState:
    return QuadraticLimitState(beta=spec, dim=int(dim), kappa=float(kappa))


_ASSEMBLY = ("auto", "dense", "sparse")
_KERNEL = ("fast", "reference")
_LEAKER_DATA = ("adversarial", "friendly")

WORKLOADS: Dict[str, WorkloadSpec] = {}


def _register(spec: WorkloadSpec) -> WorkloadSpec:
    if spec.name in WORKLOADS:
        raise ConfigError(f"workload {spec.name!r} registered twice")
    WORKLOADS[spec.name] = spec
    return spec


_register(WorkloadSpec(
    name="read",
    factory=make_read_limitstate,
    description="6T read-access-time failure (six cell vth axes)",
    spec_unit="s",
    knobs=("vdd", "cbl", "dv_spec", "n_steps", "include_beta", "kernel"),
    choices={"kernel": _KERNEL},
))
_register(WorkloadSpec(
    name="write",
    factory=make_write_limitstate,
    description="6T write-trip-time failure (six cell vth axes)",
    spec_unit="s",
    knobs=("vdd", "cbl", "rdrv", "n_steps", "include_beta", "kernel"),
    choices={"kernel": _KERNEL},
))
_register(WorkloadSpec(
    name="disturb",
    factory=make_disturb_limitstate,
    description="6T dynamic read-stability failure (read bump vs trip point)",
    spec_unit="V",
    knobs=("vdd", "cbl", "n_steps", "include_beta", "kernel"),
    choices={"kernel": _KERNEL},
))
_register(WorkloadSpec(
    name="sa-offset",
    factory=make_senseamp_offset_limitstate,
    description="sense-amp input-referred offset failure (compiled latch)",
    spec_unit="V",
    knobs=("vdd", "dv_max", "n_bisect", "n_steps", "kernel"),
    choices={"kernel": _KERNEL},
    # Bisection-quantised metric: match the MPFP tolerances to the
    # extractor resolution (the tuning the sa-sigma CLI always applied).
    estimator_options={
        "mpfp_options": MpfpOptions(max_iterations=25, tol_g=1e-2, tol_align=2e-2)
    },
))
_register(WorkloadSpec(
    name="system-read",
    factory=make_system_read_limitstate,
    description="system-level read failure (six cell + four sense-amp axes)",
    spec_unit="s",
    knobs=("vdd", "cbl", "dv_base", "dv_floor", "n_steps", "kernel",
           "sa_model", "sa_n_steps", "sa_dv_max", "sa_n_bisect"),
    choices={"kernel": _KERNEL, "sa_model": ("linear", "latch")},
))
_register(WorkloadSpec(
    name="column-read",
    factory=make_column_read_limitstate,
    description="column-level read failure (accessed cell + leakers)",
    spec_unit="s",
    knobs=("n_leakers", "leaker_data", "vdd", "cbl", "dv_spec", "n_steps",
           "kernel", "assembly"),
    choices={"kernel": _KERNEL, "assembly": _ASSEMBLY,
             "leaker_data": _LEAKER_DATA},
))
_register(WorkloadSpec(
    name="array-read",
    factory=make_array_read_limitstate,
    description="array-slice read failure (columns behind a shared mux)",
    spec_unit="s",
    knobs=("n_cols", "n_leakers", "leaker_data", "vdd", "cbl", "cdl",
           "dv_spec", "n_steps", "kernel", "assembly", "solver"),
    choices={"kernel": _KERNEL, "assembly": _ASSEMBLY,
             "leaker_data": _LEAKER_DATA,
             "solver": ("auto", "schur", "blocked")},
))
_register(WorkloadSpec(
    name="analytic-linear",
    factory=_analytic_linear,
    description="hyperplane boundary at an exact sigma (spec = beta); "
                "closed-form truth, no simulator — service/CI canary",
    spec_unit="sigma",
    knobs=("dim",),
))
_register(WorkloadSpec(
    name="analytic-quadratic",
    factory=_analytic_quadratic,
    description="curved boundary at an exact distance (spec = beta); "
                "closed-form truth, no simulator — service/CI canary",
    spec_unit="sigma",
    knobs=("dim", "kappa"),
))


def workload_names() -> Tuple[str, ...]:
    """Registered workload names in registration order."""
    return tuple(WORKLOADS)


def get_workload(name: str) -> WorkloadSpec:
    """Resolve a workload name; unknown names raise the stable ``A001``."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise RequestError(
            f"unknown workload {name!r}; registered workloads: "
            + ", ".join(WORKLOADS),
            code="A001",
        ) from None


# ----------------------------------------------------------------------
# Surrogate workloads (figures F2/F5)
# ----------------------------------------------------------------------

def surrogate_workload(sigma_target: float = 4.5, dim: int = 6) -> Workload:
    """SRAM-shaped quadratic-response workload at an exact sigma level."""
    spec = SramSurrogateLimitState.spec_for_sigma(sigma_target, dim=dim)
    ls = SramSurrogateLimitState(spec=spec, dim=dim)
    return Workload(
        name=f"surrogate-{sigma_target:g}s-d{dim}",
        make=lambda: SramSurrogateLimitState(spec=spec, dim=dim),
        exact_pfail=ls.exact_pfail(),
        dim=dim,
        description=f"quadratic response surface at {sigma_target:g} sigma, {dim} dims",
    )
