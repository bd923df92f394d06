"""Batched circuit compiler: a :class:`~repro.spice.netlist.Circuit` in,
a fused batched transient kernel out.

PR 2 hand-wired one circuit (the 6T cell) into a fused integrator; this
module makes "batched fused integration" a property of the SPICE layer.
:class:`CompiledTransient` analyses a netlist once and emits everything
the fused inner loop needs, so scenario diversity becomes a *compile
step* instead of a per-circuit rewrite:

* **Node partitioning.**  Nodes pinned by a grounded voltage source
  become *rails* — known, possibly time-varying voltages; the remaining
  nodes are the unknowns the Newton iteration solves for.
* **Terminal-gather index maps.**  Every MOSFET terminal resolves to a
  row of an extended state matrix ``(n_unknown + n_rails + 1, n)``
  (unknowns, rails, ground), so gathering all device voltages is one
  ``np.take`` per terminal per iteration regardless of device count.
* **One stacked device evaluation.**  All devices evaluate in a single
  pass over ``(n_devices, n_samples)`` arrays — a faithful transcription
  of :meth:`repro.spice.mosfet.MosfetModel.ids` (same smooth clamps,
  same epsilons) with the model-card scalars broadcast as per-device
  columns.  ``kernel="reference"`` instead calls ``MosfetModel.ids``
  device by device inside the *same* step loop: the transparent
  cross-check, pinned against the fused path by the test suite.
* **Precomputed assembly, dense or sparse.**  Residual and Jacobian
  contributions are assembled by two precomputed incidence matrices
  (``F += S @ ids``, ``J += (M @ G_stack).reshape(nu, nu, -1)``), not
  per-device Python.  The Jacobian matmul is *quadratic* in the node
  count (``nu²`` rows for a linear number of device stamps) — fine to a
  few dozen unknowns, pure waste beyond.  The ``assembly="sparse"``
  pass (auto-selected above :data:`SPARSE_ASSEMBLY_THRESHOLD` unknowns)
  instead multiplies by one ``scipy.sparse`` CSR matrix holding the
  device stamps, one row per compact Jacobian row (below).  The CSR ×
  dense kernel adds each row's entries in stored order, the stamps are
  stored with columns ascending, and every stamp is an exact ±1, so
  each entry gets the same additions in the same order as the dense
  matmul's k-ascending inner products.  The residual matmul is linear
  in the node count and stays shared by both paths, so the sparse pass
  is bit-equal to the dense one on the pinned inputs, which stays
  selectable as the permanent cross-check.
* **Compact Jacobians.**  A plan whose solver resolves to ``"schur"``
  stores its Jacobian as *compact rows*: one per structural nonzero of
  the compile-time pattern (device stamps, ``C``, ``G``, the diagonal;
  538 of 19 044 entries on the 4x16 array slice) plus a trailing
  always-zero row.  The CSR product yields those rows at every batch
  width, the per-step base ``C/h + G`` is a compact table too, and
  such a sparse plan builds neither the dense incidence ``M`` nor a
  dense per-step base.  A dense-assembly Schur plan gathers its matmul
  result into the same rows, so both assemblies feed the solver
  identical inputs.  Plans without a Schur partition keep the dense
  stack (a sparse one expands the CSR product, and hands batches
  under :data:`_SPARSE_MIN_BATCH` samples to the matmul).
* **Structure-exploiting solves.**  Above 4 unknowns the compiler also
  inspects the Jacobian's compile-time sparsity pattern: when it is
  bordered-block-diagonal (a column: leaker pairs touching only the two
  bitlines; a multi-column array slice: per-column cell pairs against a
  border of all bitlines, with the shared mux data lines peeling off as
  their own interior blocks), the fused path solves through a batched
  Schur complement (:class:`_SchurSolver`) on the compact rows — block
  solves folded onto the unrolled eliminations, each block coupled only
  to the border nodes it touches, a border system through
  :func:`solveN`, vectorised back-substitution — instead of the cubic
  blocked elimination.  ``solver="blocked"`` forces the generic elimination
  (the permanent cross-check the benchmarks time the peel against) and
  ``solver="schur"`` makes a non-decomposing pattern a loud compile
  error.  The solver choice is independent of the assembly choice, and
  the reference kernel keeps ``np.linalg.solve`` as the cross-check for
  both (expanding compact rows to a dense stack first).
* **``solveN``.**  Batched dense solves over ``(nu, nu, n)`` stacks:
  fully unrolled closed-form elimination for ``nu <= 4`` (PR 2's
  ``solve4`` generalised down to 1) and blocked in-place elimination
  above, both with a per-pivot magnitude guard that re-solves degenerate
  samples through the row-pivoted ``np.linalg.solve`` — pathological
  matrices lose speed, never accuracy.
* **Linear elements.**  Capacitors (explicit and the MOSFETs' lumped
  terminal caps) build the constant ``C`` matrix; couplings to moving
  rails inject ``C * dV_rail/dt`` per step.  Resistors build a constant
  conductance matrix; resistors to rails contribute a per-step drive
  term (this is how write drivers compile).  Controlled sources and
  current sources are rejected — the compiler targets the fixed-topology
  statistical workloads, and refusing loudly beats integrating wrongly.
* **Observation probes.**  Metric extraction compiles too:
  :class:`CrossProbe` records first rising zero crossings of linear node
  combinations (with optional per-sample offsets — e.g. a per-sample
  sense threshold), :class:`PeakProbe` tracks running maxima past a
  start time, :class:`ValueProbe` snapshots a combination at a grid
  time.  :class:`RetirePolicy` generalises PR 2's sample retirement:
  once a designated probe has recorded its crossing and the retirement
  time has passed, samples are scattered to the output arrays and the
  working set is compacted.

The integration scheme is the one the batched 6T engine established:
backward Euler on a fixed grid, damped active-set Newton with linear
extrapolation warm starts, clamped to the physically reachable band.
Invariants the compiler must keep (see ROADMAP.md): the fused device
math stays a faithful ``MosfetModel.ids`` transcription, the reference
kernel stays available, and retirement never changes metrics — only
aux tails after the retirement point.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse

from repro.errors import CompileError, LintError, SimulationError
from repro.spice.elements import (
    CurrentSource,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.spice.mosfet import THERMAL_VOLTAGE
from repro.spice.netlist import GROUND_INDEX, Circuit
from repro.spice.sources import DcShape

__all__ = [
    "CompiledTransient",
    "CrossProbe",
    "PeakProbe",
    "ValueProbe",
    "RetirePolicy",
    "transient_grid",
    "solveN",
    "solve4",
    "SPARSE_ASSEMBLY_THRESHOLD",
    "PLAN_FORMAT_VERSION",
]

# Smoothing epsilons — must match MosfetModel.ids exactly.
_EPS_RELU = 1e-3
_EPS_ABS = 5e-3

#: Unknown-node count above which ``assembly="auto"`` switches from the
#: dense incidence matmuls to the sparse stamp product.  At or below this
#: the matmuls are small enough that BLAS wins; above it the dense
#: Jacobian assembly is the dominant per-iteration cost (quadratic in
#: the node count for a linear number of stamps).
SPARSE_ASSEMBLY_THRESHOLD = 8

#: Active-sample count below which a sparse plan *without* a Schur
#: partition delegates the Jacobian to the dense matmul, so a skinny
#: batch assembles exactly as a dense plan would.  These are the
#: cross-check configurations (forced ``assembly="sparse"`` on circuits
#: of 4 unknowns or fewer, ``solver="blocked"``, patterns that refuse the
#: peel); ``test_bit_equal_on_latch`` fails when they multiply by the
#: stamp CSR at every width.  Schur plans use the CSR product at every
#: width and hold no ``_m_mat``.  The delegation buys no universal
#: bit-equality: measured with OpenBLAS 0.3.31 on random conductance
#: stacks, the matmul equals the in-order stamp sums at every width from
#: 2 to 20 on the 2x8 array slice (K = 4·n_dev = 400), at no width tried
#: on the 4x16 slice (K = 1568), and differs at some widths in 1–4,
#: 9–12 and 17–20 on the 6T, latch, write and 3-leaker column benches
#: (K <= 96); the run-level sparse == dense pins hold on their fixed
#: inputs.
_SPARSE_MIN_BATCH = 16

#: Serialization format version of the compiled-plan state (see
#: :mod:`repro.spice.plan` for the byte container and the cache built on
#: top).  Bump this on ANY change to the attribute set
#: :meth:`CompiledTransient.__getstate__` emits or to how
#: :meth:`CompiledTransient.__setstate__` rebuilds the derived tables —
#: a payload carrying a stale version is refused with diagnostic
#: ``P008`` (and treated as a plain cache miss by the plan cache), never
#: silently reinterpreted.
PLAN_FORMAT_VERSION = 3


#: One stamp list ``(rows, cols, signs)`` of the Jacobian incidence ``M``.
_Stamps = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _jacobian_stamps(
    d_idx: np.ndarray,
    g_idx: np.ndarray,
    s_idx: np.ndarray,
    b_idx: np.ndarray,
    nu: int,
) -> _Stamps:
    """The nonzero stamps of the Jacobian incidence ``M``, in ``np.nonzero`` order.

    Device ``k`` stamps each of its four conductances (``G_stack`` rows
    ``[gm, gds, gms, gmb]``, column ``kind * n_dev + k``) against the
    terminal row ``rt`` it differentiates by: ``+1`` into Jacobian entry
    ``(drain, rt)``, ``-1`` into ``(source, rt)``.  Rail and ground rows
    (``>= nu``) stamp nothing.  Within one column, two stamps collide
    only when the drain and the source share a row; their ``+1``/``-1``
    pair cancels to an exact zero, so both are dropped.  Every remaining
    ``(row, col)`` pair is unique, and the list is sorted row-major with
    columns ascending — exactly the entries and the order
    ``np.nonzero(M)`` would yield, without a scan over the dense
    ``nu² x 4·n_dev`` matrix.  ``M`` itself, the stamp CSR and the
    Schur pattern are all derived from this list.
    """
    n_dev = int(d_idx.size)
    # Row ``kind`` holds the terminal conductance ``kind`` differentiates by.
    terminal = np.stack([g_idx, d_idx, s_idx, b_idx]).astype(np.intp)
    drain, source = terminal[1], terminal[2]
    cols = np.arange(4 * n_dev, dtype=np.intp).reshape(4, n_dev)
    stamped = (terminal < nu) & (drain != source)
    parts = []
    for side, sign in ((drain, 1.0), (source, -1.0)):
        keep = stamped & (side < nu)
        rows = (side * nu + terminal)[keep]
        parts.append((rows, cols[keep], np.full(rows.size, sign)))
    rows, cols, signs = (np.concatenate(x) for x in zip(*parts))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], signs[order]


def _jacobian_pattern(
    stamp_rows: np.ndarray, cmat: np.ndarray, gmat: np.ndarray
) -> np.ndarray:
    """Compile-time ``(nu, nu)`` sparsity pattern of the Newton Jacobian.

    The flattened entries the device stamps hit (``stamp_rows``, from
    :func:`_jacobian_stamps`), the nonzeros of ``C`` and ``G`` (the
    per-step base ``C/h + G``) and the whole diagonal.  Its row-major
    nonzeros are the compact-row index: the rows Schur plans store the
    Jacobian in and the rows of every sparse plan's stamp CSR.
    """
    nu = cmat.shape[0]
    pattern = (cmat != 0.0) | (gmat != 0.0)
    entries = np.unique(stamp_rows)
    pattern[entries // nu, entries % nu] = True
    np.fill_diagonal(pattern, True)
    return pattern


def _stamp_csr(stamps: _Stamps, index: np.ndarray, n_cols: int) -> scipy.sparse.csr_array:
    """The Jacobian stamp list as a CSR matrix over the compact rows.

    ``stamps`` is :func:`_jacobian_stamps` output: unique ``(row, col)``
    pairs with ±1 signs, row-major with columns ascending.  ``index`` is
    the compact-row index (sorted flat entries covering every stamped
    one); stamp rows map to compact rows through ``np.searchsorted``, so
    the row-major list is already in CSR order and needs no sort.  The
    matrix has ``index.size + 1`` rows, the trailing always-zero row
    empty, and ``n_cols = 4·n_dev`` columns (the ``G_stack`` rows).
    ``csr @ g_stack`` adds each row's ±1 stamps in stored (ascending
    column) order — the order the dense matmul reduces its inner
    dimension in, which is what makes the sparse pass bit-equal to the
    dense one on the pinned inputs (the ±1 products are exact, so only
    addition order can differ).
    """
    rows, cols, signs = stamps
    counts = np.bincount(np.searchsorted(index, rows), minlength=index.size + 1)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return scipy.sparse.csr_array(
        (signs, cols, indptr), shape=(index.size + 1, n_cols)
    )


def _incidence_matrices(
    d_idx: np.ndarray,
    g_idx: np.ndarray,
    s_idx: np.ndarray,
    b_idx: np.ndarray,
    nu: int,
) -> Tuple[np.ndarray, _Stamps]:
    """Current incidence and Jacobian stamp list from the terminal maps.

    ``S[node, dev]`` stamps device currents into the residual
    (``F += S @ ids``); the Jacobian incidence is the stamp list of
    :func:`_jacobian_stamps`, from which the pattern, the compact-row
    index, the stamp CSR and (on plans that multiply by it) the
    dense ``M`` all derive; a sparse Schur plan never builds ``M``, which
    is ``nu² x 4·n_dev`` (~235 MB at array-slice scale).  A device whose
    drain and source share a row stamps nothing into either.  Both are
    pure functions of the four terminal-row arrays and the unknown
    count, which is why compilation and plan restore
    (:meth:`CompiledTransient.__setstate__`) share this function; the
    plan audit replays the original per-device stamping loop entry for
    entry.
    """
    n_dev = int(d_idx.size)
    dev = np.arange(n_dev)
    s_mat = np.zeros((nu, n_dev))
    for side, sign in ((d_idx, 1.0), (s_idx, -1.0)):
        keep = (side < nu) & (d_idx != s_idx)
        s_mat[side[keep], dev[keep]] = sign
    return s_mat, _jacobian_stamps(d_idx, g_idx, s_idx, b_idx, nu)


def _expand_compact(jac: np.ndarray, index: np.ndarray, nu: int) -> np.ndarray:
    """Compact Jacobian rows ``(nnz + 1, m)`` as a dense ``(nu, nu, m)`` stack.

    Only the reference kernel and the Schur path's ``LinAlgError``
    fallback need the dense stack; entries outside ``index`` are zero.
    """
    dense = np.zeros((nu * nu, jac.shape[1]))
    dense[index] = jac[:-1]
    return dense.reshape(nu, nu, -1)


def _ordered_sums(entries: np.ndarray, targets: np.ndarray, n_inner: int, pad: int):
    """Gather table summing each target's terms in entry order.

    Entry ``entries[e]`` owns the ``n_inner`` consecutive terms
    ``entries[e] * n_inner + k`` of a flat product array and contributes
    them to ``targets[e]``.  Returns ``(uniq, table)``: the distinct
    targets and a ``(K, uniq.size)`` index table whose column ``t``
    lists target ``t``'s terms in entry-then-``k`` order, padded with
    ``pad`` (a zero slot).  ``prod[table].sum(axis=0)`` then adds each
    target's terms in that order (numpy accumulates an outer reduction
    axis row by row).
    """
    order = np.argsort(targets, kind="stable")
    uniq, first, counts = np.unique(
        targets[order], return_index=True, return_counts=True
    )
    rank = np.arange(order.size) - np.repeat(first, counts)
    col = np.repeat(np.arange(uniq.size), counts)
    table = np.full(
        (int(counts.max(initial=0)) * n_inner, uniq.size), pad, dtype=np.intp
    )
    for k in range(n_inner):
        table[rank * n_inner + k, col] = entries[order] * n_inner + k
    return uniq, table


# ----------------------------------------------------------------------
# Batched dense solvers
# ----------------------------------------------------------------------

def _lapack_rescue(a: np.ndarray, b: np.ndarray, x: np.ndarray, bad: np.ndarray) -> None:
    """Re-solve the ``bad`` samples of ``a x = b`` through ``np.linalg.solve``.

    ``a`` is the *original* ``(nu, nu, m)`` stack (the elimination works on
    copies), ``b`` the original right-hand sides; results overwrite the
    corresponding columns of ``x`` in place.
    """
    idx = np.flatnonzero(bad)
    sub_a = np.ascontiguousarray(a[:, :, idx].transpose(2, 0, 1))
    sub_b = np.ascontiguousarray(b[:, idx].T)[..., None]
    x[:, idx] = np.linalg.solve(sub_a, sub_b)[..., 0].T


def solve1(a: np.ndarray, b: np.ndarray, min_pivot: float = 1e-18) -> np.ndarray:
    """Trivial 1x1 stack solve with the same pivot guard as its siblings."""
    a00 = a[0, 0]
    bad = np.abs(a00) < min_pivot
    if bad.any():
        a00 = np.where(bad, 1.0, a00)
    x = (b[0] / a00)[None, :].copy()
    if bad.any():
        _lapack_rescue(a, b, x, bad)
    return x


def solve2(a: np.ndarray, b: np.ndarray, min_pivot: float = 1e-18) -> np.ndarray:
    """Unrolled 2x2 stack solve (see :func:`solve4` for the contract)."""
    a00, a01 = a[0]
    a10, a11 = a[1]
    b0, b1 = b

    bad = np.abs(a00) < min_pivot
    if bad.any():
        a00 = np.where(bad, 1.0, a00)
    p0 = 1.0 / a00
    f1 = a10 * p0
    a11 = a11 - f1 * a01
    b1 = b1 - f1 * b0
    bad1 = np.abs(a11) < min_pivot
    if bad1.any():
        a11 = np.where(bad1, 1.0, a11)
        bad |= bad1
    x1 = b1 / a11
    x0 = (b0 - a01 * x1) * p0
    x = np.stack([x0, x1])
    if bad.any():
        _lapack_rescue(a, b, x, bad)
    return x


def solve3(a: np.ndarray, b: np.ndarray, min_pivot: float = 1e-18) -> np.ndarray:
    """Unrolled 3x3 stack solve (see :func:`solve4` for the contract)."""
    a00, a01, a02 = a[0]
    a10, a11, a12 = a[1]
    a20, a21, a22 = a[2]
    b0, b1, b2 = b

    bad = np.abs(a00) < min_pivot
    if bad.any():
        a00 = np.where(bad, 1.0, a00)
    p0 = 1.0 / a00
    f1 = a10 * p0
    f2 = a20 * p0
    a11 = a11 - f1 * a01
    a12 = a12 - f1 * a02
    b1 = b1 - f1 * b0
    a21 = a21 - f2 * a01
    a22 = a22 - f2 * a02
    b2 = b2 - f2 * b0

    bad1 = np.abs(a11) < min_pivot
    if bad1.any():
        a11 = np.where(bad1, 1.0, a11)
        bad |= bad1
    p1 = 1.0 / a11
    f2 = a21 * p1
    a22 = a22 - f2 * a12
    b2 = b2 - f2 * b1

    bad2 = np.abs(a22) < min_pivot
    if bad2.any():
        a22 = np.where(bad2, 1.0, a22)
        bad |= bad2
    x2 = b2 / a22
    x1 = (b1 - a12 * x2) * p1
    x0 = (b0 - a01 * x1 - a02 * x2) * p0
    x = np.stack([x0, x1, x2])
    if bad.any():
        _lapack_rescue(a, b, x, bad)
    return x


def solve4(a: np.ndarray, b: np.ndarray, min_pivot: float = 1e-18) -> np.ndarray:
    """Solve ``a[:, :, i] @ x[:, i] = b[:, i]`` for a stack of 4x4 systems.

    ``a`` has shape ``(4, 4, n)`` and ``b`` shape ``(4, n)``; returns ``x``
    of shape ``(4, n)``.  Inputs are not modified.

    The elimination is fully unrolled (closed-form) and runs in natural
    pivot order, which for the diagonally dominant Newton Jacobians
    ``C/h + G`` is exactly what partial pivoting would choose.  Samples
    whose pivot magnitude drops below ``min_pivot`` (cancellation-level
    for conductance-scale entries) are re-solved through the row-pivoted
    ``np.linalg.solve``, so pathological matrices lose speed, never
    accuracy.
    """
    a00, a01, a02, a03 = a[0]
    a10, a11, a12, a13 = a[1]
    a20, a21, a22, a23 = a[2]
    a30, a31, a32, a33 = a[3]
    b0, b1, b2, b3 = b

    bad = np.abs(a00) < min_pivot
    if bad.any():
        # Keep the guarded samples finite through the closed-form pass
        # (they are re-solved below); avoids divide-by-zero noise.
        a00 = np.where(bad, 1.0, a00)
    p0 = 1.0 / a00
    f1 = a10 * p0
    f2 = a20 * p0
    f3 = a30 * p0
    a11 = a11 - f1 * a01
    a12 = a12 - f1 * a02
    a13 = a13 - f1 * a03
    b1 = b1 - f1 * b0
    a21 = a21 - f2 * a01
    a22 = a22 - f2 * a02
    a23 = a23 - f2 * a03
    b2 = b2 - f2 * b0
    a31 = a31 - f3 * a01
    a32 = a32 - f3 * a02
    a33 = a33 - f3 * a03
    b3 = b3 - f3 * b0

    bad1 = np.abs(a11) < min_pivot
    if bad1.any():
        a11 = np.where(bad1, 1.0, a11)
        bad |= bad1
    p1 = 1.0 / a11
    f2 = a21 * p1
    f3 = a31 * p1
    a22 = a22 - f2 * a12
    a23 = a23 - f2 * a13
    b2 = b2 - f2 * b1
    a32 = a32 - f3 * a12
    a33 = a33 - f3 * a13
    b3 = b3 - f3 * b1

    bad2 = np.abs(a22) < min_pivot
    if bad2.any():
        a22 = np.where(bad2, 1.0, a22)
        bad |= bad2
    p2 = 1.0 / a22
    f3 = a32 * p2
    a33 = a33 - f3 * a23
    b3 = b3 - f3 * b2
    bad3 = np.abs(a33) < min_pivot
    if bad3.any():
        a33 = np.where(bad3, 1.0, a33)
        bad |= bad3

    x3 = b3 / a33
    x2 = (b2 - a23 * x3) * p2
    x1 = (b1 - a12 * x2 - a13 * x3) * p1
    x0 = (b0 - a01 * x1 - a02 * x2 - a03 * x3) * p0
    x = np.stack([x0, x1, x2, x3])

    if bad.any():
        _lapack_rescue(a, b, x, bad)
    return x


def _solve_blocked(a: np.ndarray, b: np.ndarray, min_pivot: float) -> np.ndarray:
    """Blocked in-place Gaussian elimination for ``(n, n, m)`` stacks, n > 4.

    One vectorised rank-1 update per pivot (O(n) numpy calls total, every
    call elementwise over the full sample axis), natural pivot order with
    the shared pivot guard.
    """
    n = a.shape[0]
    aw = a.copy()
    bw = b.copy()
    bad = np.zeros(a.shape[2], dtype=bool)
    for k in range(n):
        piv = aw[k, k]
        bk = np.abs(piv) < min_pivot
        if bk.any():
            piv = np.where(bk, 1.0, piv)
            aw[k, k] = piv
            bad |= bk
        if k + 1 < n:
            f = aw[k + 1:, k] / piv
            aw[k + 1:, k + 1:] -= f[:, None, :] * aw[k, k + 1:][None, :, :]
            bw[k + 1:] -= f * bw[k]
    x = np.empty_like(bw)
    for k in range(n - 1, -1, -1):
        acc = bw[k]
        if k + 1 < n:
            acc = acc - (aw[k, k + 1:] * x[k + 1:]).sum(axis=0)
        x[k] = acc / aw[k, k]
    if bad.any():
        _lapack_rescue(a, b, x, bad)
    return x


_UNROLLED_SOLVERS = {1: solve1, 2: solve2, 3: solve3, 4: solve4}

#: Caps for the compile-time Schur decomposition.  Interior blocks must
#: fold onto the unrolled solvers; the border system goes through
#: :func:`solveN`, so it may exceed 4 unknowns (blocked elimination) —
#: the cap on the border is *relative* to the circuit size, because the
#: Schur path only pays off while the border stays a small fraction of
#: the node count (a multi-column array slice peels per-column cell
#: pairs against a border of all bitlines: 2 per column).
_SCHUR_MAX_BLOCK = 4
_SCHUR_MIN_BORDER_CAP = 4


def _schur_border_cap(nu: int) -> int:
    """Largest border the Schur decomposition is allowed to accumulate.

    ``nu // 4`` keeps the border solve (cubic in the border size)
    negligible next to the peeled interior work, with an absolute floor
    of :data:`_SCHUR_MIN_BORDER_CAP` so small circuits keep the exact
    behaviour the column compiled to before the cap was generalised.
    """
    return max(_SCHUR_MIN_BORDER_CAP, nu // 4)


class _SchurSolver:
    """Structure-exploiting batched solve for bordered-block-diagonal systems.

    Large compiled circuits are rarely dense: a column's leaker cells
    couple only to their partner node and the two bitlines, so after
    removing a small *border* set (the bitlines) the Jacobian graph falls
    apart into tiny independent blocks.  This solver finds that structure
    once at compile time — a greedy peel: while some connected component
    of the non-border graph exceeds :data:`_SCHUR_MAX_BLOCK` nodes, move
    its highest-degree node into the border (deterministic, ties broken
    by node index).  Each interior block then records its *border set*
    (``borders``): the border nodes it couples to, in ascending order,
    padded with ``-1`` to the widest block of its group — 2 bitlines for
    a cell pair, every bitline of one polarity for a mux data line.

    :meth:`solve` reads a compact Jacobian — one row per structural
    nonzero of the pattern plus a trailing always-zero row, the layout
    Schur plans assemble into — through precomputed compact-row indices
    (:meth:`bind`).  Per group it folds the block solves over (block,
    rhs, sample) onto the unrolled :func:`solveN` kernels with ``1 + q``
    right-hand sides (``q`` the border-set width, not the border size),
    subtracts each block's ``q x q`` Schur contribution from the border
    system, solves that through :func:`solveN` (blocked elimination above
    4 unknowns) and back-substitutes over the border set only.  The
    Schur update adds every border entry's terms block by block in
    ascending order — the order a dense ``einsum`` over all blocks and
    border nodes reduces them at widths above one — so skipping the zero
    bands left the pinned access times bit-identical.  Every path keeps
    the pivot guard with the LAPACK rescue.

    Construction raises :class:`SimulationError` when the pattern does
    not decompose within the border cap (:func:`_schur_border_cap` —
    relative to the node count, so bigger circuits may peel bigger
    borders while dense patterns still refuse); callers fall back to
    the generic blocked elimination.  The partition (``h``, ``groups``,
    ``borders``) is plan state; the compact-row tables are derived from
    it and the compact-row index, so pickling drops them and plan
    restore rebinds.
    """

    def __init__(self, pattern: np.ndarray, min_pivot: float):
        nu = pattern.shape[0]
        adj = (pattern | pattern.T)
        np.fill_diagonal(adj, False)
        degree = adj.sum(axis=1)
        border_cap = _schur_border_cap(nu)

        border: List[int] = []
        while True:
            comps = self._components(adj, border)
            big = [c for c in comps if len(c) > _SCHUR_MAX_BLOCK]
            if not big:
                break
            if len(border) >= border_cap:
                raise CompileError(
                    "schur: pattern does not decompose within the border cap",
                    code="P003",
                )
            cand = np.concatenate(big)
            border.append(int(cand[np.argmax(degree[cand])]))
        if not comps or not border:
            # Fully decoupled or trivially small systems are not worth a
            # dedicated path; the generic solver handles them.
            raise CompileError("schur: no bordered structure to exploit", code="P003")

        self.min_pivot = float(min_pivot)
        self.h = np.array(sorted(border), dtype=int)
        groups: Dict[int, List[np.ndarray]] = {}
        for comp in comps:
            groups.setdefault(len(comp), []).append(np.sort(comp))
        # Deterministic group order: by block size, blocks by first node.
        self.groups = []
        self.borders = []
        for s in sorted(groups):
            nodes = np.stack(sorted(groups[s], key=lambda c: int(c[0])))
            self.groups.append((s, nodes))
            touch = adj[nodes][:, :, self.h].any(axis=1)     # (nc, h)
            q = int(touch.sum(axis=1).max())
            first = np.argsort(~touch, axis=1, kind="stable")[:, :q]
            self.borders.append(
                np.where(np.take_along_axis(touch, first, axis=1), first, -1)
            )
        self.bind(np.flatnonzero(pattern), nu)

    @staticmethod
    def _components(adj: np.ndarray, border: List[int]) -> List[np.ndarray]:
        nu = adj.shape[0]
        alive = np.ones(nu, dtype=bool)
        alive[list(border)] = False
        seen = np.zeros(nu, dtype=bool)
        comps = []
        for start in range(nu):
            if not alive[start] or seen[start]:
                continue
            comp = [start]
            seen[start] = True
            stack = [start]
            while stack:
                node = stack.pop()
                for nb in np.flatnonzero(adj[node] & alive & ~seen):
                    seen[nb] = True
                    comp.append(int(nb))
                    stack.append(int(nb))
            comps.append(np.array(sorted(comp), dtype=int))
        return comps

    def bind(self, index: np.ndarray, nu: int) -> None:
        """Compact-row tables of the partition under the index ``index``.

        ``index`` holds the sorted flat ``(row * nu + col)`` entries of
        the compact rows; an entry outside it reads the trailing zero
        row.  Per group the tables are: the block (``d_rows``, repeated
        once per right-hand side), coupling (``c_rows``) and
        border-row (``r_rows``) gathers; the Schur-update targets and
        their ordered term tables (``pairs``/``pair_terms`` over the
        ``(block, i, j, s)`` products, ``nodes_h``/``node_terms`` over
        the ``(block, i, s)`` ones); the padded border set with pads
        clamped to 0 for the back-substitution gather.
        """
        nnz = index.size
        pos = np.full(nu * nu, nnz, dtype=np.intp)
        pos[index] = np.arange(nnz)

        def rows(i, j):
            return pos[i * nu + j]

        h = self.h
        self._hh_rows = rows(h[:, None], h[None, :])
        self._tables = []
        for (s, nodes), border in zip(self.groups, self.borders):
            nc, q = border.shape
            valid = border >= 0
            b_node = h[np.maximum(border, 0)]
            d = rows(nodes[:, :, None], nodes[:, None, :])          # (nc, s, s)
            c = np.where(valid[:, None, :],
                         rows(nodes[:, :, None], b_node[:, None, :]), nnz)
            r = np.where(valid[:, :, None],
                         rows(b_node[:, :, None], nodes[:, None, :]), nnz)
            pair_entries = np.flatnonzero(valid[:, :, None] & valid[:, None, :])
            blk, i, j = np.unravel_index(pair_entries, (nc, q, q))
            pairs, pair_terms = _ordered_sums(
                pair_entries, border[blk, i] * h.size + border[blk, j], s,
                pad=nc * q * q * s,
            )
            node_entries = np.flatnonzero(valid)
            nodes_h, node_terms = _ordered_sums(
                node_entries, border.ravel()[node_entries], s, pad=nc * q * s
            )
            self._tables.append(SimpleNamespace(
                d_rows=np.repeat(
                    d.transpose(1, 2, 0)[:, :, :, None], 1 + q, axis=3
                ).reshape(s, s, nc * (1 + q)),
                c_rows=c.transpose(1, 0, 2),                        # (s, nc, q)
                r_rows=r,                                           # (nc, q, s)
                pairs=pairs,
                pair_terms=pair_terms,
                nodes_h=nodes_h,
                node_terms=node_terms,
                border_x=np.maximum(border, 0),
            ))

    def __getstate__(self) -> Dict[str, object]:
        return {
            k: v for k, v in self.__dict__.items()
            if k not in ("_hh_rows", "_tables")
        }

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve the compact-row system ``a`` (``(nnz + 1, m)``) for ``b`` (``(nu, m)``)."""
        h_idx = self.h
        m = a.shape[1]
        min_pivot = self.min_pivot
        x = np.empty_like(b)

        b_h = b[h_idx]
        schur = a[self._hh_rows]                              # (h, h, m)
        schur_flat = schur.reshape(-1, m)
        saved = []
        for (s, nodes), t in zip(self.groups, self._tables):
            nc, q = t.border_x.shape
            r = 1 + q
            # Solve D z = [b_D | C] with the rhs axis folded into the
            # sample axis: (s, s, nc * (1 + q) * m) hits the unrolled
            # closed-form eliminations for s <= 4.
            rhs = np.empty((s, nc, r, m))
            rhs[:, :, 0] = b[nodes.T]
            rhs[:, :, 1:] = a[t.c_rows]
            z = solveN(
                a[t.d_rows].reshape(s, s, nc * r * m),
                rhs.reshape(s, nc * r * m),
                min_pivot,
            ).reshape(s, nc, r, m)
            z_b = z[:, :, 0]                                  # (s, nc, m)
            z_c = z[:, :, 1:]                                 # (s, nc, q, m)

            # Per-block products, a zero slot last for padded terms.
            r_blk = a[t.r_rows]                               # (nc, q, s, m)
            prod = np.empty((nc * q * q * s + 1, m))
            prod[-1] = 0.0
            np.multiply(r_blk[:, :, None], z_c.transpose(1, 2, 0, 3)[:, None],
                        out=prod[:-1].reshape(nc, q, q, s, m))
            schur_flat[t.pairs] -= prod[t.pair_terms].sum(axis=0)
            prod = np.empty((nc * q * s + 1, m))
            prod[-1] = 0.0
            np.multiply(r_blk, z_b.transpose(1, 0, 2)[:, None],
                        out=prod[:-1].reshape(nc, q, s, m))
            b_h[t.nodes_h] -= prod[t.node_terms].sum(axis=0)
            saved.append((nodes, t.border_x, z_b, z_c))

        x_h = solveN(schur, b_h, min_pivot)
        x[h_idx] = x_h
        for nodes, border_x, z_b, z_c in saved:
            x_d = z_b - (z_c * x_h[border_x]).sum(axis=2)
            x[nodes] = x_d.transpose(1, 0, 2)
        return x


def solveN(a: np.ndarray, b: np.ndarray, min_pivot: float = 1e-18) -> np.ndarray:
    """Batched dense solve of ``a[:, :, i] @ x[:, i] = b[:, i]``.

    ``a`` is ``(n, n, m)``, ``b`` is ``(n, m)``; returns ``(n, m)``.
    Dispatches to the fully unrolled closed-form eliminations for
    ``n <= 4`` and to blocked elimination above; every path carries the
    per-pivot guard with the ``np.linalg.solve`` rescue.
    """
    n = a.shape[0]
    if a.shape[1] != n or b.shape[0] != n:
        raise SimulationError(
            f"solveN: shape mismatch a={a.shape}, b={b.shape}"
        )
    solver = _UNROLLED_SOLVERS.get(n)
    if solver is not None:
        return solver(a, b, min_pivot)
    return _solve_blocked(a, b, min_pivot)


# ----------------------------------------------------------------------
# Observation probes and retirement policy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CrossProbe:
    """First rising zero crossing of ``sum_k coeffs[k] * v_k + offset``.

    ``coeffs`` maps unknown-node names to coefficients; ``offset`` is the
    default additive constant (a per-sample array can be supplied at run
    time through ``probe_offsets``).  The crossing time uses the same
    linear interpolation inside the step as the batched 6T engine; a
    sample that never crosses reports ``nan``.
    """

    name: str
    coeffs: Mapping[str, float]
    offset: float = 0.0


@dataclass(frozen=True)
class PeakProbe:
    """Running maximum of one unknown node for ``t >= t_from``."""

    name: str
    node: str
    t_from: float = 0.0


@dataclass(frozen=True)
class ValueProbe:
    """Snapshot of ``sum_k coeffs[k] * v_k + offset`` at the first grid
    point with ``t >= t``.  Incompatible with retirement (a retired
    sample has no state to snapshot); the run rejects the combination."""

    name: str
    coeffs: Mapping[str, float]
    t: float
    offset: float = 0.0


@dataclass(frozen=True)
class RetirePolicy:
    """When and how samples leave the working set.

    A sample retires once the :class:`CrossProbe` named ``probe`` has
    recorded its crossing and the grid time has passed ``after``;
    compaction triggers only when at least ``max(min_count,
    m // frac_divisor)`` samples are retireable, so the bookkeeping cost
    never exceeds its savings.  Retired samples keep the peak/final
    values they had at retirement — callers must only retire once those
    are provably settled (the 6T read retires after the wordline has
    fully fallen).
    """

    probe: str
    after: float
    min_count: int = 16
    frac_divisor: int = 8


def transient_grid(
    t_stop: float,
    breakpoints: Sequence[float] = (),
    n_steps: int = 400,
) -> np.ndarray:
    """Fixed integration grid over ``[0, t_stop]`` landing on breakpoints.

    Segment point counts blend the segment's share of the total span with
    an equal share per segment, so sharp source corners (short segments)
    keep enough density to resolve their transients while long flat
    tails do not starve.  Deterministic for a given breakpoint set.
    """
    if t_stop <= 0:
        raise SimulationError(f"t_stop must be positive, got {t_stop!r}")
    edges = sorted({0.0, float(t_stop)}
                   | {float(b) for b in breakpoints if 0.0 < float(b) < t_stop})
    segs = list(zip(edges, edges[1:]))
    pieces = []
    for a, b in segs:
        w = 0.5 * ((b - a) / t_stop) + 0.5 / len(segs)
        k = max(8, int(round(n_steps * w)))
        pieces.append(np.linspace(a, b, k, endpoint=False))
    pieces.append(np.array([t_stop]))
    return np.unique(np.concatenate(pieces))


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------

class CompiledTransient:
    """A circuit compiled into a batched fixed-grid transient kernel.

    Parameters
    ----------
    circuit:
        The netlist.  Supported elements: MOSFETs, capacitors, resistors
        and grounded voltage sources (which define the rails).  Anything
        else raises :class:`~repro.errors.SimulationError`.
    grid:
        Integration grid (monotonic, starting at the initial time).  Use
        :func:`transient_grid` to build one from the source breakpoints,
        or pass an engine's own grid for bit-compatible integration.
    probes:
        Observation probes evaluated inside the step loop.
    kernel:
        ``"fast"`` — the fused stacked device evaluation with
        :func:`solveN`; ``"reference"`` — per-device
        :meth:`MosfetModel.ids` calls and ``np.linalg.solve`` inside the
        same step loop (slower, maximally transparent).
    assembly:
        ``"dense"`` — residual/Jacobian assembly through the incidence
        matmuls; ``"sparse"`` — one precomputed CSR stamp product,
        bit-equal to the dense pass but linear (not quadratic) in the
        node count; ``"auto"`` (default) — sparse above
        :data:`SPARSE_ASSEMBLY_THRESHOLD` unknowns, dense at or below.
        The resolved choice is exposed as :attr:`assembly`.
    solver:
        Linear-solver policy of the fused path.  ``"auto"`` (default) —
        use the compile-time Schur decomposition when the Jacobian
        pattern is bordered-block-diagonal, the generic guarded
        elimination otherwise; ``"blocked"`` — always the generic
        :func:`solveN` path (unrolled to 4 unknowns, blocked elimination
        above: the permanent cross-check for the structured solve);
        ``"schur"`` — require the Schur decomposition, raising when the
        pattern does not decompose.  The resolved choice is exposed as
        :attr:`solver` (``"schur"`` or ``"blocked"``); the reference
        kernel always keeps the row-pivoted ``np.linalg.solve``.
    newton_max_iter / newton_tol / max_step / min_pivot:
        Damped-Newton controls (defaults match the batched 6T engine).
    clip:
        ``(lo, hi)`` clamp band for Newton updates; ``None`` derives it
        from the rail voltage range over the grid (±0.4 V), matching the
        6T engine's physically-reachable-band clamp.  Warm-start
        extrapolations are clipped to the band widened by 0.1 V.
    strict:
        Run :func:`repro.spice.diagnostics.lint_circuit` over the
        circuit and probes before compiling and raise
        :class:`~repro.errors.LintError` (with every finding attached)
        when the linter reports error-severity diagnostics.  The
        default (``False``) keeps the compiler's own first-failure
        rejections, which raise :class:`~repro.errors.CompileError`
        carrying the matching diagnostic code.

    Construction snapshots the circuit; mutating element attributes
    afterwards (e.g. ``delta_vth``) does not affect compiled runs — the
    varied parameters are per-run inputs instead.
    """

    def __init__(
        self,
        circuit: Circuit,
        grid: np.ndarray,
        probes: Sequence[object] = (),
        kernel: str = "fast",
        assembly: str = "auto",
        solver: str = "auto",
        newton_max_iter: int = 40,
        newton_tol: float = 5e-8,
        max_step: float = 0.4,
        min_pivot: float = 1e-18,
        clip: Optional[Tuple[float, float]] = None,
        strict: bool = False,
    ):
        if kernel not in ("fast", "reference"):
            raise CompileError(
                f"kernel must be 'fast' or 'reference', got {kernel!r}"
            )
        if assembly not in ("auto", "dense", "sparse"):
            raise CompileError(
                f"assembly must be 'auto', 'dense' or 'sparse', got {assembly!r}"
            )
        if solver not in ("auto", "schur", "blocked"):
            raise CompileError(
                f"solver must be 'auto', 'schur' or 'blocked', got {solver!r}"
            )
        if strict:
            from repro.spice.diagnostics import (
                format_diagnostics,
                lint_circuit,
                lint_errors,
            )

            diags = lint_circuit(circuit, probes)
            errors = lint_errors(diags)
            if errors:
                raise LintError(
                    f"strict compile of {circuit.title!r}: the netlist "
                    "linter found errors:\n" + format_diagnostics(errors),
                    code=errors[0].code,
                    diagnostics=diags,
                )
        self._solver_choice = solver
        self.circuit = circuit
        self.kernel = kernel
        self.newton_max_iter = int(newton_max_iter)
        self.newton_tol = float(newton_tol)
        self.max_step = float(max_step)
        self.min_pivot = float(min_pivot)
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.ndim != 1 or self.grid.size < 2 or np.any(np.diff(self.grid) <= 0):
            raise SimulationError("grid must be a strictly increasing 1-D array")

        self._partition_nodes()
        if assembly == "auto":
            assembly = (
                "sparse" if self.n_unknowns > SPARSE_ASSEMBLY_THRESHOLD
                else "dense"
            )
        self.assembly = assembly
        self._build_linear_tables()
        self._build_device_tables()
        self._build_jacobian_tables(peel=True)
        self._build_plan()
        if clip is None:
            lo = min(0.0, float(self._rail_vals.min())) - 0.4
            hi = max(0.0, float(self._rail_vals.max())) + 0.4
        else:
            lo, hi = float(clip[0]), float(clip[1])
        self.clip = (lo, hi)
        self._extrap_clip = (lo - 0.1, hi + 0.1)
        self._compile_probes(probes)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _partition_nodes(self) -> None:
        """Split circuit nodes into rails (source-driven) and unknowns."""
        c = self.circuit
        rail_shape: Dict[int, object] = {}
        for elem in c.elements:
            if isinstance(elem, VoltageSource):
                np_, nm = elem.nodes
                if nm != GROUND_INDEX:
                    raise CompileError(
                        f"compile: voltage source {elem.name!r} must be "
                        "grounded (floating sources are not supported)",
                        code="N005",
                    )
                if np_ == GROUND_INDEX:
                    raise CompileError(
                        f"compile: voltage source {elem.name!r} drives ground",
                        code="N005",
                    )
                if np_ in rail_shape:
                    raise CompileError(
                        f"compile: node {c.node_name(np_)!r} driven by more "
                        "than one voltage source",
                        code="N006",
                    )
                rail_shape[np_] = elem.shape
            elif isinstance(elem, (Mosfet, Resistor)) or elem.caps():
                # MOSFETs, resistors and anything purely capacitive.
                continue
            else:
                if isinstance(elem, (Vcvs, Vccs)):
                    code = "N003"
                elif isinstance(elem, CurrentSource):
                    code = "N004"
                else:
                    code = "N011"
                raise CompileError(
                    f"compile: unsupported element {type(elem).__name__} "
                    f"({elem.name!r}); the batched compiler handles MOSFETs, "
                    "capacitors, resistors and grounded voltage sources",
                    code=code,
                )

        self._rail_nodes = sorted(rail_shape)           # circuit node indices
        self._rail_shapes = [rail_shape[i] for i in self._rail_nodes]
        self.rail_names = [c.node_name(i) for i in self._rail_nodes]
        self.node_names: List[str] = [
            c.node_name(i) for i in range(c.num_nodes) if i not in rail_shape
        ]
        self.n_unknowns = len(self.node_names)
        if self.n_unknowns == 0:
            raise CompileError("compile: circuit has no unknown nodes", code="N014")

        # circuit node index -> extended-state row.
        nu, nr = self.n_unknowns, len(self._rail_nodes)
        self._ground_row = nu + nr
        self._n_ext = nu + nr + 1
        row: Dict[int, int] = {GROUND_INDEX: self._ground_row}
        u = 0
        for i in range(c.num_nodes):
            if i in rail_shape:
                row[i] = nu + self._rail_nodes.index(i)
            else:
                row[i] = u
                u += 1
        self._row_of_node = row
        self._unknown_index = {
            name: k for k, name in enumerate(self.node_names)
        }

    def _build_linear_tables(self) -> None:
        """Constant C and G matrices plus rail-coupling vectors."""
        nu = self.n_unknowns
        nr = len(self._rail_nodes)
        row = self._row_of_node
        cmat = np.zeros((nu, nu))
        cap_rail = np.zeros((nu, nr))       # C coupling to each rail
        gmat = np.zeros((nu, nu))
        g_rail = np.zeros((nu, nr))         # conductance into each rail

        def is_unknown(r: int) -> bool:
            return r < nu

        def rail_col(r: int) -> Optional[int]:
            if nu <= r < nu + nr:
                return r - nu
            return None                     # ground

        for elem in self.circuit.elements:
            for na, nb, c in elem.caps():
                ra, rb = row[na], row[nb]
                au, bu = is_unknown(ra), is_unknown(rb)
                if au and bu:
                    cmat[ra, ra] += c
                    cmat[rb, rb] += c
                    cmat[ra, rb] -= c
                    cmat[rb, ra] -= c
                elif au:
                    cmat[ra, ra] += c
                    k = rail_col(rb)
                    if k is not None:
                        cap_rail[ra, k] += c
                elif bu:
                    cmat[rb, rb] += c
                    k = rail_col(ra)
                    if k is not None:
                        cap_rail[rb, k] += c
            if isinstance(elem, Resistor):
                g = 1.0 / elem.resistance
                ra, rb = row[elem.nodes[0]], row[elem.nodes[1]]
                au, bu = is_unknown(ra), is_unknown(rb)
                if au and bu:
                    gmat[ra, ra] += g
                    gmat[rb, rb] += g
                    gmat[ra, rb] -= g
                    gmat[rb, ra] -= g
                elif au:
                    gmat[ra, ra] += g
                    k = rail_col(rb)
                    if k is not None:
                        g_rail[ra, k] += g
                elif bu:
                    gmat[rb, rb] += g
                    k = rail_col(ra)
                    if k is not None:
                        g_rail[rb, k] += g

        self.cmat = cmat
        self._cap_rail = cap_rail
        self._gmat = gmat
        self._g_rail = g_rail
        self._has_g = bool(np.any(gmat != 0.0) or np.any(g_rail != 0.0))
        # Diagonal-conductance fast path: every conductance sits on the
        # diagonal (resistors to rails/ground only) — the common testbench
        # case, and the one the hand-written 6T write path used.
        self._g_is_diag = self._has_g and not np.any(
            gmat[~np.eye(nu, dtype=bool)] != 0.0
        )

    def _build_device_tables(self) -> None:
        """Per-device parameter columns and terminal index maps."""
        mosfets = self.circuit.mosfets()
        self.device_names = [m.name for m in mosfets]
        self._device_index = {n: k for k, n in enumerate(self.device_names)}
        n_dev = len(mosfets)
        self.n_devices = n_dev
        if n_dev == 0:
            raise CompileError("compile: circuit has no MOSFETs", code="N013")
        nu = self.n_unknowns
        row = self._row_of_node

        def col(values):
            return np.asarray(values, dtype=float)[:, None]  # (n_dev, 1)

        self._device_cards = [(m.model, m.w, m.l) for m in mosfets]
        self._p = col([float(m.model.polarity) for m in mosfets])
        self._vto = col([m.model.vto for m in mosfets])
        self._gamma = col([m.model.gamma for m in mosfets])
        self._n_slope = col([m.model.n_slope for m in mosfets])
        self._lam = col([m.model.lambda_clm for m in mosfets])
        self._beta0 = col([m.model.kp * (m.w / m.l) for m in mosfets])
        phi = np.asarray([m.model.phi for m in mosfets])
        gamma = np.asarray([m.model.gamma for m in mosfets])
        k_half = np.sqrt(phi) + 0.5 * gamma
        self._k_half = col(k_half)
        self._k_half_sq = self._k_half * self._k_half
        ut = THERMAL_VOLTAGE
        self._inv_2nut = 1.0 / (2.0 * self._n_slope * ut)
        self._inv_nut = 1.0 / (self._n_slope * ut)
        self._ispec_coeff = 2.0 * self._n_slope * ut * ut  # times beta -> i_spec

        d_idx, g_idx, s_idx, b_idx = [], [], [], []
        for m in mosfets:
            nd, ng, ns, nb = m.nodes
            d_idx.append(row[nd])
            g_idx.append(row[ng])
            s_idx.append(row[ns])
            b_idx.append(row[nb])
        self._d_idx = np.asarray(d_idx)
        self._g_idx = np.asarray(g_idx)
        self._s_idx = np.asarray(s_idx)
        self._b_idx = np.asarray(b_idx)

    def _build_jacobian_tables(self, peel: bool) -> None:
        """The stamp-derived tables, shared by compile and plan restore.

        One stamp list (:func:`_incidence_matrices`) yields the current
        incidence ``_s_mat``, the compile-time pattern and its row-major
        nonzeros ``_jac_index`` (the compact-row index), the stamp CSR
        ``_jac_csr`` of a sparse plan (rows are compact rows) and, on
        plans that multiply by it, the dense incidence ``_m_mat``.
        ``peel`` runs the solver analysis (compile); a restore keeps the
        shipped partition and rebinds it to the index.  Plans with a
        Schur partition store their Jacobian as compact rows; a sparse
        one multiplies by the CSR at every width and holds no
        ``_m_mat``.  Only the residual keeps the dense matmul: it is
        linear in the node count (nu rows), not worth trading the
        exact-op bit-equality for.
        """
        nu = self.n_unknowns
        self._s_mat, stamps = _incidence_matrices(
            self._d_idx, self._g_idx, self._s_idx, self._b_idx, nu
        )
        pattern = _jacobian_pattern(stamps[0], self.cmat, self._gmat)
        self._jac_index = np.flatnonzero(pattern)
        if peel:
            self._build_solver(pattern)
        elif self._schur is not None:
            self._schur.bind(self._jac_index, nu)
        sparse = self.assembly == "sparse"
        self._jac_csr = (
            _stamp_csr(stamps, self._jac_index, 4 * self.n_devices)
            if sparse else None
        )
        self._m_mat = None
        if not (sparse and self._schur is not None):
            # M[nu*row + col, kind*n_dev + dev]: the dense assembly
            # multiplies by it, and sparse plans without a Schur partition
            # hand skinny batches to that matmul.
            rows, cols, signs = stamps
            self._m_mat = np.zeros((nu * nu, 4 * self.n_devices))
            self._m_mat[rows, cols] = signs

    def _build_solver(self, pattern: np.ndarray) -> None:
        """Pick the batched solver for the fused path.

        At or below 4 unknowns the fully unrolled eliminations are
        unbeatable.  Above, try the Schur decomposition on the Jacobian's
        compile-time sparsity ``pattern`` (:func:`_jacobian_pattern`);
        when the pattern does not decompose, the generic blocked
        elimination in :func:`solveN` remains the fallback.  The
        ``solver=`` argument
        overrides the policy: ``"blocked"`` skips the Schur analysis
        entirely (the cross-check the smoke benchmark times the
        structured solve against), ``"schur"`` makes a
        non-decomposing pattern a compile error instead of a silent
        fallback.  The choice is per-compile and independent of the
        assembly pass, so ``assembly="sparse"`` and ``assembly="dense"``
        always run the identical solver on identical inputs (a dense
        Schur plan gathers its matmul result into compact rows).  The
        reference kernel keeps its row-pivoted ``np.linalg.solve``
        either way — it stays the cross-check for the structured solve
        too.
        """
        self._schur = None
        self.solver = "blocked"
        nu = self.n_unknowns
        if self._solver_choice == "blocked":
            return
        if nu <= 4:
            if self._solver_choice == "schur":
                raise CompileError(
                    "compile: solver='schur' needs more than 4 unknowns "
                    f"(got {nu}); the unrolled eliminations already cover "
                    "this size",
                    code="P003",
                )
            return
        try:
            self._schur = _SchurSolver(pattern, self.min_pivot)
        except SimulationError:
            if self._solver_choice == "schur":
                raise
            self._schur = None
        if self._schur is not None:
            self.solver = "schur"

    def _build_plan(self) -> None:
        """Per-step constant tables over the fixed grid."""
        self._eval_rail_waveforms()
        self._build_plan_tables()

    def _eval_rail_waveforms(self) -> None:
        """Rail voltages over the grid — the Python-loop half of the plan.

        Arbitrary ``SourceShape.value`` calls per grid point cannot be
        vectorised, so the result travels inside a serialized plan;
        everything in :meth:`_build_plan_tables` is pure numpy over the
        grid and compiled matrices and rebuilds bit-identically on
        restore.
        """
        grid = self.grid
        nr = len(self._rail_nodes)
        rail_vals = np.empty((grid.size, nr))
        varying = []
        for j, shape in enumerate(self._rail_shapes):
            if isinstance(shape, DcShape):
                rail_vals[:, j] = shape.level
            else:
                rail_vals[:, j] = [shape.value(float(t)) for t in grid]
                varying.append(j)
        self._rail_vals = rail_vals
        self._varying_rails = varying

    def _build_plan_tables(self) -> None:
        """Derived per-step tables: deterministic numpy on serialized state."""
        grid = self.grid
        rail_vals = self._rail_vals
        hs = np.diff(grid)
        n_steps = hs.size

        # Extrapolation ratio h_k / h_{k-1} for the Newton warm start
        # (0 for the first step, where no history exists).
        extrap = np.zeros_like(hs)
        extrap[1:] = hs[1:] / hs[:-1]

        # The per-step Jacobian base C/h + G: dense on plans that
        # assemble a dense stack, one value per compact row (the zero row
        # last) on Schur plans.  Either way the same elementwise sums.
        cmat_h = self.cmat[None, :, :] / hs[:, None, None]
        base_jac = base_compact = None
        if self._schur is None:
            base_jac = cmat_h + self._gmat[None, :, :]
        else:
            index = self._jac_index
            base_compact = np.zeros((n_steps, index.size + 1))
            base_compact[:, :-1] = (
                cmat_h.reshape(n_steps, -1)[:, index] + self._gmat.ravel()[index]
            )

        # Capacitive rail coupling: inject C * dV_rail/dt per step.
        drail_dt = np.diff(rail_vals, axis=0) / hs[:, None]       # (n_steps, nr)
        cap_inj = drail_dt @ self._cap_rail.T                     # (n_steps, nu)

        # Resistive rail drive.  On the diagonal fast path this is kept in
        # the hand-written engine's g * (y - v_eff) form (bit-compatible
        # with PR 2's write driver); the general path subtracts G_rail @ v.
        # Rail resistors already contributed to the gmat diagonal; here
        # only the drive side (g * v_rail) is assembled.
        g_diag = np.diag(self._gmat).copy()
        g_rhs = rail_vals[1:] @ self._g_rail.T                    # (n_steps, nu)
        with np.errstate(invalid="ignore", divide="ignore"):
            v_eff = np.where(g_diag > 0.0, g_rhs / np.where(g_diag > 0, g_diag, 1.0), 0.0)

        self._plan = SimpleNamespace(
            hs=hs,
            t_prev=grid[:-1],
            t_now=grid[1:],
            extrap=extrap,
            cmat_h=cmat_h,
            base_jac=base_jac,
            base_compact=base_compact,
            cap_inj=cap_inj,
            g_diag=g_diag,
            v_eff=v_eff,
            g_rhs=g_rhs,
            n_steps=n_steps,
        )

    def _compile_probes(self, probes: Sequence[object]) -> None:
        cross: List[CrossProbe] = []
        peak: List[PeakProbe] = []
        value: List[ValueProbe] = []
        names = set()
        for p in probes:
            if p.name in names:
                raise CompileError(
                    f"compile: duplicate probe name {p.name!r}", code="N012"
                )
            names.add(p.name)
            if isinstance(p, CrossProbe):
                cross.append(p)
            elif isinstance(p, PeakProbe):
                peak.append(p)
            elif isinstance(p, ValueProbe):
                value.append(p)
            else:
                raise CompileError(
                    f"compile: unknown probe type {type(p).__name__}", code="N011"
                )

        def coeff_row(coeffs: Mapping[str, float]) -> np.ndarray:
            rowv = np.zeros(self.n_unknowns)
            for node, c in coeffs.items():
                if node not in self._unknown_index:
                    raise CompileError(
                        f"compile: probe references {node!r}, which is not an "
                        f"unknown node (unknowns: {self.node_names})",
                        code="N008",
                    )
                rowv[self._unknown_index[node]] = float(c)
            return rowv

        self._cross_probes = cross
        self._cross_mat = (
            np.stack([coeff_row(p.coeffs) for p in cross]) if cross else None
        )
        for p in peak:
            if p.node not in self._unknown_index:
                raise CompileError(
                    f"compile: peak probe node {p.node!r} is not an unknown "
                    f"node (unknowns: {self.node_names})",
                    code="N008",
                )
        self._peak_probes = peak
        self._peak_rows = np.array(
            [self._unknown_index[p.node] for p in peak], dtype=int
        ) if peak else None
        t_now = self._plan.t_now
        self._peak_track = (
            np.stack([t_now >= p.t_from for p in peak]) if peak else None
        )
        self._value_probes = value
        self._value_mat = (
            np.stack([coeff_row(p.coeffs) for p in value]) if value else None
        )
        self._value_steps = np.array(
            [int(np.searchsorted(t_now, p.t, side="left")) for p in value],
            dtype=int,
        )
        for p, s in zip(value, self._value_steps):
            if s >= self._plan.n_steps:
                raise CompileError(
                    f"compile: value probe {p.name!r} at t={p.t:g} falls "
                    "beyond the grid",
                    code="P007",
                )

    # ------------------------------------------------------------------
    # Device evaluation
    # ------------------------------------------------------------------

    def _device_eval_fused(self, y_ext: np.ndarray, vto_eff: np.ndarray,
                           i_spec: np.ndarray):
        """Currents and conductances of all devices in one stacked pass.

        ``y_ext`` is the ``(n_ext, m)`` extended state; ``vto_eff`` and
        ``i_spec`` are per-chunk ``(n_dev, m)`` precomputations.  Returns
        ``(ids (n_dev, m), g_stack (4*n_dev, m))`` with ``g_stack`` rows
        ordered ``[gm, gds, gms, gmb]`` blockwise, ready for the assembly
        matmul.  The formulas transcribe :meth:`MosfetModel.ids` with the
        scalar card parameters broadcast as ``(n_dev, 1)`` columns.
        """
        p = self._p
        vg = np.take(y_ext, self._g_idx, axis=0)
        vd = np.take(y_ext, self._d_idx, axis=0)
        vs = np.take(y_ext, self._s_idx, axis=0)
        vb = np.take(y_ext, self._b_idx, axis=0)
        vgb = p * (vg - vb)
        vdb = p * (vd - vb)
        vsb = p * (vs - vb)

        # Pinch-off voltage with the smoothly clamped body-effect term.
        vgb_t = vgb - vto_eff
        arg = vgb_t + self._k_half_sq
        root = np.sqrt(arg * arg + _EPS_RELU * _EPS_RELU)
        q = 0.5 * (arg + root)            # smooth_relu(arg)
        dq = 0.5 + 0.5 * (arg / root)     # smooth_relu_grad(arg)
        sqrt_q = np.sqrt(q)
        vp = vgb_t - self._gamma * (sqrt_q - self._k_half)
        dvp_dvgb = 1.0 - self._gamma * dq / (2.0 * sqrt_q)

        # Forward / reverse normalised currents (squared softplus).
        xf = (vp - vsb) * self._inv_2nut
        xr = (vp - vdb) * self._inv_2nut
        sf = np.maximum(xf, 0.0) + np.log1p(np.exp(-np.abs(xf)))
        sr = np.maximum(xr, 0.0) + np.log1p(np.exp(-np.abs(xr)))
        i_f = sf * sf
        i_r = sr * sr
        # sigmoid(x) via tanh — overflow-safe without boolean masking.
        dif = sf * (0.5 + 0.5 * np.tanh(0.5 * xf)) * self._inv_nut
        dir_ = sr * (0.5 + 0.5 * np.tanh(0.5 * xr)) * self._inv_nut

        vds = vdb - vsb
        root_ds = np.sqrt(vds * vds + _EPS_ABS * _EPS_ABS)
        clm = 1.0 + self._lam * (root_ds - _EPS_ABS)
        dclm_dvds = self._lam * (vds / root_ds)

        core = i_spec * (i_f - i_r)
        ids = p * (core * clm)

        n_dev = self.n_devices
        m = y_ext.shape[1]
        g_stack = np.empty((4 * n_dev, m))
        core_dclm = core * dclm_dvds
        gm = g_stack[0:n_dev]
        gds = g_stack[n_dev:2 * n_dev]
        gms = g_stack[2 * n_dev:3 * n_dev]
        np.multiply(i_spec * (dif - dir_) * dvp_dvgb, clm, out=gm)
        np.add(i_spec * dir_ * clm, core_dclm, out=gds)
        np.negative(i_spec * dif * clm + core_dclm, out=gms)
        np.negative(gm + gds + gms, out=g_stack[3 * n_dev:])
        return ids, g_stack

    def _device_eval_reference(self, y_ext: np.ndarray, dvth_t: np.ndarray,
                               bmult_t: np.ndarray):
        """Per-device :meth:`MosfetModel.ids` calls (transparent path)."""
        n_dev = self.n_devices
        m = y_ext.shape[1]
        ids = np.empty((n_dev, m))
        g_stack = np.empty((4 * n_dev, m))
        for k, (model, w, l) in enumerate(self._device_cards):
            i_k, gm, gds, gms, gmb = model.ids(
                y_ext[self._g_idx[k]],
                y_ext[self._d_idx[k]],
                y_ext[self._s_idx[k]],
                y_ext[self._b_idx[k]],
                delta_vth=dvth_t[k],
                beta_mult=bmult_t[k],
                w=w,
                l=l,
            )
            ids[k] = i_k
            g_stack[k] = gm
            g_stack[n_dev + k] = gds
            g_stack[2 * n_dev + k] = gms
            g_stack[3 * n_dev + k] = gmb
        return ids, g_stack

    # ------------------------------------------------------------------
    # Run-time input plumbing
    # ------------------------------------------------------------------

    def _param_matrix(self, spec, n: int, default: float, what: str) -> np.ndarray:
        """Normalise a per-device parameter spec into ``(n_dev, n)``."""
        out = np.full((self.n_devices, n), float(default))
        if spec is None:
            return out
        if isinstance(spec, Mapping):
            for name, val in spec.items():
                if name not in self._device_index:
                    raise SimulationError(
                        f"run: {what} names unknown device {name!r} "
                        f"(devices: {self.device_names})"
                    )
                out[self._device_index[name]] = np.broadcast_to(
                    np.asarray(val, dtype=float), (n,)
                )
            return out
        arr = np.atleast_2d(np.asarray(spec, dtype=float))
        if arr.shape != (n, self.n_devices):
            raise SimulationError(
                f"run: {what} matrix shape {arr.shape} != ({n}, {self.n_devices}) "
                "(columns follow compiled device order "
                f"{self.device_names})"
            )
        out[:] = arr.T
        return out

    def _initial_state(self, ic, n: int) -> np.ndarray:
        ic = dict(ic or {})
        missing = [name for name in self.node_names if name not in ic]
        if missing:
            raise SimulationError(
                f"run: initial conditions missing for unknown nodes {missing}"
            )
        y = np.empty((self.n_unknowns, n))
        for name, val in ic.items():
            if name not in self._unknown_index:
                raise SimulationError(
                    f"run: initial condition for {name!r}, which is not an "
                    f"unknown node (unknowns: {self.node_names})"
                )
            y[self._unknown_index[name]] = np.broadcast_to(
                np.asarray(val, dtype=float), (n,)
            )
        return y

    # ------------------------------------------------------------------
    # The batched integrator
    # ------------------------------------------------------------------

    def run(
        self,
        ic: Mapping[str, Union[float, np.ndarray]],
        n: Optional[int] = None,
        delta_vth=None,
        beta_mult=None,
        probe_offsets: Optional[Mapping[str, np.ndarray]] = None,
        retire: Optional[RetirePolicy] = None,
    ) -> SimpleNamespace:
        """Integrate a batch; returns per-sample outputs and diagnostics.

        ``delta_vth`` / ``beta_mult`` are per-device, per-sample
        variations: either a dict mapping device names to scalars or
        ``(n,)`` arrays (unnamed devices stay nominal), or a full
        ``(n, n_devices)`` matrix in compiled device order.
        ``probe_offsets`` overrides a :class:`CrossProbe`'s constant
        offset with a per-sample array.  ``retire`` enables sample
        retirement (see :class:`RetirePolicy`).

        Returns a namespace with ``final`` (dict node -> (n,) values at
        ``t_stop`` — or at retirement for retired samples), ``cross`` /
        ``peak`` / ``value`` (dicts keyed by probe name), ``converged``
        (per-sample Newton health) and ``n_sample_steps`` (total
        sample-step integrations, the throughput accounting unit).
        """
        if n is None:
            raise SimulationError("run: batch size n is required")
        n = int(n)
        if n < 1:
            raise SimulationError(f"run: batch size must be >= 1, got {n}")
        if retire is not None and self._value_probes:
            raise CompileError(
                "run: retirement and value probes cannot be combined (a "
                "retired sample has no state left to snapshot)",
                code="P006",
            )

        plan = self._plan
        nu = self.n_unknowns
        fused = self.kernel == "fast"
        dvth_t = self._param_matrix(delta_vth, n, 0.0, "delta_vth")
        bmult_t = self._param_matrix(beta_mult, n, 1.0, "beta_mult")
        if fused:
            # Per-chunk device precomputations, (n_dev, n).
            p1 = self._vto + dvth_t
            p2 = self._ispec_coeff * (self._beta0 * bmult_t)
            eval_fn = self._device_eval_fused
        else:
            p1, p2 = dvth_t, bmult_t
            eval_fn = self._device_eval_reference

        y = self._initial_state(ic, n)

        n_cross = len(self._cross_probes)
        offsets = np.zeros((n_cross, n))
        for j, probe in enumerate(self._cross_probes):
            offsets[j] = probe.offset
        if probe_offsets:
            for name, val in probe_offsets.items():
                for j, probe in enumerate(self._cross_probes):
                    if probe.name == name:
                        offsets[j] = np.broadcast_to(
                            np.asarray(val, dtype=float), (n,)
                        )
                        break
                else:
                    raise SimulationError(
                        f"run: probe_offsets names unknown cross probe {name!r}"
                    )

        retire_from = plan.n_steps
        retire_probe = -1
        if retire is not None:
            for j, probe in enumerate(self._cross_probes):
                if probe.name == retire.probe:
                    retire_probe = j
                    break
            else:
                raise CompileError(
                    f"run: retire policy names unknown cross probe {retire.probe!r}",
                    code="P006",
                )
            past = np.flatnonzero(plan.t_now >= retire.after)
            retire_from = int(past[0]) if past.size else plan.n_steps

        cross_mat = self._cross_mat
        if cross_mat is not None:
            prev_sig = cross_mat @ y + offsets
        else:
            prev_sig = None
        cross_time = np.full((n_cross, n), np.nan)
        n_peak = len(self._peak_probes)
        peaks = np.zeros((n_peak, n))
        peak_rows = self._peak_rows
        peak_track = self._peak_track
        converged = np.ones(n, dtype=bool)
        orig = np.arange(n)

        # Full-width outputs, scattered to as samples retire.
        cross_out = np.full((n_cross, n), np.nan)
        peak_out = np.zeros((n_peak, n))
        final_out = np.empty((nu, n))
        conv_out = np.ones(n, dtype=bool)
        value_out = np.zeros((len(self._value_probes), n))

        y_prev2: Optional[np.ndarray] = None
        y_ext = np.empty((self._n_ext, n))
        for j in range(len(self._rail_nodes)):
            if j not in self._varying_rails:
                y_ext[nu + j] = self._rail_vals[0, j]
        y_ext[self._ground_row] = 0.0

        max_iter = self.newton_max_iter
        newton_tol = self.newton_tol
        max_step = self.max_step
        min_pivot = self.min_pivot
        clip_lo, clip_hi = self.clip
        ex_lo, ex_hi = self._extrap_clip
        has_g = self._has_g
        g_is_diag = self._g_is_diag
        if has_g and g_is_diag:
            g_diag_col = plan.g_diag[:, None]
        gmat = self._gmat
        sparse = self.assembly == "sparse"
        s_mat = self._s_mat
        m_mat = self._m_mat
        jac_csr = self._jac_csr
        jac_index = self._jac_index
        schur = self._schur
        n_sample_steps = 0

        for step in range(plan.n_steps):
            m = y.shape[1]
            n_sample_steps += m
            h = plan.hs[step]
            cmat_h = plan.cmat_h[step]
            if schur is not None:
                base_col = plan.base_compact[step][:, None]
            else:
                base_jac = plan.base_jac[step][:, :, None]
            inj_col = plan.cap_inj[step][:, None]
            if has_g:
                if g_is_diag:
                    v_eff_col = plan.v_eff[step][:, None]
                else:
                    g_rhs_col = plan.g_rhs[step][:, None]

            y_prev = y
            if y_prev2 is not None:
                y_new = y_prev + (y_prev - y_prev2) * plan.extrap[step]
                np.clip(y_new, ex_lo, ex_hi, out=y_new)
            else:
                y_new = y_prev.copy()

            for j in self._varying_rails:
                y_ext[nu + j, :m] = self._rail_vals[step + 1, j]

            idx: Optional[np.ndarray] = None  # None == all samples active
            for _ in range(max_iter):
                if idx is None:
                    y_sub = y_new
                    y_prev_sub = y_prev
                    p1_sub = p1
                    p2_sub = p2
                    ext = y_ext[:, :m]
                else:
                    y_sub = y_new[:, idx]
                    y_prev_sub = y_prev[:, idx]
                    p1_sub = p1[:, idx]
                    p2_sub = p2[:, idx]
                    ext = y_ext[:, : idx.size]
                ext[:nu] = y_sub
                ids, g_stack = eval_fn(ext, p1_sub, p2_sub)
                f = s_mat @ ids
                f += cmat_h @ (y_sub - y_prev_sub)
                f -= inj_col
                if has_g:
                    if g_is_diag:
                        f += g_diag_col * (y_sub - v_eff_col)
                    else:
                        f += gmat @ y_sub
                        f -= g_rhs_col
                if schur is not None:
                    # Compact rows, the always-zero row last.
                    if sparse:
                        jac = jac_csr @ g_stack
                    else:
                        jac = np.zeros((jac_index.size + 1, g_stack.shape[1]))
                        jac[:-1] = (m_mat @ g_stack)[jac_index]
                    jac += base_col
                else:
                    if sparse and g_stack.shape[1] >= _SPARSE_MIN_BATCH:
                        jac = _expand_compact(jac_csr @ g_stack, jac_index, nu)
                    else:
                        jac = (m_mat @ g_stack).reshape(nu, nu, -1)
                    jac += base_jac
                if fused and schur is not None:
                    try:
                        delta = schur.solve(jac, -f)
                    except np.linalg.LinAlgError:
                        # An exactly singular interior block defeats
                        # the block elimination even when the full
                        # matrix is solvable; the generic path
                        # recovers those pathological samples.
                        delta = solveN(
                            _expand_compact(jac, jac_index, nu), -f, min_pivot
                        )
                elif fused:
                    delta = solveN(jac, -f, min_pivot)
                else:
                    if schur is not None:
                        jac = _expand_compact(jac, jac_index, nu)
                    delta = np.linalg.solve(
                        np.ascontiguousarray(jac.transpose(2, 0, 1)),
                        np.ascontiguousarray((-f).T)[..., None],
                    )[..., 0].T
                step_max = np.abs(delta).max(axis=0)
                scale = np.minimum(1.0, max_step / np.maximum(step_max, 1e-30))
                y_upd = np.clip(y_sub + delta * scale, clip_lo, clip_hi)
                if idx is None:
                    y_new = y_upd
                else:
                    y_new[:, idx] = y_upd
                still = step_max > newton_tol
                if not still.any():
                    idx = None if idx is None else idx[:0]
                    break
                idx = np.flatnonzero(still) if idx is None else idx[still]
            if idx is not None and idx.size:
                converged[idx] = False
            y_prev2 = y_prev
            y = y_new

            # Event tracking (linear interpolation inside the step).
            if cross_mat is not None:
                sig = cross_mat @ y + offsets
                crossing = (prev_sig < 0.0) & (sig >= 0.0) & np.isnan(cross_time)
                if crossing.any():
                    ps = prev_sig[crossing]
                    frac = ps / (ps - sig[crossing])
                    cross_time[crossing] = plan.t_prev[step] + frac * h
                prev_sig = sig
            for j in range(n_peak):
                if peak_track[j, step]:
                    np.maximum(peaks[j], y[peak_rows[j]], out=peaks[j])
            for j, vstep in enumerate(self._value_steps):
                if vstep == step:
                    value_out[j, orig] = (
                        self._value_mat[j] @ y + self._value_probes[j].offset
                    )

            # Retirement: scatter settled samples and compact the rest.
            if (
                retire_probe >= 0
                and step >= retire_from
                and step + 1 < plan.n_steps
            ):
                done = ~np.isnan(cross_time[retire_probe])
                n_done = int(np.count_nonzero(done))
                if n_done and n_done >= max(
                    retire.min_count, m // retire.frac_divisor
                ):
                    o = orig[done]
                    cross_out[:, o] = cross_time[:, done]
                    peak_out[:, o] = peaks[:, done]
                    final_out[:, o] = y[:, done]
                    conv_out[o] = converged[done]
                    keep = ~done
                    y = y[:, keep]
                    y_prev2 = y_prev2[:, keep]
                    p1 = p1[:, keep]
                    p2 = p2[:, keep]
                    offsets = offsets[:, keep]
                    prev_sig = prev_sig[:, keep]
                    cross_time = cross_time[:, keep]
                    peaks = peaks[:, keep]
                    converged = converged[keep]
                    orig = orig[keep]
                    if orig.size == 0:
                        break

        # Scatter the still-active remainder.
        cross_out[:, orig] = cross_time
        peak_out[:, orig] = peaks
        final_out[:, orig] = y
        conv_out[orig] = converged

        return SimpleNamespace(
            final={name: final_out[k] for k, name in enumerate(self.node_names)},
            cross={p.name: cross_out[j] for j, p in enumerate(self._cross_probes)},
            peak={p.name: peak_out[j] for j, p in enumerate(self._peak_probes)},
            value={p.name: value_out[j] for j, p in enumerate(self._value_probes)},
            converged=conv_out,
            n=n,
            n_sample_steps=n_sample_steps,
        )

    # ------------------------------------------------------------------
    # Serialization (repro.spice.plan builds the byte container and the
    # content-addressed cache on top of these hooks)
    # ------------------------------------------------------------------

    #: Attributes dropped from the pickled state: pure functions of the
    #: serialized attributes, rebuilt on restore by the compiler's own
    #: code (:meth:`_build_jacobian_tables`, :meth:`_build_plan_tables`).
    #: They hold the quadratically-sized tables: the per-step ``_plan``
    #: stacks (``C/h``, plus the dense base ``C/h + G`` on plans without
    #: a Schur partition) and the dense incidence ``_m_mat`` of plans that
    #: multiply by it (~235 MB at array-slice scale; a sparse Schur plan
    #: has none), plus the compact-row index ``_jac_index`` and the
    #: sparse assembly's stamp CSR ``_jac_csr`` over those rows, so plan
    #: bytes hold no scipy object.  The Schur solver ships its partition
    #: and border sets and rebinds its compact-row tables to the rebuilt
    #: index.  The plan audit's P002-P005 replays are the proof the
    #: rebuild equals the original.
    _DERIVED_STATE = ("_plan", "_s_mat", "_m_mat", "_jac_index", "_jac_csr")

    def __getstate__(self) -> Dict[str, object]:
        state = {
            k: v for k, v in self.__dict__.items() if k not in self._DERIVED_STATE
        }
        return {"format": PLAN_FORMAT_VERSION, "state": state}

    def __setstate__(self, payload: Dict[str, object]) -> None:
        """Versioned, audited restore — the admission gate in person.

        A plan arriving here did *not* just come out of the compiler in
        this process (unpickle in a spawn worker, a cache-dir load), so
        per the ROADMAP invariant it passes :func:`assert_plan_clean`
        before first use.  A payload of the wrong shape or format
        version is refused with diagnostic ``P008``.
        """
        from repro.spice.audit import assert_plan_clean
        from repro.spice.plan import plan_payload_error

        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("state"), dict)
            or "format" not in payload
        ):
            raise plan_payload_error(
                "unrecognised CompiledTransient pickle payload (expected a "
                "{'format', 'state'} dict)"
            )
        if payload["format"] != PLAN_FORMAT_VERSION:
            raise plan_payload_error(
                f"plan format version {payload['format']!r} does not match "
                f"this build's version {PLAN_FORMAT_VERSION}"
            )
        self.__dict__.update(payload["state"])
        self._build_jacobian_tables(peel=False)
        self._build_plan_tables()
        assert_plan_clean(self)

    def __repr__(self) -> str:
        return (
            f"CompiledTransient({self.circuit.title!r}, kernel={self.kernel!r}, "
            f"assembly={self.assembly!r}, solver={self.solver!r}, "
            f"unknowns={self.n_unknowns}, "
            f"devices={self.n_devices}, rails={self.rail_names}, "
            f"steps={self._plan.n_steps})"
        )
