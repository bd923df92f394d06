"""Compiled-plan auditor: statically prove a ``CompiledTransient`` well-formed.

:func:`audit_plan` inspects the artifacts a compile produced — gather
maps, incidence matrices, scatter rounds, the Schur partition, hoisted
per-step tables, probe tables — and checks every invariant the fused
integrator relies on, *without running a transient*:

* **P004** — the terminal gather maps and incidence matrices are total
  and in-range, and the incidence stamps are exactly the ±1 pattern the
  device wiring implies (recomputed symbolically from the terminal maps,
  entry for entry).
* **P001/P002** — the sparse assembly's scatter rounds are collision-free
  (no round targets a Jacobian row twice) and replay the dense matmul's
  k-ascending per-entry accumulation order exactly: per row, the rounds
  must apply the same (column, sign) stamps, in ascending column order,
  as the nonzeros of the incidence matrix.  This is the static proof
  behind the "sparse is bit-equal to dense" invariant.
* **P003** — the Schur decomposition is a genuine bordered-block-diagonal
  partition of the compile-time Jacobian pattern: border plus interior
  blocks partition the unknowns exactly, every interior block fits the
  unrolled-solve width, the border respects the size cap, and no two
  distinct interior blocks couple except through the border.
* **P005** — the hoisted per-step tables (``C/h``, base Jacobian,
  capacitive injection, rail drives, rail waveforms) are shape-consistent
  with the grid and reproduce a fresh recomputation exactly.
* **P006/P007** — probe tables address compiled unknowns and grid steps,
  and a retirement policy can never corrupt a metric probe (no value
  probes, peak windows open before retirement can begin).
* **P008** — issued by the serialization layer (:mod:`repro.spice.plan`
  and ``CompiledTransient.__setstate__``), not by the auditor itself: a
  serialized plan payload with a bad container, checksum or format
  version is refused before the audit ever sees it.

The auditor is the admission gate the ROADMAP's compiled-circuit cache
and remote shard dispatch need: a cached or deserialized plan gets
:func:`assert_plan_clean` run once at admission instead of trusting the
producer.  The engine-side determinism audit lives in
:mod:`repro.engine.audit`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import PlanAuditError
from repro.spice.compile import (
    CompiledTransient,
    RetirePolicy,
    _SCHUR_MAX_BLOCK,
    _schur_border_cap,
)
from repro.spice.diagnostics import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    format_diagnostics,
    lint_errors,
)
from repro.spice.sources import DcShape

__all__ = ["audit_plan", "assert_plan_clean"]


def _diag(code: str, severity: str, subject: str, message: str) -> Diagnostic:
    return Diagnostic(code, severity, subject, message, DIAGNOSTIC_CODES[code][1])


def _audit_index_maps(ct: CompiledTransient, diags: List[Diagnostic]) -> None:
    """P004: gather maps total and in-range, incidence stamps symbolic."""
    nu = ct.n_unknowns
    n_dev = ct.n_devices
    n_ext = ct._n_ext

    for what, idx in (
        ("drain", ct._d_idx),
        ("gate", ct._g_idx),
        ("source", ct._s_idx),
        ("bulk", ct._b_idx),
    ):
        idx = np.asarray(idx)
        if idx.shape != (n_dev,):
            diags.append(
                _diag(
                    "P004", "error", f"{what}_idx",
                    f"shape {idx.shape} != ({n_dev},)",
                )
            )
            continue
        if idx.size and (idx.min() < 0 or idx.max() >= n_ext):
            diags.append(
                _diag(
                    "P004", "error", f"{what}_idx",
                    f"targets outside the extended state [0, {n_ext})",
                )
            )

    rows = sorted(ct._row_of_node.values())
    if rows != list(range(n_ext)):
        diags.append(
            _diag(
                "P004", "error", "row_of_node",
                f"rows {rows} do not partition the extended state "
                f"[0, {n_ext})",
            )
        )

    s_mat = ct._s_mat
    m_mat = ct._m_mat
    if s_mat.shape != (nu, n_dev):
        diags.append(
            _diag(
                "P004", "error", "s_mat",
                f"shape {s_mat.shape} != ({nu}, {n_dev})",
            )
        )
        return
    if m_mat.shape != (nu * nu, 4 * n_dev):
        diags.append(
            _diag(
                "P004", "error", "m_mat",
                f"shape {m_mat.shape} != ({nu * nu}, {4 * n_dev})",
            )
        )
        return

    # Recompute both incidence matrices from the terminal maps — the
    # symbolic cross-check: a plan whose stamps disagree with its own
    # wiring assembles a wrong Jacobian no matter how it is applied.
    s_ref = np.zeros((nu, n_dev))
    m_ref = np.zeros((nu * nu, 4 * n_dev))
    for k in range(n_dev):
        rd, rg, rs, rb = (
            int(ct._d_idx[k]), int(ct._g_idx[k]),
            int(ct._s_idx[k]), int(ct._b_idx[k]),
        )
        if rd < nu:
            s_ref[rd, k] += 1.0
        if rs < nu:
            s_ref[rs, k] -= 1.0
        for g_kind, rt in enumerate((rg, rd, rs, rb)):
            if rt >= nu:
                continue
            if rd < nu:
                m_ref[rd * nu + rt, g_kind * n_dev + k] += 1.0
            if rs < nu:
                m_ref[rs * nu + rt, g_kind * n_dev + k] -= 1.0
    if not np.array_equal(s_mat, s_ref):
        diags.append(
            _diag(
                "P004", "error", "s_mat",
                "current-incidence stamps disagree with the terminal maps",
            )
        )
    if not np.array_equal(m_mat, m_ref):
        diags.append(
            _diag(
                "P004", "error", "m_mat",
                "Jacobian-incidence stamps disagree with the terminal maps",
            )
        )


def _audit_scatter_rounds(ct: CompiledTransient, diags: List[Diagnostic]) -> None:
    """P001/P002: rounds collision-free and replaying the dense order."""
    rounds = ct._jac_rounds
    if ct.assembly != "sparse":
        if rounds is not None:
            diags.append(
                _diag(
                    "P002", "error", "jac_rounds",
                    "dense assembly carries scatter rounds it will not apply",
                )
            )
        return
    if rounds is None:
        diags.append(
            _diag(
                "P002", "error", "jac_rounds",
                "sparse assembly compiled without scatter rounds",
            )
        )
        return

    m_mat = ct._m_mat
    # Replay the rounds symbolically: per target row, the (column, sign)
    # stamps in round order.
    replayed: dict = {}
    for r, (rp, cp, rm, cm) in enumerate(rounds):
        targets = np.concatenate([rp, rm])
        if np.unique(targets).size != targets.size:
            diags.append(
                _diag(
                    "P001", "error", f"round {r}",
                    "round targets a Jacobian row more than once "
                    "(fancy-index accumulation would drop stamps)",
                )
            )
        for row, col in zip(rp, cp):
            replayed.setdefault(int(row), []).append((int(col), 1.0))
        for row, col in zip(rm, cm):
            replayed.setdefault(int(row), []).append((int(col), -1.0))

    rows, cols = np.nonzero(m_mat)
    expected: dict = {}
    for row, col in zip(rows, cols):
        # np.nonzero is row-major: per row, columns already ascend — the
        # k-ascending order the dense matmul reduces in.
        expected.setdefault(int(row), []).append((int(col), float(m_mat[row, col])))
    if replayed != expected:
        bad = sorted(
            set(replayed) ^ set(expected)
            | {r for r in set(replayed) & set(expected) if replayed[r] != expected[r]}
        )
        diags.append(
            _diag(
                "P002", "error", f"rows {bad[:8]}",
                "scatter rounds do not replay the incidence matrix's "
                "k-ascending per-entry accumulation order",
            )
        )


def _audit_schur(ct: CompiledTransient, diags: List[Diagnostic]) -> None:
    """P003: the partition is genuinely bordered-block-diagonal."""
    schur = ct._schur
    if ct.solver != "schur":
        if schur is not None:
            diags.append(
                _diag(
                    "P003", "error", "solver",
                    f"solver={ct.solver!r} but a Schur decomposition is attached",
                )
            )
        return
    if schur is None:
        diags.append(
            _diag("P003", "error", "solver", "solver='schur' without a decomposition")
        )
        return

    nu = ct.n_unknowns
    border = np.asarray(schur.h)
    if border.ndim != 1 or not np.array_equal(border, np.unique(border)):
        diags.append(
            _diag("P003", "error", "border", "border rows not sorted unique")
        )
        return
    if border.size and (border.min() < 0 or border.max() >= nu):
        diags.append(
            _diag("P003", "error", "border", f"border rows outside [0, {nu})")
        )
        return
    if border.size > _schur_border_cap(nu):
        diags.append(
            _diag(
                "P003", "error", "border",
                f"border size {border.size} exceeds the cap "
                f"{_schur_border_cap(nu)} for {nu} unknowns",
            )
        )

    block_of = np.full(nu, -1, dtype=int)
    block_of[border] = -2  # border marker
    block_id = 0
    for s, nodes in schur.groups:
        if s > _SCHUR_MAX_BLOCK:
            diags.append(
                _diag(
                    "P003", "error", f"block size {s}",
                    f"interior block exceeds the unrolled-solve width "
                    f"{_SCHUR_MAX_BLOCK}",
                )
            )
        nodes = np.asarray(nodes)
        if nodes.ndim != 2 or nodes.shape[1] != s:
            diags.append(
                _diag(
                    "P003", "error", f"block size {s}",
                    f"block stack shape {nodes.shape} is not (n_blocks, {s})",
                )
            )
            continue
        for blk in nodes:
            for node in blk:
                node = int(node)
                if not (0 <= node < nu):
                    diags.append(
                        _diag(
                            "P003", "error", f"node {node}",
                            f"interior node outside [0, {nu})",
                        )
                    )
                elif block_of[node] == -2:
                    diags.append(
                        _diag(
                            "P003", "error", f"node {node}",
                            "node appears in the border and an interior block",
                        )
                    )
                elif block_of[node] != -1:
                    diags.append(
                        _diag(
                            "P003", "error", f"node {node}",
                            "node appears in two interior blocks",
                        )
                    )
                else:
                    block_of[node] = block_id
            block_id += 1
    missing = np.flatnonzero(block_of == -1)
    if missing.size:
        diags.append(
            _diag(
                "P003", "error", f"nodes {missing.tolist()}",
                "unknowns covered by neither the border nor any block",
            )
        )
        return

    # No coupling between two distinct interior blocks: rebuild the
    # compile-time pattern from the dense matrix, independently of the
    # stamp list _build_solver derives it from.
    pattern = (ct.cmat != 0.0) | (ct._gmat != 0.0)
    entries = np.unique(np.nonzero(ct._m_mat)[0])
    pattern[entries // nu, entries % nu] = True
    np.fill_diagonal(pattern, True)
    adj = pattern | pattern.T
    np.fill_diagonal(adj, False)
    for i, j in zip(*np.nonzero(adj)):
        bi, bj = block_of[i], block_of[j]
        if bi >= 0 and bj >= 0 and bi != bj:
            diags.append(
                _diag(
                    "P003", "error", f"nodes ({int(i)}, {int(j)})",
                    "Jacobian pattern couples two distinct interior blocks "
                    "outside the border",
                )
            )
            break


def _audit_plan_tables(ct: CompiledTransient, diags: List[Diagnostic]) -> None:
    """P005: hoisted per-step tables reproduce a fresh recomputation."""
    plan = ct._plan
    grid = ct.grid
    nu = ct.n_unknowns
    nr = len(ct._rail_nodes)
    n_steps = grid.size - 1

    if plan.n_steps != n_steps or plan.hs.shape != (n_steps,):
        diags.append(
            _diag(
                "P005", "error", "hs",
                f"{plan.n_steps} plan steps for a {grid.size}-point grid",
            )
        )
        return
    hs = np.diff(grid)
    if not np.array_equal(plan.hs, hs) or np.any(hs <= 0):
        diags.append(
            _diag("P005", "error", "hs", "step sizes disagree with the grid")
        )
        return
    if not (
        np.array_equal(plan.t_prev, grid[:-1]) and np.array_equal(plan.t_now, grid[1:])
    ):
        diags.append(
            _diag("P005", "error", "t_prev/t_now", "step times disagree with the grid")
        )

    extrap = np.zeros_like(hs)
    extrap[1:] = hs[1:] / hs[:-1]
    if not np.array_equal(plan.extrap, extrap):
        diags.append(
            _diag(
                "P005", "error", "extrap",
                "warm-start extrapolation ratios disagree with the grid",
            )
        )

    rails = ct._rail_vals
    if rails.shape != (grid.size, nr) or not np.all(np.isfinite(rails)):
        diags.append(
            _diag(
                "P005", "error", "rail_vals",
                f"shape {rails.shape} != ({grid.size}, {nr}) or non-finite",
            )
        )
        return
    for j, shape in enumerate(ct._rail_shapes):
        if isinstance(shape, DcShape) and j in ct._varying_rails:
            diags.append(
                _diag(
                    "P005", "error", ct.rail_names[j],
                    "DC rail marked time-varying",
                )
            )

    checks = (
        ("cmat_h", plan.cmat_h, ct.cmat[None, :, :] / hs[:, None, None]),
        ("base_jac", plan.base_jac, ct.cmat[None, :, :] / hs[:, None, None]
         + ct._gmat[None, :, :]),
        ("cap_inj", plan.cap_inj,
         (np.diff(rails, axis=0) / hs[:, None]) @ ct._cap_rail.T),
        ("g_rhs", plan.g_rhs, rails[1:] @ ct._g_rail.T),
    )
    for name, got, want in checks:
        if got.shape != want.shape or not np.array_equal(got, want):
            diags.append(
                _diag(
                    "P005", "error", name,
                    "hoisted table does not reproduce its recomputation "
                    f"(shape {got.shape}, expected {want.shape})",
                )
            )
    if not np.array_equal(plan.g_diag, np.diag(ct._gmat)):
        diags.append(
            _diag("P005", "error", "g_diag", "diagonal drive disagrees with G")
        )
    if plan.v_eff.shape != (n_steps, nu) or not np.all(np.isfinite(plan.v_eff)):
        diags.append(
            _diag(
                "P005", "error", "v_eff",
                f"shape {plan.v_eff.shape} != ({n_steps}, {nu}) or non-finite",
            )
        )


def _audit_probes(
    ct: CompiledTransient, retire: Optional[RetirePolicy], diags: List[Diagnostic]
) -> None:
    """P006/P007: probe tables valid; retirement cannot corrupt metrics."""
    nu = ct.n_unknowns
    n_steps = ct._plan.n_steps
    if ct._cross_mat is not None:
        if ct._cross_mat.shape != (len(ct._cross_probes), nu):
            diags.append(
                _diag(
                    "P007", "error", "cross_mat",
                    f"shape {ct._cross_mat.shape} != "
                    f"({len(ct._cross_probes)}, {nu})",
                )
            )
        else:
            for probe, rowv in zip(ct._cross_probes, ct._cross_mat):
                if not np.any(rowv != 0.0):
                    diags.append(
                        _diag(
                            "P007", "warning", probe.name,
                            "cross probe with an all-zero coefficient row "
                            "never crosses",
                        )
                    )
    if ct._peak_rows is not None:
        if ct._peak_rows.size and (
            ct._peak_rows.min() < 0 or ct._peak_rows.max() >= nu
        ):
            diags.append(
                _diag(
                    "P007", "error", "peak_rows",
                    f"peak probe rows outside [0, {nu})",
                )
            )
        if ct._peak_track is None or ct._peak_track.shape != (
            len(ct._peak_probes), n_steps
        ):
            diags.append(
                _diag(
                    "P007", "error", "peak_track",
                    "peak tracking table inconsistent with the grid",
                )
            )
    for probe, vstep in zip(ct._value_probes, ct._value_steps):
        if not (0 <= int(vstep) < n_steps):
            diags.append(
                _diag(
                    "P007", "error", probe.name,
                    f"value probe step {int(vstep)} outside [0, {n_steps})",
                )
            )

    if retire is None:
        return
    cross_names = [p.name for p in ct._cross_probes]
    if retire.probe not in cross_names:
        diags.append(
            _diag(
                "P006", "error", retire.probe,
                f"retire policy names no compiled cross probe "
                f"(cross probes: {cross_names})",
            )
        )
    if ct._value_probes:
        diags.append(
            _diag(
                "P006", "error", ", ".join(p.name for p in ct._value_probes),
                "retirement with value probes: a retired sample has no "
                "state left to snapshot",
            )
        )
    for probe in ct._peak_probes:
        if probe.t_from > retire.after:
            diags.append(
                _diag(
                    "P006", "error", probe.name,
                    f"peak window opens at t={probe.t_from:g}, after "
                    f"retirement can begin (t={retire.after:g}) — a retired "
                    "sample would report a zero peak",
                )
            )
    if retire.min_count < 1 or retire.frac_divisor < 1:
        diags.append(
            _diag(
                "P006", "error", retire.probe,
                "retire thresholds must be positive",
            )
        )


def audit_plan(
    ct: CompiledTransient, retire: Optional[RetirePolicy] = None
) -> List[Diagnostic]:
    """Audit every compiled artifact of ``ct``; returns the findings.

    Pass the :class:`~repro.spice.compile.RetirePolicy` a run will use to
    additionally prove retirement cannot corrupt the metric probes
    (``P006``).  An empty list means the plan is well-formed; see
    :data:`~repro.spice.diagnostics.DIAGNOSTIC_CODES` for the ``P0xx``
    code meanings.
    """
    diags: List[Diagnostic] = []
    _audit_index_maps(ct, diags)
    _audit_scatter_rounds(ct, diags)
    _audit_schur(ct, diags)
    _audit_plan_tables(ct, diags)
    _audit_probes(ct, retire, diags)
    diags.sort(key=lambda d: (d.code, d.subject))
    return diags


def assert_plan_clean(
    ct: CompiledTransient, retire: Optional[RetirePolicy] = None
) -> List[Diagnostic]:
    """Raise :class:`~repro.errors.PlanAuditError` on error findings.

    The admission gate for plans that did not just come out of the
    compiler in this process (a cache hit, a deserialized remote plan).
    Returns the full diagnostic list (warnings included) when clean.
    """
    diags = audit_plan(ct, retire=retire)
    errors = lint_errors(diags)
    if errors:
        raise PlanAuditError(
            f"compiled plan for {ct.circuit.title!r} failed its audit:\n"
            + format_diagnostics(errors),
            code=errors[0].code,
            diagnostics=diags,
        )
    return diags
