"""Compiled-plan auditor: statically prove a ``CompiledTransient`` well-formed.

:func:`audit_plan` inspects the artifacts a compile produced — gather
maps, incidence tables, the compact-row index, the stamp CSR, the
Schur partition, hoisted per-step tables, probe tables — and checks
every invariant the fused integrator relies on, *without running a
transient*.  Every stamp check replays the original per-device loop
from the terminal maps into per-entry stamp lists
(:func:`_replay_stamps`); no dense ``nu² x 4·n_dev`` reference matrix
is ever built:

* **P004** — the terminal gather maps and the current incidence are
  total, in range and exactly the ±1 pattern the device wiring implies;
  so is the device evaluation's polarity-signed terminal incidence
  (dense plans) or four-terminal gather (sparse plans);
  the compact-row index covers every stamped entry (and ``C``, ``G``
  and the diagonal); a dense incidence, where the plan multiplies by
  one, holds exactly the replayed stamps.
* **P002** — the sparse assembly's stamp CSR holds, row by row, each
  compact row's replayed (column, ±1) stamps in ascending column order,
  and its trailing zero row is empty.  The CSR product adds a row's
  entries in stored order, so this is the static proof behind the
  "sparse is bit-equal to dense" invariant.  (P001 is retired: it stays
  registered, since codes are append-only, but is never emitted.)
* **P003** — the Schur decomposition is a genuine bordered-block-diagonal
  partition of the pattern rebuilt from the replay: border plus
  interior blocks partition the unknowns exactly, every interior block
  fits the unrolled-solve width, the border respects the size cap, no
  two distinct interior blocks couple except through the border, each
  block's border set covers every border node coupled to it, and the
  solver's compact-row gathers address exactly their entries.
* **P005** — the hoisted per-step tables (``C/h``, the Jacobian base —
  dense, or ``C/h + G`` gathered at the compact rows on Schur plans —
  capacitive injection, rail drives, rail waveforms) are
  shape-consistent with the grid and reproduce a fresh recomputation
  exactly.
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

import copy
from typing import Dict, List, Optional, Tuple

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


def _replay_stamps(ct: CompiledTransient) -> Dict[int, List[Tuple[int, float]]]:
    """Per-entry Jacobian stamps, replayed from the terminal maps.

    The original per-device stamping loop, written into per-entry
    lists instead of a dense ``nu² x 4·n_dev`` matrix: flat entry
    ``row * nu + col`` maps to its ``(G_stack column, ±1)`` stamps in
    ascending column order — the k-ascending order the dense matmul
    reduces in.  A drain == source pair accumulates to an exact zero
    and is dropped, exactly as the loop's ``+= 1`` / ``-= 1`` cancel.
    Independent of :func:`repro.spice.compile._jacobian_stamps`.
    """
    nu = ct.n_unknowns
    n_dev = ct.n_devices
    acc: Dict[int, Dict[int, float]] = {}
    for k in range(n_dev):
        rd, rg, rs, rb = (
            int(ct._d_idx[k]), int(ct._g_idx[k]),
            int(ct._s_idx[k]), int(ct._b_idx[k]),
        )
        for g_kind, rt in enumerate((rg, rd, rs, rb)):
            if rt >= nu:
                continue
            col = g_kind * n_dev + k
            for side, sign in ((rd, 1.0), (rs, -1.0)):
                if side < nu:
                    stamps = acc.setdefault(side * nu + rt, {})
                    stamps[col] = stamps.get(col, 0.0) + sign
    replay = {}
    for entry in sorted(acc):
        stamps = [(c, v) for c, v in sorted(acc[entry].items()) if v != 0.0]
        if stamps:
            replay[entry] = stamps
    return replay


def _audit_terminal_tables(ct: CompiledTransient, diags: List[Diagnostic]) -> None:
    """P004: the device evaluation's terminal tables match the wiring.

    A sparse plan's gather lists the gate, source, drain and bulk rows;
    a dense plan's signed incidence is replayed device by device, ``+p``
    at the terminal and ``-p`` at the bulk, accumulated so a terminal
    tied to its bulk cancels.
    """
    n_dev = ct.n_devices
    terminals = (ct._g_idx, ct._s_idx, ct._d_idx, ct._b_idx)
    if ct.assembly == "sparse":
        got = ct._term_rows
        want = np.array([int(idx[k]) for idx in terminals for k in range(n_dev)])
        subject = "term_rows"
    else:
        got = ct._term_mat
        want = np.zeros((3 * n_dev, ct._n_ext))
        for k in range(n_dev):
            for j, idx in enumerate(terminals[:3]):
                want[j * n_dev + k, int(idx[k])] += float(ct._p[k, 0])
                want[j * n_dev + k, int(ct._b_idx[k])] -= float(ct._p[k, 0])
        subject = "term_mat"
    if got is None or got.shape != want.shape or not np.array_equal(got, want):
        diags.append(
            _diag(
                "P004", "error", subject,
                "terminal table disagrees with the terminal maps and polarities",
            )
        )


def _audit_index_maps(ct: CompiledTransient, replay, diags: List[Diagnostic]) -> bool:
    """P004: gather maps total and in-range, incidence stamps symbolic.

    Returns whether the compact-row index is well-formed (the later
    checks read the Jacobian through it).
    """
    nu = ct.n_unknowns
    n_dev = ct.n_devices
    n_ext = ct._n_ext

    maps_ok = True
    for what, idx in (
        ("drain", ct._d_idx),
        ("gate", ct._g_idx),
        ("source", ct._s_idx),
        ("bulk", ct._b_idx),
    ):
        idx = np.asarray(idx)
        if idx.shape != (n_dev,):
            maps_ok = False
            diags.append(
                _diag(
                    "P004", "error", f"{what}_idx",
                    f"shape {idx.shape} != ({n_dev},)",
                )
            )
            continue
        if idx.size and (idx.min() < 0 or idx.max() >= n_ext):
            maps_ok = False
            diags.append(
                _diag(
                    "P004", "error", f"{what}_idx",
                    f"targets outside the extended state [0, {n_ext})",
                )
            )
    if maps_ok:
        _audit_terminal_tables(ct, diags)

    rows = sorted(ct._row_of_node.values())
    if rows != list(range(n_ext)):
        diags.append(
            _diag(
                "P004", "error", "row_of_node",
                f"rows {rows} do not partition the extended state "
                f"[0, {n_ext})",
            )
        )

    # Recompute the current incidence from the terminal maps — the
    # symbolic cross-check: a plan whose stamps disagree with its own
    # wiring assembles a wrong system no matter how it is applied.
    s_mat = ct._s_mat
    s_ref = np.zeros((nu, n_dev))
    for k in range(n_dev):
        rd, rs = int(ct._d_idx[k]), int(ct._s_idx[k])
        if rd < nu:
            s_ref[rd, k] += 1.0
        if rs < nu:
            s_ref[rs, k] -= 1.0
    if s_mat.shape != (nu, n_dev):
        diags.append(
            _diag(
                "P004", "error", "s_mat",
                f"shape {s_mat.shape} != ({nu}, {n_dev})",
            )
        )
    elif not np.array_equal(s_mat, s_ref):
        diags.append(
            _diag(
                "P004", "error", "s_mat",
                "current-incidence stamps disagree with the terminal maps",
            )
        )

    # The compact-row index: sorted unique flat entries covering every
    # stamped entry, the C/G nonzeros and the diagonal.
    index = np.asarray(ct._jac_index)
    linear = (ct.cmat != 0.0) | (ct._gmat != 0.0)
    np.fill_diagonal(linear, True)
    stamped = np.fromiter(replay, dtype=np.intp, count=len(replay))
    missing = np.setdiff1d(np.union1d(stamped, np.flatnonzero(linear)), index)
    index_ok = bool(
        index.ndim == 1
        and np.all(np.diff(index) > 0)
        and (index.size == 0 or (index[0] >= 0 and index[-1] < nu * nu))
        and missing.size == 0
    )
    if not index_ok:
        diags.append(
            _diag(
                "P004", "error", "jac_index",
                f"compact-row index is not sorted unique entries of "
                f"[0, {nu * nu}) or misses {missing.size} of the stamped, "
                "C/G and diagonal entries",
            )
        )

    m_mat = ct._m_mat
    needs_m = not (ct.assembly == "sparse" and ct.solver == "schur")
    if m_mat is None:
        if needs_m:
            diags.append(
                _diag(
                    "P004", "error", "m_mat",
                    "plan multiplies by the dense Jacobian incidence but "
                    "carries none",
                )
            )
        return index_ok
    if m_mat.shape != (nu * nu, 4 * n_dev):
        diags.append(
            _diag(
                "P004", "error", "m_mat",
                f"shape {m_mat.shape} != ({nu * nu}, {4 * n_dev})",
            )
        )
        return index_ok
    # Compare the dense incidence's nonzeros against the replay; no
    # dense reference matrix is built.
    rows, cols = np.nonzero(m_mat)
    want = [(e, c, v) for e, stamps in replay.items() for c, v in stamps]
    if not (
        rows.size == len(want)
        and np.array_equal(rows, [w[0] for w in want])
        and np.array_equal(cols, [w[1] for w in want])
        and np.array_equal(m_mat[rows, cols], [w[2] for w in want])
    ):
        diags.append(
            _diag(
                "P004", "error", "m_mat",
                "Jacobian-incidence stamps disagree with the terminal maps",
            )
        )
    return index_ok


def _audit_stamp_csr(
    ct: CompiledTransient, replay, index_ok: bool, diags: List[Diagnostic]
) -> None:
    """P002: the stamp CSR holds the replayed stamps row by row, in order."""
    csr = ct._jac_csr
    if ct.assembly != "sparse":
        if csr is not None:
            diags.append(
                _diag(
                    "P002", "error", "jac_csr",
                    "dense assembly carries a stamp CSR it will not apply",
                )
            )
        return
    if csr is None:
        diags.append(
            _diag(
                "P002", "error", "jac_csr",
                "sparse assembly compiled without a stamp CSR",
            )
        )
        return
    if not index_ok:
        return  # P004 already reported; rows cannot be read through it

    index = np.asarray(ct._jac_index)
    n_rows = index.size + 1
    shape = (n_rows, 4 * ct.n_devices)
    if getattr(csr, "format", None) != "csr" or csr.shape != shape:
        diags.append(
            _diag(
                "P002", "error", "jac_csr",
                f"not a CSR matrix of shape {shape} (one row per compact "
                "row plus the zero row, one column per G_stack row)",
            )
        )
        return
    indptr = np.asarray(csr.indptr)
    cols, data = np.asarray(csr.indices), np.asarray(csr.data)
    if not (
        indptr.shape == (n_rows + 1,)
        and indptr[0] == 0
        and np.all(np.diff(indptr) >= 0)
        and indptr[-1] == cols.size == data.size
    ):
        diags.append(
            _diag(
                "P002", "error", "jac_csr",
                "row pointers do not partition the stored entries",
            )
        )
        return
    if indptr[-1] != indptr[-2]:
        diags.append(
            _diag(
                "P002", "error", "zero row",
                "the trailing always-zero row holds stamps",
            )
        )

    # Row by row against the replay: each compact row must store its
    # entry's (column, ±1) stamps, columns ascending — the order the
    # CSR product adds them in.
    want = {int(np.searchsorted(index, e)): stamps for e, stamps in replay.items()}
    bad = []
    for r in range(n_rows - 1):
        lo, hi = indptr[r], indptr[r + 1]
        if list(zip(cols[lo:hi].tolist(), data[lo:hi].tolist())) != want.get(r, []):
            bad.append(int(index[r]))
    if bad:
        diags.append(
            _diag(
                "P002", "error", f"entries {bad[:8]}",
                "stamp CSR rows do not hold the replayed per-device ±1 "
                "stamps in ascending column order",
            )
        )


def _audit_schur(
    ct: CompiledTransient, replay, index_ok: bool, diags: List[Diagnostic]
) -> None:
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

    # No coupling between two distinct interior blocks, on the pattern
    # rebuilt from the stamp replay (independently of the stamp list
    # the compiler derives it from).
    adj = (ct.cmat != 0.0) | (ct._gmat != 0.0)
    stamped = np.fromiter(replay, dtype=np.intp, count=len(replay))
    adj[stamped // nu, stamped % nu] = True
    adj |= adj.T
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
            return
    _audit_schur_tables(ct, adj, index_ok, diags)


def _audit_schur_tables(
    ct: CompiledTransient, adj: np.ndarray, index_ok: bool, diags: List[Diagnostic]
) -> None:
    """P003: block border sets and the solver's compact-row gathers.

    Each block's border set must cover every border node the pattern
    couples it to (the fold solves only those right-hand sides), and
    the tables :meth:`_SchurSolver.solve` reads the compact Jacobian
    through must be the ones its partition binds to.
    """
    schur = ct._schur
    nu = ct.n_unknowns
    h = np.asarray(schur.h)
    borders = getattr(schur, "borders", None)
    if borders is None or len(borders) != len(schur.groups):
        diags.append(
            _diag("P003", "error", "borders", "one border set per group required")
        )
        return
    for (s, nodes), bset in zip(schur.groups, borders):
        nodes, bset = np.asarray(nodes), np.asarray(bset)
        subject = f"border sets of the size-{s} blocks"
        if bset.ndim != 2 or bset.shape[0] != nodes.shape[0] or (
            bset.size and (bset.min() < -1 or bset.max() >= h.size)
        ):
            diags.append(
                _diag(
                    "P003", "error", subject,
                    f"shape {bset.shape} or positions outside [-1, {h.size})",
                )
            )
            return
        have = np.zeros((nodes.shape[0], h.size + 1), dtype=bool)
        have[np.arange(nodes.shape[0])[:, None], bset] = True   # -1 marks the pad
        touch = adj[nodes][:, :, h].any(axis=1)
        if np.any(touch & ~have[:, :-1]):
            diags.append(
                _diag(
                    "P003", "error", subject,
                    "a block's border set misses border nodes the Jacobian "
                    "couples it to",
                )
            )
    if not index_ok:
        return

    # The compact-row gathers and term tables are derived: they must
    # reproduce a fresh bind of the (just checked) partition and border
    # sets through the compact-row index.
    fresh = copy.copy(schur)  # pickling state: drops the bound tables
    fresh.bind(np.asarray(ct._jac_index), nu)
    tables = getattr(schur, "_tables", None)
    same = (
        tables is not None
        and len(tables) == len(fresh._tables)
        and np.array_equal(schur._hh_rows, fresh._hh_rows)
        and all(
            vars(got).keys() == vars(want).keys()
            and all(np.array_equal(getattr(got, k), v) for k, v in vars(want).items())
            for got, want in zip(tables, fresh._tables)
        )
    )
    if not same:
        diags.append(
            _diag(
                "P003", "error", "schur tables",
                "the solver's compact-row tables do not reproduce a fresh "
                "bind of its partition through the compact-row index",
            )
        )


def _audit_plan_tables(
    ct: CompiledTransient, index_ok: bool, diags: List[Diagnostic]
) -> None:
    """P005: hoisted per-step tables reproduce a fresh recomputation.

    The compact base is checked only through a well-formed compact-row
    index (a broken one is P004's finding, not a stale table).
    """
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

    checks = [
        ("cmat_h", plan.cmat_h, ct.cmat[None, :, :] / hs[:, None, None]),
        ("cap_inj", plan.cap_inj,
         (np.diff(rails, axis=0) / hs[:, None]) @ ct._cap_rail.T),
        ("g_rhs", plan.g_rhs, rails[1:] @ ct._g_rail.T),
    ]
    # The Jacobian base C/h + G: dense without a Schur partition,
    # gathered at the compact rows (zero row last) with one.
    compact = ct._schur is not None
    base, other = ("base_compact", "base_jac") if compact else ("base_jac", "base_compact")
    if not compact:
        checks.append((base, plan.base_jac, ct.cmat[None, :, :] / hs[:, None, None]
                       + ct._gmat[None, :, :]))
    elif index_ok:
        index = np.asarray(ct._jac_index)
        want = np.zeros((n_steps, index.size + 1))
        want[:, :-1] = (
            ct.cmat.ravel()[index][None, :] / hs[:, None] + ct._gmat.ravel()[index]
        )
        checks.append((base, plan.base_compact, want))
    if getattr(plan, other, None) is not None:
        diags.append(
            _diag(
                "P005", "error", other,
                f"plan carries {other} beside {base}, which its solver reads",
            )
        )
    for name, got, want in checks:
        if got is None:
            diags.append(_diag("P005", "error", name, "hoisted table missing"))
        elif got.shape != want.shape or not np.array_equal(got, want):
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
    replay = _replay_stamps(ct)
    index_ok = _audit_index_maps(ct, replay, diags)
    _audit_stamp_csr(ct, replay, index_ok, diags)
    _audit_schur(ct, replay, index_ok, diags)
    _audit_plan_tables(ct, index_ok, diags)
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
