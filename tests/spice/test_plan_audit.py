"""Plan auditor: clean on every bench/assembly/solver, catches mutations.

The mutation tests are the auditor's reason to exist: each one injects a
defect class a corrupted cache entry or a hand-edited plan could carry
(stamp CSR entries out of order or misplaced, a broken Schur partition,
stamps that disagree with the wiring, stale hoisted tables, retirement
that can clobber a metric) and asserts the auditor reports the exact
code.
"""

import numpy as np
import pytest
import scipy.sparse

from repro.errors import PlanAuditError, SimulationError
from repro.spice.audit import assert_plan_clean, audit_plan
from repro.spice.compile import CompiledTransient, RetirePolicy, transient_grid
from repro.spice.diagnostics import DIAGNOSTIC_CODES
from repro.spice.elements import Capacitor, Mosfet, Resistor, VoltageSource
from repro.spice.mosfet import nmos_45nm, pmos_45nm
from repro.spice.netlist import Circuit
from repro.spice.sources import dc, pulse
from repro.sram.array import ArrayConfig, ArraySlice
from repro.sram.batched import Batched6T
from repro.sram.benches import (
    BENCH_NAMES,
    bench_compiled,
    bench_solver_choices,
    recompile,
)
from repro.sram.column import ColumnConfig, ReadColumn
from repro.sram.testbench import OperationTiming


def _codes(diags):
    return sorted({d.code for d in diags})


def _errors(diags):
    return [d for d in diags if d.severity == "error"]


MATRIX = [
    (name, assembly, solver)
    for name in BENCH_NAMES
    for assembly in ("dense", "sparse")
    for solver in bench_solver_choices(name)
]


class TestCleanMatrix:
    @pytest.mark.parametrize("name,assembly,solver", MATRIX)
    def test_bench_audits_clean(self, name, assembly, solver):
        """ISSUE acceptance: every bench, every assembly/solver combo."""
        ct = bench_compiled(name, assembly=assembly, solver=solver)
        diags = assert_plan_clean(ct)
        assert _errors(diags) == []

    @pytest.mark.parametrize("assembly", ["dense", "sparse"])
    def test_drain_source_short_audits_clean(self, assembly):
        """A device whose drain and source share an unknown node: its
        +1/-1 stamps cancel.  P004 replays the per-device stamping loop
        and P002 the stamp CSR rows, so a clean audit proves the compiler
        cancels the pair exactly as that loop accumulates it."""
        c = Circuit("shorted")
        c.add(VoltageSource("v_vdd", "vdd", "0", dc(1.0)))
        c.add(VoltageSource("v_in", "in", "0", pulse(0.0, 1.0, delay=0.1e-9,
                                                     rise=20e-12, width=1e-9)))
        c.add(Mosfet("m_pull", "out", "in", "0", "0", nmos_45nm(), w=200e-9, l=50e-9))
        c.add(Mosfet("m_short", "x", "out", "x", "0", nmos_45nm(), w=200e-9, l=50e-9))
        c.add(Mosfet("m_moscap", "out", "in", "out", "vdd", pmos_45nm(),
                     w=200e-9, l=50e-9))
        c.add(Resistor("r_load", "vdd", "out", 20e3))
        c.add(Capacitor("c_out", "out", "0", 5e-15))
        c.add(Capacitor("c_x", "x", "0", 5e-15))
        ct = CompiledTransient(c, grid=transient_grid(1.5e-9, n_steps=64),
                               assembly=assembly)
        assert ct.assembly == assembly
        assert _errors(audit_plan(ct)) == []

    def test_assert_plan_clean_raises_typed(self):
        ct = bench_compiled("column", assembly="sparse")
        ct._jac_csr = None
        with pytest.raises(PlanAuditError) as exc:
            assert_plan_clean(ct)
        assert exc.value.code == "P002"
        assert isinstance(exc.value, SimulationError)  # family compatibility


def _edited_csr(ct, indices=None, data=None, indptr=None):
    """``ct``'s stamp CSR with some stored arrays replaced.

    Builds a new matrix: memory-tier cache templates share the CSR
    between plan instances, so editing it in place would corrupt every
    later restore of the same plan.
    """
    csr = ct._jac_csr
    return scipy.sparse.csr_array(
        (
            np.array(csr.data if data is None else data),
            np.array(csr.indices if indices is None else indices),
            np.array(csr.indptr if indptr is None else indptr),
        ),
        shape=csr.shape,
    )


#: Sparse plans of every layout: Schur-peeled (the column, the 2-column
#: slice) and forced sparse without a Schur partition (the latch).
SPARSE_PLANS = ["column", "array", "latch"]


class TestStampCsrMutations:
    @staticmethod
    def _plan(name="column"):
        ct = bench_compiled(name, assembly="sparse")
        assert ct._jac_csr is not None
        return ct

    @staticmethod
    def _first_row_with(ct, n_entries):
        counts = np.diff(ct._jac_csr.indptr)[:-1]  # the zero row excluded
        return int(np.flatnonzero(counts >= n_entries)[0])

    @pytest.mark.parametrize("name", SPARSE_PLANS)
    def test_p002_swapped_columns_in_a_row(self, name):
        """Same stamps, but the product adds two of them out of order."""
        ct = self._plan(name)
        lo = int(ct._jac_csr.indptr[self._first_row_with(ct, 2)])
        order = np.arange(ct._jac_csr.nnz)
        order[[lo, lo + 1]] = order[[lo + 1, lo]]
        ct._jac_csr = _edited_csr(
            ct, indices=ct._jac_csr.indices[order], data=ct._jac_csr.data[order]
        )
        diags = _errors(audit_plan(ct))
        assert _codes(diags) == ["P002"]
        assert any("ascending column order" in d.message for d in diags)

    @pytest.mark.parametrize("name", SPARSE_PLANS)
    def test_p002_entry_moved_to_another_row(self, name):
        """A row's last stamp becomes the next row's first."""
        ct = self._plan(name)
        r = self._first_row_with(ct, 1)
        indptr = np.array(ct._jac_csr.indptr)
        indptr[r + 1] -= 1
        ct._jac_csr = _edited_csr(ct, indptr=indptr)
        assert _codes(_errors(audit_plan(ct))) == ["P002"]

    @pytest.mark.parametrize("name", SPARSE_PLANS)
    def test_p002_duplicated_entry(self, name):
        """One stamp stored twice: the product would add it twice."""
        ct = self._plan(name)
        r = self._first_row_with(ct, 1)
        lo = int(ct._jac_csr.indptr[r])
        indptr = np.array(ct._jac_csr.indptr)
        indptr[r + 1:] += 1
        ct._jac_csr = _edited_csr(
            ct,
            indices=np.insert(ct._jac_csr.indices, lo, ct._jac_csr.indices[lo]),
            data=np.insert(ct._jac_csr.data, lo, ct._jac_csr.data[lo]),
            indptr=indptr,
        )
        assert _codes(_errors(audit_plan(ct))) == ["P002"]

    @pytest.mark.parametrize("name", SPARSE_PLANS)
    def test_p002_nonempty_zero_row(self, name):
        """The trailing always-zero row must stay empty."""
        ct = self._plan(name)
        indptr = np.array(ct._jac_csr.indptr)
        indptr[-1] += 1
        ct._jac_csr = _edited_csr(
            ct,
            indices=np.append(ct._jac_csr.indices, 0),
            data=np.append(ct._jac_csr.data, 1.0),
            indptr=indptr,
        )
        diags = _errors(audit_plan(ct))
        assert _codes(diags) == ["P002"]
        assert any(d.subject == "zero row" for d in diags)

    @pytest.mark.parametrize("name", SPARSE_PLANS)
    def test_p002_flipped_sign(self, name):
        """Right entry, right order, wrong sign."""
        ct = self._plan(name)
        data = np.array(ct._jac_csr.data)
        data[0] = -data[0]
        ct._jac_csr = _edited_csr(ct, data=data)
        assert _codes(_errors(audit_plan(ct))) == ["P002"]

    @pytest.mark.parametrize("defect", ["csc", "zero row dropped"])
    def test_p002_wrong_container(self, defect):
        """The product's row order needs a CSR of exactly the compact
        rows plus the zero row."""
        ct = self._plan()
        csr = ct._jac_csr
        ct._jac_csr = (
            scipy.sparse.csc_array(csr) if defect == "csc" else csr[:-1]
        )
        diags = _errors(audit_plan(ct))
        assert _codes(diags) == ["P002"]
        assert any("not a CSR matrix of shape" in d.message for d in diags)

    def test_p002_sparse_without_csr(self):
        ct = bench_compiled("column", assembly="sparse")
        ct._jac_csr = None
        assert _codes(_errors(audit_plan(ct))) == ["P002"]

    def test_p002_dense_with_csr(self):
        ct = bench_compiled("column", assembly="dense")
        ct._jac_csr = bench_compiled("column", assembly="sparse")._jac_csr
        assert _codes(_errors(audit_plan(ct))) == ["P002"]

    def test_p001_retired_but_registered(self):
        """Codes are append-only: P001 (scatter-round collision) keeps its
        registry entry, marked retired, now that no plan has rounds."""
        meaning, _ = DIAGNOSTIC_CODES["P001"]
        assert meaning.startswith("retired")


class TestSchurMutations:
    def test_p003_interior_node_leaked_into_border(self):
        ct = bench_compiled("array", assembly="sparse", solver="schur")
        schur = ct._schur
        leaked = int(np.asarray(schur.groups[0][1])[0][0])
        schur.h = np.unique(np.append(np.asarray(schur.h), leaked))
        diags = _errors(audit_plan(ct))
        assert "P003" in _codes(diags)
        assert any("border and an interior block" in d.message for d in diags)

    def test_p003_dropped_interior_block(self):
        ct = bench_compiled("array", assembly="sparse", solver="schur")
        schur = ct._schur
        s, nodes = schur.groups[0]
        nodes = np.asarray(nodes)
        assert nodes.shape[0] >= 2, "bench must have multiple blocks of this size"
        schur.groups[0] = (s, nodes[1:])
        diags = _errors(audit_plan(ct))
        assert "P003" in _codes(diags)
        assert any("neither the border nor any block" in d.message for d in diags)

    def test_p003_oversized_block(self):
        ct = bench_compiled("array", assembly="sparse", solver="schur")
        schur = ct._schur
        # Glue enough same-size blocks into one pseudo-block that the
        # result exceeds the unrolled-solve width.
        gi, (s, nodes) = max(
            enumerate(schur.groups), key=lambda g: np.asarray(g[1][1]).shape[0]
        )
        nodes = np.asarray(nodes)
        n_fuse = 4 // s + 1  # smallest count with n_fuse * s > 4
        assert nodes.shape[0] >= n_fuse, "bench too small for this mutation"
        fused = np.concatenate(list(nodes[:n_fuse]))[None, :]
        schur.groups[gi] = (n_fuse * s, fused)
        if nodes.shape[0] > n_fuse:
            schur.groups.append((s, nodes[n_fuse:]))
        diags = _errors(audit_plan(ct))
        assert "P003" in _codes(diags)
        assert any("unrolled-solve width" in d.message for d in diags)

    def test_p003_solver_mismatch(self):
        ct = bench_compiled("column", solver="blocked")
        donor = bench_compiled("column", solver="schur")
        ct._schur = donor._schur
        assert "P003" in _codes(_errors(audit_plan(ct)))


class TestIndexMapMutations:
    def test_p004_sign_flip_in_s_mat(self):
        ct = bench_compiled("6t")
        s = np.array(ct._s_mat, copy=True)
        r, c = np.argwhere(s != 0.0)[0]
        s[r, c] = -s[r, c]
        ct._s_mat = s
        diags = _errors(audit_plan(ct))
        assert "P004" in _codes(diags)
        assert any(d.subject == "s_mat" for d in diags)

    def test_p004_sign_flip_in_term_mat(self):
        ct = bench_compiled("6t")
        t = np.array(ct._term_mat, copy=True)
        r, c = np.argwhere(t != 0.0)[0]
        t[r, c] = -t[r, c]
        ct._term_mat = t
        diags = _errors(audit_plan(ct))
        assert _codes(diags) == ["P004"]
        assert any(d.subject == "term_mat" for d in diags)

    def test_p004_swapped_term_rows(self):
        ct = bench_compiled("6t", assembly="sparse")
        rows = np.array(ct._term_rows, copy=True)
        n_dev = ct.n_devices
        rows[[0, n_dev]] = rows[[n_dev, 0]]  # device 0's gate <-> source
        assert not np.array_equal(rows, ct._term_rows)
        ct._term_rows = rows
        diags = _errors(audit_plan(ct))
        assert _codes(diags) == ["P004"]
        assert any(d.subject == "term_rows" for d in diags)

    def test_p004_gather_out_of_range(self):
        ct = bench_compiled("6t")
        idx = np.array(ct._d_idx, copy=True)
        idx[0] = ct._n_ext  # one past the end of the extended state
        ct._d_idx = idx
        diags = _errors(audit_plan(ct))
        assert "P004" in _codes(diags)


class TestCompactTableMutations:
    """One mutation per table of the compact Jacobian layout."""

    @staticmethod
    def _schur_plan():
        ct = bench_compiled("array", assembly="sparse", solver="schur")
        assert ct._m_mat is None
        return ct

    def test_p004_compact_index_missing_stamped_entry(self):
        ct = self._schur_plan()
        nu = ct.n_unknowns
        index = ct._jac_index
        row, col = index // nu, index % nu
        linear = (ct.cmat != 0.0) | (ct._gmat != 0.0)
        stamp_only = index[(row != col) & ~linear[row, col]]
        ct._jac_index = np.setdiff1d(index, stamp_only[:1])
        diags = _errors(audit_plan(ct))
        assert _codes(diags) == ["P004"]
        assert any("misses 1 of the stamped" in d.message for d in diags)

    def test_p005_stale_compact_base(self):
        ct = self._schur_plan()
        ct._plan.base_compact = ct._plan.base_compact + 1e-3
        diags = _errors(audit_plan(ct))
        assert _codes(diags) == ["P005"]
        assert any(d.subject == "base_compact" for d in diags)

    def test_p003_border_set_missing_touched_node(self):
        ct = self._schur_plan()
        schur = ct._schur
        border = np.array(schur.borders[-1], copy=True)
        assert border.shape[1] >= 2 and np.all(border >= 0)
        border[0, -1] = -1  # the first block forgets its last border node
        schur.borders[-1] = border
        diags = _errors(audit_plan(ct))
        assert _codes(diags) == ["P003"]
        assert any("misses border nodes" in d.message for d in diags)


class TestPlanTableMutations:
    def test_p005_stale_step_sizes(self):
        ct = bench_compiled("latch")
        ct._plan.hs = ct._plan.hs * 2.0
        diags = _errors(audit_plan(ct))
        assert _codes(diags) == ["P005"]

    def test_p005_stale_base_jacobian(self):
        ct = bench_compiled("latch")
        ct._plan.base_jac = ct._plan.base_jac + 1e-3
        diags = _errors(audit_plan(ct))
        assert "P005" in _codes(diags)
        assert any(d.subject == "base_jac" for d in diags)


def _t_wl_mid():
    t = OperationTiming()
    return t.wl_delay + 0.5 * t.wl_rise


class TestRetirementAudit:
    def test_production_plans_clean_under_their_policies(self, monkeypatch):
        """Every compiled run a production view makes passes the audit
        under the retirement policy that run uses."""
        runs = []
        real_run = CompiledTransient.run

        def recorded(self, *args, **kwargs):
            runs.append((self, kwargs.get("retire")))
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(CompiledTransient, "run", recorded)
        cell = np.zeros((2, 6))
        eng = Batched6T(n_steps=200)
        col = ReadColumn(config=ColumnConfig(n_leakers=3))
        arr = ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=3))
        eng.read_access_times(cell)
        eng.read_access_times(cell, dv_spec=0.1)
        eng.write_trip_times(cell)
        eng.read(cell)
        eng.write(cell)
        col.access_times_batch(np.zeros((2, 24)), n_steps=64)
        col.differential_at_wl_fall_batch(cell, n_steps=64)
        arr.access_times_batch(np.zeros((2, 48)), n_steps=64)
        arr.differential_at_wl_fall_batch(np.zeros((2, 48)), n_steps=64)

        # Every view retires except the full write and the wordline-fall
        # differentials, whose plans hold a value probe.
        retiring = [retire is not None for _, retire in runs]
        assert retiring == [True, True, True, True, False, True, False, True, False]
        for ct, retire in runs:
            assert _errors(audit_plan(ct, retire=retire)) == []

    def test_p006_value_probe_with_retirement(self):
        # The access runs' policy on the two-probe plan the wordline-fall
        # differential reads.
        ct = bench_compiled("array")
        retire = RetirePolicy("access", after=_t_wl_mid())
        diags = _errors(audit_plan(ct, retire=retire))
        assert _codes(diags) == ["P006"]
        assert [d.subject for d in diags] == ["diff_at_wl_fall"]

    def test_p006_peak_window_after_retirement(self):
        # Retiring the 6T read from t = 0 would freeze both peaks before
        # their windows open at the wordline half-swing.
        ct = bench_compiled("6t")
        retire = RetirePolicy("cross", after=0.0)
        diags = _errors(audit_plan(ct, retire=retire))
        assert _codes(diags) == ["P006"]
        assert sorted(d.subject for d in diags) == ["q_peak", "qb_peak"]

    def test_p006_unknown_retire_probe(self):
        ct = bench_compiled("6t")
        retire = RetirePolicy("nonesuch", after=float(ct.grid[-1]))
        diags = _errors(audit_plan(ct, retire=retire))
        assert "P006" in _codes(diags)

    def test_write_bench_retirement_is_legal_after_peak_opens(self):
        ct = bench_compiled("write")
        t_from = float(ct._peak_probes[0].t_from)
        retire = RetirePolicy("cross", after=t_from * 1.5)
        assert _errors(audit_plan(ct, retire=retire)) == []


class TestProbeTableMutations:
    def test_p007_peak_rows_out_of_range(self):
        ct = bench_compiled("write")
        rows = np.array(ct._peak_rows, copy=True)
        rows[0] = ct.n_unknowns
        ct._peak_rows = rows
        diags = _errors(audit_plan(ct))
        assert "P007" in _codes(diags)

    def test_p007_value_step_beyond_grid(self):
        ct = bench_compiled("array")
        steps = np.array(ct._value_steps, copy=True)
        steps[0] = ct._plan.n_steps
        ct._value_steps = steps
        diags = _errors(audit_plan(ct))
        assert "P007" in _codes(diags)


class TestRecompileHelper:
    def test_recompile_is_equivalent(self):
        base = bench_compiled("column")
        other = recompile(base, assembly="dense")
        assert other.assembly == "dense"
        assert other.n_unknowns == base.n_unknowns
        assert audit_plan(other) == []

    def test_recompile_preserves_probes(self):
        base = bench_compiled("array")
        other = recompile(base, solver="blocked")
        assert [p.name for p in other._cross_probes] == [
            p.name for p in base._cross_probes
        ]
        assert [p.name for p in other._value_probes] == [
            p.name for p in base._value_probes
        ]
