"""Batched circuit compiler: solveN, compilation analysis, kernel parity.

The compiler's regression anchor is the 6T engine: ``tests/sram/test_kernel.py``
pins the compiled fast path against ``Batched6T``'s reference integrator at
~1e-9.  This module covers the compiler-specific surface: the batched
solver family against LAPACK, the netlist analysis (rails, C/G assembly,
rejection of unsupported elements), probe plumbing, and the compiled
reference kernel as the in-family cross-check on a non-6T circuit.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.spice.compile import (
    CompiledTransient,
    CrossProbe,
    PeakProbe,
    RetirePolicy,
    ValueProbe,
    _SchurSolver,
    _expand_compact,
    solveN,
    transient_grid,
)
from repro.spice.elements import Capacitor, CurrentSource, Resistor, VoltageSource
from repro.spice.netlist import Circuit
from repro.spice.sources import dc, pulse
from repro.sram.batched import Batched6T


class TestSolveN:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_lapack(self, n):
        """The satellite's acceptance sweep: n_nodes 2-8 (plus 1)."""
        rng = np.random.default_rng(n)
        a = rng.normal(size=(200, n, n)) + (n + 2.0) * np.eye(n)
        b = rng.normal(size=(200, n))
        ref = np.linalg.solve(a, b[..., None])[..., 0]
        x = solveN(
            np.ascontiguousarray(a.transpose(1, 2, 0)),
            np.ascontiguousarray(b.T),
        )
        np.testing.assert_allclose(x.T, ref, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_pivot_guard_falls_back_to_lapack(self, n):
        # Vanishing (0, 0) pivot: natural-order elimination is invalid and
        # the guard must reroute those samples through the pivoted solver.
        a = np.eye(n)
        a[0, 0] = 0.0
        a[0, 1] = 1.0
        a[1, 0] = 1.0
        a[1, 1] = 0.0
        b = np.arange(1.0, n + 1.0)
        stack_a = np.repeat(a[:, :, None], 3, axis=2)
        stack_b = np.repeat(b[:, None], 3, axis=1)
        x = solveN(stack_a, stack_b)
        ref = np.linalg.solve(a, b)
        np.testing.assert_allclose(x[:, 1], ref, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_inputs_not_mutated(self, n):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(n, n, 8)) + 4.0 * np.eye(n)[:, :, None]
        b = rng.normal(size=(n, 8))
        a0, b0 = a.copy(), b.copy()
        solveN(a, b)
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            solveN(np.zeros((3, 2, 4)), np.zeros((3, 4)))


class TestTransientGrid:
    def test_lands_on_breakpoints(self):
        grid = transient_grid(1e-9, breakpoints=(0.2e-9, 0.5e-9), n_steps=100)
        for b in (0.0, 0.2e-9, 0.5e-9, 1e-9):
            assert np.min(np.abs(grid - b)) == 0.0

    def test_monotone_and_bounded(self):
        grid = transient_grid(2e-9, breakpoints=(1e-9, 3e-9, -1e-9), n_steps=64)
        assert grid[0] == 0.0 and grid[-1] == 2e-9
        assert np.all(np.diff(grid) > 0)

    def test_invalid_stop_rejected(self):
        with pytest.raises(SimulationError):
            transient_grid(0.0)


def _rc_circuit():
    """Minimal supported circuit: one MOSFET, resistor drive, cap load."""
    from repro.spice.mosfet import nmos_45nm

    from repro.spice.elements import Mosfet

    c = Circuit("rc_test")
    c.add(VoltageSource("v_vdd", "vdd", "0", dc(1.0)))
    c.add(VoltageSource("v_in", "in", "0", pulse(0.0, 1.0, delay=0.1e-9,
                                                 rise=20e-12, width=1e-9)))
    c.add(Mosfet("m1", "out", "in", "0", "0", nmos_45nm(), w=200e-9, l=50e-9))
    c.add(Resistor("r_load", "vdd", "out", 20e3))
    c.add(Capacitor("c_load", "out", "0", 5e-15))
    return c


class TestCompilationAnalysis:
    def test_rails_and_unknowns_partitioned(self):
        ct = CompiledTransient(_rc_circuit(), grid=transient_grid(1.5e-9, n_steps=64))
        assert set(ct.rail_names) == {"vdd", "in"}
        assert ct.node_names == ["out"]
        assert ct.device_names == ["m1"]

    def test_compiled_cmat_matches_engine_assembly(self):
        """The compiled 6T capacitance matrix must equal the hand-built
        one in Batched6T — same values from the same model caps."""
        eng = Batched6T(n_steps=120)
        ct = eng.compiled("read")
        np.testing.assert_array_equal(ct.cmat, eng._cmat)
        # WL coupling column agrees too.
        wl_col = ct.rail_names.index("wl")
        np.testing.assert_array_equal(ct._cap_rail[:, wl_col], eng._wl_coupling)

    def test_unsupported_element_rejected(self):
        c = _rc_circuit()
        c.add(CurrentSource("i_leak", "out", "0", dc(1e-9)))
        with pytest.raises(SimulationError, match="unsupported"):
            CompiledTransient(c, grid=transient_grid(1e-9, n_steps=32))

    def test_floating_voltage_source_rejected(self):
        c = Circuit("floating")
        c.add(VoltageSource("v_f", "a", "b", dc(1.0)))
        with pytest.raises(SimulationError, match="grounded"):
            CompiledTransient(c, grid=transient_grid(1e-9, n_steps=32))

    def test_duplicate_probe_rejected(self):
        with pytest.raises(SimulationError, match="duplicate probe"):
            CompiledTransient(
                _rc_circuit(),
                grid=transient_grid(1e-9, n_steps=32),
                probes=(PeakProbe("p", "out"), PeakProbe("p", "out")),
            )

    def test_probe_on_rail_rejected(self):
        with pytest.raises(SimulationError, match="not an unknown"):
            CompiledTransient(
                _rc_circuit(),
                grid=transient_grid(1e-9, n_steps=32),
                probes=(CrossProbe("x", {"vdd": 1.0}),),
            )

    def test_bad_kernel_rejected(self):
        with pytest.raises(SimulationError):
            CompiledTransient(_rc_circuit(), grid=transient_grid(1e-9, n_steps=32),
                              kernel="turbo")


class TestRunValidation:
    @pytest.fixture(scope="class")
    def ct(self):
        return CompiledTransient(_rc_circuit(), grid=transient_grid(1.5e-9, n_steps=64))

    def test_missing_ic_rejected(self, ct):
        with pytest.raises(SimulationError, match="initial conditions missing"):
            ct.run(ic={}, n=4)

    def test_unknown_device_rejected(self, ct):
        with pytest.raises(SimulationError, match="unknown device"):
            ct.run(ic={"out": 1.0}, n=4, delta_vth={"m_nope": 0.1})

    def test_bad_matrix_shape_rejected(self, ct):
        with pytest.raises(SimulationError, match="matrix shape"):
            ct.run(ic={"out": 1.0}, n=4, delta_vth=np.zeros((4, 3)))

    def test_retire_with_value_probe_rejected(self):
        ct = CompiledTransient(
            _rc_circuit(),
            grid=transient_grid(1.5e-9, n_steps=64),
            probes=(CrossProbe("c", {"out": 1.0}, offset=-0.5),
                    ValueProbe("v", {"out": 1.0}, t=1e-9)),
        )
        with pytest.raises(SimulationError, match="retirement and value probes"):
            ct.run(ic={"out": 1.0}, n=4, retire=RetirePolicy("c", after=0.5e-9))

    def test_unknown_retire_probe_rejected(self):
        ct = CompiledTransient(
            _rc_circuit(),
            grid=transient_grid(1.5e-9, n_steps=64),
            probes=(CrossProbe("c", {"out": 1.0}, offset=-0.5),),
        )
        with pytest.raises(SimulationError, match="unknown cross probe"):
            ct.run(ic={"out": 1.0}, n=4, retire=RetirePolicy("zzz", after=0.5e-9))


def _compiled_pair(circuit, grid, probes, **kwargs):
    """The same compile with dense and with sparse assembly."""
    return tuple(
        CompiledTransient(circuit, grid=grid, probes=probes, kernel="fast",
                          assembly=asm, **kwargs)
        for asm in ("dense", "sparse")
    )


def _assert_runs_bit_equal(res_d, res_s):
    for name in res_d.final:
        np.testing.assert_array_equal(res_d.final[name], res_s.final[name])
    for name in res_d.cross:
        np.testing.assert_array_equal(res_d.cross[name], res_s.cross[name])
    for name in res_d.peak:
        np.testing.assert_array_equal(res_d.peak[name], res_s.peak[name])
    np.testing.assert_array_equal(res_d.converged, res_s.converged)


class TestSparseAssembly:
    """The sparse scatter-stamp pass against the dense incidence matmuls.

    The contract is *bit-equality*, not tolerance: the stamps are exact
    ±1 and the rounds replay the matmuls' accumulation order, so any
    difference at all means the pass is wrong (see the stamp-determinism
    invariant in ROADMAP.md).
    """

    def test_bad_assembly_rejected(self):
        with pytest.raises(SimulationError, match="assembly"):
            CompiledTransient(_rc_circuit(), grid=transient_grid(1e-9, n_steps=32),
                              assembly="coo")

    def test_auto_selects_by_node_count(self):
        from repro.sram.column import ColumnConfig, ReadColumn

        small = CompiledTransient(_rc_circuit(),
                                  grid=transient_grid(1e-9, n_steps=32))
        assert small.assembly == "dense"
        column = ReadColumn(config=ColumnConfig(n_leakers=3)).compiled(n_steps=64)
        assert column.n_unknowns == 10
        assert column.assembly == "sparse"

    def test_bit_equal_on_6t(self):
        eng = Batched6T(n_steps=140)
        base = eng.compiled("read")
        probes = (CrossProbe("cross", {"blb": 1.0, "bl": -1.0},
                             offset=-eng.dv_spec),
                  PeakProbe("q_peak", "q"))
        dense, sparse = _compiled_pair(base.circuit, base.grid, probes,
                                       clip=(-0.4, eng.vdd + 0.4))
        rng = np.random.default_rng(10)
        dvth = rng.normal(0.0, 0.04, size=(48, 6))
        ic = {"q": 0.0, "qb": eng.vdd, "bl": eng.vdd, "blb": eng.vdd}
        _assert_runs_bit_equal(
            dense.run(ic=ic, n=48, delta_vth=dvth),
            sparse.run(ic=ic, n=48, delta_vth=dvth),
        )

    def test_bit_equal_on_latch(self):
        from repro.sram.senseamp import SenseAmp

        sense = SenseAmp()
        base = sense.compiled(n_steps=200)
        probes = (CrossProbe("win_correct", {"soutb": 1.0, "sout": -1.0},
                             offset=-0.5 * sense.vdd),)
        dense, sparse = _compiled_pair(base.circuit, base.grid, probes)
        rng = np.random.default_rng(11)
        dvth = {"m_sn_l": rng.normal(0.0, 0.03, 40),
                "m_sn_r": rng.normal(0.0, 0.03, 40)}
        ic = {"sout": sense.vdd - 0.1, "soutb": sense.vdd, "tail": 0.0}
        _assert_runs_bit_equal(
            dense.run(ic=ic, n=40, delta_vth=dvth),
            sparse.run(ic=ic, n=40, delta_vth=dvth),
        )

    def test_bit_equal_on_column(self):
        from repro.sram.column import ColumnConfig, ReadColumn

        column = ReadColumn(config=ColumnConfig(n_leakers=3))
        rng = np.random.default_rng(12)
        dvth = rng.normal(0.0, 0.03, size=(32, 24))
        d = column.access_times_batch(dvth, n_steps=160, assembly="dense")
        s = column.access_times_batch(dvth, n_steps=160, assembly="sparse")
        np.testing.assert_array_equal(d, s)


def _compact(a, pattern):
    """A dense ``(n, n, m)`` stack as the solver's compact rows."""
    n, _, m = a.shape
    rows = a.reshape(n * n, m)[np.flatnonzero(pattern)]
    return np.concatenate([rows, np.zeros((1, m))])


class TestSchurSolver:
    @staticmethod
    def _bordered_stack(rng, n_blocks=5, h=2, m=64):
        """Diagonally dominant bordered-block-diagonal stacks."""
        n = 2 * n_blocks + h
        a = np.zeros((n, n, m))
        for i in range(n):
            a[i, i] = rng.uniform(2.0, 3.0, m)
        for b in range(n_blocks):
            i = h + 2 * b
            a[i, i + 1] = rng.normal(0, 0.3, m)
            a[i + 1, i] = rng.normal(0, 0.3, m)
            for j in range(h):
                a[i, j] = rng.normal(0, 0.3, m)
                a[j, i] = rng.normal(0, 0.3, m)
                a[i + 1, j] = rng.normal(0, 0.3, m)
                a[j, i + 1] = rng.normal(0, 0.3, m)
        b_rhs = rng.normal(size=(n, m))
        return a, b_rhs

    def test_matches_lapack_on_bordered_pattern(self):
        rng = np.random.default_rng(13)
        a, b = self._bordered_stack(rng)
        pattern = np.any(a != 0.0, axis=2)
        solver = _SchurSolver(pattern, min_pivot=1e-18)
        assert solver.h.size == 2
        x = solver.solve(_compact(a, pattern), b)
        ref = np.linalg.solve(
            np.ascontiguousarray(a.transpose(2, 0, 1)),
            np.ascontiguousarray(b.T)[..., None],
        )[..., 0].T
        np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-12)

    def test_singular_block_falls_back_through_a_dense_stack(self):
        """An exactly singular interior block defeats the block
        elimination although the full matrix is solvable: the solve
        raises, and the expanded dense stack solves through solveN
        (run()'s fallback)."""
        rng = np.random.default_rng(16)
        a, b = self._bordered_stack(rng)
        pattern = np.any(a != 0.0, axis=2)
        solver = _SchurSolver(pattern, min_pivot=1e-18)
        a[2:4, 2:4] = 0.0  # the first cell pair's block
        compact = _compact(a, pattern)
        with pytest.raises(np.linalg.LinAlgError):
            solver.solve(compact, b)
        x = solveN(_expand_compact(compact, np.flatnonzero(pattern), a.shape[0]), b)
        ref = np.linalg.solve(
            np.ascontiguousarray(a.transpose(2, 0, 1)),
            np.ascontiguousarray(b.T)[..., None],
        )[..., 0].T
        np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-12)

    def test_dense_pattern_rejected(self):
        pattern = np.ones((12, 12), dtype=bool)
        with pytest.raises(SimulationError, match="schur"):
            _SchurSolver(pattern, min_pivot=1e-18)

    def test_column_compiles_to_schur(self):
        from repro.sram.column import ColumnConfig, ReadColumn

        ct = ReadColumn(config=ColumnConfig(n_leakers=15)).compiled(n_steps=64)
        assert ct._schur is not None
        assert ct.solver == "schur"
        # The border is the two bitlines; every interior block is a
        # 2-node cell pair (accessed cell + 15 leakers).
        assert ct._schur.h.size == 2
        assert [(s, nodes.shape[0]) for s, nodes in ct._schur.groups] == [(2, 16)]

    def test_relative_border_cap_accepts_wide_borders(self):
        """A bordered pattern whose border exceeds the old fixed cap of
        4 must now decompose (the cap scales as nu // 4) and solve the
        border system through the blocked elimination."""
        rng = np.random.default_rng(14)
        a, b = self._bordered_stack(rng, n_blocks=12, h=6, m=32)
        pattern = np.any(a != 0.0, axis=2)
        solver = _SchurSolver(pattern, min_pivot=1e-18)
        assert solver.h.size == 6
        x = solver.solve(_compact(a, pattern), b)
        ref = np.linalg.solve(
            np.ascontiguousarray(a.transpose(2, 0, 1)),
            np.ascontiguousarray(b.T)[..., None],
        )[..., 0].T
        np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-12)

    def test_relative_border_cap_still_rejects_dense(self):
        """The cap is relative, not unbounded: a dense pattern of any
        size must still refuse the peel."""
        for n in (12, 40):
            with pytest.raises(SimulationError, match="schur"):
                _SchurSolver(np.ones((n, n), dtype=bool), min_pivot=1e-18)


class TestCompactJacobian:
    """Schur plans assemble and solve on compact rows: one per structural
    nonzero of the compile-time pattern, plus an always-zero row."""

    def test_array_slice_layout(self):
        from repro.sram.array import ArraySlice

        ct = ArraySlice().compiled(n_steps=120)
        assert ct.n_unknowns == 138
        assert ct._jac_index.size == 538  # of 138² = 19 044 entries
        # Border-set widths: 4 bitlines per data line, 2 per cell pair.
        assert [b.shape for b in ct._schur.borders] == [(2, 4), (64, 2)]

    def test_sparse_schur_plan_holds_no_dense_tables(self):
        from repro.sram.benches import bench_compiled

        ct = bench_compiled("array", assembly="sparse", solver="schur")
        assert ct._m_mat is None
        assert ct._plan.base_jac is None
        assert ct._plan.base_compact.shape == (
            ct._plan.n_steps, ct._jac_index.size + 1
        )

    def test_cross_check_plans_keep_their_dense_tables(self):
        from repro.sram.benches import bench_compiled

        dense = bench_compiled("array", assembly="dense", solver="schur")
        assert dense._m_mat is not None and dense._plan.base_jac is None
        blocked = bench_compiled("array", assembly="sparse", solver="blocked")
        assert blocked._m_mat is not None and blocked._plan.base_compact is None

    def test_fast_run_never_expands_to_a_dense_stack(self, monkeypatch):
        """Only the LinAlgError fallback and the reference kernel expand
        compact rows to a (nu, nu, m) stack; widths below and above the
        old skinny-delegation cutoff both stay compact."""
        import repro.spice.compile as compile_mod
        from repro.sram.array import ArrayConfig, ArraySlice
        from repro.sram.benches import bench_compiled

        ct = bench_compiled("array", assembly="sparse", solver="schur")
        ic = ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=3))._initial_conditions()

        def refuse(*args, **kwargs):
            raise AssertionError("dense expansion on the normal path")

        monkeypatch.setattr(compile_mod, "_expand_compact", refuse)
        rng = np.random.default_rng(15)
        for n in (3, 20):
            dvth = rng.normal(0.0, 0.03, size=(n, len(ct.device_names)))
            assert ct.run(ic=ic, n=n, delta_vth=dvth).converged.shape == (n,)


def _sparse_plan(name):
    """Every kind of sparse plan: Schur (column, array slices) and the
    small benches forced sparse (no Schur partition)."""
    from repro.sram.array import ArrayConfig, ArraySlice
    from repro.sram.benches import bench_compiled

    if name == "array-2x8":
        return ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=7)).compiled(n_steps=120)
    if name == "array-4x16":
        return ArraySlice().compiled(n_steps=120)
    return bench_compiled(name, assembly="sparse")


class TestStampCsrOrder:
    """``csr @ g`` adds each compact row's ±1 stamps in ascending column
    order, the dense matmul's k order, which the sparse == dense pins
    rest on.  Pinned bit for bit against an in-order accumulation of the
    audit's independent stamp replay, so it holds whatever BLAS does and
    catches any change scipy makes to its CSR x dense summation order."""

    @pytest.mark.parametrize(
        "name", ["column", "array-2x8", "array-4x16", "6t", "latch", "write"]
    )
    def test_product_adds_stamps_in_replay_order(self, name):
        from repro.spice.audit import _replay_stamps

        ct = _sparse_plan(name)
        assert ct.assembly == "sparse" and ct._jac_csr is not None
        replay = _replay_stamps(ct)
        rows = np.searchsorted(ct._jac_index, list(replay))
        rng = np.random.default_rng(17)
        n_cols = ct._jac_csr.shape[1]
        for width in (1, 3, 16, 64):
            # Conductance-scale values over six decades, so a row added
            # in another order rounds differently at the wider widths.
            g = rng.standard_normal((n_cols, width)) * 10.0 ** rng.uniform(
                -9, -3, size=(n_cols, width)
            )
            want = np.zeros((ct._jac_index.size + 1, width))
            for row, row_stamps in zip(rows, replay.values()):
                for col, sign in row_stamps:
                    want[row] += sign * g[col]
            got = ct._jac_csr @ g
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestSolverChoice:
    """The solver= knob: explicit policy over the Schur-vs-blocked pick."""

    def test_bad_solver_rejected(self):
        with pytest.raises(SimulationError, match="solver"):
            CompiledTransient(_rc_circuit(), grid=transient_grid(1e-9, n_steps=32),
                              solver="lu")

    def test_blocked_forces_generic_path(self):
        from repro.sram.column import ColumnConfig, ReadColumn

        ct = ReadColumn(config=ColumnConfig(n_leakers=15)).compiled(
            n_steps=64, kernel="fast", assembly="auto"
        )
        assert ct.solver == "schur"
        forced = CompiledTransient(
            ct.circuit, grid=ct.grid, kernel="fast", solver="blocked"
        )
        assert forced.solver == "blocked"
        assert forced._schur is None

    def test_schur_required_raises_on_small_circuit(self):
        with pytest.raises(SimulationError, match="schur"):
            CompiledTransient(_rc_circuit(), grid=transient_grid(1e-9, n_steps=32),
                              solver="schur")

    def test_schur_required_raises_on_nondecomposing_pattern(self):
        """A chain of pass devices couples every node to the next: no
        small border isolates blocks, so solver='schur' must refuse
        loudly instead of silently falling back."""
        from repro.spice.elements import Mosfet
        from repro.spice.mosfet import nmos_45nm

        c = Circuit("chain")
        c.add(VoltageSource("v_vdd", "vdd", "0", dc(1.0)))
        nm = nmos_45nm()
        for k in range(11):
            c.add(Mosfet(f"m{k}", f"n{k}", "vdd", f"n{k + 1}", "0",
                         nm, w=200e-9, l=50e-9))
        c.add(Capacitor("c_end", "n11", "0", 5e-15))
        with pytest.raises(SimulationError, match="schur"):
            CompiledTransient(c, grid=transient_grid(1e-9, n_steps=32),
                              solver="schur")
        # auto on the same circuit falls back to the generic elimination.
        auto = CompiledTransient(c, grid=transient_grid(1e-9, n_steps=32))
        assert auto.solver == "blocked"

    def test_solver_independent_of_assembly(self):
        from repro.sram.column import ColumnConfig, ReadColumn

        column = ReadColumn(config=ColumnConfig(n_leakers=3))
        for asm in ("dense", "sparse"):
            assert column.compiled(n_steps=64, assembly=asm).solver == "schur"


class TestFusedVsReferenceOnGenericCircuit:
    """The in-family cross-check on a circuit that is *not* the 6T cell:
    the fused transcription + solveN against per-device MosfetModel.ids
    + LAPACK inside the same step loop, at the PR 2 tolerance ladder."""

    def test_discharge_waveform_agreement(self):
        grid = transient_grid(1.5e-9, breakpoints=(0.1e-9, 0.12e-9), n_steps=120)
        probes = (
            CrossProbe("halfway", {"out": 1.0}, offset=-0.5),
            PeakProbe("peak", "out"),
        )
        rng = np.random.default_rng(3)
        dvth = rng.normal(0.0, 0.05, size=(32, 1))
        bmult = 1.0 + rng.normal(0.0, 0.05, size=(32, 1))
        results = {}
        for kernel in ("fast", "reference"):
            ct = CompiledTransient(_rc_circuit(), grid=grid, probes=probes,
                                   kernel=kernel)
            results[kernel] = ct.run(
                ic={"out": 1.0}, n=32, delta_vth=dvth, beta_mult=bmult
            )
        f, r = results["fast"], results["reference"]
        np.testing.assert_array_equal(f.converged, r.converged)
        np.testing.assert_allclose(f.final["out"], r.final["out"],
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(f.peak["peak"], r.peak["peak"],
                                   rtol=1e-9, atol=1e-12)
        # Crossing times: nan pattern identical, values at 1e-9.
        np.testing.assert_array_equal(
            np.isnan(f.cross["halfway"]), np.isnan(r.cross["halfway"])
        )
        ok = ~np.isnan(f.cross["halfway"])
        np.testing.assert_allclose(
            f.cross["halfway"][ok], r.cross["halfway"][ok], rtol=1e-9
        )
