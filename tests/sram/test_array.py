"""Array-slice tests: structure, mux physics, compiled-path invariants.

The compiled rungs mirror ``tests/sram/test_compiled_benches.py``:
fast-vs-reference at the PR 2 tolerance ladder, sparse-vs-dense assembly
at *bit-equality*, the per-column Schur peel against the generic blocked
elimination at solver-arithmetic tolerance, and compiled-vs-scalar at
the cross-validation budget.
"""

import numpy as np
import pytest

from repro.sram.array import CDL_PER_COLUMN, CDL_WIRE, ArrayConfig, ArraySlice
from repro.sram.column import CBL_PER_CELL, CBL_WIRE
from repro.sram.testbench import OperationTiming

#: Short wordline pulse keeps the scalar-MNA cross-validation affordable.
FAST = OperationTiming(wl_width=1.0e-9, t_hold=0.2e-9)

#: Compiled-vs-adaptive-integrator agreement budget (cross-validation class).
XVAL_REL = 0.25


@pytest.fixture(scope="module")
def small_array():
    """2 columns x (1 accessed + 2 leakers): 16 unknowns, 4-node border."""
    return ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=2))


class TestConfig:
    def test_cap_estimates(self):
        cfg = ArrayConfig(n_cols=3, n_leakers=5)
        assert cfg.bitline_cap() == pytest.approx(CBL_WIRE + 6 * CBL_PER_CELL)
        assert cfg.dataline_cap() == pytest.approx(CDL_WIRE + 3 * CDL_PER_COLUMN)

    def test_explicit_caps_win(self):
        cfg = ArrayConfig(cbl=5e-15, cdl=3e-15)
        assert cfg.bitline_cap() == 5e-15
        assert cfg.dataline_cap() == 3e-15

    def test_bad_data_pattern_rejected(self):
        with pytest.raises(ValueError, match="leaker_data"):
            ArraySlice(config=ArrayConfig(leaker_data="random"))

    def test_bad_column_count_rejected(self):
        with pytest.raises(ValueError, match="n_cols"):
            ArraySlice(config=ArrayConfig(n_cols=0))

    def test_bad_selected_column_rejected(self):
        with pytest.raises(ValueError, match="sel_col"):
            ArraySlice(config=ArrayConfig(n_cols=2, sel_col=2))


class TestStructure:
    def test_device_count(self, small_array):
        # 6 per cell, 3 cells per column, 2 columns, plus 2 mux PMOS per
        # column.
        assert len(small_array.circuit.mosfets()) == 6 * 3 * 2 + 2 * 2

    def test_all_device_names_order(self, small_array):
        names = small_array.all_device_names()
        assert len(names) == small_array.n_variation_devices == 36
        assert names[0] == "m_pu_l_c0a"
        assert names[6] == "m_pu_l_c0l0"
        assert names[18] == "m_pu_l_c1a"
        assert not any(n.startswith("m_mux") for n in names)

    def test_accessed_device_names_follow_selection(self):
        arr = ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=1, sel_col=1))
        assert all(n.endswith("_c1a") for n in arr.accessed_device_names())

    def test_compiles_to_per_column_schur(self, small_array):
        ct = small_array.compiled(n_steps=64)
        assert ct.solver == "schur"
        assert ct.assembly == "sparse"
        # Border: both bitlines of both columns; interior: one cell pair
        # per cell plus the two data-line singletons.
        assert ct._schur.h.size == 2 * 2
        assert [(s, nodes.shape[0]) for s, nodes in ct._schur.groups] == \
            [(1, 2), (2, 6)]
        border_names = {ct.node_names[i] for i in ct._schur.h}
        assert border_names == {"bl_c0", "blb_c0", "bl_c1", "blb_c1"}

    def test_unknown_count(self, small_array):
        ct = small_array.compiled(n_steps=64)
        # 2 cols * (2 * 3 cell nodes + 2 bitlines) + dl + dlb.
        assert ct.n_unknowns == 2 * (6 + 2) + 2


class TestCompiledInvariants:
    @pytest.fixture(scope="class")
    def arr(self):
        return ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=2))

    def test_fast_vs_reference_ladder(self, arr):
        rng = np.random.default_rng(30)
        dvth = rng.normal(0.0, 0.03, size=(10, 36))
        f = arr.access_times_batch(dvth, n_steps=160, kernel="fast")
        r = arr.access_times_batch(dvth, n_steps=160, kernel="reference")
        np.testing.assert_allclose(f, r, rtol=1e-9)

    def test_fast_vs_reference_corner_ladder(self, arr):
        rng = np.random.default_rng(31)
        dvth = rng.normal(0.0, 0.03, size=(6, 36)) * 4.0
        dvth[0, :6] = [0.55, -0.55, 0.55, -0.55, 0.55, -0.55]
        f = arr.differential_at_wl_fall_batch(dvth, n_steps=160, kernel="fast")
        r = arr.differential_at_wl_fall_batch(dvth, n_steps=160,
                                              kernel="reference")
        np.testing.assert_allclose(f, r, rtol=1e-6)

    def test_sparse_bit_equal_to_dense(self, arr):
        """The stamp-determinism invariant on a >= 2-column slice."""
        rng = np.random.default_rng(32)
        dvth = rng.normal(0.0, 0.03, size=(24, 36))
        d = arr.access_times_batch(dvth, n_steps=160, assembly="dense")
        s = arr.access_times_batch(dvth, n_steps=160, assembly="sparse")
        np.testing.assert_array_equal(d, s)

    def test_schur_matches_blocked_elimination(self, arr):
        """Different solver arithmetic, same converged answer."""
        rng = np.random.default_rng(33)
        dvth = rng.normal(0.0, 0.03, size=(12, 36))
        a = arr.access_times_batch(dvth, n_steps=160, solver="schur")
        b = arr.access_times_batch(dvth, n_steps=160, solver="blocked")
        np.testing.assert_allclose(a, b, rtol=1e-6)

    def test_blocked_solver_resolved(self, arr):
        ct = arr.compiled(n_steps=64, solver="blocked")
        assert ct.solver == "blocked"
        assert ct._schur is None

    def test_bad_matrix_shape_rejected(self, arr):
        with pytest.raises(ValueError, match="delta_vth matrix shape"):
            arr.access_times_batch(np.zeros((4, 24)), n_steps=64)


class TestReadPhysics:
    @pytest.fixture(scope="class")
    def arr(self):
        return ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=2),
                          timing=FAST)

    def test_nominal_read_succeeds(self, arr):
        t = arr.access_times_batch(np.zeros((1, 36)), n_steps=160)[0]
        assert 1e-12 < t < 2e-9

    def test_compiled_vs_scalar_access_time(self, arr):
        """Compiled slice against the adaptive-grid MNA engine."""
        batch = arr.access_times_batch(np.zeros((1, 36)), n_steps=400)[0]
        scalar = arr.access_sample()
        assert scalar.event_found
        assert batch == pytest.approx(scalar.value, rel=XVAL_REL)

    def test_selected_column_dominates(self, arr):
        """A weak pass gate on the *selected* column's accessed cell
        must slow the muxed read; the same weakness on the unselected
        column must not (its bitlines never reach the data lines)."""
        names = arr.all_device_names()
        nominal = arr.access_times_batch(np.zeros((1, 36)), n_steps=160)[0]
        sel = np.zeros((1, 36))
        sel[0, names.index("m_pg_l_c0a")] = 0.12
        unsel = np.zeros((1, 36))
        unsel[0, names.index("m_pg_l_c1a")] = 0.12
        t_sel = arr.access_times_batch(sel, n_steps=160)[0]
        t_unsel = arr.access_times_batch(unsel, n_steps=160)[0]
        assert t_sel > 1.1 * nominal
        assert abs(t_unsel - nominal) < 0.1 * (t_sel - nominal)

    def test_leakage_erodes_muxed_differential(self):
        """More adversarial leakers on the selected column must erode
        the data-line differential, exactly as on the bare column."""
        short = ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=2),
                           timing=FAST)
        long_ = ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=6),
                           timing=FAST)
        d_short = short.differential_at_wl_fall_batch(
            np.zeros((1, 36)), n_steps=160)[0]
        d_long = long_.differential_at_wl_fall_batch(
            np.zeros((1, 84)), n_steps=160)[0]
        assert d_long < d_short

    def test_simulation_counter_billed(self, arr):
        before = arr.n_simulations
        arr.access_times_batch(np.zeros((3, 36)), n_steps=64)
        assert arr.n_simulations == before + 3


class TestNewtonHealth:
    def test_nonconverged_samples_counted_alike_by_both_assemblies(self):
        """A 2x8 slice at 120 steps leaves some samples with a
        non-converged Newton step (8 of these 64 when measured).  The
        count is a property of the inputs, not of the assembly pass;
        the metric itself stays as it was."""
        counts = {}
        for asm in ("sparse", "dense"):
            arr = ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=7))
            dvth = np.random.default_rng(0).normal(
                0.0, 0.03, size=(64, arr.n_variation_devices)
            )
            arr.access_times_batch(dvth, n_steps=120, assembly=asm)
            counts[asm] = arr.n_nonconverged
        assert counts["sparse"] == counts["dense"] > 0


class TestResolveBatch:
    @pytest.fixture(scope="class")
    def arr(self):
        return ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=2),
                          timing=FAST)

    def test_nominal_resolves_correctly(self, arr):
        correct, t_res = arr.resolve_batch(np.zeros((2, 36)), n_steps=160)
        assert correct.all()
        assert np.isfinite(t_res).all()
        assert (t_res > 0).all()

    def test_deaf_latch_fails_the_read(self, arr):
        """A large adverse latch offset must flip the shared sense amp's
        decision even though the column-side differential is healthy."""
        sa_bad = np.zeros((1, 4))
        sa_bad[0] = [0.5, 0.0, -0.5, 0.0]  # strongly favours the wrong side
        correct, _ = arr.resolve_batch(
            np.zeros((1, 36)), sa_delta_vth=sa_bad, n_steps=160
        )
        assert not correct[0]

    def test_latch_mismatch_shared_across_samples(self, arr):
        rng = np.random.default_rng(34)
        dvth = rng.normal(0.0, 0.02, size=(3, 36))
        sa = rng.normal(0.0, 0.02, size=(3, 4))
        c, t = arr.resolve_batch(dvth, sa_delta_vth=sa, n_steps=160)
        assert c.shape == (3,) and t.shape == (3,)
