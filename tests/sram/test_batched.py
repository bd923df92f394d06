"""Batched 6T engine tests: behaviour, chunking, validation, errors."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sram.batched import Batched6T
from repro.sram.cell import CellDesign


@pytest.fixture(scope="module")
def engine():
    return Batched6T(n_steps=300)


class TestReadOperation:
    def test_nominal_read_develops(self, engine):
        r = engine.read(np.zeros((1, 6)))
        assert r.event_found[0]
        assert r.converged[0]
        assert 1e-12 < r.metric[0] < 1e-9

    def test_weak_passgate_slows(self, engine):
        base = engine.read(np.zeros((1, 6))).metric[0]
        dv = np.zeros((1, 6))
        dv[0, 2] = 0.12  # +0.12 V on left pass gate
        assert engine.read(dv).metric[0] > 1.3 * base

    def test_vectorised_matches_individual(self, engine):
        rng = np.random.default_rng(7)
        dv = rng.normal(0, 0.03, size=(5, 6))
        together = engine.read(dv).metric
        separate = np.array([engine.read(dv[i : i + 1]).metric[0] for i in range(5)])
        np.testing.assert_allclose(together, separate, rtol=1e-10)

    def test_shared_nmos_shift_slows_read(self, engine):
        # +40 mV on every NMOS (a slow global NMOS corner) slows the read;
        # the same shift on both pull-ups barely moves it.
        nmos = [1, 2, 4, 5]  # columns of CELL_DEVICE_ORDER
        dv = np.zeros((3, 6))
        dv[1, nmos] = 0.04
        dv[2, [0, 3]] = 0.04
        base, slow, pmos = engine.read(dv).metric
        assert slow > 1.1 * base
        assert abs(pmos - base) < 0.01 * base

    def test_chunking_equivalence(self):
        rng = np.random.default_rng(8)
        dv = rng.normal(0, 0.03, size=(30, 6))
        big = Batched6T(n_steps=300, chunk_size=1000).read(dv).metric
        small = Batched6T(n_steps=300, chunk_size=7).read(dv).metric
        np.testing.assert_allclose(big, small, rtol=1e-10)

    def test_disturb_peak_positive(self, engine):
        peaks = engine.read_disturb_peaks(np.zeros((1, 6)))
        assert 0.0 < peaks[0] < 0.45

    def test_disturb_grows_with_weak_pulldown(self, engine):
        base = engine.read_disturb_peaks(np.zeros((1, 6)))[0]
        dv = np.zeros((1, 6))
        dv[0, 1] = 0.15  # weaken left pull-down
        assert engine.read_disturb_peaks(dv)[0] > base

    def test_simulation_counter(self, engine):
        before = engine.n_simulations
        engine.read(np.zeros((4, 6)))
        assert engine.n_simulations == before + 4


class TestWriteOperation:
    def test_nominal_write_flips(self, engine):
        r = engine.write(np.zeros((1, 6)))
        assert r.event_found[0]
        assert r.aux["q_final"][0] < 0.1
        assert r.aux["qb_final"][0] > 0.9

    def test_strong_pullup_slows_write(self, engine):
        base = engine.write(np.zeros((1, 6))).metric[0]
        dv = np.zeros((1, 6))
        dv[0, 0] = -0.12  # stronger left pull-up fights the write
        assert engine.write(dv).metric[0] > base

    def test_extreme_skew_write_failure_penalised(self, engine):
        dv = np.zeros((1, 6))
        dv[0, 2] = 0.5   # pass gate nearly dead
        dv[0, 0] = -0.3  # pull-up very strong
        r = engine.write(dv)
        assert not r.event_found[0]
        assert r.metric[0] > engine.timing.t_stop - 1e-9


class TestValidation:
    def test_wrong_vth_shape_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.read(np.zeros((2, 5)))

    def test_mismatched_beta_shape_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.read(np.zeros((2, 6)), np.ones((3, 6)))

    @pytest.mark.parametrize("kernel", ["fast", "reference"])
    @pytest.mark.parametrize("mode", ["read", "write"])
    def test_empty_batch_rejected(self, kernel, mode):
        eng = Batched6T(n_steps=60, kernel=kernel)
        with pytest.raises(SimulationError, match="batch size"):
            getattr(eng, mode)(np.zeros((0, 6)))

    def test_beta_variation_changes_metric(self, engine):
        base = engine.read(np.zeros((1, 6))).metric[0]
        bmult = np.ones((1, 6))
        bmult[0, 2] = 0.7  # weaker pass gate current factor
        slow = engine.read(np.zeros((1, 6)), bmult).metric[0]
        assert slow > base


class TestGridAndDesign:
    def test_metric_stable_under_grid_refinement(self):
        dv = np.zeros((1, 6))
        coarse = Batched6T(n_steps=300).read(dv).metric[0]
        fine = Batched6T(n_steps=900).read(dv).metric[0]
        assert coarse == pytest.approx(fine, rel=0.02)

    def test_larger_cell_reads_faster(self):
        small = Batched6T(n_steps=300).read(np.zeros((1, 6))).metric[0]
        big_design = CellDesign().scaled(1.5)
        big = Batched6T(design=big_design, n_steps=300).read(np.zeros((1, 6))).metric[0]
        assert big < small

    def test_lower_vdd_reads_slower(self):
        v10 = Batched6T(vdd=1.0, n_steps=300).read(np.zeros((1, 6))).metric[0]
        v07 = Batched6T(vdd=0.7, n_steps=300).read(np.zeros((1, 6))).metric[0]
        assert v07 > 1.5 * v10

    def test_bigger_bitline_cap_slower(self):
        c10 = Batched6T(cbl=10e-15, n_steps=300).read(np.zeros((1, 6))).metric[0]
        c30 = Batched6T(cbl=30e-15, n_steps=300).read(np.zeros((1, 6))).metric[0]
        assert c30 > 2.0 * c10
