"""Column testbench tests: loading, leakage, data-pattern dependence."""

import numpy as np
import pytest

from repro.sram.column import CBL_PER_CELL, CBL_WIRE, ColumnConfig, ReadColumn
from repro.sram.testbench import OperationTiming

#: Short wordline pulse keeps these full-MNA transients affordable.
FAST = OperationTiming(wl_width=1.0e-9, t_hold=0.2e-9)


@pytest.fixture(scope="module")
def small_column():
    return ReadColumn(config=ColumnConfig(n_leakers=3), timing=FAST)


class TestConfig:
    def test_cap_estimate_scales_with_cells(self):
        c0 = ColumnConfig(n_leakers=0).bitline_cap()
        c15 = ColumnConfig(n_leakers=15).bitline_cap()
        assert c15 == pytest.approx(c0 + 15 * CBL_PER_CELL)
        assert c0 == pytest.approx(CBL_WIRE + CBL_PER_CELL)

    def test_explicit_cap_wins(self):
        assert ColumnConfig(cbl=5e-15).bitline_cap() == 5e-15

    def test_bad_data_pattern_rejected(self):
        with pytest.raises(ValueError):
            ReadColumn(config=ColumnConfig(leaker_data="random"), timing=FAST)


class TestStructure:
    def test_device_count(self, small_column):
        assert len(small_column.circuit.mosfets()) == 6 * 4  # accessed + 3 leakers

    def test_accessed_device_names(self, small_column):
        names = small_column.accessed_device_names()
        assert names[0] == "m_pu_l_a"
        assert all(n.endswith("_a") for n in names)


class TestReadBehaviour:
    def test_nominal_read_succeeds(self, small_column):
        sample = small_column.access_sample()
        assert sample.event_found
        assert 1e-12 < sample.value < 2e-9

    def test_leakers_hold_state(self, small_column):
        res = small_column.simulate()
        # Adversarial leakers store q=1; they must still hold it at the end.
        assert res.final_voltage("q_l0") > 0.9
        assert res.final_voltage("qb_l0") < 0.1

    def test_adversarial_pattern_erodes_differential(self):
        adv = ReadColumn(config=ColumnConfig(n_leakers=6, leaker_data="adversarial",
                                             cbl=4e-15), timing=FAST)
        frnd = ReadColumn(config=ColumnConfig(n_leakers=6, leaker_data="friendly",
                                              cbl=4e-15), timing=FAST)
        assert adv.differential_at_wl_fall() < frnd.differential_at_wl_fall()

    def test_weak_passgate_slows_column_read(self, small_column):
        nominal = small_column.access_sample().value
        slow = small_column.access_sample({"m_pg_l_a": 0.1}).value
        assert slow > 1.2 * nominal

    def test_variation_restored_after_run(self, small_column):
        small_column.access_sample({"m_pg_l_a": 0.1})
        assert small_column.circuit["m_pg_l_a"].delta_vth == 0.0

    def test_nonconverged_counter(self):
        """Compiled batches count samples with a non-converged Newton
        step; the 16-cell column at 120 steps has a few."""
        column = ReadColumn(config=ColumnConfig(n_leakers=15))
        assert column.n_nonconverged == 0
        dvth = np.random.default_rng(0).normal(0.0, 0.03, size=(64, 96))
        column.access_times_batch(dvth, n_steps=120)
        assert 0 < column.n_nonconverged < 64
        before = column.n_nonconverged
        column.access_times_batch(dvth, n_steps=300)
        assert column.n_nonconverged == before

    def test_simulation_counter(self, small_column):
        before = small_column.n_simulations
        small_column.simulate()
        assert small_column.n_simulations == before + 1
