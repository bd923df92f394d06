"""VariationSpace mapping tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetlistError
from repro.sram.cell import CELL_DEVICE_ORDER, build_cell
from repro.variation.space import DeviceAxis, VariationSpace


def two_axis_space():
    return VariationSpace(
        [DeviceAxis("m1", "vth", 0.03), DeviceAxis("m2", "beta", 0.05)]
    )


class TestDeviceAxis:
    def test_label(self):
        assert DeviceAxis("m1", "vth", 0.03).label == "m1.vth"

    def test_bad_kind_rejected(self):
        with pytest.raises(NetlistError):
            DeviceAxis("m1", "length", 0.03)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(NetlistError):
            DeviceAxis("m1", "vth", 0.0)


class TestSpace:
    def test_dim_and_labels(self):
        s = two_axis_space()
        assert s.dim == 2
        assert s.labels == ["m1.vth", "m2.beta"]

    def test_duplicate_axes_rejected(self):
        with pytest.raises(NetlistError):
            VariationSpace([DeviceAxis("m1", "vth", 0.03)] * 2)

    def test_empty_rejected(self):
        with pytest.raises(NetlistError):
            VariationSpace([])

    def test_to_physical_scaling(self):
        s = two_axis_space()
        phys = s.to_physical(np.array([2.0, -1.0]))
        assert phys["m1"]["delta_vth"] == pytest.approx(0.06)
        assert phys["m1"]["beta_mult"] == 1.0
        assert phys["m2"]["beta_mult"] == pytest.approx(0.95)

    def test_wrong_shape_rejected(self):
        with pytest.raises(NetlistError):
            two_axis_space().to_physical(np.zeros(3))

    def test_sigma_vector(self):
        np.testing.assert_allclose(two_axis_space().sigma_vector(), [0.03, 0.05])


class TestApplyToCircuit:
    def test_apply_and_reset(self):
        circuit = build_cell()
        space = VariationSpace.from_mosfets(circuit)
        u = np.linspace(-2, 2, space.dim)
        space.apply(circuit, u)
        shifted = [m.delta_vth for m in circuit.mosfets()]
        assert any(abs(v) > 1e-4 for v in shifted)
        space.reset(circuit)
        assert all(m.delta_vth == 0.0 for m in circuit.mosfets())
        assert all(m.beta_mult == 1.0 for m in circuit.mosfets())

    def test_apply_sets_beta_mult(self):
        circuit = build_cell()
        space = VariationSpace.from_mosfets(circuit, include_beta=True)
        k = space.labels.index("m_pd_l.beta")
        u = np.zeros(space.dim)
        u[k] = -2.0
        space.apply(circuit, u)
        assert circuit["m_pd_l"].beta_mult == pytest.approx(1.0 - 2.0 * space.axes[k].sigma)
        assert circuit["m_pd_l"].delta_vth == 0.0
        assert all(m.beta_mult == 1.0 for m in circuit.mosfets() if m.name != "m_pd_l")

    def test_from_mosfets_dim(self):
        circuit = build_cell()
        assert VariationSpace.from_mosfets(circuit).dim == 6
        assert VariationSpace.from_mosfets(circuit, include_beta=True).dim == 12


class TestBatchMatrices:
    def test_vth_matrix_layout(self):
        circuit = build_cell()
        space = VariationSpace.from_mosfets(circuit)
        u = np.zeros((3, 6))
        u[1, 2] = 2.0  # third axis = m_pg_l
        mat = space.vth_matrix(u, CELL_DEVICE_ORDER)
        assert mat.shape == (3, 6)
        col = list(CELL_DEVICE_ORDER).index("m_pg_l")
        assert mat[1, col] == pytest.approx(2.0 * space.axes[2].sigma)
        assert np.count_nonzero(mat) == 1

    def test_beta_matrix_defaults_to_one(self):
        circuit = build_cell()
        space = VariationSpace.from_mosfets(circuit)  # vth only
        mat = space.beta_matrix(np.ones((2, 6)), CELL_DEVICE_ORDER)
        np.testing.assert_allclose(mat, 1.0)

    def test_vth_matrix_matches_to_physical(self):
        # Every axis moved at once: each device column carries its own shift.
        space = VariationSpace.from_mosfets(build_cell())
        u = np.random.default_rng(0).normal(size=space.dim)
        mat = space.vth_matrix(u[None, :], CELL_DEVICE_ORDER)
        phys = space.to_physical(u)
        for j, name in enumerate(CELL_DEVICE_ORDER):
            assert mat[0, j] == pytest.approx(phys[name]["delta_vth"])

    def test_beta_matrix_multiplicative(self):
        space = VariationSpace.from_mosfets(build_cell(), include_beta=True)
        k = space.labels.index("m_pd_l.beta")
        u = np.zeros((1, space.dim))
        u[0, k] = 1.0
        mat = space.beta_matrix(u, CELL_DEVICE_ORDER)
        cols = {n: j for j, n in enumerate(CELL_DEVICE_ORDER)}
        assert mat[0, cols["m_pd_l"]] == pytest.approx(1.0 + space.axes[k].sigma)
        assert mat[0, cols["m_pu_l"]] == 1.0
        np.testing.assert_allclose(space.vth_matrix(u, CELL_DEVICE_ORDER), 0.0)

    def test_wrong_batch_width_rejected(self):
        circuit = build_cell()
        space = VariationSpace.from_mosfets(circuit)
        with pytest.raises(NetlistError):
            space.vth_matrix(np.zeros((2, 5)), CELL_DEVICE_ORDER)

    @given(st.integers(min_value=0, max_value=5), st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_consistency(self, axis_idx, value):
        # vth_matrix must agree with to_physical for any single-axis u.
        circuit = build_cell()
        space = VariationSpace.from_mosfets(circuit)
        u = np.zeros(6)
        u[axis_idx] = value
        phys = space.to_physical(u)
        mat = space.vth_matrix(u[None, :], CELL_DEVICE_ORDER)
        device = space.axes[axis_idx].device
        col = list(CELL_DEVICE_ORDER).index(device)
        assert mat[0, col] == pytest.approx(phys[device]["delta_vth"])
