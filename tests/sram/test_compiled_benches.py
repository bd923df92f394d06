"""Compiled batched entry points vs their scalar references.

Two rungs per bench, mirroring the structure of ``tests/sram/test_kernel.py``:

* **fast vs reference compiled kernel** — same grid, same scheme, only the
  device-evaluation/solver implementation differs: pinned at the PR 2
  tolerance ladder (~1e-9 relative nominal, 1e-6 at sigma-scaled corners);
* **compiled vs scalar adaptive engine** — different integrators (fixed
  backward Euler vs adaptive), so the budget is the cross-validation
  class: decisions must agree exactly, continuous values to a few
  percent (the same budget ``tests/test_cross_validation.py`` enforces
  between ``Batched6T`` and the scalar testbenches).
"""

import numpy as np
import pytest

from repro.sram.column import ColumnConfig, ReadColumn
from repro.sram.senseamp import SA_DEVICE_ORDER, SenseAmp

#: Compiled-vs-adaptive-integrator agreement budget (cross-validation class).
XVAL_REL = 0.25


def sa_dict(row):
    return {name: float(row[j]) for j, name in enumerate(SA_DEVICE_ORDER)}


class TestSenseAmpResolveBatch:
    @pytest.fixture(scope="class")
    def sense(self):
        return SenseAmp()

    def test_fast_vs_reference_nominal_ladder(self, sense):
        rng = np.random.default_rng(0)
        dvt = rng.normal(0.0, 0.02, size=(48, 4))
        dv = rng.uniform(-0.15, 0.15, size=48)
        c_f, t_f = sense.resolve_batch(dv, dvt, kernel="fast")
        c_r, t_r = sense.resolve_batch(dv, dvt, kernel="reference")
        np.testing.assert_array_equal(c_f, c_r)
        ok = np.isfinite(t_r)
        np.testing.assert_array_equal(np.isfinite(t_f), ok)
        np.testing.assert_allclose(t_f[ok], t_r[ok], rtol=1e-9)

    def test_fast_vs_reference_corner_ladder(self, sense):
        """Sigma-scaled corners: |dVth| pushed far past the Pelgrom sigma."""
        rng = np.random.default_rng(1)
        dvt = rng.normal(0.0, 0.02, size=(24, 4)) * 4.0
        dvt[0] = [0.12, -0.12, -0.12, 0.12]
        dvt[1] = [-0.15, 0.15, 0.15, -0.15]
        dv = rng.uniform(-0.2, 0.2, size=24)
        c_f, t_f = sense.resolve_batch(dv, dvt, kernel="fast")
        c_r, t_r = sense.resolve_batch(dv, dvt, kernel="reference")
        np.testing.assert_array_equal(c_f, c_r)
        ok = np.isfinite(t_r)
        np.testing.assert_allclose(t_f[ok], t_r[ok], rtol=1e-6)

    def test_compiled_vs_scalar_decisions_and_times(self, sense):
        rng = np.random.default_rng(2)
        dvt = rng.normal(0.0, 0.02, size=(6, 4))
        dv = np.array([0.08, -0.08, 0.15, 0.03, -0.02, 0.12])
        c_b, t_b = sense.resolve_batch(dv, dvt)
        for i in range(dv.size):
            c_s, t_s = sense.resolve(float(dv[i]), sa_dict(dvt[i]))
            assert bool(c_b[i]) == c_s
            if np.isfinite(t_s):
                assert t_b[i] == pytest.approx(t_s, rel=XVAL_REL)

    def test_dv_sign_conventions_match_scalar_ic(self, sense):
        """Negative pre-sets start the other side low, as in the scalar path."""
        c_pos, _ = sense.resolve_batch(np.array([0.1]))
        c_neg, _ = sense.resolve_batch(np.array([-0.1]))
        assert bool(c_pos[0]) and not bool(c_neg[0])


class TestSenseAmpOffsetBatch:
    @pytest.fixture(scope="class")
    def sense(self):
        return SenseAmp()

    def test_offset_batch_matches_scalar_bisection(self, sense):
        rng = np.random.default_rng(3)
        dvt = rng.normal(0.0, 0.02, size=(5, 4))
        batch = sense.offset_batch(dvt)
        for i in range(5):
            scalar = sense.offset(sa_dict(dvt[i]))
            # Identical bisection ladder; decisions can only differ inside
            # the integrator-disagreement band around the flip point, so
            # the results match to a few bisection quanta.
            assert batch[i] == pytest.approx(scalar, abs=5e-3)

    def test_offset_tracks_linear_model(self, sense):
        """The first-order model was validated against the scalar
        bisection; the batched bisection must stay on the same line."""
        rng = np.random.default_rng(4)
        u = rng.normal(0.0, 1.5, size=(16, 4))
        sig = sense.design.vth_sigmas()
        batch = sense.offset_batch(u * sig)
        linear = sense.offset_linear(u)
        np.testing.assert_allclose(batch, linear, atol=8e-3)

    def test_out_of_range_sample_raises(self, sense):
        from repro.errors import MeasurementError

        dvt = np.zeros((2, 4))
        dvt[1] = [0.5, 0.0, -0.5, 0.0]  # absurd mismatch: offset >> dv_max
        with pytest.raises(MeasurementError, match="cannot resolve"):
            sense.offset_batch(dvt, dv_max=0.1)

    def test_out_of_range_sample_saturates(self, sense):
        """A deep-tail sample saturates to +inf instead of killing the
        batch, and the resolvable samples are untouched by its presence."""
        rng = np.random.default_rng(20)
        good = rng.normal(0.0, 0.02, size=(4, 4))
        mixed = np.vstack([good[:2], [[0.5, 0.0, -0.5, 0.0]], good[2:]])
        out = sense.offset_batch(mixed, dv_max=0.1, on_unresolvable="saturate")
        assert np.isposinf(out[2])
        clean = sense.offset_batch(good, dv_max=0.1, on_unresolvable="saturate")
        np.testing.assert_array_equal(out[[0, 1, 3, 4]], clean)

    def test_scalar_offset_still_raises(self, sense):
        from repro.errors import MeasurementError

        with pytest.raises(MeasurementError, match="cannot resolve"):
            sense.offset(sa_dict(np.array([0.5, 0.0, -0.5, 0.0])), dv_max=0.1)

    def test_bad_on_unresolvable_rejected(self, sense):
        from repro.errors import MeasurementError

        with pytest.raises(MeasurementError, match="on_unresolvable"):
            sense.offset_batch(np.zeros((2, 4)), on_unresolvable="ignore")

    def test_mixed_dict_sizes_rejected(self, sense):
        """Per-device arrays that disagree on n must error loudly, not
        silently broadcast to the largest size."""
        from repro.errors import MeasurementError

        with pytest.raises(MeasurementError, match="disagree"):
            sense.offset_batch(
                {"m_sn_l": np.zeros(3), "m_sn_r": np.zeros(5)}
            )

    def test_scalar_in_dict_still_broadcasts(self, sense):
        out = sense.offset_batch(
            {"m_sn_l": 0.02, "m_sn_r": np.full(3, -0.02)}
        )
        assert out.shape == (3,)
        np.testing.assert_allclose(out, out[0])


class TestReadColumnBatch:
    @pytest.fixture(scope="class")
    def column(self):
        # A short column keeps the blocked-elimination node count (10)
        # while the adversarial leakage physics stays intact.
        return ReadColumn(config=ColumnConfig(n_leakers=3))

    def test_fast_vs_reference_ladder(self, column):
        rng = np.random.default_rng(5)
        dvth = rng.normal(0.0, 0.03, size=(12, 6))
        d_f = column.differential_at_wl_fall_batch(dvth, n_steps=200, kernel="fast")
        d_r = column.differential_at_wl_fall_batch(dvth, n_steps=200, kernel="reference")
        np.testing.assert_allclose(d_f, d_r, rtol=1e-9)

    def test_fast_vs_reference_corner_ladder(self, column):
        rng = np.random.default_rng(6)
        dvth = rng.normal(0.0, 0.03, size=(8, 6)) * 4.0
        dvth[0] = [0.55, -0.55, 0.55, -0.55, 0.55, -0.55]
        d_f = column.differential_at_wl_fall_batch(dvth, n_steps=200, kernel="fast")
        d_r = column.differential_at_wl_fall_batch(dvth, n_steps=200, kernel="reference")
        np.testing.assert_allclose(d_f, d_r, rtol=1e-6)

    def test_compiled_vs_scalar(self, column):
        rng = np.random.default_rng(7)
        dvth = rng.normal(0.0, 0.03, size=(3, 6))
        batch = column.differential_at_wl_fall_batch(dvth)
        names = column.accessed_device_names()
        for i in range(3):
            scalar = column.differential_at_wl_fall(
                {n: float(dvth[i, j]) for j, n in enumerate(names)}
            )
            assert batch[i] == pytest.approx(scalar, rel=0.02)

    def test_access_times_vs_scalar(self, column):
        """Bulk access times against the scalar column testbench
        (adaptive integrator): cross-validation budget."""
        rng = np.random.default_rng(21)
        dvth = np.zeros((3, 24))
        dvth[:, :6] = rng.normal(0.0, 0.03, size=(3, 6))
        batch = column.access_times_batch(dvth, n_steps=400)
        names = column.accessed_device_names()
        for i in range(3):
            scalar = column.access_sample(
                {n: float(dvth[i, j]) for j, n in enumerate(names)}
            )
            assert batch[i] == pytest.approx(scalar.value, rel=XVAL_REL)

    def test_leaker_variation_matters(self, column):
        """A strongly leaking pass gate on an unaccessed cell must slow
        the read — the axis the bulk entry point exists to expose."""
        nominal = column.access_times_batch(np.zeros((1, 24)), n_steps=200)[0]
        dvth = np.zeros((1, 24))
        # Leaker 0's BLB-side pass gate: much lower Vth leaks BLB harder.
        names = column.all_device_names()
        dvth[0, names.index("m_pg_r_l0")] = -0.35
        leaky = column.access_times_batch(dvth, n_steps=200)[0]
        assert leaky > nominal

    def test_access_times_bad_matrix_shape(self, column):
        with pytest.raises(ValueError, match="delta_vth matrix shape"):
            column.access_times_batch(np.zeros((4, 6)), n_steps=160)

    def test_leakage_erodes_differential(self, column):
        """Physics check on the compiled path: more adversarial leakers
        must erode the wl-fall differential."""
        long_col = ReadColumn(config=ColumnConfig(n_leakers=8))
        dvth = np.zeros((1, 6))
        short = column.differential_at_wl_fall_batch(dvth, n_steps=200)[0]
        long_ = long_col.differential_at_wl_fall_batch(dvth, n_steps=200)[0]
        assert long_ < short
