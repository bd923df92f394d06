"""6T kernels: fast vs reference, the recorded hand-written loop, solve4
and the small-batch LAPACK solve, metrics recorded before the terminal
matmul, and retirement (on the 6T and on the column and array access
runs)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sram.array import ArrayConfig, ArraySlice
from repro.sram.batched import Batched6T
from repro.sram.column import ColumnConfig, ReadColumn
from repro.spice.compile import (
    _UNROLLED_MIN_BATCH,
    CompiledTransient,
    solve4,
    solve_lapack,
)

N_STEPS = 300


@pytest.fixture(scope="module")
def engines():
    return {
        "reference": Batched6T(n_steps=N_STEPS, kernel="reference"),
        "fast": Batched6T(n_steps=N_STEPS, kernel="fast", retire=False),
    }


def nominal_batch(rng, n=64, sigma=0.03):
    dvth = rng.normal(0.0, sigma, size=(n, 6))
    bmult = 1.0 + rng.normal(0.0, 0.05, size=(n, 6))
    return dvth, bmult


def sss_corner_batch(rng, n=32):
    """Sigma-scaled corners as SSS visits them: |delta vth| pushed past 0.5 V."""
    dvth = rng.normal(0.0, 0.03, size=(n, 6)) * 4.0
    dvth[0] = [0.55, -0.55, 0.55, -0.55, 0.55, -0.55]
    dvth[1] = [-0.6, 0.6, -0.6, 0.6, -0.6, 0.6]
    bmult = 1.0 + rng.normal(0.0, 0.05, size=(n, 6))
    return dvth, bmult


class TestSolve4:
    def test_matches_lapack_on_random_stacks(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(200, 4, 4)) + 4.0 * np.eye(4)
        b = rng.normal(size=(200, 4))
        ref = np.linalg.solve(a, b[..., None])[..., 0]
        x = solve4(
            np.ascontiguousarray(a.transpose(1, 2, 0)),
            np.ascontiguousarray(b.T),
        )
        np.testing.assert_allclose(x.T, ref, rtol=1e-10, atol=1e-12)

    def test_pivot_guard_falls_back_to_lapack(self):
        # A matrix whose (0, 0) pivot vanishes: the natural-order
        # elimination is invalid and the guard must reroute the sample
        # through the row-pivoted solver.
        a = np.array([[0.0, 1.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0]])
        b = np.array([1.0, 2.0, 3.0, 4.0])
        stack_a = np.repeat(a[:, :, None], 3, axis=2)
        stack_b = np.repeat(b[:, None], 3, axis=1)
        x = solve4(stack_a, stack_b)
        np.testing.assert_allclose(x[:, 0], [2.0, 1.0, 3.0, 4.0], rtol=1e-12)

    def test_inputs_not_mutated(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4, 8)) + 4.0 * np.eye(4)[:, :, None]
        b = rng.normal(size=(4, 8))
        a0, b0 = a.copy(), b.copy()
        solve4(a, b)
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)


class TestSolveLapack:
    """The fused path's solve below ``_UNROLLED_MIN_BATCH`` samples."""

    @pytest.mark.parametrize("width", [1, 13, _UNROLLED_MIN_BATCH - 1])
    def test_bit_equal_to_numpy_solve(self, width):
        rng = np.random.default_rng(width)
        a = rng.normal(size=(width, 4, 4)) + 4.0 * np.eye(4)
        b = rng.normal(size=(width, 4))
        want = np.linalg.solve(a, b[..., None])[..., 0]
        x = solve_lapack(
            np.ascontiguousarray(a.transpose(1, 2, 0)),
            np.ascontiguousarray(b.T),
        )
        np.testing.assert_array_equal(x.T, want)

    def test_singular_stack_raises(self):
        # LAPACK refuses the stack; the solveN fallback re-solves the
        # guarded sample through LAPACK and raises as it always has.
        a = np.repeat((np.eye(4) + 1.0)[:, :, None], 3, axis=2)
        a[:, :, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            solve_lapack(a, np.ones((4, 3)))


class TestFastVsReference:
    @pytest.mark.parametrize("mode", ["read", "write"])
    def test_nominal_agreement(self, engines, mode):
        rng = np.random.default_rng(7)
        dvth, bmult = nominal_batch(rng)
        r_ref = getattr(engines["reference"], mode)(dvth, bmult)
        r_fast = getattr(engines["fast"], mode)(dvth, bmult)
        np.testing.assert_allclose(r_fast.metric, r_ref.metric, rtol=1e-9)
        np.testing.assert_array_equal(r_fast.event_found, r_ref.event_found)
        np.testing.assert_array_equal(r_fast.converged, r_ref.converged)
        for key in r_ref.aux:
            np.testing.assert_allclose(
                r_fast.aux[key], r_ref.aux[key], rtol=1e-9, atol=1e-12
            )

    @pytest.mark.parametrize("mode", ["read", "write"])
    def test_sss_scale_corner_agreement(self, mode):
        """|delta vth| > 0.5 V corners, where damped Newton works hardest.

        A few such samples legitimately exhaust the Newton budget (in
        both kernels), so the engines run with a loose fail-fraction
        guard and the comparison is pinned on the samples both kernels
        converged — plus agreement of the convergence flags themselves.
        """
        rng = np.random.default_rng(11)
        dvth, bmult = sss_corner_batch(rng)
        ref = Batched6T(n_steps=N_STEPS, kernel="reference", max_fail_fraction=0.2)
        fast = Batched6T(
            n_steps=N_STEPS, kernel="fast", retire=False, max_fail_fraction=0.2
        )
        r_ref = getattr(ref, mode)(dvth, bmult)
        r_fast = getattr(fast, mode)(dvth, bmult)
        np.testing.assert_array_equal(r_fast.converged, r_ref.converged)
        np.testing.assert_array_equal(r_fast.event_found, r_ref.event_found)
        ok = r_ref.converged
        assert ok.mean() > 0.9
        np.testing.assert_allclose(r_fast.metric[ok], r_ref.metric[ok], rtol=1e-6)

    def test_per_sample_dv_spec_agreement(self, engines):
        rng = np.random.default_rng(3)
        dvth, bmult = nominal_batch(rng, n=16)
        dv = rng.uniform(0.08, 0.2, size=16)
        r_ref = engines["reference"].read(dvth, bmult, dv_spec=dv)
        r_fast = engines["fast"].read(dvth, bmult, dv_spec=dv)
        np.testing.assert_allclose(r_fast.metric, r_ref.metric, rtol=1e-9)

    @pytest.mark.parametrize("mode", ["read", "write"])
    def test_simulation_counters_match(self, mode):
        ref = Batched6T(n_steps=N_STEPS, kernel="reference")
        fast = Batched6T(n_steps=N_STEPS, kernel="fast")
        dvth = np.zeros((5, 6))
        getattr(ref, mode)(dvth)
        getattr(fast, mode)(dvth)
        assert ref.n_simulations == fast.n_simulations == 5

    def test_invalid_kernel_rejected(self):
        with pytest.raises(SimulationError):
            Batched6T(kernel="turbo")


#: ``Batched6T(n_steps=300, kernel="reference")`` metrics (seconds, as
#: ``float.hex``) from the hand-written per-device Newton loop.
HAND_WRITTEN_METRICS = {
    "read": (
        "0x1.1d6cc7a81ca10p-35", "0x1.10a31d90083c0p-35", "0x1.0d7a151821fb8p-35",
        "0x1.dce32e47bc1f0p-36", "0x1.d0a9d269ad980p-36", "0x1.088e9d657b020p-35",
        "0x1.1046ed02c69a8p-35", "0x1.369991cd39c50p-35", "0x1.36ab6291d9020p-35",
        "0x1.1f4591a8f8a78p-35", "0x1.107abae6d6180p-35", "0x1.0b30cae4e8ae8p-35",
        "0x1.3b9215a820538p-35", "0x1.15934d287a698p-35", "0x1.0ecfc9d2ff868p-35",
        "0x1.0db36fd6c8b38p-35",
    ),
    "write": (
        "0x1.df22eeff341d0p-36", "0x1.df7d259bfe370p-36", "0x1.e1624ee4630b0p-36",
        "0x1.da00f878ec360p-36", "0x1.ce9b80952ade0p-36", "0x1.c934b3b11b580p-36",
        "0x1.cf93976f341c0p-36", "0x1.e0395dd347270p-36", "0x1.ddc520f184ee0p-36",
        "0x1.e67b7331de5f0p-36", "0x1.cd705fb9dc620p-36", "0x1.b697e345c08d0p-36",
        "0x1.fbba8457beb40p-36", "0x1.d63f2920c2d80p-36", "0x1.e0d28c09cd2f0p-36",
        "0x1.f81e5a716fec0p-36",
    ),
}


class TestHandWrittenLoopRecord:
    """The compiled reference kernel reproduces the loop it replaced.

    Until commit 65505e1, ``Batched6T(kernel="reference")`` integrated
    through its own per-device Newton loop; it now runs the compiler's
    reference path.  :data:`HAND_WRITTEN_METRICS` was recorded from that
    loop with::

        dvth, bmult = nominal_batch(np.random.default_rng(7), n=16)
        for mode in ("read", "write"):
            engine = Batched6T(n_steps=300, kernel="reference")
            result = getattr(engine, mode)(dvth, bmult)
            print(mode, [float(x).hex() for x in result.metric])

    (every sample converged and found its crossing).
    """

    @pytest.mark.parametrize("mode", ["read", "write"])
    def test_reference_kernel_matches_record(self, engines, mode):
        dvth, bmult = nominal_batch(np.random.default_rng(7), n=16)
        r = getattr(engines["reference"], mode)(dvth, bmult)
        assert r.converged.all()
        assert r.event_found.all()
        expected = np.array([float.fromhex(h) for h in HAND_WRITTEN_METRICS[mode]])
        np.testing.assert_allclose(r.metric, expected, rtol=1e-12, atol=0.0)


#: ``read_access_times`` / ``write_trip_times`` of a fixed input, recorded
#: before the device evaluation took its terminal differences from one
#: matmul and small calls solved through LAPACK (see the file's note).
PARENT_METRICS = json.loads(
    (Path(__file__).parent / "data" / "batched6t_metrics.json").read_text()
)


class TestRecordedMetrics:
    """The terminal matmul and the stacked forward/reverse pass are exact,
    so a call at or above ``_UNROLLED_MIN_BATCH`` rows is bit-equal to the
    recording; a 13-row call solves through LAPACK and stays within
    1e-10 of the unrolled solve's recording."""

    @pytest.mark.parametrize("view", ["read_access_times", "write_trip_times"])
    @pytest.mark.parametrize("n", [256, 13])
    def test_metric_views_match_record(self, view, n):
        dvth, bmult = nominal_batch(np.random.default_rng(27), n=256)
        eng = Batched6T(n_steps=200, kernel="fast")
        got = getattr(eng, view)(dvth[:n], bmult[:n])
        want = np.array([float.fromhex(h) for h in PARENT_METRICS[f"{view}_{n}"]])
        if n >= _UNROLLED_MIN_BATCH:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


class TestRetirement:
    def test_metric_identity_read(self):
        """Retirement must not change the metric: the crossing is recorded
        before a sample retires and the penalty branch never retires."""
        rng = np.random.default_rng(5)
        dvth, bmult = nominal_batch(rng, n=128)
        # Mix in hopeless samples (no crossing) so both branches are hit.
        dvth[:8] += 0.4
        on = Batched6T(n_steps=N_STEPS, kernel="fast", retire=True)
        off = Batched6T(n_steps=N_STEPS, kernel="fast", retire=False)
        r_on = on.read(dvth, bmult)
        r_off = off.read(dvth, bmult)
        np.testing.assert_allclose(r_on.metric, r_off.metric, rtol=1e-7, atol=1e-15)
        np.testing.assert_array_equal(r_on.event_found, r_off.event_found)

    def test_disturb_peak_identity(self):
        """q_peak is settled once the wordline falls — retirement must not
        change the read-disturb metric either."""
        rng = np.random.default_rng(6)
        dvth, bmult = nominal_batch(rng, n=96)
        on = Batched6T(n_steps=N_STEPS, kernel="fast", retire=True)
        off = Batched6T(n_steps=N_STEPS, kernel="fast", retire=False)
        np.testing.assert_allclose(
            on.read(dvth, bmult).aux["q_peak"],
            off.read(dvth, bmult).aux["q_peak"],
            rtol=1e-9,
            atol=1e-15,
        )

    def test_write_mode_unaffected(self):
        rng = np.random.default_rng(8)
        dvth, bmult = nominal_batch(rng, n=32)
        on = Batched6T(n_steps=N_STEPS, kernel="fast", retire=True)
        off = Batched6T(n_steps=N_STEPS, kernel="fast", retire=False)
        r_on = on.write(dvth, bmult)
        r_off = off.write(dvth, bmult)
        np.testing.assert_array_equal(r_on.metric, r_off.metric)
        assert on.n_sample_steps == off.n_sample_steps

    def test_per_step_cost_tracks_active_samples(self):
        """Regression: the per-step cost must shrink with the retired
        fraction — a batch that crosses early must integrate measurably
        fewer sample-steps than its retirement-off twin, while a batch
        that never crosses saves nothing."""
        n = 128
        crossing = np.zeros((n, 6))  # nominal cells cross early
        stuck = np.zeros((n, 6))  # dead pass gates: bitline never moves
        stuck[:, 2] = stuck[:, 5] = 0.8
        on = Batched6T(n_steps=N_STEPS, kernel="fast", retire=True)
        off = Batched6T(n_steps=N_STEPS, kernel="fast", retire=False)

        on.read(crossing)
        off.read(crossing)
        steps_on, steps_off = on.n_sample_steps, off.n_sample_steps
        assert steps_on < 0.9 * steps_off

        on.n_sample_steps = off.n_sample_steps = 0
        on.read(stuck)
        off.read(stuck)
        assert on.n_sample_steps == off.n_sample_steps

    @pytest.mark.parametrize("n", [1, 8, 15])
    def test_batch_below_min_count_ends_once_all_retire(self, n):
        """A batch smaller than the policy's ``min_count`` never compacts,
        but once every sample has crossed after the wordline fell the run
        ends: fewer sample-steps, with metric and peaks bit-equal."""
        dvth, bmult = nominal_batch(np.random.default_rng(9), n=n)
        on = Batched6T(n_steps=N_STEPS, kernel="fast", retire=True)
        off = Batched6T(n_steps=N_STEPS, kernel="fast", retire=False)
        r_on = on.read(dvth, bmult)
        r_off = off.read(dvth, bmult)
        assert r_on.event_found.all()
        assert on.n_sample_steps < off.n_sample_steps
        np.testing.assert_array_equal(r_on.metric, r_off.metric)
        for key in ("q_peak", "qb_peak"):
            np.testing.assert_array_equal(r_on.aux[key], r_off.aux[key])

    def test_more_retirees_do_not_cost_more_tail_steps(self):
        """Doubling the early-crossing population doubles the pre-
        retirement work but the retired tail stays retired: per-sample
        step counts must not grow with the retired fraction."""
        eng = Batched6T(n_steps=N_STEPS, kernel="fast", retire=True)
        eng.read(np.zeros((64, 6)))
        per_sample_64 = eng.n_sample_steps / 64
        eng.n_sample_steps = 0
        eng.read(np.zeros((128, 6)))
        per_sample_128 = eng.n_sample_steps / 128
        assert per_sample_128 == pytest.approx(per_sample_64, rel=0.02)

    @pytest.mark.parametrize("n, stuck", [
        (1, 0), (15, 2), (16, 2), (128, 8), (_UNROLLED_MIN_BATCH - 1, 8),
        (_UNROLLED_MIN_BATCH, 8), (256, 8),
    ])
    def test_metric_views_retire_at_the_crossing(self, n, stuck, request):
        """The metric-only views retire each sample at its crossing: their
        metrics are bit-equal to a non-retiring engine's, and a batch that
        can retire (every sample crosses, or enough to compact) pays about
        the ~34 steps to the crossing per crossing sample, not the 168 to
        wordline fall (read) or the 200 to ``t_stop`` (write).  Samples
        with dead pass gates never cross, never retire, and keep their
        full-window penalty metric.  The widths either side of
        ``_UNROLLED_MIN_BATCH`` run the LAPACK and the unrolled solve."""
        steps = 200
        rng = np.random.default_rng(20 + n)
        dvth, bmult = nominal_batch(rng, n=n)
        dvth[:stuck, 2] = dvth[:stuck, 5] = 0.8
        dv_spec = rng.uniform(0.08, 0.16, size=n)
        views = {
            "read": lambda e: e.read_access_times(dvth, bmult),
            "system read": lambda e: e.read_access_times(dvth, bmult, dv_spec=dv_spec),
            "write": lambda e: e.write_trip_times(dvth, bmult),
        }
        on = Batched6T(n_steps=steps, kernel="fast", retire=True)
        off = Batched6T(n_steps=steps, kernel="fast", retire=False)
        per_crossing = {}
        for name, view in views.items():
            on.n_sample_steps = 0
            t_on, t_off = view(on), view(off)
            np.testing.assert_array_equal(t_on, t_off, err_msg=name)
            assert (t_on[:stuck] > 1e-9).all()  # the no-crossing penalty
            if stuck == 0 or n - stuck >= 16:
                per_crossing[name] = (on.n_sample_steps - stuck * steps) / (n - stuck)
        if n == 128:
            # Known: late crossers fewer than the policy's min_count keep
            # integrating beside the dead rows to t_stop; the system read
            # pays ~42 steps per crossing here.  Bits hold (asserted above).
            request.applymarker(pytest.mark.xfail(
                strict=True, reason="late crossers beside never-crossing rows",
            ))
        for name, steps_per in per_crossing.items():
            assert steps_per <= 40, name

    @pytest.mark.parametrize("bench", ["column", "array"])
    def test_access_times_retire_at_the_crossing(self, bench, monkeypatch):
        """Column and array access times retire each sample at its
        crossing on the access-only plan: bit-equal to the same plan run
        without retirement, for far fewer sample-steps."""
        if bench == "column":
            obj = ReadColumn(config=ColumnConfig(n_leakers=3))
        else:
            obj = ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=3))
        names = obj.all_device_names()
        rng = np.random.default_rng(31)
        dvth = rng.normal(0.0, 0.03, size=(64, len(names)))
        for dev in obj.accessed_device_names():
            if dev.startswith("m_pg_"):  # dead pass gates: no read at all
                dvth[:4, names.index(dev)] = 0.8

        runs = []
        real_run = CompiledTransient.run

        def recorded(self, *args, **kwargs):
            res = real_run(self, *args, **kwargs)
            runs.append((kwargs.get("retire"), self, res.n_sample_steps))
            return res

        monkeypatch.setattr(CompiledTransient, "run", recorded)
        t_on = obj.access_times_batch(dvth, n_steps=160)

        def without_retirement(self, *args, **kwargs):
            kwargs["retire"] = None
            return recorded(self, *args, **kwargs)

        monkeypatch.setattr(CompiledTransient, "run", without_retirement)
        t_off = obj.access_times_batch(dvth, n_steps=160)

        (retire, plan_on, steps_on), (_, plan_off, steps_off) = runs
        assert retire is not None and plan_on is plan_off
        assert [p.name for p in plan_on._value_probes] == []
        np.testing.assert_array_equal(t_on, t_off)
        assert (t_on[:4] > 1e-9).all()  # the no-crossing penalty
        assert steps_on < 0.4 * steps_off
