"""Fast-vs-reference throughput sweeps.

Three sections, one per compiled-circuit family, each with the same
contract: the fused fast kernel must be at least as fast as the
per-device reference integrator on identical inputs (``ratio_min``
1.0) and must agree with it on the metrics (``ratio_max`` 1e-6, plus
bit-equal latch decisions).  A compiler regression therefore cannot
hide behind the 6T specialisation — the latch and the multi-column
array slice (sparse assembly + per-column Schur peel on the fused
path) run the same sweep.  The 6T section also pins retirement at the
crossing: the metric-only views must read bit-equal metrics with and
without it, and it reports the sample-steps each engine integrated.
Its 13-row case runs the width of an MPFP search call, which solves
through LAPACK below the compiler's ``_UNROLLED_MIN_BATCH``: it must
beat the reference, agree with it, stay within 1e-9 of the same rows
solved inside the wide batch, and keep retirement bit-equal.  The
section reports 1-row and 13-row call times without gating them.

Engine construction and inputs live in each section's ``setup`` so the
measured phase times kernels, not compilation.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

from repro.bench.gates import GateSpec
from repro.bench.registry import section


def _best_of(fn, repeat):
    """(best wall seconds, last result) over ``repeat`` calls."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


#: Rows of the 6T section's small case: the MPFP search's call width.
_SEARCH_ROWS = 13


def _rel_diff(a, b):
    """Largest relative difference of ``a`` from the nonzero ``b``."""
    return float(np.max(np.abs(a - b) / np.abs(b)))


def _setup_6t(n=512, n_steps=300, sigma_vth=0.03, repeat=2):
    from repro.sram.batched import Batched6T

    rng = np.random.default_rng(42)
    return SimpleNamespace(
        dvth=rng.normal(0.0, sigma_vth, size=(n, 6)),
        bmult=1.0 + rng.normal(0.0, 0.05, size=(n, 6)),
        engines={
            "reference": Batched6T(n_steps=n_steps, kernel="reference"),
            "fast": Batched6T(n_steps=n_steps, kernel="fast", retire=False),
            "fast_retire": Batched6T(n_steps=n_steps, kernel="fast", retire=True),
        },
    )


@section(
    "kernel-6t", tags=("kernel",), setup=_setup_6t,
    gates=(
        GateSpec("kernel-6t.read_fast_vs_reference", "ratio_min",
                 key="read_fast_vs_reference", threshold=1.0,
                 description="fused read kernel vs per-device reference"),
        GateSpec("kernel-6t.write_fast_vs_reference", "ratio_min",
                 key="write_fast_vs_reference", threshold=1.0,
                 description="fused write kernel vs per-device reference"),
        GateSpec("kernel-6t.read_fast_metric_agrees", "ratio_max",
                 key="read_fast_rel_metric_diff", threshold=1e-6),
        GateSpec("kernel-6t.read_fast_retire_metric_agrees", "ratio_max",
                 key="read_fast_retire_rel_metric_diff", threshold=1e-6),
        GateSpec("kernel-6t.write_fast_metric_agrees", "ratio_max",
                 key="write_fast_rel_metric_diff", threshold=1e-6),
        GateSpec("kernel-6t.write_fast_retire_metric_agrees", "ratio_max",
                 key="write_fast_retire_rel_metric_diff", threshold=1e-6),
        GateSpec("kernel-6t.read_access_times_retire_bit_equal", "bool_true",
                 key="read_access_times_retire_bit_equal",
                 description="retiring at the crossing leaves access times bit-equal"),
        GateSpec("kernel-6t.write_trip_times_retire_bit_equal", "bool_true",
                 key="write_trip_times_retire_bit_equal",
                 description="retiring at the crossing leaves trip times bit-equal"),
        GateSpec("kernel-6t.read_small_fast_vs_reference", "ratio_min",
                 key="read_small_fast_vs_reference", threshold=1.0,
                 description="13-row fused read (LAPACK solves) vs reference"),
        GateSpec("kernel-6t.write_small_fast_vs_reference", "ratio_min",
                 key="write_small_fast_vs_reference", threshold=1.0,
                 description="13-row fused write (LAPACK solves) vs reference"),
        GateSpec("kernel-6t.read_small_fast_metric_agrees", "ratio_max",
                 key="read_small_fast_rel_metric_diff", threshold=1e-6),
        GateSpec("kernel-6t.write_small_fast_metric_agrees", "ratio_max",
                 key="write_small_fast_rel_metric_diff", threshold=1e-6),
        GateSpec("kernel-6t.read_small_vs_wide_batch", "ratio_max",
                 key="read_small_vs_wide_rel_diff", threshold=1e-9,
                 description="13 rows via LAPACK vs the same rows unrolled"),
        GateSpec("kernel-6t.write_small_vs_wide_batch", "ratio_max",
                 key="write_small_vs_wide_rel_diff", threshold=1e-9,
                 description="13 rows via LAPACK vs the same rows unrolled"),
        GateSpec("kernel-6t.read_access_times_small_retire_bit_equal",
                 "bool_true", key="read_access_times_small_retire_bit_equal",
                 description="13-row access times bit-equal with retirement"),
    ),
)
def kernel_6t(ctx, n=512, n_steps=300, sigma_vth=0.03, repeat=2):
    """Read and write batches through the three 6T engine variants, the
    metric-only views with and without retirement, and the same at the
    search's call width (the first :data:`_SEARCH_ROWS` rows)."""
    values = {}
    small = slice(0, _SEARCH_ROWS)
    for mode in ("read", "write"):
        results, small_results = {}, {}
        for name, eng in ctx.engines.items():
            op = eng.read if mode == "read" else eng.write
            best, results[name] = _best_of(
                lambda op=op: op(ctx.dvth, ctx.bmult), repeat
            )
            values[f"{mode}_{name}_samples_per_s"] = round(n / best, 1)
            if name == "fast_retire":
                continue
            best, small_results[name] = _best_of(
                lambda op=op: op(ctx.dvth[small], ctx.bmult[small]), repeat
            )
            values[f"{mode}_small_{name}_samples_per_s"] = round(_SEARCH_ROWS / best, 1)
        ref = results["reference"].metric
        for name in ("fast", "fast_retire"):
            values[f"{mode}_{name}_rel_metric_diff"] = _rel_diff(
                results[name].metric, ref
            )
        values[f"{mode}_small_fast_rel_metric_diff"] = _rel_diff(
            small_results["fast"].metric, small_results["reference"].metric
        )
        values[f"{mode}_small_vs_wide_rel_diff"] = _rel_diff(
            small_results["fast"].metric, results["fast"].metric[small]
        )
        for tag in ("", "small_"):
            values[f"{mode}_{tag}fast_vs_reference"] = round(
                values[f"{mode}_{tag}fast_samples_per_s"]
                / values[f"{mode}_{tag}reference_samples_per_s"], 3
            )
    for view in ("read_access_times", "write_trip_times"):
        metrics = {}
        for name in ("fast", "fast_retire"):
            eng = ctx.engines[name]
            eng.n_sample_steps = 0
            metrics[name] = getattr(eng, view)(ctx.dvth, ctx.bmult)
            values[f"{view}_{name}_steps_per_sample"] = round(
                eng.n_sample_steps / n, 1
            )
        values[f"{view}_retire_bit_equal"] = bool(
            np.array_equal(metrics["fast"], metrics["fast_retire"])
        )
    small_times = {
        name: ctx.engines[name].read_access_times(ctx.dvth[small], ctx.bmult[small])
        for name in ("fast", "fast_retire")
    }
    values["read_access_times_small_retire_bit_equal"] = bool(
        np.array_equal(small_times["fast"], small_times["fast_retire"])
    )
    # The search's call widths on the production (retiring) engine.
    eng = ctx.engines["fast_retire"]
    for view in ("read_access_times", "write_trip_times"):
        for rows in (1, _SEARCH_ROWS):
            best, _ = _best_of(
                lambda view=view, rows=rows: getattr(eng, view)(
                    ctx.dvth[:rows], ctx.bmult[:rows]
                ), repeat,
            )
            values[f"{view}_{rows}_row_ms"] = round(1e3 * best, 3)
    return values


def _setup_latch(n=512, repeat=2):
    from repro.sram.senseamp import SenseAmp

    rng = np.random.default_rng(43)
    return SimpleNamespace(
        sense=SenseAmp(),
        dvt=rng.normal(0.0, 0.02, size=(n, 4)),
        dv=rng.uniform(-0.15, 0.15, size=n),
    )


@section(
    "kernel-latch", tags=("kernel",), setup=_setup_latch,
    gates=(
        GateSpec("kernel-latch.fast_vs_reference", "ratio_min",
                 key="fast_vs_reference", threshold=1.0,
                 description="fused compiled latch vs its reference kernel"),
        GateSpec("kernel-latch.decisions_equal", "bool_true",
                 key="decisions_equal",
                 description="latch decisions bit-equal across kernels"),
        GateSpec("kernel-latch.times_agree", "ratio_max",
                 key="rel_time_diff", threshold=1e-6),
    ),
)
def kernel_latch(ctx, n=512, repeat=2):
    """The compiled non-6T circuit: the sense-amp latch (solve3 path)."""
    results, rates = {}, {}
    for name in ("reference", "fast"):
        best, results[name] = _best_of(
            lambda name=name: ctx.sense.resolve_batch(
                ctx.dv, ctx.dvt, kernel=name
            ), repeat,
        )
        rates[name] = n / best
    c_ref, t_ref = results["reference"]
    c_fast, t_fast = results["fast"]
    decisions_equal = bool(
        (c_fast == c_ref).all()
        and (np.isfinite(t_fast) == np.isfinite(t_ref)).all()
    )
    finite = np.isfinite(t_ref) & np.isfinite(t_fast)
    rel = float(np.max(
        np.abs(t_fast[finite] - t_ref[finite]) / t_ref[finite]
    )) if finite.any() else 0.0
    return {
        "reference_samples_per_s": round(rates["reference"], 1),
        "fast_samples_per_s": round(rates["fast"], 1),
        "fast_vs_reference": round(rates["fast"] / rates["reference"], 3),
        "decisions_equal": decisions_equal,
        "rel_time_diff": rel,
    }


def _setup_array(n=128, n_steps=300, repeat=2):
    from repro.sram.array import ArrayConfig, ArraySlice

    arr = ArraySlice(config=ArrayConfig(n_cols=2, n_leakers=3))
    n_arr = min(n, 128)  # the reference path is per-device Python
    rng = np.random.default_rng(44)
    dvt = rng.normal(0.0, 0.03, size=(n_arr, arr.n_variation_devices))
    for name in ("reference", "fast"):  # compile outside the timed region
        arr.access_times_batch(dvt[:2], n_steps=n_steps, kernel=name)
    return SimpleNamespace(arr=arr, dvt=dvt, n_arr=n_arr)


@section(
    "kernel-array", tags=("kernel",), setup=_setup_array,
    gates=(
        GateSpec("kernel-array.fast_vs_reference", "ratio_min",
                 key="fast_vs_reference", threshold=1.0,
                 description="fused compiled array slice vs reference kernel"),
        GateSpec("kernel-array.metrics_agree", "ratio_max",
                 key="rel_metric_diff", threshold=1e-6),
    ),
)
def kernel_array(ctx, n=128, n_steps=300, repeat=2):
    """2 columns behind the shared mux: sparse assembly + Schur peel."""
    results, rates = {}, {}
    for name in ("reference", "fast"):
        best, results[name] = _best_of(
            lambda name=name: ctx.arr.access_times_batch(
                ctx.dvt, n_steps=n_steps, kernel=name
            ), repeat,
        )
        rates[name] = ctx.n_arr / best
    rel = float(np.max(
        np.abs(results["fast"] - results["reference"])
        / np.abs(results["reference"])
    ))
    return {
        "reference_samples_per_s": round(rates["reference"], 1),
        "fast_samples_per_s": round(rates["fast"], 1),
        "fast_vs_reference": round(rates["fast"] / rates["reference"], 3),
        "rel_metric_diff": rel,
    }
