"""Fast-vs-reference throughput sweeps.

Three sections, one per compiled-circuit family, each with the same
contract: the fused fast kernel must be at least as fast as the
per-device reference integrator on identical inputs (``ratio_min``
1.0) and must agree with it on the metrics (``ratio_max`` 1e-6, plus
bit-equal latch decisions).  A compiler regression therefore cannot
hide behind the 6T specialisation — the latch and the multi-column
array slice (sparse assembly + per-column Schur peel on the fused
path) run the same sweep.

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
    ),
)
def kernel_6t(ctx, n=512, n_steps=300, sigma_vth=0.03, repeat=2):
    """Read and write batches through the three 6T engine variants."""
    values = {}
    for mode in ("read", "write"):
        results = {}
        for name, eng in ctx.engines.items():
            op = eng.read if mode == "read" else eng.write
            best, results[name] = _best_of(
                lambda op=op: op(ctx.dvth, ctx.bmult), repeat
            )
            values[f"{mode}_{name}_samples_per_s"] = round(n / best, 1)
        ref = results["reference"].metric
        for name in ("fast", "fast_retire"):
            rel = float(np.max(np.abs(results[name].metric - ref) / np.abs(ref)))
            values[f"{mode}_{name}_rel_metric_diff"] = rel
        values[f"{mode}_fast_vs_reference"] = round(
            values[f"{mode}_fast_samples_per_s"]
            / values[f"{mode}_reference_samples_per_s"], 3
        )
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
