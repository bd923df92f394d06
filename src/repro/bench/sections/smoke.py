"""The smoke mix: wall-clock-gated sections over every hot path.

Ported from the historical ``benchmarks/smoke.py`` driver.  Each
section's body is the same measured work it always was — the committed
``smoke_baseline.json`` stays valid — but the acceptance thresholds the
bodies used to assert imperatively now live in each section's
:class:`~repro.bench.gates.GateSpec` table: the section *measures*
(speedups, bit-identity, cache behaviour) and the gate layer *judges*.
Every section also carries a ``wall.<name>`` gate against the committed
per-section baseline (factor x, with the min-section noise floor).
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.gates import DEFAULT_WALL_FACTOR, GateSpec
from repro.bench.registry import section


def _wall(name: str) -> GateSpec:
    return GateSpec(
        gate_id=f"wall.{name}", kind="wall_factor",
        threshold=DEFAULT_WALL_FACTOR,
        description="section wall-clock vs committed baseline",
    )


@section("streaming-core", tags=("smoke", "engine"),
         gates=(_wall("streaming-core"),))
def streaming_core(ctx):
    """Accumulator hot loop: many cheap batches, estimate every batch."""
    from repro.highsigma.analytic import LinearLimitState
    from repro.highsigma.estimators import MeanShiftISCore

    ls = LinearLimitState(beta=4.0, dim=8)
    core = MeanShiftISCore(
        ls, shifts=[4.0 * ls.a], n_max=64 * 1500, batch_size=64,
        target_rel_err=None,
    )
    core.run(np.random.default_rng(0), method="smoke")


@section("gis-6t-engine", tags=("smoke", "engine"),
         gates=(_wall("gis-6t-engine"),))
def gis_engine(ctx):
    """Gradient IS end-to-end on the real batched 6T read engine."""
    from repro.experiments.workloads import make_read_limitstate
    from repro.highsigma.gis import GradientImportanceSampling

    # Fixed spec (~4 sigma for the default design at n_steps=300): the
    # smoke run must not pay for a calibration sweep every time.
    ls = make_read_limitstate(4.995e-11, n_steps=300)
    gis = GradientImportanceSampling(ls, n_max=2000, target_rel_err=None)
    gis.run(np.random.default_rng(1))


@section("sharded-plan", tags=("smoke", "engine"),
         gates=(_wall("sharded-plan"),))
def sharded_plan(ctx):
    """A pinned 4-shard plan executed in-process (plan overhead path)."""
    from repro.highsigma.analytic import LinearLimitState
    from repro.highsigma.estimators import MeanShiftISCore

    ls = LinearLimitState(beta=4.0, dim=8)
    core = MeanShiftISCore(
        ls, shifts=[4.0 * ls.a], n_max=40000, batch_size=1024,
        target_rel_err=None, workers=1, n_shards=4,
    )
    core.run(np.random.default_rng(2), method="smoke")


@section(
    "system-read-batched", tags=("smoke", "workload"),
    gates=(
        _wall("system-read-batched"),
        GateSpec("system-read.batched_vs_scalar", "ratio_min",
                 key="speedup_batched_vs_scalar", threshold=2.0,
                 description="compiled bulk g_batch vs scalar per-sample loop"),
        GateSpec("system-read.batched_matches_scalar", "bool_true",
                 key="batched_matches_scalar",
                 description="bulk block agrees with the scalar loop (rtol 1e-9)"),
    ),
)
def system_read_batched(ctx):
    """Batched system-level read (ten axes, compiled fast path).

    Measures the point of the batched path: evaluating the block
    through ``g_batch`` against the scalar per-sample loop over the
    same samples (2x floor gated by ``system-read.batched_vs_scalar``).
    """
    from repro.experiments.workloads import make_system_read_limitstate

    ls = make_system_read_limitstate(6e-11, n_steps=300)
    rng = np.random.default_rng(3)
    u = rng.normal(0.0, 1.0, size=(1024, 10))
    t0 = time.perf_counter()
    g_batched = ls.g_batch(u)
    t_batched = time.perf_counter() - t0

    # Scalar per-sample loop on a subset (the full block would dominate
    # the smoke budget — exactly the point being made).
    n_scalar = 32
    t0 = time.perf_counter()
    g_scalar = np.array([ls.g(row) for row in u[:n_scalar]])
    t_scalar_per = (time.perf_counter() - t0) / n_scalar
    matches = bool(np.allclose(g_batched[:n_scalar], g_scalar, rtol=1e-9))

    speedup = t_scalar_per * u.shape[0] / t_batched
    return {
        "speedup_batched_vs_scalar": round(speedup, 2),
        "batched_matches_scalar": matches,
    }


@section(
    "column-read-batched", tags=("smoke", "workload"),
    gates=(
        _wall("column-read-batched"),
        GateSpec("column-read.sparse_vs_dense", "ratio_min",
                 key="speedup_sparse_vs_dense", threshold=2.0,
                 description="sparse CSR stamp assembly vs dense cross-check"),
        GateSpec("column-read.sparse_bit_equal_dense", "bool_true",
                 key="sparse_bit_equal_dense",
                 description="stamp-determinism invariant for this BLAS build"),
    ),
)
def column_read_batched(ctx):
    """Bulk sampling on the 34-node read column (96 variation axes).

    Times one bulk block through the sparse-assembly compiled column
    and through the dense-assembly cross-check at the same sample count
    (min of two timed runs per path, so timer noise on a loaded runner
    cannot trip the gate spuriously).  The bit-equality leg pins the
    stamp-determinism invariant for *this* BLAS build (the CSR product
    adds each row's stamps in dgemm's ascending-k order; see the
    `_SPARSE_MIN_BATCH` note in repro.spice.compile) — a numpy linked
    against a BLAS with a different reduction order fails the
    ``column-read.sparse_bit_equal_dense`` gate by design, flagging
    that the invariant needs re-validating rather than hiding it.
    """
    from repro.experiments.workloads import make_column_read_limitstate

    n = 128
    rng = np.random.default_rng(4)
    u = rng.normal(0.0, 1.0, size=(n, 96))
    times, vals = {}, {}
    for asm in ("sparse", "dense"):
        ls = make_column_read_limitstate(6e-11, n_steps=300, assembly=asm)
        ls.g_batch(u[:4])  # compile outside the timed region
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            vals[asm] = ls.g_batch(u)
            best = min(best, time.perf_counter() - t0)
        times[asm] = best
    return {
        "speedup_sparse_vs_dense": round(times["dense"] / times["sparse"], 2),
        "sparse_bit_equal_dense": bool(
            np.array_equal(vals["sparse"], vals["dense"])
        ),
    }


@section(
    "array-read-batched", tags=("smoke", "workload"),
    gates=(
        _wall("array-read-batched"),
        GateSpec("array-read.schur_vs_blocked", "ratio_min",
                 key="speedup_schur_vs_blocked", threshold=1.5,
                 description="per-column Schur peel vs guarded blocked elimination"),
        GateSpec("array-read.schur_matches_blocked", "ratio_max",
                 key="schur_vs_blocked_rel_diff", threshold=1e-6,
                 description="solver choice must not move the converged metric"),
        GateSpec("array-read.sparse_bit_equal_dense", "bool_true",
                 key="sparse_bit_equal_dense",
                 description="stamp determinism at array scale"),
    ),
)
def array_read_batched(ctx):
    """Bulk sampling on a 2-column array slice behind the shared mux.

    The slice (2 columns x 8 cells: 38 unknowns) exercises the
    generalized Schur peel — per-column cell pairs against a border of
    all four bitlines, the mux data lines as interior singletons.  It
    measures the peel against the generic guarded blocked elimination
    (``solver="blocked"``, the permanent cross-check; gated at 1.5x —
    the margin on the baseline container is ~3-4x and grows with the
    column count, since the peel is linear in node count where the
    elimination is cubic), the solver agreement (tolerance, not
    bit-equality — that contract belongs to the assembly axis), and
    the sparse-vs-dense bit-equality at array scale.
    """
    from repro.experiments.workloads import make_array_read_limitstate

    n = 48
    n_cols, n_leakers = 2, 7
    rng = np.random.default_rng(5)
    u = rng.normal(0.0, 1.0, size=(n, 6 * n_cols * (n_leakers + 1)))

    times, vals = {}, {}
    for solver in ("schur", "blocked"):
        ls = make_array_read_limitstate(
            6e-11, n_cols=n_cols, n_leakers=n_leakers, n_steps=240,
            solver=solver,
        )
        ls.g_batch(u[:4])  # compile outside the timed region
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            vals[solver] = ls.g_batch(u)
            best = min(best, time.perf_counter() - t0)
        times[solver] = best
    rel_diff = float(np.max(
        np.abs(vals["schur"] - vals["blocked"]) / np.abs(vals["blocked"])
    ))

    ls_dense = make_array_read_limitstate(
        6e-11, n_cols=n_cols, n_leakers=n_leakers, n_steps=240,
        assembly="dense",
    )
    g_dense = ls_dense.g_batch(u)
    return {
        "speedup_schur_vs_blocked": round(times["blocked"] / times["schur"], 2),
        "schur_vs_blocked_rel_diff": rel_diff,
        "sparse_bit_equal_dense": bool(np.array_equal(g_dense, vals["schur"])),
    }


@section(
    "plan-cache", tags=("smoke", "plan-cache"),
    gates=(
        _wall("plan-cache"),
        GateSpec("plan-cache.warm_vs_cold", "ratio_min",
                 key="speedup_cached_vs_cold", threshold=2.0,
                 description="warm content-addressed hit vs cold compile"),
        GateSpec("plan-cache.mem_tier_served", "bool_true",
                 key="mem_tier_served",
                 description="the in-process tier served every warm key"),
        GateSpec("plan-cache.disk_tier_served", "bool_true",
                 key="disk_tier_served",
                 description="a fresh process loads the audited disk entry"),
        GateSpec("plan-cache.spawn_vs_fork", "ratio_max",
                 key="spawn_vs_fork", threshold=1.5,
                 description="spawn pool (plan deserialization) vs fork pool"),
        GateSpec("plan-cache.spawn_bit_identical", "bool_true",
                 key="spawn_bit_identical",
                 description="spawn-pool estimate exactly equals the fork pool's"),
        GateSpec("plan-cache.pools_ran_native", "bool_true",
                 key="pools_ran_native",
                 description="neither pool fell back to in-process execution"),
    ),
)
def plan_cache(ctx):
    """Serialized-plan setup and spawn-pool execution measurements.

    Measures the plan-serialization layer's two contracts: a warm
    content-addressed cache hit rebuilding the 2-column array bench
    against a cold compile (compile-once contract, 2x floor), and an
    array-sigma run sharded over a persistent *spawn* pool — whose
    workers deserialize the shipped plan instead of recompiling —
    against the fork pool end-to-end (1.5x ceiling, bit-identical
    estimate, with the runner confirming the spawn path actually
    executed).  The audited disk-tier restore time is reported as
    information, not gated: a cross-process load pays the full plan
    audit by design (admission control, not a fast path).
    """
    import tempfile

    from repro.sram.benches import bench_compiled
    from repro.spice.compile import CompiledTransient
    from repro.spice.plan import PlanCache, compile_cached

    ct = bench_compiled("array", n_cols=2, n_leakers=7, n_steps=240)
    circuit, grid = ct.circuit, ct.grid
    probes = (*ct._cross_probes, *ct._peak_probes, *ct._value_probes)

    t_cold = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        CompiledTransient(circuit, grid=grid, probes=probes)
        t_cold = min(t_cold, time.perf_counter() - t0)

    cache = PlanCache()
    compile_cached(circuit, grid, probes=probes, cache=cache)  # prime
    t_hit = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        compile_cached(circuit, grid, probes=probes, cache=cache)
        t_hit = min(t_hit, time.perf_counter() - t0)

    with tempfile.TemporaryDirectory() as tmp:
        compile_cached(
            circuit, grid, probes=probes, cache=PlanCache(cache_dir=tmp)
        )
        reader = PlanCache(cache_dir=tmp)
        t0 = time.perf_counter()
        compile_cached(circuit, grid, probes=probes, cache=reader)
        t_disk = time.perf_counter() - t0
        disk_served = reader.stats["disk_hits"] == 1

    from repro.engine.sharding import ShardedRunner
    from repro.experiments.workloads import make_array_read_limitstate
    from repro.highsigma.gis import GradientImportanceSampling

    est, wall = {}, {}
    ran_native = True
    for method in ("fork", "spawn"):
        ls = make_array_read_limitstate(6e-11, n_cols=2, n_leakers=7, n_steps=240)
        runner = ShardedRunner(workers=2, persistent=True, start_method=method)
        t0 = time.perf_counter()
        gis = GradientImportanceSampling(
            ls, n_max=600, target_rel_err=None, workers=2, n_shards=2,
            runner=runner,
        )
        result = gis.run(np.random.default_rng(6))
        runner.close()
        wall[method] = time.perf_counter() - t0
        est[method] = result.p_fail
        ran_native &= runner.last_mode == method
    return {
        "speedup_cached_vs_cold": round(t_cold / t_hit, 2),
        "cold_compile_s": round(t_cold, 4),
        "cache_hit_s": round(t_hit, 5),
        "disk_restore_s": round(t_disk, 4),
        "mem_tier_served": bool(cache.stats["mem_hits"] >= 3),
        "disk_tier_served": bool(disk_served),
        "spawn_vs_fork": round(wall["spawn"] / wall["fork"], 3),
        "spawn_bit_identical": bool(est["spawn"] == est["fork"]),
        "pools_ran_native": bool(ran_native),
    }
