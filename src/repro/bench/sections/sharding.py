"""Sharded-engine determinism and speedup.

Runs the F1-style gradient-IS workload (read-access limit state on the
batched 6T engine) three ways with one pinned shard plan:

* serial baseline  — ``workers=1, n_shards=1`` (the classic loop);
* sharded, 1 proc  — ``workers=1, n_shards=W`` (plan overhead only);
* sharded, W procs — ``workers=W, n_shards=W`` (the parallel path).

The gated value is the engine's determinism contract: the two sharded
runs must be bit-identical (estimates depend on the shard plan, never
on ``workers``).  The parallel speedup is *reported*, never gated — on
a 1-CPU container the pooled run measures fork overhead and nothing
else, so the core count travels with the record instead of letting a
1-core number read as a regression.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bench.gates import GateSpec
from repro.bench.registry import section


def _run_gis(make_ls, seed, n_max, workers, n_shards):
    from repro.highsigma.gis import GradientImportanceSampling

    ls = make_ls()
    gis = GradientImportanceSampling(
        ls, n_max=n_max, target_rel_err=None, batch_size=256,
        workers=workers, n_shards=n_shards,
    )
    t0 = time.perf_counter()
    res = gis.run(np.random.default_rng(seed))
    return res, time.perf_counter() - t0, ls.n_evals


@section(
    "sharding-determinism", tags=("sharding", "engine"),
    gates=(
        GateSpec("sharding.bit_identical_across_workers", "bool_true",
                 key="bit_identical",
                 description="estimates depend on the shard plan, never workers"),
    ),
)
def sharding_determinism(ctx, workers=4, n_max=4000, n_steps=300, seed=0):
    """Serial vs sharded-1-proc vs sharded-W-procs on one pinned plan."""
    from repro.experiments.workloads import (
        calibrate_read_spec,
        make_read_limitstate,
    )

    cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    )
    # A fixed spec near the 4-sigma point of the default design: accuracy
    # is irrelevant here, only that per-batch work is real engine work.
    spec = calibrate_read_spec(sigma_target=4.0, n_steps=n_steps)

    def make_ls():
        return make_read_limitstate(spec, n_steps=n_steps)

    serial, t_serial, _ = _run_gis(make_ls, seed, n_max, 1, 1)
    plan1, t_plan1, evals1 = _run_gis(make_ls, seed, n_max, 1, workers)
    planw, t_planw, evalsw = _run_gis(make_ls, seed, n_max, workers, workers)

    identical = bool(
        plan1.p_fail == planw.p_fail
        and plan1.std_err == planw.std_err
        and plan1.n_evals == planw.n_evals
        and evals1 == evalsw
    )
    return {
        "cores": int(cores or 0),
        "workers": workers,
        "serial_wall_s": round(t_serial, 3),
        "sharded_1proc_wall_s": round(t_plan1, 3),
        "sharded_pool_wall_s": round(t_planw, 3),
        "p_fail_serial": float(serial.p_fail),
        "p_fail_sharded": float(planw.p_fail),
        "bit_identical": identical,
        "speedup_pool_vs_1proc": round(
            t_plan1 / t_planw if t_planw > 0 else float("nan"), 3
        ),
    }
