"""Fault-tolerance recovery overhead.

One pinned shard plan three ways — fault-free baseline, under an
injected fault schedule (transient exception + worker kill + NaN
corruption, each recovered by the retry policy), and journaled-then-
resumed.  The engine's recovery contract is the gated value: every
variant must merge **bit-identical** to the fault-free run.  The
recovery cost (wall-clock vs baseline) and the fault counters are
reported.

On a platform without the fork start method the chaos leg cannot run;
its values stay unmeasured and the ``chaos.faulted_bit_identical``
gate skips (``skip_if_missing``) instead of failing.  On a 1-CPU
container the pooled runs measure fork and respawn overhead, not
parallel speedup — the core count in the host ``_meta`` keeps the
numbers readable in context.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro.bench.gates import GateSpec
from repro.bench.registry import section


def _run_variant(runner, seed):
    from repro.highsigma.analytic import LinearLimitState
    from repro.highsigma.estimators import MeanShiftISCore

    ls = LinearLimitState(beta=4.0, dim=6)
    core = MeanShiftISCore(
        ls, shifts=[4.0 * ls.a], n_max=8192, batch_size=256,
        target_rel_err=None, workers=2, n_shards=4, runner=runner,
    )
    t0 = time.perf_counter()
    res = core.run(np.random.default_rng(seed), method="bench")
    return res, time.perf_counter() - t0


@section(
    "chaos-recovery", tags=("chaos",),
    gates=(
        GateSpec("chaos.faulted_bit_identical", "bool_true",
                 key="chaos_bit_identical", skip_if_missing=True,
                 description="raise+kill+NaN faults recovered bit-identically"),
        GateSpec("chaos.resumed_bit_identical", "bool_true",
                 key="journal_bit_identical",
                 description="journal resume replays bit-identically"),
    ),
)
def chaos_recovery(ctx, seed=17):
    """Baseline vs chaos-schedule vs journal write+resume, one plan."""
    from repro.engine.chaos import FaultSpec, reject_non_finite
    from repro.engine.journal import RunJournal
    from repro.engine.sharding import RetryPolicy, ShardedRunner, fork_available

    values = {"fork_available": bool(fork_available())}

    # Fault-free baseline (workers=1: the reference statistics).
    base, wall_base = _run_variant(None, seed)
    values["baseline_wall_s"] = round(wall_base, 4)

    # Chaos: every recovery path in one run.
    if fork_available():
        runner = ShardedRunner(
            workers=2,
            retry=RetryPolicy(max_attempts=4, validate=reject_non_finite),
            chaos=[
                FaultSpec("raise", shard=0),
                FaultSpec("kill", shard=1),
                FaultSpec("nan", shard=2),
            ],
        )
        chaos, wall_chaos = _run_variant(runner, seed)
        runner.close()
        values.update({
            "chaos_wall_s": round(wall_chaos, 4),
            "chaos_overhead_vs_baseline": round(wall_chaos / wall_base, 3),
            "chaos_bit_identical": bool(
                chaos.p_fail == base.p_fail and chaos.std_err == base.std_err
            ),
            "retries": int(runner.fault_stats["retries"]),
            "worker_deaths": int(runner.fault_stats["worker_deaths"]),
        })

    # Journal write + resume replay.
    fd, journal_path = tempfile.mkstemp(suffix=".journal", prefix="bench_chaos_")
    os.close(fd)
    os.remove(journal_path)  # RunJournal owns creation
    try:
        with RunJournal(journal_path) as journal:
            runner = ShardedRunner(workers=1, journal=journal)
            _, wall_write = _run_variant(runner, seed)
        with RunJournal(journal_path, resume=True) as journal:
            runner = ShardedRunner(workers=1, journal=journal)
            resumed, wall_resume = _run_variant(runner, seed)
        replayed = int(runner.fault_stats["replayed"])
    finally:
        if os.path.exists(journal_path):
            os.remove(journal_path)
    values.update({
        "journal_write_wall_s": round(wall_write, 4),
        "journal_resume_wall_s": round(wall_resume, 4),
        "journal_write_overhead_vs_baseline": round(wall_write / wall_base, 3),
        "replayed_shards": replayed,
        "journal_bit_identical": bool(
            resumed.p_fail == base.p_fail and resumed.std_err == base.std_err
        ),
    })
    return values
